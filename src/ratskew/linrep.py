"""Rational power series in noncommuting variables, as linear representations.

A series is stored as a triple (lam, mu, gamma): a row vector, a matrix per
letter, and a column vector, with the coefficient of a word w1..wk equal to
lam * mu(w1) * ... * mu(wk) * gamma.  The letter matrices live in a dict, so
letters that never occur cost nothing and alphabets may grow on demand.

Every public operation returns a *reduced* representation, of minimal
dimension.  That makes the zero test trivial (dim == 0), keeps arithmetic
from snowballing, and turns exact equality into reduction of a difference.

:class:`SeriesMatrix` packs a whole matrix of series into one representation:
a list of entry rows, one per matrix row, the letter matrices, and a list of
exit columns, one per matrix column, with entry (i, j) of the coefficient of
w equal to rows[i] * mu(w) * cols[j]; the star-based matrix inversion
works on it.  A :class:`LinRep` is the 1 x 1 case (dim, [lam], mu, [gamma])
of this *block triple* (dim, rows, mu, cols), and both classes build their
sums, Cauchy products and stars with the same block functions,
:func:`_direct_sum`, :func:`_product` and :func:`_star`, then reduce the
result once.

Both classes reduce through one engine, :func:`_minimise`, on the block
triple.  It runs a reachability pass, restricting to the span of every row
times mu(w), then the observability pass :func:`_observe`, the same pass
on the transpose with rows and columns swapped, and transposes back
(Berstel-Reutenauer, *Noncommutative Rational Series with Applications*,
ch. 2).  A pass eliminates only while it grows the span; the restricted
entry rows and letter matrices are then read at the pivot columns of the
fully reduced basis, with no second elimination.  A pass stops as soon as
the span is the whole space.  That is exact: a full-rank reduced echelon
basis is the identity, so the pivot read would return the input as it is.
On a representation that is already minimal each pass therefore stops
after about ``dim`` inserts.

Both passes are one breadth-first search, :func:`_reach`, over one
sparse-column kernel, :class:`_Kernel`, which differs between fields only
in its coefficient ring: Z for ``q`` (``fields.ZZ``), Z/p for ``fp:p``
(``fields.zmod_ring(p)``) and Z[t1..tr] for ``qt:r``
(``fields.poly_ring(r)``: Z[t2..tr][t1], one ring of a tower nested
down to Z, which is ``poly_ring(0)``).  A vector is a list of ring
elements over one common denominator, and a letter matrix its sparse
columns over one denominator, so v * M costs one product per nonzero
entry.  The elimination runs fraction-free in one ``la.Echelon`` over
the kernel's ring, with no ``Fraction``, ``Fp`` or ``RatFunc`` in the
inner loop.  The search inserts each product as it comes and multiplies
on the row the insert returns, reduced and primitive, so a product that
adds nothing to the span costs no content pass.
That is exact because scaling a vector or a letter matrix does not
change the span of row * mu(w), and a subspace has exactly one reduced
row-echelon basis: the ring basis is that basis with each row scaled by
its pivot, so the pivot-1 rows, and every value read from them, are
those of elimination on field values.  This is the only minimisation
routine.  The tests check it without looking inside:
over ``q`` and ``fp:p`` against the Hankel rank and a word-by-word
equality computed by plain Gaussian elimination, and over ``qt:r`` by
specialisation, since evaluating t at an integer point where no
denominator vanishes maps a computation over Q(t1..tr) onto the same
computation over Q, and cannot raise the rank.  ``LinRep.min_word`` and
the polynomiality test of ``LinRep.to_free`` run one level search on the
same kernel, :func:`_levels`; ``to_free`` and ``render`` share one
listing of the words with nonzero rows, ``LinRep._terms``.

The kernel form is the stored state.  A representation built by an
operation holds its block in the kernel's form only; sums, products, stars,
``scale`` and ``delta`` assemble their blocks from the operands' kernel
forms, rescaling to a common denominator and computing only the product
and star bridge entries afresh, and every stored vector or matrix has the
gcd of its entries and its denominator divided out, so denominators do not
grow along chains of operations.  Field values (``lam``, ``mu``,
``gamma``; ``rows``, ``mu``, ``cols``) are built once, the first time
something reads them (``coeff``, ``to_json``, truncation).  A
representation made from field values (``word``, ``scalar``, a loaded
certificate, ``SeriesMatrix.constant``) is converted once, on first use.
A field value has one canonical form, so every value read is the same
whichever scaling the kernel form carries.

Operations avoid reductions they cannot need: a product with a constant
only scales the other factor, a sum whose operands' kernel forms differ
only in the sign of lam is zero with no direct sum, and ``delta`` is
memoised per instance.
Sums, stars, products other than word times series, and loads of any
block but a single word's path or a nonzero constant run both passes of
:func:`_minimise`.
``delta`` and ``from_free`` run only the second, :func:`_observe`: a
transduction keeps the entry row and the letter matrices, so the whole
space of its reduced operand stays reachable, every state of a
polynomial's prefix tree is reached by its own prefix, and on such a
block the reachability pass returns its input unchanged.
A product c*w * S of a single word (``LinRep.word``, ``from_free`` of one
term, a loaded path block, a ``scale`` of one, or the ``delta`` of one by
its last letter) with a series S runs at most the second pass, on the
block that the first would return, and runs it only when the nonempty
words of S reach its whole space (``LinRep._word_times``).
Every prefix of w reaches its own state of the word's path, and a path
through all of w goes on into S by a letter, so the reachable space is
K^(|w|+1) + V+, with V+ = span{lam mu(v) : v nonempty} in S's states.
Its fully reduced echelon basis is the identity on the word's states
followed by V+'s own basis, so that block is the word's own block, then
V+'s restriction of S, which S memoises (``LinRep._tail``), joined by
the product's bridge.  It is the same block, not a new basis: the field
values, the kernel form and so every certificate are those of
``reduce()``.  When lam is not in V+, every state of that block is
observable, so the second pass would keep all of it.
``LinRep.from_json`` runs neither on the path block of a word c*w
(:func:`_is_path`, the block ``LinRep.word`` builds, up to scaling): state
k is reached by the prefix w[:k] and observed by the suffix w[k:], so both
passes would span the whole space and return the block as it is.  It is
kept as loaded and marked as ``word`` marks it, and ``to_free`` reads
such a word, like a constant, straight off its block.  Nor does it run
either pass on a letterless 1 x 1 block (a, {}, b) with a and b nonzero:
its minimal form keeps a and b, so it is kept as loaded, with the
constant a*b read from the field values.
``SeriesMatrix.to_json`` runs the reachability pass once per matrix row,
since every entry of a row shares its entry row and letter matrices, and
the observability pass once per entry; either way the result is the one
``reduce()`` gives, kernel form included.
Results share vectors and matrices with their operands, so nothing mutates
a representation once it is built; the block builders write only to lists
they have just allocated.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import partial
from itertools import chain
from math import lcm

from .fields import (QQ, ZZ, Field, Fp, MPoly, PrimeField, RatFunc, RationalField, poly_ring, scalar_from_json,
                     scalar_to_json, zmod_ring)
from .freealg import FreeElem
from .la import Echelon, dot, identity, invert_matrix, vec_mat
from .words import word_key


# ---------------------------------------------------------------------------
# the minimisation engine shared by LinRep and SeriesMatrix
# ---------------------------------------------------------------------------

_ZERO, _ONE = QQ.zero(), QQ.one()


def _q_in(values):
    """The nonzero Fractions among values as (index, integer) pairs over
    their least common denominator."""
    zero = _ZERO  # most zeros are this one object, which skips the test of its value
    ratios = [(i, a.as_integer_ratio()) for i, a in enumerate(values) if a is not zero and a]
    den = lcm(*[q for _, (_, q) in ratios])
    if den == 1:
        return [(i, n) for i, (n, _) in ratios], 1
    return [(i, n * (den // q)) for i, (n, q) in ratios], den


def _q_out(ints, den):
    if den == 1:
        return [Fraction(x) if x else _ZERO for x in ints]
    return [Fraction(x, den) if x else _ZERO for x in ints]


def _fp_in(values):
    return [(i, a.v) for i, a in enumerate(values) if a.v], 1


def _fp_out(p, ints, den):
    return [Fp(p, x) for x in ints]


def _lcm_of(ring, dens):
    big, lcm_ = ring.one, ring.lcm
    for d in dens:
        if d != big:
            big = lcm_(big, d)
    return big


def _qt_in(field, ring, values):
    """The nonzero RatFuncs among values as (index, polynomial) pairs over
    one common polynomial denominator.  num/den is stored as (c*N)/(d*D)
    with N, D elements of ``ring``, so an entry is c/d times N times D's
    cofactor in the lcm of the non-constant D's, over one integer
    denominator.  Entries over a constant denominator, most of them in
    practice, convert with no polynomial lcm."""
    zero = field.zero()
    pos = [i for i, a in enumerate(values) if a is not zero and a.num.p]
    mul, div = ring.mul, ring.div_exact
    ents = []
    dens: dict = {}  # each non-constant denominator -> its cofactor in their lcm lp
    big = 1
    for i in pos:
        a = values[i]
        num, den = a.num, a.den
        if den.is_const():  # monic, so 1
            q, key = num.c, None
        else:
            q, key = num.c / den.c, den
            dens[den] = den.p
        ents.append((q, num.p, key))
        if q.denominator != 1:
            big = lcm(big, q.denominator)
    if dens:
        lp = _lcm_of(ring, dens.values())
        for k, d in dens.items():
            dens[k] = div(lp, d)
    else:
        lp = ring.one
    dens[None] = lp
    const = ring.const
    out = []
    for i, (q, p, key) in zip(pos, ents):
        k = q.numerator * (big // q.denominator)
        m = mul(p, dens[key])
        out.append((i, m if k == 1 else mul(const(k), m)))
    return out, lp if big == 1 else mul(const(big), lp)


def _qt_out(field, ring, polys, den):
    """The RatFuncs polys[i] / den, wrapping the ring elements.  Over a
    constant den the numerator's content is 1 / den; otherwise x / den is
    (x / g) / (d / g) with g their gcd, and with d = c * P for the integer
    content c of d, the monic denominator is P / lc(P) and the numerator's
    content 1 / (c * lc(P)) = 1 / lc(d)."""
    nv, lead, is_const = ring.nvars, ring.lead, ring.is_const
    one, gcd_, div = ring.one, ring.gcd, ring.div_exact
    zero, den1, out = field.zero(), field.one().den, []
    for x in polys:
        if not x:
            out.append(zero)
            continue
        d = den
        if not is_const(d):
            g = gcd_(x, d)
            if g != one:
                x, d = div(x, g), div(d, g)
        num = MPoly._primitive(nv, x, Fraction(1, lead(d)))
        out.append(RatFunc._of(num, den1 if is_const(d) else MPoly._primitive(nv, d, _ONE).monic()))
    return out


def _sparse_col(xs):
    return [(i, x) for i, x in enumerate(xs) if x]


def _dense_col(col, n, zero):
    """The length-n list holding the entries (i, x) of col, zero elsewhere."""
    xs = [zero] * n
    for i, x in col:
        xs[i] = x
    return xs


class _Kernel:
    """The span kernel of every field: vectors and letter matrices over a
    coefficient ring ``ring``, which is Z (``fields.ZZ``) for ``q``, Z/p
    (``fields.zmod_ring(p)``) for ``fp:p`` and Z[t1..tr]
    (``fields.poly_ring(r)``) for ``qt:r``.

    A vector is a pair (xs, den) standing for xs / den, a list of ring
    elements over one denominator; over Z and Z[t1..tr] den is positive
    (has a positive lex-leading coefficient), over Z/p it is 1.  A letter
    matrix is a pair (columns, den), each column sparse, a list of (row
    index, nonzero element): letter matrices are mostly zero, so v * M is
    one sparse dot product per column.  The ring's operations are bound
    once, here, so that the inner loops look up no ring.

    Besides the ring, two things depend on the field, and are given to the
    kernel: ``to_ring`` and ``to_field`` convert between field values
    (Fraction, Fp, RatFunc) and ring form.  The elimination is one
    ``la.Echelon`` over the kernel's ring.  Field values are built only
    by ``out``, ``out_m`` and ``dot``.

    The kernel converts field vectors and letter matrices to its form
    (``vec``, ``mat``) and back (``out``, ``out_m``), gives the search
    vector of an entry row (``span``), multiplies (``product``), tests a
    search vector against an exit vector (``pairs``) and reads a span's
    coordinates at the pivots (``read``, ``restrict``, ``coords``).  For
    the block functions it builds zero and unit vectors (``zeros``,
    ``units``), concatenations (``cat``), block matrices (``grid``), exact
    products (``vm``, ``outer``, ``scale``, and ``dot``, which gives a
    field value), and divides out common factors (``norm``, ``norm_m``).

    Its results are checked in ``tests/test_linrep.py`` by oracles that do
    not look inside it: the Hankel rank and a word-by-word equality over
    ``q`` and ``fp:p``, and specialisation at integer points from ``qt:r``
    to ``q`` and from ``q`` to ``fp:p``.
    """

    def __init__(self, ring, to_ring, to_field) -> None:
        self.ring, self.zero, self.one = ring, ring.zero, ring.one
        self._dot, self._mul, self._div, self._quo = ring.dot, ring.mul, ring.div_exact, ring.quo
        self._in, self._out = to_ring, to_field

    def vec(self, v):
        col, den = self._in(v)
        return _dense_col(col, len(v), self.zero), den

    def mat(self, m):
        n = len(m)
        flat, den = self._in(list(chain.from_iterable(zip(*m))))  # column by column
        cols: list = [[] for _ in m]
        for k, x in flat:
            cols[k // n].append((k % n, x))
        return cols, den

    def span(self, v):
        return v[0]

    def out(self, v):
        return self._out(*v)

    def out_m(self, m):
        """Field rows of the stored columns m."""
        rows, den = self.transposed(m)
        return [self._out(_dense_col(r, len(rows), self.zero), den) for r in rows]

    def transposed(self, m):
        cols, den = m
        rows: list = [[] for _ in cols]
        for j, c in enumerate(cols):
            for i, x in c:
                rows[i].append((j, x))
        return rows, den

    def nonzero(self, m):
        return any(m[0])

    def product(self, v, m):
        """v * M as the sparse dot products give it, no common factor
        divided out.  Most columns of a letter matrix are empty, and cost
        no call."""
        dot, zero = self._dot, self.zero
        return [dot(v, c) if c else zero for c in m[0]]

    def pairs(self, v, c):
        return bool(self._dot(v, _sparse_col(c[0])))

    def read(self, v, piv):
        xs = v[0]
        return [xs[p] for p in piv], v[1]

    def _scales(self, ech):
        """Row i of the ring basis is a_i times row i of the pivot-1 basis;
        with L = lcm(a_i), (L / a_i) * x / L is x / a_i."""
        a = [r[q] for r, q in zip(ech.rows, ech.pivots)]
        big = _lcm_of(self.ring, a)
        return [self._div(big, ai) for ai in a], big

    def _column(self, ech, scale, col):
        if not col:
            return []
        dot, mul = self._dot, self._mul
        return [(i, mul(s, x)) for i, (b, s) in enumerate(zip(ech.rows, scale)) if (x := dot(b, col))]

    def restrict(self, ech, ms):
        scale, big = self._scales(ech)
        mul = self._mul
        return [([self._column(ech, scale, cols[q]) for q in ech.pivots], mul(den, big)) for cols, den in ms]

    def coords(self, ech, cs):
        scale, big = self._scales(ech)
        dot, mul = self._dot, self._mul
        out = []
        for xs, den in cs:
            col = _sparse_col(xs)
            out.append(([mul(s, dot(b, col)) for b, s in zip(ech.rows, scale)], mul(den, big)))
        return out

    def zeros(self, n):
        return [self.zero] * n, self.one

    def units(self, n):
        one, zero = self.one, self.zero
        return [([one if i == j else zero for i in range(n)], one) for j in range(n)]

    def norm(self, v):
        """v with the gcd of its entries and its denominator divided out."""
        xs, den = v
        g = self.ring.content(xs, den)
        if g == self.one:
            return v
        return self._quo(xs, g), self._div(den, g)

    def norm_m(self, m):
        cols, den = m
        xs = [x for c in cols for _, x in c]
        g = self.ring.content(xs, den)
        if g == self.one:
            return m
        it = iter(self._quo(xs, g))
        return [[(i, next(it)) for i, _ in c] for c in cols], self._div(den, g)

    def _common(self, vs):
        """The element lists of the vectors vs over their least common denominator."""
        big = _lcm_of(self.ring, [d for _, d in vs])
        one, mul = self.one, self._mul
        out = []
        for xs, d in vs:
            f = one if d == big else self._div(big, d)
            out.append(xs if f == one else [mul(f, x) for x in xs])
        return out, big

    def cat(self, vs):
        parts, big = self._common(vs)
        return list(chain.from_iterable(parts)), big

    def grid(self, dims, blocks):
        """The matrix whose block (g, h), dims[g] x dims[h], is blocks[g, h],
        zero where absent, over the lcm of the blocks' denominators."""
        big = _lcm_of(self.ring, [m[1] for m in blocks.values()])
        one, mul = self.one, self._mul
        out = []
        for h, nh in enumerate(dims):
            cols = [[] for _ in range(nh)]
            off = 0
            for g, ng in enumerate(dims):
                m = blocks.get((g, h))
                if m is not None:
                    f = one if m[1] == big else self._div(big, m[1])
                    for c, y in zip(cols, m[0]):
                        if f != one:
                            c += [(i + off, mul(f, x)) for i, x in y]
                        else:
                            c += [(i + off, x) for i, x in y] if off else y
                off += ng
            out += cols
        return out, big

    def vm(self, v, m):
        """v * M, exactly."""
        dot, zero, xs = self._dot, self.zero, v[0]
        return self.norm(([dot(xs, c) if c else zero for c in m[0]], self._mul(v[1], m[1])))

    def outer(self, us, vs, base=None):
        """base + sum_k us[k] vs[k], with the us as columns and the vs as
        rows; no base is the zero matrix."""
        (u, du), (v, dv) = self._common(us), self._common(vs)
        dot, mul = self._dot, self._mul
        exits = [(i, e) for i, e in enumerate(map(_sparse_col, zip(*u))) if e]  # e holds the us[k][i]
        cols = [[(i, y) for i, e in exits if (y := dot(vj, e))] for vj in zip(*v)]
        den = mul(du, dv)
        if base is not None:
            bc, bd = base
            big = _lcm_of(self.ring, [den, bd])
            fc, fb = self._div(big, den), self._div(big, bd)
            add = self.ring.add
            merged = []
            for c, b in zip(cols, bc):
                acc = {i: mul(fb, y) for i, y in b}
                for i, y in c:
                    y = mul(fc, y)
                    acc[i] = add(acc[i], y) if i in acc else y
                merged.append([(i, y) for i, y in acc.items() if y])
            cols, den = merged, big
        return self.norm_m((cols, den))

    def scale(self, v, c):
        xs, den = v
        if not c:
            return self.zeros(len(xs))
        ((_, cx),), cd = self._in([c])
        mul = self._mul
        return self.norm(([mul(cx, x) for x in xs], mul(den, cd)))

    def dot(self, u, v):
        return self._out([self._dot(u[0], _sparse_col(v[0]))], self._mul(u[1], v[1]))[0]


_KERNELS: dict = {}


def _kernel(field: Field):
    """The kernel of a field, built once per field."""
    k = _KERNELS.get(field.name)
    if k is None:
        if isinstance(field, RationalField):
            k = _Kernel(ZZ, _q_in, _q_out)
        elif isinstance(field, PrimeField):
            k = _Kernel(zmod_ring(field.p), _fp_in, partial(_fp_out, field.p))
        else:
            ring = poly_ring(field.nvars)
            k = _Kernel(ring, partial(_qt_in, field, ring), partial(_qt_out, field, ring))
        _KERNELS[field.name] = k
    return k


def _reach(kern, dim, rows, mu, cols):
    """Restrict to the span of row * mu(w) over the entry rows and all words w.

    The one breadth-first search of the engine, for every field: ``rows``,
    ``mu`` and ``cols`` are in the form of the kernel ``kern``, which does
    the products, the elimination and the pivot read.  Each product is
    inserted into the ``la.Echelon`` raw, as the sparse dot products give
    it, and the search queues the row the insert returns: the product
    reduced by the basis and made primitive, which the insert computes
    anyway.  That row is a nonzero multiple of the product plus vectors
    inserted before it, whose own products the FIFO queue has inserted by
    the time the row is multiplied, so every insert is accepted or rejected
    as for the plain product, and the span and its one reduced echelon
    basis are those of the plain search.
    Returns ``(d, rows, mu, cols)`` in the fully reduced echelon basis of
    that span, still in the kernel's form; letters whose restricted matrix
    is zero are dropped.  The search stops as soon as the span is the whole
    space: a full-rank reduced echelon basis is the identity, so the pivot
    read would give back ``rows``, ``mu`` and ``cols`` as they are, and they
    are returned unchanged.
    """
    ech = Echelon(kern.ring)
    add, product = ech.add, kern.product
    queue = deque(r for r in map(add, map(kern.span, rows)) if r is not None)
    letters = sorted(mu)
    mats = [mu[x] for x in letters]
    d = len(queue)
    while queue and d < dim:
        v = queue.popleft()
        for m in mats:
            r = add(product(v, m))
            if r is not None:
                d += 1
                if d == dim:
                    break
                queue.append(r)
    if d == dim:
        return dim, rows, {x: mu[x] for x in letters if kern.nonzero(mu[x])}, cols
    # span vectors have their coordinates at the pivots: read only those columns
    new_mu = {x: m for x, m in zip(letters, kern.restrict(ech, mats)) if kern.nonzero(m)}
    return d, [kern.read(r, ech.pivots) for r in rows], new_mu, kern.coords(ech, cols)


def _levels(kern, lam, mu):
    """The level search over the rows lam * mu(w), in the kernel's form,
    ``mu`` a letter-sorted list of (letter, matrix) pairs: yields the
    (word, row) pairs kept on each level in length-lex order, a word being
    kept when its row grows the span of those kept before it on its level.
    As in :func:`_reach`, the raw product is inserted and the row the
    insert returns kept: a nonzero multiple of the product plus earlier
    products of the level.  So every prefix span, every kept word, and the
    pairing with gamma of the first word whose true row pairs nonzero are
    those of the search on the rows lam * mu(w) themselves."""
    level = [((), kern.span(lam))]
    product = kern.product
    while level:
        yield level
        add = Echelon(kern.ring).add
        level = [(w + (x,), r) for w, v in level for x, m in mu if (r := add(product(v, m))) is not None]


def _minimise(k, dim, rows, mu, cols):
    """Minimal form of (entry rows, letter matrices, exit columns), all in
    the form of the kernel k: the reachable part (:func:`_reach`), then its
    observable part (:func:`_observe`).

    The result is in k's form too, with the common factors of each vector
    and matrix divided out.  If both passes span the whole space the input
    is returned as it is, minus zero letters and with the letters sorted.
    A letterless 1 x 1 block is the constant t = lam * gamma, and its
    minimal form is dim 0 if t is 0, else (1, [lam[p]], {}, [t / lam[p]])
    for the first nonzero lam[p]: lam / lam[p] is the one basis row of the
    first pass and t / lam[p] its coordinate of gamma, which one echelon
    insert and one coordinate read give, with no search."""
    if dim == 0:
        return 0, rows, {}, cols
    if not mu and len(rows) == len(cols) == 1:
        ech = Echelon(k.ring)
        if ech.add(k.span(rows[0])):
            (g,) = k.coords(ech, cols)
            if any(k.span(g)):
                return 1, [k.norm(k.read(rows[0], ech.pivots))], {}, [k.norm(g)]
        return 0, [k.zeros(0)], {}, [k.zeros(0)]
    return _observe(k, dim, *_reach(k, dim, rows, mu, cols))


def _observe(k, dim, d1, rows, mu, cols):
    """The second pass of :func:`_minimise`: the reachable part of the
    transpose of (d1, rows, mu, cols), a reachable part of a dim-dimensional
    block as :func:`_reach` returns it, transposed back.

    If the pass spans the whole space and d1 is dim, the block is returned
    as it is, its letters cut to those the pass kept; otherwise every
    vector and matrix has its common factors divided out.  A block whose
    whole space is reachable is its own reachable part (d1 = dim), so this
    pass alone minimises it."""
    d, cols2, mu2, rows2 = _reach(k, d1, cols, {x: k.transposed(m) for x, m in mu.items()}, rows)
    if d == dim:
        return dim, rows, {x: mu[x] for x in mu2}, cols
    return (d, [k.norm(r) for r in rows2], {x: k.norm_m(k.transposed(m)) for x, m in mu2.items()},
            [k.norm(c) for c in cols2])


# ---------------------------------------------------------------------------
# block arithmetic shared by LinRep and SeriesMatrix, in a kernel's form
# ---------------------------------------------------------------------------

def _direct_sum(k, blocks):
    """The sum of block triples of one shape: the states of each in turn,
    with block-diagonal letter matrices."""
    dims = [b[0] for b in blocks]
    parts: dict = {}
    for g, b in enumerate(blocks):
        for x, m in b[2].items():
            parts.setdefault(x, {})[g, g] = m
    return (sum(dims), [k.cat(vs) for vs in zip(*[b[1] for b in blocks])],
            {x: k.grid(dims, p) for x, p in parts.items()}, [k.cat(vs) for vs in zip(*[b[3] for b in blocks])])


def _product(k, a, b):
    """The Cauchy product a * b: the states of a, then those of b, where a
    path that could leave a by exit column j goes on into b from entry row
    j, ending at once (b's constant terms) or by a letter (the bridge)."""
    d1, rows1, mu1, cols1 = a
    d2, rows2, mu2, cols2 = b
    # with no exit columns in a (nor entry rows in b) nothing crosses over
    q = k.outer(rows2, cols1) if d2 and cols1 else None  # d2 x d1: sum_j rows2[j]^T cols1[j]
    cols = [k.cat([k.zeros(d1) if q is None else k.vm(c, q), c]) for c in cols2]
    mu = {}
    for x in mu1.keys() | mu2.keys():
        parts = {}
        if x in mu1:
            parts[0, 0] = mu1[x]
        if x in mu2:
            m2 = parts[1, 1] = mu2[x]
            if cols1:
                parts[0, 1] = k.outer(cols1, [k.vm(r, m2) for r in rows2])
        mu[x] = k.grid((d1, d2), parts)
    pad = k.zeros(d2)
    return d1 + d2, [k.cat([r, pad]) for r in rows1], mu, cols


def _star(k, a):
    """I + P + P^2 + ... for a square block triple P with zero constant
    terms: a new state per entry row, which ends at once (the I) or enters P
    by a letter, and a path that could leave P may enter it again."""
    dim, rows, mu, cols = a
    eye = k.units(len(rows))
    star_mu = {}
    for x, m in mu.items():
        tops = [k.vm(r, m) for r in rows]
        star_mu[x] = k.grid((len(rows), dim), {(0, 1): k.outer(eye, tops), (1, 1): k.outer(cols, tops, m)}
                            if rows else {(1, 1): m})
    pad = k.zeros(dim)
    return len(rows) + dim, [k.cat([e, pad]) for e in eye], star_mu, [k.cat([e, c]) for e, c in zip(eye, cols)]


def _combine(k, C, vs, dim):
    """The vectors sum_j C[i][j] * vs[j] of length dim, one per row of the
    field matrix C."""
    if not vs:
        return [k.zeros(dim) for _ in C]
    stack = k.outer(k.units(len(vs)), vs)
    return [k.vm(k.vec(list(c)), stack) for c in C]


class _Block:
    """What LinRep and SeriesMatrix share: the field, the dimension and the
    block triple, held in field values (``_f``: rows, mu, cols), in the
    form of the field's kernel (``_k``: rows, mu, cols), or both.  Each
    form is built from the other once, the first time it is needed.
    ``reduce`` stays on each class: ``bench/tracer.py`` counts the
    reductions of each by wrapping the methods in its own class dict."""

    __slots__ = ("field", "dim", "_f", "_k")

    def _init(self, field, dim, f, k) -> None:
        self.field, self.dim, self._f, self._k = field, dim, f, k

    @classmethod
    def _of(cls, field, dim, rows, mu, cols):
        new = object.__new__(cls)
        new._init(field, dim, None, (rows, mu, cols))
        return new

    def _kb(self, k):
        """The block (dim, rows, mu, cols) in the form of k, the field's kernel."""
        st = self._k
        if st is None:
            rows, mu, cols = self._fb()
            st = self._k = ([k.vec(r) for r in rows], {x: k.mat(m) for x, m in mu.items()},
                            [k.vec(c) for c in cols])
        return (self.dim, *st)

    def _fb(self):
        """(rows, mu, cols) in field values."""
        f = self._f
        if f is None:
            k = _kernel(self.field)
            rows, mu, cols = self._k
            f = self._f = ([k.out(r) for r in rows], {x: k.out_m(m) for x, m in mu.items()},
                           [k.out(c) for c in cols])
        return f

    def _letters(self):
        return (self._f or self._k)[1]

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self - other).dim == 0

    def __neg__(self):
        return self.scale(-self.field.one())

    def __sub__(self, other):
        """self + (-other); a LinRep's ``scale(-1)`` negates lam and shares
        mu and gamma, so ``LinRep.__add__`` finds self - self zero with no
        reduction, as it does for a loaded copy of self."""
        return self + (-other)

    # letter index -> dim x dim field matrix; absent letters act as zero
    mu = property(lambda self: self._fb()[1])


class LinRep(_Block):
    """A rational series as a reduced triple (lam, mu, gamma), never mutated:
    ``scale``, a full-span reduction and the ``delta`` memo share its parts.

    Two more things are kept per instance.  ``_mono`` marks the path
    representation of a single word c*w, lam = a*e_0, gamma = b*e_|w| and
    a one on each step (``word``, ``from_free`` of a one-term polynomial,
    ``from_json`` of a path block, and the ``delta`` of a marked word by
    its last letter; ``scale`` keeps it), which ``*`` multiplies with no
    reachability search and ``to_free`` reads with no level search.
    ``_tail`` memoises, the first time the series
    is the right factor of such a product, the reachable part of
    V+ = span{lam mu(v) : v nonempty}, as :func:`_reach` returns it from
    the rows lam mu(x): its dim, each lam mu(x) in the basis of V+, mu
    restricted to V+ and gamma's coordinates."""

    __slots__ = ("_deltas", "_tau", "_mono", "_tail")

    def __init__(self, field: Field, dim: int, lam, mu, gamma) -> None:
        self._init(field, dim, ([lam], mu, [gamma]), None)

    def _init(self, field, dim, f, k) -> None:
        _Block._init(self, field, dim, f, k)
        self._deltas = None  # letter -> delta(letter), filled on first use
        self._tau = None
        self._mono = False
        self._tail = None

    lam = property(lambda self: self._fb()[0][0])
    gamma = property(lambda self: self._fb()[2][0])

    # -- constructors (all reduced by construction) -------------------------

    @staticmethod
    def zero(field: Field) -> "LinRep":
        return LinRep(field, 0, [], {}, [])

    @staticmethod
    def scalar(field: Field, c) -> "LinRep":
        if not c:
            return LinRep.zero(field)
        return LinRep(field, 1, [field.one()], {}, [c])

    @staticmethod
    def one(field: Field) -> "LinRep":
        return LinRep.scalar(field, field.one())

    @staticmethod
    def letter(field: Field, i: int) -> "LinRep":
        return LinRep.word(field, (i,))

    @staticmethod
    def word(field: Field, w, c=None) -> "LinRep":
        """The single-word series c*w as a path representation."""
        if c is None:
            c = field.one()
        if not c:
            return LinRep.zero(field)
        w = tuple(w)
        if not w:
            return LinRep.scalar(field, c)
        z, o = field.zero(), field.one()
        d = len(w) + 1
        mu: dict = {}
        for k, i in enumerate(w):
            m = mu.setdefault(i, [[z] * d for _ in range(d)])
            m[k][k + 1] = o
        lam = [o] + [z] * (len(w))
        gamma = [z] * len(w) + [c]
        out = LinRep(field, d, lam, mu, gamma)
        out._mono = True
        return out

    @staticmethod
    def from_free(p: FreeElem) -> "LinRep":
        """Promote a polynomial: states are the prefixes of its support.

        Each state is reached by its own prefix, so the reachability pass
        of ``reduce()`` would return the block unchanged, and the
        observability pass (:func:`_observe`) alone minimises it, with the
        result ``reduce()`` gives.  A single word's path is observable too,
        so it comes back as it is, and is marked as :meth:`word` marks it."""
        if not p.coeffs:
            return LinRep.zero(p.field)
        field = p.field
        z, o = field.zero(), field.one()
        prefixes = {(): 0}
        for w in sorted(p.coeffs, key=word_key):
            for k in range(1, len(w) + 1):
                prefixes.setdefault(w[:k], len(prefixes))
        d = len(prefixes)
        mu: dict = {}
        for w, idx in prefixes.items():
            if not w:
                continue
            src = prefixes[w[:-1]]
            m = mu.setdefault(w[-1], [[z] * d for _ in range(d)])
            m[src][idx] = o
        lam = [z] * d
        lam[0] = o
        gamma = [z] * d
        for w, c in p.coeffs.items():
            gamma[prefixes[w]] = c
        k = _kernel(field)
        out = LinRep._of(field, *_observe(k, d, *LinRep(field, d, lam, mu, gamma)._kb(k)))
        out._mono = len(p.coeffs) == 1 and d > 1
        return out

    def to_free(self, bounded: bool = False) -> FreeElem:
        """The polynomial this series is, the inverse of :meth:`from_free`;
        ValueError if its support is infinite, or, when ``bounded``, if it
        has more than (letters + 1) * dim prefixes of support words, letters
        being those its representation uses.

        Polynomiality is decided first, in polynomial time.  A reduced
        series is a polynomial exactly when its representation is
        nilpotent (Berstel-Reutenauer, ch. 2): a polynomial of degree D
        has the D + 1 independent rows lam * mu(w_1..w_k), k <= D, of the
        prefixes of a degree-D word, so D < dim, and every row lam * mu(w)
        with |w| > D is zero, since it pairs to zero with every row of the
        observable space.  So the level search :func:`_levels`, which
        builds each level's span from the previous level's basis times
        each letter, has at most dim nonempty levels exactly for a
        polynomial.

        Only then is the support listed breadth-first (:meth:`_terms`),
        keeping each prefix whose row is nonzero.  By observability every
        kept prefix extends to a support word, so the cost grows with the
        size of the support, which dim does not bound: (x0 + x1)^40 has dim 41 and
        2^40 words.  ``bounded`` stops the listing, level by level, before
        it keeps more prefixes than the bound, which a single word (dim
        prefixes) or a sum of letters (letters + 1) never exceeds.

        Two series are read off with neither search: a marked single word
        (``_mono``) is the one term w: lam * mu(w) * gamma, w being the
        letters along its path, whose steps are all one, and a letterless
        series of dim 1 is the constant ``tau()``, which a loaded constant
        (:meth:`from_json`) already holds from its field values."""
        field = self.field
        if self.dim == 0:
            return FreeElem.zero(field)
        if self._mono:  # every step of the path is one: lam * mu(w) * gamma = lam[0] * gamma[-1]
            (lam,), mu, (gamma,) = self._fb()
            w = [None] * (self.dim - 1)
            for x, m in mu.items():
                for i in range(self.dim - 1):
                    if m[i][i + 1]:
                        w[i] = x
            return FreeElem(field, {tuple(w): lam[0] * gamma[-1]})
        if self.dim == 1 and not self._letters():
            return FreeElem.scalar(field, self.tau())
        k = _kernel(field)
        d, (lam,), mu, _ = self._kb(k)
        mu = sorted(mu.items())
        if any(n == d for n, _ in enumerate(_levels(k, lam, mu))):
            raise ValueError("the series has infinite support, so it is not a polynomial")
        coeffs, _ = self._terms(limit=(len(mu) + 1) * d if bounded else None)
        return FreeElem(field, coeffs)  # FreeElem drops the zeros

    def _terms(self, depth=None, limit=None):
        """The coefficients of the words shorter than ``depth`` (all if
        None) whose rows lam * mu(w) are nonzero, listed breadth-first, and
        whether a word of length ``depth`` has a nonzero row; ValueError
        before the listing holds more than ``limit`` words."""
        if self.dim == 0:
            return {}, False
        k = _kernel(self.field)
        _, (lam,), mu, (gamma,) = self._kb(k)
        mu = sorted(mu.items())
        coeffs, level, n = {}, [((), lam)], 0
        while level and (depth is None or n < depth):
            if limit is not None and len(coeffs) + len(level) > limit:
                raise ValueError("the polynomial has more than %d prefixes of support words, "
                                 "too many to list" % limit)
            nxt = []
            for w, v in level:
                coeffs[w] = k.dot(v, gamma)
                for x, m in mu:
                    u = k.vm(v, m)
                    if any(k.span(u)):
                        nxt.append((w + (x,), u))
            level, n = nxt, n + 1
        return coeffs, bool(level)

    # -- reduction ----------------------------------------------------------

    def reduce(self) -> "LinRep":
        k = _kernel(self.field)
        return LinRep._of(self.field, *_minimise(k, *self._kb(k)))

    # -- coefficients --------------------------------------------------------

    def coeff(self, w):
        z = self.field.zero()
        if self.dim == 0:
            return z
        (v,), mu, (gamma,) = self._fb()
        for i in w:
            m = mu.get(i)
            if m is None:
                return z
            v = vec_mat(v, m, z, self.dim)
            if not any(v):
                return z
        return dot(v, gamma, z)

    def tau(self):
        """Constant term (the augmentation of the series), memoised."""
        if self._tau is None:
            if self.dim == 0:
                self._tau = self.field.zero()
            else:
                k = _kernel(self.field)
                _, (lam,), _, (gamma,) = self._kb(k)
                self._tau = k.dot(lam, gamma)
        return self._tau

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "LinRep") -> None:
        if self.field != other.field:
            raise ValueError("mixed scalar fields %s vs %s" % (self.field, other.field))

    def __add__(self, other: "LinRep") -> "LinRep":
        """The sum, reduced; zero with no direct sum and no reduction when
        the operands' kernel forms differ only in the sign of lam: equal
        dims, equal mu and gamma forms, and lam forms over one denominator
        whose entries are each other's negatives in the kernel's ring.  A
        kernel form of one field stands for exactly one triple, so the
        operands are then (lam, mu, gamma) and (-lam, mu, gamma), whose sum
        is zero (over fp:2, where -1 is 1, that is a + a).  Minimal triples
        are not canonical (two of one series may differ by a change of
        basis, and a kernel form by a scaling), so any other pair proves
        nothing and is reduced like every sum."""
        self._check(other)
        if self.dim == 0:
            return other
        if other.dim == 0:
            return self
        k = _kernel(self.field)
        a, b = self._kb(k), other._kb(k)
        if a[0] == b[0] and a[2] == b[2] and a[3] == b[3]:
            (xs, den), = a[1]
            (ys, den2), = b[1]
            if den == den2 and ys == list(map(k.ring.neg, xs)):
                return LinRep.zero(self.field)
        return LinRep._of(self.field, *_direct_sum(k, [a, b])).reduce()

    def scale(self, c) -> "LinRep":
        """c times the series; a nonzero c keeps the representation minimal."""
        if not c:
            return LinRep.zero(self.field)
        if self.dim == 0 or c == self.field.one():
            return self
        k = _kernel(self.field)
        d, (lam,), mu, cols = self._kb(k)
        out = LinRep._of(self.field, d, [k.scale(lam, c)], mu, cols)
        out._mono = self._mono
        return out

    def __mul__(self, other: "LinRep") -> "LinRep":
        """Cauchy product.  A constant factor c (dim 1, no letters) only
        scales the other operand, which gives it back when c is one.  Every
        other product builds the block product and reduces it, except a
        single word c*w (``_mono``, d1 = |w| + 1 states) times a series S,
        which is given the block the reachability pass would return.

        In the block product, lam1 mu(u) is a multiple of the word's state
        |u| for each prefix u of w, and lam1 mu(wv) for a nonempty v is
        (0, c lam mu(v)), since only the word's last state has an exit and
        a path leaving it enters S by a letter.  So the reachable space is
        K^d1 + V+, V+ = span{lam mu(v) : v nonempty}, and its fully reduced
        echelon basis is the identity on the word's states followed by V+'s
        own basis: the reached block is the word's block unchanged, then
        S restricted to V+ (its memoised ``_tail``), with the bridge from
        the word's exit column to each lam mu(x) in V+'s basis, and exit
        column S(eps) gamma1 on the word's states and S's gamma in V+'s
        basis on the rest.  The observability pass runs on it only when
        S's nonempty words reach its whole space (V+ = K^d2), with the
        unreduced dim d1 + d2, so that it takes the branch it takes after
        the reachability pass; otherwise every state is observable
        (``_word_times``) and the block is returned as that pass would
        return it.  Either way the result is the one ``reduce()`` gives,
        kernel form included."""
        self._check(other)
        if self.dim == 0 or other.dim == 0:
            return LinRep.zero(self.field)
        # a reduced series of dim 1 with no letters is the nonzero constant tau()
        if self.dim == 1 and not self._letters():
            return other.scale(self.tau())
        if other.dim == 1 and not other._letters():
            return self.scale(other.tau())
        k = _kernel(self.field)
        if self._mono:
            return self._word_times(k, other)
        return LinRep._of(self.field, *_product(k, self._kb(k), other._kb(k))).reduce()

    def _word_times(self, k, other: "LinRep") -> "LinRep":
        """self * other for a marked word self = c*w, as ``__mul__``
        describes, with the observability pass only when the tail is the
        whole of other's space.

        Let S = other = (lam, mu, gamma), reduced, nonzero and not a
        constant, of dim d2, and V+ = span{lam mu(u) : u nonempty}, of dim
        dt.  S's states are reached from lam and V+, so dt is d2 - 1 or d2,
        and dt = d2 - 1 exactly when lam is not in V+.  Then S is not a
        combination of its nonempty left quotients u^-1 S (the Hankel
        argument of Berstel-Reutenauer, ch. 2: the future F(v) of a vector
        v, the series u -> v mu(u) gamma, is u^-1 S for v = lam mu(u), and
        F is injective on S's observable space).  So no x*S, x a letter,
        lies in the span Q of all of S's left quotients, S included: its
        quotient by x would be such a combination.  The block's states
        have the futures c*w[i:]*S for the word's states i <= |w| (c*S
        for the last) and F(v) for v in V+, in Q.  Take a dependency among
        them, and i0 its first word state with a nonzero coefficient
        (with none, F's injectivity leaves none).  If i0 < |w|, its left
        quotient by w[i0:|w|-1] puts x*S in Q for x = w[-1], since Q is
        closed under left quotients; if i0 = |w|, it puts S = F(lam) in
        F(V+), so lam in V+.  So every state is observable, and what
        :func:`_observe` would return, a full pass through its
        ``d != dim`` branch, is built here directly.  When dt = d2, lam
        is in V+, the word's last state shares its future with a tail
        vector, and the pass runs."""
        tail = other._tail
        if tail is None:
            d2, (lam,), mu2, cols2 = other._kb(k)
            letters = sorted(mu2)
            dt, ells, mu_t, cols_t = _reach(k, d2, [k.vm(lam, mu2[x]) for x in letters], mu2, cols2)
            tail = other._tail = (dt, dict(zip(letters, ells)), mu_t, cols_t)
        dt, ells, mu_t, (gamma,) = tail
        d1, rows1, mu1, cols1 = self._kb(k)
        mu = {}
        for x in mu1.keys() | ells.keys():
            parts = {(0, 1): k.outer(cols1, [ells[x]])} if x in ells else {}
            if x in mu1:
                parts[0, 0] = mu1[x]
            if x in mu_t:
                parts[1, 1] = mu_t[x]
            mu[x] = k.grid((d1, dt), parts)
        rows = [k.cat([r, k.zeros(dt)]) for r in rows1]
        cols = [k.cat([k.scale(c, other.tau()), gamma]) for c in cols1]
        if dt < other.dim:  # every state is observable: what a full pass of _observe returns
            return LinRep._of(self.field, d1 + dt, [k.norm(r) for r in rows],
                              {x: k.norm_m(mu[x]) for x in sorted(mu) if k.nonzero(mu[x])},
                              [k.norm(c) for c in cols])
        return LinRep._of(self.field, *_observe(k, d1 + other.dim, d1 + dt, rows, mu, cols))

    def star(self) -> "LinRep":
        """(1 - a)^(-1) for a proper series a (zero constant term)."""
        if self.tau():
            raise ValueError("star needs a zero constant term")
        field = self.field
        if self.dim == 0:
            return LinRep.one(field)
        k = _kernel(field)
        return LinRep._of(field, *_star(k, self._kb(k))).reduce()

    def inv(self) -> "LinRep":
        """Multiplicative inverse; requires a nonzero constant term."""
        c = self.tau()
        if not c:
            raise ValueError("series with zero constant term has no inverse")
        one = LinRep.one(self.field)
        proper = one - self.scale(self.field.one() / c)
        return proper.star().scale(self.field.one() / c)

    def delta(self, i: int) -> "LinRep":
        """Right transduction by letter i: new gamma is mu(i) * gamma.

        The result is reduced by the observability pass alone
        (:func:`_observe`).  That is exact: a transduction keeps lam and
        mu, and a LinRep is reduced (as the zero test and the constant
        shortcut of ``*`` also assume), so its whole space is reachable and
        the reachability pass of ``reduce()`` would return its input
        unchanged.

        The delta of a marked word c*w (``_mono``) is zero unless i is w's
        last letter, and is then c*w[:-1].  The pass keeps the first |w|
        states of w's path, in order, which is the path block of c*w[:-1];
        so that delta is marked too when |w| >= 2.

        The result is memoised per instance and letter, so repeated calls
        return the same object."""
        memo = self._deltas
        if memo is None:
            memo = self._deltas = {}
        out = memo.get(i)
        if out is None:
            k = _kernel(self.field)
            d, rows, mu, (gamma,) = self._kb(k)
            m = mu.get(i)
            if d == 0 or m is None:
                out = LinRep.zero(self.field)
            else:
                out = LinRep._of(self.field, *_observe(k, d, d, rows, mu, [k.vm(gamma, k.transposed(m))]))
                out._mono = self._mono and out.dim > 1
            memo[i] = out
        return out

    # -- predicates ----------------------------------------------------------

    def __bool__(self) -> bool:
        return self.dim != 0

    def min_word(self):
        """Length-lex least word of the support, None for the zero series.

        A level search in length-lex order: a word is kept only if its row
        lam*mu(w) is independent of the rows of the smaller words kept on
        its level.  A dropped row is a combination of those rows, so the
        coefficients of the word and of all its extensions are combinations
        of coefficients of smaller words; the first kept word whose row
        pairs nonzero with gamma is the least word of the support.  A
        nonzero reduced series has one within 2*dim levels.
        """
        if self.dim == 0:
            return None
        k = _kernel(self.field)
        _, (lam,), mu, (gamma,) = self._kb(k)
        for n, level in enumerate(_levels(k, lam, sorted(mu.items()))):
            for w, row in level:
                if k.pairs(row, gamma):
                    return w
            if n == 2 * self.dim:
                break
        raise AssertionError("reduced nonzero series with no word within 2*dim")

    # -- presentation ---------------------------------------------------------

    def render(self, window: int = 5) -> str:
        """The terms of the words shorter than ``window``, then " + ..."
        exactly when some word of length ``window`` has a nonzero row
        lam * mu(w).  The series is reduced, so such a row has an extension
        with a nonzero coefficient: the marker is dropped exactly when the
        window already captures the whole series."""
        coeffs, more = self._terms(window)
        body = FreeElem(self.field, coeffs).render()
        return body + " + ..." if more else body

    def __repr__(self):
        return "LinRep(dim=%d, letters=%s)" % (self.dim, sorted(self._letters()))

    def to_json(self):
        enc = lambda c: scalar_to_json(self.field, c)
        (lam,), mu, (gamma,) = self._fb()
        return {
            "field": self.field.name,
            "dim": self.dim,
            "lam": [enc(c) for c in lam],
            "mu": {str(x): [[enc(c) for c in row] for row in m] for x, m in sorted(mu.items())},
            "gamma": [enc(c) for c in gamma],
        }

    @staticmethod
    def from_json(field: Field, obj) -> "LinRep":
        """The series of ``obj``, reduced, as the dim-based zero test and the
        constant shortcut of ``*`` assume.  Two kinds of block are minimal
        already and are returned as loaded, with no kernel conversion.  The
        path block of a single word (:func:`_is_path`): both passes of
        :func:`_minimise` would span the whole space and return it as it
        is, so it is marked as :meth:`word` marks it.  A letterless 1 x 1
        block (a, {}, b) with a and b nonzero, the constant a*b: its
        minimal form (:func:`_minimise`) keeps lam = a and sets gamma to
        (a*b) / a = b, so the field values and the kernel form are those
        ``reduce()`` gives, and ``tau()`` is set to a*b from the field
        values.  Any other block is reduced."""
        rep = LinRep._load(field, obj)
        (lam,), mu, (gamma,) = rep._f
        if rep.dim == 1 and not mu and lam[0] and gamma[0]:
            rep._tau = lam[0] * gamma[0]
            return rep
        if not _is_path(field, rep.dim, lam, mu, gamma):
            return rep.reduce()
        rep._mono = True
        return rep

    @staticmethod
    def _load(field: Field, obj) -> "LinRep":
        """The triple of ``obj`` as it is, its letters sorted, checked for
        shape but not reduced."""
        if type(obj) is not dict:
            raise ValueError("a serialized series must be an object, got %r" % (obj,))
        if obj["field"] != field.name:
            raise ValueError("field mismatch: %s vs %s" % (obj["field"], field.name))
        dim = obj["dim"]
        if type(dim) is not int or dim < 0:
            raise ValueError("dim must be a non-negative integer, got %r" % (dim,))
        vec = lambda v: isinstance(v, list) and len(v) == dim
        if not (vec(obj["lam"]) and vec(obj["gamma"])):
            raise ValueError("lam and gamma must be lists of length dim = %d" % dim)
        dec = lambda c: scalar_from_json(field, c)
        if not isinstance(obj["mu"], dict):
            raise ValueError("mu must be an object from letters to matrices")
        mu = {}
        for key, m in obj["mu"].items():
            # only the plain decimal form, so that no two keys name one letter
            if not (key.isascii() and key.isdecimal() and str(int(key)) == key):
                raise ValueError("letter key %r is not a non-negative integer in decimal" % (key,))
            x = int(key)
            if not (vec(m) and all(vec(row) for row in m)):
                raise ValueError("mu[%d] is not a %d x %d matrix" % (x, dim, dim))
            mu[x] = [[dec(c) for c in row] for row in m]
        return LinRep(field, dim, [dec(c) for c in obj["lam"]], dict(sorted(mu.items())),
                      [dec(c) for c in obj["gamma"]])


def _is_path(field, dim, lam, mu, gamma) -> bool:
    """Whether the field values (lam, mu, gamma) are the path block of a
    single word c*w, as :meth:`LinRep.word` and a ``scale`` of it build
    them: dim >= 2, lam = a*e_0 and gamma = b*e_(dim-1) with a and b
    nonzero, each superdiagonal position (k, k + 1) holding one in exactly
    one letter's matrix, every other entry zero, and no letter's matrix
    zero.  State k is then reached by the prefix w[:k] and observed by the
    suffix w[k:], so the block is minimal."""
    if dim < 2 or not lam[0] or any(lam[1:]) or not gamma[-1] or any(gamma[:-1]):
        return False
    one, hits = field.one(), [0] * (dim - 1)
    for m in mu.values():
        steps = [(i, j, c) for i, row in enumerate(m) for j, c in enumerate(row) if c]
        if not steps or any(j != i + 1 or c != one for i, j, c in steps):
            return False
        for i, _, _ in steps:
            hits[i] += 1
    return all(h == 1 for h in hits)


# ---------------------------------------------------------------------------
# matrices of rational series sharing one state space
# ---------------------------------------------------------------------------

class SeriesMatrix(_Block):
    """An nrows x ncols matrix of rational series as one block triple.

    ``rows`` holds one entry vector per matrix row and ``cols`` one exit
    vector per matrix column, each of length ``dim``; entry (i, j) of the
    coefficient of w is rows[i] * mu(w) * cols[j].

    Unlike a :class:`LinRep`, a series matrix need not be reduced:
    ``constant``, ``scale``, ``left_mul_const`` and
    ``right_mul_const`` return unreduced matrices, so ``dim`` can exceed the
    minimal dimension.  ``+``, ``*``, ``star``, ``from_entries`` and
    ``from_json`` reduce, and the zero test is ``==``, which reduces the
    difference.
    """

    __slots__ = ("nrows", "ncols")

    def __init__(self, field, dim, rows, mu, cols) -> None:
        self._init(field, dim, (rows, mu, cols), None)

    def _init(self, field, dim, f, k) -> None:
        _Block._init(self, field, dim, f, k)
        st = f or k
        self.nrows, self.ncols = len(st[0]), len(st[2])

    rows = property(lambda self: self._fb()[0])
    cols = property(lambda self: self._fb()[2])

    @staticmethod
    def constant(field: Field, mat) -> "SeriesMatrix":
        n = len(mat)
        return SeriesMatrix(field, n, identity(n, field.zero(), field.one()), {}, [list(c) for c in zip(*mat)])

    @staticmethod
    def identity(field: Field, s: int) -> "SeriesMatrix":
        z, o = field.zero(), field.one()
        return SeriesMatrix.constant(field, identity(s, z, o))

    @staticmethod
    def from_entries(field: Field, entries) -> "SeriesMatrix":
        """The block sum of the entries, entry (i, j) entering from row i and
        leaving by column j."""
        nrows = len(entries)
        ncols = len(entries[0]) if nrows else 0
        k = _kernel(field)
        blocks = []
        for i in range(nrows):
            for j in range(ncols):
                e = entries[i][j]
                if e.field != field:
                    raise ValueError("entry field mismatch")
                d, (lam,), mu, (gamma,) = e._kb(k)
                pad = k.zeros(d)
                blocks.append((d, [lam if a == i else pad for a in range(nrows)], mu,
                               [gamma if b == j else pad for b in range(ncols)]))
        if not blocks:  # a shape with no entries keeps its rows or columns
            return SeriesMatrix(field, 0, [[] for _ in range(nrows)], {}, []).reduce()
        return SeriesMatrix._of(field, *_direct_sum(k, blocks)).reduce()

    def entry(self, i: int, j: int) -> LinRep:
        k = _kernel(self.field)
        d, rows, mu, cols = self._kb(k)
        return LinRep._of(self.field, d, [rows[i]], mu, [cols[j]]).reduce()

    def aug(self):
        """Entrywise constant terms, a plain field matrix."""
        k = _kernel(self.field)
        _, rows, _, cols = self._kb(k)
        return [[k.dot(r, c) for c in cols] for r in rows]

    def reduce(self) -> "SeriesMatrix":
        k = _kernel(self.field)
        return SeriesMatrix._of(self.field, *_minimise(k, *self._kb(k)))

    # -- arithmetic -----------------------------------------------------------

    def _check_shape(self, other, same=True):
        if self.field != other.field:
            raise ValueError("mixed scalar fields")
        if same and (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    def __add__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        self._check_shape(other)
        k = _kernel(self.field)
        return SeriesMatrix._of(self.field, *_direct_sum(k, [self._kb(k), other._kb(k)])).reduce()

    def scale(self, c) -> "SeriesMatrix":
        k = _kernel(self.field)
        d, rows, mu, cols = self._kb(k)
        return SeriesMatrix._of(self.field, d, [k.scale(r, c) for r in rows], mu, cols)

    def __mul__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        self._check_shape(other, same=False)
        if self.ncols != other.nrows:
            raise ValueError("inner dimension mismatch")
        k = _kernel(self.field)
        return SeriesMatrix._of(self.field, *_product(k, self._kb(k), other._kb(k))).reduce()

    def left_mul_const(self, C) -> "SeriesMatrix":
        k = _kernel(self.field)
        d, rows, mu, cols = self._kb(k)
        return SeriesMatrix._of(self.field, d, _combine(k, C, rows, d), mu, cols)

    def right_mul_const(self, C) -> "SeriesMatrix":
        k = _kernel(self.field)
        d, rows, mu, cols = self._kb(k)
        return SeriesMatrix._of(self.field, d, rows, mu, _combine(k, list(zip(*C)), cols, d))

    def star(self) -> "SeriesMatrix":
        """(I - P)^(-1) for a square P with zero augmentation."""
        if self.nrows != self.ncols:
            raise ValueError("star needs a square matrix")
        if any(any(c for c in row) for row in self.aug()):
            raise ValueError("star needs zero augmentation")
        k = _kernel(self.field)
        return SeriesMatrix._of(self.field, *_star(k, self._kb(k))).reduce()

    def __repr__(self):
        return "SeriesMatrix(%dx%d, dim=%d)" % (self.nrows, self.ncols, self.dim)

    def _row(self, i: int):
        """The entries of row i, each what ``entry(i, j)`` gives.  Every
        entry of the row starts from the same entry row under the same
        letter matrices, so one reachability pass serves them all, and the
        observability pass then runs per entry.  A letterless block takes
        the constant shortcut of :func:`_minimise` entry by entry."""
        k = _kernel(self.field)
        d, rows, mu, cols = self._kb(k)
        if d == 0 or not mu:
            return [self.entry(i, j) for j in range(self.ncols)]
        d1, rows1, mu1, cols1 = _reach(k, d, [rows[i]], mu, cols)
        return [LinRep._of(self.field, *_observe(k, d, d1, rows1, mu1, [c])) for c in cols1]

    def to_json(self):
        return {
            "field": self.field.name,
            "nrows": self.nrows,
            "ncols": self.ncols,
            "entries": [[e.to_json() for e in self._row(i)] for i in range(self.nrows)],
        }

    @staticmethod
    def from_json(field: Field, obj) -> "SeriesMatrix":
        """The matrix of ``obj``, its shape checked before any entry is read."""
        if type(obj) is not dict:
            raise ValueError("a series matrix must be an object")
        nrows, ncols, rows = obj["nrows"], obj["ncols"], obj["entries"]
        if not (type(nrows) is int and type(ncols) is int and nrows >= 0 and ncols >= 0):
            raise ValueError("nrows and ncols must be non-negative integers, got %r and %r" % (nrows, ncols))
        if not (type(rows) is list and len(rows) == nrows
                and all(type(row) is list and len(row) == ncols and all(type(e) is dict for e in row)
                        for row in rows)):
            raise ValueError("entries must be a list of nrows = %d lists of ncols = %d objects" % (nrows, ncols))
        # one reduction of the whole block; reducing each entry first would be a second
        entries = [[LinRep._load(field, e) for e in row] for row in rows]
        return SeriesMatrix.from_entries(field, entries)


class NotInvertible(ValueError):
    pass


def invert_matrix_series(m: SeriesMatrix):
    """Two-sided inverse of a square series matrix whose augmentation is invertible.

    Writes m = C(I - P) with C the lifted augmentation and P proper, inverts
    the proper part with the matrix star, and verifies the product both ways.
    Returns (inverse, ok_right, ok_left).
    """
    if m.nrows != m.ncols:
        raise NotInvertible("matrix is not square")
    field = m.field
    caug = m.aug()
    cinv = invert_matrix(caug, field.zero(), field.one())
    if cinv is None:
        raise NotInvertible("augmentation matrix is singular")
    ident = SeriesMatrix.identity(field, m.nrows)
    p = ident - m.left_mul_const(cinv)
    n = p.star().right_mul_const(cinv)
    ok_right = m * n == ident
    ok_left = n * m == ident
    return n, ok_right, ok_left
