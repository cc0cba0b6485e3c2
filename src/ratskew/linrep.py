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
sums, Cauchy products and stars with the same block functions, :func:`_sum`,
:func:`_product` and :func:`_star`, then reduce the result once.

Both classes reduce through one engine, :func:`_minimise`, on the block
triple.  It runs a reachability pass, restricting to the span of every row times mu(w), then the same pass
on the transpose with rows and columns swapped, and transposes back
(Berstel-Reutenauer, *Noncommutative Rational Series with Applications*,
ch. 2).  A pass eliminates only while it grows the span; the restricted
entry rows and letter matrices are then read at the pivot columns of the
fully reduced basis, with no second elimination.  A pass stops as soon as
the span is the whole space.  That is exact: a full-rank reduced echelon
basis is the identity, so the pivot read would return the input as it is.
On a representation that is already minimal each pass therefore stops
after about ``dim`` inserts.

Both passes are one breadth-first search, :func:`_reach`, over a per-field
kernel.  Over ``q`` and ``fp:p`` the kernel works on plain integers: each
letter matrix is converted once per reduction, over ``q`` scaled by the lcm
of its denominators, and the search and the elimination run in
``la.IntEchelon`` with no ``Fraction`` or ``Fp`` in the inner loop.  Over
``qt:1`` the kernel works the same way on dense Z[t] polynomials: each
vector and letter matrix is put over one common integer-polynomial
denominator, and the elimination runs fraction-free in ``la.PolyEchelon``
with no ``RatFunc`` in the inner loop.  That is exact because scaling a
vector or a letter matrix does not change the span of row * mu(w), and a
subspace has exactly one reduced row-echelon basis: the integer or
polynomial basis is that basis with each row scaled by its pivot, so the
pivot-1 rows, and every value read from them, are the same as
``la.Echelon`` gives.  Field values are built once, at the end, and a
``RatFunc`` has one canonical form, so the output is the same value for
value.  Only ``qt:r`` with r >= 2 runs the search on its own values with
``la.Echelon``.  ``LinRep.min_word`` runs its level search on the same
kernels.

Operations avoid reductions they cannot need: a product with a constant
only scales the other factor, and ``delta`` is memoised per instance.
Results share vectors and matrices with their operands, so nothing mutates
a representation once it is built; the code that fills matrices in place
(:func:`_product`, ``from_entries``) writes only to matrices it has just
allocated.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

from .fields import (Field, Fp, FunctionField, MPoly, PrimeField, RatFunc, RationalField, scalar_from_json,
                     scalar_to_json, zx_div_exact, zx_gcd, zx_lcm, zx_mul)
from .freealg import FreeElem
from .la import Echelon, IntEchelon, PolyEchelon, dot, identity, invert_matrix, mat_vec, vec_mat, zx_content
from .words import word_key


# ---------------------------------------------------------------------------
# the minimisation engine shared by LinRep and SeriesMatrix
# ---------------------------------------------------------------------------

class _FieldKernel:
    """Vectors and matrices as field values, eliminated by ``la.Echelon``;
    the kernel of ``qt:r`` with r >= 2.

    A kernel converts field vectors and letter matrices to its own form
    (``vec``, ``mat``) and back (``out``, and ``out_t`` for the transpose),
    gives the search vector of an entry row (``span``), multiplies
    (``vec_mat``), eliminates (``echelon``), tests a search vector against
    an exit vector (``pairs``) and reads a span's coordinates at the pivots
    (``read``, ``restrict``, ``coords``).
    """

    def __init__(self, field: Field) -> None:
        self.field = field
        self.zero = field.zero()

    def vec(self, v):
        return v

    mat = span = out = vec

    def out_t(self, m):
        return [list(r) for r in zip(*m)]

    transposed = out_t

    def nonzero(self, m):
        return any(any(r) for r in m)

    def echelon(self, n):
        return Echelon(n, self.field.one())

    def vec_mat(self, v, m):
        return vec_mat(v, m, self.zero, len(m))

    def pairs(self, v, c):
        """Whether the search vector v pairs nonzero with the vector c."""
        return bool(dot(v, c, self.zero))

    def read(self, v, piv):
        return [v[p] for p in piv]

    def restrict(self, ech, m):
        z, piv, d = self.zero, ech.pivots, ech.dim()
        mp = [[row[p] for p in piv] for row in m]
        return [vec_mat(b, mp, z, d) for b in ech.rows]

    def coords(self, ech, c):
        return [dot(b, c, self.zero) for b in ech.rows]


class _IntKernel:
    """Q (``p == 0``) or F_p on plain integers, eliminated by ``la.IntEchelon``.

    A vector is a pair (ints, den) standing for ints / den; a letter matrix
    is a pair (columns, den), so that v * M is one integer dot product per
    column.  Over F_p the integers are residues and den is 1.  Field values
    are built only by ``out`` and ``out_t``, one division per entry.
    """

    def __init__(self, p: int) -> None:
        self.p = p

    def vec(self, v):
        if self.p:
            return [x.v for x in v], 1
        ratios = list(map(_ratio, v))
        den = lcm(*[q for _, q in ratios])
        return [n * (den // q) for n, q in ratios], den

    def mat(self, m):
        if self.p:
            return [[x.v for x in c] for c in zip(*m)], 1
        n = len(m)
        ratios = list(map(_ratio, chain.from_iterable(zip(*m))))  # column by column
        nums, dens = zip(*ratios)
        den = lcm(*dens)
        if den != 1:
            nums = [a * (den // q) for a, q in ratios]
        return [list(nums[j:j + n]) for j in range(0, n * n, n)], den

    def span(self, v):
        return v[0]

    def _to_field(self, ints, den):
        if self.p:
            return [Fp(self.p, x) for x in ints]
        if den == 1:
            return [Fraction(x) if x else _ZERO for x in ints]
        return [Fraction(x, den) if x else _ZERO for x in ints]

    def out(self, v):
        return self._to_field(*v)

    def out_t(self, m):
        """Field rows of the transpose of m, which are m's stored columns."""
        cols, den = m
        return [self._to_field(c, den) for c in cols]

    def transposed(self, m):
        return [list(r) for r in zip(*m[0])], m[1]

    def nonzero(self, m):
        return any(any(c) for c in m[0])

    def echelon(self, n):
        return IntEchelon(self.p)

    def vec_mat(self, v, m):
        """v * M, reduced mod p, or made primitive over Z."""
        w = [sum(map(mul, v, c)) for c in m[0]]
        if self.p:
            return [x % self.p for x in w]
        g = gcd(*w)
        return [x // g for x in w] if g > 1 else w

    def pairs(self, v, c):
        s = sum(map(mul, v, c[0]))
        return bool(s % self.p if self.p else s)

    def read(self, v, piv):
        ints = v[0]
        return [ints[p] for p in piv], v[1]

    def _scales(self, ech):
        """Row i of the integer basis is a_i times row i of the pivot-1
        basis; with L = lcm(a_i), (L / a_i) * x / L is x / a_i."""
        a = [r[q] for r, q in zip(ech.rows, ech.pivots)]
        big = lcm(*a)
        return [big // ai for ai in a], big

    def restrict(self, ech, m):
        cols, den = m
        if self.p:
            return [[sum(map(mul, b, cols[q])) % self.p for b in ech.rows] for q in ech.pivots], 1
        scale, big = self._scales(ech)
        return [[s * sum(map(mul, b, cols[q])) for b, s in zip(ech.rows, scale)]
                for q in ech.pivots], den * big

    def coords(self, ech, c):
        ints, den = c
        if self.p:
            return [sum(map(mul, b, ints)) % self.p for b in ech.rows], 1
        scale, big = self._scales(ech)
        return [s * sum(map(mul, b, ints)) for b, s in zip(ech.rows, scale)], den * big


_ZERO = Fraction(0)
_ratio = Fraction.as_integer_ratio
_E0 = (0,)  # the exponent of a constant in one variable


def _dense(p: dict) -> list:
    """The dense coefficient list of a univariate ``MPoly`` integer dict."""
    out = [0] * (max(p)[0] + 1)
    for (k,), c in p.items():
        out[k] = c
    return out


def _sparse(a: list) -> dict:
    """The ``MPoly`` integer dict of a dense coefficient list."""
    return {(k,): c for k, c in enumerate(a) if c}


def _zx_dot(v, col):
    """sum v[i] * y over the entries (i, y) of a sparse column, in Z[t]."""
    c0 = 0
    acc = None
    for i, y in col:
        x = v[i]
        if not x:
            continue
        if len(x) == 1 and len(y) == 1:
            c0 += x[0] * y[0]
            continue
        n = len(x) + len(y) - 1
        if acc is None:
            acc = [0] * n
        elif len(acc) < n:
            acc += [0] * (n - len(acc))
        for e, a in enumerate(x):
            if a:
                for f, b in enumerate(y):
                    acc[e + f] += a * b
    if acc is None:
        return [c0] if c0 else []
    acc[0] += c0
    while acc and not acc[-1]:
        acc.pop()
    return acc


def _sparse_col(polys):
    return [(i, x) for i, x in enumerate(polys) if x]


def _dense_col(col, n):
    """The length-n list of polynomials holding the entries (i, x) of col."""
    polys = [[]] * n
    for i, x in col:
        polys[i] = x
    return polys


class _PolyKernel:
    """Q(t) (``qt:1``) on dense Z[t] polynomials, eliminated by ``la.PolyEchelon``.

    A polynomial is an ``int`` list, lowest degree first, ``[]`` for zero.
    A vector is a pair (polys, den) standing for polys / den, with den a
    polynomial of positive leading coefficient.  A letter matrix is a pair
    (columns, den), as in :class:`_IntKernel`, with each column sparse, a
    list of (row index, nonzero polynomial): letter matrices are mostly
    zero.  Entries over a constant denominator, most of them in practice,
    convert with no polynomial lcm, and an output over a constant
    denominator is built with no gcd.
    """

    def __init__(self, field: Field) -> None:
        self.zero = field.zero()
        self._den1 = field.one().den

    def _convert(self, values):
        """(polys, den) with polys / den equal to the nonzero field values."""
        ents = []
        dens: dict = {}  # each non-constant denominator -> its cofactor in their lcm lp
        big = 1
        for a in values:
            num, dp = a.num, a.den.p
            if len(dp) == 1 and _E0 in dp:
                q, key = num.c, None
            else:
                q, key = num.c / a.den.c, tuple(_dense(dp))
                dens[key] = None
            p = num.p
            ents.append((q, None if len(p) == 1 and _E0 in p else p, key))
            if q.denominator != 1:
                big = lcm(big, q.denominator)
        if dens:
            keys = iter(dens)
            lp = list(next(keys))
            for k in keys:
                lp = zx_lcm(lp, list(k))
            for k in dens:
                dens[k] = zx_div_exact(lp, list(k))
        else:
            lp = [1]
        dens[None] = lp
        out = []
        for q, p, key in ents:
            k = q.numerator * (big // q.denominator)
            m = dens[key]
            if p is not None:
                m = zx_mul(_dense(p), m)
            out.append([k * c for c in m] if k != 1 else m)
        return out, [big * c for c in lp]

    def vec(self, v):
        zero = self.zero
        pos = [i for i, a in enumerate(v) if a is not zero and a.num.p]
        polys, den = self._convert([v[i] for i in pos])
        return _dense_col(zip(pos, polys), len(v)), den

    def mat(self, m):
        zero = self.zero
        pos, vals = [], []
        for i, row in enumerate(m):
            for j, a in enumerate(row):
                if a is not zero and a.num.p:
                    pos.append((i, j))
                    vals.append(a)
        polys, den = self._convert(vals)
        cols: list = [[] for _ in m]
        for (i, j), x in zip(pos, polys):
            cols[j].append((i, x))
        return cols, den

    def span(self, v):
        return v[0]

    def _to_field(self, polys, den):
        zero, den1, out = self.zero, self._den1, []
        for x in polys:
            if not x:
                out.append(zero)
                continue
            d = den
            if len(d) > 1:
                g = zx_gcd(x, d)
                if g != [1]:
                    x, d = zx_div_exact(x, g), zx_div_exact(d, g)
            if len(d) == 1:
                out.append(RatFunc._of(MPoly._normal(1, _sparse(x), Fraction(1, d[0])), den1))
                continue
            c = gcd(*d)
            lc = d[-1] // c
            pd = d if c == 1 else [k // c for k in d]
            out.append(RatFunc._of(MPoly._normal(1, _sparse(x), Fraction(1, c * lc)),
                                   MPoly._of(1, _sparse(pd), Fraction(1, lc))))
        return out

    def out(self, v):
        return self._to_field(*v)

    def out_t(self, m):
        """Field rows of the transpose of m, which are m's stored columns."""
        cols, den = m
        return [self._to_field(_dense_col(c, len(cols)), den) for c in cols]

    def transposed(self, m):
        cols, den = m
        rows: list = [[] for _ in cols]
        for j, c in enumerate(cols):
            for i, x in c:
                rows[i].append((j, x))
        return rows, den

    def nonzero(self, m):
        return any(m[0])

    def echelon(self, n):
        return PolyEchelon()

    def vec_mat(self, v, m):
        """v * M, made primitive over Z[t]."""
        w = [_zx_dot(v, c) for c in m[0]]
        g = zx_content(w)
        return w if g == [1] or not g else [zx_div_exact(x, g) for x in w]

    def pairs(self, v, c):
        return bool(_zx_dot(v, _sparse_col(c[0])))

    def read(self, v, piv):
        polys = v[0]
        return [polys[p] for p in piv], v[1]

    def _scales(self, ech):
        """Row i of the Z[t] basis is a_i times row i of the pivot-1 basis;
        with L = lcm(a_i), (L / a_i) * x / L is x / a_i."""
        a = [r[q] for r, q in zip(ech.rows, ech.pivots)]
        big = [1]
        for ai in a:
            big = zx_lcm(big, ai)
        return [zx_div_exact(big, ai) for ai in a], big

    def _column(self, ech, scale, col):
        return [(i, zx_mul(s, x)) for i, (b, s) in enumerate(zip(ech.rows, scale))
                if (x := _zx_dot(b, col))]

    def restrict(self, ech, m):
        cols, den = m
        scale, big = self._scales(ech)
        return [self._column(ech, scale, cols[q]) for q in ech.pivots], zx_mul(den, big)

    def coords(self, ech, c):
        polys, den = c
        scale, big = self._scales(ech)
        col = _sparse_col(polys)
        return [zx_mul(s, _zx_dot(b, col)) for b, s in zip(ech.rows, scale)], zx_mul(den, big)


def _kernel(field: Field):
    if isinstance(field, RationalField):
        return _IntKernel(0)
    if isinstance(field, PrimeField):
        return _IntKernel(field.p)
    if isinstance(field, FunctionField) and field.nvars == 1:
        return _PolyKernel(field)
    return _FieldKernel(field)


def _reach(kern, dim, rows, mu, cols):
    """Restrict to the span of row * mu(w) over the entry rows and all words w.

    The one breadth-first search of the engine, for every field: ``rows``,
    ``mu`` and ``cols`` are in the form of the kernel ``kern``, which does
    the products, the elimination and the pivot read.  An integer kernel
    may keep each search vector and basis row up to a nonzero factor, since
    that changes neither the span nor its one reduced echelon basis.
    Returns ``(d, rows, mu, cols)`` in the fully reduced echelon basis of
    that span, still in the kernel's form; letters whose restricted matrix
    is zero are dropped.  The search stops as soon as the span is the whole
    space: a full-rank reduced echelon basis is the identity, so the pivot
    read would give back ``rows``, ``mu`` and ``cols`` as they are, and they
    are returned unchanged.
    """
    ech = kern.echelon(dim)
    queue = deque(v for v in map(kern.span, rows) if ech.add(v))
    letters = sorted(mu)
    while queue and ech.dim() < dim:
        v = queue.popleft()
        for x in letters:
            w = kern.vec_mat(v, mu[x])
            if ech.add(w):
                if ech.dim() == dim:
                    break
                queue.append(w)
    d = ech.dim()
    if d == dim:
        return dim, rows, {x: mu[x] for x in letters if kern.nonzero(mu[x])}, cols
    # span vectors have their coordinates at the pivots: read only those columns
    new_mu = {}
    for x in letters:
        m = kern.restrict(ech, mu[x])
        if kern.nonzero(m):
            new_mu[x] = m
    return d, [kern.read(r, ech.pivots) for r in rows], new_mu, [kern.coords(ech, c) for c in cols]


def _minimise(field, dim, rows, mu, cols):
    """Minimal form of (entry rows, letter matrices, exit columns): the
    reachable part, then the reachable part of its transpose.

    The input is converted to the field's kernel form once, both passes run
    on it, and field values are built once at the end.  If both passes span
    the whole space the input is returned as it is, minus zero letters and
    with the letters sorted."""
    if dim == 0:
        return 0, rows, {}, cols
    k = _kernel(field)
    d1, rows1, mu1, cols1 = _reach(
        k, dim, [k.vec(r) for r in rows], {x: k.mat(m) for x, m in mu.items()}, [k.vec(c) for c in cols]
    )
    d, cols2, mu2, rows2 = _reach(k, d1, cols1, {x: k.transposed(m) for x, m in mu1.items()}, rows1)
    if d == dim:
        return dim, rows, {x: mu[x] for x in mu2}, cols
    return d, [k.out(r) for r in rows2], {x: k.out_t(m) for x, m in mu2.items()}, [k.out(c) for c in cols2]


def _direct_sum(mu1, d1, mu2, d2, zero):
    """Block-diagonal letter matrices diag(mu1(x), mu2(x))."""
    d = d1 + d2
    mu = {}
    for x in set(mu1) | set(mu2):
        m = [[zero] * d for _ in range(d)]
        a = mu1.get(x)
        if a:
            for i in range(d1):
                m[i][:d1] = a[i]
        b = mu2.get(x)
        if b:
            for i in range(d2):
                m[d1 + i][d1:] = b[i]
        mu[x] = m
    return mu


# ---------------------------------------------------------------------------
# block arithmetic shared by LinRep and SeriesMatrix
# ---------------------------------------------------------------------------

def _sum(zero, a, b):
    """a + b for block triples of one shape: the states of a, then those of b."""
    d1, rows1, mu1, cols1 = a
    d2, rows2, mu2, cols2 = b
    return (d1 + d2, [r + s for r, s in zip(rows1, rows2)], _direct_sum(mu1, d1, mu2, d2, zero),
            [c + e for c, e in zip(cols1, cols2)])


def _product(zero, a, b):
    """The Cauchy product a * b: the states of a, then those of b, where a
    path that could leave a by exit column k goes on into b from entry row
    k, ending at once (b's constant terms) or by a letter (the bridge)."""
    d1, rows1, mu1, cols1 = a
    d2, rows2, mu2, cols2 = b
    cols = [vec_mat([dot(r, c, zero) for r in rows2], cols1, zero, d1) + c for c in cols2]
    mu = _direct_sum(mu1, d1, mu2, d2, zero)
    exits = list(zip(*cols1))  # exits[i][k] = cols1[k][i]
    for x, m2 in mu2.items():
        starts = [vec_mat(r, m2, zero, d2) for r in rows2]
        m = mu[x]
        for i, g in enumerate(exits):
            if any(g):
                m[i][d1:] = vec_mat(g, starts, zero, d2)
    pad = [zero] * d2
    return d1 + d2, [r + pad for r in rows1], mu, cols


def _star(zero, one, a):
    """I + P + P^2 + ... for a square block triple P with zero constant
    terms: a new state per entry row, which ends at once (the I) or enters P
    by a letter, and a path that could leave P may enter it again."""
    dim, rows, mu, cols = a
    s = len(rows)
    eye = identity(s, zero, one)
    pad = [zero] * s
    exits = list(zip(*cols))  # exits[i][k] = cols[k][i]
    star_mu = {}
    for x, m in mu.items():
        top = [vec_mat(r, m, zero, dim) for r in rows]
        big = [pad + t for t in top]
        for mi, g in zip(m, exits):
            if any(g):
                mi = [u + v for u, v in zip(mi, vec_mat(g, top, zero, dim))]
            big.append(pad + mi)
        star_mu[x] = big
    return s + dim, [e + [zero] * dim for e in eye], star_mu, [e + c for e, c in zip(eye, cols)]


class LinRep:
    """A rational series as a reduced triple (lam, mu, gamma), never mutated:
    ``scale``, a full-span reduction and the ``delta`` memo share its parts."""

    __slots__ = ("field", "dim", "lam", "mu", "gamma", "_deltas")

    def __init__(self, field: Field, dim: int, lam, mu, gamma) -> None:
        self.field = field
        self.dim = dim
        self.lam = lam
        self.mu = mu  # letter index -> dim x dim matrix; absent letters act as zero
        self.gamma = gamma
        self._deltas = None  # letter -> delta(letter), filled on first use

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
        return LinRep(field, d, lam, mu, gamma)

    @staticmethod
    def from_free(p: FreeElem) -> "LinRep":
        """Promote a polynomial: states are the prefixes of its support."""
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
        return LinRep(field, d, lam, mu, gamma).reduce()

    # -- reduction ----------------------------------------------------------

    def reduce(self) -> "LinRep":
        d, (lam,), mu, (gamma,) = _minimise(self.field, *self._block())
        return LinRep(self.field, d, lam, mu, gamma)

    def _block(self):
        return self.dim, [self.lam], self.mu, [self.gamma]

    # -- coefficients --------------------------------------------------------

    def coeff(self, w):
        z = self.field.zero()
        if self.dim == 0:
            return z
        v = self.lam
        for i in w:
            m = self.mu.get(i)
            if m is None:
                return z
            v = vec_mat(v, m, z, self.dim)
            if not any(v):
                return z
        return dot(v, self.gamma, z)

    def tau(self):
        """Constant term (the augmentation of the series)."""
        if self.dim == 0:
            return self.field.zero()
        return dot(self.lam, self.gamma, self.field.zero())

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "LinRep") -> None:
        if self.field != other.field:
            raise ValueError("mixed scalar fields %s vs %s" % (self.field, other.field))

    def __add__(self, other: "LinRep") -> "LinRep":
        self._check(other)
        if self.dim == 0:
            return other
        if other.dim == 0:
            return self
        d, (lam,), mu, (gamma,) = _sum(self.field.zero(), self._block(), other._block())
        return LinRep(self.field, d, lam, mu, gamma).reduce()

    def __neg__(self) -> "LinRep":
        return self.scale(-self.field.one())

    def __sub__(self, other: "LinRep") -> "LinRep":
        return self + (-other)

    def scale(self, c) -> "LinRep":
        """c times the series; a nonzero c keeps the representation minimal."""
        if not c:
            return LinRep.zero(self.field)
        if self.dim == 0 or c == self.field.one():
            return self
        return LinRep(self.field, self.dim, [c * v for v in self.lam], self.mu, self.gamma)

    def __mul__(self, other: "LinRep") -> "LinRep":
        """Cauchy product.  A constant factor c (dim 1, no letters) only
        scales the other operand, which gives it back when c is one; else
        the block product is built and reduced."""
        self._check(other)
        if self.dim == 0 or other.dim == 0:
            return LinRep.zero(self.field)
        # a reduced series of dim 1 with no letters is the nonzero constant tau()
        if self.dim == 1 and not self.mu:
            return other.scale(self.tau())
        if other.dim == 1 and not other.mu:
            return self.scale(other.tau())
        d, (lam,), mu, (gamma,) = _product(self.field.zero(), self._block(), other._block())
        return LinRep(self.field, d, lam, mu, gamma).reduce()

    def star(self) -> "LinRep":
        """(1 - a)^(-1) for a proper series a (zero constant term)."""
        if self.tau():
            raise ValueError("star needs a zero constant term")
        field = self.field
        if self.dim == 0:
            return LinRep.one(field)
        d, (lam,), mu, (gamma,) = _star(field.zero(), field.one(), self._block())
        return LinRep(field, d, lam, mu, gamma).reduce()

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

        The result is memoised per instance and letter, so repeated calls
        return the same object."""
        memo = self._deltas
        if memo is None:
            memo = self._deltas = {}
        out = memo.get(i)
        if out is None:
            m = self.mu.get(i)
            if self.dim == 0 or m is None:
                out = LinRep.zero(self.field)
            else:
                gamma = mat_vec(m, self.gamma, self.field.zero())
                out = LinRep(self.field, self.dim, self.lam, self.mu, gamma).reduce()
            memo[i] = out
        return out

    # -- predicates ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LinRep):
            return NotImplemented
        return (self - other).dim == 0

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
        mu = {x: k.mat(m) for x, m in sorted(self.mu.items())}
        gamma = k.vec(self.gamma)
        level = [((), k.span(k.vec(self.lam)))]
        for _ in range(2 * self.dim + 1):
            for w, row in level:
                if k.pairs(row, gamma):
                    return w
            ech = k.echelon(self.dim)
            kept = []
            for w, row in level:
                for x, m in mu.items():
                    v = k.vec_mat(row, m)
                    if ech.add(v):
                        kept.append((w + (x,), v))
            if not kept:
                break
            level = kept
        raise AssertionError("reduced nonzero series with no word within 2*dim")

    # -- presentation ---------------------------------------------------------

    def render(self, window: int = 5) -> str:
        """Expansion up to ``window``; the tail marker is dropped exactly
        when the window already captures the whole series."""
        from .truncated import TruncSeries

        ts = TruncSeries.from_linrep(self, window)
        poly = FreeElem(self.field, dict(ts.coeffs))
        body = poly.render()
        if LinRep.from_free(poly) == self:
            return body
        return body + " + ..."

    def __repr__(self):
        return "LinRep(dim=%d, letters=%s)" % (self.dim, sorted(self.mu))

    def to_json(self):
        enc = lambda c: scalar_to_json(self.field, c)
        return {
            "field": self.field.name,
            "dim": self.dim,
            "lam": [enc(c) for c in self.lam],
            "mu": {str(x): [[enc(c) for c in row] for row in m] for x, m in sorted(self.mu.items())},
            "gamma": [enc(c) for c in self.gamma],
        }

    @staticmethod
    def from_json(field: Field, obj) -> "LinRep":
        # reduced on load: the dim-based zero test and the constant shortcut rely on it
        return LinRep._load(field, obj).reduce()

    @staticmethod
    def _load(field: Field, obj) -> "LinRep":
        """The triple of ``obj`` as it is, checked for shape but not reduced."""
        if obj["field"] != field.name:
            raise ValueError("field mismatch: %s vs %s" % (obj["field"], field.name))
        dim = obj["dim"]
        if type(dim) is not int or dim < 0:
            raise ValueError("dim must be a non-negative integer, got %r" % (dim,))
        vec = lambda v: isinstance(v, list) and len(v) == dim
        if not (vec(obj["lam"]) and vec(obj["gamma"])):
            raise ValueError("lam and gamma must be lists of length dim = %d" % dim)
        dec = lambda c: scalar_from_json(field, c)
        mu = {}
        for x, m in obj["mu"].items():
            x = int(x)
            if x < 0:
                raise ValueError("negative letter %d" % x)
            if not (vec(m) and all(vec(row) for row in m)):
                raise ValueError("mu[%d] is not a %d x %d matrix" % (x, dim, dim))
            mu[x] = [[dec(c) for c in row] for row in m]
        return LinRep(field, dim, [dec(c) for c in obj["lam"]], mu, [dec(c) for c in obj["gamma"]])


# ---------------------------------------------------------------------------
# matrices of rational series sharing one state space
# ---------------------------------------------------------------------------

class SeriesMatrix:
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

    __slots__ = ("field", "dim", "rows", "mu", "cols", "nrows", "ncols")

    def __init__(self, field, dim, rows, mu, cols) -> None:
        self.field = field
        self.dim = dim
        self.rows = rows
        self.mu = mu
        self.cols = cols
        self.nrows, self.ncols = len(rows), len(cols)

    def _block(self):
        return self.dim, self.rows, self.mu, self.cols

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
        nrows = len(entries)
        ncols = len(entries[0]) if nrows else 0
        z = field.zero()
        d = sum(e.dim for row in entries for e in row)
        rows = [[z] * d for _ in range(nrows)]
        cols = [[z] * d for _ in range(ncols)]
        mu: dict = {}
        off = 0
        for i in range(nrows):
            for j in range(ncols):
                e = entries[i][j]
                if e.field != field:
                    raise ValueError("entry field mismatch")
                end = off + e.dim
                rows[i][off:end] = e.lam
                cols[j][off:end] = e.gamma
                for x, m in e.mu.items():
                    big = mu.setdefault(x, [[z] * d for _ in range(d)])
                    for a in range(e.dim):
                        big[off + a][off:end] = m[a]
                off = end
        return SeriesMatrix(field, d, rows, mu, cols).reduce()

    def entry(self, i: int, j: int) -> LinRep:
        return LinRep(self.field, self.dim, self.rows[i], self.mu, self.cols[j]).reduce()

    def aug(self):
        """Entrywise constant terms, a plain field matrix."""
        z = self.field.zero()
        return [[dot(r, c, z) for c in self.cols] for r in self.rows]

    def reduce(self) -> "SeriesMatrix":
        return SeriesMatrix(self.field, *_minimise(self.field, *self._block()))

    def __eq__(self, other):
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        return (self - other).dim == 0

    # -- arithmetic -----------------------------------------------------------

    def _check_shape(self, other, same=True):
        if self.field != other.field:
            raise ValueError("mixed scalar fields")
        if same and (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    def __add__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        self._check_shape(other)
        return SeriesMatrix(self.field, *_sum(self.field.zero(), self._block(), other._block())).reduce()

    def scale(self, c) -> "SeriesMatrix":
        return SeriesMatrix(self.field, self.dim, [[c * v for v in r] for r in self.rows], self.mu, self.cols)

    def __neg__(self):
        return self.scale(-self.field.one())

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        self._check_shape(other, same=False)
        if self.ncols != other.nrows:
            raise ValueError("inner dimension mismatch")
        return SeriesMatrix(self.field, *_product(self.field.zero(), self._block(), other._block())).reduce()

    def left_mul_const(self, C) -> "SeriesMatrix":
        z = self.field.zero()
        rows = [vec_mat(c, self.rows, z, self.dim) for c in C]
        return SeriesMatrix(self.field, self.dim, rows, self.mu, self.cols)

    def right_mul_const(self, C) -> "SeriesMatrix":
        z = self.field.zero()
        cols = [vec_mat(c, self.cols, z, self.dim) for c in zip(*C)]
        return SeriesMatrix(self.field, self.dim, self.rows, self.mu, cols)

    def star(self) -> "SeriesMatrix":
        """(I - P)^(-1) for a square P with zero augmentation."""
        if self.nrows != self.ncols:
            raise ValueError("star needs a square matrix")
        if any(any(c for c in row) for row in self.aug()):
            raise ValueError("star needs zero augmentation")
        field = self.field
        return SeriesMatrix(field, *_star(field.zero(), field.one(), self._block())).reduce()

    def __repr__(self):
        return "SeriesMatrix(%dx%d, dim=%d)" % (self.nrows, self.ncols, self.dim)

    def to_json(self):
        return {
            "field": self.field.name,
            "nrows": self.nrows,
            "ncols": self.ncols,
            "entries": [[self.entry(i, j).to_json() for j in range(self.ncols)] for i in range(self.nrows)],
        }

    @staticmethod
    def from_json(field: Field, obj) -> "SeriesMatrix":
        # one reduction of the whole block; reducing each entry first would be a second
        entries = [[LinRep._load(field, e) for e in row] for row in obj["entries"]]
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
