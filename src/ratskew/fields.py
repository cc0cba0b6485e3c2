"""Exact scalar domains: Q, prime fields F_p, and rational functions Q(t1..tr).

Every algorithm in this package reduces to field arithmetic, so scalars are
plain Python objects with operator overloading: ``fractions.Fraction`` for Q,
:class:`Fp` for F_p, :class:`RatFunc` for Q(t1..tr).  A :class:`Field`
descriptor ties them together (construction, parsing, rendering, sampling).

All values are canonical on construction: F_p representatives live in
[0, p), rational functions are reduced by the polynomial gcd and carry a
monic denominator.  Equality is structural.

Q[t1..tr] has one representation: a polynomial (:class:`MPoly`) is a
rational content times a primitive element of the dense Z[t1..tr] of the
ring tower :func:`poly_ring`, and its arithmetic and gcds
(:func:`mpoly_gcd`) are calls into that ring.  The tower's floor is
:data:`ZZ`, the integers on plain ints, and Z[t1..tr] for r >= 1 is
Z[t2..tr][t1], lists over powers of t1 of elements of the ring below,
whose operations are written once over the ring below's
(:func:`_nested`).  Its products and dot products end in two integer
loops, ZZ's vector operations ``scale`` (an integer times a list) and
``mac`` (a convolution added into a list).  The one span kernel of
``linrep`` runs on these rings, and takes a RatFunc's stored elements as
they are: on :data:`ZZ` for ``q``, on Z[t1..tr] for ``qt:r``, and on
:func:`zmod_ring` (the integers mod p, with the same ring and vector
operations) for ``fp:p``, so one ``la.Echelon`` eliminates over each of
them.

The :class:`RatFunc` operators rely on canonical values: they take canonical
operands and skip the gcds it makes redundant (zero, one and constant
operands, a polynomial plus a fraction, coprime denominators, cross gcds
in products; see :class:`RatFunc`).  The reducing constructor
``RatFunc(num, den)`` stays the one reference path, and
:func:`scalar_from_json` builds every loaded value through it, so a value
read from a file is canonical too.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, mul, neg, pos

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Fp:
    """An element of the prime field F_p, stored as its representative in [0, p)."""

    __slots__ = ("p", "v")

    def __init__(self, p: int, v) -> None:
        self.p = p
        self.v = int(v) % p

    def _lift(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise ValueError("mixed prime fields: %d vs %d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return Fp(self.p, other)
        if isinstance(other, Fraction):
            if other.denominator == 1:
                return Fp(self.p, other.numerator)
            return Fp(self.p, other.numerator) / Fp(self.p, other.denominator)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Fp(self.p, self.v + other.v)

    __radd__ = __add__

    def __neg__(self):
        return Fp(self.p, -self.v)

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Fp(self.p, self.v - other.v)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Fp(self.p, other.v - self.v)

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Fp(self.p, self.v * other.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if other.v == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        # Fermat inverse; p is prime by construction of the field.
        return Fp(self.p, self.v * pow(other.v, self.p - 2, self.p))

    def __rtruediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.v))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return "Fp(%d, %d)" % (self.p, self.v)

    def __str__(self):
        return str(self.v)


# ---------------------------------------------------------------------------
# polynomials over Q: a rational content times a primitive Z[t1..tr] element
# ---------------------------------------------------------------------------

def _frozen(a):
    """A hashable copy of an element of the tower :func:`poly_ring`."""
    return tuple(map(_frozen, a)) if type(a) is list else a


class MPoly:
    """Polynomial in ``nvars`` >= 1 commuting indeterminates t1..tr over Q.

    Stored as ``c * P``: ``P`` is an element of ``poly_ring(nvars)``,
    primitive (its integer coefficients have gcd 1) with a positive
    lex-leading coefficient, and ``c`` is one nonzero ``Fraction``, the
    content.  The zero polynomial is ``([], 0)``.  This form is unique, so
    equality and hashing are structural.

    By Gauss's lemma a product of primitive polynomials is primitive, and
    lex order is multiplicative, so ``*`` is the ring's ``mul`` with
    content ``c1*c2`` and ``div_exact`` the ring's exact quotient, with no
    gcd; ``scale``, ``-`` and ``monic`` only touch the content; ``+`` and
    ``-`` are one ``lincomb`` and one integer content.  Exponent dicts
    appear only in the constructor, :attr:`terms`, ``str`` and the JSON
    codec.  The methods read the ring as ``_POLY_RINGS[nvars]``, which
    building any value in ``nvars`` variables has built.  Used only as the
    num/den of :class:`RatFunc`.  Values are never mutated, so they may
    share their elements with each other and with ``linrep``'s kernel.
    """

    __slots__ = ("nvars", "p", "c")

    def __init__(self, nvars: int, terms: dict) -> None:
        """Normalising constructor from a dict of rational coefficients."""
        terms = {e: v for e, v in terms.items() if v}
        self.nvars = nvars
        if not terms:
            self.p, self.c = [], _ZERO
            return
        den = lcm(*(v.denominator for v in terms.values()))
        ints = {e: v.numerator * (den // v.denominator) for e, v in terms.items()}
        q = MPoly._primitive(nvars, _ring(nvars).of(ints), Fraction(1, den))
        self.p, self.c = q.p, q.c

    @staticmethod
    def _of(nvars: int, p: list, c: Fraction) -> "MPoly":
        """Trusted constructor: ``(p, c)`` is already in normal form."""
        q = object.__new__(MPoly)
        q.nvars = nvars
        q.p = p
        q.c = c
        return q

    @staticmethod
    def _primitive(nvars: int, a: list, c) -> "MPoly":
        """``c * a`` for a nonzero element ``a`` of ``poly_ring(nvars)`` and
        a nonzero rational ``c``: the integer content of a and the sign of
        its lead move into the content."""
        ring = _POLY_RINGS[nvars]
        h = gcd(*ring.ints([a]))
        if ring.lead(a) < 0:
            h = -h
        if h != 1:
            a = ring.div_exact(a, ring.const(h))
        return MPoly._of(nvars, a, c * h)

    @staticmethod
    def const(nvars: int, c) -> "MPoly":
        c = Fraction(c)
        if not c:
            return MPoly._of(nvars, [], c)
        return MPoly._of(nvars, _ring(nvars).one, c)

    @staticmethod
    def var(nvars: int, i: int) -> "MPoly":
        e = [0] * nvars
        e[i] = 1
        return MPoly(nvars, {tuple(e): _ONE})

    @property
    def terms(self) -> dict:
        """Read-only view: exponent tuple -> nonzero ``Fraction`` coefficient."""
        c = self.c
        return {e: c * k for e, k in _POLY_RINGS[self.nvars].terms(self.p).items()}

    def is_zero(self) -> bool:
        return not self.p

    def is_const(self) -> bool:
        """Whether this is a constant: a primitive constant is 1."""
        p = self.p
        return not p or p == _POLY_RINGS[self.nvars].one

    def __eq__(self, other):
        return isinstance(other, MPoly) and self.nvars == other.nvars and self.c == other.c and self.p == other.p

    def __hash__(self):
        return hash((self.nvars, self.c, _frozen(self.p)))

    def _add(self, other: "MPoly", sign: int) -> "MPoly":
        """``self + sign*other``: one integer combination, one integer content."""
        if not other.p:
            return self
        if not self.p:
            return other if sign > 0 else -other
        c1, c2 = self.c, other.c
        n1, d1 = c1.numerator, c1.denominator
        n2, d2 = sign * c2.numerator, c2.denominator
        # c1*P1 + c2*P2 = (g/den) * (m1*P1 + m2*P2) with integer m1, m2
        g = gcd(n1, n2)
        den = d1 * d2 // gcd(d1, d2)
        ring = _POLY_RINGS[self.nvars]
        const = ring.const
        t = ring.lincomb(const(n1 // g * (den // d1)), self.p, const(n2 // g * (den // d2)), other.p)
        if not t:
            return MPoly._of(self.nvars, [], _ZERO)
        return MPoly._primitive(self.nvars, t, Fraction(g, den))

    def __add__(self, other):
        return self._add(other, 1)

    def __sub__(self, other):
        return self._add(other, -1)

    def __neg__(self):
        return MPoly._of(self.nvars, self.p, -self.c)

    def __mul__(self, other):
        if not self.p or not other.p:
            return MPoly._of(self.nvars, [], _ZERO)
        return MPoly._of(self.nvars, _POLY_RINGS[self.nvars].mul(self.p, other.p), self.c * other.c)

    def scale(self, c) -> "MPoly":
        if not c:
            return MPoly._of(self.nvars, [], _ZERO)
        return MPoly._of(self.nvars, self.p, self.c * c)

    def leading(self):
        """Lex-leading (exponent, coefficient) pair: last entries down the tower."""
        e, x = [], self.p
        while type(x) is list:
            e.append(len(x) - 1)
            x = x[-1]
        return tuple(e), self.c * x

    def div_exact(self, other: "MPoly") -> "MPoly":
        """Exact division; raises ValueError if ``other`` does not divide.

        The primitive parts divide in the ring: if P2 divides P1 over Q,
        the quotient is primitive by Gauss's lemma, so the ring's exact
        quotient finds it, with a positive lead."""
        if not other.p:
            raise ZeroDivisionError("polynomial division by zero")
        if other.is_const():
            return self.scale(1 / other.c)
        return MPoly._of(self.nvars, _POLY_RINGS[self.nvars].div_exact(self.p, other.p), self.c / other.c)

    def monic(self) -> "MPoly":
        if not self.p:
            return self
        return MPoly._of(self.nvars, self.p, Fraction(1, _POLY_RINGS[self.nvars].lead(self.p)))

    def __str__(self):
        if not self.p:
            return "0"
        terms = self.terms
        parts = []
        for e in sorted(terms, key=lambda t: (sum(t), t), reverse=True):
            c = terms[e]
            mon = "*".join(
                "t%d" % (i + 1) if k == 1 else "t%d^%d" % (i + 1, k)
                for i, k in enumerate(e)
                if k
            )
            if not mon:
                parts.append(str(c))
            elif c == 1:
                parts.append(mon)
            elif c == -1:
                parts.append("-" + mon)
            else:
                parts.append("%s*%s" % (c, mon))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    __repr__ = __str__


# ---------------------------------------------------------------------------
# the ring tower Z[t1..tr] = Z[t2..tr][t1], with Z as its floor
# ---------------------------------------------------------------------------

class PolyRing:
    """A coefficient ring of the span kernel of ``linrep``, over which one
    ``la.Echelon`` eliminates: a dense polynomial ring Z[t1..tr] of the
    tower :func:`poly_ring`, whose floor ``poly_ring(0)`` is the integers
    :data:`ZZ` on plain ints, or the integers mod p (:func:`zmod_ring`).
    Every ring carries the same operations: ``zero`` and ``one``; ``mul``,
    ``add``, ``neg``, ``div_exact`` (refusing an inexact quotient with
    ValueError), ``gcd`` and ``lcm`` (both with a positive lead), and
    ``lead(a)``, the lex-leading integer coefficient; on vectors,
    ``comb(a, v, c, w)`` is a*v - c*w, ``quo(v, g)`` is v / g for a g that
    divides every entry, such as their content (Z does not check that),
    ``scale(k, v)`` is k*v, ``mac(acc, a, b)`` adds the convolution of a
    and b (a[i]*b[j] into acc[i + j]) into acc, a fresh list of the
    caller's, ``dot(v, col)`` is the product of v with a sparse column of
    (index, entry) pairs, and ``content(v, g)`` the gcd of g and the
    entries of v.  A ring of the tower also has ``const(k)``, the integer
    k, and ``as_int(a)``, a as an integer or None if it is none;
    ``ints(xs)`` iterates over the integer coefficients of a list of
    elements, and ``of`` and ``terms`` convert from and to dicts of
    exponent tuples to integers, for :class:`MPoly`'s term dicts; for
    r >= 1, ``is_const(a)`` is whether a nonzero a is an integer, and
    ``lincomb(a, x, b, y)`` is a*x + b*y."""

    def __init__(self, nvars, one, **ops) -> None:
        self.nvars, self.one = nvars, one
        self.__dict__.update(ops)


def _zz_div_exact(a, b):
    if a % b:
        raise ValueError("inexact integer division: %d / %d" % (a, b))
    return a // b


def _zz_mac(acc, a, b):
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                acc[j] += x * y


def _zz_dot(v, col):
    s = 0
    for i, y in col:
        s += v[i] * y
    return s


# Z = Z[t1..t0], the floor of the tower, on plain ints, an integer its own
# lead.  ``div_exact`` refuses an inexact quotient, which the rings above
# rely on; ``quo``, which divides by a content, floors unchecked.  ``scale``
# and ``mac`` are the integer loops of the tower's ``mul`` and ``dot``.
ZZ = PolyRing(
    0, 1, zero=0, const=pos, as_int=pos, ints=lambda xs: xs, mul=mul, add=add, neg=neg,
    div_exact=_zz_div_exact, gcd=gcd, lcm=lcm, lead=pos, dot=_zz_dot, content=lambda v, g=0: gcd(g, *v),
    of=lambda p: p.get((), 0), terms=lambda a: {(): a} if a else {},
    comb=lambda a, v, c, w: [a * x - c * y for x, y in zip(v, w)], quo=lambda v, g: [x // g for x in v],
    scale=lambda k, v: [k * x for x in v], mac=_zz_mac)


def _nested(base: PolyRing) -> PolyRing:
    """R[t] for R = ``base``, a ring in the variables after t: a list over
    powers of t of R elements, lowest first, with no trailing zero.  The
    lex-leading coefficient is that of the last entry, so ``lead`` is the
    lex order of exponent tuples (t first) that :class:`MPoly` orders by.
    Every operation is written with R's operations only: ``mul`` and
    ``dot`` go through R's ``scale`` and ``mac``, and the vector operations
    are derived from the element operations.  The gcd is the
    primitive pseudo-remainder sequence in t over R (Collins, *J. ACM* 14,
    1967), with contents taken by R's ``content``."""
    bzero, bone, bconst, blead, bas_int, bints = base.zero, base.one, base.const, base.lead, base.as_int, base.ints
    bmul, badd, bneg, bdiv, bgcd, blcm = base.mul, base.add, base.neg, base.div_exact, base.gcd, base.lcm
    bcontent, bof, bterms, bquo, bscale, bmac = base.content, base.of, base.terms, base.quo, base.scale, base.mac
    one = [bone]

    def as_int(a):
        return bas_int(a[0]) if len(a) == 1 else None

    def ints(polys):
        return bints(chain.from_iterable(polys))

    def neg(a):
        return [bneg(x) for x in a]

    def add(a, b):
        if len(a) < len(b):
            a, b = b, a
        r = list(a)
        for i, y in enumerate(b):
            if y:
                x = r[i]
                r[i] = badd(x, y) if x else y
        while r and not r[-1]:
            r.pop()
        return r

    def mul(a, b):
        """a * b.  A factor of 1 gives back the other operand, so the result
        may share lists with an operand; none is mutated."""
        if not a or not b:
            return []
        if len(a) == 1:
            x = a[0]
            if len(b) == 1:
                return [bmul(x, b[0])]
            return b if x == bone else bscale(x, b)
        if len(b) == 1:
            y = b[0]
            return a if y == bone else bscale(y, a)
        acc = [bzero] * (len(a) + len(b) - 1)
        bmac(acc, a, b)
        return acc

    def dot(v, col):
        """One product is a ``mul``, as for most columns of a letter matrix.
        Otherwise the products of two constants in t are summed in R, and
        the others added into one list by R's ``mac``."""
        if len(col) == 1:
            i, y = col[0]
            x = v[i]
            return mul(x, y) if x else []
        acc: list = []
        c = bzero
        for i, y in col:
            x = v[i]
            if not x:
                continue
            if len(x) == 1 == len(y):
                c = badd(c, bmul(x[0], y[0]))
                continue
            n = len(x) + len(y) - 1
            if len(acc) < n:
                acc += [bzero] * (n - len(acc))
            bmac(acc, x, y)
        if c:
            if not acc:
                return [c]
            x = acc[0]
            acc[0] = badd(x, c) if x else c
        while acc and not acc[-1]:
            acc.pop()
        return acc

    def lincomb(a, x, b, y):
        if not x:
            return mul(b, y)
        if not y:
            return mul(a, x)
        if len(a) == len(b) == len(x) == len(y) == 1:  # all in the base ring
            r = badd(bmul(a[0], x[0]), bmul(b[0], y[0]))
            return [r] if r else []
        return add(mul(a, x), mul(b, y))

    def div_exact(a, b):
        """a / b; raises ValueError unless b divides a."""
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        if len(b) == 1:
            y = b[0]
            return a if y == bone else [bdiv(x, y) if x else x for x in a]
        db, lb = len(b) - 1, b[-1]
        if len(a) <= db:
            if a:
                raise ValueError("inexact polynomial division")
            return []
        rem = list(a)
        q: list = [bzero] * (len(a) - db)
        for k in range(len(q) - 1, -1, -1):
            r = rem[k + db]
            if r:
                c = q[k] = bdiv(r, lb)
                c = bneg(c)
                for i in range(db):  # the leading term cancels exactly
                    y = b[i]
                    if y:
                        rem[k + i] = badd(rem[k + i], bmul(c, y))
        if any(rem[:db]):
            raise ValueError("inexact polynomial division")
        return q

    def prem(a, b):
        """A nonzero multiple of ``a mod b`` in t, for ``deg a >= deg b``,
        made primitive over R unless its degree in t is 0 (which ends a
        remainder sequence, so its content is never needed).  Each step
        scales by ``lc(b)`` and subtracts ``lc(r)`` times a shift of b; the
        two are divided by their gcd only when both are integers, since a
        gcd in R per step costs more than the growth it saves (on the qt:2
        5 x 5 of ``scripts/invert_sizes.py``, building the matrix took 61 s
        with it and 33 s without)."""
        db, lb = len(b) - 1, b[-1]
        kb = bas_int(lb)
        r = a
        while len(r) > db:
            lr = r[-1]
            kr = None if kb is None else bas_int(lr)
            if kr is not None:
                g = gcd(kr, kb)
                u, w = bconst(kb // g), bconst(-kr // g)
            else:
                u, w = lb, bneg(lr)
            k = len(r) - 1 - db
            r = r[:-1] if u == bone else bscale(u, r[:-1])
            for i in range(db):
                y = b[i]
                if y:
                    r[k + i] = badd(r[k + i], bmul(w, y))
            while r and not r[-1]:
                r.pop()
        if len(r) > 1:
            g = bcontent(r)
            if g != bone:
                r = bquo(r, g)
        return r

    def gcd_(a, b):
        """gcd with a positive lex-leading coefficient, [] for gcd(0, 0): the
        gcd of the contents over R times the primitive gcd in t."""
        if not a or not b:
            a = a or b
            return a if not a or blead(a[-1]) > 0 else neg(a)
        if len(a) == 1 or len(b) == 1:  # one operand lies in R
            if len(a) != 1:
                a, b = b, a
            return [bgcd(a[0], b[0]) if len(b) == 1 else bcontent(b, a[0])]
        ca, cb = bcontent(a), bcontent(b)
        if ca != bone:
            a = bquo(a, ca)
        if cb != bone:
            b = bquo(b, cb)
        c = bgcd(ca, cb)
        if len(a) < len(b):
            a, b = b, a
        while len(b) > 1:
            a, b = b, prem(a, b)
        if b:  # a nonzero remainder of degree 0 in t: the primitive parts are coprime
            return [c]
        if blead(a[-1]) < 0:
            c = bneg(c)
        return a if c == bone else bscale(c, a)

    def lcm_(a, b):
        """lcm of nonzero a and b, with a positive lex-leading coefficient."""
        if len(a) == 1 == len(b):
            return [blcm(a[0], b[0])]
        r = mul(div_exact(a, gcd_(a, b)), b)
        return r if blead(r[-1]) > 0 else neg(r)

    def content(v, g=()):
        """The gcd of g and the entries of v, with a positive lex-leading
        coefficient; [] if all are zero.  If one of them is an integer, it
        is the gcd of all their integer coefficients."""
        if g == one:
            return one
        polys = list(filter(None, v))
        if g:
            polys.append(g)
        if len(polys) > 1:
            polys.sort(key=len)
            for x in polys:
                if len(x) > 1:
                    break
                if bas_int(x[0]) is not None:
                    return [bconst(gcd(*ints(polys)))]
        h: list = []
        for x in polys:
            if h == one:
                break
            h = gcd_(h, x)
        return h

    def comb(a, v, c, w):
        c = neg(c)
        return [lincomb(a, x, c, y) for x, y in zip(v, w)]

    def quo(v, g):
        return [div_exact(x, g) if x else x for x in v]

    def scale(k, v):
        return [mul(k, x) for x in v]

    def mac(acc, a, b):
        """One ``dot`` per entry of acc: the products a[i]*b[k - i]."""
        na, nb = len(a), len(b)
        for k in range(na + nb - 1):
            col = [(i, y) for i in range(max(0, k - nb + 1), min(k + 1, na)) if (y := b[k - i])]
            if col:
                s = dot(a, col)
                x = acc[k]
                acc[k] = add(x, s) if x else s

    def of(p):
        parts: dict = {}
        for e, k in p.items():
            parts.setdefault(e[0], {})[e[1:]] = k
        out: list = [bzero] * (max(parts) + 1)
        for i, q in parts.items():
            out[i] = bof(q)
        return out

    return PolyRing(
        base.nvars + 1, one, zero=[], const=lambda k: [bconst(k)], lead=lambda a: blead(a[-1]),
        is_const=lambda a: as_int(a) is not None, as_int=as_int, ints=ints,
        mul=mul, add=add, neg=neg, div_exact=div_exact, gcd=gcd_, lcm=lcm_, lincomb=lincomb,
        dot=dot, content=content, of=of,
        terms=lambda a: {(i,) + e: k for i, x in enumerate(a) if x for e, k in bterms(x).items()},
        comb=comb, quo=quo, scale=scale, mac=mac)


_POLY_RINGS = [ZZ]


def poly_ring(nvars: int) -> PolyRing:
    """Z[t1..tr] for r = ``nvars``: :data:`ZZ` for r = 0, and for r >= 1
    the ring :func:`_nested` builds over Z[t2..tr], so an element is a
    list over powers of t1 of lists over powers of t2, down to integer
    lists over powers of tr.  Built once per r."""
    while len(_POLY_RINGS) <= nvars:
        _POLY_RINGS.append(_nested(_POLY_RINGS[-1]))
    return _POLY_RINGS[nvars]


def _ring(nvars: int) -> PolyRing:
    """``poly_ring(nvars)``, read straight off the tower once it is built:
    the constructors of :class:`MPoly` take it on every call."""
    return _POLY_RINGS[nvars] if nvars < len(_POLY_RINGS) else poly_ring(nvars)


# ---------------------------------------------------------------------------
# Z/p: the coefficient ring of fp:p
# ---------------------------------------------------------------------------

def zmod_ring(p: int) -> PolyRing:
    """Z/p for a prime p, on residues in [0, p), each its own lead, with the
    ring and vector operations of :data:`ZZ`.  Every nonzero residue is a
    unit, so a gcd or content is 1 unless all its operands are 0, an lcm of
    nonzero residues is 1, and ``div_exact`` and ``quo`` multiply by the
    inverse."""
    def quo(v, g):
        s = pow(g, -1, p)
        return [x * s % p for x in v]

    def mac(acc, a, b):
        _zz_mac(acc, a, b)
        acc[:] = [x % p for x in acc]

    return PolyRing(
        0, 1, zero=0, mul=lambda a, b: a * b % p, add=lambda a, b: (a + b) % p, neg=lambda a: -a % p,
        div_exact=lambda a, b: a * pow(b, -1, p) % p, gcd=lambda a, b: int(bool(a or b)), lcm=lambda a, b: 1,
        lead=pos, content=lambda v, g=0: int(bool(g or any(v))), dot=lambda v, col: _zz_dot(v, col) % p,
        comb=lambda a, v, c, w: [(a * x - c * y) % p for x, y in zip(v, w)], quo=quo,
        scale=lambda k, v: [k * x % p for x in v], mac=mac)


def mpoly_gcd(f: MPoly, g: MPoly) -> MPoly:
    """Monic gcd: the gcd in :func:`poly_ring` of the primitive parts,
    which is primitive with a positive lead, scaled to lead 1."""
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    if f.is_const() or g.is_const():
        return MPoly.const(f.nvars, 1)
    ring = _POLY_RINGS[f.nvars]
    h = ring.gcd(f.p, g.p)
    if h == ring.one:
        return MPoly.const(f.nvars, 1)
    return MPoly._of(f.nvars, h, Fraction(1, ring.lead(h)))


def _nontrivial_gcd(f: MPoly, g: MPoly):
    """``mpoly_gcd(f, g)`` of nonzero f and g, or None when it is 1."""
    if f.is_const() or g.is_const():
        return None
    h = mpoly_gcd(f, g)
    return None if h.is_const() else h


class RatFunc:
    """Element of Q(t1..tr): reduced fraction of :class:`MPoly` with monic denominator.

    ``RatFunc(num, den)`` is the reducing constructor and the reference for
    the canonical form.  The operators rely on their operands being canonical
    already and skip the work that this makes redundant (Henrici's split, as
    in ``fractions.Fraction``):

    * zero and one: ``0 + x`` and ``1 * x`` are ``x``, and ``0 * x`` is zero,
      with no polynomial built;
    * constants (one zero-exponent numerator term over 1) combine as two
      Fractions; ``c * p/q`` is ``(c*p)/q`` and ``(p/q) / c`` is ``(p/c)/q``;
    * a polynomial plus a fraction, ``p + c/d``, is ``(p*d + c)/d``;
    * ``a/b + c/d`` reduces only against ``g = gcd(b, d)``, and not at all
      when g is 1;
    * ``(a/b) * (c/d)`` cancels the cross gcds ``gcd(a, d)`` and ``gcd(c, b)``
      instead of reducing the full product.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly) -> None:
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num = MPoly(num.nvars, {})
            den = MPoly.const(num.nvars, 1)
        elif den.is_const():
            num = num.scale(1 / den.c)  # a constant's value is its content
            den = MPoly.const(num.nvars, 1)
        else:
            g = mpoly_gcd(num, den)
            if not g.is_const() or g.c != 1:
                num = num.div_exact(g)
                den = den.div_exact(g)
            _, lc = den.leading()
            if lc != 1:
                num = num.scale(1 / lc)
                den = den.scale(1 / lc)
        self.num = num
        self.den = den

    @staticmethod
    def _of(num: MPoly, den: MPoly) -> "RatFunc":
        """Trusted constructor: num/den is already reduced, den monic."""
        r = object.__new__(RatFunc)
        r.num = num
        r.den = den
        return r

    @staticmethod
    def const(nvars: int, c) -> "RatFunc":
        return RatFunc._of(MPoly.const(nvars, c), MPoly.const(nvars, 1))

    @staticmethod
    def var(nvars: int, i: int) -> "RatFunc":
        return RatFunc._of(MPoly.var(nvars, i), MPoly.const(nvars, 1))

    def _lift(self, other):
        if isinstance(other, RatFunc):
            if other.num.nvars != self.num.nvars:
                raise ValueError("mixed function fields")
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(self.num.nvars, other)
        return NotImplemented

    def _add(self, other: "RatFunc") -> "RatFunc":
        a, b = self.num, self.den
        c, d = other.num, other.den
        if not a.p:
            return other
        if not c.p:
            return self
        if b.is_const():
            # b is 1; for two constants a + c is one Fraction addition
            if d.is_const():
                return RatFunc._of(a + c, b)
            return RatFunc._of(a * d + c, d)
        if d.is_const():
            return RatFunc._of(a + c * b, b)
        g = _nontrivial_gcd(b, d)
        if g is None:
            return RatFunc._of(a * d + c * b, b * d)
        s = b.div_exact(g)
        t = a * d.div_exact(g) + c * s
        if not t.p:
            return RatFunc._of(t, MPoly.const(a.nvars, 1))
        g2 = _nontrivial_gcd(t, g)
        if g2 is None:
            return RatFunc._of(t, s * d)
        return RatFunc._of(t.div_exact(g2), s * d.div_exact(g2))

    def _mul(self, other: "RatFunc") -> "RatFunc":
        a, b = self.num, self.den
        c, d = other.num, other.den
        if not a.p:
            return self
        if not c.p:
            return other
        # the value of a nonzero constant is its content
        if b.is_const() and a.is_const():
            x = a.c
            return other if x == 1 else RatFunc._of(c.scale(x), d)
        if d.is_const() and c.is_const():
            y = c.c
            return self if y == 1 else RatFunc._of(a.scale(y), b)
        g1 = None if d.is_const() else _nontrivial_gcd(a, d)
        g2 = None if b.is_const() else _nontrivial_gcd(c, b)
        if g1 is not None:
            a, d = a.div_exact(g1), d.div_exact(g1)
        if g2 is not None:
            c, b = c.div_exact(g2), b.div_exact(g2)
        return RatFunc._of(a * c, b * d)

    def _inverse(self) -> "RatFunc":
        if not self.num.p:
            raise ZeroDivisionError("division by zero rational function")
        _, lc = self.num.leading()
        if lc == 1:
            return RatFunc._of(self.den, self.num)
        inv = 1 / lc
        return RatFunc._of(self.den.scale(inv), self.num.scale(inv))

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self._add(other)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._of(-self.num, self.den)

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self._add(RatFunc._of(-other.num, other.den))

    def __rsub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other._add(RatFunc._of(-self.num, self.den))

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self._mul(other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self._mul(other._inverse())

    def __rtruediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other._mul(self._inverse())

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(self.num.nvars, other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num.p)

    def __str__(self):
        if self.den.is_const():
            return str(self.num)
        ns = str(self.num)
        if " " in ns:
            ns = "(%s)" % ns
        ds = str(self.den)
        if " " in ds or "*" in ds:
            ds = "(%s)" % ds
        return "%s/%s" % (ns, ds)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# field descriptors
# ---------------------------------------------------------------------------

class Field:
    """Shared interface of the scalar domains; see the concrete subclasses."""

    name = "?"

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, k: int):
        raise NotImplementedError

    def from_fraction(self, q: Fraction):
        raise NotImplementedError

    def render(self, a) -> str:
        return str(a)

    def random(self, rng, *, units_only: bool = False):
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return "Field(%s)" % self.name


class RationalField(Field):
    name = "q"

    def zero(self):
        return _ZERO

    def one(self):
        return _ONE

    def from_int(self, k: int):
        return Fraction(k)

    def from_fraction(self, q: Fraction):
        return q

    def random(self, rng, *, units_only: bool = False):
        lo = 1 if units_only else -4
        n = rng.randint(lo, 4)
        if not units_only and n == 0 and rng.random() < 0.5:
            n = rng.choice([-1, 1])
        if rng.random() < 0.2:
            return Fraction(n, rng.randint(2, 5))
        return Fraction(n)


class PrimeField(Field):
    def __init__(self, p: int) -> None:
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ValueError("modulus must be prime, got %d" % p)
        self.p = p
        self.name = "fp:%d" % p

    def from_int(self, k: int):
        return Fp(self.p, k)

    def from_fraction(self, q: Fraction):
        return Fp(self.p, q.numerator) / Fp(self.p, q.denominator)

    def random(self, rng, *, units_only: bool = False):
        return Fp(self.p, rng.randint(1 if units_only else 0, self.p - 1))


MAX_NVARS = 64


class FunctionField(Field):
    """Q(t1..tr), rational functions in r indeterminates, 1 <= r <=
    :data:`MAX_NVARS`: the ring tower of :func:`poly_ring` recurses once per
    variable."""

    def __init__(self, nvars: int) -> None:
        if not 1 <= nvars <= MAX_NVARS:
            raise ValueError("the number of indeterminates must be 1 to %d, got %d" % (MAX_NVARS, nvars))
        self.nvars = nvars
        self.name = "qt:%d" % nvars
        # built once: values are never mutated, so every caller may share them
        self._zero = RatFunc.const(nvars, 0)
        self._one = RatFunc.const(nvars, 1)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, k: int):
        return RatFunc.const(self.nvars, k)

    def from_fraction(self, q: Fraction):
        return RatFunc.const(self.nvars, q)

    def var(self, i: int = 0):
        if not 0 <= i < self.nvars:
            raise ValueError("no such indeterminate t%d" % (i + 1))
        return RatFunc.var(self.nvars, i)

    def random(self, rng, *, units_only: bool = False):
        r = rng.random()
        if r < 0.55:
            c = rng.randint(1 if units_only else -3, 3)
            if units_only and c == 0:
                c = 1
            return self.from_int(c)
        i = rng.randrange(self.nvars)
        t = self.var(i)
        a = t + rng.randint(0 if not units_only else 1, 2)
        if r < 0.85:
            return a
        return self.from_int(1) / a


_FIELD_CACHE: dict = {}


def field_from_name(name: str) -> Field:
    """Parse a field tag: ``q``, ``fp:<p>`` or ``qt:<r>``."""
    if type(name) is not str:
        raise ValueError("a field tag must be a string, got %r" % (name,))
    if name in _FIELD_CACHE:
        return _FIELD_CACHE[name]
    if name == "q":
        f: Field = RationalField()
    elif name.startswith("fp:"):
        f = PrimeField(int(name[3:]))
    elif name.startswith("qt:"):
        f = FunctionField(int(name[3:]))
    else:
        raise ValueError("unknown field %r (expected q, fp:<p> or qt:<r>)" % name)
    _FIELD_CACHE[name] = f
    return f


QQ = field_from_name("q")


# ---------------------------------------------------------------------------
# JSON codecs; structured rather than textual so reloading never reparses
# ---------------------------------------------------------------------------

def _mpoly_to_json(p: MPoly):
    return [[list(e), str(c)] for e, c in sorted(p.terms.items())]


def _mpoly_from_json(nvars: int, obj) -> MPoly:
    if type(obj) is not list:
        raise ValueError("a polynomial must be a list of [exponent list, string] terms, got %r" % (obj,))
    terms = {}
    for term in obj:
        if not (type(term) is list and len(term) == 2 and type(term[0]) is list and type(term[1]) is str):
            raise ValueError("a polynomial term must be [exponent list, string], got %r" % (term,))
        e, c = term
        if len(e) != nvars or any(type(k) is not int or k < 0 for k in e):
            raise ValueError("exponent %r is not %d non-negative integers" % (e, nvars))
        terms[tuple(e)] = _fraction(c)
    return MPoly(nvars, terms)


def _fraction(text: str) -> Fraction:
    """``Fraction(text)``, refusing a zero denominator with ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("%r has a zero denominator" % text) from None


def _is_one_json(obj, nvars: int) -> bool:
    """Whether ``obj`` is exactly ``[[[0, ..., 0], "1"]]``, the encoding of
    the polynomial 1, with the types checked as well: ``False == 0`` in
    Python, but the parse rejects a ``false`` exponent."""
    if type(obj) is not list or len(obj) != 1:
        return False
    term = obj[0]
    if type(term) is not list or len(term) != 2 or term[1] != "1":
        return False
    e = term[0]
    return type(e) is list and len(e) == nvars and all(type(k) is int and k == 0 for k in e)


def _unit_json(nvars: int) -> list:
    """A fresh ``[[[0, ..., 0], "1"]]``, the encoding of the polynomial 1."""
    return [[[0] * nvars, "1"]]


def scalar_to_json(field: Field, a):
    """The JSON encoding of the scalar ``a``.  Zero and one, most of the
    scalars of a certificate, skip the encoding of their polynomials over
    qt:r (a canonical zero has denominator 1, and a canonical value is one
    exactly when its numerator equals its denominator) and the string
    conversion over q.  Every encoding is built fresh, so no two places in a
    JSON tree share a list or an object."""
    if isinstance(field, RationalField):
        return "0" if a is _ZERO else str(a)
    if isinstance(field, PrimeField):
        return a.v
    if isinstance(field, FunctionField):
        num, den = a.num, a.den
        if not num.p:
            return {"num": [], "den": _unit_json(field.nvars)}
        if num.p == den.p and num.c == den.c:
            return {"num": _unit_json(field.nvars), "den": _unit_json(field.nvars)}
        return {"num": _mpoly_to_json(num), "den": _mpoly_to_json(den)}
    raise TypeError("unknown field %r" % field)


def scalar_from_json(field: Field, obj):
    """The scalar whose :func:`scalar_to_json` encoding is ``obj``: a string
    over q, an int (not a bool) over fp:p, and over qt:r an object whose
    ``num`` and ``den`` are lists of [exponent list, string] terms.
    ValueError for anything else, and for any other encoding of a value
    (an fp:p integer outside [0, p), a q string with spaces, an unreduced
    fraction or a decimal, a qt:r polynomial with a repeated exponent or an
    unreduced fraction): the value read is encoded again, and that must be
    ``obj`` itself."""
    if isinstance(field, RationalField):
        # most scalars of a certificate are 0 or 1: their encodings skip the parse
        if obj == "0":
            return _ZERO
        if obj == "1":
            return _ONE
        if type(obj) is not str:
            raise ValueError("a scalar over q must be a string, got %r" % (obj,))
        a = _fraction(obj)
    elif isinstance(field, PrimeField):
        # an int (not a bool) in [0, p) is its own canonical encoding
        if type(obj) is int and 0 <= obj < field.p:
            return Fp(field.p, obj)
        if type(obj) is not int:
            raise ValueError("a scalar over %s must be an integer, got %r" % (field.name, obj))
        a = Fp(field.p, obj)
    elif isinstance(field, FunctionField):
        # 0 and 1 are most of the scalars of a certificate: their exact
        # canonical encodings, num and den and no other key, skip the
        # parse, anything else takes it
        if type(obj) is dict and len(obj) == 2 and _is_one_json(obj.get("den"), field.nvars):
            num = obj.get("num")
            if type(num) is list and not num:
                return field.zero()
            if _is_one_json(num, field.nvars):
                return field.one()
        if type(obj) is not dict or "num" not in obj or "den" not in obj:
            raise ValueError("a scalar over %s must be an object of num and den, got %r" % (field.name, obj))
        num, den = _mpoly_from_json(field.nvars, obj["num"]), _mpoly_from_json(field.nvars, obj["den"])
        if den.is_zero():
            raise ValueError("the denominator %r is zero" % (obj["den"],))
        a = RatFunc(num, den)  # reduced here, because the operators trust canonical operands
    else:
        raise TypeError("unknown field %r" % field)
    canonical = scalar_to_json(field, a)
    if canonical != obj:
        raise ValueError("%r is not how a scalar over %s is written; its value is written %r"
                         % (obj, field.name, canonical))
    return a
