"""Exact scalar domains: Q, prime fields F_p, and rational functions Q(t1..tr).

Every algorithm in this package reduces to field arithmetic, so scalars are
plain Python objects with operator overloading: ``fractions.Fraction`` for Q,
:class:`Fp` for F_p, :class:`RatFunc` for Q(t1..tr).  A :class:`Field`
descriptor ties them together (construction, parsing, rendering, sampling).

All values are canonical on construction: F_p representatives live in
[0, p), rational functions are reduced by the polynomial gcd and carry a
monic denominator.  Equality is structural.

The :class:`RatFunc` operators rely on that invariant: they take canonical
operands and skip the gcds it makes redundant (zero, one and constant
operands, a polynomial plus a fraction, coprime denominators, cross gcds
in products; see :class:`RatFunc`).  The reducing constructor
``RatFunc(num, den)`` stays the one reference path, and
:func:`scalar_from_json` builds every loaded value through it, so a value
read from a file is canonical too.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add


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
# sparse multivariate polynomials over Q, exponent tuples as keys
# ---------------------------------------------------------------------------

class MPoly:
    """Polynomial in ``nvars`` commuting indeterminates t1..tr over Q.

    ``terms`` maps exponent tuples to nonzero Fractions.  Used only as the
    num/den of :class:`RatFunc`; arithmetic is plain dict convolution.
    Values are never mutated after construction, so they may be shared.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict) -> None:
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if c}

    @staticmethod
    def _of(nvars: int, terms: dict) -> "MPoly":
        """Trusted constructor: ``terms`` already holds no zero coefficient."""
        p = object.__new__(MPoly)
        p.nvars = nvars
        p.terms = terms
        return p

    @staticmethod
    def const(nvars: int, c) -> "MPoly":
        c = Fraction(c)
        return MPoly._of(nvars, {(0,) * nvars: c} if c else {})

    @staticmethod
    def var(nvars: int, i: int) -> "MPoly":
        e = [0] * nvars
        e[i] = 1
        return MPoly._of(nvars, {tuple(e): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        t = self.terms
        return not t or (len(t) == 1 and not any(next(iter(t))))

    def const_value(self) -> Fraction:
        z = (0,) * self.nvars
        return self.terms.get(z, Fraction(0))

    def __eq__(self, other):
        return (
            isinstance(other, MPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        t = dict(self.terms)
        for e, c in other.terms.items():
            if e in t:
                s = t[e] + c
                if s:
                    t[e] = s
                else:
                    del t[e]
            else:
                t[e] = c
        return MPoly._of(self.nvars, t)

    def __neg__(self):
        return MPoly._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        t: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                if e in t:
                    s = t[e] + c1 * c2
                    if s:
                        t[e] = s
                    else:
                        del t[e]
                else:
                    t[e] = c1 * c2
        return MPoly._of(self.nvars, t)

    def scale(self, c) -> "MPoly":
        if not c:
            return MPoly._of(self.nvars, {})
        return MPoly._of(self.nvars, {e: c * v for e, v in self.terms.items()})

    def leading(self):
        """Lex-leading (exponent, coefficient) pair."""
        e = max(self.terms)
        return e, self.terms[e]

    def deg(self, i: int) -> int:
        return max((e[i] for e in self.terms), default=0)

    def active_vars(self):
        out = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    out.add(i)
        return out

    def coeffs_in(self, v: int) -> dict:
        """Collect as a polynomial in variable ``v``: degree -> MPoly coefficient."""
        out: dict = {}
        for e, c in self.terms.items():
            k = e[v]
            e0 = e[:v] + (0,) + e[v + 1 :]
            out.setdefault(k, {})[e0] = c
        return {k: MPoly(self.nvars, t) for k, t in out.items()}

    def div_exact(self, other: "MPoly") -> "MPoly":
        """Exact division; raises ValueError if ``other`` does not divide."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if other.is_const():
            c = other.const_value()
            return self if c == 1 else self.scale(1 / c)
        rem = dict(self.terms)  # the remainder, updated in place
        q: dict = {}
        le, lc = other.leading()
        divisor = list(other.terms.items())
        while rem:
            re = max(rem)
            qe = tuple(a - b for a, b in zip(re, le))
            if any(k < 0 for k in qe):
                raise ValueError("inexact polynomial division")
            qc = rem[re] / lc
            q[qe] = q.get(qe, 0) + qc
            for e, c in divisor:
                m = tuple(map(add, qe, e))
                s = rem.get(m, 0) - qc * c
                if s:
                    rem[m] = s
                else:
                    rem.pop(m, None)
        return MPoly(self.nvars, q)

    def monic(self) -> "MPoly":
        if self.is_zero():
            return self
        _, lc = self.leading()
        return self.scale(1 / lc)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            c = self.terms[e]
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


def _prem(f: MPoly, g: MPoly, v: int) -> MPoly:
    """Pseudo-remainder of f by g with respect to variable v."""
    dg = g.deg(v)
    lg = g.coeffs_in(v)[dg]
    rem = f
    while not rem.is_zero() and rem.deg(v) >= dg:
        d = rem.deg(v)
        lr = rem.coeffs_in(v)[d]
        # lg*rem - lr*t^(d-dg)*g kills the degree-d coefficient
        tpow = MPoly(f.nvars, {tuple(d - dg if i == v else 0 for i in range(f.nvars)): Fraction(1)})
        rem = lg * rem - lr * tpow * g
    return rem


def _content(f: MPoly, v: int) -> MPoly:
    cs = list(f.coeffs_in(v).values())
    g = cs[0]
    for c in cs[1:]:
        g = mpoly_gcd(g, c)
        if g.is_const():
            break
    return g


def mpoly_gcd(f: MPoly, g: MPoly) -> MPoly:
    """Monic gcd via the primitive pseudo-remainder sequence."""
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    if f.is_const() or g.is_const():
        return MPoly.const(f.nvars, 1)
    common = f.active_vars() & g.active_vars()
    if not common:
        return MPoly.const(f.nvars, 1)
    v = min(common)
    cf, cg = _content(f, v), _content(g, v)
    a, b = f.div_exact(cf), g.div_exact(cg)
    if a.deg(v) < b.deg(v):
        a, b = b, a
    while not b.is_zero():
        r = _prem(a, b, v)
        a = b
        if r.is_zero():
            b = r
        else:
            b = r.div_exact(_content(r, v))
    return (mpoly_gcd(cf, cg) * a).monic()


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
            num = num.scale(1 / den.const_value())
            den = MPoly.const(num.nvars, 1)
        else:
            g = mpoly_gcd(num, den)
            if not g.is_const() or g.const_value() != 1:
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
        if not a.terms:
            return other
        if not c.terms:
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
        if not t.terms:
            return RatFunc._of(t, MPoly.const(a.nvars, 1))
        g2 = _nontrivial_gcd(t, g)
        if g2 is None:
            return RatFunc._of(t, s * d)
        return RatFunc._of(t.div_exact(g2), s * d.div_exact(g2))

    def _mul(self, other: "RatFunc") -> "RatFunc":
        a, b = self.num, self.den
        c, d = other.num, other.den
        if not a.terms:
            return self
        if not c.terms:
            return other
        if b.is_const() and a.is_const():
            (x,) = a.terms.values()
            return other if x == 1 else RatFunc._of(c.scale(x), d)
        if d.is_const() and c.is_const():
            (y,) = c.terms.values()
            return self if y == 1 else RatFunc._of(a.scale(y), b)
        g1 = None if d.is_const() else _nontrivial_gcd(a, d)
        g2 = None if b.is_const() else _nontrivial_gcd(c, b)
        if g1 is not None:
            a, d = a.div_exact(g1), d.div_exact(g1)
        if g2 is not None:
            c, b = c.div_exact(g2), b.div_exact(g2)
        return RatFunc._of(a * c, b * d)

    def _inverse(self) -> "RatFunc":
        if not self.num.terms:
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
        return not self.num.is_zero()

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


class FunctionField(Field):
    """Q(t1..tr), rational functions in r indeterminates."""

    def __init__(self, nvars: int) -> None:
        if nvars < 1:
            raise ValueError("need at least one indeterminate")
        self.nvars = nvars
        self.name = "qt:%d" % nvars

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
    terms = {}
    for e, c in obj:
        e = tuple(e)
        if len(e) != nvars or any(type(k) is not int or k < 0 for k in e):
            raise ValueError("exponent %r is not %d non-negative integers" % (list(e), nvars))
        terms[e] = Fraction(c)
    return MPoly(nvars, terms)


def scalar_to_json(field: Field, a):
    if isinstance(field, RationalField):
        return str(a)
    if isinstance(field, PrimeField):
        return a.v
    if isinstance(field, FunctionField):
        return {"num": _mpoly_to_json(a.num), "den": _mpoly_to_json(a.den)}
    raise TypeError("unknown field %r" % field)


def scalar_from_json(field: Field, obj):
    if isinstance(field, RationalField):
        return Fraction(obj)
    if isinstance(field, PrimeField):
        return Fp(field.p, obj)
    if isinstance(field, FunctionField):
        # Reduced here, because the operators trust canonical operands.
        return RatFunc(
            _mpoly_from_json(field.nvars, obj["num"]),
            _mpoly_from_json(field.nvars, obj["den"]),
        )
    raise TypeError("unknown field %r" % field)
