"""Truncated power series: every coefficient up to a cutoff length, stored flat.

This backend is deliberately naive.  Multiplication is finite convolution,
inversion is the geometric series summed degreewise.  It shares no code with
the linear-representation backend, which is the point: the two are developed
against each other, and agreement on a window of coefficients is a real
check rather than a tautology.

``precision`` N means coefficients of words of length < N are trusted.
Multiplication keeps min(N_a, N_b); the right transduction drops one.
"""

from __future__ import annotations

from .fields import Field, scalar_from_json, scalar_to_json
from .words import load_terms, word_key

DEFAULT_PRECISION = 16


class TruncSeries:
    __slots__ = ("field", "precision", "coeffs")

    def __init__(self, field: Field, precision: int, coeffs: dict) -> None:
        self.field = field
        self.precision = precision
        self.coeffs = {w: c for w, c in coeffs.items() if c and len(w) < precision}

    @staticmethod
    def zero(field: Field, precision: int = DEFAULT_PRECISION) -> "TruncSeries":
        return TruncSeries(field, precision, {})

    @staticmethod
    def scalar(field: Field, c, precision: int = DEFAULT_PRECISION) -> "TruncSeries":
        return TruncSeries(field, precision, {(): c})

    @staticmethod
    def one(field: Field, precision: int = DEFAULT_PRECISION) -> "TruncSeries":
        return TruncSeries.scalar(field, field.one(), precision)

    @staticmethod
    def letter(field: Field, i: int, precision: int = DEFAULT_PRECISION) -> "TruncSeries":
        return TruncSeries(field, precision, {(i,): field.one()})

    @staticmethod
    def word(field: Field, w, c=None, precision: int = DEFAULT_PRECISION) -> "TruncSeries":
        return TruncSeries(field, precision, {tuple(w): field.one() if c is None else c})

    @staticmethod
    def from_free(p, precision: int = DEFAULT_PRECISION) -> "TruncSeries":
        return TruncSeries(p.field, precision, dict(p.coeffs))

    @staticmethod
    def from_linrep(a, precision: int = DEFAULT_PRECISION) -> "TruncSeries":
        """Extract the coefficient window of a linear representation."""
        out: dict = {}
        z = a.field.zero()
        mu, gamma = a.mu, a.gamma
        letters = sorted(mu)

        def walk(prefix, v):
            c = sum((v[k] * gamma[k] for k in range(a.dim) if v[k]), z)
            if c:
                out[prefix] = c
            if len(prefix) + 1 >= precision:
                return
            for x in letters:
                m = mu[x]
                w = [sum((v[k] * m[k][j] for k in range(a.dim) if v[k]), z) for j in range(a.dim)]
                if any(w):
                    walk(prefix + (x,), w)

        if a.dim:
            walk((), list(a.lam))
        return TruncSeries(a.field, precision, out)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if self.field != other.field:
            raise ValueError("mixed scalar fields")

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        n = min(self.precision, other.precision)
        t = {w: c for w, c in self.coeffs.items() if len(w) < n}
        for w, c in other.coeffs.items():
            if len(w) >= n:
                continue
            s = t.get(w)
            s = c if s is None else s + c
            if s:
                t[w] = s
            else:
                del t[w]
        return TruncSeries(self.field, n, t)

    def __neg__(self):
        return TruncSeries(self.field, self.precision, {w: -c for w, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "TruncSeries":
        if not c:
            return TruncSeries.zero(self.field, self.precision)
        return TruncSeries(self.field, self.precision, {w: c * v for w, v in self.coeffs.items()})

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        n = min(self.precision, other.precision)
        t: dict = {}
        for u, a in self.coeffs.items():
            if len(u) >= n:
                continue
            for v, b in other.coeffs.items():
                if len(u) + len(v) >= n:
                    continue
                w = u + v
                s = t.get(w)
                s = a * b if s is None else s + a * b
                if s:
                    t[w] = s
                else:
                    del t[w]
        return TruncSeries(self.field, n, t)

    def inv(self) -> "TruncSeries":
        """Geometric-series inverse, summed one power at a time."""
        c = self.coeffs.get(())
        if not c:
            raise ValueError("series with zero constant term has no inverse")
        cinv = self.field.one() / c
        t = self.scale(cinv)
        prop = TruncSeries.one(self.field, self.precision) - t  # zero constant term
        acc = TruncSeries.one(self.field, self.precision)
        pw = TruncSeries.one(self.field, self.precision)
        for _ in range(1, self.precision):
            pw = pw * prop
            if not pw.coeffs:
                break
            acc = acc + pw
        return acc.scale(cinv)

    def tau(self):
        return self.coeffs.get((), self.field.zero())

    def delta(self, i: int) -> "TruncSeries":
        t = {w[:-1]: c for w, c in self.coeffs.items() if w and w[-1] == i}
        return TruncSeries(self.field, self.precision - 1, t)

    # -- queries --------------------------------------------------------------

    def coeff(self, w):
        w = tuple(w)
        if len(w) >= self.precision:
            raise ValueError("coefficient of length %d beyond precision %d" % (len(w), self.precision))
        return self.coeffs.get(w, self.field.zero())

    def min_word(self):
        if not self.coeffs:
            return None
        return min(self.coeffs, key=word_key)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = min(self.precision, other.precision)
        a = {w: c for w, c in self.coeffs.items() if len(w) < n}
        b = {w: c for w, c in other.coeffs.items() if len(w) < n}
        return a == b

    def render(self) -> str:
        from .freealg import FreeElem

        body = FreeElem(self.field, dict(self.coeffs)).render()
        return "%s (window %d)" % (body, self.precision)

    def to_json(self):
        return {
            "field": self.field.name,
            "precision": self.precision,
            "terms": [[list(w), scalar_to_json(self.field, c)] for w, c in sorted(self.coeffs.items(), key=lambda t: word_key(t[0]))],
        }

    @staticmethod
    def from_json(field: Field, obj) -> "TruncSeries":
        if type(obj) is not dict:
            raise ValueError("a serialized truncated series must be an object, got %r" % (obj,))
        if obj["field"] != field.name:
            raise ValueError("field mismatch: %s vs %s" % (obj["field"], field.name))
        precision = obj["precision"]
        # A window below 1 holds no coefficient, so no serialized series has one.
        if type(precision) is not int or precision < 1:
            raise ValueError("precision must be a positive integer, got %r" % (precision,))
        return TruncSeries(field, precision, load_terms(obj["terms"], 1, lambda c: scalar_from_json(field, c)))

    def __repr__(self):
        head = sorted(self.coeffs, key=word_key)[:4]
        return "TruncSeries(N=%d, %d terms, head=%s)" % (self.precision, len(self.coeffs), head)
