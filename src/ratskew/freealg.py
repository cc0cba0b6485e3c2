"""Noncommutative polynomials: finitely supported series over a free monoid.

A :class:`FreeElem` stores a dict from words (tuples of letter indices) to
nonzero scalars, and is never mutated.  Multiplication is word
concatenation extended bilinearly.
These serve three roles: the polynomial coefficient backend of the skew
extension, the inputs that get promoted to linear representations, and the
plain data of the Leavitt-side cross checks.
"""

from __future__ import annotations

from .fields import Field, scalar_from_json, scalar_to_json
from .words import load_terms, render_word, word_key


class FreeElem:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: dict) -> None:
        self.field = field
        self.coeffs = {w: c for w, c in coeffs.items() if c}

    @staticmethod
    def _of(field: Field, coeffs: dict) -> "FreeElem":
        """Trusted constructor: wrap ``coeffs``, a dict of nonzero scalars
        that no one else holds.  The operations whose results are free of
        zeros by construction build them here, with no second filter."""
        e = object.__new__(FreeElem)
        e.field = field
        e.coeffs = coeffs
        return e

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(field: Field) -> "FreeElem":
        return FreeElem(field, {})

    @staticmethod
    def scalar(field: Field, c) -> "FreeElem":
        return FreeElem(field, {(): c})

    @staticmethod
    def one(field: Field) -> "FreeElem":
        return FreeElem.scalar(field, field.one())

    @staticmethod
    def letter(field: Field, i: int) -> "FreeElem":
        return FreeElem(field, {(i,): field.one()})

    @staticmethod
    def word(field: Field, w, c=None) -> "FreeElem":
        return FreeElem(field, {tuple(w): field.one() if c is None else c})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "FreeElem") -> "FreeElem":
        # values are never mutated, so a zero operand gives the other one
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        t = dict(self.coeffs)
        for w, c in other.coeffs.items():
            s = t.get(w)
            s = c if s is None else s + c
            if s:
                t[w] = s
            else:
                del t[w]
        return FreeElem._of(self.field, t)

    def __neg__(self) -> "FreeElem":
        return FreeElem._of(self.field, {w: -c for w, c in self.coeffs.items()})

    def __sub__(self, other: "FreeElem") -> "FreeElem":
        return self + (-other)

    def __mul__(self, other: "FreeElem") -> "FreeElem":
        t: dict = {}
        for u, a in self.coeffs.items():
            for v, b in other.coeffs.items():
                w = u + v
                s = t.get(w)
                s = a * b if s is None else s + a * b
                if s:
                    t[w] = s
                else:
                    del t[w]
        return FreeElem._of(self.field, t)

    def scale(self, c) -> "FreeElem":
        if not c:
            return FreeElem.zero(self.field)
        # a field has no zero divisors: c * v is nonzero for nonzero c and v
        return FreeElem._of(self.field, {w: c * v for w, v in self.coeffs.items()})

    def __pow__(self, k: int) -> "FreeElem":
        if k < 0:
            return self.inv() ** (-k)
        out = FreeElem.one(self.field)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        return (
            isinstance(other, FreeElem)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __hash__(self):
        return hash((self.field, frozenset(self.coeffs)))

    # -- series interface --------------------------------------------------

    def coeff(self, w):
        return self.coeffs.get(tuple(w), self.field.zero())

    def degree(self) -> int | None:
        if not self.coeffs:
            return None
        return max(len(w) for w in self.coeffs)

    def min_word(self):
        """Length-lex least word of the support; None for the zero element."""
        if not self.coeffs:
            return None
        return min(self.coeffs, key=word_key)

    def tau(self):
        """Augmentation: kill every word that uses a letter."""
        return self.coeffs.get((), self.field.zero())

    def delta(self, i: int) -> "FreeElem":
        """Right transduction by letter i: coeff of w in the result = coeff of w+(i,)."""
        t = {w[:-1]: c for w, c in self.coeffs.items() if w and w[-1] == i}
        return FreeElem._of(self.field, t)

    def inv(self) -> "FreeElem":
        """Inverse, which exists in the polynomial ring only for nonzero scalars."""
        if set(self.coeffs) != {()}:
            raise ValueError("only scalars are invertible among polynomials")
        return FreeElem.scalar(self.field, self.field.one() / self.coeffs[()])

    # -- presentation ------------------------------------------------------

    def render(self, kind: str = "x") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for w in sorted(self.coeffs, key=word_key):
            cs = self.field.render(self.coeffs[w])
            neg = False
            if " " in cs:
                cs = "(%s)" % cs
            elif cs.startswith("-"):
                neg, cs = True, cs[1:]
            ws = render_word(w, kind)
            if not w:
                body = cs
            elif cs == "1":
                body = ws
            else:
                body = "%s*%s" % (cs, ws)
            parts.append((neg, body))
        neg0, body0 = parts[0]
        out = ("-" + body0) if neg0 else body0
        for neg, body in parts[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def __repr__(self):
        return self.render()

    def to_json(self):
        return {
            "field": self.field.name,
            "terms": [
                [list(w), scalar_to_json(self.field, c)]
                for w, c in sorted(self.coeffs.items(), key=lambda t: word_key(t[0]))
            ],
        }

    @staticmethod
    def from_json(field: Field, obj) -> "FreeElem":
        if type(obj) is not dict:
            raise ValueError("a serialized polynomial must be an object, got %r" % (obj,))
        if obj["field"] != field.name:
            raise ValueError("field mismatch: %s vs %s" % (obj["field"], field.name))
        return FreeElem(field, load_terms(obj["terms"], 1, lambda c: scalar_from_json(field, c)))
