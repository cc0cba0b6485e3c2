"""Algebras on monowords y_I x_J with the cancellation x_i y_j = delta_ij.

Letters here run 1..n (or unbounded when n is None).  A monoword is a pair
(I, J): the basis element y_{i_1}..y_{i_p} x_{j_1}..x_{j_q}.  Multiplying
two monowords cancels innermost pairs one at a time:

    (y_I x_J)(y_K x_L):  the last letter of J meets the first letter of K;
    equal letters cancel, different letters kill the product.

With the bound n, the further relation  sum_{i=1}^n y_i x_i = 1  is imposed
by rewriting every junction  y_n x_n -> 1 - sum_{i<n} y_i x_i  inside a
monoword.  Monowords with no such junction form a basis of the quotient, so
"rewrite until no junction" is a normal form.

`v_witness` and `uinf_witness` turn any nonzero element a into a pair
(beta, gamma) with  beta*a*gamma = 1, the one-sided-unit shape these
algebras force on every nonzero element.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import Field, scalar_from_json, scalar_to_json
from .words import load_terms, word_key


def mono_mul(I, J, K, L):
    """(y_I x_J)(y_K x_L) as a single monoword, or None if it dies."""
    c = min(len(J), len(K))
    for t in range(c):
        if J[len(J) - 1 - t] != K[t]:
            return None
    if len(J) >= len(K):
        return (I, J[: len(J) - c] + L)
    return (I + K[c:], L)


def _mono_key(m):
    return (word_key(m[0]), word_key(m[1]))


def _put(d, m, c):
    """Add the nonzero c to d[m], deleting the key when the sum cancels."""
    if m in d:
        s = d[m] + c
        if s:
            d[m] = s
        else:
            del d[m]
    else:
        d[m] = c


class UElem:
    """A finite sum of monowords over a scalar field.

    ``n`` bounds the letters (1..n); ``None`` leaves the alphabet open,
    which is the only mode where no unit-sum relation is available.

    Letters are checked where monowords enter from outside: the constructor
    (and so ``mono``, ``gen_x``, ``gen_y`` and ``scalar``) and ``from_json``,
    which reads certificates.  The arithmetic builds its results with
    ``_of``, which checks nothing: every monoword of a sum, scaled element,
    product or normal form is made of letters of its operands (or, in the
    normal form, of letters below n), which were checked when they entered.
    ``coeffs`` never stores a zero coefficient.
    """

    __slots__ = ("field", "n", "coeffs")

    def __init__(self, field: Field, coeffs: dict, n: int | None) -> None:
        self.field = field
        self.n = n
        out = {}
        for (I, J), c in coeffs.items():
            if not c:
                continue
            for i in I + J:
                if i < 1 or (n is not None and i > n):
                    raise ValueError("letter %d outside 1..%s" % (i, n))
            out[(tuple(I), tuple(J))] = c
        self.coeffs = out

    @staticmethod
    def _of(field: Field, coeffs: dict, n: int | None) -> "UElem":
        """Wrap ``coeffs``, a dict of nonzero coefficients keyed by tuple
        monowords whose letters are already known to lie in 1..n."""
        e = object.__new__(UElem)
        e.field = field
        e.n = n
        e.coeffs = coeffs
        return e

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(field: Field, n=None) -> "UElem":
        return UElem(field, {}, n)

    @staticmethod
    def scalar(field: Field, c, n=None) -> "UElem":
        return UElem(field, {((), ()): c}, n)

    @staticmethod
    def one(field: Field, n=None) -> "UElem":
        return UElem.scalar(field, field.one(), n)

    @staticmethod
    def gen_y(field: Field, i: int, n=None) -> "UElem":
        return UElem(field, {((i,), ()): field.one()}, n)

    @staticmethod
    def gen_x(field: Field, i: int, n=None) -> "UElem":
        return UElem(field, {((), (i,)): field.one()}, n)

    @staticmethod
    def mono(field: Field, I, J, c=None, n=None) -> "UElem":
        return UElem(field, {(tuple(I), tuple(J)): field.one() if c is None else c}, n)

    # -- arithmetic --------------------------------------------------------
    def _check(self, other: "UElem") -> None:
        if (self.field is not other.field and self.field != other.field) or self.n != other.n:
            raise ValueError("mixed ambient algebras")

    def __add__(self, other: "UElem") -> "UElem":
        self._check(other)
        t = dict(self.coeffs)
        for m, c in other.coeffs.items():
            _put(t, m, c)
        return UElem._of(self.field, t, self.n)

    def __neg__(self) -> "UElem":
        return self.scale(-self.field.one())

    def __sub__(self, other: "UElem") -> "UElem":
        return self + (-other)

    def scale(self, c) -> "UElem":
        if not c:
            return UElem.zero(self.field, self.n)
        # a field has no zero divisors, so no product is zero
        return UElem._of(self.field, {m: v * c for m, v in self.coeffs.items()}, self.n)

    def __mul__(self, other: "UElem") -> "UElem":
        self._check(other)
        one = self.field.one()
        out: dict = {}
        for (I, J), a in self.coeffs.items():
            for (K, L), b in other.coeffs.items():
                m = mono_mul(I, J, K, L)
                if m is None:
                    continue
                # a field whose one() is not a shared value still multiplies
                _put(out, m, a if b is one else b if a is one else a * b)
        return UElem._of(self.field, out, self.n)

    def __eq__(self, other):
        if not isinstance(other, UElem):
            return NotImplemented
        self._check(other)
        return self.coeffs == other.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __hash__(self):
        return hash((self.field, self.n, frozenset(self.coeffs.items())))

    # -- structure ---------------------------------------------------------
    def support(self):
        return sorted(self.coeffs, key=_mono_key)

    def y_degree(self) -> int:
        return max((len(I) for (I, J) in self.coeffs), default=0)

    def x_degree(self) -> int:
        return max((len(J) for (I, J) in self.coeffs), default=0)

    def degree(self) -> int:
        return max((len(I) + len(J) for (I, J) in self.coeffs), default=0)

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for m in self.support():
            I, J = m
            cs = self.field.render(self.coeffs[m])
            neg = False
            if " " in cs:
                cs = "(%s)" % cs
            elif cs.startswith("-"):
                neg, cs = True, cs[1:]
            word = "*".join(["y%d" % i for i in I] + ["x%d" % j for j in J])
            if not word:
                body = cs
            elif cs == "1":
                body = word
            else:
                body = "%s*%s" % (cs, word)
            parts.append((neg, body))
        neg0, body0 = parts[0]
        out = ("-" + body0) if neg0 else body0
        for neg, body in parts[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def __repr__(self):
        return "UElem(%s)" % self.render()

    def to_json(self):
        return {
            "field": self.field.name,
            "n": self.n,
            "terms": [
                [list(m[0]), list(m[1]), scalar_to_json(self.field, self.coeffs[m])]
                for m in self.support()
            ],
        }

    @staticmethod
    def from_json(field: Field, obj) -> "UElem":
        if type(obj) is not dict:
            raise ValueError("a serialized Leavitt element must be an object, got %r" % (obj,))
        if obj["field"] != field.name:
            raise ValueError("field mismatch")
        n = obj["n"]
        if n is not None and type(n) is not int:
            raise ValueError("n must be an integer letter bound or null, got %r" % (n,))
        return UElem(field, load_terms(obj["terms"], 2, lambda c: scalar_from_json(field, c)), n)


# ---------------------------------------------------------------------------
# the unit-sum quotient: junction rewriting
# ---------------------------------------------------------------------------

def is_v_reduced(a: UElem) -> bool:
    n = a.n
    if n is None:
        raise ValueError("reducedness needs the letter bound n")
    return not any(I and J and I[-1] == n and J[0] == n for (I, J) in a.coeffs)


def v_normal_form(a: UElem) -> UElem:
    """Eliminate every junction y_n x_n, leaving the basis of the quotient.

    Each rewrite replaces y_I' y_n x_n x_J' by y_I'(1 - sum_{i<n} y_i x_i)x_J',
    strictly shrinking monoword length, so the loop terminates.  The result
    is independent of the order rewrites are applied in (see the randomized
    cross-check in the tests).
    """
    n = a.n
    if n is None:
        raise ValueError("normal form needs the letter bound n")
    if n < 1:
        raise ValueError("n must be >= 1")
    out: dict = {}
    cur = a.coeffs
    while cur:
        nxt: dict = {}
        for (I, J), c in cur.items():
            if I and J and I[-1] == n and J[0] == n:
                I2, J2 = I[:-1], J[1:]
                _put(nxt, (I2, J2), c)
                neg = -c
                for i in range(1, n):
                    _put(nxt, (I2 + (i,), (i,) + J2), neg)
            else:
                _put(out, (I, J), c)
        cur = nxt
    return UElem._of(a.field, out, n)


def v_is_zero(a: UElem) -> bool:
    return not v_normal_form(a)


def v_equal(a: UElem, b: UElem) -> bool:
    return v_is_zero(a - b)


DEGREE_CAP = 12


# The top-level keys ``to_json`` writes (a test holds the two lists equal).
PAIRED_WITNESS_KEYS = frozenset(("kind", "mode", "input", "beta", "gamma", "product", "ok"))


@dataclass
class PairedWitness:
    beta: UElem
    gamma: UElem
    ok: bool
    input: UElem  # the element witnessed
    mode: str  # "v": product compared modulo the unit-sum relation; "uinf": literal
    product: UElem  # beta*input*gamma, reduced when mode is "v"

    def to_json(self):
        return {
            "kind": "paired_witness",
            "mode": self.mode,
            "input": self.input.to_json(),
            "beta": self.beta.to_json(),
            "gamma": self.gamma.to_json(),
            "product": self.product.to_json(),
            "ok": self.ok,
        }


def v_witness(a: UElem) -> PairedWitness:
    """beta, gamma with beta*a*gamma = 1 modulo the unit-sum relation.

    Needs n >= 2 (for n = 1 the quotient collapses differently and nothing
    here applies).  Deterministic search:

      A. append y letters until no x letter remains (each step must keep the
         normal form nonzero; some letter always works since the y_i x_i sum
         to 1);
      B. hit from the left with x_{M*} for a maximal-length y-word M of the
         support, landing on pure x-monomials with a nonzero constant term;
      C. if more than one monomial remains, append some y_j that strictly
         shrinks the support (the constant term survives, and any x-monomial
         not ending in j dies), and recurse.
    """
    field, n = a.field, a.n
    if n is None or n < 2:
        raise ValueError("witness search needs a letter bound n >= 2")
    alpha = v_normal_form(a)
    if not alpha:
        raise ValueError("element is zero in the quotient; no witness exists")

    one = UElem.one(field, n)

    def rec(al: UElem) -> tuple:
        if len(al.coeffs) == 1:
            ((I, J), c) = next(iter(al.coeffs.items()))
            beta = UElem.mono(field, (), I[::-1], field.one() / c, n)
            gamma = UElem.mono(field, J[::-1], (), None, n)
            return beta, gamma
        # phase A: clear x letters
        suffix: list = []
        while al.x_degree() > 0:
            if len(suffix) > DEGREE_CAP:
                raise RuntimeError("witness search exceeded the degree cap")
            for i in range(1, n + 1):
                cand = v_normal_form(al * UElem.gen_y(field, i, n))
                if cand:
                    al = cand
                    suffix.append(i)
                    break
            else:
                raise AssertionError("every y letter killed a nonzero element")
        # phase B: collapse the y side through a maximal word
        M = max((I for (I, _) in al.coeffs), key=word_key)
        al = v_normal_form(UElem.mono(field, (), M[::-1], None, n) * al)
        if not al or ((), ()) not in al.coeffs:
            raise AssertionError("maximal-word section lost the constant term")
        # phase C: shrink the support with one more y letter
        extra: list = []
        if len(al.coeffs) > 1:
            sz = len(al.coeffs)
            for j in range(1, n + 1):
                cand = v_normal_form(al * UElem.gen_y(field, j, n))
                if cand and len(cand.coeffs) < sz:
                    al = cand
                    extra.append(j)
                    break
            else:
                raise AssertionError("no y letter shrank the support")
        b2, g2 = rec(al)
        beta = b2 * UElem.mono(field, (), M[::-1], None, n)
        gamma = UElem.mono(field, tuple(suffix + extra), (), None, n) * g2
        return beta, gamma

    beta, gamma = rec(alpha)
    product = v_normal_form(beta * a * gamma)
    ok = product == one
    return PairedWitness(beta, gamma, ok, a, "v", product)


def uinf_witness(a: UElem, beyond: int = 0) -> PairedWitness:
    """beta, gamma with beta*a*gamma = 1 exactly, no quotient involved.

    Works over the unbounded alphabet: pick a shortest y-word I' of the
    support (ties length-lex), the longest x-word J' paired with it (ties
    length-lex), and a letter m+1 beyond every letter of a.  Then

        beta = x_{m+1} x_{I'*} / coeff,   gamma = y_{J'*} y_{m+1}

    kill every other monoword: surviving terms need I' to be a prefix of I
    and J a suffix of J', and the fresh letter erases all proper leftovers.

    ``beyond`` raises the fresh letter past an ambient alphabet larger than
    the letters actually appearing in a.
    """
    field = a.field
    if a.n is not None:
        raise ValueError("exact witness lives over the unbounded alphabet")
    if not a:
        raise ValueError("zero has no witness")
    ys = [m[0] for m in a.coeffs]
    Iprime = min(ys, key=word_key)
    Js = [m[1] for m in a.coeffs if m[0] == Iprime]
    Jprime = max(Js, key=word_key)
    lam = a.coeffs[(Iprime, Jprime)]
    m = beyond
    for (I, J) in a.coeffs:
        for i in I + J:
            m = max(m, i)
    fresh = m + 1
    beta = UElem.mono(field, (), (fresh,) + Iprime[::-1], field.one() / lam, None)
    gamma = UElem.mono(field, Jprime[::-1] + (fresh,), (), None, None)
    product = beta * a * gamma
    ok = product == UElem.one(field, None)
    return PairedWitness(beta, gamma, ok, a, "uinf", product)
