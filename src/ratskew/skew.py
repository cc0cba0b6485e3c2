"""The skew extension S = R<Y> of a series ring R by a family of y letters.

Elements are finite sums  sum_I y_I r_I  with y-words I and coefficients r_I
drawn from a backend ring over the x letters.  Moving a coefficient across a
y letter follows

    r * y_i  =  y_i * tau(r) + delta_i(r)

with tau the augmentation (constant term) and delta_i the right transduction
by x_i.  Concretely x_i * y_j = delta_ij, so the x letters act as left
inverses of the y letters.

Three coefficient backends, one class each, share one protocol:
polynomials (:class:`FreeElem`, kind ``free``), rational series
(:class:`LinRep`, ``rat``) and truncated series (:class:`TruncSeries`,
``trunc``).  Each class has the constructors zero/one(field), scalar(field,
c), letter(field, i) and word(field, w, c=None), which take a ``precision=``
window for ``trunc`` only; arithmetic (+, -, *, scale, inv, ==, bool); tau,
delta(i) and min_word; render; and to_json with its inverse
from_json(field, obj), which raises ValueError on a mismatched field.  The
first two are exact; the truncated backend tags every verdict with the
precision that supported it.

With a fixed alphabet x_0..x_n, the two-sided ideal generated by
e = 1 - sum y_i x_i supports a terminating membership test: an element of
positive y-degree lies in the ideal iff all its left letter sections
x_i * a do, and a coefficient lies in it iff it is zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .fields import Field
from .freealg import FreeElem
from .linrep import LinRep
from .truncated import DEFAULT_PRECISION, TruncSeries
from .words import load_terms, word_key


class CoeffDomain:
    """One coefficient backend over a field, chosen by its kind."""

    BACKENDS = {"free": FreeElem, "rat": LinRep, "trunc": TruncSeries}
    KINDS = tuple(BACKENDS)

    def __init__(self, kind: str, field: Field, precision: int = DEFAULT_PRECISION) -> None:
        if type(kind) is not str or kind not in self.BACKENDS:
            raise ValueError("unknown backend %r" % (kind,))
        self.kind = kind
        self.cls = self.BACKENDS[kind]
        self.field = field
        # only the truncated backend has a window; its constructors take it
        self.precision = precision if self.cls is TruncSeries else None
        self._window = {} if self.precision is None else {"precision": precision}

    @property
    def exact(self) -> bool:
        return self.precision is None

    def zero(self):
        return self.cls.zero(self.field, **self._window)

    def one(self):
        return self.cls.one(self.field, **self._window)

    def scalar(self, c):
        return self.cls.scalar(self.field, c, **self._window)

    def letter(self, i: int):
        return self.cls.letter(self.field, i, **self._window)

    def word(self, w, c=None):
        return self.cls.word(self.field, w, c, **self._window)

    def from_free(self, p: FreeElem):
        """The polynomial p as a coefficient of this backend."""
        return p if self.cls is FreeElem else self.cls.from_free(p, **self._window)

    def __eq__(self, other):
        return (
            isinstance(other, CoeffDomain)
            and (self.kind, self.field, self.precision) == (other.kind, other.field, other.precision)
        )

    def __hash__(self):
        return hash((self.kind, self.field, self.precision))

    def __repr__(self):
        return "CoeffDomain(%s, %s)" % (self.kind, self.field.name)


@dataclass(frozen=True)
class Verdict:
    """A boolean whose justification may be only finite-precision."""

    value: bool
    precision: int | None = None  # None = exact

    def __bool__(self) -> bool:
        return self.value

    def __and__(self, other: "Verdict") -> "Verdict":
        return Verdict(self.value and other.value, _min_prec(self.precision, other.precision))


def _min_prec(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class SkewRing:
    """Context object: a coefficient backend plus the y alphabet bound.

    ``n`` is the top letter index (letters 0..n on both sides); ``None``
    means the alphabet grows on demand, in which case there is no ideal and
    equality is plain coefficientwise equality.
    """

    def __init__(self, domain: CoeffDomain, n: int | None = None) -> None:
        if n is not None and (type(n) is not int or n < 0):
            raise ValueError("top letter index must be an integer >= 0 or None, got %r" % (n,))
        self.domain = domain
        self.n = n
        self._letters: dict = {}  # i -> the element x_i, built once
        self._es: dict = {}  # top -> the element e(top), built once
        self._alphabet = None  # (x_0, ..., x_n), built once

    def _check_letter(self, i: int) -> None:
        if type(i) is not int or i < 0 or (self.n is not None and i > self.n):
            raise ValueError("letter index %r is not an integer in 0..%s" % (i, self.n))

    def zero(self) -> "SkewElem":
        return SkewElem(self, {})

    def one(self) -> "SkewElem":
        return SkewElem(self, {(): self.domain.one()})

    def scalar(self, c) -> "SkewElem":
        return SkewElem(self, {(): self.domain.scalar(c)})

    def embed(self, r) -> "SkewElem":
        """A backend coefficient as a y-degree-0 element."""
        return SkewElem(self, {(): r})

    def x(self, i: int) -> "SkewElem":
        self._check_letter(i)
        xi = self._letters.get(i)
        if xi is None:
            xi = self._letters[i] = SkewElem(self, {(): self.domain.letter(i)})
        return xi

    def alphabet(self) -> tuple:
        """The letters (x_0, ..., x_n) of a fixed alphabet, built once."""
        if self._alphabet is None:
            if self.n is None:
                raise ValueError("ideal membership needs a fixed alphabet bound")
            self._alphabet = tuple(self.x(i) for i in range(self.n + 1))
        return self._alphabet

    def x_word(self, w) -> "SkewElem":
        for i in w:
            self._check_letter(i)
        return SkewElem(self, {(): self.domain.word(w)})

    def y(self, i: int) -> "SkewElem":
        self._check_letter(i)
        return SkewElem(self, {(i,): self.domain.one()})

    def yword(self, w) -> "SkewElem":
        w = tuple(w)
        for i in w:
            self._check_letter(i)
        return SkewElem(self, {w: self.domain.one()})

    def e(self, top: int | None = None) -> "SkewElem":
        """The idempotent 1 - sum_{i=0}^{top} y_i x_i (top defaults to n)."""
        if top is None:
            top = self.n
        if top is None:
            raise ValueError("dynamic alphabet needs an explicit top index for e")
        e = self._es.get(top)
        if e is None:
            data = {(): self.domain.one()}
            for i in range(top + 1):
                self._check_letter(i)
                data[(i,)] = self.domain.letter(i).scale(-self.domain.field.one())
            e = self._es[top] = SkewElem(self, data)
        return e

    def __eq__(self, other):
        return isinstance(other, SkewRing) and (self.domain, self.n) == (other.domain, other.n)

    def __hash__(self):
        return hash((self.domain, self.n))

    def __repr__(self):
        return "SkewRing(%r, n=%s)" % (self.domain, self.n)


class SkewElem:
    """A finite sum of y-words times coefficients, never mutated."""

    __slots__ = ("ring", "data", "_descent")

    def __init__(self, ring: SkewRing, data: dict) -> None:
        self.ring = ring
        self.data = {w: r for w, r in data.items() if r}
        self._descent = None  # what _descend returns for this element, filled on first use

    @staticmethod
    def _of(ring: SkewRing, data: dict) -> "SkewElem":
        """Trusted constructor: wrap ``data``, a dict of nonzero coefficients
        that no one else holds.  The operations whose results are free of
        zeros by construction build them here, with no second filter."""
        e = object.__new__(SkewElem)
        e.ring = ring
        e.data = data
        e._descent = None
        return e

    def _check(self, other: "SkewElem") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("elements of different skew rings")

    def __add__(self, other: "SkewElem") -> "SkewElem":
        self._check(other)
        # elements are never mutated, so a zero operand gives the other one
        if not other.data:
            return self
        if not self.data:
            return other
        t = dict(self.data)
        for w, r in other.data.items():
            s = t.get(w)
            s = r if s is None else s + r
            if s:
                t[w] = s
            else:
                del t[w]
        return SkewElem._of(self.ring, t)

    def __neg__(self) -> "SkewElem":
        return self.scale(-self.ring.domain.field.one())

    def __sub__(self, other: "SkewElem") -> "SkewElem":
        """self + (-other) in one pass.  A word whose two coefficients are
        the same object cancels with no backend arithmetic: r - r = 0
        exactly.  Every other word takes the backend's own difference, so
        a rational coefficient pair whose kernel forms are equal cancels
        with no reduction, by the shortcut of ``LinRep.__add__``."""
        self._check(other)
        t = dict(self.data)
        for w, r in other.data.items():
            s = t.get(w)
            t[w] = -r if s is None else None if s is r else s - r
        return SkewElem(self.ring, t)  # drops the words that cancelled

    def scale(self, c) -> "SkewElem":
        if not c:
            return SkewElem(self.ring, {})
        return SkewElem(self.ring, {w: r.scale(c) for w, r in self.data.items()})

    def __mul__(self, other: "SkewElem") -> "SkewElem":
        """Push every left coefficient across the right factor's y-words.

        Each term is accumulated as it is made, and a word whose sum
        cancels is dropped at once, so the result holds no zero and is
        built with no second filter.  A term s*tau(cur) is never zero, as
        a field has no zero divisors; a product cur*s of two nonzero
        coefficients is zero only past a truncation window."""
        self._check(other)
        out: dict = {}
        get = out.get

        def acc(w, term):
            # term is nonzero, so only a sum can cancel
            old = get(w)
            if old is not None:
                term = old + term
                if not term:
                    del out[w]
                    return
            out[w] = term

        for I, r in self.data.items():
            for J, s in other.data.items():
                cur = r
                for k in range(len(J)):
                    t = cur.tau()
                    if t:
                        acc(I + J[k:], s.scale(t))
                    cur = cur.delta(J[k])
                    if not cur:
                        break
                else:
                    term = cur * s
                    if term:
                        acc(I, term)
        return SkewElem._of(self.ring, out)

    def __eq__(self, other):
        if not isinstance(other, SkewElem):
            return NotImplemented
        self._check(other)
        return self.data == other.data

    def __bool__(self) -> bool:
        return bool(self.data)

    def y_degree(self) -> int:
        return max((len(w) for w in self.data), default=0)

    def coeff(self, w):
        return self.data.get(tuple(w), self.ring.domain.zero())

    def support(self):
        return sorted(self.data, key=word_key)

    def __repr__(self):
        return "SkewElem(%d terms, y-degree %d)" % (len(self.data), self.y_degree())

    def render(self) -> str:
        """Readable form; faithful for polynomial and truncated coefficients."""
        if not self.data:
            return "0"
        parts = []
        for w in self.support():
            cs = self.data[w].render()
            if len(cs.split()) > 1 or "+" in cs or "-" in cs[1:]:
                cs = "(%s)" % cs
            ws = "*".join("y%d" % i for i in w)
            if not w:
                parts.append(cs)
            elif cs == "1":
                parts.append(ws)
            else:
                parts.append("%s*%s" % (ws, cs))
        return " + ".join(parts)

    def to_json(self):
        dom = self.ring.domain
        return {
            "backend": dom.kind,
            "field": dom.field.name,
            "n": self.ring.n,
            "terms": [[list(w), self.data[w].to_json()] for w in self.support()],
        }

    @staticmethod
    def from_json(ring: SkewRing, obj) -> "SkewElem":
        dom = ring.domain
        if not isinstance(obj, dict):
            raise ValueError("a serialized skew element must be an object, got %r" % (obj,))
        if obj["backend"] != dom.kind or obj["field"] != dom.field.name:
            raise ValueError("backend mismatch in serialized element")
        if obj["n"] != ring.n:
            raise ValueError("serialized element has top letter index %r, the ring %r" % (obj["n"], ring.n))
        return SkewElem(ring, load_terms(obj["terms"], 1, lambda c: dom.cls.from_json(dom.field, c)))


# ---------------------------------------------------------------------------
# the ideal generated by e and the quotient's equality
# ---------------------------------------------------------------------------

def _descend(a: SkewElem):
    """The section test behind :func:`ideal_member`, keeping its path.

    Returns ``(verdict, m, leaf)``.  For a outside the ideal, the x-word
    ``m``, read from the right, picks at each level the first i with
    x_i * b outside the ideal, b the section so far, and ``leaf`` is the
    nonzero coefficient m * a; for a member they are ``()`` and ``None``.

    The result is memoised on ``a``, so deciding a and then witnessing it
    descends once.  That is exact: no element, coefficient or verdict is
    ever mutated, so the result depends on ``a`` alone.
    """
    if a._descent is None:
        a._descent = _descent(a)
    return a._descent


def _descent(a: SkewElem):
    """The descent of :func:`_descend`, run afresh."""
    ring = a.ring
    letters = ring.alphabet()
    # Truncated inputs can cancel structurally, which still only certifies
    # the window they were computed in.
    base_prec = None
    if not ring.domain.exact:
        base_prec = min(
            (r.precision for r in a.data.values()), default=ring.domain.precision
        )

    def rec(b: SkewElem):
        if b.y_degree() == 0:
            r = b.data.get(())
            if r is None:
                return Verdict(True, base_prec), (), None
            prec = _min_prec(getattr(r, "precision", None), base_prec)
            return Verdict(not r, prec), (), r
        out = Verdict(True)
        for i, xi in enumerate(letters):
            v, m, leaf = rec(xi * b)
            out = out & v
            if not v:
                return out, m + (i,), leaf
        return out, (), None

    return rec(a)


def ideal_member(a: SkewElem) -> Verdict:
    """Does a lie in the two-sided ideal generated by e = 1 - sum y_i x_i?

    Recursive section test: a coefficient is in the ideal iff it is zero,
    and an element of positive y-degree is in iff every x_i * a is.  Each
    section strictly drops the y-degree, so the recursion terminates.  The
    descent is memoised on a (:func:`_descend`), so a later
    :func:`t_witness` of the same element does not repeat it.
    """
    return _descend(a)[0]


def t_equal(a: SkewElem, b: SkewElem) -> Verdict:
    """Equality in the quotient by the ideal of e.  A truncated verdict holds
    only in the narrowest window of a and b, also where a - b cancels.

    The difference skips arithmetic only where it is provably zero: a word
    whose coefficients in a and b are one object, and a rational pair whose
    kernel forms, built if they are not yet, are equal forms of one kernel
    (a kernel form stands for one triple, so equal forms are equal series,
    and ``LinRep.__add__`` finds the forms of r and -r negated in lam).
    Any other pair is reduced as before, since minimal forms are not
    canonical and unequal forms may still be one series; the verdict is the
    one ``ideal_member(a + (-b))`` gives."""
    v = ideal_member(a - b)
    if a.ring.domain.exact:
        return v
    return v & Verdict(True, min((r.precision for e in (a, b) for r in e.data.values()), default=None))


# ---------------------------------------------------------------------------
# finding units: the minimal-monomial trick and the two-sided witness
# ---------------------------------------------------------------------------

def lemma51_word(rs) -> tuple:
    """A y-word w such that r_j * w lands in the coefficient ring for all j,
    with the product of minimal order acquiring a nonzero constant term.

    Input: nonzero backend coefficients.  Take an element of minimal order,
    its length-lex least support word x_I, and return the reversed word on
    the y side.  Every r_j * w then collapses into the coefficient ring
    because all lower transduction layers of every r_j vanish.
    """
    if not rs:
        raise ValueError("need at least one coefficient")
    words = [r.min_word() for r in rs]
    if None in words:
        raise ValueError("coefficients must be nonzero")
    return min(words, key=len)[::-1]


@dataclass
class TWitness:
    m_word: tuple  # x-monomial applied on the left
    g: SkewElem  # right factor
    unit: object  # the coefficient-ring unit m*a*w before inversion
    check: Verdict  # m*a*g = 1 in the quotient
    input: SkewElem  # the element witnessed, kept so the certificate re-checks

    def to_json(self):
        return {
            "kind": "skew_witness",
            "input": self.input.to_json(),
            "m": list(self.m_word),
            "g": self.g.to_json(),
            "unit": self.unit.to_json(),
            "check": self.check.value,
            "precision": self.check.precision,
        }


def t_witness(a: SkewElem) -> TWitness:
    """For a outside the ideal, produce m (x-word) and g with m*a*g = 1.

    Left letter sections shrink the y-degree while staying outside the
    ideal; once in the coefficient ring, the minimal-monomial word makes the
    product a unit there, and g divides it back out.  One descent
    (:func:`_descend`) gives both the membership verdict and the path; it is
    memoised on a, so after :func:`ideal_member` of the same element the
    witness reuses it.
    """
    ring = a.ring
    member, m_word, r = _descend(a)
    if member:
        raise ValueError("element lies in the ideal; no witness exists")
    w = lemma51_word([r])
    p_elem = ring.embed(r) * ring.yword(w)
    if set(p_elem.data) - {()}:
        raise AssertionError("minimal-monomial product left the coefficient ring")
    p = p_elem.data[()]
    g = SkewElem(ring, {w: p.inv()})
    # (m*a)*g, not m*(a*g): the word m cuts a down by left sections before
    # it meets g, while a*g multiplies every term of a by g's coefficient
    # first, which is about 3x slower on the skew-q inputs
    check = t_equal((ring.x_word(m_word) * a) * g, ring.one())
    return TWitness(m_word, g, p, check, a)


# ---------------------------------------------------------------------------
# word systems: verified recursion behind the index congruence
# ---------------------------------------------------------------------------

# The top-level keys ``to_json`` writes (a test holds the two lists equal).
WORD_SYSTEM_KEYS = frozenset(("kind", "ok", "s", "n", "s_mod", "violations", "trace", "precision", "words", "qs"))


@dataclass
class WordSystemReport:
    ok: bool
    s: int
    n: int
    s_mod: int | None
    violations: list = dc_field(default_factory=list)
    trace: list = dc_field(default_factory=list)
    precision: int | None = None
    words: list = dc_field(default_factory=list)
    qs: list = dc_field(default_factory=list)  # SkewElems, kept for re-checking

    def to_json(self):
        return {
            "kind": "word_system",
            "ok": self.ok,
            "s": self.s,
            "n": self.n,
            "s_mod": self.s_mod,
            "violations": list(self.violations),
            "trace": list(self.trace),
            "precision": self.precision,
            "words": [list(w) for w in self.words],
            "qs": [q.to_json() for q in self.qs],
        }


def verify_word_system(ring: SkewRing, words, qs) -> WordSystemReport:
    """Check the hypotheses  sum w_i q_i = 1,  q_i w_j = 0 (i != j),
    q_i w_i != 0  in the quotient, then recurse into the first-letter
    partition, re-checking the same hypotheses for every derived system.

    A passing run certifies s = 1 (mod n): each sub-system count is 1 mod n
    by induction and the counts add up over the n+1 branches.
    """
    if ring.n is None or ring.n < 1:
        raise ValueError("word systems need a fixed alphabet with n >= 1")
    n = ring.n
    words = [tuple(w) for w in words]
    if len(words) != len(qs) or not words:
        raise ValueError("need matching nonempty word and coefficient lists")
    violations: list = []
    trace: list = []
    precs: list = []

    def note(v: Verdict):
        if v.precision is not None:
            precs.append(v.precision)

    def level(ws, qlist, depth, label) -> bool:
        s = len(ws)
        if s == 0:
            violations.append("%s: empty branch (sum is 0, not 1)" % label)
            return False
        tot = ring.zero()
        for w, q in zip(ws, qlist):
            tot = tot + ring.yword(w) * q
        v = t_equal(tot, ring.one())
        note(v)
        bad = False
        if not v:
            violations.append("%s: sum w_i*q_i != 1" % label)
            bad = True
        for i in range(s):
            for j in range(s):
                v = ideal_member(qlist[i] * ring.yword(ws[j]))
                note(v)
                if i == j and v:
                    violations.append("%s: q_%d*w_%d = 0" % (label, i + 1, i + 1))
                    bad = True
                elif i != j and not v:
                    violations.append("%s: q_%d*w_%d != 0" % (label, i + 1, j + 1))
                    bad = True
        if bad:
            return False
        if max(len(w) for w in ws) == 0:
            trace.append({"label": label, "depth": depth, "s": s, "leaf": True})
            return True  # passing checks with all words empty forces s = 1
        if any(len(w) == 0 for w in ws):
            violations.append("%s: empty word in a system of size %d" % (label, s))
            return False
        part: dict = {}
        for idx, w in enumerate(ws):
            part.setdefault(w[0], []).append(idx)
        trace.append({
            "label": label,
            "depth": depth,
            "s": s,
            "partition": {l: [i + 1 for i in part[l]] for l in sorted(part)},
        })
        for l in range(n + 1):
            sub = part.get(l, [])
            sub_ws = [ws[i][1:] for i in sub]
            sub_qs = [qlist[i] * ring.y(l) for i in sub]
            if not level(sub_ws, sub_qs, depth + 1, "%s.%d" % (label, l)):
                return False
        return True

    ok = level(words, list(qs), 0, "top")
    s = len(words)
    if ok and (s - 1) % n != 0:
        raise AssertionError("verified system with s != 1 mod n")
    return WordSystemReport(
        ok=ok,
        s=s,
        n=n,
        s_mod=(s % n) if ok else None,
        violations=violations,
        trace=trace,
        precision=min(precs) if precs else None,
        words=words,
        qs=list(qs),
    )
