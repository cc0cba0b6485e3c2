"""Small expression language shared by the CLI front ends.

Grammar: scalars (integers, fractions like ``3/4``, the indeterminates
``t``/``t2``/... over a function field), letters ``x<i>``/``y<i>``, the
idempotent symbol ``e``, the operators ``+ - * ^k ^-1`` and parentheses.
Errors carry the 1-based column where parsing stopped.

The same AST evaluates in three contexts: power-series coefficients,
skew-extension elements, and monoword-basis elements (letter origin 1).
Evaluation is polynomial-first: a subterm made of scalars, indeterminates
and x letters with ``+``, ``-`` and products where one factor has at most
one term is computed as one noncommutative polynomial (:class:`FreeElem`)
and promoted once, where it meets another operand or at the root.  Over
series that promotion is :meth:`LinRep.from_free`, a single observability
pass on the prefix tree; in the skew ring it is the backend's own
``from_free``; monoword elements fold only their scalars.  Powers and
inverses of constants are field arithmetic, and a polynomial p with
p(0) = c != 0 is inverted as (1 - p/c)^* / c, with one reduction.  The
value is the one per-node evaluation gives; only the basis of a series
representation may differ.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .fields import Field, FunctionField
from .freealg import FreeElem
from .linrep import LinRep


class ExprSyntaxError(ValueError):
    def __init__(self, column: int, message: str) -> None:
        super().__init__("syntax error at column %d: %s" % (column, message))
        self.column = column


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------

_OPS = "+-*^()/"


def tokenize(text: str):
    """(kind, value, column) triples; kinds: num, letter, tvar, e, op, end."""
    toks = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        col = i + 1
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("num", int(text[i:j]), col))
            i = j
            continue
        if c in "xy":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ExprSyntaxError(col, "letter %r needs an index" % c)
            if j < n and (text[j].isalpha() or text[j] == "_"):
                raise ExprSyntaxError(col, "unknown symbol %r" % text[i:j + 1])
            toks.append(("letter", (c, int(text[i + 1:j])), col))
            i = j
            continue
        if c == "t":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j < n and (text[j].isalpha() or text[j] == "_"):
                raise ExprSyntaxError(col, "unknown symbol %r" % text[i:j + 1])
            k = int(text[i + 1:j]) - 1 if j > i + 1 else 0
            if k < 0:
                raise ExprSyntaxError(col, "indeterminates are numbered from 1")
            toks.append(("tvar", k, col))
            i = j
            continue
        if c == "e":
            if i + 1 < n and (text[i + 1].isalnum() or text[i + 1] == "_"):
                j = i + 1
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                raise ExprSyntaxError(col, "unknown symbol %r" % text[i:j])
            toks.append(("e", None, col))
            i += 1
            continue
        if c in _OPS:
            toks.append(("op", c, col))
            i += 1
            continue
        raise ExprSyntaxError(col, "unexpected character %r" % c)
    toks.append(("end", None, n + 1))
    return toks


# ---------------------------------------------------------------------------
# parsing: standard precedence, ^ binds tightest, then *, then + and -
# ---------------------------------------------------------------------------

_BP = {"+": 10, "-": 10, "*": 20, "^": 30}
_PREFIX_BP = 15  # unary sign: below *, above + and -


class _Parser:
    def __init__(self, text: str) -> None:
        self.toks = tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def advance(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def parse(self, bp: int = 0):
        left = self.nud(self.advance())
        while True:
            kind, val, _col = self.peek()
            if kind != "op" or val not in _BP or _BP[val] <= bp:
                break
            left = self.led(self.advance(), left)
        return left

    def nud(self, tok):
        kind, val, col = tok
        if kind == "num":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "/":
                self.advance()
                dk, dv, dcol = self.advance()
                if dk != "num":
                    raise ExprSyntaxError(dcol, "fraction needs an integer denominator")
                if dv == 0:
                    raise ExprSyntaxError(dcol, "zero denominator")
                return ("num", Fraction(val, dv))
            return ("num", Fraction(val))
        if kind == "tvar":
            return ("t", val)
        if kind == "letter":
            return (val[0], val[1])
        if kind == "e":
            return ("e",)
        if kind == "op" and val == "(":
            inner = self.parse(0)
            ck, cv, ccol = self.advance()
            if not (ck == "op" and cv == ")"):
                raise ExprSyntaxError(ccol, "expected ')'")
            return inner
        if kind == "op" and val == "-":
            return ("neg", self.parse(_PREFIX_BP))
        if kind == "op" and val == "+":
            return self.parse(_PREFIX_BP)
        if kind == "end":
            raise ExprSyntaxError(col, "unexpected end of input")
        raise ExprSyntaxError(col, "unexpected %r" % ((val if val is not None else kind),))

    def led(self, tok, left):
        _kind, val, _col = tok
        if val == "+":
            return ("add", left, self.parse(_BP["+"]))
        if val == "-":
            return ("sub", left, self.parse(_BP["-"]))
        if val == "*":
            return ("mul", left, self.parse(_BP["*"]))
        # exponent: a literal (possibly negative) integer, not an expression
        sign = 1
        k, v, col = self.advance()
        if k == "op" and v == "-":
            sign = -1
            k, v, col = self.advance()
        if k != "num":
            raise ExprSyntaxError(col, "exponent must be an integer")
        return ("pow", left, sign * v)


def _tok_text(kind, val) -> str:
    if kind == "letter":
        return "%s%d" % val
    if kind == "tvar":
        return "t%d" % (val + 1)
    if kind == "num":
        return str(val)
    if kind == "e":
        return "e"
    return str(val)


def parse_expr(text: str):
    p = _Parser(text)
    node = p.parse(0)
    kind, val, col = p.peek()
    if kind != "end":
        raise ExprSyntaxError(col, "unexpected %r" % _tok_text(kind, val))
    return node


# ---------------------------------------------------------------------------
# canonical rendering (render -> parse is the identity)
# ---------------------------------------------------------------------------

_PREC = {"add": 10, "sub": 10, "neg": 15, "mul": 20, "pow": 30}


def _prec(node) -> int:
    return _PREC.get(node[0], 100)


def _wrap(node, floor: int) -> str:
    s = render_expr(node)
    return "(%s)" % s if _prec(node) < floor else s


def render_expr(node) -> str:
    op = node[0]
    if op == "num":
        q = node[1]
        return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)
    if op == "t":
        return "t%d" % (node[1] + 1)
    if op in ("x", "y"):
        return "%s%d" % (op, node[1])
    if op == "e":
        return "e"
    if op == "neg":
        return "-%s" % _wrap(node[1], _PREC["neg"] + 1)
    if op == "add":
        return "%s + %s" % (_wrap(node[1], 10), _wrap(node[2], 11))
    if op == "sub":
        return "%s - %s" % (_wrap(node[1], 10), _wrap(node[2], 11))
    if op == "mul":
        return "%s*%s" % (_wrap(node[1], 20), _wrap(node[2], 21))
    if op == "pow":
        return "%s^%d" % (_wrap(node[1], 31), node[2])
    raise ValueError("unknown node %r" % (op,))


# ---------------------------------------------------------------------------
# evaluation contexts
# ---------------------------------------------------------------------------

_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def _series_inverse(p: FreeElem) -> LinRep:
    """p^-1 for a polynomial p, as (1 - p/c)^* / c with c = p(0): the
    proper part 1 - p/c is promoted directly, so the star is the one
    reduction."""
    c = p.tau()
    if not c:
        raise ValueError("series with zero constant term has no inverse")
    field = p.field
    cinv = field.one() / c
    return LinRep.from_free(FreeElem.one(field) - p.scale(cinv)).star().scale(cinv)


class _Context:
    """Polynomial-first evaluation.  A subterm built from scalars, ``t``
    indeterminates and the letters a context folds (``letter`` returns a
    :class:`FreeElem` for those), with ``+``, ``-``, negation, and ``*``
    where one factor has at most one term, evaluates to one FreeElem, so no
    product expands beyond the size of the text.  It is promoted once, by
    ``lift``, where it meets an operand of the context's own type or
    reaches the root.  Powers and inverses of constants are field
    arithmetic; the inverse of any other polynomial is ``invert_poly``,
    which only the contexts that fold letters need."""

    not_invertible = "zero is not invertible"

    def eval(self, node):
        return self._lifted(self._eval(node))

    def _lifted(self, v):
        return self.lift(v) if type(v) is FreeElem else v

    def _eval(self, node):
        op = node[0]
        if op == "num":
            return FreeElem.scalar(self.field, self.field.from_fraction(node[1]))
        if op == "t":
            return FreeElem.scalar(self.field, self.tvar(node[1]))
        if op in ("x", "y"):
            return self.letter(op, node[1])
        if op == "e":
            return self.idempotent()
        if op == "neg":
            return -self._eval(node[1])
        if op in _BINARY:
            a, b = self._eval(node[1]), self._eval(node[2])
            if not (type(a) is FreeElem and type(b) is FreeElem
                    and (op != "mul" or len(a.coeffs) <= 1 or len(b.coeffs) <= 1)):
                a, b = self._lifted(a), self._lifted(b)
            return _BINARY[op](a, b)
        if op == "pow":
            return self._pow(self._eval(node[1]), node[2])
        raise ValueError("unknown node %r" % (op,))

    def _pow(self, base, k: int):
        if k < 0:
            base, k = self._invert(base), -k
        if type(base) is FreeElem:
            if len(base.coeffs) <= 1:
                return base ** k
            base = self.lift(base)
        out = self.one()
        for _ in range(k):
            out = out * base
        return out

    def _invert(self, a):
        if type(a) is not FreeElem:
            return self.invert(a)
        if a.coeffs.keys() - {()}:
            return self.invert_poly(a)
        c = a.tau()
        if not c:
            raise ValueError(self.not_invertible)
        return FreeElem.scalar(self.field, self.field.one() / c)

    def tvar(self, k: int):
        field = self.field
        if not isinstance(field, FunctionField):
            raise ValueError("t is only available over a function field (--field qt:<r>)")
        return field.var(k)


class SeriesContext(_Context):
    """Evaluate to rational-series representations over letters x0..xn."""

    not_invertible = "series with zero constant term has no inverse"

    def __init__(self, field: Field, n: int = 2) -> None:
        self.field = field
        self.n = n

    def one(self):
        return LinRep.one(self.field)

    lift = staticmethod(LinRep.from_free)

    def letter(self, kind: str, i: int):
        if kind == "y":
            raise ValueError("series are written in the x letters only")
        if not 0 <= i <= self.n:
            raise ValueError("letter x%d outside alphabet of size %d" % (i, self.n + 1))
        return FreeElem.letter(self.field, i)

    def idempotent(self):
        raise ValueError("e has no meaning inside a series")

    def invert(self, a):
        return a.inv()

    invert_poly = staticmethod(_series_inverse)


class SkewContext(_Context):
    """Evaluate to elements of the extension ring over its backend; the x
    letters fold into polynomial coefficients."""

    def __init__(self, ring) -> None:
        self.ring = ring
        self.field = ring.domain.field

    def one(self):
        return self.ring.one()

    def lift(self, p):
        return self.ring.embed(self.ring.domain.from_free(p))

    def letter(self, kind: str, i: int):
        if kind == "y":
            return self.ring.y(i)
        self.ring._check_letter(i)
        return FreeElem.letter(self.field, i)

    def idempotent(self):
        return self.ring.e()

    def invert(self, a):
        if a.y_degree() > 0:
            raise ValueError("only coefficient-ring elements can be inverted")
        r = a.data.get(())
        if r is None:
            raise ValueError(self.not_invertible)
        return self.ring.embed(r.inv())

    def invert_poly(self, p):
        dom = self.ring.domain
        return self.ring.embed(_series_inverse(p) if dom.cls is LinRep else dom.from_free(p).inv())


class LeavittContext(_Context):
    """Evaluate to monoword-basis elements; letters are numbered from 1.
    Only scalars fold: every letter is an element here."""

    def __init__(self, field: Field, n: int | None) -> None:
        from .leavitt import UElem

        self.field = field
        self.n = n
        self._U = UElem

    def one(self):
        return self._U.one(self.field, self.n)

    def lift(self, p):
        return self._U.scalar(self.field, p.coeff(()), self.n)

    def letter(self, kind: str, i: int):
        if i < 1:
            raise ValueError("letters are numbered from 1 here")
        if self.n is not None and i > self.n:
            raise ValueError("letter %s%d outside alphabet of size %d" % (kind, i, self.n))
        if kind == "x":
            return self._U.gen_x(self.field, i, self.n)
        return self._U.gen_y(self.field, i, self.n)

    def idempotent(self):
        if self.n is None:
            raise ValueError("e needs a fixed letter bound")
        out = self.one()
        for i in range(1, self.n + 1):
            out = out - self._U.gen_y(self.field, i, self.n) * self._U.gen_x(self.field, i, self.n)
        return out

    def invert(self, a):
        if set(a.coeffs) - {((), ())}:
            raise ValueError("only scalars are invertible here")
        c = a.coeffs.get(((), ()))
        if not c:
            raise ValueError(self.not_invertible)
        return self._U.scalar(self.field, self.field.one() / c, self.n)


def eval_series(text: str, field: Field, n: int = 2) -> LinRep:
    return SeriesContext(field, n).eval(parse_expr(text))


def eval_skew(text: str, ring):
    return SkewContext(ring).eval(parse_expr(text))


def eval_leavitt(text: str, field: Field, n: int | None):
    return LeavittContext(field, n).eval(parse_expr(text))
