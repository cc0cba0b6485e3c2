"""Expression surface: tokenizer, Pratt parser, canonical rendering, and the
three evaluation contexts."""

import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ratskew import linrep
from ratskew.cli import run_command
from ratskew.expr import (ExprSyntaxError, LeavittContext, SeriesContext,
                          SkewContext, eval_leavitt, eval_series, eval_skew,
                          parse_expr, render_expr)
from ratskew.fields import Field, FunctionField, field_from_name
from ratskew.freealg import FreeElem
from ratskew.leavitt import v_equal, v_normal_form
from ratskew.linrep import LinRep
from ratskew.skew import CoeffDomain, SkewRing, ideal_member

QQ = field_from_name("q")
F5 = field_from_name("fp:5")


# -- parsing and rendering -------------------------------------------------------

def test_precedence_and_shape():
    assert parse_expr("1 + x0*x1") == ("add", ("num", Fraction(1)),
                                       ("mul", ("x", 0), ("x", 1)))
    assert parse_expr("(1 + x0)*x1")[0] == "mul"
    assert parse_expr("-x0^2") == ("neg", ("pow", ("x", 0), 2))
    assert parse_expr("x0 - x1 - x2") == parse_expr("(x0 - x1) - x2")
    assert parse_expr("x0*x1^2") == ("mul", ("x", 0), ("pow", ("x", 1), 2))
    assert parse_expr("2/3 * e") == ("mul", ("num", Fraction(2, 3)), ("e",))


def test_render_round_trip_pinned():
    for text, canon in [
        ("1+x0 * x1", "1 + x0*x1"),
        ("(x0+x1)^2", "(x0 + x1)^2"),
        ("- (x0 - x1)", "-(x0 - x1)"),
        ("y2*e*y1", "y2*e*y1"),
        ("3/4", "3/4"),
        ("x0^-2", "x0^-2"),
        ("t1*x0 - 2", "t1*x0 - 2"),
    ]:
        node = parse_expr(text)
        assert render_expr(node) == canon
        assert parse_expr(render_expr(node)) == node


exprs = st.recursive(
    st.one_of(
        st.integers(0, 9).map(lambda k: ("num", Fraction(k))),
        st.integers(0, 2).map(lambda i: ("x", i)),
        st.integers(1, 2).map(lambda i: ("y", i)),
        st.just(("e",)),
        st.integers(0, 1).map(lambda k: ("t", k)),
    ),
    lambda kids: st.one_of(
        st.tuples(st.just("add"), kids, kids),
        st.tuples(st.just("sub"), kids, kids),
        st.tuples(st.just("mul"), kids, kids),
        kids.map(lambda n: ("neg", n)),
        st.tuples(kids, st.integers(2, 3)).map(lambda p: ("pow", p[0], p[1])),
    ),
    max_leaves=12,
)


@given(exprs)
@settings(max_examples=150)
def test_render_parse_identity(node):
    assert parse_expr(render_expr(node)) == node


def test_error_columns():
    cases = [
        ("x0 +", 5, "unexpected end of input"),
        ("(1 - x0", 8, "expected ')'"),
        ("3/0", 3, "zero denominator"),
        ("x0 ^ y1", 6, "exponent must be an integer"),
        ("x0 x1", 4, "unexpected 'x1'"),
        ("", 1, "unexpected end of input"),
        ("x0 + * x1", 6, "unexpected '*'"),
        ("t0", 1, "indeterminates are numbered from 1"),
        ("x", 1, "letter 'x' needs an index"),
        ("1/2/3", 4, "unexpected '/'"),
    ]
    for text, col, frag in cases:
        with pytest.raises(ExprSyntaxError) as ei:
            parse_expr(text)
        assert ei.value.column == col
        assert frag in str(ei.value)
        assert str(ei.value) == "syntax error at column %d: %s" % (col, frag) or frag in str(ei.value)


def test_fraction_literals():
    assert parse_expr("2/3") == ("num", Fraction(2, 3))
    a = eval_series("1/2 + 1/3", QQ)
    assert a == LinRep.scalar(QQ, Fraction(5, 6))


# -- series context ------------------------------------------------------------------

def test_eval_series_basics():
    geo = eval_series("(1 - x0)^-1", QQ)
    assert geo == eval_series("1 + x0*(1 - x0)^-1", QQ)
    assert eval_series("(x0 + x1)^2", QQ) == eval_series("x0*x0 + x0*x1 + x1*x0 + x1*x1", QQ)


def test_series_context_guards():
    with pytest.raises(ValueError):
        eval_series("y1", QQ)
    with pytest.raises(ValueError):
        eval_series("x3", QQ, n=2)
    eval_series("x3", QQ, n=3)
    with pytest.raises(ValueError):
        eval_series("e", QQ)


def test_series_t_variables():
    K = FunctionField(2)
    s = eval_series("t1*x0 + t2^2", K)
    two = eval_series("t1*x0 + t2*t2", K)
    assert s == two
    with pytest.raises(ValueError):
        eval_series("t1", QQ)  # rationals carry no indeterminates


# -- skew context ----------------------------------------------------------------------

def test_eval_skew_relations():
    ring = SkewRing(CoeffDomain("rat", QQ), 2)
    assert eval_skew("x1*y1", ring) == ring.one()
    assert eval_skew("x1*y2", ring) == ring.zero()
    assert eval_skew("e*e - e", ring) == ring.zero()
    assert eval_skew("e + y0*x0 + y1*x1 + y2*x2", ring) == ring.one()


def test_skew_inversion_of_coefficients():
    ring = SkewRing(CoeffDomain("rat", QQ), 1)
    u = eval_skew("(1 - x0)^-1 * (1 - x0)", ring)
    assert u == ring.one()
    with pytest.raises(ValueError):
        eval_skew("(1 + y1)^-1", ring)


# -- basis-element context ---------------------------------------------------------------

def test_eval_leavitt():
    a = eval_leavitt("x1*y1", QQ, 2)
    assert v_equal(a, eval_leavitt("1", QQ, 2))
    e = eval_leavitt("e", QQ, 2)
    assert v_equal(e * e, e)
    junction = eval_leavitt("y2*x2", QQ, 2)
    assert v_normal_form(junction) == v_normal_form(eval_leavitt("1 - y1*x1", QQ, 2))


def test_leavitt_context_guards():
    with pytest.raises(ValueError):
        eval_leavitt("x0", QQ, 2)  # numbered from 1
    with pytest.raises(ValueError):
        eval_leavitt("x3", QQ, 2)
    with pytest.raises(ValueError):
        eval_leavitt("e", QQ, None)  # needs a bound
    with pytest.raises(ValueError):
        eval_leavitt("x1^-1", QQ, 2)
    assert eval_leavitt("(1/2)^-1", F5, None).coeffs[((), ())] == F5.from_fraction(Fraction(2))


def test_skew_context_objects():
    ring = SkewRing(CoeffDomain("free", F5), 1)
    ctx = SkewContext(ring)
    assert ctx.eval(parse_expr("x0*y0")) == ring.one()
    sctx = SeriesContext(QQ, 1)
    assert sctx.eval(parse_expr("x1 + 0")) == LinRep.letter(QQ, 1)
    lctx = LeavittContext(QQ, None)
    assert lctx.eval(parse_expr("x1*y1")).coeffs  # unbounded: no contraction to 1


# -- the per-node evaluator --------------------------------------------------------
# The evaluator the contexts used before polynomial folding, kept verbatim
# as the reference: it builds a series or ring element for every scalar and
# letter and applies each operator to built elements.

def _reference_pow(ctx, base, k: int):
    if k < 0:
        base = ctx.invert(base)
        k = -k
    out = ctx.one()
    for _ in range(k):
        out = out * base
    return out


def _reference_eval(ctx, node):
    op = node[0]
    if op == "num":
        return ctx.scalar(node[1])
    if op == "t":
        return ctx.tvar(node[1])
    if op in ("x", "y"):
        return ctx.letter(op, node[1])
    if op == "e":
        return ctx.idempotent()
    if op == "neg":
        return -_reference_eval(ctx, node[1])
    if op == "add":
        return _reference_eval(ctx, node[1]) + _reference_eval(ctx, node[2])
    if op == "sub":
        return _reference_eval(ctx, node[1]) - _reference_eval(ctx, node[2])
    if op == "mul":
        return _reference_eval(ctx, node[1]) * _reference_eval(ctx, node[2])
    if op == "pow":
        return _reference_pow(ctx, _reference_eval(ctx, node[1]), node[2])
    raise ValueError("unknown node %r" % (op,))


class _ReferenceContext:
    def tvar(self, k: int):
        field = self.field
        if not isinstance(field, FunctionField):
            raise ValueError("t is only available over a function field (--field qt:<r>)")
        return self.scalar_raw(field.var(k))

    def scalar(self, q: Fraction):
        return self.scalar_raw(self.field.from_fraction(q))


class _ReferenceSeries(_ReferenceContext):
    def __init__(self, field: Field, n: int = 2) -> None:
        self.field = field
        self.n = n

    def one(self):
        return LinRep.one(self.field)

    def scalar_raw(self, c):
        return LinRep.scalar(self.field, c)

    def letter(self, kind: str, i: int):
        if kind == "y":
            raise ValueError("series are written in the x letters only")
        if not 0 <= i <= self.n:
            raise ValueError("letter x%d outside alphabet of size %d" % (i, self.n + 1))
        return LinRep.letter(self.field, i)

    def idempotent(self):
        raise ValueError("e has no meaning inside a series")

    def invert(self, a):
        return a.inv()


class _ReferenceSkew(_ReferenceContext):
    def __init__(self, ring) -> None:
        self.ring = ring
        self.field = ring.domain.field

    def one(self):
        return self.ring.one()

    def scalar_raw(self, c):
        return self.ring.scalar(c)

    def letter(self, kind: str, i: int):
        return self.ring.x(i) if kind == "x" else self.ring.y(i)

    def idempotent(self):
        return self.ring.e()

    def invert(self, a):
        if a.y_degree() > 0:
            raise ValueError("only coefficient-ring elements can be inverted")
        r = a.data.get(())
        if r is None:
            raise ValueError("zero is not invertible")
        return self.ring.embed(r.inv())


def _outcome(f):
    """("ok", value) or ("error", exception type, message)."""
    try:
        return "ok", f()
    except ValueError as exc:
        return "error", type(exc), str(exc)


def _trees(nvars: int = 0, skew: bool = False):
    """Expression trees of 4 to 20 nodes: scalars, the first nvars
    indeterminates and the letters x0..x2 (and, in the skew ring, y0..y2
    and e), with + - *, negation, powers 0..3, and ^-1 of constants (zero
    among them) and of c + x_i*(subtree) for a nonzero scalar c, a
    polynomial with a nonzero constant term whenever the subtree is one."""
    nums = st.sampled_from([0, 1, 2, 3, Fraction(1, 2), Fraction(2, 3)]).map(lambda q: ("num", Fraction(q)))
    units = st.sampled_from([1, 2, Fraction(1, 2)]).map(lambda q: ("num", Fraction(q)))
    xs = st.integers(0, 2).map(lambda i: ("x", i))
    scalars = st.one_of([nums] + ([st.integers(0, nvars - 1).map(lambda k: ("t", k))] if nvars else []))
    binary = st.sampled_from(["add", "sub", "mul"])
    consts = st.recursive(scalars, lambda k: st.tuples(binary, k, k), max_leaves=4)
    leaves = st.one_of([scalars, xs] + ([st.integers(0, 2).map(lambda i: ("y", i)), st.just(("e",))]
                                        if skew else []))

    @st.composite
    def tree(draw, size):
        if size == 1:
            return draw(leaves)
        op = draw(st.sampled_from(["add", "sub", "mul", "mul", "neg", "pow", "const^-1", "poly^-1"]))
        if op == "neg":
            return ("neg", draw(tree(size - 1)))
        if op == "pow":
            return ("pow", draw(tree(size - 1)), draw(st.sampled_from([2, 3, 0, 1])))
        if op == "const^-1":
            return ("pow", draw(consts), -1)
        if op == "poly^-1":
            return ("pow", ("add", draw(units), ("mul", draw(xs), draw(tree(size - 1)))), -1)
        k = draw(st.integers(1, size - 1))
        return (op, draw(tree(k)), draw(tree(size - k)))

    return st.integers(4, 20).flatmap(tree)


@pytest.mark.parametrize("name, nvars", [("q", 0), ("fp:7", 0), ("qt:1", 1), ("qt:2", 2)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_series_eval_matches_reference(name, nvars, data):
    node = data.draw(_trees(nvars))
    field = field_from_name(name)
    new = _outcome(lambda: SeriesContext(field, 2).eval(node))
    old = _outcome(lambda: _reference_eval(_ReferenceSeries(field, 2), node))
    if old[0] == "error":
        assert new == old
    else:
        assert new[0] == "ok" and new[1].dim == old[1].dim and new[1] == old[1]


@pytest.mark.parametrize("kind", CoeffDomain.KINDS)
@settings(max_examples=60, deadline=None)
@given(node=_trees(skew=True))
def test_skew_eval_matches_reference(kind, node):
    """Over rat the membership verdicts agree; the free and trunc
    coefficients have one form per value, so their JSON is byte-equal."""
    ring = SkewRing(CoeffDomain(kind, QQ, 6), 2)
    new = _outcome(lambda: SkewContext(ring).eval(node))
    old = _outcome(lambda: _reference_eval(_ReferenceSkew(ring), node))
    if old[0] == "error":
        assert new == old
        return
    assert new[0] == "ok" and new[1] == old[1]
    if kind == "rat":
        assert ideal_member(new[1]) == ideal_member(old[1])
    else:
        assert json.dumps(new[1].to_json()) == json.dumps(old[1].to_json())


# -- coefficient-first product chains ------------------------------------------------

def _chains(nvars: int, inverses: bool):
    """Sums, negations and powers 0..2 of product chains as the parser
    builds them, left-associated: one or two y/e factors, then two or
    three y-free factors (scalars, the first nvars indeterminates, x
    letters, c + x_i*x_j, and, with inverses, (1 + c*x_i)^-1 for a nonzero
    scalar c)."""
    num = st.sampled_from([2, 3, Fraction(1, 2), Fraction(2, 3)]).map(lambda q: ("num", Fraction(q)))
    x = st.integers(0, 2).map(lambda i: ("x", i))
    scalar = st.one_of([num] + ([st.integers(0, nvars - 1).map(lambda k: ("t", k))] if nvars else []))
    coeff = st.one_of([
        scalar, x,
        st.tuples(scalar, x, x).map(lambda p: ("add", p[0], ("mul", p[1], p[2]))),
    ] + ([st.tuples(scalar, x).map(lambda p: ("pow", ("add", ("num", Fraction(1)), ("mul", p[0], p[1])), -1))]
         if inverses else []))
    ye = st.one_of(st.integers(0, 2).map(lambda i: ("y", i)), st.just(("e",)))

    def chain(factors):
        out = factors[0]
        for f in factors[1:]:
            out = ("mul", out, f)
        return out

    chains = st.tuples(st.lists(ye, min_size=1, max_size=2),
                       st.lists(coeff, min_size=2, max_size=3)).map(lambda p: chain(p[0] + p[1]))
    return st.recursive(chains, lambda kids: st.one_of(
        st.tuples(st.sampled_from(["add", "sub"]), kids, kids),
        kids.map(lambda n: ("neg", n)),
        st.tuples(kids, st.integers(0, 2)).map(lambda p: ("pow", p[0], p[1])),
    ), max_leaves=3)


@pytest.mark.parametrize("kind, name", [("rat", "q"), ("rat", "qt:1"), ("free", "q"), ("trunc", "q")])
@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_coefficient_first_chains_match_left_to_right(kind, name, data):
    """``eval_skew`` multiplies the y-free tail of a chain first; the
    reference multiplies left to right.  The elements are equal, and the
    free and trunc coefficients, with one form per value, are byte-equal.
    Polynomials are not inverted over free coefficients."""
    field = field_from_name(name)
    node = data.draw(_chains(field.nvars if isinstance(field, FunctionField) else 0, kind != "free"))
    ring = SkewRing(CoeffDomain(kind, field, 6), 2)
    new = eval_skew(render_expr(node), ring)
    old = _reference_eval(_ReferenceSkew(ring), node)
    assert new == old
    if kind != "rat":
        assert json.dumps(new.to_json()) == json.dumps(old.to_json())


def test_coefficient_first_chain_makes_one_general_product(monkeypatch):
    """y0*e has four terms, with coefficients 1 and -x_i.  The coefficient
    product (1 + x0)*(1 - 2*x1)^-1 is made once, and each term meets it in
    a product that a constant only scales or that starts with a marked
    word; so there is exactly one general Cauchy product (a LinRep product
    whose left factor is neither).  Left to right there are four: each
    term times (1 + x0), then each of those times the inverse."""
    calls = []
    product = linrep._product
    monkeypatch.setattr(linrep, "_product", lambda *args: calls.append(1) or product(*args))
    ring = SkewRing(CoeffDomain("rat", QQ), 2)
    a = eval_skew("y0*e*(1 + x0)*(1 - 2*x1)^-1", ring)
    assert len(calls) == 1
    assert a == _reference_eval(_ReferenceSkew(ring), parse_expr("y0*e*(1 + x0)*(1 - 2*x1)^-1"))


# -- guards of the folding ------------------------------------------------------------

def test_products_of_sums_are_not_expanded():
    """Multi-term factors are promoted before they meet, so the product of
    24 binomials costs 24 small products, not 2^24 words."""
    assert type(SeriesContext(QQ, 2)._eval(parse_expr("(x0 + x1)*(x0 + x1)"))) is LinRep
    start = time.process_time()
    a = eval_series("*".join(["(x0 + x1)"] * 24), QQ)
    assert time.process_time() - start < 1.0
    assert a.dim == 25


def test_powers_of_a_word_stay_one_word():
    p = SeriesContext(QQ, 2)._eval(parse_expr("x0^30"))
    assert type(p) is FreeElem and p.coeffs == {(0,) * 30: QQ.one()}
    assert eval_series("x0^30", QQ) == LinRep.word(QQ, (0,) * 30)


ZERO_SERIES = "series with zero constant term has no inverse"
NO_T = "t is only available over a function field (--field qt:<r>)"
FROM_ONE = "letters are numbered from 1 here"
NOT_INVERTIBLE = ["0^-1", "(x0 - x0)^-1", "x0^-1", "(x0 + x1)^-1", "t^-1"]
INVERSE_ERRORS = {
    "series": [ZERO_SERIES] * 4 + [NO_T],
    "rat": ["zero is not invertible"] * 2 + [ZERO_SERIES] * 2 + [NO_T],
    "trunc": ["zero is not invertible"] * 2 + [ZERO_SERIES] * 2 + [NO_T],
    "free": ["zero is not invertible"] * 2 + ["only scalars are invertible among polynomials"] * 2 + [NO_T],
    "leavitt": ["zero is not invertible"] + [FROM_ONE] * 3 + [NO_T],
}


@pytest.mark.parametrize("context", sorted(INVERSE_ERRORS))
def test_inverse_errors_are_pinned(context):
    evaluate = {
        "series": lambda text: eval_series(text, QQ),
        "leavitt": lambda text: eval_leavitt(text, QQ, 2),
    }.get(context, lambda text: eval_skew(text, SkewRing(CoeffDomain(context, QQ), 2)))
    for text, message in zip(NOT_INVERTIBLE, INVERSE_ERRORS[context]):
        with pytest.raises(ValueError) as ei:
            evaluate(text)
        assert type(ei.value) is ValueError and str(ei.value) == message, text


@pytest.mark.parametrize("command, context", [
    (["series", "eval"], "series"), (["skew", "member"], "rat"), (["leavitt", "nf"], "leavitt")])
def test_inverse_errors_through_the_cli(command, context, capsys):
    for text, message in zip(NOT_INVERTIBLE, INVERSE_ERRORS[context]):
        assert run_command(command + [text]) == 1
        cap = capsys.readouterr()
        assert (cap.out, cap.err) == ("", "error: %s\n" % message), text
