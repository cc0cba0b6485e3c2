"""Scalar domains: exact arithmetic, canonical forms, serialization."""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ratskew.fields import (Fp, FunctionField, MPoly, PrimeField, QQ, RatFunc,
                            field_from_name, mpoly_gcd, scalar_from_json,
                            scalar_to_json, zx_div_exact, zx_gcd, zx_lcm, zx_mul, zxy_add,
                            zxy_div_exact, zxy_gcd, zxy_lcm, zxy_mul, zxy_neg, zxy_terms)

F7 = field_from_name("fp:7")
QT = field_from_name("qt:1")
QT2 = field_from_name("qt:2")

ALL_FIELDS = [QQ, F7, QT2]


# -- field descriptor ------------------------------------------------------

def test_field_from_name_caches_and_parses():
    assert field_from_name("q") is QQ
    assert field_from_name("fp:7") is F7
    assert field_from_name("qt:2").nvars == 2
    with pytest.raises(ValueError):
        field_from_name("zz")
    with pytest.raises(ValueError):
        field_from_name("fp:6")  # composite modulus


def test_field_identity_elements():
    for f in ALL_FIELDS:
        assert f.one() + f.zero() == f.one()
        assert f.one() * f.one() == f.one()
        assert not f.zero()
        assert f.from_int(-1) + f.one() == f.zero()


def test_from_fraction():
    assert QQ.from_fraction(Fraction(2, 3)) == Fraction(2, 3)
    assert F7.from_fraction(Fraction(1, 2)) == Fp(7, 4)  # 2*4 = 8 = 1 mod 7
    q = QT.from_fraction(Fraction(-5, 2))
    assert q == RatFunc.const(1, Fraction(-5, 2))


def test_random_units_are_units():
    rng = random.Random(7)
    for f in ALL_FIELDS:
        for _ in range(50):
            u = f.random(rng, units_only=True)
            assert u
            assert u * (f.one() / u) == f.one()


# -- prime field -----------------------------------------------------------

@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40))
def test_fp_ring_axioms(a, b, c):
    x, y, z = Fp(7, a), Fp(7, b), Fp(7, c)
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x + (-x) == Fp(7, 0)


@given(st.integers(1, 6))
def test_fp_inverse(a):
    x = Fp(7, a)
    assert x * (Fp(7, 1) / x) == Fp(7, 1)


def test_fp_mixed_modulus_rejected():
    with pytest.raises(ValueError):
        Fp(7, 1) + Fp(5, 1)


def test_fp_zero_division():
    with pytest.raises(ZeroDivisionError):
        Fp(7, 1) / Fp(7, 0)


# -- rational functions ----------------------------------------------------

def _qt_elems(seed):
    rng = random.Random(seed)
    return [QT2.random(rng) for _ in range(6)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ratfunc_field_axioms_on_samples(seed):
    xs = _qt_elems(seed)
    one = QT2.one()
    for a in xs:
        for b in xs:
            assert a + b == b + a
            assert a * b == b * a
            assert (a - b) + b == a
            if b:
                assert (a / b) * b == a
    for a in xs:
        if a:
            assert a * (one / a) == one


def test_ratfunc_canonical_reduction():
    t = QT.var(0)
    # (t^2 - 1)/(t - 1) reduces to t + 1
    a = (t * t - 1) / (t - 1)
    assert a == t + 1
    # denominator is kept monic: (2t)/(2) -> t
    assert (t + t) / QT.from_int(2) == t


def test_mpoly_gcd_on_common_factor():
    t = MPoly(1, {(1,): Fraction(1)})
    one = MPoly(1, {(0,): Fraction(1)})
    f = (t + one) * (t + one)
    g = (t + one) * t
    d = mpoly_gcd(f, g).monic()
    assert d == (t + one).monic()


def test_two_variable_arithmetic():
    t1, t2 = QT2.var(0), QT2.var(1)
    a = (t1 + t2) * (t1 - t2)
    assert a == t1 * t1 - t2 * t2
    assert QT2.render(t1 / t2) == "t1/t2"


# -- serialization ---------------------------------------------------------

@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.name)
def test_scalar_json_round_trip(field):
    rng = random.Random(11)
    for _ in range(40):
        a = field.random(rng)
        j = scalar_to_json(field, a)
        assert scalar_from_json(field, j) == a


def test_render_is_parseable_for_q():
    assert QQ.render(Fraction(-2, 3)) == "-2/3"
    assert F7.render(Fp(7, 3)) == "3"
    t = QT.var(0)
    assert QT.render(t + 2) == "t1 + 2"


def test_scalar_from_json_canonicalises():
    # t/2 stored with a non-monic denominator
    x = scalar_from_json(QT, {"num": [[[1], "1"]], "den": [[[0], "2"]]})
    assert x == QT.var(0) / 2
    assert str(x) == "1/2*t1"
    assert str(x + 1) == "1/2*t1 + 1"
    # (2t + 2)/(t + 1) stored unreduced
    y = scalar_from_json(QT, {"num": [[[1], "2"], [[0], "2"]],
                              "den": [[[1], "1"], [[0], "1"]]})
    assert y == 2
    assert scalar_to_json(QT, y) == {"num": [[[0], "2"]], "den": [[[0], "1"]]}


@pytest.mark.parametrize("obj", [
    {"num": [[[1, 1], "1"]], "den": [[[0], "1"]]},  # two exponents in qt:1
    {"num": [[[1], "1"]], "den": [[[], "1"]]},
    {"num": [[[-1], "1"]], "den": [[[0], "1"]]},
    {"num": [[["1"], "1"]], "den": [[[0], "1"]]},
    {"num": [[[True], "1"]], "den": [[[0], "1"]]},
    # each equal in Python to an encoding of 0 or 1, which take a fast path
    {"num": [[[False], "1"]], "den": [[[0], "1"]]},
    {"num": [], "den": [[[False], "1"]]},
    {"num": [[[0, 0], "1"]], "den": [[[0], "1"]]},
    {"num": [], "den": [[[0, 0], "1"]]},
], ids=["too-long", "empty", "negative", "string", "bool", "false-one", "false-den",
        "long-one", "long-den"])
def test_scalar_from_json_rejects_bad_exponents(obj):
    with pytest.raises(ValueError, match="exponent"):
        scalar_from_json(QT, obj)


@pytest.mark.parametrize("field", [QT, QT2], ids=lambda f: f.name)
def test_scalar_from_json_zero_and_one_fast_path(field):
    z = [0] * field.nvars
    one = [[z, "1"]]
    assert scalar_from_json(field, {"num": [], "den": one}) is field.zero()
    assert scalar_from_json(field, {"num": one, "den": one}) is field.one()
    # other spellings of 0 and 1 take the full parse, to the same values
    assert scalar_from_json(field, {"num": [[z, "2/2"]], "den": one}) == field.one()
    assert scalar_from_json(field, {"num": one, "den": [[z, "1.0"]]}) == field.one()
    assert scalar_from_json(field, {"num": [[z, "0"]], "den": one}) == field.zero()
    for a in (field.zero(), field.one()):
        assert scalar_from_json(field, scalar_to_json(field, a)) == a


# -- RatFunc operators against the reducing constructor and an oracle -----

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def _term_dicts(nvars, min_terms=0, max_terms=3):
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * nvars), _fractions)
    return st.lists(term, min_size=min_terms, max_size=max_terms).map(dict)


def _mpolys(nvars, min_terms=0):
    return _term_dicts(nvars, min_terms).map(lambda ts: MPoly(nvars, ts))


def _factor_products(nvars, min_size):
    """Products of a few factors from a small pool, so that operands often
    share factors and the gcds on the operators' paths are nontrivial."""
    one = MPoly.const(nvars, 1)
    t = [MPoly.var(nvars, i) for i in range(nvars)]
    pool = [t[0], t[0] + one, t[0] - one] + ([t[1], t[0] + t[1]] if nvars == 2 else [])

    def product(fs):
        p = one
        for f in fs:
            p = p * f
        return p
    return st.lists(st.sampled_from(pool), min_size=min_size, max_size=2).map(product)


@st.composite
def _ratfuncs(draw, nvars):
    """Canonical operands: zero, rational constants, polynomials, fractions."""
    # fractions weighted up: they are the operands that reach the gcd paths
    kind = draw(st.sampled_from(["zero", "const", "poly", "frac", "frac", "frac"]))
    one = MPoly.const(nvars, 1)
    if kind == "zero":
        return RatFunc(MPoly(nvars, {}), one)
    if kind == "const":
        return RatFunc(MPoly.const(nvars, draw(_fractions)), one)
    consts = _fractions.filter(bool).map(lambda c: MPoly.const(nvars, c))
    num = draw(st.one_of(consts, _mpolys(nvars))) * draw(_factor_products(nvars, 0))
    if kind == "poly":
        return RatFunc(num, one)
    den = draw(_factor_products(nvars, 1)).scale(draw(_fractions.filter(bool)))
    return RatFunc(num, den)


def _unreduced(op, x, y):
    """num/den of x op y by the textbook formulas, before any reduction."""
    a, b, c, d = x.num, x.den, y.num, y.den
    if op == "+":
        return a * d + c * b, b * d
    if op == "-":
        return a * d - c * b, b * d
    if op == "*":
        return a * c, b * d
    return a * d, b * c


def _evaluate(p, point):
    total = Fraction(0)
    for e, c in p.terms.items():
        m = c
        for v, k in zip(point, e):
            m *= v ** k
        total += m
    return total


@settings(max_examples=100, deadline=None)
@given(data=st.data(), nvars=st.sampled_from([1, 2]))
def test_mpoly_div_exact_inverts_multiplication(data, nvars):
    p = data.draw(_mpolys(nvars), "p")
    q = data.draw(_mpolys(nvars, 1).filter(lambda q: not q.is_const()), "q")
    assert (p * q).div_exact(q) == p
    with pytest.raises(ValueError):
        (p * q + MPoly.const(nvars, 1)).div_exact(q)


@pytest.mark.parametrize("num, den", [
    ({(1,): 1, (0,): 1}, {(1,): 2, (0,): 1}),  # t + 1 by 2t + 1: quotient 1/2
    ({(1,): 3, (0,): 1}, {(1,): 2, (0,): 1}),
    ({(1, 1): 1, (0, 0): 1}, {(1, 1): 3, (0, 0): 1}),
])
def test_mpoly_div_exact_rejects_a_non_integer_quotient_of_primitive_parts(num, den):
    """A quotient with a leading coefficient outside Z means the primitive
    parts do not divide (Gauss's lemma); it is refused, not truncated."""
    nvars = len(next(iter(num)))
    with pytest.raises(ValueError, match="inexact"):
        MPoly(nvars, num).div_exact(MPoly(nvars, den))


def test_ratfunc_sum_reduces_against_the_common_denominator_factor():
    t = QT.var(0)
    # gcd(b, d) = t, and t also divides (t - 1) + (t + 1) = 2t
    x, y = 1 / (t * (t + 1)), 1 / (t * (t - 1))
    assert str(x + y) == "2/(t1^2 - 1)"
    assert x + y == RatFunc(x.num * y.den + y.num * x.den, x.den * y.den)


@pytest.mark.parametrize("op", sorted(_OPS))
@settings(max_examples=200, deadline=None)
@given(data=st.data(), nvars=st.sampled_from([1, 2]))
def test_ratfunc_operators_match_reference(op, data, nvars):
    x = data.draw(_ratfuncs(nvars), "x")
    y = data.draw(_ratfuncs(nvars), "y")
    if op == "/" and not y:
        with pytest.raises(ZeroDivisionError):
            x / y
        return
    r = _OPS[op](x, y)
    # (a) the reducing constructor on the unreduced result gives the same value
    ref = RatFunc(*_unreduced(op, x, y))
    assert r.num.terms == ref.num.terms and r.den.terms == ref.den.terms
    assert str(r) == str(ref)
    # (b) canonical: monic denominator, numerator and denominator coprime
    assert r.den.leading()[1] == 1
    assert mpoly_gcd(r.num, r.den).is_const()
    if not r:
        assert r.den.is_const()
    # (c) an independent oracle: plain Fraction arithmetic at rational points
    for _ in range(3):
        point = data.draw(st.lists(_fractions, min_size=nvars, max_size=nvars), "point")
        dens = [_evaluate(z.den, point) for z in (x, y, r)]
        if not all(dens):
            continue
        xv, yv, rv = (_evaluate(z.num, point) / dv for z, dv in zip((x, y, r), dens))
        if op == "/" and not yv:
            continue
        assert _OPS[op](xv, yv) == rv


@pytest.mark.parametrize("op", sorted(_OPS))
@settings(max_examples=50, deadline=None)
@given(data=st.data(), nvars=st.sampled_from([1, 2]))
def test_ratfunc_operators_with_rational_operands(op, data, nvars):
    x = data.draw(_ratfuncs(nvars), "x")
    k = data.draw(st.one_of(st.integers(-3, 3), _fractions), "k")
    kf = RatFunc.const(nvars, k)
    f = _OPS[op]
    if op != "/" or k:
        assert f(x, k) == f(x, kf)
    if op != "/" or x:
        assert f(k, x) == f(kf, x)


# -- MPoly's integer content form c * P ------------------------------------

def _assert_normal(q):
    """P is a primitive integer dict with a positive lex-leading
    coefficient; the content c is 0 exactly for the zero polynomial."""
    assert all(type(k) is int and k for k in q.p.values())
    assert isinstance(q.c, Fraction)
    if not q.p:
        assert q.c == 0
        return
    assert q.c != 0
    assert math.gcd(*q.p.values()) == 1
    assert q.p[max(q.p)] > 0


def _ref(d):
    return {e: Fraction(v) for e, v in d.items() if v}


def _ref_add(x, y, sign=1):
    out = dict(x)
    for e, v in y.items():
        out[e] = out.get(e, 0) + sign * v
    return _ref(out)


def _ref_mul(x, y):
    out: dict = {}
    for e1, v1 in x.items():
        for e2, v2 in y.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + v1 * v2
    return _ref(out)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), nvars=st.sampled_from([1, 2]))
def test_mpoly_content_form_matches_fraction_reference(data, nvars):
    x = _ref(data.draw(_term_dicts(nvars, max_terms=4), "x"))
    y = _ref(data.draw(_term_dicts(nvars, max_terms=4), "y"))
    k = data.draw(_fractions, "k")
    p, q = MPoly(nvars, x), MPoly(nvars, y)
    results = [
        (p, x),
        (p + q, _ref_add(x, y)),
        (p - q, _ref_add(x, y, -1)),
        (-p, _ref_add({}, x, -1)),
        (p * q, _ref_mul(x, y)),
        (p.scale(k), _ref({e: k * v for e, v in x.items()})),
    ]
    if x:
        lc = x[max(x)]
        results.append((p.monic(), {e: v / lc for e, v in x.items()}))
    if y:
        results.append(((p * q).div_exact(q), x))
    for v in range(nvars):
        collected: dict = {}
        for e, c in x.items():
            collected.setdefault(e[v], {})[e[:v] + (0,) + e[v + 1:]] = c
        got = p.coeffs_in(v)
        assert sorted(got) == sorted(collected)
        results += [(got[d], collected[d]) for d in got]
    for r, want in results:
        _assert_normal(r)
        assert r.terms == want
        assert r == MPoly(nvars, want) and hash(r) == hash(MPoly(nvars, want))


def _univariate(nvars, v):
    """Products of a term dict in t_v alone and factors from a small pool,
    so that pairs often share factors."""
    def embed(k):
        return tuple(k if i == v else 0 for i in range(nvars))

    one = MPoly.const(nvars, 1)
    t = MPoly.var(nvars, v)
    pool = [t, t + one, t - one, t.scale(2) + MPoly.const(nvars, 3)]
    base = st.lists(st.tuples(st.integers(0, 3), _fractions), max_size=3).map(
        lambda ts: MPoly(nvars, {embed(k): c for k, c in ts}))

    def product(fs):
        p = one
        for f in fs:
            p = p * f
        return p
    return st.tuples(base, st.lists(st.sampled_from(pool), max_size=3).map(product)).map(
        lambda bf: bf[0] * bf[1])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), nvars=st.sampled_from([1, 2]))
def test_mpoly_gcd_univariate_is_monic_common_divisor(data, nvars):
    v = data.draw(st.integers(0, nvars - 1), "v")
    f = data.draw(_univariate(nvars, v), "f")
    g = data.draw(_univariate(nvars, v), "g")
    h = mpoly_gcd(f, g)
    _assert_normal(h)
    if f.is_zero() and g.is_zero():
        assert h.is_zero()
        return
    assert h.leading()[1] == 1
    a, b = f.div_exact(h), g.div_exact(h)
    assert a * h == f and b * h == g
    assert mpoly_gcd(a, b) == MPoly.const(nvars, 1) or a.is_zero() or b.is_zero()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mpoly_gcd_dense_path_agrees_with_recursive_path(data):
    """For f, g in t1 alone the dense path runs; times s = t2 + 1 the
    recursive one does."""
    f = data.draw(_univariate(2, 0), "f")
    g = data.draw(_univariate(2, 0), "g")
    s = MPoly.var(2, 1) + MPoly.const(2, 1)
    assert mpoly_gcd(f * s, g * s) == (mpoly_gcd(f, g) * s).monic()


# -- dense Z[t] helpers -------------------------------------------------------

_ZX_POOL = [[1, 1], [-1, 1], [2, 3], [0, 1], [1, 0, 1], [-2, 0, 3]]


def _zx_trim(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


@st.composite
def _zx(draw, nonzero=False):
    """An integer content times a product of pool factors times a random
    polynomial of degree <= 2, so that two draws often share factors and
    contents; the zero polynomial unless ``nonzero``."""
    p = _zx_trim(draw(st.lists(st.integers(-6, 6), max_size=3)))
    if not p:
        if not nonzero:
            return []
        p = [draw(st.sampled_from([-3, -1, 1, 2]))]
    for f in draw(st.lists(st.sampled_from(_ZX_POOL), max_size=3)):
        p = zx_mul(p, f)
    return zx_mul([draw(st.sampled_from([1, -1, 2, -6, 12]))], p)


def _zx_add(a, b):
    n = max(len(a), len(b))
    return _zx_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


@settings(max_examples=200, deadline=None)
@given(a=_zx(), b=_zx())
def test_zx_gcd_divides_both_with_coprime_cofactors(a, b):
    g = zx_gcd(a, b)
    if not a and not b:
        assert g == []
        return
    assert g[-1] > 0
    u, v = zx_div_exact(a, g), zx_div_exact(b, g)
    assert zx_mul(u, g) == a and zx_mul(v, g) == b
    assert zx_gcd(u, v) == [1]


@settings(max_examples=200, deadline=None)
@given(a=_zx(nonzero=True), b=_zx(nonzero=True), data=st.data())
def test_zx_div_exact_refuses_an_inexact_quotient(a, b, data):
    assert zx_div_exact(zx_mul(a, b), b) == a
    if len(b) > 1:  # a nonzero remainder of lower degree than b
        r = _zx_trim(data.draw(st.lists(st.integers(-5, 5), min_size=1, max_size=len(b) - 1)))
        if not r:
            r = [1]
    elif abs(b[0]) > 1:  # an integer divisor that misses the constant term
        r = [1]
    else:
        return
    with pytest.raises(ValueError, match="inexact"):
        zx_div_exact(_zx_add(zx_mul(a, b), r), b)


@settings(max_examples=200, deadline=None)
@given(a=_zx(nonzero=True), b=_zx(nonzero=True))
def test_zx_lcm_is_divisible_by_both(a, b):
    m = zx_lcm(a, b)
    assert m[-1] > 0
    assert zx_mul(zx_div_exact(m, a), a) == m and zx_mul(zx_div_exact(m, b), b) == m
    # the least such: lcm * gcd = +-a*b
    ab = zx_mul(a, b)
    assert zx_mul(m, zx_gcd(a, b)) in (ab, [-x for x in ab])


# -- dense Z[t1][t2] helpers ----------------------------------------------------

# 1 + t1, t1 + t2, 1 + t2, 2 + 3*t1*t2, t2^2 - 1, 1 + t1^2
_ZXY_POOL = [[[1], [1]], [[0, 1], [1]], [[1, 1]], [[2], [0, 3]], [[-1, 0, 1]], [[1], [], [1]]]


def _zxy_trim(a):
    a = [_zx_trim(x) for x in a]
    while a and not a[-1]:
        a.pop()
    return a


@st.composite
def _zxy(draw, nonzero=False):
    """As :func:`_zx`, in Z[t1][t2]: an integer times pool factors times a
    random polynomial of degree <= 2 in each variable."""
    p = _zxy_trim(draw(st.lists(st.lists(st.integers(-4, 4), max_size=3), max_size=3)))
    if not p:
        if not nonzero:
            return []
        p = [[draw(st.sampled_from([-3, -1, 1, 2]))]]
    for f in draw(st.lists(st.sampled_from(_ZXY_POOL), max_size=3)):
        p = zxy_mul(p, f)
    return zxy_mul([[draw(st.sampled_from([1, -1, 2, -6]))]], p)


def _as_mpoly(a, nvars=2, embed=lambda e: e):
    return MPoly._normal(nvars, {embed(e): k for e, k in zxy_terms(a).items()}, Fraction(1))


@settings(max_examples=200, deadline=None)
@given(a=_zxy(), b=_zxy(nonzero=True))
def test_zxy_div_exact_inverts_mul_and_refuses_an_inexact_quotient(a, b):
    ab = zxy_mul(a, b)
    assert _as_mpoly(ab) == _as_mpoly(a) * _as_mpoly(b)  # against the sparse product
    assert zxy_div_exact(ab, b) == a
    if b not in ([[1]], [[-1]]):  # b divides ab + 1 only if it is a unit
        with pytest.raises(ValueError, match="inexact"):
            zxy_div_exact(zxy_add(ab, [[1]]), b)


@settings(max_examples=200, deadline=None)
@given(a=_zxy(), b=_zxy())
def test_zxy_gcd_divides_both_with_coprime_cofactors(a, b):
    g = zxy_gcd(a, b)
    if not a and not b:
        assert g == []
        return
    assert g[-1][-1] > 0
    u, v = zxy_div_exact(a, g), zxy_div_exact(b, g)
    assert zxy_mul(u, g) == a and zxy_mul(v, g) == b
    assert zxy_gcd(u, v) == [[1]]


@settings(max_examples=200, deadline=None)
@given(a=_zxy(nonzero=True), b=_zxy(nonzero=True))
def test_zxy_lcm_times_gcd_is_the_product(a, b):
    m = zxy_lcm(a, b)
    assert m[-1][-1] > 0
    assert zxy_mul(zxy_div_exact(m, a), a) == m and zxy_mul(zxy_div_exact(m, b), b) == m
    ab = zxy_mul(a, b)
    assert zxy_mul(m, zxy_gcd(a, b)) in (ab, zxy_neg(ab))


@settings(max_examples=150, deadline=None)
@given(f=_zxy(), g=_zxy(), s=_zxy(nonzero=True))
def test_mpoly_gcd_bivariate_path_agrees_with_recursive_path(f, g, s):
    """Operands in two variables take the dense Z[t1][t2] gcd; the same
    operands embedded in three variables take the recursive one.  The
    second embedding changes the lex order, hence which monic multiple."""
    f, g = zxy_mul(f, s), zxy_mul(g, s)
    h = mpoly_gcd(_as_mpoly(f), _as_mpoly(g))
    for embed in (lambda e: (e[0], e[1], 0), lambda e: (e[1], 0, e[0])):
        want = mpoly_gcd(_as_mpoly(f, 3, embed), _as_mpoly(g, 3, embed))
        assert MPoly._normal(3, {embed(e): k for e, k in h.p.items()}, h.c).monic() == want
