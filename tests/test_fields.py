"""Scalar domains: exact arithmetic, canonical forms, serialization."""

import json
import math
import operator
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from ratskew.fields import (MAX_NVARS, ZZ, Fp, FunctionField, MPoly, PrimeField, QQ, RatFunc, _mpoly_to_json,
                            field_from_name, mpoly_gcd, poly_ring, scalar_from_json,
                            scalar_to_json, zmod_ring)

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
    assert field_from_name("qt:%d" % MAX_NVARS).nvars == MAX_NVARS
    for r in (0, MAX_NVARS + 1):
        with pytest.raises(ValueError, match="indeterminates"):
            field_from_name("qt:%d" % r)


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
    """Only the encoding ``scalar_to_json`` writes is read: t/2 over a
    non-monic denominator and (2t + 2)/(t + 1) unreduced are refused, and
    their canonical encodings give the reduced values."""
    for obj, want in (({"num": [[[1], "1"]], "den": [[[0], "2"]]}, QT.var(0) / 2),
                      ({"num": [[[1], "2"], [[0], "2"]], "den": [[[1], "1"], [[0], "1"]]}, QT.from_int(2))):
        with pytest.raises(ValueError, match="is not how a scalar over qt:1 is written"):
            scalar_from_json(QT, obj)
        assert scalar_from_json(QT, scalar_to_json(QT, want)) == want
    assert str(scalar_from_json(QT, {"num": [[[1], "1/2"]], "den": [[[0], "1"]]}) + 1) == "1/2*t1 + 1"
    assert scalar_to_json(QT, QT.from_int(2)) == {"num": [[[0], "2"]], "den": [[[0], "1"]]}


@pytest.mark.parametrize("field, obj", [
    (F7, 8), (F7, -6), (F7, 7),
    (QQ, " 1 "), (QQ, "2/2"), (QQ, "0.5"), (QQ, "1e2"), (QQ, "-0"), (QQ, "+1"), (QQ, "02"),
    (QT, {"num": [[[0], "1"], [[0], "2"]], "den": [[[0], "1"]]}),  # one exponent twice
    (QT, {"num": [[[1], "2"]], "den": [[[1], "4"]]}),  # 2t/(4t)
    (QT, {"num": [[[1], "1"], [[0], "1"]], "den": [[[0], "1"]]}),  # terms out of order
    (QT, {"num": [[[1], "1"]], "den": [[[0], "1"]], "extra": 1}),
], ids=["fp-8", "fp-minus-6", "fp-7", "q-spaces", "q-2/2", "q-decimal", "q-exponent", "q-minus-0", "q-plus",
        "q-leading-0", "qt-repeated-exponent", "qt-unreduced", "qt-unsorted", "qt-extra-key"])
def test_scalar_from_json_refuses_other_encodings(field, obj):
    """Another spelling of a value is refused, with the canonical one in
    the message."""
    with pytest.raises(ValueError, match="is not how a scalar over %s is written" % field.name):
        scalar_from_json(field, obj)


@pytest.mark.parametrize("field, obj, match", [
    (QQ, "1/0", "'1/0' has a zero denominator"),
    (F7, "1/0", "must be an integer"),
    (QT, {"num": [[[1], "-3/0"]], "den": [[[0], "1"]]}, "'-3/0' has a zero denominator"),
    (QT, {"num": [[[0], "1"]], "den": [[[0], "0/0"]]}, "'0/0' has a zero denominator"),
    (QT2, {"num": [[[0, 1], "1"]], "den": []}, r"the denominator \[\] is zero"),
], ids=["q", "fp", "qt-num-term", "qt-den-term", "qt2-zero-den"])
def test_scalar_from_json_refuses_zero_denominators(field, obj, match):
    """A zero denominator, in a q string, a qt:r term coefficient or a
    qt:r denominator, is refused with ValueError, not ZeroDivisionError; an
    fp:p scalar is an integer, and a fraction string is refused as such."""
    with pytest.raises(ValueError, match=match):
        scalar_from_json(field, obj)


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
    # other spellings of 0 and 1 take the full parse, which refuses them
    for obj in ({"num": [[z, "2/2"]], "den": one}, {"num": one, "den": [[z, "1.0"]]},
                {"num": [[z, "0"]], "den": one}):
        with pytest.raises(ValueError, match="is not how a scalar"):
            scalar_from_json(field, obj)
    for a in (field.zero(), field.one()):
        assert scalar_from_json(field, scalar_to_json(field, a)) == a


# -- zero and one in the codec: q, fp:7, qt:1 and qt:2 ----------------------

CODEC_FIELDS = [QQ, F7, QT, QT2]


def _generic_to_json(field, a):
    """The encoding with no shortcut for zero or one."""
    if field is QQ:
        return str(a)
    if isinstance(field, PrimeField):
        return a.v
    return {"num": _mpoly_to_json(a.num), "den": _mpoly_to_json(a.den)}


def _codec_values(field):
    """0, 1 and -1, also as results of arithmetic (so not the field's own
    zero and one objects), and other values."""
    small = st.integers(-3, 3).map(field.from_int)
    made = st.tuples(small, small.filter(bool)).flatmap(
        lambda xy: st.sampled_from([xy[0] - xy[0], xy[1] / xy[1], -(xy[1] / xy[1]), xy[0] * xy[1]]))
    values = [st.sampled_from([field.zero(), field.one(), -field.one()]), made]
    if isinstance(field, FunctionField):
        values.append(_ratfuncs(field.nvars))
    elif field is QQ:
        values.append(_fractions)
    return st.one_of(*values)


def _containers(obj):
    """The ids of every list and dict in a JSON tree."""
    if isinstance(obj, dict):
        return [id(obj)] + [i for v in obj.values() for i in _containers(v)]
    if isinstance(obj, list):
        return [id(obj)] + [i for v in obj for i in _containers(v)]
    return []


@pytest.mark.parametrize("field", CODEC_FIELDS, ids=lambda f: f.name)
@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_scalar_codec_shortcuts_agree_with_the_generic_codec(field, data):
    """The zero and one shortcuts of ``scalar_to_json`` write what the
    generic encoding writes, and ``scalar_from_json`` reads the value back;
    two encodings share no list or object."""
    a = data.draw(_codec_values(field))
    enc = scalar_to_json(field, a)
    assert enc == _generic_to_json(field, a)
    again = scalar_to_json(field, a)
    ids = _containers([enc, again])
    assert len(ids) == len(set(ids))
    read = scalar_from_json(field, enc)
    assert read == a
    if not a or a == field.one():
        assert read is (field.one() if a else field.zero()) or field is F7


def _near_misses(field):
    """Objects that equal an encoding of 0 or 1 in Python, or nearly, and
    that the parse refuses or reads otherwise."""
    if field is QQ:
        return ["0 ", "00", "1/1", "-0", 0, 1, False, True, None, [], {}]
    if isinstance(field, PrimeField):
        return [False, True, 0.0, 1.0, -0.0, "0", "1", 7, -1, 8, None, [0], 6]
    z = [0] * field.nvars
    one = [[z, "1"]]
    bad = [[[False] * field.nvars, "1"]]
    floaty = [[[0.0] * field.nvars, "1"]]
    return [{"num": [], "den": bad}, {"num": bad, "den": one}, {"num": one, "den": floaty},
            {"num": [], "den": floaty}, {"num": [], "den": one, "extra": 1}, {"num": one, "den": one, "x": 0},
            {"num": [[z, "0"]], "den": one}, {"num": [[z, "2/2"]], "den": one}, {"num": [], "den": []},
            {"num": [], "den": [[z + [0], "1"]]}, {"num": one}, {"den": one}, [], 0, "0"]


@pytest.mark.parametrize("field", CODEC_FIELDS, ids=lambda f: f.name)
def test_scalar_from_json_shortcuts_take_only_canonical_encodings(field):
    """The zero and one shortcuts (over fp:p, every int in [0, p)) take
    nothing but a canonical encoding: each near miss is refused with
    ValueError, or read as a value that is written back as that very
    object."""
    for obj in _near_misses(field):
        try:
            a = scalar_from_json(field, obj)
        except ValueError:
            continue
        # json text tells 0 from 0.0 and from false, at any depth
        assert json.dumps(scalar_to_json(field, a)) == json.dumps(obj), obj


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


# -- the bytes of str() and the JSON codec, from the public terms ------------

def _render_poly(terms):
    """A polynomial's text: terms by descending (total degree, exponent),
    a unit coefficient left out of a monomial, a negative term subtracted."""
    if not terms:
        return "0"
    parts = []
    for e in sorted(terms, key=lambda e: (sum(e), e), reverse=True):
        c = terms[e]
        mon = "*".join("t%d" % (i + 1) + ("" if k == 1 else "^%d" % k) for i, k in enumerate(e) if k)
        parts.append(str(c) if not mon else mon if c == 1 else "-" + mon if c == -1 else "%s*%s" % (c, mon))
    return parts[0] + "".join(" - " + p[1:] if p.startswith("-") else " + " + p for p in parts[1:])


def _render(x):
    num, den = _render_poly(x.num.terms), _render_poly(x.den.terms)
    if x.den.terms == {(0,) * x.num.nvars: 1}:
        return num
    return "%s/%s" % ("(%s)" % num if " " in num else num, "(%s)" % den if " " in den or "*" in den else den)


def _encode_poly(terms):
    return [[list(e), str(c)] for e, c in sorted(terms.items())]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), nvars=st.sampled_from([1, 2]))
def test_str_and_json_match_a_rendering_of_the_terms(data, nvars):
    """``str`` and ``scalar_to_json`` write what a rendering of the public
    ``num.terms`` and ``den.terms`` writes, for values with contents such
    as 3/2 and -2/3, negative leads and non-constant denominators: this
    pins the bytes of stdout and of certificates to the term dicts,
    whatever the stored form."""
    field = QT if nvars == 1 else QT2
    x = data.draw(_ratfuncs(nvars), "x") * data.draw(st.sampled_from([1, -1, Fraction(3, 2), Fraction(-2, 3), 6]))
    if data.draw(st.booleans(), "divide"):
        x = x / RatFunc(data.draw(_factor_products(nvars, 1)), MPoly.const(nvars, 1))
    assert str(x) == _render(x)
    assert scalar_to_json(field, x) == {"num": _encode_poly(x.num.terms), "den": _encode_poly(x.den.terms)}


# -- MPoly's integer content form c * P ------------------------------------

def _assert_normal(q):
    """The stored form ``c * P`` is the one read off the public terms: P
    the primitive integer polynomial with a positive lex-leading
    coefficient, and c the content, which is 0 exactly for the zero
    polynomial; and the constructor builds the same value and hash."""
    terms = q.terms
    assert all(isinstance(v, Fraction) and v for v in terms.values())
    assert isinstance(q.c, Fraction)
    want = MPoly(q.nvars, terms)
    assert q == want and hash(q) == hash(want)
    if not terms:
        assert q.c == 0 and q.is_zero()
        return
    den = math.lcm(*(v.denominator for v in terms.values()))
    ints = {e: v.numerator * (den // v.denominator) for e, v in terms.items()}
    h = math.gcd(*ints.values())
    if ints[max(ints)] < 0:
        h = -h
    assert q.c == Fraction(h, den)
    assert q.p == poly_ring(q.nvars).of({e: k // h for e, k in ints.items()})


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
        got = _coeffs_in(p, v)
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
@given(data=st.data(), nvars=st.sampled_from([1, 2, 3]))
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
    """For f, g in t1 alone, and for both times s = t2 + 1, the ring gcd
    equals the recursive reference."""
    f = data.draw(_univariate(2, 0), "f")
    g = data.draw(_univariate(2, 0), "g")
    s = MPoly.var(2, 1) + MPoly.const(2, 1)
    h = mpoly_gcd(f, g)
    assert h == _reference_gcd(f, g)
    assert mpoly_gcd(f * s, g * s) == _reference_gcd(f * s, g * s) == (h * s).monic()


# -- the ring tower Z[t1..tr] ---------------------------------------------------

def _mono(r, *pairs):
    """The exponent tuple in r variables with t_i^k for each pair (i, k)."""
    e = [0] * r
    for i, k in pairs:
        e[i - 1] = k
    return tuple(e)


def _pool(r):
    """Small factors: 1 + t1, t1 + tr, 1 + tr, 2 + 3*t1*tr, tr^2 - 1,
    1 + t1^2, and in three variables t2 + t3 and t1*t2 - 1; in one
    variable t + 1, t - 1, 3*t + 2, t, t^2 + 1 and 3*t^2 - 2."""
    if r == 1:
        return [{(0,): 1, (1,): 1}, {(0,): -1, (1,): 1}, {(0,): 2, (1,): 3}, {(1,): 1},
                {(0,): 1, (2,): 1}, {(0,): -2, (2,): 3}]
    z = _mono(r)
    pool = [{z: 1, _mono(r, (1, 1)): 1}, {_mono(r, (1, 1)): 1, _mono(r, (r, 1)): 1},
            {z: 1, _mono(r, (r, 1)): 1}, {z: 2, _mono(r, (1, 1), (r, 1)): 3},
            {_mono(r, (r, 2)): 1, z: -1}, {z: 1, _mono(r, (1, 2)): 1}]
    if r == 3:
        pool += [{_mono(r, (2, 1)): 1, _mono(r, (3, 1)): 1}, {_mono(r, (1, 1), (2, 1)): 1, z: -1}]
    return pool


@st.composite
def _ring_poly(draw, r, nonzero=False):
    """An element of poly_ring(r): an integer content times up to 3 pool
    factors times a random polynomial, so that two draws often share
    factors and contents; zero unless ``nonzero``.  The random polynomial
    has degree <= 2 in each variable: in one variable any of its 3
    coefficients drawn from -6..6, in two any of its 9 (a dense 3x3 grid).
    In three variables the degree is <= 1, with up to 3 terms and 2
    factors: the primitive remainder sequences of larger draws take
    seconds each."""
    ring = poly_ring(r)
    contents = [1, -1, 2, -6]
    if r == 1:
        terms = {(i,): k for i, k in enumerate(draw(st.lists(st.integers(-6, 6), max_size=3))) if k}
        nfactors = 3
        contents = contents + [12]
    elif r == 2:
        grid = draw(st.lists(st.lists(st.integers(-4, 4), max_size=3), max_size=3))
        terms = {(i, j): k for i, row in enumerate(grid) for j, k in enumerate(row) if k}
        nfactors = 3
    else:
        terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 1)] * 3), st.integers(-4, 4), max_size=3))
        terms = {e: k for e, k in terms.items() if k}
        nfactors = 2
    if not terms:
        if not nonzero:
            return []
        terms = {_mono(r): draw(st.sampled_from([-3, -1, 1, 2]))}
    p = ring.of(terms)
    for f in draw(st.lists(st.sampled_from(_pool(r)), max_size=nfactors)):
        p = ring.mul(p, ring.of(f))
    return ring.mul(ring.const(draw(st.sampled_from(contents))), p)


def _as_mpoly(a, r=2, nvars=None, embed=lambda e: e):
    """The ``MPoly`` of an element of poly_ring(r), its exponents mapped by
    ``embed`` into ``nvars`` variables (default r)."""
    terms = poly_ring(r).terms(a).items()
    return MPoly(nvars or r, {embed(e): Fraction(k) for e, k in terms})


RANKS = [1, 2, 3]


def _ring_pairs(nonzero=False, ranks=(2, 3)):
    return st.sampled_from(ranks).flatmap(
        lambda r: st.tuples(st.just(r), _ring_poly(r, nonzero), _ring_poly(r, nonzero)))


@settings(max_examples=200, deadline=None)
@given(r=st.sampled_from([2, 3]), data=st.data())
def test_poly_ring_div_exact_inverts_mul_and_refuses_an_inexact_quotient(r, data):
    a = data.draw(_ring_poly(r), "a")
    b = data.draw(_ring_poly(r, nonzero=True), "b")
    ring = poly_ring(r)
    ab = ring.mul(a, b)
    assert ring.terms(ab) == _ref_mul(ring.terms(a), ring.terms(b))  # against a dict convolution
    assert ring.div_exact(ab, b) == a
    if b not in (ring.one, ring.neg(ring.one)):  # b divides ab + 1 only if it is a unit
        with pytest.raises(ValueError, match="inexact"):
            ring.div_exact(ring.add(ab, ring.one), b)
    if len(b) > 1:  # nor ab plus a nonzero remainder of lower degree in t1
        rem = data.draw(st.dictionaries(st.tuples(st.integers(0, len(b) - 2), *[st.integers(0, 2)] * (r - 1)),
                                        st.integers(-5, 5).filter(bool), min_size=1, max_size=3), "rem")
        with pytest.raises(ValueError, match="inexact"):
            ring.div_exact(ring.add(ab, ring.of(rem)), b)


def test_zz_div_exact_refuses_an_inexact_quotient():
    """The tower relies on its floor to refuse: Z[t1, t2] divides [[1]]
    by [[-3]] down to 1 / -3 in Z, which floor division would give as -1."""
    assert ZZ.div_exact(-12, 3) == -4 and ZZ.quo([6, -9, 0], -3) == [-2, 3, 0]
    for call in (lambda: ZZ.div_exact(7, 2), lambda: ZZ.div_exact(1, -3),
                 lambda: poly_ring(2).div_exact([[1]], [[-3]]), lambda: poly_ring(1).div_exact([3, 1], [3])):
        with pytest.raises(ValueError, match="inexact"):
            call()


@settings(max_examples=150, deadline=None)
@given(r=st.sampled_from([0] + RANKS), data=st.data())
def test_scale_and_mac_are_products_and_sums(r, data):
    """``scale`` and ``mac`` of every ring against its ``mul`` and ``add``:
    of Z (r = 0), of Z/7, and of the tower from Z[t]."""
    rings = [(poly_ring(r), lambda: _ring_poly(r) if r else st.integers(-9, 9))]
    if r == 0:
        rings.append((zmod_ring(7), lambda: st.integers(0, 6)))
    for ring, elem in rings:
        k = data.draw(elem(), "k")
        a, b = (data.draw(st.lists(elem(), min_size=1, max_size=3), name) for name in "ab")
        assert ring.scale(k, a) == [ring.mul(k, x) for x in a]
        acc = data.draw(st.lists(elem(), min_size=len(a) + len(b) - 1, max_size=len(a) + len(b)), "acc")
        want = list(acc)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                want[i + j] = ring.add(want[i + j], ring.mul(x, y))
        ring.mac(acc, a, b)
        assert acc == want


@settings(max_examples=200, deadline=None)
@given(rab=_ring_pairs())
def test_poly_ring_gcd_divides_both_with_coprime_cofactors(rab):
    r, a, b = rab
    ring = poly_ring(r)
    g = ring.gcd(a, b)
    if not a and not b:
        assert g == []
        return
    assert ring.lead(g) > 0
    u, v = ring.div_exact(a, g), ring.div_exact(b, g)
    assert ring.mul(u, g) == a and ring.mul(v, g) == b
    assert ring.gcd(u, v) == ring.one


@settings(max_examples=200, deadline=None)
@given(rab=_ring_pairs(nonzero=True))
def test_poly_ring_lcm_times_gcd_is_the_product(rab):
    r, a, b = rab
    ring = poly_ring(r)
    m = ring.lcm(a, b)
    assert ring.lead(m) > 0
    assert ring.mul(ring.div_exact(m, a), a) == m and ring.mul(ring.div_exact(m, b), b) == m
    ab = ring.mul(a, b)
    assert ring.mul(m, ring.gcd(a, b)) in (ab, ring.neg(ab))


# -- Z[t] = poly_ring(1), the first floor of the tower ---------------------------

ZX = poly_ring(1)


@settings(max_examples=200, deadline=None)
@given(a=_ring_poly(1), b=_ring_poly(1))
def test_zx_gcd_divides_both_with_coprime_cofactors(a, b):
    g = ZX.gcd(a, b)
    if not a and not b:
        assert g == []
        return
    assert g[-1] > 0
    u, v = ZX.div_exact(a, g), ZX.div_exact(b, g)
    assert ZX.mul(u, g) == a and ZX.mul(v, g) == b
    assert ZX.gcd(u, v) == [1]


@settings(max_examples=200, deadline=None)
@given(a=_ring_poly(1, nonzero=True), b=_ring_poly(1, nonzero=True), data=st.data())
def test_zx_div_exact_refuses_an_inexact_quotient(a, b, data):
    assert ZX.div_exact(ZX.mul(a, b), b) == a
    if len(b) > 1:  # a nonzero remainder of lower degree than b
        r = data.draw(st.lists(st.integers(-5, 5), min_size=1, max_size=len(b) - 1))
        r = ZX.of({(i,): k for i, k in enumerate(r) if k}) if any(r) else [1]
    elif abs(b[0]) > 1:  # an integer divisor that misses the constant term
        r = [1]
    else:
        return
    with pytest.raises(ValueError, match="inexact"):
        ZX.div_exact(ZX.add(ZX.mul(a, b), r), b)


@settings(max_examples=200, deadline=None)
@given(a=_ring_poly(1, nonzero=True), b=_ring_poly(1, nonzero=True))
def test_zx_lcm_is_divisible_by_both(a, b):
    m = ZX.lcm(a, b)
    assert m[-1] > 0
    assert ZX.mul(ZX.div_exact(m, a), a) == m and ZX.mul(ZX.div_exact(m, b), b) == m
    # the least such: lcm * gcd = +-a*b
    ab = ZX.mul(a, b)
    assert ZX.mul(m, ZX.gcd(a, b)) in (ab, [-x for x in ab])


@settings(max_examples=150, deadline=None)
@given(r=st.sampled_from(RANKS), data=st.data())
def test_poly_ring_dot_and_lincomb_equal_mul_and_add(r, data):
    ring = poly_ring(r)
    n = data.draw(st.integers(0, 4), "n")
    v = [data.draw(_ring_poly(r), "v") for _ in range(n)]
    col = [(i, y) for i in range(n) if (y := data.draw(_ring_poly(r), "y"))]
    want = []
    for i, y in col:
        want = ring.add(want, ring.mul(v[i], y))
    assert ring.dot(v, col) == want
    a, x, b, y = (data.draw(_ring_poly(r), k) for k in "axby")
    assert ring.lincomb(a, x, b, y) == ring.add(ring.mul(a, x), ring.mul(b, y))


@settings(max_examples=150, deadline=None)
@given(r=st.sampled_from(RANKS), data=st.data())
def test_poly_ring_of_and_terms_round_trip(r, data):
    ring = poly_ring(r)
    terms = data.draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * r), st.integers(-5, 5),
                                      min_size=1, max_size=5), "terms")
    terms = {e: k for e, k in terms.items() if k} or {(0,) * r: 1}
    a = ring.of(terms)
    assert ring.terms(a) == terms
    assert ring.lead(a) == terms[max(terms)]
    assert ring.is_const(a) == (list(terms) == [(0,) * r])
    p = data.draw(_ring_poly(r, nonzero=True), "p")
    assert ring.of(ring.terms(p)) == p


@settings(max_examples=150, deadline=None)
@given(f=_ring_poly(2), g=_ring_poly(2), s=_ring_poly(2, nonzero=True))
def test_mpoly_gcd_bivariate_path_agrees_with_recursive_path(f, g, s):
    """Operands in two variables, and the same operands embedded in three,
    take the ring gcd of their number of variables; each equals the
    recursive reference.  The second embedding changes the lex order,
    hence which monic multiple."""
    ring = poly_ring(2)
    f, g = ring.mul(f, s), ring.mul(g, s)
    h = mpoly_gcd(_as_mpoly(f), _as_mpoly(g))
    assert h == _reference_gcd(_as_mpoly(f), _as_mpoly(g))
    for embed in (lambda e: (e[0], e[1], 0), lambda e: (e[1], 0, e[0])):
        f3, g3 = _as_mpoly(f, 2, 3, embed), _as_mpoly(g, 2, 3, embed)
        want = _reference_gcd(f3, g3)
        assert mpoly_gcd(f3, g3) == want
        assert MPoly(3, {embed(e): c for e, c in h.terms.items()}).monic() == want


# -- the recursive primitive PRS: the reference of the ring gcd ------------------
#
# The gcd of MPoly values in any number of variables as ``fields`` computed
# it before the ring tower: the primitive pseudo-remainder sequence in the
# smallest common variable, with contents taken recursively (Collins 1967),
# down to the dense Z[t] gcd ``zx_gcd`` for two polynomials in one variable.
# It shares no code with the gcd, pseudo-remainders and contents of the
# nested rings of ``poly_ring``, and reads its operands through their public
# terms only.  The MPoly products, differences and exact quotients it uses
# run in the ring tower; they are checked against the Fraction dicts of
# ``_ref_add`` and ``_ref_mul`` above.

def _dense_prem(a: list, b: list) -> list:
    """Primitive part of a nonzero integer multiple of ``a mod b``, for
    integer coefficient lists (index = degree, no trailing zero) with
    ``deg a >= deg b``.  Each step scales by ``lc(b)/g`` and subtracts
    ``lc(r)/g`` times a shift of b, with ``g = gcd(lc(r), lc(b))``; the
    multiples do not matter to a gcd over Q[t]."""
    db = len(b) - 1
    lb = b[-1]
    r = a
    while len(r) > db:
        lr = r[-1]
        g = gcd(lr, lb)
        u, w = lb // g, lr // g
        k = len(r) - 1 - db
        r = [u * x for x in r] if u != 1 else list(r)
        for i, y in enumerate(b):
            r[k + i] -= w * y
        r.pop()
        while r and not r[-1]:
            r.pop()
    if r:
        h = gcd(*r)
        if h != 1:
            r = [x // h for x in r]
    return r


def zx_gcd(a: list, b: list) -> list:
    """gcd in Z[t] with a positive leading coefficient, [] for gcd(0, 0):
    the gcd of the integer contents times the primitive gcd, which a
    primitive pseudo-remainder sequence over Z gives (Collins 1967).  A
    constant operand makes it the integer gcd of all coefficients."""
    if not a or not b:
        a = a or b
        return a if not a or a[-1] > 0 else [-x for x in a]
    if len(a) == 1 or len(b) == 1:
        return [gcd(*a, *b)]
    ca, cb = gcd(*a), gcd(*b)
    if ca != 1:
        a = [x // ca for x in a]
    if cb != 1:
        b = [x // cb for x in b]
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        a, b = b, _dense_prem(a, b)
    c = gcd(ca, cb)
    if b:  # a nonzero constant remainder: the primitive parts are coprime
        return [c]
    if a[-1] < 0:
        c = -c
    return a if c == 1 else [c * x for x in a]


def _deg(f, i):
    return max((e[i] for e in f.terms), default=0)


def _active_vars(f):
    out = set()
    for e in f.terms:
        for i, k in enumerate(e):
            if k:
                out.add(i)
    return out


def _coeffs_in(f, v):
    """Collect as a polynomial in variable ``v``: degree -> MPoly coefficient."""
    out: dict = {}
    for e, c in f.terms.items():
        out.setdefault(e[v], {})[e[:v] + (0,) + e[v + 1 :]] = c
    return {d: MPoly(f.nvars, t) for d, t in out.items()}


def _prem(f, g, v):
    """Pseudo-remainder of f by g with respect to variable v."""
    dg = _deg(g, v)
    lg = _coeffs_in(g, v)[dg]
    rem = f
    while not rem.is_zero() and _deg(rem, v) >= dg:
        d = _deg(rem, v)
        lr = _coeffs_in(rem, v)[d]
        # lg*rem - lr*t^(d-dg)*g kills the degree-d coefficient
        tpow = MPoly(f.nvars, {tuple(d - dg if i == v else 0 for i in range(f.nvars)): Fraction(1)})
        rem = lg * rem - lr * tpow * g
    return rem


def _content(f, v):
    cs = list(_coeffs_in(f, v).values())
    g = cs[0]
    for c in cs[1:]:
        g = _reference_gcd(g, c)
        if g.is_const():
            break
    return g


def _dense_gcd(f, g, v):
    """Monic gcd of two polynomials in the single variable ``v``: the dense
    gcd :func:`zx_gcd` of integer multiples of them."""
    lists = []
    for q in (f, g):
        terms = q.terms
        den = math.lcm(*(c.denominator for c in terms.values()))
        a = [0] * (_deg(q, v) + 1)
        for e, c in terms.items():
            a[e[v]] = c.numerator * (den // c.denominator)
        lists.append(a)
    a = zx_gcd(*lists)
    if len(a) == 1:  # coprime
        return MPoly.const(f.nvars, 1)
    e = [0] * f.nvars
    p = {}
    for d, k in enumerate(a):
        if k:
            e[v] = d
            p[tuple(e)] = Fraction(k, a[-1])
    return MPoly(f.nvars, p)


def _reference_gcd(f, g):
    """Monic gcd via the primitive pseudo-remainder sequence: dense over Z
    when both operands are polynomials in one and the same variable, and
    recursive in the smallest common variable otherwise."""
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    if f.is_const() or g.is_const():
        return MPoly.const(f.nvars, 1)
    vf, vg = _active_vars(f), _active_vars(g)
    common = vf & vg
    if not common:
        return MPoly.const(f.nvars, 1)
    v = min(common)
    if len(vf) == 1 and vf == vg:
        return _dense_gcd(f, g, v)
    cf, cg = _content(f, v), _content(g, v)
    a, b = f.div_exact(cf), g.div_exact(cg)
    if _deg(a, v) < _deg(b, v):
        a, b = b, a
    while not b.is_zero():
        r = _prem(a, b, v)
        a = b
        if r.is_zero():
            b = r
        else:
            b = r.div_exact(_content(r, v))
    return (_reference_gcd(cf, cg) * a).monic()
