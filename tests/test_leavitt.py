"""Monoword algebras: basis arithmetic, the unit-sum rewriting system, and
the two paired-witness constructions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ratskew.fields import QQ, field_from_name
from ratskew.leavitt import (PairedWitness, UElem, is_v_reduced, mono_mul,
                             uinf_witness, v_equal, v_is_zero, v_normal_form,
                             v_witness)
from ratskew.skew import CoeffDomain, SkewRing, t_equal

F7 = field_from_name("fp:7")
QT1 = field_from_name("qt:1")


def rand_uelem(rng, field, n, deg=2, terms=3, units_only=True):
    hi = n if n else 4
    a = UElem.zero(field, n)
    for _ in range(rng.randint(1, terms)):
        I = tuple(rng.randint(1, hi) for _ in range(rng.randint(0, deg)))
        J = tuple(rng.randint(1, hi) for _ in range(rng.randint(0, deg)))
        c = field.random(rng, units_only=units_only)
        a = a + UElem.mono(field, I, J, c, n)
    return a


# -- monoword multiplication -------------------------------------------------

def test_mono_mul_pinned_cases():
    # x_J y_K contraction: the shorter word must match the facing end of the longer
    assert mono_mul((), (1,), (1,), ()) == ((), ())
    assert mono_mul((), (1,), (2,), ()) is None
    assert mono_mul((1,), (2,), (2,), (3,)) == ((1,), (3,))
    # leftover letters stay on the side that had more
    assert mono_mul((), (1, 2), (2,), ()) == ((), (1,))
    assert mono_mul((), (2,), (2, 1), ()) == ((1,), ())
    assert mono_mul((), (1, 2), (1,), ()) is None
    assert mono_mul((), (), (5,), (6,)) == ((5,), (6,))


def test_mono_mul_against_string_model():
    # oracle: reduce the word y_I x_J y_K x_L with x_i y_j -> delta_ij
    def oracle(I, J, K, L):
        J, K = list(J), list(K)
        while J and K:
            if J[-1] != K[0]:
                return None
            J.pop()
            K.pop(0)
        if J:   # x letters left over: they precede x_L
            return (tuple(I), tuple(J) + tuple(L))
        return (tuple(I) + tuple(K), tuple(L))

    rng = random.Random(3)
    for _ in range(300):
        I, J, K, L = (tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3)))
                      for _ in range(4))
        assert mono_mul(I, J, K, L) == oracle(I, J, K, L)


def test_uelem_xy_relations():
    for n in (None, 2, 3):
        one = UElem.one(QQ, n)
        hi = n or 3
        for i in range(1, hi + 1):
            for j in range(1, hi + 1):
                prod = UElem.gen_x(QQ, i, n) * UElem.gen_y(QQ, j, n)
                assert prod == (one if i == j else UElem.zero(QQ, n))


def test_u_mul_associative_unbounded():
    rng = random.Random(7)
    for _ in range(40):
        a, b, c = (rand_uelem(rng, QQ, None, units_only=False) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


# -- the unit-sum rewriting system --------------------------------------------

def test_unit_sum_relation():
    for n in (2, 3, 4):
        acc = UElem.zero(QQ, n)
        for i in range(1, n + 1):
            acc = acc + UElem.gen_y(QQ, i, n) * UElem.gen_x(QQ, i, n)
        assert v_equal(acc, UElem.one(QQ, n))


def test_junction_rewrite_pinned():
    # y_n x_n -> 1 - sum_{i<n} y_i x_i
    n = 2
    a = UElem.mono(QQ, (2,), (2,), None, n)
    nf = v_normal_form(a)
    want = UElem.one(QQ, n) - UElem.mono(QQ, (1,), (1,), None, n)
    assert nf == want
    assert is_v_reduced(nf)
    assert not is_v_reduced(a)


@pytest.mark.parametrize("n", [2, 3])
def test_confluence_evidence(n):
    # 250 random pairs per rank: the normal form is a ring morphism fixed
    # point no matter how the junctions arrived
    rng = random.Random(11 + n)
    for _ in range(250):
        a = rand_uelem(rng, QQ, n, units_only=False)
        b = rand_uelem(rng, QQ, n, units_only=False)
        na, nb = v_normal_form(a), v_normal_form(b)
        assert v_normal_form(na) == na  # idempotent
        assert is_v_reduced(na)
        assert v_normal_form(a + b) == v_normal_form(na + nb)
        assert v_normal_form(a * b) == v_normal_form(na * nb)


def test_v_zero_and_equal():
    n = 2
    e_like = UElem.one(QQ, n)
    for i in range(1, n + 1):
        e_like = e_like - UElem.mono(QQ, (i,), (i,), None, n)
    assert v_is_zero(e_like)
    a = rand_uelem(random.Random(13), QQ, n)
    assert v_equal(a + e_like, a)


# -- witnesses over a fixed rank ------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("field", [QQ, F7], ids=lambda f: f.name)
def test_v_witness_soundness(n, field):
    rng = random.Random(17)
    produced = 0
    while produced < 25:
        a = rand_uelem(rng, field, n, deg=3)
        if v_is_zero(a):
            continue
        w = v_witness(a)
        assert w.ok
        assert v_equal(w.beta * a * w.gamma, UElem.one(field, n))
        produced += 1


def test_v_witness_of_example():
    w = v_witness(UElem.mono(QQ, (1,), (2,), None, 2))
    assert w.ok
    assert w.beta.render() == "x1"
    assert w.gamma.render() == "y2"
    assert w.product.render() == "1"


def test_v_witness_rejects_zero():
    n = 2
    z = UElem.one(QQ, n)
    for i in range(1, n + 1):
        z = z - UElem.mono(QQ, (i,), (i,), None, n)
    with pytest.raises(ValueError):
        v_witness(z)
    with pytest.raises(ValueError):
        v_witness(UElem.gen_x(QQ, 1))  # no letter bound


# -- witnesses over the unbounded alphabet ----------------------------------------

def test_uinf_witness_soundness():
    rng = random.Random(19)
    one = UElem.one(QQ, None)
    for _ in range(50):
        a = rand_uelem(rng, QQ, None, deg=3)
        w = uinf_witness(a)
        assert w.ok
        assert w.beta * a * w.gamma == one


def test_uinf_witness_beyond():
    a = UElem.mono(QQ, (1,), (2,), None, None) + UElem.mono(QQ, (3,), (), None, None)
    w = uinf_witness(a, beyond=9)
    assert w.ok
    # the fresh letter sits above the ambient alphabet, not just above a
    assert all(i > 9 for m in w.beta.coeffs for i in m[0] + m[1] if i > 3)


def test_uinf_witness_requires_unbounded():
    with pytest.raises(ValueError):
        uinf_witness(UElem.gen_y(QQ, 1, 2))
    with pytest.raises(ValueError):
        uinf_witness(UElem.zero(QQ, None))


# -- agreement with the skew quotient ----------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_matches_skew_quotient(n):
    # V with letters 1..n is the skew quotient with letters 0..n-1: shift
    # indices and compare equalities on random products
    ring = SkewRing(CoeffDomain("free", QQ), n - 1)

    def image(a: UElem):
        out = ring.zero()
        for (I, J), c in a.coeffs.items():
            term = ring.yword(tuple(i - 1 for i in I)) * ring.x_word(tuple(j - 1 for j in J))
            out = out + term.scale(c)
        return out

    rng = random.Random(23)
    for _ in range(20):
        a = rand_uelem(rng, QQ, n, units_only=False)
        b = rand_uelem(rng, QQ, n, units_only=False)
        assert t_equal(image(a) * image(b), image(a * b))
        assert bool(t_equal(image(a), image(b))) == v_equal(a, b)
        assert bool(t_equal(image(a), ring.zero())) == v_is_zero(a)


# -- plumbing -----------------------------------------------------------------------

def test_scale_and_degrees():
    a = UElem.mono(QQ, (1, 2), (2,), QQ.from_int(3), None)
    assert a.y_degree() == 2 and a.x_degree() == 1 and a.degree() == 3
    assert a.scale(QQ.from_int(2)).coeffs[((1, 2), (2,))] == QQ.from_int(6)


@pytest.mark.parametrize("field", [QQ, F7], ids=lambda f: f.name)
@pytest.mark.parametrize("n", [None, 3])
def test_json_round_trip(field, n):
    rng = random.Random(29)
    for _ in range(15):
        a = rand_uelem(rng, field, n, units_only=False)
        assert UElem.from_json(field, a.to_json()) == a


def test_witness_json_carries_everything():
    a = UElem.mono(QQ, (1,), (2,), None, 2)
    j = v_witness(a).to_json()
    assert j["kind"] == "paired_witness" and j["mode"] == "v"
    a2 = UElem.from_json(QQ, j["input"])
    beta = UElem.from_json(QQ, j["beta"])
    gamma = UElem.from_json(QQ, j["gamma"])
    assert v_equal(beta * a2 * gamma, UElem.one(QQ, 2))


def test_render():
    a = UElem.mono(QQ, (1,), (2,), None, None)
    assert a.render() == "y1*x2"
    assert UElem.zero(QQ).render() == "0"


# -- exactness against the plain arithmetic ------------------------------------------
#
# The arithmetic skips field operations whose result is known (a product
# with one, a first term added to zero) and builds its results unchecked.
# These are the plain versions it replaced, kept as the reference: every
# operation adds and multiplies in the field, and the checking constructor
# drops the zero coefficients at the end.

def ref_add(self, other):
    self._check(other)
    t = dict(self.coeffs)
    for m, c in other.coeffs.items():
        t[m] = t.get(m, self.field.zero()) + c
    return UElem(self.field, t, self.n)


def ref_scale(self, c):
    if not c:
        return UElem.zero(self.field, self.n)
    return UElem(self.field, {m: v * c for m, v in self.coeffs.items()}, self.n)


def ref_mul(self, other):
    self._check(other)
    out: dict = {}
    for (I, J), a in self.coeffs.items():
        for (K, L), b in other.coeffs.items():
            m = mono_mul(I, J, K, L)
            if m is None:
                continue
            out[m] = out.get(m, self.field.zero()) + a * b
    return UElem(self.field, out, self.n)


def ref_v_normal_form(a):
    n = a.n
    if n is None:
        raise ValueError("normal form needs the letter bound n")
    if n < 1:
        raise ValueError("n must be >= 1")
    field = a.field
    out: dict = {}
    cur = dict(a.coeffs)
    while cur:
        nxt: dict = {}

        def put(d, m, c):
            d[m] = d.get(m, field.zero()) + c

        for (I, J), c in cur.items():
            if not c:
                continue
            if I and J and I[-1] == n and J[0] == n:
                I2, J2 = I[:-1], J[1:]
                put(nxt, (I2, J2), c)
                for i in range(1, n):
                    put(nxt, (I2 + (i,), (i,) + J2), -c)
            else:
                put(out, (I, J), c)
        cur = nxt
    return UElem(field, out, n)


def _coefficients(field):
    """Scalars to draw from; None stands for the default coefficient, the
    field's own one(), which the arithmetic recognises by identity."""
    vals = [None, field.from_int(1), field.from_int(-1), field.from_int(2),
            field.from_fraction(Fraction(-2, 3)), field.from_fraction(Fraction(1, 2))]
    if field is QT1:
        t = QT1.var(0)
        vals += [t, QT1.one() / (t + 1)]
    return vals


@st.composite
def _elem(draw, field, n):
    """A sum of up to four monowords of length <= 3 on letters 1..3 (or
    1..n), accumulated with the reference sum, so repeated monowords add up
    and may cancel."""
    vals = _coefficients(field)
    word = st.lists(st.integers(1, n or 3), max_size=3).map(tuple)
    a = UElem.zero(field, n)
    for I, J, c in draw(st.lists(st.tuples(word, word, st.sampled_from(vals)), max_size=4)):
        a = ref_add(a, UElem.mono(field, I, J, c, n))
    return a


@st.composite
def _operands(draw, ns=(None, 2, 3)):
    field = draw(st.sampled_from([QQ, F7, QT1]))
    n = draw(st.sampled_from(ns))
    return field, n, draw(_elem(field, n)), draw(_elem(field, n))


def _assert_same(got, want):
    assert (got.field, got.n) == (want.field, want.n)
    assert got.coeffs == want.coeffs
    assert all(got.coeffs.values()), "a zero coefficient is stored"


def _cancelling_factors(a, b):
    """(a*x1 - a*x2, y1*b + y2*b), whose product a*b - a*b cancels term by
    term inside one multiplication."""
    f, n = a.field, a.n
    minus_one = -f.one()
    left = ref_add(ref_mul(a, UElem.gen_x(f, 1, n)),
                   ref_scale(ref_mul(a, UElem.gen_x(f, 2, n)), minus_one))
    right = ref_add(ref_mul(UElem.gen_y(f, 1, n), b), ref_mul(UElem.gen_y(f, 2, n), b))
    return left, right


@given(_operands())
@settings(max_examples=150, deadline=None)
def test_sum_and_scale_match_reference(ops):
    field, n, a, b = ops
    neg_a = ref_scale(a, -field.one())
    for x, y in ((a, b), (a, neg_a), (ref_add(a, b), neg_a), (b, a)):
        _assert_same(x + y, ref_add(x, y))
        _assert_same(x - y, ref_add(x, ref_scale(y, -field.one())))
    _assert_same(-a, neg_a)
    assert not (a + neg_a).coeffs
    for c in _coefficients(field) + [field.zero()]:
        c = field.one() if c is None else c
        _assert_same(a.scale(c), ref_scale(a, c))


@given(_operands())
@settings(max_examples=150, deadline=None)
def test_product_matches_reference(ops):
    field, n, a, b = ops
    _assert_same(a * b, ref_mul(a, b))
    left, right = _cancelling_factors(a, b)
    _assert_same(left * right, ref_mul(left, right))
    assert not (left * right).coeffs
    # partly cancelling: only a*right survives
    left = ref_add(left, a)
    _assert_same(left * right, ref_mul(left, right))


@given(_operands(ns=(2, 3)))
@settings(max_examples=150, deadline=None)
def test_normal_form_matches_reference(ops):
    field, n, a, b = ops
    unit_sum = UElem.one(field, n).scale(-field.one())
    for i in range(1, n + 1):
        unit_sum = ref_add(unit_sum, ref_mul(UElem.gen_y(field, i, n), UElem.gen_x(field, i, n)))
    # multiples of the unit-sum relation: their junctions rewrite into
    # terms that cancel
    for x in (a, ref_mul(a, b), ref_add(a, ref_mul(unit_sum, b)),
              ref_add(a, ref_mul(ref_mul(b, unit_sum), a)), ref_mul(*_cancelling_factors(a, b))):
        _assert_same(v_normal_form(x), ref_v_normal_form(x))


def test_from_json_refuses_a_repeated_monoword():
    obj = {"field": "q", "n": 3, "terms": [[[1], [2], "1"], [[], [], "2"], [[1], [2], "1/2"]]}
    with pytest.raises(ValueError, match=r"the term \(\(1,\), \(2,\)\) is listed twice"):
        UElem.from_json(QQ, obj)
    # the same word in y and in x is two different terms
    assert len(UElem.from_json(QQ, {"field": "q", "n": 3, "terms": [[[1], [], "1"], [[], [1], "1"]]}).coeffs) == 2


@pytest.mark.parametrize("terms", [5, None, "terms", [[[1], "1"]], [[[1], [], [], "1"]], [[[1], 2, "1"]],
                                   [[["1"], [], "1"]], [[[1.0], [], "1"]], [5]])
def test_from_json_refuses_misshapen_terms(terms):
    """terms must be a list of [y word, x word, coefficient] with words of
    integer letters: anything else is a ValueError, not a TypeError or an
    unpacking error."""
    with pytest.raises(ValueError, match=r"must be (a list of )?\[word, word, coefficient\]"):
        UElem.from_json(QQ, {"field": "q", "n": 3, "terms": terms})


def test_from_json_checks_letters_and_drops_zeros():
    # from_json reads certificates: it must refuse letters outside 1..n
    with pytest.raises(ValueError, match="letter 9 outside 1..3"):
        UElem.from_json(QQ, {"field": "q", "n": 3, "terms": [[[9], [], "1"]]})
    with pytest.raises(ValueError, match="letter 0 outside"):
        UElem.from_json(QQ, {"field": "q", "n": None, "terms": [[[], [0], "1"]]})
    a = UElem.from_json(QQ, {"field": "q", "n": 3, "terms": [[[1], [], "0"], [[2], [], "1/2"]]})
    assert a.coeffs == {((2,), ()): Fraction(1, 2)}
