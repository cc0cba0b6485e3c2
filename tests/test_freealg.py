"""Free-algebra polynomials: ring axioms, grading, the tau/delta pair."""

import random
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from ratskew.fields import QQ, field_from_name
from ratskew.freealg import FreeElem

F7 = field_from_name("fp:7")


def polys(field):
    term = st.tuples(st.lists(st.integers(0, 2), max_size=3).map(tuple),
                     st.integers(-4, 4))
    def build(terms):
        out = FreeElem.zero(field)
        for w, c in terms:
            out = out + FreeElem.word(field, w, field.from_int(c))
        return out
    return st.lists(term, max_size=4).map(build)


@given(polys(QQ), polys(QQ), polys(QQ))
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a - a == FreeElem.zero(QQ)


@given(polys(F7), polys(F7))
@settings(max_examples=40)
def test_noncommutative_only_through_words(a, b):
    # scalars always commute; words generally do not
    two = FreeElem.scalar(F7, F7.from_int(2))
    assert two * a == a * two
    assert a * b - b * a == -(b * a - a * b)


# -- results free of zeros: q, fp:7, qt:1 and qt:2 ---------------------------

ZERO_FREE_FIELDS = [QQ, F7, field_from_name("qt:1"), field_from_name("qt:2")]


def _scalars(field):
    """Small scalars, so that sums and products cancel often; over qt:r also
    t1 and 1/(t1 + 1)."""
    ints = st.integers(-2, 2).map(field.from_int)
    if not hasattr(field, "var"):
        return ints
    t = field.var(0)
    return st.one_of(ints, st.sampled_from([t, -t, field.one() / (t + 1)]))


def _free_polys(field):
    term = st.tuples(st.lists(st.integers(0, 1), max_size=2).map(tuple), _scalars(field))
    return st.lists(term, max_size=4).map(
        lambda terms: FreeElem(field, _summed((w, c) for w, c in terms)))


def _summed(pairs):
    """The words of (word, scalar) pairs with their scalars summed, zeros
    kept: the input of a reference that filters zeros itself."""
    out = {}
    for w, c in pairs:
        out[w] = out[w] + c if w in out else c
    return out


def _nonzero(d):
    return {w: c for w, c in d.items() if c}


@pytest.mark.parametrize("field", ZERO_FREE_FIELDS, ids=lambda f: f.name)
@given(data=st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_results_hold_no_zero_and_match_a_filtering_reference(field, data):
    """Sums, products, negatives, scalings and deltas are built with no
    second filter: each holds no zero coefficient and equals the reference
    that sums every term and then drops the zeros."""
    a, b = data.draw(_free_polys(field)), data.draw(_free_polys(field))
    c = data.draw(_scalars(field))
    results = {
        "sum": (a + b, _summed(chain(a.coeffs.items(), b.coeffs.items()))),
        "product": (a * b, _summed((u + v, x * y) for u, x in a.coeffs.items() for v, y in b.coeffs.items())),
        "negative": (-a, {w: -x for w, x in a.coeffs.items()}),
        "scale": (a.scale(c), {w: c * x for w, x in a.coeffs.items()}),
    }
    for i in (0, 1):
        results["delta%d" % i] = (a.delta(i), {w[:-1]: x for w, x in a.coeffs.items() if w and w[-1] == i})
    for name, (got, ref) in results.items():
        assert all(got.coeffs.values()), name
        assert got.coeffs == _nonzero(ref), name


@pytest.mark.parametrize("field", ZERO_FREE_FIELDS, ids=lambda f: f.name)
def test_a_zero_summand_gives_the_other_one(field):
    a = FreeElem.word(field, (0, 1), field.from_int(3)) + FreeElem.letter(field, 1)
    zero = FreeElem.zero(field)
    assert a + zero is a and zero + a is a


def test_letters_do_not_commute():
    x0 = FreeElem.letter(QQ, 0)
    x1 = FreeElem.letter(QQ, 1)
    assert x0 * x1 != x1 * x0


@given(polys(QQ), polys(QQ), st.integers(0, 2))
@settings(max_examples=60)
def test_delta_product_law(a, b, i):
    # delta picks coefficients of words ending in the letter; on products it
    # acts through the augmentation of the right factor plus a carry term
    lhs = (a * b).delta(i)
    rhs = a.delta(i).scale(b.tau()) + a * b.delta(i)
    assert lhs == rhs


@given(polys(QQ))
def test_delta_reconstruction(a):
    # a = tau(a) + sum_i delta_i(a) * x_i
    acc = FreeElem.scalar(QQ, a.tau())
    for i in range(3):
        acc = acc + a.delta(i) * FreeElem.letter(QQ, i)
    assert acc == a


@given(polys(QQ))
def test_order_degree_min_word(a):
    if not a:
        assert a.degree() is None and a.min_word() is None
        return
    mw, d = a.min_word(), a.degree()
    o = len(mw)
    assert 0 <= o <= d
    assert a.coeff(mw)
    assert all(o <= len(w) <= d for w in a.coeffs)


def test_power_and_inverse():
    x = FreeElem.letter(QQ, 0)
    assert x ** 3 == x * x * x
    assert x ** 0 == FreeElem.one(QQ)
    two = FreeElem.scalar(QQ, QQ.from_int(2))
    assert two.inv() * two == FreeElem.one(QQ)
    with pytest.raises(ValueError):
        (x + two).inv()  # not a scalar


@pytest.mark.parametrize("field", [QQ, F7], ids=lambda f: f.name)
def test_json_round_trip(field):
    rng = random.Random(3)
    for _ in range(25):
        a = FreeElem.zero(field)
        for _ in range(rng.randint(0, 4)):
            w = tuple(rng.randrange(3) for _ in range(rng.randint(0, 3)))
            a = a + FreeElem.word(field, w, field.random(rng))
        assert FreeElem.from_json(field, a.to_json()) == a


def test_from_json_refuses_a_repeated_word():
    obj = {"field": "q", "terms": [[[0, 1], "2"], [[1], "1"], [[0, 1], "-1/2"]]}
    with pytest.raises(ValueError, match=r"the term \(0, 1\) is listed twice"):
        FreeElem.from_json(QQ, obj)


@pytest.mark.parametrize("terms", [5, None, [[[0], "1", "2"]], [[[0]]], [["0", "1"]], [[[0, "1"], "1"]], [3]])
def test_from_json_refuses_misshapen_terms(terms):
    with pytest.raises(ValueError, match=r"must be (a list of )?\[word, coefficient\]"):
        FreeElem.from_json(QQ, {"field": "q", "terms": terms})


def test_render():
    x0, x1 = FreeElem.letter(QQ, 0), FreeElem.letter(QQ, 1)
    one = FreeElem.one(QQ)
    assert (one - x0 * x1).render() == "1 - x0*x1"
    assert FreeElem.zero(QQ).render() == "0"
