"""Free-algebra polynomials: ring axioms, grading, the tau/delta pair."""

import random

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
