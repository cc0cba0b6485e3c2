"""The extension ring: defining relations, the quotient ideal, witnesses,
and the verified word-system recursion."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from ratskew import linrep, skew
from ratskew.cli import recheck_certificate
from ratskew.expr import eval_skew
from ratskew.fields import QQ, field_from_name
from ratskew.freealg import FreeElem
from ratskew.linrep import LinRep
from ratskew.truncated import TruncSeries
from ratskew.skew import (CoeffDomain, SkewElem, SkewRing, TWitness, Verdict,
                          ideal_member, lemma51_word, t_equal,
                          t_witness, verify_word_system)

F7 = field_from_name("fp:7")

RAT = SkewRing(CoeffDomain("rat", QQ), 2)
FREE = SkewRing(CoeffDomain("free", QQ), 2)
TRUNC = SkewRing(CoeffDomain("trunc", QQ, 12), 2)
RINGS = [FREE, RAT, TRUNC]


def rand_coeff(rng, ring, terms=2, maxlen=2):
    out = ring.domain.zero()
    for _ in range(rng.randint(1, terms)):
        w = tuple(rng.randrange(ring.n + 1) for _ in range(rng.randint(0, maxlen)))
        out = out + ring.domain.word(w, ring.domain.field.random(rng))
    return out


def rand_elem(rng, ring, ydeg=2, terms=3):
    a = ring.zero()
    for _ in range(rng.randint(1, terms)):
        w = tuple(rng.randrange(ring.n + 1) for _ in range(rng.randint(0, ydeg)))
        a = a + ring.yword(w) * ring.embed(rand_coeff(rng, ring))
    return a


# -- defining relations -------------------------------------------------------

@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.domain.kind)
def test_xy_relations(ring):
    one = ring.one()
    zero = ring.zero()
    for i in range(ring.n + 1):
        for j in range(ring.n + 1):
            want = one if i == j else zero
            assert ring.x(i) * ring.y(j) == want


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.domain.kind)
def test_idempotent_relations(ring):
    e = ring.e()
    one = ring.one()
    assert e * e == e
    acc = e
    for i in range(ring.n + 1):
        acc = acc + ring.y(i) * ring.x(i)
    assert acc == one
    for j in range(ring.n + 1):
        assert e * ring.y(j) == ring.zero()
        assert ring.x(j) * e == ring.zero()


@pytest.mark.parametrize("ring", [FREE, RAT], ids=lambda r: r.domain.kind)
def test_commutation_rule(ring):
    # r*y_i = y_i*tau(r) + delta_i(r): multiplication implements the skew pair
    rng = random.Random(17)
    for _ in range(20):
        r = rand_coeff(rng, ring, terms=3)
        a = ring.embed(r)
        for i in range(ring.n + 1):
            lhs = a * ring.y(i)
            rhs = ring.y(i) * ring.scalar(r.tau()) + ring.embed(r.delta(i))
            assert lhs == rhs


def test_x_sections_cancel_y():
    rng = random.Random(19)
    for _ in range(20):
        r = rand_coeff(rng, RAT, terms=3)
        a = RAT.embed(r)
        for i in range(3):
            for j in range(3):
                want = a if i == j else RAT.zero()
                assert RAT.x(i) * (RAT.y(j) * a) == want


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.domain.kind)
def test_associativity_random(ring):
    rng = random.Random(23)
    for _ in range(12):
        a, b, c = (rand_elem(rng, ring) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_corner_is_scalar_multiple_of_e():
    # e*S*e collapses to field multiples of e
    rng = random.Random(29)
    e = RAT.e()
    for _ in range(20):
        a = rand_elem(rng, RAT)
        eae = e * a * e
        r = eae.data.get((), RAT.domain.zero())
        # the unit-word coefficient is a plain scalar, and it determines all of eae
        assert r == RAT.domain.scalar(r.tau())
        assert eae == RAT.scalar(r.tau()) * e


# -- cross-backend agreement ----------------------------------------------------

def test_backends_agree_on_polynomials():
    rng = random.Random(37)
    rng2 = random.Random(37)
    rng3 = random.Random(37)
    for _ in range(10):
        a_f = rand_elem(rng, FREE)
        b_f = rand_elem(rng, FREE)
        a_r = rand_elem(rng2, RAT)
        b_r = rand_elem(rng2, RAT)
        a_t = rand_elem(rng3, TRUNC)
        b_t = rand_elem(rng3, TRUNC)
        p_f, p_r, p_t = a_f * b_f, a_r * b_r, a_t * b_t
        assert set(p_f.data) == set(p_r.data)
        for w, c in p_f.data.items():
            assert LinRep.from_free(c) == p_r.data[w]
            if w in p_t.data:
                assert TruncSeries.from_free(c, p_t.data[w].precision) == p_t.data[w]


# -- the ideal ------------------------------------------------------------------

def test_ideal_membership_families():
    rng = random.Random(41)
    e = RAT.e()
    for _ in range(40):
        # sums of y_I * e * r always belong
        a = RAT.zero()
        for _ in range(rng.randint(1, 2)):
            w = tuple(rng.randrange(3) for _ in range(rng.randint(0, 3)))
            a = a + RAT.yword(w) * e * RAT.embed(rand_coeff(rng, RAT))
        assert ideal_member(a)
    for _ in range(40):
        # nonzero plain coefficients never do
        r = rand_coeff(rng, RAT)
        if not r:
            continue
        assert not ideal_member(RAT.embed(r))


def test_ideal_two_sided():
    rng = random.Random(43)
    e = RAT.e()
    for _ in range(15):
        w = tuple(rng.randrange(3) for _ in range(rng.randint(0, 2)))
        a = RAT.yword(w) * e * RAT.embed(rand_coeff(rng, RAT))
        s, t = rand_elem(rng, RAT, ydeg=1, terms=2), rand_elem(rng, RAT, ydeg=1, terms=2)
        assert ideal_member(s * a)
        assert ideal_member(a * t)
        assert ideal_member(s * a * t)


def test_ideal_member_verdict_precision():
    v = ideal_member(RAT.e())
    assert v.value and v.precision is None  # exact backend gives exact verdicts
    vt = ideal_member(TRUNC.e())
    assert vt.value and vt.precision is not None


def test_t_equal_is_congruence():
    rng = random.Random(47)
    e = RAT.e()
    for _ in range(10):
        a = rand_elem(rng, RAT)
        i = RAT.yword((0,)) * e * RAT.embed(rand_coeff(rng, RAT))
        assert t_equal(a, a)
        assert t_equal(a + i, a)
        assert t_equal(a * RAT.y(1) + i * RAT.y(1), a * RAT.y(1))


def test_quotient_collapses_e_only():
    assert t_equal(RAT.e(), RAT.zero())
    assert not t_equal(RAT.one(), RAT.zero())
    assert not t_equal(RAT.y(0), RAT.zero())


# -- minimal-word units (the named construction) ----------------------------------

def test_lemma51_word_single():
    rng = random.Random(53)
    for _ in range(40):
        r = rand_coeff(rng, RAT, terms=3, maxlen=3)
        if not r:
            continue
        w = lemma51_word([r])
        prod = RAT.embed(r) * RAT.yword(w)
        assert set(prod.data) <= {()}
        assert prod.data[()].tau() != QQ.zero()


def test_lemma51_word_multi():
    rng = random.Random(59)
    for _ in range(25):
        rs = [r for r in (rand_coeff(rng, RAT, terms=2, maxlen=3) for _ in range(3)) if r]
        if len(rs) < 3:
            continue
        w = lemma51_word(rs)
        prods = [RAT.embed(r) * RAT.yword(w) for r in rs]
        assert all(set(p.data) <= {()} for p in prods)
        # the minimal-order input is the one guaranteed to pick up a unit
        orders = [len(r.min_word()) for r in rs]
        k = orders.index(min(orders))
        assert prods[k].data[()].tau() != QQ.zero()


def test_lemma51_word_rejects_zero():
    with pytest.raises(ValueError):
        lemma51_word([RAT.domain.zero()])
    with pytest.raises(ValueError):
        lemma51_word([])


# -- witnesses ---------------------------------------------------------------------

def test_t_witness_soundness():
    rng = random.Random(61)
    produced = 0
    while produced < 30:
        a = rand_elem(rng, RAT, ydeg=3, terms=3)
        if ideal_member(a):
            continue
        w = t_witness(a)
        assert w.check.value
        # independent re-multiplication, not trusting the stored verdict
        m = RAT.x_word(w.m_word)
        assert t_equal(m * a * w.g, RAT.one())
        produced += 1


def test_t_witness_rejects_ideal_members():
    a = RAT.yword((1,)) * RAT.e() * RAT.embed(RAT.domain.one())
    with pytest.raises(ValueError):
        t_witness(a)


def _section_search_word(a):
    """The x-word of the plain section search: at each level, the first i
    with x_i * b outside the ideal."""
    ring, m, b = a.ring, [], a
    while b.y_degree() > 0:
        i = next(i for i in range(ring.n + 1) if not ideal_member(ring.x(i) * b))
        b = ring.x(i) * b
        m.append(i)
    return tuple(reversed(m))


@pytest.mark.parametrize("ring", [RAT, TRUNC], ids=["rat", "trunc"])
def test_t_witness_path_matches_section_search(ring):
    rng = random.Random(67)
    produced = 0
    while produced < 20:
        a = rand_elem(rng, ring, ydeg=3, terms=3)
        if ideal_member(a):
            continue
        assert t_witness(a).m_word == _section_search_word(a)
        produced += 1
    member = ring.yword((2,)) * ring.e() * ring.embed(rand_coeff(rng, ring)) + ring.e()
    assert ideal_member(member)
    with pytest.raises(ValueError):
        t_witness(member)


def test_t_witness_json_carries_input():
    a = RAT.one() + RAT.y(0)
    w = t_witness(a)
    j = w.to_json()
    assert j["kind"] == "skew_witness"
    b = SkewElem.from_json(RAT, j["input"])
    assert b == a
    g = SkewElem.from_json(RAT, j["g"])
    assert t_equal(RAT.x_word(tuple(j["m"])) * b * g, RAT.one())


_YWORD = st.lists(st.integers(0, 2), max_size=3).map(lambda w: "".join("y%d*" % i for i in w))
_SERIES = st.sampled_from(["(1 - x0)", "(2 + 1/2*x1*x0)", "(x2 - 3)*(1 + x0*x1)^-1", "(1 + x1)^-1"])
_NON_MEMBER = st.builds("{}{} + {}e*{}".format, _YWORD, _SERIES, _YWORD, _SERIES)


@settings(max_examples=20, deadline=None)
@given(text=_NON_MEMBER)
def test_decide_then_witness_descends_once(text):
    """ideal_member(a) then t_witness(a) runs the descent once for a, and
    the witness is the one a fresh element of the same text gets."""
    calls = []
    descent = skew._descent

    def counted(b):
        calls.append(b)
        return descent(b)

    ring = SkewRing(CoeffDomain("rat", QQ), 2)
    a = eval_skew(text, ring)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(skew, "_descent", counted)
        assert not ideal_member(a)
        w = t_witness(a)
    assert sum(b is a for b in calls) == 1
    fresh = eval_skew(text, SkewRing(CoeffDomain("rat", QQ), 2))
    assert t_witness(fresh).to_json() == w.to_json()
    assert ring.e() is ring.e() and ring.e(1) is ring.e(1)


# -- word systems ------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_canonical_word_system(n):
    ring = SkewRing(CoeffDomain("rat", QQ), n)
    words = [(i,) for i in range(n + 1)]
    qs = [ring.x(i) for i in range(n + 1)]
    rep = verify_word_system(ring, words, qs)
    assert rep.ok
    assert rep.s == n + 1
    assert rep.s_mod == 1
    assert (rep.s - 1) % n == 0
    assert not rep.violations


def test_composite_word_system():
    # expanding the first branch of the canonical system keeps s = 1 mod n
    ring = RAT
    words = [(0, i) for i in range(3)] + [(1,), (2,)]
    qs = [ring.x(i) * ring.x(0) for i in range(3)] + [ring.x(1), ring.x(2)]
    rep = verify_word_system(ring, words, qs)
    assert rep.ok and rep.s == 5 and rep.s_mod == 1


def test_tampered_sum_named():
    ring = RAT
    words = [(i,) for i in range(3)]
    qs = [ring.x(0), ring.x(1), ring.x(2) + ring.one()]  # breaks the sum
    rep = verify_word_system(ring, words, qs)
    assert not rep.ok
    assert any("sum" in v for v in rep.violations)


def test_tampered_diagonal_named():
    ring = RAT
    words = [(i,) for i in range(3)]
    e = ring.e()
    qs = [e * ring.x(0), ring.x(1), ring.x(2)]  # q_1 w_1 = e x0 y0 = e = 0 in T
    rep = verify_word_system(ring, words, qs)
    assert not rep.ok
    assert any("q_1*w_1 = 0" in v for v in rep.violations)


def test_tampered_off_diagonal_named():
    ring = RAT
    words = [(i,) for i in range(3)]
    qs = [ring.x(0) + ring.x(1), ring.x(1), ring.x(2)]  # q_1 w_2 = 1 != 0
    rep = verify_word_system(ring, words, qs)
    assert not rep.ok
    assert any("q_1*w_2 != 0" in v for v in rep.violations)


def test_word_system_report_carries_inputs():
    words = [(i,) for i in range(3)]
    qs = [RAT.x(i) for i in range(3)]
    rep = verify_word_system(RAT, words, qs)
    j = rep.to_json()
    assert j["kind"] == "word_system"
    assert [tuple(w) for w in j["words"]] == words
    qs2 = [SkewElem.from_json(RAT, q) for q in j["qs"]]
    assert verify_word_system(RAT, words, qs2).ok


# -- subtraction shortcuts -----------------------------------------------------------

def _sharing_pairs(rng, ring):
    """(a, b): one object twice, b sharing some coefficient objects with a
    (either way round), and a's JSON round-trip copy."""
    pairs = []
    for _ in range(5):
        a = rand_elem(rng, ring)
        shared = dict(rand_elem(rng, ring).data)
        shared.update((w, r) for w, r in a.data.items() if rng.random() < 0.6)
        b = SkewElem(ring, shared)
        pairs += [(a, a), (a, b), (b, a), (a, SkewElem.from_json(ring, a.to_json()))]
    return pairs


QT1 = field_from_name("qt:1")


@pytest.mark.parametrize("kind", CoeffDomain.KINDS)
@pytest.mark.parametrize("field", [QQ, QT1], ids=lambda f: f.name)
def test_sub_matches_the_sum_of_the_negative(field, kind):
    ring = SkewRing(CoeffDomain(kind, field, 12), 2)
    for a, b in _sharing_pairs(random.Random(17), ring):
        assert (a - b).to_json() == (a + (-b)).to_json()


@pytest.mark.parametrize("field", [QQ, QT1], ids=lambda f: f.name)
def test_t_equal_of_identical_operands_keeps_the_truncated_verdict(field):
    ring = SkewRing(CoeffDomain("trunc", field, 12), 2)
    rng = random.Random(23)
    narrow = ring.y(1) * ring.embed(TruncSeries.word(field, (0,), precision=5))
    pairs = [(ring.zero(), ring.zero()), (narrow, narrow)]
    for _ in range(5):
        a = rand_elem(rng, ring) + narrow
        pairs += [(a, a), (a, SkewElem(ring, dict(a.data)))]
    for a, b in pairs:
        precs = [r.precision for e in (a, b) for r in e.data.values()]
        want = ideal_member(a + (-b)) & Verdict(True, min(precs, default=None))
        assert t_equal(a, b) == want
        assert want.value and want.precision == (5 if a else 12)


def _spy_zero_sums(m):
    """Spy, through the MonkeyPatch m, on the sums of two nonzero series
    that are zero: a list of (whether b's kernel form is that of -a, the
    number of ``linrep._minimise`` calls the sum a + b made)."""
    sums, minimised = [], []
    add, minimise = LinRep.__add__, linrep._minimise

    def spy_minimise(k, dim, rows, mu, cols):
        minimised.append(dim)
        return minimise(k, dim, rows, mu, cols)

    def spy_add(a, b):
        before = len(minimised)
        out = add(a, b)
        if a and b and not out:
            k = linrep._kernel(a.field)
            sums.append((b._kb(k) == a.scale(-a.field.one())._kb(k), len(minimised) - before))
        return out

    m.setattr(linrep, "_minimise", spy_minimise)
    m.setattr(LinRep, "__add__", spy_add)
    return sums


_CANCELLING = "y0*y1*e*(1 + x0)*(1 - 2*x1)^-1"


@pytest.mark.parametrize("text", [_CANCELLING, _CANCELLING + " + y2*e*(2 - x1*x0)"])
def test_descent_cancels_negated_forms_with_no_reduction(text):
    """The descent of a member of the skew-q shape reaches zero sums, and
    each of them adds forms that differ in the sign of lam, with no call of
    ``_minimise``."""
    a = eval_skew(text, SkewRing(CoeffDomain("rat", QQ), 2))
    with pytest.MonkeyPatch.context() as m:
        sums = _spy_zero_sums(m)
        assert ideal_member(a)
    assert sums and sums == [(True, 0)] * len(sums)


@pytest.mark.parametrize("text", ["y1*(1 + x0) + " + _CANCELLING, "y2*y0*(3 - x0*x1)*(1 + x2)^-1 + y1*e*(2 + x1)"])
def test_witness_and_its_recheck_cancel_negated_forms_with_no_reduction(text):
    """t_witness of a non-member, and the re-check of its certificate, reach
    zero differences of negated forms, and reduce none of them."""
    ring = SkewRing(CoeffDomain("rat", QQ), 2)
    a = eval_skew(text, ring)
    assert not ideal_member(a)
    with pytest.MonkeyPatch.context() as m:
        sums = _spy_zero_sums(m)
        w = t_witness(a)
    assert w.check.value and (True, 0) in sums
    assert all(n == 0 for negated, n in sums if negated)
    cert = json.loads(json.dumps(w.to_json()))
    with pytest.MonkeyPatch.context() as m:
        sums = _spy_zero_sums(m)
        assert recheck_certificate(cert)["ok"]
    assert (True, 0) in sums
    assert all(n == 0 for negated, n in sums if negated)


# -- serialization --------------------------------------------------------------------

@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.domain.kind)
def test_skew_json_round_trip(ring):
    rng = random.Random(67)
    for _ in range(10):
        a = rand_elem(rng, ring)
        b = SkewElem.from_json(ring, a.to_json())
        assert b == a


def test_from_json_refuses_a_repeated_word():
    """A word listed twice would keep its last coefficient only: the
    witness certificate of 1 - x0, its input's one term listed twice,
    would re-check."""
    j = t_witness(eval_skew("1 - x0", RAT)).to_json()["input"]
    j["terms"] = j["terms"] * 2
    with pytest.raises(ValueError, match=r"the term \(\) is listed twice"):
        SkewElem.from_json(RAT, j)


@pytest.mark.parametrize("change", [lambda t: 5, lambda t: None, lambda t: [t[0][:1]], lambda t: [t[0] + t[0]],
                                    lambda t: [[["0"], t[0][1]]], lambda t: [[0, t[0][1]]], lambda t: [7]])
def test_from_json_refuses_misshapen_terms(change):
    j = t_witness(eval_skew("1 - x0", RAT)).to_json()["input"]
    j["terms"] = change(j["terms"])
    with pytest.raises(ValueError, match=r"must be (a list of )?\[word, coefficient\]"):
        SkewElem.from_json(RAT, j)


def test_loaded_zero_coefficient_is_a_member():
    # y0 * z with z a dimension-2 triple of the zero series, as a certificate may carry it
    z = LinRep.letter(QQ, 0).to_json()
    z["gamma"] = ["0", "0"]
    obj = {"backend": "rat", "field": "q", "n": 2, "terms": [[[0], z]]}
    a = SkewElem.from_json(RAT, obj)
    assert ideal_member(a).value
    assert a == RAT.zero()


def test_cross_field_elements():
    ring7 = SkewRing(CoeffDomain("rat", F7), 2)
    a = ring7.one() + ring7.y(0).scale(F7.from_int(3))
    assert not ideal_member(a)
    w = t_witness(a)
    assert w.check.value
