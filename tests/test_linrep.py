"""Linear representations of rational series, checked against the truncated
backend as an independent oracle wherever values are not pinned by hand.
The one span kernel that minimises them is checked by oracles that do not
look inside it: over q and fp:7 the Hankel rank and a word-by-word equality
by plain Gaussian elimination on field values, and over qt:r
specialisation at integer points to q (and from q to fp:p)."""

import random
import time
from collections import deque
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from itertools import chain
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from ratskew.acceptance import grid_specs
from ratskew.expr import eval_series, eval_skew
from ratskew.fields import QQ, Fp, RatFunc, field_from_name, scalar_from_json, scalar_to_json
from ratskew.freealg import FreeElem
from ratskew import linrep
from ratskew.linrep import LinRep, NotInvertible, SeriesMatrix, invert_matrix_series
from ratskew.realize import build_generators
from ratskew.skew import CoeffDomain, SkewRing
from ratskew.truncated import TruncSeries
from ratskew.words import word_key

F7 = field_from_name("fp:7")
QT = field_from_name("qt:1")
QT2 = field_from_name("qt:2")
QT3 = field_from_name("qt:3")


def rand_poly(rng, field, nletters=2, terms=3, maxlen=2):
    out = FreeElem.zero(field)
    for _ in range(rng.randint(1, terms)):
        w = tuple(rng.randrange(nletters) for _ in range(rng.randint(0, maxlen)))
        out = out + FreeElem.word(field, w, field.random(rng))
    return out


def rand_rep(rng, field, depth=2):
    """Random rational series mixing +, * and geometric inverses."""
    if depth == 0 or rng.random() < 0.4:
        return LinRep.from_free(rand_poly(rng, field))
    a = rand_rep(rng, field, depth - 1)
    b = rand_rep(rng, field, depth - 1)
    r = rng.random()
    if r < 0.4:
        return a + b
    if r < 0.8:
        return a * b
    w = tuple(rng.randrange(2) for _ in range(rng.randint(1, 2)))
    u = LinRep.one(field) - LinRep.word(field, w, field.random(rng, units_only=True))
    return a + u.inv()


def window(rep, k=8):
    return TruncSeries.from_linrep(rep, k).coeffs


# -- subtraction shortcuts ----------------------------------------------------

def _sub_pairs(rng, field):
    """(a, b) pairs: one object twice, a JSON round-trip copy each way (equal
    stored forms, distinct objects), a scaled copy (same dim, another series)
    and an unrelated series."""
    pairs = []
    for _ in range(8):
        a = rand_rep(rng, field)
        copy = LinRep.from_json(field, a.to_json())
        pairs += [(a, a), (a, copy), (copy, a), (a, a.scale(field.from_int(2))),
                  (a, rand_rep(rng, field))]
    return pairs


def _reference_sum(a, b):
    """a + b through the direct sum and both passes of ``reduce()``, with no
    shortcut but the zero operands."""
    if not a or not b:
        return b if not a else a
    k = linrep._kernel(a.field)
    return LinRep._of(a.field, *linrep._direct_sum(k, [a._kb(k), b._kb(k)])).reduce()


def _same_sum(got, ref):
    """got is ref: the same JSON, and the same kernel form when nonzero."""
    assert got.to_json() == ref.to_json()
    if ref:
        assert _kernel_form(got) == _kernel_form(ref)


@pytest.mark.parametrize("field", [QQ, QT], ids=lambda f: f.name)
def test_sub_shortcuts_match_the_sum_of_the_negative(field):
    pairs = _sub_pairs(random.Random(31), field)
    # the round-trip copies do reach the equal-form shortcut
    assert any(a is not b and a._k and b._k and a._k[:3] == b._k[:3] for a, b in pairs)
    for a, b in pairs:
        ref = _reference_sum(a, b.scale(-field.one()))
        _same_sum(a - b, ref)
        _same_sum(a + (-b), ref)
        assert (a == b) is (ref.dim == 0)


@contextmanager
def _minimised():
    """The dims of the blocks ``linrep._minimise`` is called on, while the
    context is open."""
    calls, minimise = [], linrep._minimise

    def spy(k, dim, rows, mu, cols):
        calls.append(dim)
        return minimise(k, dim, rows, mu, cols)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(linrep, "_minimise", spy)
        yield calls


def _nonzero_rep(rng, field, depth):
    a = rand_rep(rng, field, depth)
    return a if a else LinRep.word(field, (rng.randrange(2),), field.random(rng, units_only=True))


@pytest.mark.parametrize("name", ["q", "fp:2", "fp:7", "qt:1", "qt:2"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32), depth=st.integers(0, 2))
def test_sums_of_forms_negated_in_lam_are_zero_with_no_reduction(name, seed, depth):
    """A sum whose operands' kernel forms differ only in the sign of lam is
    zero with no call of ``_minimise``: a with its scalings by -1 and by -c,
    a with a loaded copy of itself, and 1 with a reduced 1 whose kernel
    form is built, where 1's own form is not built yet."""
    field = field_from_name(name)
    rng = random.Random(seed)
    a = _nonzero_rep(rng, field, depth)
    c = field.random(rng, units_only=True)
    b = LinRep.from_json(field, a.to_json())
    one = LinRep.one(field).reduce()
    assert one._k is not None and LinRep.one(field)._k is None
    cases = [(a, a.scale(-field.one())), (a.scale(c), a.scale(-c))]
    for x, y in cases:
        with _minimised() as calls:
            assert (x + y).dim == 0
        assert calls == []
    for x, y in [(a, a), (a, b), (LinRep.one(field), one)]:
        with _minimised() as calls:
            assert (x - y).dim == 0
        assert calls == []


@pytest.mark.parametrize("name", ["q", "fp:2", "fp:7", "qt:1", "qt:2"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32), depth=st.integers(0, 2))
def test_sums_of_forms_not_negated_in_lam_are_reduced(name, seed, depth):
    """a + a, a + 2a and a - 2a share mu and gamma, but their lam forms are
    not each other's negatives (over fp:2, where -1 is 1, a + a is zero and
    2a is zero).  Each has the JSON and the kernel form of the reduced direct
    sum, also when a's lam has the denominator 2, so that 2a's lam is the
    negative of a's numerators over another denominator."""
    field = field_from_name(name)
    rng = random.Random(seed)
    a = _nonzero_rep(rng, field, depth)
    two = field.from_int(2)
    if not two:
        assert (a + a).dim == 0 and not a.scale(two)
        return
    for x in (a, a.scale(field.one() / two)):
        for got, y in [(x + x, x), (x + x.scale(two), x.scale(two)), (x - x.scale(two), x.scale(-two))]:
            _same_sum(got, _reference_sum(x, y))
            assert got.dim == x.dim


def test_equal_forms_of_different_kernels_are_not_equal_series():
    a, b = LinRep.letter(QQ, 0).reduce(), LinRep.letter(F7, 0).reduce()
    assert a.dim == b.dim and a._k[:3] == b._k[:3]
    for x, y in [(a, b), (b, a), (a, b.scale(-F7.one())), (b, a.scale(-QQ.one()))]:
        with pytest.raises(ValueError, match="mixed scalar fields"):
            x - y
        with pytest.raises(ValueError, match="mixed scalar fields"):
            x + y


# -- agreement with polynomials ---------------------------------------------

@pytest.mark.parametrize("field", [QQ, F7, QT], ids=lambda f: f.name)
def test_from_free_preserves_coefficients(field):
    rng = random.Random(5)
    for _ in range(30):
        p = rand_poly(rng, field, terms=4, maxlen=3)
        rep = LinRep.from_free(p)
        for w in list(p.coeffs)[:6]:
            assert rep.coeff(w) == p.coeff(w)
        assert rep.coeff((0, 1, 0, 1)) == p.coeff((0, 1, 0, 1))


def test_ring_ops_match_truncated_oracle():
    rng = random.Random(9)
    for _ in range(40):
        a = rand_rep(rng, QQ)
        b = rand_rep(rng, QQ)
        ta = TruncSeries.from_linrep(a, 8)
        tb = TruncSeries.from_linrep(b, 8)
        assert window(a + b) == (ta + tb).coeffs
        assert window(a * b) == {w: c for w, c in (ta * tb).coeffs.items() if len(w) < 8}
        assert window(a - b) == (ta - tb).coeffs


def test_scale_and_tau():
    rng = random.Random(13)
    for _ in range(25):
        a = rand_rep(rng, QQ)
        c = QQ.random(rng)
        assert window(a.scale(c)) == {w: v * c for w, v in window(a).items() if v * c}
        assert a.tau() == TruncSeries.from_linrep(a, 1).coeffs.get((), QQ.zero())


# -- equality is decided exactly --------------------------------------------

def test_equality_of_distinct_constructions():
    one = LinRep.one(QQ)
    x0 = LinRep.letter(QQ, 0)
    geo = (one - x0).inv()
    # geometric series built as 1 + x0 * (1 - x0)^-1
    alt = one + x0 * geo
    assert geo == alt
    assert geo != alt + x0


def test_equality_catches_deep_differences():
    # two series agreeing on all words shorter than 6
    p = FreeElem.word(QQ, (0,) * 6, QQ.one())
    a = LinRep.from_free(p)
    b = LinRep.zero(QQ)
    assert window(a, 6) == window(b, 6)
    assert a != b


# -- derivation pair ---------------------------------------------------------

@pytest.mark.parametrize("field", [QQ, F7], ids=lambda f: f.name)
def test_delta_product_law(field):
    rng = random.Random(21)
    for _ in range(20):
        a = rand_rep(rng, field)
        b = rand_rep(rng, field)
        for i in range(2):
            assert (a * b).delta(i) == a.delta(i).scale(b.tau()) + a * b.delta(i)


def test_delta_reconstruction():
    rng = random.Random(23)
    for _ in range(20):
        a = rand_rep(rng, QQ)
        acc = LinRep.scalar(QQ, a.tau())
        for i in range(2):
            acc = acc + a.delta(i) * LinRep.letter(QQ, i)
        assert acc == a


def test_delta_on_words():
    # delta_i leaves exactly the words that ended in x_i
    w = LinRep.word(QQ, (0, 1), QQ.one())
    assert w.delta(1) == LinRep.word(QQ, (0,), QQ.one())
    assert w.delta(0) == LinRep.zero(QQ)


# -- inversion ----------------------------------------------------------------

def test_geometric_inverse_coefficients():
    one = LinRep.one(QQ)
    x0 = LinRep.letter(QQ, 0)
    g = (one - x0).inv()
    for k in range(6):
        assert g.coeff((0,) * k) == QQ.one()
    assert g.coeff((0, 1)) == QQ.zero()


def test_inverse_is_two_sided():
    rng = random.Random(31)
    for _ in range(20):
        a = rand_rep(rng, QQ)
        u = LinRep.one(QQ) + (a - LinRep.scalar(QQ, a.tau()))  # force unit constant term
        assert u.inv() * u == LinRep.one(QQ)
        assert u * u.inv() == LinRep.one(QQ)


def test_inverse_requires_unit_constant_term():
    with pytest.raises(ValueError):
        LinRep.letter(QQ, 0).inv()
    with pytest.raises(ValueError):
        LinRep.zero(QQ).inv()


# -- order and minimal word ----------------------------------------------------

def test_order_and_min_word_against_window():
    rng = random.Random(37)
    for _ in range(30):
        a = rand_rep(rng, QQ)
        coeffs = window(a, 2 * a.dim + 1)
        if not coeffs:
            assert a.min_word() is None and a.dim == 0
            continue
        o = min(len(w) for w in coeffs)
        mw = min((w for w in coeffs if len(w) == o))
        assert len(a.min_word()) == o
        assert a.min_word() == mw


def test_min_word_is_length_lex_smallest():
    p = FreeElem.word(QQ, (1, 0), QQ.one()) + FreeElem.word(QQ, (0, 1), QQ.one())
    assert LinRep.from_free(p).min_word() == (0, 1)


# -- reduction invariant --------------------------------------------------------

def test_always_reduced():
    rng = random.Random(41)
    for _ in range(25):
        a = rand_rep(rng, QQ)
        b = rand_rep(rng, QQ)
        # cancellation must collapse the state space completely
        assert (a - a).dim == 0
        assert ((a + b) - b) == a


def test_zero_tests_are_structural():
    x0 = LinRep.letter(QQ, 0)
    z = x0 * x0 - x0 * x0
    assert z.dim == 0
    assert not TruncSeries.from_linrep(z, 10).coeffs


# -- serialization ----------------------------------------------------------------

@pytest.mark.parametrize("field", [QQ, F7, QT], ids=lambda f: f.name)
def test_json_round_trip(field):
    rng = random.Random(43)
    for _ in range(15):
        a = rand_rep(rng, field)
        b = LinRep.from_json(field, a.to_json())
        assert b == a


def test_loaded_zero_series_is_reduced():
    # x0 with its exit vector zeroed: a dimension-2 triple of the zero series
    obj = LinRep.letter(QQ, 0).to_json()
    obj["gamma"] = ["0", "0"]
    z = LinRep.from_json(QQ, obj)
    assert not z
    assert z.dim == 0
    assert z == LinRep.zero(QQ)


# -- work an operation skips ----------------------------------------------------

@pytest.mark.parametrize("field", [QQ, F7, QT], ids=lambda f: f.name)
def test_constant_factor_scales(field):
    rng = random.Random(59)
    for _ in range(12):
        s = rand_rep(rng, field)
        c = field.random(rng)
        k = 2 * s.dim + 1  # every word of length <= 2 * dim
        want = {w: c * v for w, v in window(s, k).items() if c * v}
        for prod in (LinRep.scalar(field, c) * s, s * LinRep.scalar(field, c)):
            assert prod.dim == (s.dim if c else 0)
            assert window(prod, k) == want
        assert (LinRep.scalar(field, field.zero()) * s).dim == 0
        assert (s * LinRep.scalar(field, field.zero())).dim == 0
        assert s.scale(field.one()) is s
        if s.mu:  # of two constants, either may be the one scaled
            assert LinRep.one(field) * s is s and s * LinRep.one(field) is s


@pytest.mark.parametrize("field", [QQ, F7, QT], ids=lambda f: f.name)
def test_delta_is_memoised(field):
    rng = random.Random(61)
    for _ in range(10):
        s = rand_rep(rng, field)
        fresh = LinRep.from_json(field, s.to_json())
        for i in range(3):
            d = s.delta(i)
            assert d is s.delta(i)
            assert d.to_json() == fresh.delta(i).to_json()


@pytest.mark.parametrize("field", [QQ, F7, QT], ids=lambda f: f.name)
def test_reduce_of_reduced_is_unchanged(field):
    rng = random.Random(67)
    for _ in range(10):
        s = rand_rep(rng, field)
        r = s.reduce()
        assert (r.dim, r.lam, r.mu, r.gamma) == (s.dim, s.lam, s.mu, s.gamma)
        assert list(r.mu) == list(s.mu)
        m = SeriesMatrix.from_entries(field, [[s, rand_rep(rng, field)], [LinRep.one(field), s]])
        n = m.reduce()
        assert (n.dim, n.rows, n.mu, n.cols) == (m.dim, m.rows, m.mu, m.cols)
        assert list(n.mu) == list(m.mu)


def test_full_span_reduce_drops_zero_letters_and_sorts():
    o, z = QQ.one(), QQ.zero()
    r = LinRep(QQ, 2, [o, z], {2: [[z, z], [z, z]], 1: [[z, o], [o, z]], 0: [[o, z], [z, z]]}, [o, o]).reduce()
    assert r.dim == 2
    assert list(r.mu) == [0, 1]


# -- matrices -----------------------------------------------------------------

def test_matrix_inverse_of_identity_perturbation():
    one = LinRep.one(QQ)
    zero = LinRep.zero(QQ)
    x0 = LinRep.letter(QQ, 0)
    x1 = LinRep.letter(QQ, 1)
    m = SeriesMatrix.from_entries(QQ, [[one + x0, x1], [zero, one]])
    inv, ok_r, ok_l = invert_matrix_series(m)
    assert ok_r and ok_l
    prod = m * inv
    ident = SeriesMatrix.identity(QQ, 2)
    assert all((prod - ident).entry(i, j).dim == 0 for i in range(2) for j in range(2))


@pytest.mark.parametrize("field", [QQ, F7, QT], ids=lambda f: f.name)
def test_linrep_ops_match_one_by_one_series_matrix(field):
    """LinRep and SeriesMatrix share the block sum, product and star, so on
    1 x 1 operands both give the same reduced triple.  A constant factor is
    left out of the product: LinRep only rescales the other factor."""
    rng = random.Random(71)
    as_matrix = lambda s: SeriesMatrix.from_entries(field, [[s]])
    for _ in range(8):
        a, b = rand_rep(rng, field), rand_rep(rng, field)
        assert (a + b).to_json() == (as_matrix(a) + as_matrix(b)).entry(0, 0).to_json()
        if a.mu and b.mu:
            assert (a * b).to_json() == (as_matrix(a) * as_matrix(b)).entry(0, 0).to_json()
        p = a - LinRep.scalar(field, a.tau())
        assert p.star().to_json() == as_matrix(p).star().entry(0, 0).to_json()


@pytest.mark.parametrize("field", [QQ, F7, QT], ids=lambda f: f.name)
def test_series_matrix_product_is_entrywise(field):
    """A 2 x 3 times 3 x 2 product, whose bridge blocks sum over three exit
    columns, against sum_k a_ik * b_kj in LinRep arithmetic.  The entries
    are polynomials and one geometric series, so that the qt:1 reductions
    stay small."""
    rng = random.Random(73)
    a = [[LinRep.from_free(rand_poly(rng, field)) for _ in range(3)] for _ in range(2)]
    b = [[LinRep.from_free(rand_poly(rng, field)) for _ in range(2)] for _ in range(3)]
    a[0][1] = (LinRep.one(field) - LinRep.letter(field, 1)).inv()
    prod = SeriesMatrix.from_entries(field, a) * SeriesMatrix.from_entries(field, b)
    assert (prod.nrows, prod.ncols) == (2, 2)
    for i in range(2):
        for j in range(2):
            want = LinRep.zero(field)
            for k in range(3):
                want = want + a[i][k] * b[k][j]
            assert prod.entry(i, j) == want


def test_series_matrix_product_over_qt_with_series_entries():
    """The 2 x 3 times 3 x 2 product over Q(t) with rational series entries
    (block dims 11 and 10, a dimension-21 reduction), entrywise against
    sum_k a_ik * b_kj.  Its coefficients grow in the elimination, so this
    keeps the Q(t) arithmetic fast enough to finish."""
    rng = random.Random(73)
    a = [[rand_rep(rng, QT, depth=1) for _ in range(3)] for _ in range(2)]
    b = [[rand_rep(rng, QT, depth=1) for _ in range(2)] for _ in range(3)]
    prod = SeriesMatrix.from_entries(QT, a) * SeriesMatrix.from_entries(QT, b)
    for i in range(2):
        for j in range(2):
            want = LinRep.zero(QT)
            for k in range(3):
                want = want + a[i][k] * b[k][j]
            assert prod.entry(i, j) == want


def test_matrix_inverse_refuses_singular_scalar_part():
    zero = LinRep.zero(QQ)
    x0 = LinRep.letter(QQ, 0)
    m = SeriesMatrix.from_entries(QQ, [[x0, zero], [zero, x0]])
    with pytest.raises(NotInvertible):
        invert_matrix_series(m)


def test_matrix_empty_shapes():
    m = SeriesMatrix.from_entries(QQ, [[]])
    assert (m.nrows, m.ncols, m.dim) == (1, 0, 0)
    with pytest.raises(ValueError):
        m * m
    # 1 x 0 times 0 x 1 is the 1 x 1 zero matrix, whatever the states hold
    o = QQ.one()
    a = SeriesMatrix(QQ, 1, [[o]], {0: [[o]]}, [])
    b = SeriesMatrix(QQ, 1, [], {0: [[o]]}, [[o]])
    p = a * b
    assert (p.nrows, p.ncols, p.dim) == (1, 1, 0)
    assert b.left_mul_const([[]]).rows == [[QQ.zero()]]


def test_matrix_json_round_trip():
    one = LinRep.one(QQ)
    x0 = LinRep.letter(QQ, 0)
    m = SeriesMatrix.from_entries(QQ, [[one, x0], [x0 * x0, one + x0]])
    m2 = SeriesMatrix.from_json(QQ, m.to_json())
    assert all((m - m2).entry(i, j).dim == 0 for i in range(2) for j in range(2))


def test_render_polynomial_is_exact():
    x0 = LinRep.letter(QQ, 0)
    one = LinRep.one(QQ)
    assert (one + x0).render() == "1 + x0"
    assert (one - x0).inv().render().endswith("+ ...")


# -- minimisation against the Hankel rank (Fliess's theorem) -----------------------

def _words_below(n, letters=2):
    out, level = [()], [()]
    for _ in range(n - 1):
        level = [w + (x,) for w in level for x in range(letters)]
        out += level
    return out


class _Span:
    """A span of field vectors grown one vector at a time by plain Gaussian
    elimination, as (pivot, row with 1 at the pivot) pairs."""

    def __init__(self, field):
        self.one, self.basis = field.one(), []

    def add(self, r) -> bool:
        """Insert r; whether it enlarged the span."""
        r = list(r)
        for p, b in self.basis:
            c = r[p]
            if c:
                r = [x - c * y if y else x for x, y in zip(r, b)]
        p = next((j for j, x in enumerate(r) if x), None)
        if p is None:
            return False
        inv = self.one / r[p]
        self.basis.append((p, [x * inv if x else x for x in r]))
        return True


def _rank(rows, field):
    """Rank by plain Gaussian elimination, one row at a time."""
    span = _Span(field)
    return sum(span.add(r) for r in rows)


def _rand_sparse(rng, field, n, m):
    """Entries +-1, +-2 over 1, 2 or 3 (so q entries may have non-unit denominators)."""
    return [[field.from_fraction(Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 1, 2, 3))))
             if rng.random() < 0.3 else field.zero() for _ in range(m)] for _ in range(n)]


def _prefix_rows(field, row, mu, ws):
    """row * mu(u) for each word u of the length-ordered, prefix-closed ws."""
    z = field.zero()
    vec = {(): list(row)}
    for u in ws[1:]:
        v, m = vec[u[:-1]], mu[u[-1]]
        vec[u] = [sum((v[i] * m[i][j] for i in range(len(v)) if v[i]), z) for j in range(len(v))]
    return [vec[u] for u in ws]


def _hankel(field, rows, mu, cols, ws, vs):
    """H[(i, u)][(v, j)] = coefficient of u*v in entry (i, j), for u in ws and
    v in vs, as the product (rows[i] * mu(u)) . (mu(v) * cols[j]); letters
    absent from mu act as zero.  With ws the words of length < d and vs those
    of length <= d, the products u*v cover every word of length < 2d, and
    for a d-dimensional triple the rank is that of the whole Hankel matrix."""
    k = len(rows[0])
    mu = {x: mu.get(x, [[field.zero()] * k for _ in range(k)]) for x in range(2)}
    flip = {x: [list(r) for r in zip(*m)] for x, m in mu.items()}
    rev = [v[::-1] for v in vs]
    left = [p for r in rows for p in _prefix_rows(field, r, mu, ws)]
    right = [s for by_col in zip(*(_prefix_rows(field, c, flip, rev) for c in cols)) for s in by_col]
    return [[sum((x * y for x, y in zip(p, s) if x and y), field.zero()) for s in right] for p in left]


def _rand_triple(rng, field, nrows, ncols):
    d = rng.randint(1, 6)
    mu = {x: _rand_sparse(rng, field, d, d) for x in range(2)}
    return d, _rand_sparse(rng, field, nrows, d), mu, _rand_sparse(rng, field, ncols, d)


@pytest.mark.parametrize("field", [QQ, F7], ids=lambda f: f.name)
def test_reduce_dim_is_hankel_rank(field):
    rng = random.Random(47)
    for _ in range(30):
        d, (lam,), mu, (gamma,) = _rand_triple(rng, field, 1, 1)
        ws, vs = _words_below(d), _words_below(d + 1)
        hankel = _hankel(field, [lam], mu, [gamma], ws, vs)
        r = LinRep(field, d, lam, mu, gamma).reduce()
        assert r.dim == _rank(hankel, field)
        assert r.reduce().to_json() == r.to_json()
        assert _hankel(field, [r.lam], r.mu, [r.gamma], ws, vs) == hankel
        sm = SeriesMatrix(field, d, [lam], mu, [gamma]).reduce()
        assert (sm.dim, sm.rows, sm.mu, sm.cols) == (r.dim, [r.lam], r.mu, [r.gamma])


@pytest.mark.parametrize("field", [QQ, F7], ids=lambda f: f.name)
def test_series_matrix_reduce_dim_is_block_hankel_rank(field):
    rng = random.Random(53)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 2), rng.randint(1, 3)
        d, rows, mu, cols = _rand_triple(rng, field, nrows, ncols)
        ws, vs = _words_below(d), _words_below(d + 1)
        hankel = _hankel(field, rows, mu, cols, ws, vs)
        m = SeriesMatrix(field, d, rows, mu, cols).reduce()
        assert m.dim == _rank(hankel, field)
        assert _hankel(field, m.rows, m.mu, m.cols, ws, vs) == hankel
        again = m.reduce()
        assert (again.dim, again.rows, again.mu, again.cols) == (m.dim, m.rows, m.mu, m.cols)
        assert again.to_json() == m.to_json()


# -- the kernel against oracles that do not look inside it --------------------------
#
# The one span kernel of ``linrep`` is checked by what its results are, never
# by how it computes them.  Over q and fp:7 a reduced block triple must have
# the Hankel rank of its input as its dim, and give the same series, both
# decided by the plain Gaussian elimination of ``_Span`` on field values.
# Over qt:r a computation is specialised: at an integer point where no
# input denominator, inverted constant term or augmentation determinant
# vanishes, evaluating t is a ring homomorphism, so the qt result, evaluated
# there, must be the same series as the q result of the specialised inputs,
# and specialisation cannot raise the Hankel rank, so the q dim is at most
# the qt dim (and equal to it at a generic point).  From q to fp:p the same
# holds for a prime p dividing no denominator.

def _vm(field, v, m):
    """The row vector v times the matrix m."""
    out = [field.zero()] * len(v)
    for vi, row in zip(v, m):
        if vi:
            for j, x in enumerate(row):
                if x:
                    out[j] = out[j] + vi * x
    return out


def _dot(u, v):
    return sum((x * y for x, y in zip(u, v) if x and y), 0)


def _transposed(m):
    return [list(r) for r in zip(*m)]


def _reachable(field, rows, mu):
    """A basis of the span of row * mu(w) over the rows and every word w,
    found by breadth-first search with ``_Span``.  Each basis row is
    extended by every letter, so the span of the basis is closed under mu
    and holds the rows; and each basis row is a combination of products
    row * mu(w), so it lies in that span.  The search stops once the span
    is the whole space."""
    span, letters, n = _Span(field), sorted(mu), len(rows[0]) if rows else 0
    for r in rows:
        span.add(r)
    for _, v in span.basis:  # the list grows while it is read: breadth first
        for x in letters:
            if len(span.basis) == n:
                break
            span.add(_vm(field, v, mu[x]))
    return [v for _, v in span.basis]


def _hankel_rank(field, t):
    """The rank of the Hankel matrix of the block triple t, whose entry
    ((i, u), (v, j)) is the coefficient of u*v in entry (i, j), on word
    bases: the Hankel matrix is P * Q^T for the rows P of rows[i] * mu(u)
    and Q of (mu(v) * cols[j])^T over all words, and bases of their spans,
    found by breadth-first search, give a block of the same rank."""
    _, rows, mu, cols = t
    flip = {x: _transposed(m) for x, m in mu.items()}
    p, q = _reachable(field, rows, mu), _reachable(field, cols, flip)
    return _rank([[_dot(u, v) for v in q] for u in p], field)


def _same_series(field, a, b):
    """Whether the block triples a and b, of one shape, give the same
    matrix of series: their difference, the direct sum of a and -b, is zero
    exactly when every vector of its reachable space pairs to zero with
    every exit column (Berstel-Reutenauer, ch. 2)."""
    (da, ra, ma, ca), (db, rb, mb, cb) = a, b
    if (len(ra), len(ca)) != (len(rb), len(cb)):
        return False
    rows = [x + y for x, y in zip(ra, rb)]
    cols = [x + [-c for c in y] for x, y in zip(ca, cb)]
    mu = {x: _blocks(field, (da, db), {(0, 0): ma.get(x), (1, 1): mb.get(x)}) for x in ma.keys() | mb.keys()}
    return not any(_dot(v, c) for v in _reachable(field, rows, mu) for c in cols)


def _blocks(field, dims, parts):
    """The square matrix whose block (g, h) is parts[g, h], zero where
    absent or None."""
    offs = [sum(dims[:g]) for g in range(len(dims) + 1)]
    out = [[field.zero()] * offs[-1] for _ in range(offs[-1])]
    for (g, h), m in parts.items():
        for i, row in enumerate(m or ()):
            out[offs[g] + i][offs[h]:offs[h + 1]] = row
    return out


def _triple(s):
    """The block triple of a LinRep or a SeriesMatrix, in field values."""
    if isinstance(s, LinRep):
        return s.dim, [s.lam], s.mu, [s.gamma]
    return s.dim, s.rows, s.mu, s.cols


def _values(t):
    _, rows, mu, cols = t
    return list(chain(*rows, *cols, *(r for m in mu.values() for r in m)))


def _canonical(field, t):
    """Every value of the block triple t is of the field's type and in its
    canonical form, the one form certificates accept: each reads back from
    its encoding as itself."""
    kind = Fraction if field == QQ else RatFunc if field.name.startswith("qt:") else Fp
    return all(type(c) is kind and scalar_from_json(field, scalar_to_json(field, c)) == c for c in _values(t))


# -- sums, products, stars and inverses of block triples, built by the textbook
# constructions on field values and never reduced

def _const(field, c):
    return 1, [[field.one()]], {}, [[c]]


def _raw_scale(t, c):
    d, rows, mu, cols = t
    return d, [[c * x for x in r] for r in rows], mu, cols


def _raw_sum(field, a, b):
    (da, ra, ma, ca), (db, rb, mb, cb) = a, b
    mu = {x: _blocks(field, (da, db), {(0, 0): ma.get(x), (1, 1): mb.get(x)}) for x in ma.keys() | mb.keys()}
    return da + db, [x + y for x, y in zip(ra, rb)], mu, [x + y for x, y in zip(ca, cb)]


def _raw_product(field, a, b):
    """a * b: a path through a that could leave by exit column j goes on
    into b from entry row j."""
    (da, ra, ma, ca), (db, rb, mb, cb) = a, b
    z = field.zero()
    mu = {}
    for x in ma.keys() | mb.keys():
        m = mb.get(x)
        bridge = None
        if m is not None:
            tops = [_vm(field, r, m) for r in rb]
            bridge = [[_dot([c[i] for c in ca], [t[j] for t in tops]) for j in range(db)] for i in range(da)]
        mu[x] = _blocks(field, (da, db), {(0, 0): ma.get(x), (0, 1): bridge, (1, 1): m})
    cols = [[_dot([c[i] for c in ca], [_dot(r, k) for r in rb]) for i in range(da)] + k for k in cb]
    return da + db, [r + [z] * db for r in ra], mu, cols


def _raw_star(field, p):
    """I + P + P^2 + ... for a square block triple P with zero constant
    terms: a new state per entry row, which ends at once or enters P by a
    letter; a path that could leave P by exit column j may enter it again
    from entry row j."""
    d, rows, mu, cols = p
    n, z, o = len(rows), field.zero(), field.one()
    eye = [[o if i == j else z for j in range(n)] for i in range(n)]
    star = {}
    for x, m in mu.items():
        tops = [_vm(field, r, m) for r in rows]
        back = [[_dot([c[i] for c in cols], [t[j] for t in tops]) for j in range(d)] for i in range(d)]
        inner = [[a + b for a, b in zip(r, s)] for r, s in zip(m, back)]
        star[x] = _blocks(field, (n, d), {(0, 1): tops, (1, 1): inner})
    return n + d, [e + [z] * d for e in eye], star, [e + c for e, c in zip(eye, cols)]


def _raw_tau(t):
    return _dot(t[1][0], t[3][0]) if t[0] else 0


def _raw_inv(field, t):
    """t^-1 = (1/c) * (1 - t/c)^* for the constant term c of t."""
    c = field.one() / _raw_tau(t)
    return _raw_scale(_raw_star(field, _raw_sum(field, _const(field, field.one()), _raw_scale(t, -c))), c)


def _raw_op(field, name, a, b, arg):
    """What step ``name`` of ``_chain`` gives on a and b, as an unreduced
    block triple."""
    a, b = _triple(a), _triple(b)
    if name == "+":
        return _raw_sum(field, a, b)
    if name == "-":
        return _raw_sum(field, a, _raw_scale(b, -field.one()))
    if name == "*":
        return _raw_product(field, a, b)
    if name == "star":
        return _raw_star(field, _raw_sum(field, a, _const(field, -_raw_tau(a))))
    if name == "inv":
        return _raw_inv(field, a if arg else _raw_sum(field, _const(field, field.one()), a))
    if name == "delta":
        d, rows, mu, (gamma,) = a
        m = mu.get(arg)
        return d, rows, mu, [[_dot(r, gamma) for r in m] if m else [field.zero()] * d]
    return _raw_scale(a, arg)


# -- specialisation

def _ev(p, point):
    """The polynomial p (an MPoly) at the rational point."""
    total = Fraction(0)
    for e, c in p.terms.items():
        for a, k in zip(point, e):
            c *= a ** k
        total += c
    return total


def _at(point):
    """The map from Q(t1..tr) to Q evaluating t at point; None at a pole."""
    def at(x):
        d = _ev(x.den, point)
        return None if d == 0 else _ev(x.num, point) / d
    return at


def _mod(p):
    """The map from Q to F_p; None where p divides the denominator."""
    fp = field_from_name("fp:%d" % p)
    return lambda q: None if q.denominator % p == 0 else fp.from_fraction(q)


def _map_triple(f, t):
    """The block triple t with f applied to every value, None if f has a
    pole at one of them."""
    d, rows, mu, cols = t
    vec = lambda v: [f(x) for x in v]
    out = d, [vec(r) for r in rows], {x: [vec(r) for r in m] for x, m in mu.items()}, [vec(c) for c in cols]
    return None if any(x is None for x in _values(out)) else out


def _points(nvars, rng, count=2):
    """count distinct integer points of Q^nvars, drawn from -6..7."""
    seen = set()
    while len(seen) < count:
        seen.add(tuple(rng.randint(-6, 7) for _ in range(nvars)))
    return sorted(seen)


def _admissible(f, values):
    """Whether f is defined and nonzero at every one of values."""
    return all((y := f(v)) is not None and y for v in values)


def _spec_maps(field):
    """(target field, map) pairs that specialise a computation over field:
    evaluation at six integer points of -6..7 for qt:r, reduction mod 11,
    13 and 17 for q.  A caller uses the first ones that are defined on its
    inputs."""
    if field == QQ:
        return [(field_from_name("fp:%d" % p), _mod(p)) for p in (11, 13, 17)]
    return [(QQ, _at(pt)) for pt in _points(field.nvars, random.Random(field.nvars), count=6)]


def _check_reduced(field, raw, r):
    """r, the reduction of the block triple raw over q or fp:p, gives the
    same series, so the same Hankel matrix, and has its Hankel rank as its
    dim: r is minimal."""
    assert _same_series(field, raw, r)
    assert r[0] == _hankel_rank(field, r)


def _check_specialised(field, f, target, big, small):
    """The reduced triple big over field, mapped by f, gives the same series
    as the reduced triple small over target, whose dim is at most big's;
    whether the map is defined on big (else nothing is checked)."""
    assert small[0] <= big[0]
    spec = _map_triple(f, big)
    if spec is None:
        return False
    assert _same_series(target, spec, small)
    return True


# -- reductions of random block triples ---------------------------------------------

def _rand_wide(rng, field, n, m, density):
    """Entries n/k with |n| <= 10**6 and k <= 7 (k < 7 over fp:7); about
    half the rows get a negative leading entry.  Over qt:r, where generic
    entries make the coefficients grow with every word, |n| <= 10, and a
    quarter of the entries are instead small rational functions: a linear
    polynomial in t = t1 with an integer content of 2 to 4 and a leading
    coefficient of either sign, c/(u + j), or (t - j)/(t*w + j), with u
    the last variable (u = t over qt:1) and w = t2 over qt:3, w = u
    otherwise."""
    kmax = 6 if field == F7 else 7
    wide = lambda lo: field.from_fraction(Fraction(rng.randint(lo, 10**6), rng.randint(1, kmax)))
    if field in (QT, QT2, QT3):
        t, u = field.var(0), field.var(field.nvars - 1)
        w = field.var(1) if field == QT3 else u
        base = lambda lo: field.from_fraction(Fraction(rng.randint(max(lo, -10), 10), rng.randint(1, kmax)))

        def wide(lo):
            r = rng.random()
            if r < 0.1:
                g = rng.randint(2, 4)
                return field.from_int(g * rng.choice((-3, -1, 1, 2))) * t + g * rng.randint(-2, 3)
            if r < 0.2:
                return field.from_int(rng.choice((-2, -1, 1, 3))) / (u + rng.randint(1, 5))
            if r < 0.25:
                return (t - rng.randint(0, 2)) / (t * w + rng.randint(1, 3))
            return base(lo)
    out = []
    for _ in range(n):
        row = [wide(-10**6) if rng.random() < density else field.zero() for _ in range(m)]
        if m and rng.random() < 0.5:
            row[0] = -wide(1)
        out.append(row)
    return out


def _reduced(field, d, rows, mu, cols):
    """The reduced block triple of (rows, mu, cols), read as field values."""
    return _triple(SeriesMatrix(field, d, rows, mu, cols).reduce())


@pytest.mark.parametrize("field", [QQ, F7, QT, QT2, QT3], ids=lambda f: f.name)
def test_reduce_matches_oracle(field):
    """The kernel over Z (q), Z/p (fp:p) and Z[t1..tr] (qt:r): 60 draws of
    up to 3 of 4 letters at density 0.25 to 0.7, and over q and fp:7 also
    20 sparse draws of 8 to 10 of 10 letters at dim 10 to 14, whose letter
    matrices are at most about 10% nonzero (density 0.05, plus the
    negative leading entries of ``_rand_wide``), as letter matrices are in
    practice, so that about half of their columns are empty.  Over q and
    fp:7 the oracle is the Hankel rank and the series, on word bases; over
    qt:r it is specialisation to q at two integer points where the input is
    defined, against the q reduction of the specialised input, which the
    Hankel oracle checks in turn; at one of them the q dim is the qt dim."""
    # (rng, draws, letters, letters drawn, dims, density of sparse letter matrices)
    # a generic qt:1 dim-7 span takes seconds, and a dense qt:2 dim-5 one
    # minutes; trivariate gcds grow fast from qt:3 dim 4 on
    cases = [(random.Random(71), 60, 4, (1, 3), (1, {QT: 5, QT2: 4, QT3: 3}.get(field, 7)), None)]
    if field in (QQ, F7):
        cases.append((random.Random(72), 20, 10, (8, 10), (10, 14), 0.05))
    maps = [] if field in (QQ, F7) else _spec_maps(field)
    reduced = 0
    for rng, draws, letters, (lo, hi), (dlo, dhi), sparse in cases:
        for _ in range(draws):
            raw = _rand_block(rng, field, letters, lo, hi, dlo, dhi, sparse)
            r = _reduced(field, *raw)
            assert _canonical(field, r)
            assert list(r[2]) == sorted(r[2])
            reduced += r[0] < raw[0]
            if not maps:
                _check_reduced(field, raw, r)
                continue
            dims = []
            for target, f in maps:
                spec = _map_triple(f, raw)
                if spec is None:
                    continue
                small = _reduced(target, *spec)
                _check_reduced(target, spec, small)
                if _check_specialised(field, f, target, r, small):
                    dims.append(small[0])
                if len(dims) == 2:
                    break
            assert dims and max(dims) == r[0]
    assert reduced >= 10  # the sample also exercises the pivot read, not only full spans


def _rand_block(rng, field, letters, lo, hi, dlo, dhi, sparse):
    """One draw of :func:`test_reduce_matches_oracle`: (d, rows, mu, cols)."""
    nrows, ncols = rng.choice(((1, 1), (1, 1), (1, 2), (2, 3)))
    d = rng.randint(dlo, dhi)
    density = rng.choice((0.25, 0.4, 0.7))
    mu = {x: _rand_wide(rng, field, d, d, sparse or density)
          for x in rng.sample(range(letters), rng.randint(lo, hi))}
    rows = _rand_wide(rng, field, nrows, d, density)
    cols = _rand_wide(rng, field, ncols, d, density)
    if sparse and rng.random() < 0.5:
        return _halved(field, d, rows, mu, cols)
    return d, rows, mu, cols


def _halved(field, d, rows, mu, cols):
    """A generic sparse block spans its whole space; two copies of half of
    it, entered alike, reach at most half, so the pivot read runs."""
    h, z = d // 2, field.zero()
    mu = {x: [r[:h] + [z] * h for r in m[:h]] + [[z] * h + r[:h] for r in m[:h]] for x, m in mu.items()}
    return 2 * h, [r[:h] * 2 for r in rows], mu, [c[:2 * h] for c in cols]


class _SpyEchelon(linrep.Echelon):
    """An echelon that logs whether each insert grew the span."""

    log: list = []

    def add(self, v):
        r = super().add(v)
        _SpyEchelon.log.append(r is not None)
        return r


def _primitive_product(kern, v, m):
    """v * M with the content of its entries divided out."""
    w, ring = kern.product(v, m), kern.ring
    g = ring.content(w)
    return w if g == ring.one or not g else ring.quo(w, g)


def _reference_reach(kern, dim, rows, mu, cols):
    """The search as it ran when it queued each product made primitive,
    inserted as it is, in place of the row the echelon returns."""
    ech = linrep.Echelon(kern.ring)
    add, vec_mat = ech.add, partial(_primitive_product, kern)
    queue = deque(v for v in map(kern.span, rows) if add(v) is not None)
    letters = sorted(mu)
    mats = [mu[x] for x in letters]
    d = len(queue)
    while queue and d < dim:
        v = queue.popleft()
        for m in mats:
            w = vec_mat(v, m)
            if add(w) is not None:
                d += 1
                if d == dim:
                    break
                queue.append(w)
    if d == dim:
        return dim, rows, {x: mu[x] for x in letters if kern.nonzero(mu[x])}, cols
    new_mu = {x: m for x, m in zip(letters, kern.restrict(ech, mats)) if kern.nonzero(m)}
    return d, [kern.read(r, ech.pivots) for r in rows], new_mu, kern.coords(ech, cols)


@pytest.mark.parametrize("name", ["q", "fp:7", "qt:1", "qt:2"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), half=st.booleans())
def test_reach_matches_the_search_of_primitive_products(name, seed, half):
    """``_reach`` queues the rows the echelon returns; the reference queues
    the products made primitive.  Both give the same kernel form through
    the same sequence of accepted and rejected inserts, and a search that
    spans the whole space returns its input objects."""
    field = field_from_name(name)
    k, rng = linrep._kernel(field), random.Random(seed)
    d, rows, mu, cols = _rand_block(rng, field, 3, 1, 3, 2, {"qt:1": 4, "qt:2": 3}.get(name, 7), None)
    if half:
        d, rows, mu, cols = _halved(field, d, rows, mu, cols)
    rows, cols = [k.vec(r) for r in rows], [k.vec(c) for c in cols]
    mu = {x: k.mat(m) for x, m in mu.items()}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linrep, "Echelon", _SpyEchelon)
        got_log = _SpyEchelon.log = []
        got = linrep._reach(k, d, rows, mu, cols)
        ref_log = _SpyEchelon.log = []
        ref = _reference_reach(k, d, rows, mu, cols)
    assert got == ref
    assert got_log == ref_log
    if half:
        assert got[0] < d
    if got[0] == d:
        assert got[1] is rows and got[3] is cols
        assert all(m is mu[x] for x, m in got[2].items())


def test_mod_p_search_vectors_are_reduced():
    # lam * mu(0) is (3 + 4, 0, 0) = 0 mod 7, and lam * mu(1) is (1, 0, 0):
    # the reachable space is spanned by lam and (1, 0, 0)
    o, z = F7.one(), F7.zero()
    c = lambda k: F7.from_int(k)
    mu = {0: [[z, z, z], [c(3), z, z], [c(4), z, z]], 1: [[z, z, z], [o, z, z], [z, z, z]]}
    raw = LinRep(F7, 3, [z, o, o], mu, [o, o, o])
    r = raw.reduce()
    assert r.dim == 2
    assert all(r.coeff(w) == raw.coeff(w) for w in _words_below(4))


@pytest.mark.parametrize("name", ["q", "fp:7", "qt:1", "qt:2", "qt:3"])
def test_scale_and_back_reads_the_same_canonical_values(name):
    """s.scale(c).scale(1/c) reads the same lam, mu and gamma as s, whatever
    scaling its kernel form carries, and every value read is canonical.
    Over qt:r, c = (t1 + 2)/(t_r + 3) puts factors in t1 into the kernel
    form that the second scale must divide out again, through the ring's
    gcds."""
    field = field_from_name(name)
    rng = random.Random(83)
    cs = [field.random(rng, units_only=True) for _ in range(4)]
    if name.startswith("qt:"):
        cs.append((field.var(0) + 2) / (field.var(field.nvars - 1) + 3))
    for _ in range(6):
        s = rand_rep(rng, field, depth=1)
        for c in cs:
            back = _triple(s.scale(c).scale(field.one() / c))
            assert back == _triple(s) and _canonical(field, back)


# -- chains of operations, specialised ------------------------------------------------

def _fresh_json(s):
    """``to_json`` of s rebuilt from its stored kernel form, so that a kernel
    list changed after s was built shows even when s has cached its values."""
    k = linrep._kernel(s.field)
    return type(s)._of(s.field, *s._kb(k)).to_json()


def _step(field, name, a, b, arg):
    """One operation of a chain: inv inverts a itself when arg is true,
    else 1 + a."""
    if name == "+":
        return a + b
    if name == "-":
        return a - b
    if name == "*":
        return a * b
    if name == "star":
        return (a - LinRep.scalar(field, a.tau())).star()
    if name == "inv":
        return (a if arg else LinRep.one(field) + a).inv()
    if name == "delta":
        return a.delta(arg)
    return a.scale(arg)


def _det(field, m):
    """Determinant by plain Gaussian elimination."""
    m, det = [list(r) for r in m], field.one()
    for c in range(len(m)):
        p = next((i for i in range(c, len(m)) if m[i][c]), None)
        if p is None:
            return field.zero()
        if p != c:
            m[c], m[p], det = m[p], m[c], -det
        det = det * m[c][c]
        for i in range(c + 1, len(m)):
            if m[i][c]:
                k = m[i][c] / m[c][c]
                m[i] = [x - k * y for x, y in zip(m[i], m[c])]
    return det


def _chain(field, seed, n, steps=16, max_dim=9):
    """A seeded chain of +, -, *, star, inv, delta and scale over field, then
    the inverse of an n x n matrix of its results.  Each operand is checked
    unchanged after use, and the inverse two-sided.

    Returns (leaves, plan, series, nonzero): the three polynomials the
    chain starts from; one (name, i, j, arg, keep) per step, operating on
    entries i and j of the pool (the leaves' series, then each result kept),
    and for the matrix one ("invert", indices, general); the results, the
    matrix and its inverse; and the values that must not vanish where the
    chain is specialised: the scale factors, the constant terms of the
    inverted operands and the determinant of the augmentation."""
    rng = random.Random(seed)
    leaves = [rand_poly(rng, field) for _ in range(3)]
    pool = [LinRep.from_free(p) for p in leaves]
    plan, series, nonzero = [], [], []
    for _ in range(steps):
        name = rng.choice(("*", "+", "-", "delta", "inv", "scale", "star"))
        i, j = rng.randrange(len(pool)), rng.randrange(len(pool))
        a, b = pool[i], pool[j]
        arg = None
        if name == "scale":
            arg = field.random(rng, units_only=True)
            nonzero.append(arg)
        elif name == "delta":
            arg = rng.randrange(2)
        elif name == "inv":
            arg = bool(a.tau())
            if arg:
                nonzero.append(a.tau())
        before = (_fresh_json(a), _fresh_json(b))
        r = _step(field, name, a, b, arg)
        assert (_fresh_json(a), _fresh_json(b)) == before, name
        keep = 0 < r.dim <= max_dim
        plan.append((name, i, j, arg, keep))
        series.append(r)
        if keep:
            pool.append(r)
    small = sorted(range(len(pool)), key=lambda k: pool[k].dim)[:n * n]
    det = _det(field, [[pool[small[n * i + j]].tau() for j in range(n)] for i in range(n)])
    plan.append(("invert", small, bool(det)))
    nonzero.append(det or field.one())
    m, inv = _invert(field, pool, small, bool(det))
    return leaves, plan, series + [m, inv], nonzero


def _invert(field, pool, small, general):
    """The matrix of pool entries small, or, when not general, the
    identity plus their proper parts, and its inverse, checked two-sided
    and leaving the matrix unchanged."""
    one = LinRep.one(field)
    n = isqrt(len(small))
    entries = [[pool[small[n * i + j]] for j in range(n)] for i in range(n)]
    if not general:
        entries = [[(one if i == j else LinRep.zero(field)) + s - LinRep.scalar(field, s.tau())
                    for j, s in enumerate(row)] for i, row in enumerate(entries)]
    m = SeriesMatrix.from_entries(field, entries)
    before = _fresh_json(m)
    inv, ok_r, ok_l = invert_matrix_series(m)
    assert ok_r and ok_l and _fresh_json(m) == before
    return m, inv


def _replay(target, f, leaves, plan):
    """The chain of plan over target from the leaves mapped by f (and the
    scale factors too): the leaves, the plan and the series as they are
    there."""
    leaves = [FreeElem(target, {w: f(c) for w, c in p.coeffs.items()}) for p in leaves]
    pool = [LinRep.from_free(p) for p in leaves]
    steps, series = [], []
    for name, i, j, arg, keep in plan[:-1]:
        if name == "scale":
            arg = f(arg)
        r = _step(target, name, pool[i], pool[j], arg)
        steps.append((name, i, j, arg, keep))
        series.append(r)
        if keep:
            pool.append(r)
    _, small, general = plan[-1]
    return leaves, steps + [plan[-1]], series + list(_invert(target, pool, small, general))


def _check_chain(field, leaves, plan, series):
    """Each step of a chain over q or fp:p against the textbook
    construction on its operands and against its own Hankel rank, and the
    inverse against the textbook products both ways."""
    pool = [LinRep.from_free(p) for p in leaves]
    for (name, i, j, arg, keep), r in zip(plan[:-1], series[:-2]):
        t = _triple(r)
        assert _same_series(field, _raw_op(field, name, pool[i], pool[j], arg), t), name
        assert r.dim == _hankel_rank(field, t), name
        assert _canonical(field, t), name
        if keep:
            pool.append(r)
    m, inv = _triple(series[-2]), _triple(series[-1])
    n, o, z = len(m[1]), field.one(), field.zero()
    eye = [[o if i == j else z for j in range(n)] for i in range(n)]
    for prod in (_raw_product(field, m, inv), _raw_product(field, inv, m)):
        assert _same_series(field, prod, (n, eye, {}, eye))


@pytest.mark.parametrize("name", ["q", "fp:7", "qt:1", "qt:2", "qt:3"])
def test_chain_matches_oracle(name):
    """Two seeded chains of operations per field, and the two-sided inverse
    of a 3 x 3 matrix of their results (2 x 2 over qt:2 and qt:3, where a
    3 x 3 with a general augmentation spends seconds in the gcds of
    Z[t1][t2]); no operation changes its operands.  Over
    q and fp:7 every result is checked against the textbook construction
    and its own Hankel rank.  A qt:r chain is replayed over q at two integer
    points where its leaves, scale factors, inverted constant terms and
    augmentation determinant are defined and nonzero, and a q chain over
    fp:p for two primes p of 11, 13 and 17 that divide none of them.  Each
    result, specialised, is the same series as the replayed one, whose dim
    is at most its own and equal to it for one of the two; a qt:r chain's q
    replay at the first point is itself checked as a q chain."""
    field = field_from_name(name)
    for seed in (1, 2):
        leaves, plan, series, nonzero = _chain(field, seed, 2 if name in ("qt:2", "qt:3") else 3)
        assert all(_canonical(field, _triple(s)) for s in series)
        if field in (QQ, F7):
            _check_chain(field, leaves, plan, series)
        if field == F7:
            continue
        dims = []
        for target, f in _spec_maps(field):
            if not (all(f(c) is not None for p in leaves for c in p.coeffs.values())
                    and _admissible(f, nonzero)):
                continue
            spec_leaves, steps, spec = _replay(target, f, leaves, plan)
            if field != QQ and not dims:
                _check_chain(target, spec_leaves, steps, spec)
            dims.append([small.dim if _check_specialised(field, f, target, _triple(big), _triple(small))
                         else None for big, small in zip(series, spec)])
            if len(dims) == 2:
                break
        assert len(dims) == 2
        for big, got in zip(series, zip(*dims)):
            assert max(d for d in got if d is not None) == big.dim


def _perturbed_identity(field, n, rng):
    """The n x n series matrix whose entry (i, j) is delta_ij plus two terms
    c*w: w a word of length 1 or 2 over two letters, and c = t_v + k with k
    in 1..5; the draws are w, k, v per term, in row-major order, as in
    ``scripts/invert_sizes.py``."""
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            e = LinRep.one(field) if i == j else LinRep.zero(field)
            for _ in range(2):
                w = tuple(rng.randrange(2) for _ in range(rng.randint(1, 2)))
                k = rng.randint(1, 5)
                e = e + LinRep.word(field, w, field.var(rng.randrange(field.nvars)) + k)
            row.append(e)
        entries.append(row)
    return SeriesMatrix.from_entries(field, entries)


def test_qt_matrix_inverse_specialises():
    """A 5 x 5 inversion over qt:1 (block dim 19), a 3 x 3 over qt:2
    (block dim 11) and a 2 x 2 over qt:3, checked two-sided.  Specialised
    at the first integer point where the matrix is defined (its
    augmentation is the identity), the inverse is the same series matrix
    as the q inverse of the specialised matrix, of no larger dim, which
    the textbook products check two-sided."""
    for field, n in ((QT, 5), (QT2, 3), (QT3, 2)):
        m = _perturbed_identity(field, n, random.Random(1))
        inv, ok_r, ok_l = invert_matrix_series(m)
        assert ok_r and ok_l
        for _, f in _spec_maps(field):
            spec = _map_triple(f, _triple(m))
            if spec is not None:
                break
        sm = SeriesMatrix(QQ, *spec)
        sinv, ok_r, ok_l = invert_matrix_series(sm)
        assert ok_r and ok_l
        assert _check_specialised(field, f, QQ, _triple(inv), _triple(sinv))
        o, z = QQ.one(), QQ.zero()
        eye = [[o if i == j else z for j in range(n)] for i in range(n)]
        for prod in (_raw_product(QQ, spec, _triple(sinv)), _raw_product(QQ, _triple(sinv), spec)):
            assert _same_series(QQ, prod, (n, eye, {}, eye))


# -- one-pass reductions: delta and the rows of SeriesMatrix.to_json ----------

def _kernel_form(s):
    """(dim, entry rows, letter matrices in order, exit columns) of the
    stored kernel form of s."""
    k = linrep._kernel(s.field)
    d, rows, mu, cols = s._kb(k)
    return d, rows, list(mu.items()), cols


def _two_pass_delta(s, i):
    """s.delta(i) through both passes of ``reduce()``."""
    k = linrep._kernel(s.field)
    d, rows, mu, (gamma,) = s._kb(k)
    if d == 0 or i not in mu:
        return LinRep.zero(s.field)
    return LinRep._of(s.field, d, rows, mu, [k.vm(gamma, k.transposed(mu[i]))]).reduce()


@pytest.mark.parametrize("name", ["q", "fp:7", "qt:1", "qt:2"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32), depth=st.integers(0, 2), i=st.integers(0, 2))
def test_delta_matches_two_pass_reduce(name, seed, depth, i):
    field = field_from_name(name)
    s = rand_rep(random.Random(seed), field, depth=depth if name != "qt:2" else min(depth, 1))
    assert _kernel_form(s.delta(i)) == _kernel_form(_two_pass_delta(s, i))
    # a transduction by a letter the series reads, whose result is zero
    w = LinRep.word(field, (1, 0), field.from_int(3))
    assert w.delta(1).dim == 0
    assert _kernel_form(w.delta(1)) == _kernel_form(_two_pass_delta(w, 1))


def _prefix_automaton(p):
    """The unreduced prefix-tree representation of the polynomial p: a
    state per prefix of its support, the empty one the entry state."""
    field = p.field
    z, o = field.zero(), field.one()
    prefixes = {(): 0}
    for w in sorted(p.coeffs, key=word_key):
        for k in range(1, len(w) + 1):
            prefixes.setdefault(w[:k], len(prefixes))
    d = len(prefixes)
    mu = {}
    for w, idx in prefixes.items():
        if w:
            mu.setdefault(w[-1], [[z] * d for _ in range(d)])[prefixes[w[:-1]]][idx] = o
    gamma = [p.coeff(w) for w in prefixes]
    return LinRep(field, d, [o] + [z] * (d - 1), mu, gamma)


@pytest.mark.parametrize("name", ["q", "fp:7", "qt:1", "qt:2"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32), terms=st.integers(1, 5), maxlen=st.integers(0, 4))
def test_from_free_matches_reduce_of_the_prefix_automaton(name, seed, terms, maxlen):
    """``from_free`` runs the observability pass alone; its result is the
    one ``reduce()`` gives, in JSON and in kernel form.  The polynomials:
    random ones, some with shared prefixes or cancelling terms, the zero
    polynomial, a constant and a single word."""
    field = field_from_name(name)
    rng = random.Random(seed)
    p = rand_poly(rng, field, nletters=3, terms=terms, maxlen=maxlen)
    for q in (p, p + p.scale(field.from_int(-1)), FreeElem.zero(field),
              FreeElem.scalar(field, field.random(rng, units_only=True)),
              FreeElem.word(field, (2, 0, 2), field.from_int(5)), p * FreeElem.letter(field, 1)):
        a, b = LinRep.from_free(q), _prefix_automaton(q).reduce()
        assert a.to_json() == b.to_json()
        assert _kernel_form(a) == _kernel_form(b)


def _per_entry_json(m):
    return [[m.entry(i, j).to_json() for j in range(m.ncols)] for i in range(m.nrows)]


@pytest.mark.parametrize("field", [QQ, F7, QT], ids=lambda f: f.name)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32), nrows=st.integers(1, 3), ncols=st.integers(0, 3))
def test_row_shared_to_json_matches_entries(field, seed, nrows, ncols):
    """``to_json`` shares each row's reachability pass; its entries are the
    ones ``entry`` reduces alone.  The matrices: reduced ones with series,
    constant and zero entries; raw unreduced blocks, whose rows reach only
    part of the space; and a letterless constant block."""
    rng = random.Random(seed)
    pick = lambda: rng.choice((lambda: rand_rep(rng, field, depth=1), lambda: LinRep.zero(field),
                               lambda: LinRep.scalar(field, field.random(rng, units_only=True))))()
    entries = [[pick() for _ in range(ncols)] for _ in range(nrows)]
    d, rows, mu, cols = _rand_triple(rng, field, nrows, ncols)
    mats = [SeriesMatrix.from_entries(field, entries),
            SeriesMatrix(field, d, rows, mu, cols),
            SeriesMatrix.constant(field, [[field.random(rng) for _ in range(nrows)] for _ in range(nrows)])]
    for m in mats:
        assert m.to_json()["entries"] == _per_entry_json(m)


# -- back to polynomials --------------------------------------------------------------

@pytest.mark.parametrize("name", ["q", "fp:7", "qt:1"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32), terms=st.integers(1, 5), maxlen=st.integers(0, 4))
def test_to_free_inverts_from_free(name, seed, terms, maxlen):
    """``to_free`` gives back the polynomial ``from_free`` promoted, also
    after the sum, the product and a scaling of such series, where the
    result has gone through a full reduction; a nonpolynomial factor that
    cancels leaves a polynomial too."""
    field = field_from_name(name)
    rng = random.Random(seed)
    p = rand_poly(rng, field, nletters=3, terms=terms, maxlen=maxlen)
    q = rand_poly(rng, field, nletters=3, terms=terms, maxlen=maxlen)
    a, b = LinRep.from_free(p), LinRep.from_free(q)
    c = field.random(rng)
    assert a.to_free() == p
    assert (a + b).to_free() == p + q
    assert (a * b).to_free() == p * q
    assert a.scale(c).to_free() == p.scale(c)
    u = LinRep.one(field) - LinRep.word(field, (1, 2), field.random(rng, units_only=True))
    assert (a * u.inv() * u).to_free() == p
    for r in (FreeElem.zero(field), FreeElem.scalar(field, c)):
        assert LinRep.from_free(r).to_free() == r


@pytest.mark.parametrize("field", [QQ, F7, QT], ids=lambda f: f.name)
def test_to_free_refuses_infinite_support(field):
    x0, x1 = LinRep.letter(field, 0), LinRep.letter(field, 1)
    p = LinRep.from_free(FreeElem.word(field, (1, 0), field.from_int(3)) + FreeElem.one(field))
    for s in (x0.star(), p + (LinRep.one(field) - x0 - x1).inv(), p * x1.star() * p):
        with pytest.raises(ValueError, match="infinite support"):
            s.to_free()


def test_to_free_bounded_listing():
    """A polynomial's support is not bounded by its dim: (x0 + x1)^k has
    dim k + 1 and 2^(k+1) - 1 prefixes of support words.  The bounded
    listing keeps at most (letters + 1) * dim of them, enough for a word
    and for a sum of letters, and refuses past that before the next level,
    so (x0 + x1)^40 is refused at once."""
    x = [LinRep.letter(QQ, i) for i in range(5)]
    word = LinRep.word(QQ, (0, 3, 1, 4, 2, 2))
    letters = sum(x, LinRep.zero(QQ))
    for r in (word, letters, word * letters + x[0], LinRep.zero(QQ), LinRep.one(QQ)):
        assert r.to_free(bounded=True) == r.to_free()
    s = x[0] + x[1]
    p = s * s
    assert p.dim == 3 and p.to_free(bounded=True) == p.to_free()  # 7 prefixes, bound 9
    p = p * s
    assert len(p.to_free().coeffs) == 8
    with pytest.raises(ValueError, match="more than 12 prefixes"):  # 15 prefixes, bound 12
        p.to_free(bounded=True)
    for _ in range(37):
        p = p * s
    assert p.dim == 41
    start = time.process_time()
    with pytest.raises(ValueError, match="too many to list"):
        p.to_free(bounded=True)
    assert time.process_time() - start < 0.5


def test_to_free_decides_before_listing(monkeypatch):
    """A three-letter series with every word in its support, shifted by a
    word of length 11, is refused in well under a second: polynomiality is
    decided on spans, and no word is listed.  The listing is the only use
    of the kernel's exact product here, so that product is made to fail
    first: listing before deciding fails at once instead of running on."""
    field = QQ
    w = LinRep.from_free(FreeElem.word(field, (0, 1, 2) * 3 + (0, 1)))
    s = w * (LinRep.one(field) - sum((LinRep.letter(field, i) for i in range(3)), LinRep.zero(field))).inv()
    assert s.dim >= 12

    def listed(v, m):
        raise AssertionError("a word was listed before polynomiality was decided")

    monkeypatch.setattr(linrep._kernel(field), "vm", listed)
    start = time.process_time()
    with pytest.raises(ValueError, match="infinite support"):
        s.to_free()
    assert time.process_time() - start < 0.5


# -- word times series: the reached product block, built with no search -------

def _block_product(a, b):
    """a * b through the block product and both passes of ``reduce()``,
    whatever marks a carries."""
    k = linrep._kernel(a.field)
    return LinRep._of(a.field, *linrep._product(k, a._kb(k), b._kb(k))).reduce()


def _right_factors(field):
    """(series, whether lam mu(v) over the nonempty words v spans its whole
    space): geometric series with a full tail, and a product and
    polynomials with a partial one."""
    t = "t1" if field.name.startswith("qt") else "3"
    texts = [("(1 - x0 - x1*x2)^-1", True), ("(1 - (%s + 1)^-1*x0 - %s*x1*x2)^-1" % (t, t), True),
             ("(2 + x1)*(1 - x0 - x1*x2)^-1", False), ("(%s + x1)*(1 - x0 - x1*x2)^-1" % t, False),
             ("1 + x0*x1 - 2*x2", False), ("x1*x2 + x0", False)]
    return [(eval_series(text, field, 2), full) for text, full in texts]


def _words(field):
    """Marked single words c*w of length 1 to 3, made by ``word`` with a
    coefficient and by ``scale`` of a coefficient-free word."""
    c = field.var(0) + field.one() if field.name.startswith("qt") else field.from_int(3) / field.from_int(5)
    out = []
    for w in [(0,), (2,), (1, 2), (0, 0), (2, 1, 0), (1, 1, 1)]:
        for coeff in (field.one(), c, -c):
            out += [LinRep.word(field, w, coeff), LinRep.word(field, w).scale(coeff)]
    return out


@pytest.mark.parametrize("name", ["q", "fp:7", "qt:1", "qt:2"])
def test_word_times_series_is_the_reduced_block_product(name):
    """A marked word times a series has the JSON and the stored kernel form
    of the block product reduced by both passes, on right factors with a
    full and with a partial tail; each right factor's memoised tail serves
    every word."""
    field = field_from_name(name)
    words = _words(field)
    assert all(a._mono for a in words)
    for s, full in _right_factors(field):
        tail = None
        for a in words:
            got = a * s
            tail = tail or s._tail
            assert s._tail is tail
            ref = _block_product(a, s)
            assert got.to_json() == ref.to_json()
            assert _kernel_form(got) == _kernel_form(ref)
        assert (tail[0] == s.dim) is full


@pytest.mark.parametrize("name", ["q", "fp:7", "qt:1", "qt:2"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32), depth=st.integers(0, 2))
def test_word_times_random_series_is_the_reduced_block_product(name, seed, depth):
    """As above, on random right factors; a zero or constant one takes the
    constant shortcut of ``*`` instead, and is skipped."""
    field = field_from_name(name)
    rng = random.Random(seed)
    s = rand_rep(rng, field, depth=depth if name != "qt:2" else min(depth, 1))
    if s.dim < 2 and not s._letters():
        return
    for _ in range(3):
        w = tuple(rng.randrange(3) for _ in range(rng.randint(1, 3)))
        c = field.random(rng, units_only=True)
        for a in (LinRep.word(field, w, c), LinRep.word(field, w).scale(c), LinRep.from_free(FreeElem.word(field, w, c))):
            assert a._mono
            got, ref = a * s, _block_product(a, s)
            assert got.to_json() == ref.to_json()
            assert _kernel_form(got) == _kernel_form(ref)


def test_marks_and_the_products_that_take_them(monkeypatch):
    """``word``, ``letter``, ``from_free`` of one word, ``scale`` and the
    delta of a marked word by its last letter, if not a constant, mark a
    single word; nothing else does.  ``x_i * b`` and the products with the
    coefficients of e build no block product, so a product that fell back
    to the general path would fail here."""
    field = QQ
    assert LinRep.letter(field, 1)._mono and LinRep.word(field, (0, 2), field.from_int(2))._mono
    assert LinRep.from_free(FreeElem.word(field, (1, 0), field.from_int(3)))._mono
    assert LinRep.letter(field, 0).scale(field.from_int(-2))._mono
    assert LinRep.word(field, (0, 1)).delta(1)._mono
    for other in (LinRep.from_free(FreeElem.scalar(field, field.from_int(2))),
                  LinRep.from_free(FreeElem.letter(field, 0) + FreeElem.letter(field, 1)),
                  LinRep.letter(field, 0) * LinRep.letter(field, 1), LinRep.word(field, (0, 1)).delta(0),
                  LinRep.letter(field, 1).delta(1), (LinRep.letter(field, 0) * LinRep.letter(field, 1)).delta(1),
                  LinRep.letter(field, 0) + LinRep.letter(field, 0)):
        assert not other._mono
    calls = {"product": 0, "word": 0}
    product, word_times = linrep._product, LinRep._word_times

    def counted_product(*args):
        calls["product"] += 1
        return product(*args)

    def counted_word_times(self, k, other):
        calls["word"] += 1
        return word_times(self, k, other)

    ring = SkewRing(CoeffDomain("rat", field), 2)
    b = eval_skew("(1 - x0 - x1*x2)^-1 + y0*(2 + x1)*(1 - x0)^-1 + y1*y2*x1 + y2*(1 + x0*x1)", ring)
    # only b's y-degree-0 coefficient meets a whole letter x_i: under a y
    # letter x_i turns into a constant
    expected = [ring.x(i) * b for i in range(3)] + [ring.e() * b]
    monkeypatch.setattr(linrep, "_product", counted_product)
    monkeypatch.setattr(LinRep, "_word_times", counted_word_times)
    for i in range(3):
        assert ring.x(i) * b == expected[i]
    assert calls == {"product": 0, "word": 3}
    assert ring.e() * b == expected[3]
    assert calls == {"product": 0, "word": 6}
    # every other product builds the block product
    two = LinRep.from_free(FreeElem.letter(field, 0) + FreeElem.letter(field, 1))
    two * b.data[()]
    assert calls == {"product": 1, "word": 6}


# -- mostly-zero blocks read entry by entry --------------------------------------

@pytest.mark.parametrize("field", [QQ, F7, QT, QT2], ids=lambda f: f.name)
@given(data=st.data())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_load_reads_mostly_zero_blocks_as_the_generic_codec_does(field, data):
    """On the path block of a word, mostly zeros, with a few entries set to
    0, 1, -1 or another scalar, the field values ``_load`` gives are those
    ``scalar_from_json`` gives, entry by entry."""
    w = data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=3))
    obj = LinRep.word(field, w, field.from_int(data.draw(st.sampled_from([1, -1, 2])))).to_json()
    others = [field.zero(), field.one(), -field.one(), field.from_int(3)]
    if hasattr(field, "var"):
        others.append(field.one() / (field.var(0) + 1))
    cells = [(obj["lam"], i) for i in range(obj["dim"])] + [(obj["gamma"], i) for i in range(obj["dim"])]
    cells += [(row, j) for m in obj["mu"].values() for row in m for j in range(obj["dim"])]
    for _ in range(data.draw(st.integers(0, 3))):
        row, j = data.draw(st.sampled_from(cells))
        row[j] = scalar_to_json(field, data.draw(st.sampled_from(others)))
    rep = LinRep._load(field, obj)
    dec = lambda c: scalar_from_json(field, c)
    assert rep.lam == [dec(c) for c in obj["lam"]] and rep.gamma == [dec(c) for c in obj["gamma"]]
    assert rep.mu == {int(x): [[dec(c) for c in row] for row in m] for x, m in obj["mu"].items()}


# -- single words loaded as their path blocks, kept as loaded ------------------

def _loads_as_reduce_does(field, obj):
    """from_json of obj, checked to have the JSON and the stored kernel form
    of obj loaded and reduced by both passes."""
    got, ref = LinRep.from_json(field, obj), LinRep._load(field, obj).reduce()
    assert got.to_json() == ref.to_json()
    assert _kernel_form(got) == _kernel_form(ref)
    return got


@pytest.mark.parametrize("spec", grid_specs(), ids=lambda s: s.label())
def test_grid_certificate_coefficients_load_as_reduce_gives_them(spec):
    """Every coefficient of a construction's certificate is a constant or
    the path block of a word; each word loads as it is written, marked,
    and each constant through ``reduce()``."""
    cert = build_generators(spec).to_json()
    field = field_from_name(cert["field"])
    for m in [cert["E"], *cert["A"], *cert["B"]]:
        for el in chain.from_iterable(m):
            for _, obj in el["terms"]:
                got = _loads_as_reduce_does(field, obj)
                assert got.to_json() == obj
                assert got._mono is (obj["dim"] > 1)


@pytest.mark.parametrize("name", ["q", "fp:7", "qt:1", "qt:2"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32), w=st.lists(st.integers(0, 3), max_size=5))
def test_loaded_words_are_kept_as_reduce_gives_them(name, seed, w):
    """Words c*w, unscaled and scaled (lam = a*e_0), load marked, with the
    JSON and kernel form ``reduce()`` gives, letters in increasing order
    whatever their order in the JSON, and list as the one term w."""
    field = field_from_name(name)
    rng = random.Random(seed)
    c, a = field.random(rng, units_only=True), field.random(rng, units_only=True)
    for s in (LinRep.word(field, w), LinRep.word(field, w, c), LinRep.word(field, w).scale(a),
              LinRep.word(field, w, c).scale(a)):
        obj = s.to_json()
        for mu in (obj["mu"], dict(reversed(obj["mu"].items()))):
            got = _loads_as_reduce_does(field, dict(obj, mu=mu))
            assert got._mono is bool(w)
            assert got.to_free() == FreeElem.word(field, w, s.coeff(w))
            assert got == s


def _near_paths(field):
    """(what, JSON, the series it is) for blocks one change away from the
    path block of 3/5*x0*x1*x2."""
    enc = lambda c: scalar_to_json(field, c)
    z, o, two = enc(field.zero()), enc(field.one()), enc(field.from_int(2))
    c = field.from_int(3) / field.from_int(5)
    word = lambda w, coeff=c: LinRep.word(field, w, coeff)

    def near(*changes):
        obj = word((0, 1, 2)).to_json()
        for keys, value in changes:
            target = obj
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]] = value
        return obj

    return [
        ("superdiagonal 2", near((("mu", "1", 1, 2), two)), word((0, 1, 2), c + c)),
        ("second letter on one position", near((("mu", "2", 0, 1), o)), word((0, 1, 2)) + word((2, 1, 2))),
        ("two letters on (0, 1), none on (1, 2)", near((("mu", "1", 1, 2), z), (("mu", "1", 0, 1), o)),
         LinRep.zero(field)),
        ("entry off the superdiagonal", near((("mu", "1", 0, 0), o)),
         LinRep.letter(field, 1).star() * word((0, 1, 2))),
        ("zero letter matrix", near((("mu", "3"), [[z] * 4 for _ in range(4)])), word((0, 1, 2))),
        ("second nonzero in lam", near((("lam", 1), o)), word((0, 1, 2)) + word((1, 2))),
        ("second nonzero in gamma", near((("gamma", 0), o)), word((0, 1, 2)) + LinRep.one(field)),
    ]


@pytest.mark.parametrize("name", ["q", "fp:7", "qt:1", "qt:2"])
def test_near_path_blocks_are_reduced(name):
    """A block one change away from a word's path block is not marked: it
    is reduced as any other block, and is the series the change makes."""
    field = field_from_name(name)
    for what, obj, series in _near_paths(field):
        got = _loads_as_reduce_does(field, obj)
        assert not got._mono, what
        assert got == series, what


@pytest.mark.parametrize("name", ["q", "fp:7", "qt:1", "qt:2"])
def test_to_free_shortcuts_equal_the_general_listing(name):
    """A marked word and a constant are listed with no level search, as
    the search and listing list the same block unmarked: a word's block
    with its mark dropped, and a constant as an unreduced dim-2 block."""
    field = field_from_name(name)
    k = linrep._kernel(field)
    c = field.from_int(3) / field.from_int(5)
    words = [LinRep.word(field, w, c) for w in [(0,), (2, 0), (1, 1, 1), (0, 2, 1, 0)]]
    words += [a.scale(field.from_int(-2)) for a in words] + [LinRep.from_free(FreeElem.word(field, (1, 2), c))]
    z, o = field.zero(), field.one()
    for a in words:
        assert a._mono
        plain = LinRep._of(field, *a._kb(k))
        assert a.to_free() == a.to_free(bounded=True) == plain.to_free()
    for s in (LinRep.one(field), LinRep.scalar(field, c)):
        assert s.dim == 1 and not s._letters()
        assert s.to_free() == LinRep(field, 2, [o, z], {}, [s.tau(), z]).to_free() == FreeElem.scalar(field, s.tau())


# -- deltas of marked words, and constants loaded as written --------------------

@pytest.mark.parametrize("name", ["q", "fp:7", "qt:1", "qt:2"])
def test_delta_of_a_marked_word_is_the_marked_shorter_word(name):
    """The delta of a marked word c*w by its last letter is marked when
    |w| >= 2, and only then: its field values are the path block of
    c*w[:-1] (``_is_path``), its JSON and stored kernel form are those of
    the delta of the same block unmarked, it lists as c*w[:-1], and its
    products with series are the reduced block products."""
    field = field_from_name(name)
    k = linrep._kernel(field)
    factors = [s for s, _ in _right_factors(field)]
    for a in _words(field) + [LinRep.word(field, (0, 2, 1, 2), field.from_int(-3)).scale(field.from_int(2))]:
        w = next(iter(a.to_free().coeffs))
        plain = LinRep._of(field, *a._kb(k))
        for i in range(3):
            got, ref = a.delta(i), plain.delta(i)
            assert not ref._mono
            assert got.to_json() == ref.to_json()
            assert _kernel_form(got) == _kernel_form(ref)
            assert got._mono is (i == w[-1] and len(w) >= 2)
            if got._mono:
                (lam,), mu, (gamma,) = got._fb()
                assert linrep._is_path(field, got.dim, lam, mu, gamma)
                assert got.to_free() == FreeElem.word(field, w[:-1], a.coeff(w))
                for s in factors:
                    assert _kernel_form(got * s) == _kernel_form(_block_product(got, s))


@pytest.mark.parametrize("name", ["q", "fp:7", "qt:1", "qt:2"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_loaded_constants_are_kept_as_reduce_gives_them(name, seed):
    """A letterless 1 x 1 block (a, {}, b) with a and b nonzero loads as
    written, with no kernel form built, and has the JSON, the kernel form
    and the constant a*b that ``_load(obj).reduce()`` gives."""
    field = field_from_name(name)
    rng = random.Random(seed)
    a, b = field.random(rng, units_only=True), field.random(rng, units_only=True)
    enc = lambda c: scalar_to_json(field, c)
    obj = {"field": field.name, "dim": 1, "lam": [enc(a)], "mu": {}, "gamma": [enc(b)]}
    got = LinRep.from_json(field, obj)
    assert got._k is None and got.tau() == a * b
    assert got.to_json() == obj
    ref = LinRep._load(field, obj).reduce()
    assert got.tau() == ref.tau()
    assert got.to_free() == ref.to_free() == FreeElem.scalar(field, a * b)
    _loads_as_reduce_does(field, obj)


@pytest.mark.parametrize("name", ["q", "fp:7", "qt:1", "qt:2"])
def test_zero_and_lettered_1x1_blocks_are_reduced(name):
    """A 1 x 1 block with a zero lam or gamma loads as dim 0, and one with a
    letter, zero or not, is reduced as any other block."""
    field = field_from_name(name)
    enc = lambda c: scalar_to_json(field, c)
    z, c = enc(field.zero()), enc(field.from_int(3) / field.from_int(5))
    block = lambda lam, gamma, mu: {"field": field.name, "dim": 1, "lam": [lam], "mu": mu, "gamma": [gamma]}
    for obj in (block(z, c, {}), block(c, z, {}), block(z, z, {})):
        assert LinRep.from_json(field, obj).dim == 0
        _loads_as_reduce_does(field, obj)
    square = field.from_int(9) / field.from_int(25)
    for letter, series in ((z, LinRep.scalar(field, square)),
                           (enc(field.one()), LinRep.letter(field, 0).star().scale(square))):
        obj = block(c, c, {"0": [[letter]]})
        assert LinRep.from_json(field, obj)._k is not None
        assert _loads_as_reduce_does(field, obj) == series


# -- the level search and the word listing ------------------------------------------

def _level_case(field, seed, depth):
    """A random series: a polynomial, a product and sum of polynomials, one
    times a unit and its inverse (a polynomial again), one times the
    inverse of a unit, plus another, or a series from :func:`rand_rep`."""
    rng = random.Random(seed)
    p, q = (LinRep.from_free(rand_poly(rng, field, terms=3, maxlen=3)) for _ in range(2))
    u = LinRep.one(field) - LinRep.word(field, rng.choice(((0,), (1, 0))), field.random(rng, units_only=True))
    kind = rng.randrange(6)
    if kind == 0:
        return p
    if kind == 1:
        return p * q + q
    if kind == 2:
        return p * u.inv() * u
    if kind < 5:
        return p * u.inv() + q
    return rand_rep(rng, field, depth)


_LEVEL_FIELDS = [("q", 2), ("fp:7", 2), ("qt:1", 1), ("qt:2", 1)]


def _reference_render(a, window):
    """``render`` as it was defined before it shared the word listing: the
    window of field values, and the tail marker unless the series equals
    that window."""
    poly = FreeElem(a.field, dict(TruncSeries.from_linrep(a, window).coeffs))
    return poly.render() + ("" if LinRep.from_free(poly) == a else " + ...")


@pytest.mark.parametrize("name, depth", _LEVEL_FIELDS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), window=st.integers(-1, 5))
def test_render_matches_the_window_and_the_equality_of_its_tail(name, depth, seed, window):
    a = _level_case(field_from_name(name), seed, depth)
    assert a.render(window) == _reference_render(a, window)


def _length_lex_words(letters, most):
    yield ()
    level = [()]
    for _ in range(most):
        level = [w + (x,) for w in level for x in letters]
        yield from level


@pytest.mark.parametrize("name, depth", _LEVEL_FIELDS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32))
def test_min_word_is_the_least_word_with_a_nonzero_coefficient(name, depth, seed):
    """``min_word`` is the first word in length-lex order, up to length
    2 * dim, whose ``coeff`` is nonzero, and None for the zero series; also
    with the constant term taken off, and between two letters."""
    field = field_from_name(name)
    a = _level_case(field, seed, depth)
    x0, x1 = LinRep.letter(field, 0), LinRep.letter(field, 1)
    for b in (a, a - LinRep.scalar(field, a.tau()), x1 * a * x0):
        want = next((w for w in _length_lex_words((0, 1), 2 * b.dim) if b.coeff(w)), None)
        assert b.min_word() == want
        assert (want is None) == (b.dim == 0)


def _reference_is_polynomial(a):
    """The polynomiality test as a level search on products made
    primitive: no word of length dim has a row outside the span of those
    of the smaller words of its level."""
    if a.dim == 0:
        return True
    k = linrep._kernel(a.field)
    d, (lam,), mu, _ = a._kb(k)
    level = [k.span(lam)]
    for _ in range(d):
        add = linrep.Echelon(k.ring).add
        level = [u for v in level for _, m in sorted(mu.items())
                 if add(u := _primitive_product(k, v, m)) is not None]
        if not level:
            return True
    return False


@pytest.mark.parametrize("name, depth", _LEVEL_FIELDS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32))
def test_to_free_decides_polynomials_as_the_search_on_primitive_products(name, depth, seed):
    """``to_free`` gives a polynomial exactly when the reference search
    finds one, and then the polynomial whose window is the series'."""
    a = _level_case(field_from_name(name), seed, depth)
    try:
        p = a.to_free()
    except ValueError as exc:
        assert "infinite support" in str(exc)
        assert not _reference_is_polynomial(a)
    else:
        assert _reference_is_polynomial(a)
        assert LinRep.from_free(p) == a
        assert dict(p.coeffs) == window(a, a.dim + 1)
