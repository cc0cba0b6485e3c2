"""The one echelon class, ``la.Echelon``, over every coefficient ring of the
span kernel, against Gaussian elimination on field values."""

import copy
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ratskew.fields import ZZ, Fp, MPoly, RatFunc, poly_ring, zmod_ring
from ratskew.la import Echelon

P = 7

# (ring, whether its rows are primitive with a positive lead, the field value of an element)
RINGS = {
    "zz": (ZZ, True, Fraction),
    "zmod7": (zmod_ring(P), False, lambda x: Fp(P, x)),
    "zt": (poly_ring(1), True, lambda x: RatFunc(MPoly(1, poly_ring(1).terms(x)), MPoly.const(1, 1))),
    "zt1t2": (poly_ring(2), True, lambda x: RatFunc(MPoly(2, poly_ring(2).terms(x)), MPoly.const(2, 1))),
}


@st.composite
def _element(draw, name):
    if name == "zz":
        return draw(st.integers(-6, 6))
    if name == "zmod7":
        return draw(st.integers(0, P - 1))
    ring = poly_ring(1 if name == "zt" else 2)
    expo = st.tuples(*[st.integers(0, 2)] * ring.nvars)
    terms = {e: k for e, k in draw(st.dictionaries(expo, st.integers(-4, 4), max_size=3)).items() if k}
    return ring.of(terms) if terms else ring.zero


@st.composite
def _vectors(draw, name):
    """Vectors of one length, some of them repeats of earlier ones or ring
    combinations of two earlier ones, so that not every one is independent."""
    ring = RINGS[name][0]
    n = draw(st.integers(1, 5))
    vs: list = []
    for _ in range(draw(st.integers(1, 7))):
        how = draw(st.sampled_from(["new", "new", "repeat", "combination"])) if vs else "new"
        if how == "new":
            v = [draw(_element(name)) for _ in range(n)]
        elif how == "repeat":
            v = list(draw(st.sampled_from(vs)))
        else:
            u, w = draw(st.sampled_from(vs)), draw(st.sampled_from(vs))
            a, c = draw(_element(name)), draw(_element(name))
            v = ring.comb(a, u, c, w)
        vs.append(v)
    return vs


def _reference_add(basis, v):
    """Gaussian elimination on field values: ``basis`` maps each pivot to
    its row, with pivot entry 1 and zeros at the other pivots.  Adds v and
    returns its new pivot-1 row if the rank grew, else False."""
    for q, row in basis.items():
        if v[q]:
            c = v[q]
            v = [x - c * y for x, y in zip(v, row)]
    piv = next((j for j, x in enumerate(v) if x), None)
    if piv is None:
        return False
    s = v[piv]
    v = [x / s for x in v]
    for q, row in basis.items():
        if row[piv]:
            c = row[piv]
            basis[q] = [x - c * y for x, y in zip(row, v)]
    basis[piv] = v
    return v


@settings(max_examples=150, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(RINGS)))
def test_echelon_is_the_reduced_echelon_basis_of_field_elimination(data, name):
    ring, primitive, value = RINGS[name]
    vs = data.draw(_vectors(name), "vectors")
    kept = copy.deepcopy(vs)
    ech, basis = Echelon(ring), {}
    for v in vs:
        got, want = ech.add(v), _reference_add(basis, [value(x) for x in v])
        assert (got is None) == (want is False)
        if got is not None:
            # the row just stored, which is the reference's new row up to its pivot
            k = next(i for i, row in enumerate(ech.rows) if row is got)
            s = value(got[ech.pivots[k]])
            assert [value(x) / s for x in got] == want
    assert vs == kept  # no added vector is mutated
    assert ech.dim() == len(basis) and ech.pivots == sorted(basis)
    for row, q in zip(ech.rows, ech.pivots):
        s = value(row[q])
        assert [value(x) / s for x in row] == basis[q]
        if primitive:
            assert ring.content(row) == ring.one
            assert ring.lead(row[q]) > 0


@settings(max_examples=100, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(RINGS)))
def test_comb_and_quo_are_the_element_operations(data, name):
    ring = RINGS[name][0]
    n = data.draw(st.integers(0, 4), "n")
    v = [data.draw(_element(name), "v") for _ in range(n)]
    w = [data.draw(_element(name), "w") for _ in range(n)]
    a, c = data.draw(_element(name), "a"), data.draw(_element(name), "c")
    assert ring.comb(a, v, c, w) == [ring.add(ring.mul(a, x), ring.neg(ring.mul(c, y))) for x, y in zip(v, w)]
    g = data.draw(_element(name).filter(bool), "g")
    assert ring.quo([ring.mul(g, x) for x in v], g) == v
