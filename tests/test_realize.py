"""Generator-matrix realization of group maps: spec validation, the four
construction cases, defining-identity verification, series-side
invertibility certificates, and multi-step chain planning."""

import pytest

from ratskew.acceptance import grid_specs
from ratskew.fields import FunctionField, field_from_name
from ratskew.freealg import FreeElem
from ratskew.la import mat_mul
from ratskew import realize
from ratskew.linrep import LinRep, SeriesMatrix
from ratskew.realize import (ChainPlan, GeneratorMatrices, HomSpec, VerifyReport,
                             build_generators, generator_matrices_from_json,
                             hom_spec, mat_add, mat_zero, plan_chain, spot_check_sigma_prime,
                             verify_chain, verify_generators)
from ratskew.skew import t_equal

QQ = field_from_name("q")


# -- spec validation / canonicalization ------------------------------------------

def test_hom_spec_cases():
    s = hom_spec(2, 4, 2)
    assert (s.case, s.h, s.size) == (1, 1, 2)
    assert hom_spec(6, 3, 1) == HomSpec(6, 3, 1, 1, 2, 1)
    assert hom_spec(0, 3, 2).case == 2
    assert hom_spec(0, 0, 5) == HomSpec(0, 0, 5, 2, None, 5)
    assert hom_spec(0, 0, 0).case == 3
    assert hom_spec(0, 0, -4) == HomSpec(0, 0, -4, 3, None, 1)
    assert hom_spec(3, 0, 0) == HomSpec(3, 0, 0, 4, None, 4)


def test_hom_spec_multiplier_reduction():
    # multipliers land in 1..m; the zero residue is represented by m itself
    assert hom_spec(2, 4, 6).l == 2
    assert hom_spec(2, 4, -2).l == 2
    assert hom_spec(2, 4, 4).l == 4
    assert hom_spec(2, 4, 8) == hom_spec(2, 4, 4)
    assert hom_spec(0, 3, 7).l == 1


def test_hom_spec_rejects():
    with pytest.raises(ValueError):
        hom_spec(1, 2, 1)  # 1 is not a valid tag
    with pytest.raises(ValueError):
        hom_spec(2, -3, 1)
    with pytest.raises(ValueError):
        hom_spec(2, 4, 1)  # 1*2 != 0 mod 4
    with pytest.raises(ValueError):
        hom_spec(3, 0, 2)  # torsion cannot map onto 2 in Z


def test_hom_spec_json_keys():
    obj = hom_spec(2, 4, 2).to_json()
    assert sorted(obj) == ["case", "h", "l", "m", "n", "size"]


# -- building and verifying the four cases -----------------------------------------

CASE_SPECS = [
    hom_spec(2, 4, 2),   # case 1: finite -> finite
    hom_spec(2, 2, 2),   # case 1, zero map represented by l = m
    hom_spec(0, 3, 2),   # case 2: free -> finite
    hom_spec(0, 0, 3),   # case 2: free -> free, positive multiplier
    hom_spec(0, 0, -2),  # case 3: free -> free, l <= 0
    hom_spec(3, 0, 0),   # case 4: finite -> free
]


@pytest.mark.parametrize("spec", CASE_SPECS, ids=lambda s: s.label())
def test_build_and_verify(spec):
    g = build_generators(spec, count=3)
    assert g.size == spec.size
    if spec.case in (2, 3):
        assert len(g.A) == len(g.B) == 3
    else:
        assert len(g.A) == len(g.B) == spec.n + 1
    rep = verify_generators(g)
    assert rep.ok, rep.failed()
    names = [n for n, _ in rep.checks]
    assert "E*E = E" in names
    assert ("sum B_i*A_i = E" in names) == (spec.case in (1, 4))


def test_free_backend_cross_check():
    spec = hom_spec(0, 3, 1)
    g = build_generators(spec, backend="free", count=2)
    assert g.ring.domain.kind == "free"
    assert verify_generators(g).ok


def test_case1_needs_invertible_scalar():
    with pytest.raises(ValueError):
        build_generators(hom_spec(2, 4, 2), field=QQ)
    g = build_generators(hom_spec(2, 4, 2), field=FunctionField(2))
    assert verify_generators(g).ok


def test_tampered_generators_fail():
    g = build_generators(hom_spec(3, 0, 0))
    g.A[0][0][0] = g.A[0][0][0] + g.ring.one()
    rep = verify_generators(g)
    assert not rep.ok and rep.failed()


def test_generator_json_round_trip():
    g = build_generators(hom_spec(0, 3, 2), count=2)
    obj = g.to_json()
    assert obj["kind"] == "generator_matrices"
    h = generator_matrices_from_json(obj)
    assert h.spec == g.spec and h.size == g.size
    assert h.eq(h.E, g.E) and h.eq(h.A[1], g.A[1])
    assert verify_generators(h).ok


def test_certificate_key_lists_are_the_keys_to_json_writes():
    g = build_generators(hom_spec(0, 3, 2), count=2)
    assert set(g.to_json()) == realize.GENERATOR_KEYS
    sigma = spot_check_sigma_prime(g, FreeElem.letter(QQ, 0))
    assert set(sigma.to_json()) == realize.SIGMA_CERT_KEYS


def _reference_eq(g: GeneratorMatrices, p, q) -> bool:
    """Entry-by-entry equality as ``GeneratorMatrices.eq`` decided it
    before its literal shortcut: every pair goes to ``t_equal`` when g
    compares modulo the ideal of e, and to ``==`` otherwise."""
    for rp, rq in zip(p, q):
        for x, y in zip(rp, rq):
            same = t_equal(x, y) if g.quotient else x == y
            if not same:
                return False
    return True


def _reference_verify(g: GeneratorMatrices) -> VerifyReport:
    """The verification loop as it ran before the identities were checked
    over polynomial coefficients: g's own arithmetic, rational series for
    a ``rat`` g, and every entry compared by :func:`_reference_eq`.  Kept
    as the reference the polynomial check must agree with."""
    z = g.ring.zero()
    eq = lambda p, q: _reference_eq(g, p, q)
    checks = [("E*E = E", eq(mat_mul(g.E, g.E, z), g.E))]
    zero = mat_zero(g.ring, g.size)
    for i in range(len(g.A)):
        for j in range(len(g.B)):
            want = g.E if i == j else zero
            name = "A%d*B%d = %s" % (i, j, "E" if i == j else "0")
            checks.append((name, eq(mat_mul(g.A[i], g.B[j], z), want)))
    if g.spec.case in (1, 4):
        acc = mat_zero(g.ring, g.size)
        for i in range(len(g.A)):
            acc = mat_add(acc, mat_mul(g.B[i], g.A[i], z))
        checks.append(("sum B_i*A_i = E", eq(acc, g.E)))
    for i in range(len(g.A)):
        checks.append(("E*A%d*E = A%d" % (i, i),
                       eq(mat_mul(mat_mul(g.E, g.A[i], z), g.E, z), g.A[i])))
        checks.append(("E*B%d*E = B%d" % (i, i),
                       eq(mat_mul(mat_mul(g.E, g.B[i], z), g.E, z), g.B[i])))
    return VerifyReport(all(ok for _, ok in checks), checks)


def _tampered(spec, change, backend="rat"):
    g = build_generators(spec, backend=backend)
    change(g)
    return g


def _double_e00(g):
    g.E[0][0] = g.E[0][0].scale(g.ring.domain.field.from_int(2))


def _bump_a0(g):
    g.A[0][0][0] = g.A[0][0][0] + g.ring.one()


def _add_e_to_a0(g):
    """Add e = 1 - sum y_i x_i, which lies in the ideal of e, to the first
    entry of A_0: equal modulo the ideal, literally unequal."""
    g.A[0][0][0] = g.A[0][0][0] + g.ring.e(g.ring.n if g.quotient else 0)


@pytest.mark.parametrize("spec", grid_specs(), ids=lambda s: s.label())
def test_polynomial_verification_matches_the_series_reference(spec):
    """Every ``grid_specs()`` spec gets the same checks, names, verdicts and
    failed lists from ``verify_generators`` (polynomial coefficients, the
    literal shortcut of ``GeneratorMatrices.eq``) as from
    :func:`_reference_verify` (g's own arithmetic, every entry compared):
    the ``rat`` build, its certificate reloaded, the ``free`` build, and
    tampered ``rat`` and ``free`` builds, with E[0][0] doubled, with 1
    added to the first entry of A_0, and with e added to it, which fails
    only where the identities are compared literally."""
    g = build_generators(spec)
    variants = {
        "rat": (g, True),
        "certificate": (generator_matrices_from_json(g.to_json()), True),
        "free": (build_generators(spec, backend="free"), True),
    }
    for backend in ("rat", "free"):
        variants.update({
            "%s, E[0][0] doubled" % backend: (_tampered(spec, _double_e00, backend), False),
            "%s, A_0 entry + 1" % backend: (_tampered(spec, _bump_a0, backend), False),
            "%s, A_0 entry + e" % backend: (_tampered(spec, _add_e_to_a0, backend), g.quotient),
        })
    for what, (h, ok) in variants.items():
        new, old = verify_generators(h), _reference_verify(h)
        assert new.checks == old.checks, what
        assert new.failed() == old.failed(), what
        assert new.ok is old.ok is ok, what


def test_only_literally_unequal_entries_reach_the_quotient_test(monkeypatch):
    """``GeneratorMatrices.eq`` sends a pair of entries to ``t_equal`` only
    when they differ literally.  Over every quotient spec of
    ``grid_specs()``, built and with e added to an entry of A_0, the checks
    pass, and some pairs are still sent."""
    seen = []

    def spy(x, y):
        seen.append(x != y)
        return t_equal(x, y)

    monkeypatch.setattr(realize, "t_equal", spy)
    for spec in grid_specs():
        g = build_generators(spec)
        if g.quotient:
            for h in (g, _tampered(spec, _add_e_to_a0, "free")):
                assert verify_generators(h).ok, spec.label()
    assert seen and all(seen)


def test_verify_refuses_a_series_coefficient():
    """A hand-built ``rat`` GeneratorMatrices whose entry has infinite
    support cannot be checked over polynomial coefficients: it raises."""
    g = build_generators(hom_spec(0, 3, 2), count=2)
    star = LinRep.letter(QQ, 0).star()
    g.A[0][0][0] = g.ring.embed(star)
    with pytest.raises(ValueError, match="infinite support"):
        verify_generators(g)


# -- invertibility certificates -------------------------------------------------------

def test_sigma_cert_scalar_perturbation():
    g = build_generators(hom_spec(0, 3, 2), count=3)
    from fractions import Fraction
    p = FreeElem.word(QQ, (0,), QQ.from_fraction(Fraction(1, 2))) + FreeElem.word(QQ, (1, 0))
    cert = spot_check_sigma_prime(g, p)
    assert cert.ok and cert.ok_right and cert.ok_left
    assert cert.size == g.size
    obj = cert.to_json()
    assert obj["kind"] == "sigma_cert" and obj["ok_right"] and obj["ok_left"]


def test_sigma_cert_matrix_perturbation():
    g = build_generators(hom_spec(0, 0, 2), count=2)
    z0 = FreeElem.letter(QQ, 0)
    z1 = FreeElem.letter(QQ, 1)
    zero = FreeElem.zero(QQ)
    cert = spot_check_sigma_prime(g, [[z0, z1], [zero, z0 * z1]])
    assert cert.ok
    assert cert.size == 2 * g.size


def test_sigma_cert_guards():
    with pytest.raises(ValueError):
        spot_check_sigma_prime(build_generators(hom_spec(3, 0, 0)), FreeElem.letter(FunctionField(1), 0))
    g = build_generators(hom_spec(0, 3, 1), count=2)
    with pytest.raises(ValueError):
        spot_check_sigma_prime(g, FreeElem.one(QQ))  # constant term
    with pytest.raises(ValueError):
        spot_check_sigma_prime(g, FreeElem.letter(QQ, 5))  # no such generator


def _spy_conversions(monkeypatch, g):
    """Record, for each ``SeriesMatrix.from_entries`` call, the index of the
    generator A_k whose entries it was given (a ``rat`` coefficient is passed
    as it is), or None for any other matrix."""
    calls = []
    original = SeriesMatrix.from_entries

    def owner(entries):
        for k, a in enumerate(g.A):
            if all(entries[i][j] is el.data[()] for i, row in enumerate(a) for j, el in enumerate(row) if el):
                return k
        return None

    def spy(field, entries):
        calls.append(owner(entries))
        return original(field, entries)
    monkeypatch.setattr(SeriesMatrix, "from_entries", staticmethod(spy))
    return calls


@pytest.mark.parametrize("spec", [hom_spec(2, 4, 2), hom_spec(0, 3, 2)], ids=lambda s: "case%d" % s.case)
def test_sigma_cert_converts_only_the_generators_p_uses(monkeypatch, spec):
    """p over A_0 converts A_0 alone, once, however often p uses it; the
    inverted matrix is the only other series matrix built.  A second symbol
    converts its generator too."""
    g = build_generators(spec, count=3)
    fld = g.ring.domain.field
    z0, z1 = FreeElem.letter(fld, 0), FreeElem.letter(fld, 1)
    assert len(g.A) == 3
    calls = _spy_conversions(monkeypatch, g)
    assert spot_check_sigma_prime(g, z0 + z0 * z0).ok
    assert calls == [0, None]
    calls.clear()
    assert spot_check_sigma_prime(g, z0 + z1 * z0).ok
    assert calls == [0, 1, None]


def test_sigma_cert_refuses_a_y_letter_in_an_unused_generator():
    """Every A_i must be y-free, also one that p does not use."""
    g = build_generators(hom_spec(0, 3, 2), count=3)
    z0 = FreeElem.letter(QQ, 0)
    assert spot_check_sigma_prime(g, z0).ok
    g.A[2][0][1] = g.ring.y(0)
    with pytest.raises(ValueError, match="generator entry has a y letter"):
        spot_check_sigma_prime(g, z0)


# -- chains ---------------------------------------------------------------------------

def test_plan_chain_valid():
    plan = plan_chain(
        [{"tags": [0, 2], "u": [1, 1]},
         {"tags": [2], "u": [1]},
         {"tags": [4], "u": [2]}],
        [[[1], [2]], [[2]]])
    assert plan.ok and not plan.errors
    assert len(plan.steps) == 2
    assert all(not s.errors for s in plan.steps)
    specs = plan.all_specs()
    assert {(s.n, s.m, s.l) for s in specs} == {(0, 2, 1), (2, 2, 2), (2, 4, 2)}
    obj = plan.to_json()
    assert obj["kind"] == "chain_plan" and obj["ok"]
    assert obj["steps"][0]["specs"][1][0]["case"] == 1


def test_plan_chain_bad_tag_and_shape():
    plan = plan_chain([{"tags": [1], "u": [1]}, {"tags": [2], "u": [1]}], [[[1]]])
    assert not plan.ok and any("bad tag" in e for e in plan.errors)
    plan = plan_chain([{"tags": [2], "u": [1]}, {"tags": [2], "u": [1]}], [])
    assert not plan.ok and any("need" in e for e in plan.errors)
    plan = plan_chain([{"tags": [2, 2], "u": [1, 1]}, {"tags": [2], "u": [1]}], [[[1]]])
    assert not plan.ok and any("shape" in e for e in plan.errors)


def test_plan_chain_unit_not_carried():
    plan = plan_chain([{"tags": [0], "u": [1]}, {"tags": [0], "u": [3]}], [[[2]]])
    assert not plan.ok
    assert any("unit not carried" in e for e in plan.errors)


def test_plan_chain_ill_defined_component():
    plan = plan_chain([{"tags": [2], "u": [1]}, {"tags": [0], "u": [1]}], [[[1]]])
    assert not plan.ok
    assert any("component (0,0)" in e for e in plan.errors)


def test_verify_chain():
    plan = plan_chain(
        [{"tags": [2], "u": [1]}, {"tags": [4], "u": [2]}],
        [[[2]]])
    assert plan.ok
    results = verify_chain(plan, count=2)
    assert len(results) == 1
    spec, rep = results[0]
    assert (spec.n, spec.m, spec.l) == (2, 4, 2)
    assert rep.ok
