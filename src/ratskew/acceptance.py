"""Self-contained acceptance checks, one function per shipped guarantee.

Each criterion returns (ok, detail) and is deterministic in the seed; the
budgets are wall-clock upper bounds the suite asserts against.  The CLI
``selftest`` subcommand and ``tests/test_acceptance.py`` both run this
registry.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from .fields import QQ, field_from_name
from .freealg import FreeElem
from .linrep import LinRep
from .truncated import TruncSeries
from .skew import (CoeffDomain, SkewRing, SkewElem, ideal_member,
                   t_witness, lemma51_word, verify_word_system)
from .leavitt import UElem, v_is_zero, v_witness, uinf_witness
from .kzero import parse_presentation, grothendieck_group, analyze_pisr_shape
from .realize import (hom_spec, build_generators, verify_generators,
                      spot_check_sigma_prime, plan_chain, verify_chain)

PINNED_SEED = 20260815


# ---------------------------------------------------------------------------
# deterministic sample generators
# ---------------------------------------------------------------------------

def rand_poly(rng, field, nletters: int, maxlen: int = 2, terms: int = 3) -> FreeElem:
    out = FreeElem.zero(field)
    for _ in range(rng.randint(1, terms)):
        w = tuple(rng.randrange(nletters) for _ in range(rng.randint(0, maxlen)))
        c = field.random(rng)
        if c:
            out = out + FreeElem.word(field, w, c)
    return out


def rand_series(rng, field, nletters: int, depth: int = 2) -> LinRep:
    """Random rational series: polynomials combined by +, *, and unit inverse."""
    if depth == 0 or rng.random() < 0.35:
        return LinRep.from_free(rand_poly(rng, field, nletters))
    r = rng.random()
    a = rand_series(rng, field, nletters, depth - 1)
    if r < 0.30:
        return a + rand_series(rng, field, nletters, depth - 1)
    if r < 0.60:
        return a * rand_series(rng, field, nletters, depth - 1)
    # force a unit constant term, then invert
    u = LinRep.one(field) + (a - LinRep.scalar(field, a.tau()))
    return u.inv()


def rand_series_nonzero(rng, field, nletters: int, depth: int = 2, max_dim: int | None = None) -> LinRep:
    while True:
        s = rand_series(rng, field, nletters, depth)
        if s and (max_dim is None or s.dim <= max_dim):
            return s


def rand_skew(rng, ring: SkewRing, ydeg: int = 3, terms: int = 3) -> SkewElem:
    out = ring.zero()
    for _ in range(rng.randint(1, terms)):
        w = tuple(rng.randrange(ring.n + 1) for _ in range(rng.randint(0, ydeg)))
        out = out + SkewElem(ring, {w: rand_series_nonzero(rng, ring.domain.field, ring.n + 1, 1)})
    return out


def rand_uelem(rng, field, n, deg: int = 3, terms: int = 3) -> UElem:
    hi = n if n is not None else 4
    out = UElem.zero(field, n)
    for _ in range(rng.randint(1, terms)):
        di = rng.randint(0, deg)
        dj = rng.randint(0, deg - di)
        I = tuple(rng.randint(1, hi) for _ in range(di))
        J = tuple(rng.randint(1, hi) for _ in range(dj))
        c = field.random(rng, units_only=True)
        out = out + UElem.mono(field, I, J, c, n)
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def crit01_cyclic_monoid_groups(seed: int):
    count = 0
    for n in range(2, 13):
        g = grothendieck_group(parse_presentation("I | %dI = I" % n))
        want = () if n == 2 else (n - 1,)
        img = () if n == 2 else (1,)
        if g.factors != want or g.images["I"] != img:
            return False, "cyclic case n=%d gave %s, %s" % (n, g.factors, g.images)
        count += 1
    for n in range(2, 7):
        g = grothendieck_group(parse_presentation("I,P | I = %dI + P" % n))
        if g.factors != (0,) or g.images["I"] != (1,) or g.images["P"] != (1 - n,):
            return False, "two-generator case n=%d gave %s, %s" % (n, g.factors, g.images)
        count += 1
    return True, "%d presentations in invariant-factor form" % count


def crit02_skew_relations(seed: int):
    ring = SkewRing(CoeffDomain("rat", QQ), 2)
    one, zero, e = ring.one(), ring.zero(), ring.e()
    checks = []
    for i in range(3):
        for j in range(3):
            want = one if i == j else zero
            checks.append(ring.x(i) * ring.y(j) == want)
    checks.append(e * e == e)
    for j in range(3):
        checks.append(e * ring.y(j) == zero)
        checks.append(ring.x(j) * e == zero)
    acc = e
    for i in range(3):
        acc = acc + ring.y(i) * ring.x(i)
    checks.append(acc == one)
    ok = all(checks)
    return ok, "%d exact identities" % len(checks)


def crit03_derivation_law(seed: int):
    fields = [field_from_name("q"), field_from_name("fp:7"), field_from_name("qt:1")]
    total = 0
    for fi, field in enumerate(fields):
        rng = random.Random(seed * 1000 + 30 + fi)
        for _ in range(100):
            a = rand_series(rng, field, 3, 2)
            b = rand_series(rng, field, 3, 2)
            i = rng.randrange(3)
            lhs = (a * b).delta(i)
            rhs = a.delta(i).scale(b.tau()) + a * b.delta(i)
            if lhs != rhs:
                return False, "law failed over %s" % field.name
            total += 1
    return True, "%d product-rule identities across 3 scalar fields" % total


def _rand_tree(rng, depth: int):
    """Expression tree over 3 letters shared by both series backends."""
    if depth == 0 or rng.random() < 0.30:
        kind = rng.random()
        if kind < 0.45:
            return ("letter", rng.randrange(3))
        if kind < 0.65:
            return ("scalar", Fraction(rng.randint(-3, 3)))
        return ("poly", [(tuple(rng.randrange(3) for _ in range(rng.randint(0, 2))),
                          rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))])
    op = rng.random()
    if op < 0.30:
        return ("add", _rand_tree(rng, depth - 1), _rand_tree(rng, depth - 1))
    if op < 0.55:
        return ("mul", _rand_tree(rng, depth - 1), _rand_tree(rng, depth - 1))
    if op < 0.70:
        return ("sub", _rand_tree(rng, depth - 1), _rand_tree(rng, depth - 1))
    if op < 0.85:
        return ("delta", _rand_tree(rng, depth - 1), rng.randrange(3))
    w = tuple(rng.randrange(3) for _ in range(rng.randint(1, 2)))
    return ("geom", w, Fraction(rng.choice([-2, -1, 1, 2])))


def _eval_tree(node, mk):
    op = node[0]
    if op == "letter":
        return mk["letter"](node[1])
    if op == "scalar":
        return mk["scalar"](node[1])
    if op == "poly":
        out = mk["scalar"](Fraction(0))
        for w, c in node[1]:
            out = out + mk["word"](w, Fraction(c))
        return out
    if op == "add":
        return _eval_tree(node[1], mk) + _eval_tree(node[2], mk)
    if op == "sub":
        return _eval_tree(node[1], mk) - _eval_tree(node[2], mk)
    if op == "mul":
        return _eval_tree(node[1], mk) * _eval_tree(node[2], mk)
    if op == "delta":
        return _eval_tree(node[1], mk).delta(node[2])
    # geom: (1 - c*w)^-1, sparse in both backends
    _, w, c = node
    u = mk["one"]() - mk["word"](w, c)
    return u.inv()


def crit04_backend_agreement(seed: int):
    rng = random.Random(seed * 1000 + 4)
    field = QQ
    P = 18  # leaf window, wide enough to keep >= 12 after transductions
    mk_rep = {
        "letter": lambda i: LinRep.letter(field, i),
        "scalar": lambda q: LinRep.scalar(field, field.from_fraction(q)),
        "word": lambda w, q: LinRep.word(field, w, field.from_fraction(q)),
        "one": lambda: LinRep.one(field),
    }
    mk_tr = {
        "letter": lambda i: TruncSeries.letter(field, i, P),
        "scalar": lambda q: TruncSeries.scalar(field, field.from_fraction(q), P),
        "word": lambda w, q: TruncSeries.word(field, w, field.from_fraction(q), P),
        "one": lambda: TruncSeries.one(field, P),
    }
    done = 0
    while done < 100:
        tree = _rand_tree(rng, 5)
        try:
            rep = _eval_tree(tree, mk_rep)
            tr = _eval_tree(tree, mk_tr)
        except ValueError:
            continue  # zero constant term hit an inverse; tree discarded
        if tr.precision < 12:
            return False, "window shrank to %d" % tr.precision
        window = TruncSeries.from_linrep(rep, 12)
        got = {w: c for w, c in tr.coeffs.items() if len(w) < 12}
        if window.coeffs != got:
            return False, "coefficient mismatch on tree %d" % done
        done += 1
    return True, "100 expression trees agree on all words below length 12"


def crit05_ideal_membership(seed: int):
    rng = random.Random(seed * 1000 + 5)
    ring = SkewRing(CoeffDomain("rat", QQ), 2)
    e = ring.e()
    inside = 0
    for _ in range(200):
        a = ring.zero()
        for _ in range(rng.randint(1, 2)):
            w = tuple(rng.randrange(3) for _ in range(rng.randint(0, 3)))
            r = rand_series_nonzero(rng, QQ, 3, 1)
            a = a + ring.yword(w) * e * ring.embed(r)
        if not ideal_member(a):
            return False, "left multiple of the idempotent escaped the ideal"
        inside += 1
    outside = 0
    for _ in range(200):
        r = rand_series_nonzero(rng, QQ, 3, 2)
        if ideal_member(ring.embed(r)):
            return False, "nonzero coefficient claimed to be in the ideal"
        outside += 1
    return True, "%d members and %d non-members decided" % (inside, outside)


def crit06_witness_soundness(seed: int):
    rng = random.Random(seed * 1000 + 6)
    ring = SkewRing(CoeffDomain("rat", QQ), 2)
    tcount = 0
    while tcount < 100:
        a = rand_skew(rng, ring, 3, 2)
        if not a or ideal_member(a):
            continue
        w = t_witness(a)
        if not w.check:
            return False, "two-sided witness failed to verify"
        tcount += 1
    vcount = 0
    for n in (2, 3):
        done = 0
        while done < 50:
            a = rand_uelem(rng, QQ, n, 3, 2)
            if v_is_zero(a):
                continue
            pw = v_witness(a)
            if not pw.ok:
                return False, "paired witness failed over n=%d" % n
            done += 1
            vcount += 1
    ucount = 0
    while ucount < 50:
        a = rand_uelem(rng, QQ, None, 3, 3)
        if not a:
            continue
        pw = uinf_witness(a)
        if not pw.ok:
            return False, "unbounded-alphabet witness failed"
        ucount += 1
    return True, "%d + %d + %d witnesses re-verified" % (tcount, vcount, ucount)


def crit07_minimal_word_units(seed: int):
    rng = random.Random(seed * 1000 + 7)
    ring = SkewRing(CoeffDomain("rat", QQ), 2)
    singles = 0
    while singles < 100:
        r = rand_series_nonzero(rng, QQ, 3, 2, max_dim=6)
        w = lemma51_word([r])
        prod = ring.embed(r) * ring.yword(w)
        if prod.y_degree() != 0:
            return False, "product kept a y letter"
        c = prod.data.get(())
        if c is None or not c.tau():
            return False, "constant term did not become a unit"
        singles += 1
    triples = 0
    while triples < 30:
        rs = [rand_series_nonzero(rng, QQ, 3, 2, max_dim=6) for _ in range(3)]
        w = lemma51_word(rs)
        unit_seen = False
        for r in rs:
            prod = ring.embed(r) * ring.yword(w)
            if prod.y_degree() != 0:
                return False, "multi-input product kept a y letter"
            c = prod.data.get(())
            if c is not None and c.tau():
                unit_seen = True
        if not unit_seen:
            return False, "no product became a unit"
        triples += 1
    return True, "100 single and 30 triple inputs all landed in the coefficient ring"


def crit08_word_system_verifier(seed: int):
    for n in (2, 3, 4):
        ring = SkewRing(CoeffDomain("rat", QQ), n)
        words = [(i,) for i in range(n + 1)]
        qs = [ring.x(i) for i in range(n + 1)]
        rep = verify_word_system(ring, words, qs)
        if not rep.ok or rep.s_mod != 1:
            return False, "canonical system rejected for n=%d" % n
    ring = SkewRing(CoeffDomain("rat", QQ), 2)
    tampered = [
        ([(0,), (0,)], [ring.x(0), ring.x(0)], "q_1*w_2 != 0"),
        ([(0,), (1,), (2,)], [ring.x(0).scale(QQ.from_int(2)), ring.x(1), ring.x(2)],
         "sum w_i*q_i != 1"),
        ([(0,), (1,), (2,)], [ring.zero(), ring.x(1), ring.x(2)], "q_1*w_1 = 0"),
    ]
    for words, qs, expect in tampered:
        rep = verify_word_system(ring, words, qs)
        if rep.ok:
            return False, "tampered system accepted"
        if not any(expect in v for v in rep.violations):
            return False, "expected violation %r, got %s" % (expect, rep.violations)
    return True, "3 canonical sizes pass; 3 tampered systems rejected by name"


def grid_specs():
    specs = []
    for n in (2, 3, 4):
        for m in (2, 3, 4):
            for l in range(1, m + 1):
                if (l * n) % m == 0:
                    specs.append(hom_spec(n, m, l))
    for m in (0, 2, 3, 4):
        for l in (1, 2):
            specs.append(hom_spec(0, m, l))
    for l in (0, -1, -2):
        specs.append(hom_spec(0, 0, l))
    for n in (2, 3):
        specs.append(hom_spec(n, 0, 0))
    return specs


def crit09_generator_grid(seed: int):
    specs = grid_specs()
    for s in specs:
        rep = verify_generators(build_generators(s))
        if not rep.ok:
            return False, "%s failed: %s" % (s.label(), rep.failed()[:3])
    return True, "%d instances across the four construction cases" % len(specs)


def crit10_perturbed_inverses(seed: int):
    rng = random.Random(seed * 1000 + 10)
    count = 0
    for s in grid_specs():
        if s.case not in (1, 2):
            continue
        g = build_generators(s)
        fld = g.ring.domain.field
        for _ in range(5):
            deg = rng.choice((1, 2))
            p = FreeElem.zero(fld)
            for d in range(1, deg + 1):
                p = p + FreeElem.word(fld, (0,) * d, fld.from_int(rng.choice((-1, 1))))
            cert = spot_check_sigma_prime(g, p)
            if not cert.ok:
                return False, "inverse check failed at %s with p=%s" % (s.label(), cert.p_text)
            count += 1
    return True, "%d perturbed identities inverted and verified two-sided" % count


def crit11_chain_planner(seed: int):
    grp = {"tags": [2, 0], "u": [1, 1]}
    ident = [[1, 0], [0, 1]]
    plan = plan_chain([grp, grp, grp], [ident, ident])
    if not plan.ok:
        return False, "plan rejected: %s" % plan.errors
    # per-step multipliers match the transition matrices componentwise
    for t, step in enumerate(plan.steps):
        for i in range(2):
            for j in range(2):
                spec = step.specs[i][j]
                m = grp["tags"][j]
                want = ident[i][j]
                got = spec.l
                same = (got - want) % m == 0 if m >= 2 else got == want
                if not same:
                    return False, "step %d component (%d,%d) drifted" % (t, i, j)
    # two-step composition reproduces the overall identity matrix
    comp = [[sum(ident[i][k] * ident[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]
    for i in range(2):
        for j in range(2):
            m = grp["tags"][j]
            same = (comp[i][j] - ident[i][j]) % m == 0 if m >= 2 else comp[i][j] == ident[i][j]
            if not same:
                return False, "composition drifted at (%d,%d)" % (i, j)
    results = verify_chain(plan)
    bad = [s.label() for s, rep in results if not rep.ok]
    if bad:
        return False, "specs failed verification: %s" % bad
    return True, "3-step constant chain planned; %d distinct specs verified" % len(results)


def crit12_monoid_shape(seed: int):
    for n in range(2, 7):
        p = parse_presentation("g | %dg = g" % n)
        rep = analyze_pisr_shape(p)
        g = grothendieck_group(p)
        if not (rep.conical and rep.simple and rep.nonzero_is_group):
            return False, "shape flags wrong for n=%d" % n
        if rep.group is None or rep.group.factors != g.factors or not rep.matches_group_side:
            return False, "table group disagrees with the universal group for n=%d" % n
    return True, "5 cyclic monoids: conical, simple, nonzero part a matching group"


CRITERIA = [
    (1, "cyclic monoid universal groups", 1.0, crit01_cyclic_monoid_groups),
    (2, "skew relation identities", 1.0, crit02_skew_relations),
    (3, "derivation product law", 10.0, crit03_derivation_law),
    (4, "backend coefficient agreement", 30.0, crit04_backend_agreement),
    (5, "ideal membership samples", 60.0, crit05_ideal_membership),
    (6, "witness soundness", 120.0, crit06_witness_soundness),
    (7, "minimal-word unit trick", 10.0, crit07_minimal_word_units),
    (8, "word-system verifier", 5.0, crit08_word_system_verifier),
    (9, "generator matrix grid", 300.0, crit09_generator_grid),
    (10, "perturbed identity inverses", 120.0, crit10_perturbed_inverses),
    (11, "chain planner", 120.0, crit11_chain_planner),
    (12, "monoid shape analysis", 1.0, crit12_monoid_shape),
]


def run_criterion(num: int, seed: int = PINNED_SEED):
    for n, name, budget, fn in CRITERIA:
        if n == num:
            t0 = time.perf_counter()
            ok, detail = fn(seed)
            return {"num": n, "name": name, "ok": ok, "detail": detail,
                    "seconds": time.perf_counter() - t0, "budget": budget}
    raise ValueError("no criterion %d" % num)


def run_all(seed: int = PINNED_SEED):
    return [run_criterion(n, seed) for n, _, _, _ in CRITERIA]
