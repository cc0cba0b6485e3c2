"""The four benchmark workloads.

Each workload turns a seed into rounds of tasks.  A task is a closure that
runs one checked operation against the package and raises ``TaskFailed``
(or any other exception) when the result differs from the answer known by
construction.  Round ``r`` of seed ``s`` is the same on every run, so two
runs at one seed do the same work.  Inputs are generated when a round is
built, outside the timed region; the package work, including parsing the
expression text of an input, happens inside the task.

Every module of the package is reached through its module object
(``sk.t_witness`` rather than a bound name), so the traced run sees every
call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import ratskew.acceptance as acc
import ratskew.cli as cli
import ratskew.expr as ex
import ratskew.fields as fl
import ratskew.freealg as fa
import ratskew.kzero as kz
import ratskew.leavitt as lv
import ratskew.linrep as lr
import ratskew.realize as rz
import ratskew.skew as sk

# Windows above 8 over three letters exhaust memory in the truncated
# backend (the CLI default of 16 was killed while sizing this workload).
TRUNC_WINDOW = 8
TRUNC_SHARE = 0.25  # share of skew-q inputs also decided over the trunc backend


class TaskFailed(Exception):
    """A verdict differed from the answer known by construction."""


def check(cond, what: str) -> None:
    if not cond:
        raise TaskFailed(what)


class Stats:
    """What the tasks record besides pass/fail."""

    def __init__(self) -> None:
        self.verify_cert_s: list = []
        self.cert_bytes = 0
        self.tamper = {"value": [0, 0], "structural": [0, 0]}  # [probes, misreported]
        self.tamper_accepted = 0


def round_rng(name: str, seed: int, r: int) -> random.Random:
    """Inputs of round r; the warm-up rounds (r < 0) are the same for every seed."""
    return random.Random("%s/%d/%d" % (name, seed if r >= 0 else 0, r))


# ---------------------------------------------------------------------------
# certificates: emit, re-check through the CLI, tamper
# ---------------------------------------------------------------------------

class CertStore:
    """Writes certificate files under the run's work directory."""

    def __init__(self, work_dir: str) -> None:
        self.dir = work_dir
        self.n = 0

    def write(self, obj) -> str:
        self.n += 1
        path = os.path.join(self.dir, "cert-%d.json" % (self.n % 64))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path


class Workload:
    """A seeded source of task rounds; subclasses define ``round(r)``."""

    name = ""
    trace_rounds = 1  # rounds of the fixed task list of a traced run
    min_rounds = 1  # rounds a timed run measures at least

    def __init__(self, seed: int, work_dir: str, clock) -> None:
        self.seed = seed
        self.clock = clock
        self.stats = Stats()
        self.store = CertStore(work_dir)


def verify_cert(path: str):
    """``ratskew verify-cert PATH`` in-process; returns (exit code, stdout).

    An exception escaping ``run_command`` is what the command line shows as
    a traceback; it propagates to the caller.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run_command(["verify-cert", path])
    return code, out.getvalue()


def recheck_task(stats: Stats, state: dict, key: str, clock):
    def run():
        path = state[key]
        stats.cert_bytes += os.path.getsize(path)
        t0 = clock()
        code, out = verify_cert(path)
        stats.verify_cert_s.append(clock() - t0)
        check(code == 0 and json.loads(out)["ok"] is True,
              "emitted certificate failed to re-check (exit %s)" % code)
    return run


def _double(field_name: str, c):
    """Twice a scalar in its JSON encoding."""
    if field_name == "q":
        return str(2 * Fraction(c))
    if field_name.startswith("fp:"):
        return (2 * c) % int(field_name[3:])
    return {"num": [[e, str(2 * Fraction(v))] for e, v in c["num"]], "den": c["den"]}


def _first_linrep(skew_elem_json):
    """The coefficient series of the first (length-lex least) term."""
    return skew_elem_json["terms"][0][1]


def tamper(kind: str, sub: int, cert: dict) -> dict:
    """A mutated copy of an emitted certificate.

    ``value`` doubles the entry vector of one coefficient series, which
    changes the claimed object, so the re-check must fail with exit 1; for
    generator matrices the series is the constant term of the diagonal
    entry E[sub][sub], after which E*E = E fails.  ``structural`` drops one
    exit-vector entry (sub 0) or replaces an integer field by a string
    (sub 1); the command line promises exit 2 for unreadable input.
    """
    obj = json.loads(json.dumps(cert))
    k = obj["kind"]
    if k == "skew_witness":
        rep = _first_linrep(obj["g"])
        intfield = (obj["input"], "n")
    elif k == "generator_matrices":
        d = sub % obj["size"] if kind == "value" else 0
        rep = _first_linrep(obj["E"][d][d])
        intfield = (obj, "ring_n")
    else:  # sigma_cert: first nonzero entry of the claimed inverse
        rep = next(e for row in obj["inverse"]["entries"] for e in row if e["dim"])
        intfield = (obj, "size")
    if kind == "value":
        rep["lam"] = [_double(rep["field"], c) for c in rep["lam"]]
    elif sub == 0:
        rep["gamma"].pop()
    else:
        intfield[0][intfield[1]] = "two"
    return obj


def tamper_task(store: CertStore, stats: Stats, state: dict, key: str, kind: str, sub: int):
    def run():
        path = store.write(tamper(kind, sub, state[key + ".obj"]))
        want = 1 if kind == "value" else 2
        tally = stats.tamper[kind]
        tally[0] += 1
        try:
            code, _ = verify_cert(path)
        except Exception:  # the command line would print a traceback
            code = None
        if code != want:
            tally[1] += 1
        if code == 0:
            stats.tamper_accepted += 1
        check(code != 0, "tampered %s certificate accepted" % kind)
    return run


def emit(store: CertStore, state: dict, key: str, cert: dict) -> None:
    state[key + ".obj"] = cert
    state[key] = store.write(cert)


# Certificate slots 0..9 rotate with a seeded offset per round: 0 gets a
# value mutation, 1 and 2 the two structural ones, so 30% are tampered.
TAMPER_SLOTS = {0: ("value", 0), 1: ("structural", 0), 2: ("structural", 1)}


def slot_probes(slot: int) -> list:
    probe = TAMPER_SLOTS.get(slot % 10)
    return [probe] if probe else []


def add_cert_tasks(tasks, probes, store, stats, state, key, clock, label):
    """Re-check the certificate under ``key``, then each (kind, sub) mutation."""
    tasks.append((label + "-recheck", recheck_task(stats, state, key, clock)))
    for kind, sub in probes:
        tasks.append((label + "-tamper", tamper_task(store, stats, state, key, kind, sub)))


# ---------------------------------------------------------------------------
# expression text
# ---------------------------------------------------------------------------

NUMS = ("1", "2", "3", "-1", "-2", "1/2", "-3/2", "2/3")


def _num(rng):
    return rng.choice(NUMS)


def _xword(rng, length):
    return "*".join("x%d" % rng.randrange(3) for _ in range(length))


def _proper(rng):
    """Two-term polynomial with zero constant term."""
    return "%s*%s + %s*%s" % (_num(rng), _xword(rng, 1), _num(rng), _xword(rng, 2))


def _tcoeff(rng, nvars):
    t = "t" if nvars == 1 or rng.random() < 0.5 else "t2"
    return "(%s + %d)%s" % (t, rng.randint(1, 3), "^-1" if rng.random() < 0.5 else "")


# ---------------------------------------------------------------------------
# series-qt: derivation law and inverses over Q(t) and Q(t1, t2)
# ---------------------------------------------------------------------------

class SeriesQt(Workload):
    """Input size: 3 letters; ``a`` is a 2-term polynomial (one coefficient
    t_j + k or its inverse) times the inverse of 1 + a 2-term proper
    polynomial, ``b`` a 2-term polynomial; words have length at most 2.
    Tasks 0..3 of a round of 8 check the derivation law, 4..7 the inverse
    identity; tasks 3 and 7 run over Q(t1, t2), the rest over Q(t)."""

    name = "series-qt"
    round_size = 8
    trace_rounds = 10

    def _poly(self, rng, nvars):
        return "%s + %s*%s" % (_num(rng), _tcoeff(rng, nvars), _xword(rng, rng.randint(1, 2)))

    def round(self, r: int):
        rng = round_rng(self.name, self.seed, r)
        tasks = []
        for j in range(self.round_size):
            nvars = 2 if j % 4 == 3 else 1
            field = fl.field_from_name("qt:%d" % nvars)
            if j < 4:
                a = "(%s) * (1 + %s)^-1" % (self._poly(rng, nvars), _proper(rng))
                b = self._poly(rng, nvars)
                tasks.append(("law", self._law(field, a, b, rng.randrange(3))))
            else:
                a = "%s + (%s)*(1 + %s)^-1" % (self._poly(rng, nvars), _proper(rng), _proper(rng))
                tasks.append(("inverse", self._inverse(field, a)))
        return tasks

    @staticmethod
    def _law(field, a_text, b_text, i):
        def run():
            a = ex.eval_series(a_text, field)
            b = ex.eval_series(b_text, field)
            lhs = (a * b).delta(i)
            rhs = a.delta(i).scale(b.tau()) + a * b.delta(i)
            check(lhs == rhs, "derivation law failed over %s" % field.name)
        return run

    @staticmethod
    def _inverse(field, a_text):
        def run():
            a = ex.eval_series(a_text, field)
            check(a * a.inv() == lr.LinRep.one(field), "a * a^-1 != 1 over %s" % field.name)
        return run


# ---------------------------------------------------------------------------
# skew-q: ideal membership, witnesses and their certificates over Q
# ---------------------------------------------------------------------------

class SkewQ(Workload):
    """Ring: the skew extension over rational series in x0..x2 over Q (n = 2).
    Members are sums of 1-2 terms y_I*e*r; non-members are y_I*r plus a
    member; y-words have length 0..3 and each r is a 2-term polynomial,
    times the inverse of 1 + a 2-term proper polynomial half of the time.
    Members and non-members alternate.  Every non-member gets a witness whose
    certificate is re-checked through verify-cert."""

    name = "skew-q"
    round_size = 8
    trace_rounds = 10

    def __init__(self, seed: int, work_dir: str, clock) -> None:
        super().__init__(seed, work_dir, clock)
        self.ring = sk.SkewRing(sk.CoeffDomain("rat", fl.QQ), 2)
        self.tring = sk.SkewRing(sk.CoeffDomain("trunc", fl.QQ, TRUNC_WINDOW), 2)

    @staticmethod
    def _series(rng):
        p = "%s + %s*%s" % (_num(rng), _num(rng), _xword(rng, rng.randint(1, 2)))
        if rng.random() < 0.5:
            return "(%s)" % p
        return "(%s)*(1 + %s)^-1" % (p, _proper(rng))

    @staticmethod
    def _yprefix(rng):
        k = rng.randint(0, 3)
        return "".join("y%d*" % rng.randrange(3) for _ in range(k))

    def _member(self, rng):
        return " + ".join("%se*%s" % (self._yprefix(rng), self._series(rng))
                          for _ in range(rng.randint(1, 2)))

    def round(self, r: int):
        rng = round_rng(self.name, self.seed, r)
        slot = rng.randrange(10)
        tasks = []
        for j in range(self.round_size):
            want = j % 2 == 0
            text = self._member(rng) if want else "%s%s + %s" % (
                self._yprefix(rng), self._series(rng), self._member(rng))
            state: dict = {}
            tasks.append(("decide", self._decide(text, want, state)))
            if rng.random() < TRUNC_SHARE:
                tasks.append(("decide-trunc", self._decide_trunc(text, want)))
            if not want:
                tasks.append(("witness", self._witness(state)))
                add_cert_tasks(tasks, slot_probes(slot), self.store, self.stats, state,
                               "cert", self.clock, "witness")
                slot += 1
        return tasks

    def _decide(self, text, want, state):
        def run():
            a = ex.eval_skew(text, self.ring)
            state["a"] = a
            v = sk.ideal_member(a)
            check(v.value is want and v.precision is None,
                  "exact membership verdict %s, expected %s" % (v.value, want))
        return run

    def _decide_trunc(self, text, want):
        def run():
            v = sk.ideal_member(ex.eval_skew(text, self.tring))
            check(v.value is want, "trunc verdict %s differs from the exact %s" % (v.value, want))
        return run

    def _witness(self, state):
        def run():
            w = sk.t_witness(state["a"])
            check(w.check.value and w.check.precision is None, "witness m*a*g = 1 failed")
            emit(self.store, state, "cert", w.to_json())
        return run


# ---------------------------------------------------------------------------
# certs-qt: generator matrices, perturbation inverses, certificates
# ---------------------------------------------------------------------------

class CertsQt(Workload):
    """One round is one pass over ``acceptance.grid_specs()`` (30 specs, the
    four construction cases; cases 1 and 4 over Q(t), 2 and 3 over Q).  Each
    spec is built over the rat backend, verified, emitted and re-checked; a
    third of the specs, chosen by a seeded rotation, are also built over the
    free backend; case 1 and 2 specs also invert one seeded perturbation
    I + p(A), of degree 1 or 2, and re-check its certificate."""

    name = "certs-qt"
    trace_rounds = 1
    min_rounds = 2  # one round is slow enough to end a run alone, with too few samples

    def __init__(self, seed: int, work_dir: str, clock) -> None:
        super().__init__(seed, work_dir, clock)
        self.specs = acc.grid_specs()

    def round(self, r: int):
        rng = round_rng(self.name, self.seed, r)
        # Seeded offsets rotate fixed shares over the specs, so every round
        # has the same number of free builds, tampers and degree-2
        # perturbations.  Every generator certificate gets a value mutation
        # (its re-check costs a full verification; tampering a seeded share
        # would make the number of slow tasks depend on the seed).
        gen_slot, sigma_slot, free_off, deg_off = (rng.randrange(10), rng.randrange(10),
                                                   rng.randrange(3), rng.randrange(2))
        tasks = []
        for i, spec in enumerate(self.specs):
            state: dict = {}
            tasks.append(("build", self._build(spec, state)))
            structural = [p for p in slot_probes(gen_slot + i) if p[0] == "structural"]
            add_cert_tasks(tasks, [("value", rng.randrange(spec.size))] + structural,
                           self.store, self.stats, state, "gen", self.clock, "generators")
            if (i + free_off) % 3 == 0:
                tasks.append(("build-free", self._build_free(spec)))
            if spec.case in (1, 2):
                signs = [rng.choice((-1, 1)) for _ in range(1 + (i + deg_off) % 2)]
                tasks.append(("sigma", self._sigma(state, signs)))
                add_cert_tasks(tasks, slot_probes(sigma_slot + i), self.store, self.stats,
                               state, "sigma", self.clock, "sigma")
        return tasks

    def _build(self, spec, state):
        def run():
            g = rz.build_generators(spec)
            state["g"] = g
            rep = rz.verify_generators(g)
            check(rep.ok, "%s failed: %s" % (spec.label(), rep.failed()[:3]))
            emit(self.store, state, "gen", g.to_json())
        return run

    @staticmethod
    def _build_free(spec):
        def run():
            rep = rz.verify_generators(rz.build_generators(spec, backend="free"))
            check(rep.ok, "%s failed over the free backend" % spec.label())
        return run

    def _sigma(self, state, signs):
        def run():
            g = state["g"]
            fld = g.ring.domain.field
            p = fa.FreeElem.zero(fld)
            for d, s in enumerate(signs, 1):
                p = p + fa.FreeElem.word(fld, (0,) * d, fld.from_int(s))
            cert = rz.spot_check_sigma_prime(g, p)
            check(cert.ok, "I + p(A) not inverted two-sided for %s" % g.spec.label())
            emit(self.store, state, "sigma", cert.to_json())
        return run


# ---------------------------------------------------------------------------
# monoword-k0: Leavitt normal forms and witnesses, K0 groups and shapes
# ---------------------------------------------------------------------------

class MonowordK0(Workload):
    """Tasks cycle through three kinds: 8 paired witnesses (3 for n = 2,
    3 for n = 3, 2 over the unbounded alphabet) re-checked from beta*a*gamma;
    4 normal forms of a + (sum_i y_i x_i - 1)*c against the normal form of
    a; and for one seeded n in 2..12 the universal groups of "g | ng = g"
    and "I,P | I = nI + P" plus the shape analysis of the first."""

    name = "monoword-k0"
    round_size = 300
    trace_rounds = 4

    def __init__(self, seed: int, work_dir: str, clock) -> None:
        super().__init__(seed, work_dir, clock)
        self.QQ = fl.QQ

    def _elem(self, rng, n, deg, terms):
        while True:  # zero elements have no witness; draw again
            a = acc.rand_uelem(rng, self.QQ, n, deg, terms)
            if a and (n is None or not lv.v_is_zero(a)):
                return a

    def round(self, r: int):
        rng = round_rng(self.name, self.seed, r)
        # shape analysis costs grow steeply with n: every round draws each
        # n in 2..12 equally often, in a seeded order
        ns = [2 + i % 11 for i in range(self.round_size // 3)]
        rng.shuffle(ns)
        tasks = []
        for j in range(self.round_size):
            kind = j % 3
            if kind == 0:
                elems = [self._elem(rng, n, 3, 2) for n in (2, 2, 2, 3, 3, 3)]
                elems += [self._elem(rng, None, 3, 3) for _ in range(2)]
                tasks.append(("witness", self._witnesses(elems)))
            elif kind == 1:
                pairs = [(acc.rand_uelem(rng, self.QQ, n, 3, 2), acc.rand_uelem(rng, self.QQ, n, 2, 2))
                         for n in (2, 2, 3, 3)]
                tasks.append(("normal-form", self._normal_forms(pairs)))
            else:
                tasks.append(("k0", self._k0(ns[j // 3])))
        return tasks

    def _witnesses(self, elems):
        def run():
            for a in elems:
                if a.n is None:
                    w = lv.uinf_witness(a)
                    ok = w.beta * a * w.gamma == lv.UElem.one(self.QQ, None)
                else:
                    w = lv.v_witness(a)
                    ok = lv.v_equal(w.beta * a * w.gamma, lv.UElem.one(self.QQ, a.n))
                check(w.ok and ok, "paired witness failed to re-check")
        return run

    def _normal_forms(self, pairs):
        def run():
            for a, c in pairs:
                n, QQ = a.n, self.QQ
                s = lv.UElem.zero(QQ, n)
                for i in range(1, n + 1):
                    s = s + lv.UElem.gen_y(QQ, i, n) * lv.UElem.gen_x(QQ, i, n)
                b = a + (s - lv.UElem.one(QQ, n)) * c
                check(lv.v_normal_form(b) == lv.v_normal_form(a),
                      "adding a multiple of the unit-sum relation changed the normal form")
        return run

    @staticmethod
    def _k0(n):
        def run():
            p = kz.parse_presentation("g | %dg = g" % n)
            g = kz.grothendieck_group(p)
            want = () if n == 2 else (n - 1,)
            check(g.factors == want and g.images["g"] == (() if n == 2 else (1,)),
                  "universal group of g | %dg = g" % n)
            h = kz.grothendieck_group(kz.parse_presentation("I,P | I = %dI + P" % n))
            check(h.factors == (0,) and h.images["I"] == (1,) and h.images["P"] == (1 - n,),
                  "universal group of I,P | I = %dI + P" % n)
            s = kz.analyze_pisr_shape(p)
            check(s.conical and s.simple and s.nonzero_is_group and s.matches_group_side
                  and s.group is not None and s.group.factors == want,
                  "shape of g | %dg = g" % n)
        return run


WORKLOADS = {w.name: w for w in (SeriesQt, SkewQ, CertsQt, MonowordK0)}
