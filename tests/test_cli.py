"""End-to-end command-line checks: exit-code contract, deterministic stdout,
documented output shapes, and the closed verify-cert loop for every
certificate kind."""

import json
import time
from fractions import Fraction

import pytest

from ratskew.cli import run_command
from ratskew import leavitt, linrep, realize, skew
from ratskew.fields import MAX_NVARS, field_from_name
from ratskew.freealg import FreeElem
from ratskew.linrep import LinRep
from ratskew.realize import build_generators, hom_spec, spot_check_sigma_prime
from ratskew.skew import CoeffDomain, SkewElem, SkewRing, verify_word_system

QQ = field_from_name("q")


@pytest.fixture
def run(capsys):
    def go(*argv):
        code = run_command(list(argv))
        cap = capsys.readouterr()
        return code, cap.out, cap.err

    return go


def jrun(run, *argv):
    code, out, _ = run(*argv)
    return code, json.loads(out)


# -- exit codes --------------------------------------------------------------------

def test_usage_errors_exit_2(run):
    assert run("series", "eval", "--field", "fp:6", "x0")[0] == 2  # bad modulus
    assert run("series", "eval", "x0 +")[0] == 2                   # syntax error
    assert run("nonsense")[0] == 2                                 # unknown command
    assert run("verify-cert", "/no/such/file.json")[0] == 2        # unreadable file
    assert run("k0", "group", "no pipe")[0] == 2                   # unparsable text


def test_function_field_variable_bound(run):
    """qt:r is accepted up to MAX_NVARS variables and refused above, with
    exit 2 and an ``error:`` line, not a traceback."""
    expr = "(1 + (2*t1 + 1)*x0)^-1 * (2 - t1*x1*x0)"
    code, out, err = run("series", "eval", "--field", "qt:%d" % MAX_NVARS, expr)
    assert code == 0 and out.startswith("dim: 3") and not err
    code, out, err = run("series", "eval", "--field", "qt:%d" % (MAX_NVARS + 1), expr)
    assert code == 2 and not out
    assert err.startswith("error:") and "Traceback" not in err


def test_certificate_over_too_many_variables_fails_to_load(run, tmp_path):
    """A valid qt:1 certificate with every field renamed to qt:<MAX_NVARS + 1>
    exits 1 with an ``error:`` line, not a traceback."""
    code, cert = jrun(run, "skew", "witness", "--field", "qt:1", "--json", "1 - t*x0")
    assert code == 0

    def rename(o):
        if isinstance(o, dict):
            return {k: "qt:%d" % (MAX_NVARS + 1) if k == "field" else rename(v) for k, v in o.items()}
        return [rename(v) for v in o] if isinstance(o, list) else o

    code, out, err = run("verify-cert", _write(tmp_path, "w.json", rename(cert)))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "indeterminates" in err and "Traceback" not in err


def test_bad_or_unread_flags_exit_2(run, tmp_path):
    code, cert = jrun(run, "realize", "build", "--from", "0", "--to", "2", "--mult", "1")
    assert code == 0
    path = _write(tmp_path, "g.json", cert)
    for argv in (
        # a window must hold at least the constant term
        ("skew", "member", "--backend", "trunc", "--precision", "0", "--json", "1"),
        ("skew", "witness", "--backend", "trunc", "--precision", "-3", "1 - x0"),
        # flags the command does not read are not accepted
        ("k0", "group", "--field", "fp:4", "I | 3I=I"),
        ("realize", "verify", "--seed", "1", path),
        ("series", "eval", "--precision", "4", "x0"),
        ("--verify-cert", path),  # the command is verify-cert FILE
    ):
        code, out, err = run(*argv)
        assert (code, out) == (2, ""), argv
        assert "error:" in err and "Traceback" not in err


# Every option string of every subcommand; a flag the handler does not read
# must not be registered.
COMMAND_OPTIONS = {
    ("series", "eval"): {"--field", "--n", "--json", "--window"},
    ("series", "invert"): {"--field", "--n", "--json", "--window"},
    ("series", "transduce"): {"--field", "--n", "--json", "--window", "--letter"},
    ("series", "equal"): {"--field", "--n", "--json"},
    ("skew", "mul"): {"--field", "--n", "--json", "--precision", "--backend"},
    ("skew", "member"): {"--field", "--n", "--json", "--precision", "--backend"},
    ("skew", "equal"): {"--field", "--n", "--json", "--precision", "--backend"},
    ("skew", "witness"): {"--field", "--n", "--json", "--precision", "--backend"},
    ("leavitt", "nf"): {"--field", "--n", "--json"},
    ("leavitt", "witness"): {"--field", "--n", "--json", "--beyond"},
    ("k0", "monoid"): {"--bound", "--json"},
    ("k0", "group"): {"--json"},
    ("realize", "build"): {"--field", "--from", "--to", "--mult", "--count", "--backend"},
    ("realize", "verify"): set(),
    ("realize", "chain"): {"--verify", "--count"},
    ("selftest",): {"--criterion", "--seed", "--json"},
    ("verify-cert",): set(),
}


def test_each_command_registers_only_the_flags_it_reads():
    import argparse

    from ratskew.cli import _build_parser

    def options(parser):
        return {s for a in parser._actions for s in a.option_strings
                if s not in ("-h", "--help")}

    def walk(parser, path):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield path, options(parser)
            return
        assert not options(parser), path  # no flag outside a command
        for name, child in subs[0].choices.items():
            yield from walk(child, path + (name,))

    found = dict(walk(_build_parser(), ()))
    assert found == COMMAND_OPTIONS
    assert sum(map(len, found.values())) == 57


def test_computation_failures_exit_1(run):
    # zero in the quotient: no witness can exist
    assert run("leavitt", "witness", "--n", "2", "x1*y2")[0] == 1
    # enumeration refuses a second independent relation
    assert run("k0", "monoid", "a,b | 2a=a, 2b=b")[0] == 1


def test_false_predicates_exit_0(run):
    code, out, _ = run("series", "equal", "x0", "x1")
    assert code == 0 and out.strip() == "false"
    code, out, _ = run("skew", "member", "x0")
    assert code == 0 and out.strip() == "false"
    code, out, _ = run("skew", "equal", "x0*y0", "1")
    assert code == 0 and out.strip() == "true"


# -- determinism ----------------------------------------------------------------------

def test_fixed_seed_stdout_is_reproducible(run):
    a = run("selftest", "--criterion", "1", "--json")
    b = run("selftest", "--criterion", "1", "--json")
    assert a[0] == b[0] == 0
    assert a[1] == b[1]
    c = run("selftest", "--criterion", "8")
    d = run("selftest", "--criterion", "8")
    assert c[1] == d[1]
    assert "criterion" in c[2]  # timings go to stderr, not stdout
    assert "PASS" in c[1]


def test_selftest_json_shape(run):
    code, obj = jrun(run, "selftest", "--criterion", "12", "--json")
    assert code == 0
    assert obj["passed"] == obj["total"] == 1
    assert obj["criteria"][0]["num"] == 12 and obj["criteria"][0]["ok"]


# -- documented output shapes ----------------------------------------------------------

def test_series_eval_json(run):
    code, obj = jrun(run, "series", "eval", "--json", "--window", "4", "(1 - x0)^-1")
    assert code == 0
    assert obj["dim"] == 1 and obj["window"] == 4
    words = {tuple(w): r for w, r in obj["coeffs"]}
    assert words[(0, 0)] == "1"


def test_series_invert_and_transduce(run):
    code, out, _ = run("series", "invert", "1 - x0")
    assert code == 0 and "x0" in out
    assert run("series", "invert", "x0")[0] == 1  # no constant term
    code, obj = jrun(run, "series", "transduce", "--json", "--letter", "1",
                     "x0*x1 + x1*x0")
    assert code == 0
    assert [w for w, _ in obj["coeffs"]] == [[0]]


def test_k0_monoid_example(run):
    code, obj = jrun(run, "k0", "monoid", "--json", "I | 3I=I")
    assert code == 0
    assert obj["invariant_factors"] == [2]
    assert obj["generators"] == {"I": [1]} == obj["generator_images"]
    assert obj["group"] == "Z/2"
    shape = obj["shape_report"]
    assert shape["complete"] and shape["conical"] and shape["simple"]
    assert shape["nonzero_is_group"] and shape["matches_group_side"]


def test_k0_group_infinite_monoid(run):
    code, obj = jrun(run, "k0", "group", "--json", "I,P | I = 2I + P")
    assert code == 0
    assert obj["invariant_factors"] == [0]
    assert obj["generator_images"]["I"] == [1]
    assert obj["generator_images"]["P"] == [-1]


def test_k0_monoid_bound_overflow(run):
    code, obj = jrun(run, "k0", "monoid", "--json", "--bound", "8", "g |")
    assert code == 0  # overflow is a partial report, not a failure
    assert not obj["shape_report"]["complete"]


@pytest.mark.parametrize("bound, size, complete", [("1", 1, False), ("2", 2, False), ("3", 3, True), ("4", 3, True)])
def test_k0_monoid_table_never_exceeds_the_bound(run, bound, size, complete):
    """The generators' normal forms count against the bound too: with
    bound 1 only the zero is enumerated, not zero and g; g | 3g = g has
    the three elements 0, g and 2g."""
    code, obj = jrun(run, "k0", "monoid", "--json", "--bound", bound, "g | 3g = g")
    assert code == 0
    report = obj["shape_report"]
    assert report["size"] == size
    assert report["complete"] == complete
    code, out, _ = run("k0", "monoid", "--bound", bound, "g | 3g = g")
    assert "elements: %d%s\n" % (size, "" if complete else " (fragment)") in out


@pytest.mark.parametrize("bound", ["0", "-3", "two"])
def test_k0_monoid_bound_below_one_is_a_usage_error(run, bound):
    code, out, err = run("k0", "monoid", "--bound", bound, "g | 3g = g")
    assert (code, out) == (2, "")
    assert "error:" in err and "positive integer" in err and "Traceback" not in err


def test_leavitt_witness_example(run):
    code, obj = jrun(run, "leavitt", "witness", "--json", "--n", "2", "y1*x2")
    assert code == 0
    assert (obj["beta"], obj["gamma"], obj["check"]) == ("x1", "y2", "1")
    assert obj["ok"] and obj["cert"]["kind"] == "paired_witness"


def test_leavitt_nf(run):
    code, out, _ = run("leavitt", "nf", "--n", "2", "y2*x2")
    assert code == 0 and out.strip() == "1 - y1*x1"
    code, out, _ = run("leavitt", "nf", "--n", "0", "x1*y1")
    assert code == 0 and out.strip() == "1"


def test_realize_build_example(run):
    code, obj = jrun(run, "realize", "build", "--from", "0", "--to", "2", "--mult", "1")
    assert code == 0
    assert obj["kind"] == "generator_matrices"
    assert obj["spec"]["case"] == 2 and obj["spec"]["l"] == 1
    # invalid tags and ill-defined maps are domain errors, not usage errors
    assert run("realize", "build", "--from", "1", "--to", "2", "--mult", "1")[0] == 1
    assert run("realize", "build", "--from", "2", "--to", "4", "--mult", "1")[0] == 1


# -- closed certificate loops ------------------------------------------------------------

def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_verify_cert_skew_witness(run, tmp_path):
    code, cert = jrun(run, "skew", "witness", "--json", "1 - x0")
    assert code == 0 and cert["kind"] == "skew_witness"
    assert jrun(run, "verify-cert", _write(tmp_path, "w.json", cert)) == (0, {"kind": "skew_witness", "ok": True, "precision": None})
    cert["m"] = cert["m"] + [1]
    assert run("verify-cert", _write(tmp_path, "w2.json", cert))[0] == 1


def test_verify_cert_rejects_misshapen_series(run, tmp_path):
    code, cert = jrun(run, "skew", "witness", "--json", "1 - x0")
    assert code == 0
    rep = next(c for _, c in cert["g"]["terms"] if c["dim"])
    rep["gamma"].pop()
    code, out, err = run("verify-cert", _write(tmp_path, "w.json", cert))
    assert code != 0 and out == ""
    assert err.startswith("error:") and "gamma" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("part, key, value", [
    ("input", "n", "two"),  # not an alphabet bound
    (None, "m", "two"),     # letters that are not integers
    ("g", "n", 5),          # g claims a ring other than the input's
], ids=["ring_n", "m", "g_n"])
def test_verify_cert_rejects_bad_skew_witness_fields(run, tmp_path, part, key, value):
    code, cert = jrun(run, "skew", "witness", "--json", "1 - x0")
    assert code == 0
    (cert[part] if part else cert)[key] = value
    code, out, err = run("verify-cert", _write(tmp_path, "w.json", cert))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("key, value", [
    ("check", False),       # a verdict the re-check does not reach
    ("check", "true"),      # a verdict that is not a boolean
    ("precision", 6),       # a window claimed for an exact verdict
    ("precision", "two"),   # a window that is not an integer
    ("precision", None),    # no recorded window at all
], ids=["check", "check_type", "precision", "precision_type", "precision_missing"])
def test_verify_cert_rejects_misrecorded_skew_witness_verdict(run, tmp_path, key, value):
    code, cert = jrun(run, "skew", "witness", "--json", "1 - x0")
    assert code == 0 and (cert["check"], cert["precision"]) == (True, None)
    if value is None:
        del cert[key]
    else:
        cert[key] = value
    code, out, err = run("verify-cert", _write(tmp_path, "w.json", cert))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and key in err and "Traceback" not in err


@pytest.mark.parametrize("backend", ["rat", "trunc"])
@pytest.mark.parametrize("key", ["surprise", "ok"])
def test_verify_cert_refuses_a_skew_witness_with_an_unknown_key(run, tmp_path, backend, key):
    """A skew witness carries exactly the keys ``skew witness`` writes: any
    other top-level key, even one another certificate kind uses, exits 1
    with ``error:`` naming it."""
    window = ["--precision", "6"] if backend == "trunc" else []
    code, cert = jrun(run, "skew", "witness", "--backend", backend, *window, "--json", "1 - x0")
    assert code == 0 and jrun(run, "verify-cert", _write(tmp_path, "w.json", cert))[0] == 0
    cert[key] = True
    code, out, err = run("verify-cert", _write(tmp_path, "w.json", cert))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and repr(key) in err and "Traceback" not in err


@pytest.mark.parametrize("change, fragment", [
    (lambda mu: [], "mu must be an object"),                 # a list, not letters to matrices
    (lambda mu: {**mu, "01": [["0"]]}, "letter key '01'"),   # a second name for letter 1
    (lambda mu: {**mu, " 1": [["0"]]}, "letter key ' 1'"),
    (lambda mu: {"-1": mu["1"]}, "letter key '-1'"),
], ids=["mu_list", "key_leading_zero", "key_space", "key_negative"])
def test_verify_cert_refuses_a_misshapen_letter_table(run, tmp_path, change, fragment):
    """Every certificate series is loaded by ``LinRep._load``: a ``mu`` that
    is not an object, or a letter key other than the plain decimal form of
    a non-negative integer, exits 1 with ``error:``, not a traceback, and
    no key silently overwrites another."""
    code, cert = jrun(run, "skew", "witness", "--json", "1 - x0 - x1")
    assert code == 0
    rep = cert["g"]["terms"][0][1]
    assert rep["dim"] == 1 and "1" in rep["mu"]
    rep["mu"] = change(rep["mu"])
    code, out, err = run("verify-cert", _write(tmp_path, "w.json", cert))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and fragment in err and "Traceback" not in err


def _doubled_unit(cert):
    unit = cert["unit"]
    if "lam" in unit:
        unit["lam"] = [str(2 * Fraction(c)) for c in unit["lam"]]
    else:
        unit["terms"] = [[w, str(2 * Fraction(c))] for w, c in unit["terms"]]


@pytest.mark.parametrize("backend", ["rat", "trunc"])
@pytest.mark.parametrize("change", [
    lambda c: c.update(unit="two"),  # not a serialized coefficient
    lambda c: c.pop("unit"),         # no unit at all
    _doubled_unit,                   # twice the value of m*a*y_w
], ids=["unit_string", "unit_missing", "unit_doubled"])
def test_verify_cert_rechecks_the_skew_witness_unit(run, tmp_path, backend, change):
    window = ["--precision", "6"] if backend == "trunc" else []
    code, cert = jrun(run, "skew", "witness", "--backend", backend, *window, "--json", "1 - x0 - x1")
    assert code == 0
    assert jrun(run, "verify-cert", _write(tmp_path, "w.json", cert))[1]["ok"] is True
    change(cert)
    code, out, err = run("verify-cert", _write(tmp_path, "w.json", cert))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "unit" in err and "Traceback" not in err


def test_verify_cert_wants_a_one_term_skew_witness_factor(run, tmp_path):
    # g + e still has m*a*(g + e) = 1 in the quotient, but unit * c = 1 no
    # longer ties the unit to m*a*y_w
    code, cert = jrun(run, "skew", "witness", "--json", "1 - x0 - x1")
    assert code == 0
    ring = SkewRing(CoeffDomain("rat", QQ), 2)
    cert["g"] = (SkewElem.from_json(ring, cert["g"]) + ring.e()).to_json()
    code, out, err = run("verify-cert", _write(tmp_path, "w.json", cert))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "exactly one term" in err and "Traceback" not in err


@pytest.mark.parametrize("part", ["input", "g"])
@pytest.mark.parametrize("key, value", [
    ("precision", "two"),  # a window that is not an integer
    ("field", "fp:7"),     # a coefficient over another field than its element
], ids=["precision", "field"])
def test_verify_cert_rejects_bad_trunc_coefficient(run, tmp_path, part, key, value):
    code, cert = jrun(run, "skew", "witness", "--backend", "trunc", "--json", "1 - x0")
    assert code == 0
    cert[part]["terms"][0][1][key] = value
    code, out, err = run("verify-cert", _write(tmp_path, "w.json", cert))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("backend", ["rat", "trunc"])
def test_verify_cert_rejects_malformed_skew_term(run, tmp_path, backend):
    code, cert = jrun(run, "skew", "witness", "--backend", backend, "--json", "1 - x0")
    assert code == 0
    cert["g"]["terms"][0] = 5
    code, out, err = run("verify-cert", _write(tmp_path, "w.json", cert))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("field", ["g", "input", "m"])
def test_verify_cert_rejects_malformed_skew_witness_field(run, tmp_path, field):
    # A string where an element or a letter list belongs is refused with
    # ``error:``, not a traceback, and m is not walked letter by letter.
    code, cert = jrun(run, "skew", "witness", "--json", "1 - x0")
    assert code == 0
    cert[field] = "two"
    code, out, err = run("verify-cert", _write(tmp_path, "w.json", cert))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "Traceback" not in err and "'t'" not in err


@pytest.mark.parametrize("exponent", [[False], [0, 0]], ids=["false", "too-long"])
@pytest.mark.parametrize("part", ["num", "den"])
def test_verify_cert_rejects_bad_exponent_in_a_qt_one(run, tmp_path, part, exponent):
    # The encoding of 1 with a ``false`` exponent compares equal to it in
    # Python; like a wrong-length exponent, it must fail the parse.
    code, cert = jrun(run, "skew", "witness", "--field", "qt:1", "--json", "1 - t*x0")
    assert code == 0
    one = cert["g"]["terms"][0][1]["gamma"][0]
    assert one == {"num": [[[0], "1"]], "den": [[[0], "1"]]}
    one[part][0][0] = exponent
    code, out, err = run("verify-cert", _write(tmp_path, "w.json", cert))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "exponent" in err and "Traceback" not in err


def test_verify_cert_rejects_empty_trunc_window(run, tmp_path):
    # A window-0 coefficient holds nothing; a ring built at that window would
    # lose the re-check's 1 and pass any g.
    code, cert = jrun(run, "skew", "witness", "--backend", "trunc", "--json", "1 - x0")
    assert code == 0
    cert["input"]["terms"][0][1]["precision"] = 0
    cert["g"]["terms"][0][1]["terms"][0][1] = "5"
    code, out, err = run("verify-cert", _write(tmp_path, "w.json", cert))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "Traceback" not in err


def test_verify_cert_trunc_rechecks_at_certificate_window(run, tmp_path):
    code, cert = jrun(run, "skew", "witness", "--backend", "trunc", "--precision", "6",
                      "--json", "1 - x0")
    assert (code, cert["precision"]) == (0, 6)
    out = jrun(run, "verify-cert", _write(tmp_path, "w.json", cert))
    assert out == (0, {"kind": "skew_witness", "ok": True, "precision": 6})


def test_verify_cert_paired_witness(run, tmp_path):
    code, wrapper = jrun(run, "leavitt", "witness", "--json", "--n", "2", "y1*x2")
    assert code == 0
    # the wrapper is accepted as-is; the re-check descends into "cert"
    assert run("verify-cert", _write(tmp_path, "p.json", wrapper))[0] == 0
    wrapper["cert"]["beta"] = wrapper["cert"]["gamma"]
    assert run("verify-cert", _write(tmp_path, "p2.json", wrapper))[0] == 1


@pytest.mark.parametrize("field, expr", [
    ("q", "2/3*y3*x1*x2 + 5"),
    ("fp:7", "2/3*y3*x1*x2 + 5 - 3/4*y2*y3*x3*x1"),
    ("qt:1", "(t + 1)^-1*y3*x1*x2 + 1/2*t"),
])
def test_verify_cert_refuses_tampered_paired_witness(run, tmp_path, field, expr):
    code, wrapper = jrun(run, "leavitt", "witness", "--n", "3", "--field", field, "--json", expr)
    assert code == 0 and wrapper["cert"]["mode"] == "v"
    assert jrun(run, "verify-cert", _write(tmp_path, "w.json", wrapper)) == (
        0, {"kind": "paired_witness", "mode": "v", "ok": True})
    # a mode the re-check does not know, a verdict it does not reach, and a
    # product it does not compute
    for key, value in (("mode", "w"), ("mode", None), ("mode", 7), ("mode", ["v"]),
                       ("ok", False), ("ok", 1), ("ok", None),
                       ("product", wrapper["cert"]["beta"]),
                       ("product", wrapper["cert"]["input"])):
        cert = json.loads(json.dumps(wrapper["cert"]))
        cert[key] = value
        code, out, err = run("verify-cert", _write(tmp_path, "t.json", cert))
        assert (code, out) == (1, ""), (key, value)
        assert err.startswith("error:") and "Traceback" not in err
    cert = json.loads(json.dumps(wrapper["cert"]))
    cert["input"]["terms"][0][0] = [9]
    assert run("verify-cert", _write(tmp_path, "t.json", cert)) == (
        1, "", "error: letter 9 outside 1..3\n")


def test_verify_cert_unbounded_witness(run, tmp_path):
    code, wrapper = jrun(run, "leavitt", "witness", "--json", "--n", "0",
                         "--beyond", "3", "1 + x1*x2")
    assert code == 0 and wrapper["cert"]["mode"] == "uinf"
    assert run("verify-cert", _write(tmp_path, "u.json", wrapper["cert"]))[0] == 0


def test_verify_cert_word_system(run, tmp_path):
    ring = SkewRing(CoeffDomain("rat", QQ), 2)
    words = [(i,) for i in range(3)]
    qs = [ring.x(i) for i in range(3)]
    rep = verify_word_system(ring, words, qs)
    assert rep.ok
    cert = rep.to_json()
    code, out = jrun(run, "verify-cert", _write(tmp_path, "ws.json", cert))
    assert code == 0 and out["ok"] and out["s_mod"] == 1
    cert["words"][0] = [1]
    code, out = jrun(run, "verify-cert", _write(tmp_path, "ws2.json", cert))
    assert code == 1 and not out["ok"]
    assert any("w_" in v and "q_" in v for v in out["violations"])


def test_verify_cert_sigma(run, tmp_path):
    g = build_generators(hom_spec(0, 3, 2), count=2)
    cert = spot_check_sigma_prime(g, FreeElem.letter(QQ, 0)).to_json()
    assert run("verify-cert", _write(tmp_path, "s.json", cert))[0] == 0
    cert["inverse"] = cert["matrix"]
    assert run("verify-cert", _write(tmp_path, "s2.json", cert))[0] == 1


_ONE_QT1 = [[[0], "1"]]


def _with_lam_entry(field, value):
    """A ``skew witness`` certificate over field with one lam entry of a
    series coefficient of g replaced by value."""
    def change(run):
        code, cert = jrun(run, "skew", "witness", "--json", "--field", field, "1 - x0")
        assert code == 0
        next(c for _, c in cert["g"]["terms"] if c["dim"])["lam"][0] = value
        return cert
    return change


def _with_sigma(change):
    """The sigma certificate of a 2 x 2 from hom_spec(0, 0, 2), changed."""
    def build(run):
        g = build_generators(hom_spec(0, 0, 2), count=2)
        cert = spot_check_sigma_prime(g, FreeElem.letter(QQ, 0)).to_json()
        assert cert["size"] == cert["matrix"]["nrows"] == 2
        change(cert)
        return cert
    return build


@pytest.mark.parametrize("make", [
    _with_lam_entry("q", [1]),
    _with_lam_entry("q", True),  # equal to 1 in Python, but not the string "1"
    _with_lam_entry("fp:7", [1]),
    _with_lam_entry("fp:7", True),
    _with_lam_entry("qt:1", [1]),
    _with_lam_entry("qt:1", {"num": 5, "den": _ONE_QT1}),
    _with_lam_entry("qt:1", {"num": [[[0], 1]], "den": _ONE_QT1}),  # the value 1, with an int coefficient
    _with_lam_entry("qt:1", {"num": _ONE_QT1, "den": _ONE_QT1, "extra": 1}),  # the value 1, with another key
    _with_lam_entry("qt:1", {"num": [], "den": _ONE_QT1, "extra": 1}),
    _with_sigma(lambda c: c.update(size="two")),
    _with_sigma(lambda c: c.update(size=3)),
    _with_sigma(lambda c: c["matrix"]["entries"][1].pop()),
    _with_sigma(lambda c: c["matrix"].update(entries=5)),
    _with_sigma(lambda c: c["inverse"].update(nrows=True)),
    _with_sigma(lambda c: c["inverse"]["entries"][0].__setitem__(0, 5)),
    _with_sigma(lambda c: c.update(field=5)),
], ids=["q_list", "q_true", "fp7_list", "fp7_true", "qt1_list", "qt1_num_int", "qt1_coeff_int",
        "qt1_one_extra_key", "qt1_zero_extra_key",
        "sigma_size_str", "sigma_size_off", "sigma_ragged", "sigma_entries_int", "sigma_nrows_bool",
        "sigma_entry_int", "sigma_field_int"])
def test_verify_cert_refuses_misencoded_scalars_and_sigma_shapes(run, tmp_path, make):
    code, out, err = run("verify-cert", _write(tmp_path, "c.json", make(run)))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("key, value", [
    ("ok_right", False), ("ok_left", False), ("ok_right", 1), ("ok_left", "true"), ("ok_right", None),
], ids=["right_false", "left_false", "right_int", "left_str", "right_null"])
def test_verify_cert_refuses_a_sigma_cert_with_a_wrong_verdict(run, tmp_path, key, value):
    """A sigma certificate records the verdicts its re-check reaches, as
    booleans: another value of ``ok_right`` or ``ok_left`` exits 1 with
    ``error:`` naming the key."""
    cert = _with_sigma(lambda c: c.update({key: value}))(run)
    code, out, err = run("verify-cert", _write(tmp_path, "s.json", cert))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and key in err and "Traceback" not in err


def test_verify_cert_refuses_a_sigma_cert_with_both_verdicts_false(run, tmp_path):
    cert = _with_sigma(lambda c: c.update(ok_right=False, ok_left=False))(run)
    code, out, err = run("verify-cert", _write(tmp_path, "s.json", cert))
    assert (code, out) == (1, "") and err.startswith("error:") and "ok_right" in err


@pytest.mark.parametrize("key", ["extra", "ok", "checks"])
def test_verify_cert_refuses_sigma_and_generator_certs_with_an_unknown_key(run, tmp_path, key):
    """Sigma and generator certificates carry exactly the keys their
    builders write: any other top-level key exits 1 with ``error:`` naming
    it, under ``verify-cert`` and, for generators, ``realize verify``."""
    sigma = _with_sigma(lambda c: None)(run)
    code, gen = jrun(run, "realize", "build", "--from", "0", "--to", "3", "--mult", "2", "--count", "2")
    assert code == 0
    for cert, checkers in ((sigma, [("verify-cert",)]), (gen, [("verify-cert",), ("realize", "verify")])):
        for checker in checkers:
            assert run(*checker, _write(tmp_path, "c.json", cert))[0] == 0
            code, out, err = run(*checker, _write(tmp_path, "c.json", dict(cert, **{key: 1})))
            assert (code, out) == (1, "")
            assert err.startswith("error:") and repr(key) in err and "Traceback" not in err


def test_verify_cert_generator_matrices(run, tmp_path):
    code, cert = jrun(run, "realize", "build", "--from", "0", "--to", "3",
                      "--mult", "2", "--count", "2")
    assert code == 0
    path = _write(tmp_path, "g.json", cert)
    assert run("verify-cert", path)[0] == 0
    code, rep = jrun(run, "realize", "verify", path)
    assert code == 0 and rep["ok"] and rep["failed"] == []
    cert["A"][0], cert["A"][1] = cert["A"][1], cert["A"][0]
    code, rep = jrun(run, "verify-cert", _write(tmp_path, "g2.json", cert))
    assert code == 1 and not rep["ok"]


def _case2_cert(run):
    code, cert = jrun(run, "realize", "build", "--from", "0", "--to", "0", "--mult", "2")
    assert code == 0 and cert["size"] == 2
    return cert


def _refused(run, tmp_path, cert, *words):
    code, out, err = run("verify-cert", _write(tmp_path, "g.json", cert))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert all(w in err for w in words)


def test_verify_cert_rejects_generator_matrices_smaller_than_their_spec(run, tmp_path):
    cert = _case2_cert(run)
    cut = lambda m: [[m[0][0]]]
    cert["E"] = cut(cert["E"])
    cert["A"] = [cut(a) for a in cert["A"]]
    cert["B"] = [cut(b) for b in cert["B"]]
    _refused(run, tmp_path, cert, "E", "2 x 2")


def test_verify_cert_rejects_generator_matrices_with_no_pairs(run, tmp_path):
    cert = _case2_cert(run)
    cert["A"] = cert["B"] = []
    _refused(run, tmp_path, cert, "A and B")


def test_verify_cert_rejects_a_ragged_generator_matrix(run, tmp_path):
    cert = _case2_cert(run)
    cert["E"][1].pop()
    _refused(run, tmp_path, cert, "E", "2 x 2")


@pytest.mark.parametrize("key, value", [
    ("size", 3), ("ring_n", 2), ("quotient", True), ("spec", {"n": 0, "m": 0, "l": 2})])
def test_verify_cert_rejects_generator_shape_fields_off_their_spec(run, tmp_path, key, value):
    cert = _case2_cert(run)
    cert[key] = value
    _refused(run, tmp_path, cert, key)


def test_verify_cert_refuses_a_generator_coefficient_with_infinite_support(run, tmp_path):
    """Generator identities are checked over polynomial coefficients, so a
    certificate whose coefficient is the series x0^* = (1 - x0)^-1 exits 1
    with ``error:``, through ``verify-cert`` and ``realize verify`` alike."""
    cert = _case2_cert(run)
    cert["A"][0][0][0]["terms"][0][1] = LinRep.letter(QQ, 0).star().to_json()
    _refused(run, tmp_path, cert, "infinite support")
    code, out, err = run("realize", "verify", _write(tmp_path, "g.json", cert))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "infinite support" in err and "Traceback" not in err


def test_verify_cert_refuses_a_generator_coefficient_with_too_large_a_support(run, tmp_path):
    """(x0 + x1)^40 is a polynomial of dim 41 with 2^40 words.  Listing it
    for the polynomial checks stops past (letters + 1) * dim prefixes, so
    the certificate is refused at once with exit 1, not expanded."""
    cert = _case2_cert(run)
    s = LinRep.letter(QQ, 0) + LinRep.letter(QQ, 1)
    p = LinRep.one(QQ)
    for _ in range(40):
        p = p * s
    assert p.dim == 41
    cert["E"][0][0]["terms"][0][1] = p.to_json()
    start = time.process_time()
    _refused(run, tmp_path, cert, "prefixes of support words, too many to list")
    assert time.process_time() - start < 1.0


@pytest.mark.parametrize("backend", ["rat", "free"])
@pytest.mark.parametrize("coeff", [[1], "x"], ids=["list", "string"])
def test_verify_cert_refuses_a_generator_coefficient_that_is_not_an_object(run, tmp_path, backend, coeff):
    code, cert = jrun(run, "realize", "build", "--from", "0", "--to", "0", "--mult", "2", "--backend", backend)
    assert code == 0
    cert["E"][0][0]["terms"][0][1] = coeff
    _refused(run, tmp_path, cert, "must be an object", repr(coeff))


@pytest.mark.parametrize("change, fragment", [
    (lambda term: term.__setitem__(1, [1]), "must be an object"),
    (lambda term: term.__setitem__(1, "x"), "must be an object"),
    (lambda term: term[1].update(terms=[5]), "a term must be"),
    (lambda term: term[1]["terms"].append(term[1]["terms"][0]), "listed twice"),
], ids=["list", "string", "terms_5", "term_twice"])
def test_verify_cert_refuses_a_misshapen_trunc_coefficient(run, tmp_path, change, fragment):
    """A truncated coefficient is checked as a polynomial is: an object,
    with terms loaded by ``words.load_terms``, so no term is dropped for
    another with the same word."""
    code, cert = jrun(run, "skew", "witness", "--backend", "trunc", "--precision", "6", "--json",
                      "y0*(1 + x0) + 2")
    assert code == 0
    change(cert["g"]["terms"][0])
    code, out, err = run("verify-cert", _write(tmp_path, "w.json", cert))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and fragment in err and "Traceback" not in err


def test_verify_cert_reduces_no_word_coefficient_of_a_generator_certificate(run, tmp_path, monkeypatch):
    """Every coefficient of a ``rat`` generator certificate is the path
    block of its word or a letterless 1 x 1 constant, which the load keeps
    as it is: the re-check minimises no coefficient, and lists every one
    as a polynomial with no level search.  A load that fell back to
    ``reduce()`` for words or constants, or a listing that searched, fails
    here."""
    code, cert = jrun(run, "realize", "build", "--from", "2", "--to", "2", "--mult", "2", "--field", "qt:1")
    assert code == 0
    coeffs = [c for m in [cert["E"], *cert["A"], *cert["B"]] for row in m for el in row for _, c in el["terms"]]
    consts = sum(c["dim"] == 1 and not c["mu"] for c in coeffs)
    assert 0 < consts < len(coeffs)
    minimised, listed, echelons = [], [], [0]
    minimise, to_free, echelon = linrep._minimise, LinRep.to_free, linrep.Echelon

    def spy_minimise(k, dim, rows, mu, cols):
        minimised.append((dim, len(mu)))
        return minimise(k, dim, rows, mu, cols)

    def spy_echelon(ring):
        echelons[0] += 1
        return echelon(ring)

    def spy_to_free(self, bounded=False):
        before = echelons[0]
        out = to_free(self, bounded)
        listed.append((self._mono, echelons[0] - before))
        return out

    monkeypatch.setattr(linrep, "_minimise", spy_minimise)
    monkeypatch.setattr(linrep, "Echelon", spy_echelon)
    monkeypatch.setattr(LinRep, "to_free", spy_to_free)
    assert jrun(run, "verify-cert", _write(tmp_path, "g.json", cert))[0] == 0
    assert minimised == []
    assert listed == [(c["dim"] > 1, 0) for c in coeffs]


def test_verify_cert_refuses_a_trunc_generator_certificate(run, tmp_path):
    # over trunc every identity holds only in a window, which "ok" cannot record
    cert = build_generators(hom_spec(2, 2, 2), backend="trunc").to_json()
    _refused(run, tmp_path, cert, "backend", "trunc")


def test_verify_cert_wants_n_plus_one_pairs_in_cases_1_and_4(run, tmp_path):
    code, cert = jrun(run, "realize", "build", "--from", "2", "--to", "0", "--mult", "0",
                      "--field", "qt:1")
    assert code == 0 and len(cert["A"]) == 3
    cert["A"].pop()
    cert["B"].pop()
    _refused(run, tmp_path, cert, "3 A/B pairs")


def test_verify_cert_chain_plan(run, tmp_path):
    plan = {"groups": [{"tags": [2], "u": [1]}, {"tags": [4], "u": [2]}],
            "maps": [[[2]]]}
    code, out = jrun(run, "realize", "chain", "--verify",
                     _write(tmp_path, "plan.json", plan))
    assert code == 0 and out["ok"]
    assert all(v["ok"] for v in out["verification"])
    assert run("verify-cert", _write(tmp_path, "c.json", out))[0] == 0
    out["maps"][0][0][0] = 3  # 3*2 is not 0 mod 4: not a group map
    assert run("verify-cert", _write(tmp_path, "c2.json", out))[0] == 1


def test_verify_cert_stdin(run, tmp_path, monkeypatch):
    import io

    code, cert = jrun(run, "skew", "witness", "--json", "1 - x0")
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(cert)))
    assert run("verify-cert", "-")[0] == 0


def test_verify_cert_rejects_unknown_kind(run, tmp_path):
    assert run("verify-cert", _write(tmp_path, "x.json", {"kind": "other"}))[0] == 2
    assert run("verify-cert", _write(tmp_path, "y.json", [1, 2]))[0] == 2


def test_chain_plan_failure_exits_1(run, tmp_path):
    plan = {"groups": [{"tags": [2], "u": [1]}, {"tags": [0], "u": [1]}],
            "maps": [[[1]]]}
    code, out = jrun(run, "realize", "chain", _write(tmp_path, "bad.json", plan))
    assert code == 1 and not out["ok"] and out["errors"]
    assert run("realize", "chain", _write(tmp_path, "shape.json", {"groups": []}))[0] == 2


# -- refusals before anything is built: scalar encodings and certificate shapes ------

@pytest.mark.parametrize("field, bad", [
    ("fp:7", 8), ("fp:7", -6),
    ("q", " 1 "), ("q", "2/2"), ("q", "0.5"), ("q", "1e2"), ("q", "-0"),
    ("qt:1", {"num": [[[0], "1"], [[0], "2"]], "den": [[[0], "1"]]}),  # read as 2 by overwriting
    ("qt:1", {"num": [[[1], "2"]], "den": [[[1], "4"]]}),  # 2*t/(4*t)
], ids=["fp7-8", "fp7-minus-6", "q-spaces", "q-2/2", "q-decimal", "q-exponent", "q-minus-0",
        "qt-repeated-exponent", "qt-unreduced"])
def test_verify_cert_refuses_scalars_written_otherwise(run, tmp_path, field, bad):
    """A skew witness of 1 - x0 whose first scalar of g, 1, is written
    another way, of the same value or not, exits 1 with ``error:``."""
    code, cert = jrun(run, "skew", "witness", "--field", field, "--json", "1 - x0")
    assert code == 0 and run("verify-cert", _write(tmp_path, "ok.json", cert))[0] == 0
    cert["g"]["terms"][0][1]["lam"][0] = bad
    code, out, err = run("verify-cert", _write(tmp_path, "w.json", cert))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "is not how a scalar" in err and "Traceback" not in err


@pytest.mark.parametrize("cmd, where, terms", [
    (["leavitt", "witness", "--n", "2", "--json", "y1*x2"], ("cert", "beta"), 5),
    (["leavitt", "witness", "--n", "2", "--json", "y1*x2"], ("cert", "beta"), None),
    (["leavitt", "witness", "--n", "2", "--json", "y1*x2"], ("cert", "beta"), [[[1], "1"]]),
    (["skew", "witness", "--json", "1 - x0"], ("input",), [[[0]]]),
    (["skew", "witness", "--json", "1 - x0"], ("input",), None),
], ids=["leavitt-terms-5", "leavitt-terms-null", "leavitt-two-entry-term", "skew-one-entry-term", "skew-terms-null"])
def test_verify_cert_refuses_misshapen_terms(run, tmp_path, cmd, where, terms):
    """An element whose terms are not a list of terms of the right length,
    with words of integer letters, exits 1 with ``error:``."""
    code, cert = jrun(run, *cmd)
    assert code == 0
    elem = cert
    for key in where:
        elem = elem[key]
    elem["terms"] = terms
    code, out, err = run("verify-cert", _write(tmp_path, "t.json", cert))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "coefficient]" in err and "Traceback" not in err


def _word_system_cert():
    ring = SkewRing(CoeffDomain("rat", QQ), 2)
    return verify_word_system(ring, [(i,) for i in range(3)], [ring.x(i) for i in range(3)]).to_json()


@pytest.mark.parametrize("key, value", [("words", 5), ("words", None), ("words", [5]), ("words", [[0], [1], ["2"]]),
                                        ("qs", 3), ("qs", [3, 4, 5]), ("qs", "q"), ("qs", []), ("qs", None),
                                        ("qs", 0)])
def test_verify_cert_refuses_malformed_word_systems(run, tmp_path, key, value):
    cert = _word_system_cert()
    cert[key] = value
    code, out, err = run("verify-cert", _write(tmp_path, "ws.json", cert))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and key in err and "Traceback" not in err


def test_verify_cert_refuses_word_systems_of_unequal_lengths(run, tmp_path):
    cert = _word_system_cert()
    cert["qs"] = cert["qs"][:2]
    code, out, err = run("verify-cert", _write(tmp_path, "ws.json", cert))
    assert (code, out) == (1, "") and "one per word" in err


_PLAN = {"groups": [{"tags": [2], "u": [1]}, {"tags": [4], "u": [2]}], "maps": [[[2]]]}


def _emitted_certificates(run, tmp_path):
    """A paired witness, a word system, and a chain plan with and without
    its ``verification`` list, as the tool writes them, each with the key
    list its re-check accepts."""
    code, wrapper = jrun(run, "leavitt", "witness", "--json", "--n", "2", "y1*x2")
    assert code == 0
    certs = [(wrapper["cert"], leavitt.PAIRED_WITNESS_KEYS), (_word_system_cert(), skew.WORD_SYSTEM_KEYS)]
    for argv in (["realize", "chain"], ["realize", "chain", "--verify", "--count", "1"]):
        code, plan = jrun(run, *argv, _write(tmp_path, "plan.json", _PLAN))
        assert code == 0
        certs.append((plan, realize.CHAIN_PLAN_KEYS))
    return certs


def test_certificate_key_lists_are_the_keys_the_tool_writes(run, tmp_path):
    certs = _emitted_certificates(run, tmp_path)
    for cert, keys in certs[:2]:
        assert set(cert) == keys
    assert set(certs[2][0]) == realize.CHAIN_PLAN_KEYS - {"verification"}
    assert set(certs[3][0]) == realize.CHAIN_PLAN_KEYS


def test_verify_cert_refuses_an_unknown_key_in_every_kind(run, tmp_path):
    """A paired witness, a word system or a chain plan that re-checks as
    written exits 1 with ``error:`` naming the key once ``extra`` is added."""
    for cert, _ in _emitted_certificates(run, tmp_path):
        assert run("verify-cert", _write(tmp_path, "c.json", cert))[0] == 0
        code, out, err = run("verify-cert", _write(tmp_path, "c.json", dict(cert, extra=1)))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "unknown key 'extra'" in err and "Traceback" not in err


@pytest.mark.parametrize("change", [
    {"groups": 5}, {"groups": [5, 6]}, {"groups": [{"tags": 5, "u": [1]}, {"tags": [4], "u": [2]}]},
    {"groups": [{"tags": [2], "u": [True]}, {"tags": [4], "u": [2]}]}, {"groups": [{"tags": [2]}, {"tags": [4], "u": [2]}]},
    {"maps": 5}, {"maps": [5]}, {"maps": [[5]]}, {"maps": [[["a"]]]},
], ids=["groups-5", "groups-ints", "tags-5", "u-bool", "u-missing", "maps-5", "maps-list-5", "maps-row-5",
        "maps-string"])
def test_malformed_chain_plans_exit_1(run, tmp_path, change):
    """Both ``realize chain`` and ``verify-cert`` refuse a plan of the wrong
    shape with exit 1 and ``error:``."""
    code, cert = jrun(run, "realize", "chain", _write(tmp_path, "plan.json", _PLAN))
    assert code == 0
    for argv, obj in ((["realize", "chain"], dict(_PLAN, **change)), (["verify-cert"], dict(cert, **change))):
        code, out, err = run(*argv, _write(tmp_path, "bad.json", obj))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "must be" in err and "Traceback" not in err


_KINDS = ("chain_plan", "generator_matrices", "paired_witness", "sigma_cert", "skew_witness", "word_system")


def _skew_witness_with_backend(backend):
    def make(run):
        code, cert = jrun(run, "skew", "witness", "--json", "1 - x0")
        assert code == 0
        cert["input"]["backend"] = backend
        return cert
    return make


def _paired_witness_with(key, value, n=False):
    """A paired witness whose ``key`` part is ``value``, or, with ``n``,
    whose ``key`` part has the letter bound ``value``."""
    def make(run):
        code, wrapper = jrun(run, "leavitt", "witness", "--json", "--n", "2", "y1*x2")
        assert code == 0
        cert = wrapper["cert"]
        if n:
            cert[key]["n"] = value
        else:
            cert[key] = value
        return cert
    return make


_WRONGLY_TYPED = (
    [("kind-list-" + k, lambda run, k=k: {"kind": [k]}, 2) for k in _KINDS]
    + [("kind-object-" + k, lambda run, k=k: {"kind": {k: k}}, 2) for k in _KINDS]
    + [("backend-object", _skew_witness_with_backend({"rat": 1}), 1),
       ("backend-list", _skew_witness_with_backend(["rat"]), 1)]
    + [("%s-%s" % (key, json.dumps(v)), _paired_witness_with(key, v), 1)
       for key in ("input", "beta", "gamma", "product") for v in (None, 3, "x", [1])]
    + [("%s-n-%s" % (key, json.dumps(v)), _paired_witness_with(key, v, n=True), 1)
       for key in ("input", "beta") for v in ({"n": 2}, [2])]
)


@pytest.mark.parametrize("make, want", [c[1:] for c in _WRONGLY_TYPED], ids=[c[0] for c in _WRONGLY_TYPED])
def test_verify_cert_refuses_wrongly_typed_parts(run, tmp_path, make, want):
    """A certificate kind that is not a string exits 2, as an unknown kind
    does; a skew witness backend that is not a string, and a paired
    witness whose elements are not objects or whose letter bound is not an
    integer or null, exit 1.  Each prints ``error:`` and no traceback."""
    code, out, err = run("verify-cert", _write(tmp_path, "c.json", make(run)))
    assert (code, out) == (want, "")
    assert err.startswith("error:") and "Traceback" not in err
