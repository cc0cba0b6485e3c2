#!/usr/bin/env python3
"""Digest the stdout of a fixed list of CLI commands, for comparing versions.

Runs each command in-process and prints one line per command: the sha256
of its stdout (and, when the exit code is not 0, of its stderr too, so the
``error:`` message of a refusal is pinned), its exit code and the command.
Every subcommand runs at least once.  Every certificate a command emits is also fed back to
``verify-cert`` (and a generator certificate to ``realize verify``), which
gets a line of its own.
Three certificates are also re-checked after one value is doubled (a
generator certificate of case 1 and one of case 4, and a skew witness,
once in its factor g and once in its unit), so the lines of a failing
re-check, with its list of failed identities, are pinned too, and a paired
witness is re-checked after its mode, its verdict or its product is
changed, which each pin a refusal.  So does a generator certificate whose
first coefficient is replaced by the series x0^* = (1 - x0)^-1: generator
identities are checked over polynomial coefficients.
No command prints a series matrix, so three ``spot_check_sigma_prime``
certificates, two over q and one over qt:1, built with the package's own
functions, get a line each, and so does the ``recheck_certificate`` result
of each.
Then come eight refusals, one line each: a skew witness whose first scalar
is written "2/2" in place of "1" (a scalar must be written as the package
writes it), a word-system certificate whose ``words`` is 5, a chain plan
whose ``maps`` is 5, a skew witness whose first scalar is written "1/0",
a skew witness whose input lists its one term twice, and a Leavitt
witness whose beta has terms 5, terms null, or a term of two entries.
Then eight ``series eval`` lines, over q and qt:1, plain and ``--json``,
of a word times a series: each runs one product that skips the
reachability search, on a right factor whose whole space is reached by
nonempty words and on one where it is not.
Then seven lines on how a certificate's coefficients are loaded: two
generator certificates whose first word coefficient is near the path
block of a word, with a superdiagonal entry of 2 or a second letter on its
first step, which the load must reduce as any other block, and five
refusals, of a generator coefficient that is not an object, over rat and
over free, and of a truncated coefficient of a skew witness's g that is
not an object, whose terms are [5], or which lists a term twice.
Last, two lines of the qt:1 certificate of ``realize build --from 2 --to 2
--mult 2`` (case 1) with its constant E[0][0] rewritten: as lam 2 and
gamma 1/2, the same constant 1, which must pass, and as lam 0, a zero
entry, which must fail with its list of failed identities.
Then ``skew member --json`` of a member whose descent adds series that
differ only in the sign of lam, and the refusal of a skew witness that
carries a key the re-check does not read.
Last come four more refusals: the first sigma certificate with its
recorded ``ok_right`` and ``ok_left`` set to false, the same certificate
with a key ``extra``, and a generator certificate with a key ``extra``,
under ``verify-cert`` and under ``realize verify``.
Then ``k0 monoid --json`` of g | 40g = g, whose table group is presented
by 1522 relation rows on 39 generators.
Last come three refusals of wrongly typed certificate parts: a skew
witness whose ``kind`` is a list, one whose ``input.backend`` is an
object, and a Leavitt witness whose beta is null.  Then two refusals of
a recorded verdict that the re-check does not reach: the word-system
certificate and the chain plan of PLAN, each with ``ok`` set to false.
A command that raises in place of exiting gets the line
``exit=uncaught <exception type>``.
Run it on two checkouts and diff the outputs to see which commands changed:

    python3 scripts/output_digest.py > new.txt
    python3 scripts/output_digest.py --src ../other/src > old.txt
    diff old.txt new.txt
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile

# A small group chain Z_2 -> Z_4, 1 -> 2, for ``realize chain``; an argument
# equal to PLAN_FILE names the file holding it.
PLAN_FILE = "plan.json"
PLAN = {"groups": [{"tags": [2], "u": [1]}, {"tags": [4], "u": [2]}], "maps": [[[2]]]}

QT_UNIT = "1 - (t + 1)^-1*x0*x1 + t*x1 - (2*t + 3)^-1*x1*x0"
QT_SERIES = "(1 - (t + 1)^-1*x0 - t*x1*x0)^-1 * (2 - (t^2 + 1)^-1*x1)"
# reduced results that feed further operations: inverses of products of
# inverses, multiplied and added again
NESTED = "((1 - x0)^-1 * (1 + 2*x1*x0))^-1 * (1 - x1 - x0*x1)^-1 + (2 - x0*x1)^-1 * (1 - 3*x1)^-1"
QT_NESTED = "((1 - t*x0)^-1 * (1 + (t + 1)^-1*x1*x0))^-1 * ((2 - x1)^-1 + t*x0)^-1"
QT2_UNIT = "1 - (t1 + 1)^-1*x0*x1 + t2*x1 - (2*t1 + t2)^-1*x1*x0"
QT2_SERIES = "(1 - (t1 + t2)^-1*x0 - t1*x1*x0)^-1 * (2 - (t2^2 + t1)^-1*x1)"
QT2_NESTED = "((1 - t1*x0)^-1 * (1 + (t1 + t2)^-1*x1*x0))^-1 * ((2 - t2*x1)^-1 + (t1*t2 + 1)^-1*x0)^-1"
QT3_UNIT = "1 - (t1 + t3)^-1*x0*x1 + t2*x1 - (2*t3 + t2)^-1*x1*x0"
QT3_SERIES = "(1 - (t1 + t3)^-1*x0 - t2*x1*x0)^-1 * (2 - (t3^2 + t1)^-1*x1)"
QT3_NESTED = "((1 - t3*x0)^-1 * (1 + (t1 + t2)^-1*x1*x0))^-1 * ((2 - t2*x1)^-1 + (t1*t3 + 1)^-1*x0)^-1"
# Leavitt elements at n = 3 with fractional coefficients whose junctions
# y3*x3 rewrite into terms that cancel others: a multiple of the unit-sum
# relation that vanishes, and terms that cancel what y2*y3*x3*x1 rewrites to
LEAVITT_NF = "2/3*y3*x3*x1 - 5/4*y1*y3*x3*x2 + 1/2*(y1*x1 + y2*x2 + y3*x3 - 1)*y2 + y2*x2 - 2/3*x1 + 7/2"
LEAVITT_W = "2/3*y3*x1*x2 + 5 - 3/4*y2*y3*x3*x1 + 3/4*y2*x1 - 3/4*y2*y2*x2*x1"
QT_LEAVITT_NF = "(t + 1)^-1*y3*x3*x1 - t*(y1*x1 + y2*x2 + y3*x3)*x1 + 1/2*t*x1"
QT_LEAVITT_W = "(t + 1)^-1*y3*x3*x1 - t*(y1*x1 + y2*x2 + y3*x3)*x1 + 1/2*y1"
# a product of 24 binomials, whose expansion has 2^24 words
BINOMIALS = "*".join(["(x0 + x1)"] * 24)
# x-polynomial coefficients, a power of a word and a polynomial inverse
FOLDED = "y1*e*(1 - 2/3*x0*x2 + x1^3) + (2 - x0*x1)^-1*y2*x2 - 3/4*x0^2"

VERIFY_CERT = ["verify-cert"]
REALIZE_VERIFY = ["realize", "verify"]

# (argv, commands that re-check the certificate it prints)
COMMANDS = [
    (["selftest", "--json"], []),
    (["realize", "build", "--from", "2", "--to", "2", "--mult", "2", "--field", "qt:1"],
     [VERIFY_CERT, REALIZE_VERIFY]),
    (["realize", "chain", PLAN_FILE], [VERIFY_CERT]),
    (["realize", "chain", "--verify", "--count", "1", PLAN_FILE], [VERIFY_CERT]),
    (["series", "invert", "1 - x0*x1 + 2*x1"], []),
    (["series", "invert", "--json", "1 - x0*x1 + 2*x1"], []),
    (["series", "eval", "--field", "qt:1", "(1 + t*x0)^-1 * (2 - x1*x0)"], []),
    (["series", "eval", "--field", "qt:1", "--json", "(1 + t*x0)^-1 * (2 - x1*x0)"], []),
    (["series", "eval", "--field", "qt:2", "(1 - (3*t1 + 2*t2)^-1*x0 - (2*t1 + 1)^-1*x1)^-1"], []),
    (["series", "eval", "--field", "qt:2", "--json",
      "(1 - (3*t1 + 2*t2)^-1*x0 - (2*t1 + 1)^-1*x1)^-1"], []),
    (["series", "eval", "--field", "qt:2", "(2*t1 + 6)^-1*x0 + 3^-1*t2*x1"], []),
    (["series", "eval", "--field", "qt:2", "--json", "(2*t1 + 6)^-1*x0 + 3^-1*t2*x1"], []),
    (["series", "transduce", "--letter", "1", "--window", "4", "(1 - x0 - 2*x1)^-1"], []),
    # qt:1 reductions whose vectors have non-constant denominators
    (["series", "invert", "--field", "qt:1", QT_UNIT], []),
    (["series", "invert", "--field", "qt:1", "--json", QT_UNIT], []),
    (["series", "transduce", "--field", "qt:1", "--letter", "0", "--window", "4", QT_SERIES], []),
    (["series", "transduce", "--field", "qt:1", "--letter", "1", "--json", QT_SERIES], []),
    (["series", "eval", NESTED], []),
    (["series", "eval", "--json", NESTED], []),
    (["series", "eval", "--field", "fp:7", NESTED], []),
    (["series", "eval", "--field", "fp:7", "--json", NESTED], []),
    (["series", "eval", "--field", "qt:1", QT_NESTED], []),
    (["series", "eval", "--field", "qt:1", "--json", QT_NESTED], []),
    # qt:2 reductions whose vectors have non-constant bivariate denominators
    (["series", "invert", "--field", "qt:2", QT2_UNIT], []),
    (["series", "invert", "--field", "qt:2", "--json", QT2_UNIT], []),
    (["series", "transduce", "--field", "qt:2", "--letter", "0", "--window", "4", QT2_SERIES], []),
    (["series", "transduce", "--field", "qt:2", "--letter", "1", "--json", QT2_SERIES], []),
    (["series", "eval", "--field", "qt:2", QT2_NESTED], []),
    (["series", "eval", "--field", "qt:2", "--json", QT2_NESTED], []),
    # qt:3 reductions whose denominators involve t1, t2 and t3
    (["series", "invert", "--field", "qt:3", QT3_UNIT], []),
    (["series", "invert", "--field", "qt:3", "--json", QT3_UNIT], []),
    (["series", "transduce", "--field", "qt:3", "--letter", "0", "--window", "4", QT3_SERIES], []),
    (["series", "transduce", "--field", "qt:3", "--letter", "1", "--json", QT3_SERIES], []),
    (["series", "eval", "--field", "qt:3", QT3_NESTED], []),
    (["series", "eval", "--field", "qt:3", "--json", QT3_NESTED], []),
    (["series", "equal", "--json", "(1 - x0)^-1 - 1", "x0*(1 - x0)^-1"], []),
    (["series", "eval", "--json", BINOMIALS], []),
    (["skew", "mul", "--json", "y0*(1 - x0)^-1", "x0 + y1"], []),
    (["skew", "mul", "--backend", "free", "y1*x0", "x1*y1 + 2"], []),
    (["skew", "member", "--json", "1 - y0*x0 - y1*x1 - y2*x2"], []),
    (["skew", "equal", "--backend", "trunc", "--precision", "5", "--json", "x0*y0", "1"], []),
    (["skew", "member", "--backend", "trunc", "--json", FOLDED], []),
    (["skew", "witness", "--json", "1 - x0"], [VERIFY_CERT]),
    (["skew", "witness", "--json", "1 - x0 - x1"], [VERIFY_CERT]),
    (["skew", "witness", "--json", "y0*(1 + x1*x2)*(1 - 2*x0)^-1 + y1*y2*e"], [VERIFY_CERT]),
    (["skew", "witness", "--backend", "trunc", "--precision", "6", "--json", "1 - x0"],
     [VERIFY_CERT]),
    (["leavitt", "nf", "--n", "2", "y2*x2"], []),
    (["leavitt", "nf", "--n", "0", "--json", "x1*y1 + y3*x2"], []),
    (["leavitt", "witness", "--n", "2", "--json", "y1*x2"], [VERIFY_CERT]),
    (["leavitt", "witness", "--n", "0", "--beyond", "3", "--json", "1 + x1*x2"], [VERIFY_CERT]),
    (["leavitt", "nf", "--n", "3", "--json", LEAVITT_NF], []),
    (["leavitt", "witness", "--n", "3", "--json", LEAVITT_W], [VERIFY_CERT]),
    (["leavitt", "nf", "--n", "3", "--field", "fp:7", "--json", LEAVITT_NF], []),
    (["leavitt", "witness", "--n", "3", "--field", "fp:7", "--json", LEAVITT_W], [VERIFY_CERT]),
    (["leavitt", "nf", "--n", "3", "--field", "qt:1", "--json", QT_LEAVITT_NF], []),
    (["leavitt", "witness", "--n", "3", "--field", "qt:1", "--json", QT_LEAVITT_W], [VERIFY_CERT]),
    (["leavitt", "witness", "--n", "0", "--json", "2/3*y1*x2 - 5/4*x3*y3 + 1/2*y2*y1"],
     [VERIFY_CERT]),
    (["k0", "monoid", "--json", "I | 3I=I"], []),
    (["k0", "monoid", "--json", "I,P | I=2I+P"], []),
    (["k0", "group", "I | 3I=I"], []),
    (["k0", "group", "I,P | I=2I+P"], []),
    # generator images come from the column operations of the Smith form:
    # the table groups of g | 12g = g and of the largest cyclic monoid whose
    # nonzero part is still re-presented (64 elements, so the bound must
    # admit its 65), a pivot that must be folded (2 does not divide 3), and
    # four generators tied together
    (["k0", "monoid", "--json", "g | 12g = g"], []),
    (["k0", "monoid", "--json", "--bound", "65", "g | 65g = g"], []),
    (["k0", "group", "--json", "a,b | 2a=0, 3b=0"], []),
    (["k0", "group", "--json", "a,b,c,d | 2a+4b=6c, 3b+d=9a, 4c+2d=6b"], []),
]

# the largest table group the digest pins: 39 nonzero elements, so
# 39 * 39 + 1 relation rows
TABLE_GROUP_40 = ["k0", "monoid", "--json", "--bound", "512", "g | 40g = g"]

# (argv printing a certificate, which of its series has its entry vector
# doubled, where that series sits in it): the first term's series in
# E[0][0] of a generator certificate, and in the witness factor g of a skew
# witness, and the witness's unit
TAMPERED = [
    (["realize", "build", "--from", "2", "--to", "2", "--mult", "2", "--field", "qt:1"],
     "first lam", lambda c: c["E"][0][0]["terms"][0][1]),
    (["realize", "build", "--from", "3", "--to", "0", "--mult", "0", "--field", "qt:1"],
     "first lam", lambda c: c["E"][0][0]["terms"][0][1]),
    (["skew", "witness", "--json", "1 - x0 - x1"], "first lam", lambda c: c["g"]["terms"][0][1]),
    (["skew", "witness", "--json", "1 - x0 - x1"], "lam of unit", lambda c: c["unit"]),
]

# a generator certificate whose first coefficient, in E[0][0], is set to a
# series with infinite support: verify-cert must refuse it
INFINITE_SUPPORT = ["realize", "build", "--from", "2", "--to", "2", "--mult", "2", "--field", "qt:1"]

# (what is changed, how) in the certificate of ``leavitt witness`` on
# LEAVITT_W: verify-cert must refuse each one
TAMPERED_WITNESS = [
    ('mode set to "w"', lambda c: c.update(mode="w")),
    ("ok set to false", lambda c: c.update(ok=False)),
    ("product set to beta", lambda c: c.update(product=c["beta"])),
]


def misencoded_witness(text):
    """A function of run_command making a skew witness of 1 - x0 whose first
    scalar of g, 1, is written ``text``."""
    def make(run_command):
        cert = json.loads(run(run_command, ["skew", "witness", "--json", "1 - x0"])[1])
        cert["g"]["terms"][0][1]["lam"][0] = text
        return cert
    return make


def repeated_term_witness(run_command):
    """A skew witness of 1 - x0 whose input lists its one term twice."""
    cert = json.loads(run(run_command, ["skew", "witness", "--json", "1 - x0"])[1])
    terms = cert["input"]["terms"]
    terms.append(terms[0])
    return cert


def misshapen_beta_terms(terms):
    """A function of run_command making the certificate of ``leavitt
    witness`` on y1*x2 in L(1, 2) whose beta has ``terms`` as its terms."""
    def make(run_command):
        cert = json.loads(run(run_command, ["leavitt", "witness", "--n", "2", "--json", "y1*x2"])[1])
        cert["cert"]["beta"]["terms"] = terms
        return cert
    return make


def misshapen_beta(beta):
    """The same certificate with ``beta`` as its beta."""
    def make(run_command):
        cert = json.loads(run(run_command, ["leavitt", "witness", "--n", "2", "--json", "y1*x2"])[1])
        cert["cert"]["beta"] = beta
        return cert
    return make


def word_system():
    """The certificate of the word system x0, x1, x2 against y0, y1, y2 over
    q, built with the package's own functions (no command prints one)."""
    from ratskew.fields import field_from_name
    from ratskew.skew import CoeffDomain, SkewRing, verify_word_system

    ring = SkewRing(CoeffDomain("rat", field_from_name("q")), 2)
    return verify_word_system(ring, [(i,) for i in range(3)], [ring.x(i) for i in range(3)]).to_json()


def malformed_word_system(run_command):
    return dict(word_system(), words=5)


def malformed_plan(run_command):
    return dict(PLAN, maps=5)


def plan_certificate():
    """The chain plan ``realize chain`` prints for PLAN, built with the
    package's own function."""
    from ratskew.realize import plan_chain

    return plan_chain(PLAN["groups"], PLAN["maps"]).to_json()


# (what is changed, a function of run_command making the certificate, the
# command that re-checks it): a recorded verdict the re-check does not reach
MISRECORDED = [
    ("word-system certificate with ok false", lambda run_command: dict(word_system(), ok=False), VERIFY_CERT),
    ("chain plan with ok false", lambda run_command: dict(plan_certificate(), ok=False), VERIFY_CERT),
]


# (what is wrong, a function of run_command making the input, the command
# that must refuse it)
REFUSED = [
    ("first scalar of g written 2/2", misencoded_witness("2/2"), VERIFY_CERT),
    ("word-system certificate with words 5", malformed_word_system, VERIFY_CERT),
    ("chain plan with maps 5", malformed_plan, ["realize", "chain"]),
    ("first scalar of g written 1/0", misencoded_witness("1/0"), VERIFY_CERT),
    ("input's one term listed twice", repeated_term_witness, VERIFY_CERT),
    ("leavitt witness with beta terms 5", misshapen_beta_terms(5), VERIFY_CERT),
    ("leavitt witness with beta terms null", misshapen_beta_terms(None), VERIFY_CERT),
    ("leavitt witness with a two-entry beta term", misshapen_beta_terms([[[1], "1"]]), VERIFY_CERT),
]


# word * series products, each made of one word times one series whose
# nonempty words reach all of its space (the first of each pair) or not
WORD_TIMES = [
    (["series", "eval"], "x0*(1 - x0 - x1*x2)^-1"),
    (["series", "eval"], "x0*((2 + x1)*(1 - x0)^-1)"),
    (["series", "eval", "--field", "qt:1"], "t*x1*x0*(1 - (t + 1)^-1*x0 - t*x1*x2)^-1"),
    (["series", "eval", "--field", "qt:1"], "(t + 1)^-1*x2*((t + x1)*(1 - x0)^-1)"),
]


def first_word(cert):
    """The first coefficient of a generator certificate, in E, then the A's,
    then the B's, that is not a constant."""
    for m in [cert["E"], *cert["A"], *cert["B"]]:
        for row in m:
            for el in row:
                for _, c in el["terms"]:
                    if c["dim"] > 1:
                        return c
    raise ValueError("the certificate has no word coefficient")


def first_step(c):
    """The letter of the first step of the path block c, and the JSON
    encoding of an integer in its field."""
    from ratskew.fields import field_from_name, scalar_to_json

    field = field_from_name(c["field"])
    enc = lambda i: scalar_to_json(field, field.from_int(i))
    return next(x for x, m in c["mu"].items() if m[0][1] != enc(0)), enc


def superdiagonal_two(cert):
    c = first_word(cert)
    x, enc = first_step(c)
    c["mu"][x][0][1] = enc(2)


def second_letter_on_first_step(cert):
    c = first_word(cert)
    x, enc = first_step(c)
    m = c["mu"].setdefault(str(int(x) + 1), [[enc(0)] * c["dim"] for _ in range(c["dim"])])
    m[0][1] = enc(1)


def set_coefficient(term, value):
    """A change of a certificate setting the coefficient of its term
    term(certificate), a [word, coefficient] pair, to value."""
    def change(cert):
        term(cert)[1] = value
    return change


def constant_e00(lam, gamma):
    """A change of a generator certificate writing its constant E[0][0] as
    the letterless 1 x 1 block (lam(field), {}, gamma(field)) over the
    certificate's field."""
    def change(cert):
        from ratskew.fields import field_from_name, scalar_to_json

        field = field_from_name(cert["field"])
        c = E_TERM(cert)[1]
        c["lam"], c["gamma"] = [scalar_to_json(field, lam(field))], [scalar_to_json(field, gamma(field))]
    return change


def changed(argv, change):
    """A function of run_command making the certificate argv prints,
    changed in place by change."""
    def make(run_command):
        cert = json.loads(run(run_command, argv)[1])
        change(cert)
        return cert
    return make


FREE_GENERATORS = INFINITE_SUPPORT + ["--backend", "free"]
TRUNC_WITNESS = ["skew", "witness", "--backend", "trunc", "--precision", "6", "--json", "y0*(1 + x0) + 2"]
E_TERM = lambda cert: cert["E"][0][0]["terms"][0]
G_TERM = lambda cert: cert["g"]["terms"][0]

# (what is changed, a function of run_command making the input, the command
# that re-checks it): loads of near-path word coefficients, reduced as any
# other block, coefficients that must be refused, then the constant E[0][0]
# of a case-1 certificate written as another block of the same constant 1,
# kept as loaded, and with lam 0, which loads as zero and fails the check
LOADS = [
    ("output of: %s, first word coefficient with a superdiagonal entry of 2" % shlex.join(INFINITE_SUPPORT),
     changed(INFINITE_SUPPORT, superdiagonal_two), VERIFY_CERT),
    ("output of: %s, first word coefficient with a second letter on its first step"
     % shlex.join(INFINITE_SUPPORT), changed(INFINITE_SUPPORT, second_letter_on_first_step), VERIFY_CERT),
    ("generator coefficient [1]", changed(INFINITE_SUPPORT, set_coefficient(E_TERM, [1])), VERIFY_CERT),
    ('free generator coefficient "x"', changed(FREE_GENERATORS, set_coefficient(E_TERM, "x")), VERIFY_CERT),
    ("trunc coefficient of g written [1]", changed(TRUNC_WITNESS, set_coefficient(G_TERM, [1])), VERIFY_CERT),
    ("trunc coefficient of g with terms [5]",
     changed(TRUNC_WITNESS, lambda cert: G_TERM(cert)[1].update(terms=[5])), VERIFY_CERT),
    ("trunc coefficient of g listing a term twice",
     changed(TRUNC_WITNESS, lambda cert: G_TERM(cert)[1]["terms"].append(G_TERM(cert)[1]["terms"][0])),
     VERIFY_CERT),
    ("output of: %s, constant E[0][0] written as lam 2, gamma 1/2" % shlex.join(INFINITE_SUPPORT),
     changed(INFINITE_SUPPORT, constant_e00(lambda f: f.from_int(2), lambda f: f.one() / f.from_int(2))),
     VERIFY_CERT),
    ("output of: %s, constant E[0][0] written as lam 0" % shlex.join(INFINITE_SUPPORT),
     changed(INFINITE_SUPPORT, constant_e00(lambda f: f.zero(), lambda f: f.one())), VERIFY_CERT),
]

# a member whose descent cancels coefficients, then a skew witness of 1 - x0
# with a top-level key that ``skew witness`` does not write
CANCELLING = ["skew", "member", "--json", "y0*y1*e*(1 + x0)*(1 - 2*x1)^-1"]
EXTRA_KEY = [("skew witness with an extra key",
              changed(["skew", "witness", "--json", "1 - x0"], lambda cert: cert.update(surprise=True)),
              VERIFY_CERT)]


# wrongly typed parts of a certificate, each refused with ``error:``
WRONG_TYPES = [
    ("skew witness with kind [\"skew_witness\"]",
     changed(["skew", "witness", "--json", "1 - x0"], lambda cert: cert.update(kind=[cert["kind"]])), VERIFY_CERT),
    ("skew witness with input backend {\"rat\": 1}",
     changed(["skew", "witness", "--json", "1 - x0"], lambda cert: cert["input"].update(backend={"rat": 1})),
     VERIFY_CERT),
    ("leavitt witness with beta null", misshapen_beta(None), VERIFY_CERT),
]


def sigma_and_generator_refusals(sigma):
    """(what, make, checker) for the sigma certificate ``sigma`` with both
    recorded verdicts false and with an unknown key, and for a generator
    certificate with an unknown key."""
    generator_extra = changed(INFINITE_SUPPORT, lambda cert: cert.update(extra=1))
    return [
        ("sigma certificate with ok_right and ok_left false",
         lambda run_command: dict(sigma, ok_right=False, ok_left=False), VERIFY_CERT),
        ("sigma certificate with an extra key", lambda run_command: dict(sigma, extra=1), VERIFY_CERT),
        ("generator certificate with an extra key", generator_extra, VERIFY_CERT),
        ("generator certificate with an extra key", generator_extra, REALIZE_VERIFY),
    ]


def doubled(field_name, c):
    """Twice a scalar in its JSON encoding."""
    from fractions import Fraction

    if field_name == "q":
        return str(2 * Fraction(c))
    return {"num": [[e, str(2 * Fraction(v))] for e, v in c["num"]], "den": c["den"]}


def star_json(field_name):
    """The certificate JSON of x0^* = (1 - x0)^-1 over a field."""
    from ratskew.fields import field_from_name
    from ratskew.linrep import LinRep

    return LinRep.letter(field_from_name(field_name), 0).star().to_json()


def sigma_certs():
    """(label, certificate) for I + p(A): over q, p = 1/2*z0 + z1*z0 with the
    generators of Z -> Z_3, 1 -> 2, and the 2 x 2 perturbation
    [[z0, z1], [0, z0*z1]] with those of Z -> Z, 1 -> 2; over qt:1, the 2 x 2
    perturbation [[(t + 1)^-1*z0, z1], [0, (t + 2)*z0*z1]] with the
    generators of Z_2 -> Z_4, 1 -> 2."""
    from fractions import Fraction
    from ratskew.fields import field_from_name
    from ratskew.freealg import FreeElem
    from ratskew.realize import build_generators, hom_spec, spot_check_sigma_prime

    qq, qt = field_from_name("q"), field_from_name("qt:1")
    z0, z1 = FreeElem.letter(qq, 0), FreeElem.letter(qq, 1)
    half_z0 = FreeElem.word(qq, (0,), qq.from_fraction(Fraction(1, 2)))
    t = qt.var(0)
    qt_p = [[FreeElem.word(qt, (0,), qt.one() / (t + 1)), FreeElem.letter(qt, 1)],
            [FreeElem.zero(qt), FreeElem.word(qt, (0, 1), t + 2)]]
    cases = [
        ("sigma cert: Z -> Z_3, 1 -> 2, p = 1/2*z0 + z1*z0", hom_spec(0, 3, 2), 3, half_z0 + z1 * z0),
        ("sigma cert: Z -> Z, 1 -> 2, p = [[z0, z1], [0, z0*z1]]", hom_spec(0, 0, 2), 2,
         [[z0, z1], [FreeElem.zero(qq), z0 * z1]]),
        ("sigma cert: Z_2 -> Z_4, 1 -> 2, qt:1, p = [[(t + 1)^-1*z0, z1], [0, (t + 2)*z0*z1]]",
         hom_spec(2, 4, 2), 2, qt_p),
    ]
    return [(label, spot_check_sigma_prime(build_generators(spec, count=count), p).to_json())
            for label, spec, count, p in cases]


def run(run_command, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run_command(argv)
        except Exception as exc:  # a checkout that does not refuse the input cleanly
            code = "uncaught " + type(exc).__name__
    return code, out.getvalue(), err.getvalue()


def line(label, code, stdout, stderr=""):
    h = hashlib.sha256(stdout.encode())
    if code != 0:
        h.update(b"\0" + stderr.encode())
    return "%s  exit=%s  %s" % (h.hexdigest(), code, label)


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                    help="directory holding the ratskew package (default: this checkout's src)")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from ratskew.cli import recheck_certificate, run_command

    with tempfile.TemporaryDirectory() as tmp:
        plan = os.path.join(tmp, PLAN_FILE)
        with open(plan, "w") as fh:
            json.dump(PLAN, fh)
        for cmd, checkers in COMMANDS:
            label = shlex.join(cmd)
            code, stdout, stderr = run(run_command, [plan if a == PLAN_FILE else a for a in cmd])
            print(line(label, code, stdout, stderr), flush=True)
            if code != 0:
                continue
            path = os.path.join(tmp, "cert.json")
            with open(path, "w") as fh:
                fh.write(stdout)
            for checker in checkers:
                code, stdout, stderr = run(run_command, checker + [path])
                print(line("%s <output of: %s>" % (shlex.join(checker), label), code, stdout,
                           stderr), flush=True)
        for cmd, what, series in TAMPERED:
            code, stdout, _ = run(run_command, cmd)
            cert = json.loads(stdout)
            rep = series(cert)
            rep["lam"] = [doubled(rep["field"], c) for c in rep["lam"]]
            path = os.path.join(tmp, "tampered.json")
            with open(path, "w") as fh:
                json.dump(cert, fh)
            code, stdout, stderr = run(run_command, VERIFY_CERT + [path])
            print(line("verify-cert <output of: %s, %s doubled>" % (shlex.join(cmd), what), code, stdout,
                       stderr), flush=True)
        code, stdout, _ = run(run_command, INFINITE_SUPPORT)
        cert = json.loads(stdout)
        cert["E"][0][0]["terms"][0][1] = star_json(cert["field"])
        path = os.path.join(tmp, "tampered.json")
        with open(path, "w") as fh:
            json.dump(cert, fh)
        code, stdout, stderr = run(run_command, VERIFY_CERT + [path])
        print(line("verify-cert <output of: %s, first coefficient set to x0^*>" % shlex.join(INFINITE_SUPPORT),
                   code, stdout, stderr), flush=True)
        cmd = ["leavitt", "witness", "--n", "3", "--json", LEAVITT_W]
        for what, change in TAMPERED_WITNESS:
            code, stdout, _ = run(run_command, cmd)
            cert = json.loads(stdout)
            change(cert["cert"])
            path = os.path.join(tmp, "tampered.json")
            with open(path, "w") as fh:
                json.dump(cert, fh)
            code, stdout, stderr = run(run_command, VERIFY_CERT + [path])
            print(line("verify-cert <output of: %s, %s>" % (shlex.join(cmd), what), code, stdout,
                       stderr), flush=True)
    sigma = sigma_certs()
    for label, cert in sigma:
        ok = cert["ok_right"] and cert["ok_left"]
        print(line(label, 0 if ok else 1, json.dumps(cert, sort_keys=True)), flush=True)
        out = recheck_certificate(cert)
        print(line("recheck_certificate <%s>" % label, 0 if out["ok"] else 1,
                   json.dumps(out, sort_keys=True)), flush=True)
    recheck_lines(run_command, REFUSED)
    for cmd, text in WORD_TIMES:
        for argv in (cmd + [text], cmd + ["--json", text]):
            code, stdout, stderr = run(run_command, argv)
            print(line(shlex.join(argv), code, stdout, stderr), flush=True)
    recheck_lines(run_command, LOADS)
    code, stdout, stderr = run(run_command, CANCELLING)
    print(line(shlex.join(CANCELLING), code, stdout, stderr), flush=True)
    recheck_lines(run_command, EXTRA_KEY)
    recheck_lines(run_command, sigma_and_generator_refusals(sigma[0][1]))
    code, stdout, stderr = run(run_command, TABLE_GROUP_40)
    print(line(shlex.join(TABLE_GROUP_40), code, stdout, stderr), flush=True)
    recheck_lines(run_command, WRONG_TYPES)
    recheck_lines(run_command, MISRECORDED)
    return 0


def recheck_lines(run_command, cases):
    """One line per (what, make, checker): checker run on make's input."""
    with tempfile.TemporaryDirectory() as tmp:
        for what, make, checker in cases:
            path = os.path.join(tmp, "refused.json")
            with open(path, "w") as fh:
                json.dump(make(run_command), fh)
            code, stdout, stderr = run(run_command, checker + [path])
            print(line("%s <%s>" % (shlex.join(checker), what), code, stdout, stderr), flush=True)


if __name__ == "__main__":
    sys.exit(main())
