"""Command-line front end: expressions in, JSON certificates out.

Subcommands map onto the library layers: ``series`` for rational power
series, ``skew`` for the extension ring and its quotient ideal, ``leavitt``
for the monoword algebras, ``k0`` for monoid presentations and their
universal groups, ``realize`` for the corner-embedding matrix families,
plus ``selftest`` (the pinned-seed acceptance suite) and ``verify-cert``
which re-checks any JSON certificate this tool emits.

Exit codes: 0 success (including predicates that answer false), 1
computation-level failure (not invertible, witness check failed, failed
verification), 2 usage error (bad flags, malformed expressions or files).
Output on standard output is deterministic for a fixed ``--seed``; timings
go to standard error.  No environment variables are consulted; the tool
never emits color, so NO_COLOR needs no handling.
"""

from __future__ import annotations

import argparse
import functools
import json
import signal
import sys

from .expr import (ExprSyntaxError, parse_expr, render_expr, eval_series,
                   eval_skew, eval_leavitt)
from .fields import field_from_name
from .linrep import SeriesMatrix
from .truncated import TruncSeries
from .words import refuse_unknown_keys, word_key
from . import skew as sk
from . import leavitt as lv
from . import kzero as kz
from . import realize as rz

__all__ = ["parse_expr", "render_expr", "run_command", "main"]


class UsageError(Exception):
    """Invocation-level problem: report on stderr and exit 2."""


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise UsageError("%s is not valid JSON: %s" % (path, exc))


def _print_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _emit(args, obj, lines) -> None:
    if args.json:
        _print_json(obj)
    else:
        for ln in lines:
            print(ln)


def _field(args):
    try:
        return field_from_name(args.field)
    except ValueError as exc:
        raise UsageError(str(exc))


def _word_str(w, letter: str = "x") -> str:
    return "*".join("%s%d" % (letter, i) for i in w) if w else "1"


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def _series_report(args, rep) -> int:
    field = rep.field
    window = args.window
    ts = TruncSeries.from_linrep(rep, window)
    items = sorted(ts.coeffs.items(), key=lambda t: word_key(t[0]))
    lines = ["dim: %d" % rep.dim,
             "coefficients of words shorter than %d:" % window]
    for w, c in items:
        lines.append("  %s: %s" % (_word_str(w), field.render(c)))
    if not items:
        lines.append("  (all zero)")
    obj = {"dim": rep.dim, "window": window,
           "coeffs": [[list(w), field.render(c)] for w, c in items]}
    _emit(args, obj, lines)
    return 0


def _cmd_series_eval(args) -> int:
    rep = eval_series(args.expr, _field(args), args.n)
    return _series_report(args, rep)


def _cmd_series_invert(args) -> int:
    rep = eval_series(args.expr, _field(args), args.n)
    return _series_report(args, rep.inv())


def _cmd_series_transduce(args) -> int:
    rep = eval_series(args.expr, _field(args), args.n)
    return _series_report(args, rep.delta(args.letter))


def _cmd_series_equal(args) -> int:
    field = _field(args)
    a = eval_series(args.lhs, field, args.n)
    b = eval_series(args.rhs, field, args.n)
    eq = a == b
    _emit(args, {"equal": eq}, ["true" if eq else "false"])
    return 0


# ---------------------------------------------------------------------------
# skew extension
# ---------------------------------------------------------------------------

def _skew_ring(args) -> sk.SkewRing:
    dom = sk.CoeffDomain(args.backend, _field(args), args.precision)
    return sk.SkewRing(dom, args.n)


def _cmd_skew_mul(args) -> int:
    ring = _skew_ring(args)
    c = eval_skew(args.lhs, ring) * eval_skew(args.rhs, ring)
    _emit(args, {"product": c.to_json(), "render": c.render()}, [c.render()])
    return 0


def _cmd_skew_member(args) -> int:
    ring = _skew_ring(args)
    v = sk.ideal_member(eval_skew(args.expr, ring))
    _emit(args, {"member": v.value, "precision": v.precision},
          ["true" if v.value else "false"])
    return 0


def _cmd_skew_equal(args) -> int:
    ring = _skew_ring(args)
    v = sk.t_equal(eval_skew(args.lhs, ring), eval_skew(args.rhs, ring))
    _emit(args, {"equal": v.value, "precision": v.precision},
          ["true" if v.value else "false"])
    return 0


def _cmd_skew_witness(args) -> int:
    ring = _skew_ring(args)
    w = sk.t_witness(eval_skew(args.expr, ring))
    lines = ["m: %s" % _word_str(w.m_word),
             "g: %s" % w.g.render(),
             "check: %s" % ("1" if w.check.value else "failed")]
    _emit(args, w.to_json(), lines)
    return 0 if w.check.value else 1


# ---------------------------------------------------------------------------
# monoword algebras
# ---------------------------------------------------------------------------

def _leavitt_bound(args):
    # --n 0 selects the unbounded-alphabet algebra
    return args.n if args.n > 0 else None


def _cmd_leavitt_nf(args) -> int:
    field = _field(args)
    n = _leavitt_bound(args)
    a = eval_leavitt(args.expr, field, n)
    nf = lv.v_normal_form(a) if n is not None else a  # monowords already a basis when unbounded
    _emit(args, nf.to_json(), [nf.render()])
    return 0


def _cmd_leavitt_witness(args) -> int:
    field = _field(args)
    n = _leavitt_bound(args)
    a = eval_leavitt(args.expr, field, n)
    w = lv.v_witness(a) if n is not None else lv.uinf_witness(a, args.beyond)
    obj = {"beta": w.beta.render(), "gamma": w.gamma.render(),
           "check": w.product.render(), "ok": w.ok, "cert": w.to_json()}
    lines = ["beta: %s" % w.beta.render(), "gamma: %s" % w.gamma.render(),
             "check: %s" % w.product.render(),
             "ok: %s" % ("true" if w.ok else "false")]
    _emit(args, obj, lines)
    return 0 if w.ok else 1


# ---------------------------------------------------------------------------
# K0 layer
# ---------------------------------------------------------------------------

def _presentation(text: str) -> kz.MonoidPresentation:
    try:
        return kz.parse_presentation(text)
    except kz.UnsupportedPresentation:
        raise
    except ValueError as exc:
        raise UsageError(str(exc))


def _group_payload(g: kz.AbGroup) -> dict:
    images = {name: list(c) for name, c in g.images.items()}
    return {"invariant_factors": list(g.factors), "generators": images,
            "generator_images": images, "group": g.render()}


def _group_lines(g: kz.AbGroup) -> list:
    lines = ["group: %s" % g.render()]
    for name, c in g.images.items():
        lines.append("  %s -> %s" % (name, list(c)))
    return lines


def _cmd_k0_group(args) -> int:
    g = kz.grothendieck_group(_presentation(args.presentation))
    _emit(args, _group_payload(g), _group_lines(g))
    return 0


def _cmd_k0_monoid(args) -> int:
    p = _presentation(args.presentation)
    g = kz.grothendieck_group(p)
    obj = _group_payload(g)
    lines = _group_lines(g)
    code = 0
    try:
        shape = kz.analyze_pisr_shape(p, args.bound)
        obj["shape_report"] = shape.to_json()
        lines.append("elements: %d%s" % (shape.size,
                                         "" if shape.complete else " (fragment)"))
        lines.append("conical: %s" % ("yes" if shape.conical else "no"))
        lines.append("simple: %s" % ("yes" if shape.simple else "no"))
        lines.append("nonzero part a group: %s"
                     % ("yes" if shape.nonzero_is_group else "no"))
        if shape.group is not None:
            lines.append("nonzero part: %s (matches universal group: %s)"
                         % (shape.group.render(),
                            "yes" if shape.matches_group_side else "no"))
        for note in shape.notes:
            lines.append("note: %s" % note)
    except kz.UnsupportedPresentation as exc:
        obj["shape_report"] = None
        obj["shape_error"] = str(exc)
        lines.append("shape: not analyzed (%s)" % exc)
        code = 1
    _emit(args, obj, lines)
    return code


# ---------------------------------------------------------------------------
# realization matrices
# ---------------------------------------------------------------------------

def _cmd_realize_build(args) -> int:
    spec = rz.hom_spec(args.src, args.dst, args.mult)
    g = rz.build_generators(spec, _field(args),
                            count=args.count, backend=args.backend)
    _print_json(g.to_json())
    return 0


def _cmd_realize_verify(args) -> int:
    obj = _load_json(args.file)
    if not isinstance(obj, dict) or obj.get("kind") != "generator_matrices":
        raise UsageError("expected a generator_matrices certificate")
    g = rz.generator_matrices_from_json(obj)
    rep = rz.verify_generators(g)
    out = rep.to_json()
    out.update({"kind": "verify_report", "label": g.spec.label(),
                "spec": g.spec.to_json(), "failed": rep.failed()})
    _print_json(out)
    return 0 if rep.ok else 1


def _cmd_realize_chain(args) -> int:
    obj = _load_json(args.file)
    if not isinstance(obj, dict) or "groups" not in obj or "maps" not in obj:
        raise UsageError("plan file needs 'groups' and 'maps'")
    plan = rz.plan_chain(obj["groups"], obj["maps"])
    out = plan.to_json()
    code = 0 if plan.ok else 1
    if args.verify and plan.ok:
        results = rz.verify_chain(plan, count=args.count)
        out["verification"] = [
            {"spec": s.to_json(), "label": s.label(), "ok": r.ok,
             "failed": r.failed()}
            for s, r in results
        ]
        if not all(r.ok for _, r in results):
            code = 1
    _print_json(out)
    return code


# ---------------------------------------------------------------------------
# acceptance suite
# ---------------------------------------------------------------------------

def _cmd_selftest(args) -> int:
    from .acceptance import CRITERIA, PINNED_SEED, run_criterion

    seed = PINNED_SEED if args.seed is None else args.seed
    nums = [args.criterion] if args.criterion else [c[0] for c in CRITERIA]
    results = []
    for num in nums:
        r = run_criterion(num, seed)
        results.append(r)
        over = "" if r["seconds"] <= r["budget"] else "  OVER BUDGET"
        print("criterion %2d: %6.2fs (budget %3.0fs)%s"
              % (num, r["seconds"], r["budget"], over), file=sys.stderr)
    passed = sum(1 for r in results if r["ok"])
    if args.json:
        _print_json({"seed": seed, "passed": passed, "total": len(results),
                     "criteria": [{"num": r["num"], "name": r["name"],
                                   "ok": r["ok"], "detail": r["detail"]}
                                  for r in results]})
    else:
        for r in results:
            print("%s %2d %s: %s" % ("PASS" if r["ok"] else "FAIL",
                                     r["num"], r["name"], r["detail"]))
        print("%d/%d criteria passed (seed %d)" % (passed, len(results), seed))
    return 0 if passed == len(results) else 1


# ---------------------------------------------------------------------------
# certificate re-checking
# ---------------------------------------------------------------------------

def _field_of(elem_obj, what: str):
    if not isinstance(elem_obj, dict):
        raise ValueError("a serialized %s must be an object, got %r" % (what, elem_obj))
    return field_from_name(elem_obj["field"])


def _ring_for(elem_obj) -> sk.SkewRing:
    field = _field_of(elem_obj, "skew element")
    return sk.SkewRing(sk.CoeffDomain(elem_obj["backend"], field), elem_obj["n"])


_SKEW_WITNESS_KEYS = frozenset(("kind", "input", "m", "g", "unit", "check", "precision"))


def _recheck_skew_witness(obj) -> dict:
    refuse_unknown_keys(obj, _SKEW_WITNESS_KEYS, "skew witness")
    ring = _ring_for(obj["input"])
    a = sk.SkewElem.from_json(ring, obj["input"])
    g = sk.SkewElem.from_json(ring, obj["g"])
    m = obj["m"]
    if not (isinstance(m, list) and all(type(i) is int for i in m)):
        raise ValueError("m must be a list of integer letters, got %r" % (m,))
    m = ring.x_word(tuple(m))
    v = sk.t_equal(m * a * g, ring.one())
    # the recorded verdict must be the one the re-check reaches
    for key, want, types in (("check", v.value, (bool,)), ("precision", v.precision, (int, type(None)))):
        got = obj.get(key, "nothing")
        if type(got) not in types or got != want:
            raise ValueError("certificate records %s %r, the re-check gives %r" % (key, got, want))
    # with m*a*g = 1, g = y_w * c and unit * c = 1 make unit the value of m*a*y_w
    unit = obj.get("unit")
    if not isinstance(unit, dict):
        raise ValueError("unit must be a serialized coefficient, got %r" % (unit,))
    unit = ring.domain.cls.from_json(ring.domain.field, unit)
    if len(g.data) != 1:
        raise ValueError("g must have exactly one term, it has %d" % len(g.data))
    (c,) = g.data.values()
    if unit * c != ring.domain.one():
        raise ValueError("certificate records a unit whose product with the coefficient of g is not 1")
    return {"kind": "skew_witness", "ok": v.value, "precision": v.precision}


def _recheck_paired_witness(obj) -> dict:
    refuse_unknown_keys(obj, lv.PAIRED_WITNESS_KEYS, "paired witness")
    mode = obj["mode"]
    if mode not in ("v", "uinf"):
        raise ValueError('paired witness mode must be "v" or "uinf", got %r' % (mode,))
    field = _field_of(obj["input"], "Leavitt element")
    a = lv.UElem.from_json(field, obj["input"])
    beta = lv.UElem.from_json(field, obj["beta"])
    gamma = lv.UElem.from_json(field, obj["gamma"])
    # "v" compares modulo the unit-sum relation, "uinf" literally
    prod = beta * a * gamma
    if mode == "v":
        prod = lv.v_normal_form(prod)
    ok = prod == lv.UElem.one(field, a.n)
    # the recorded product and verdict must be the ones the re-check reaches
    recorded = lv.UElem.from_json(field, obj["product"])
    if recorded != prod:
        raise ValueError("certificate records product %s, the re-check gives %s"
                         % (recorded.render(), prod.render()))
    got = obj.get("ok", "nothing")
    if type(got) is not bool or got != ok:
        raise ValueError("certificate records ok %r, the re-check gives %r" % (got, ok))
    return {"kind": "paired_witness", "mode": mode, "ok": ok}


def _recheck_word_system(obj) -> dict:
    refuse_unknown_keys(obj, sk.WORD_SYSTEM_KEYS, "word-system certificate")
    words, qs = obj["words"], obj["qs"]
    if not (type(words) is list and all(type(w) is list and all(type(x) is int for x in w) for w in words)):
        raise ValueError("words must be a list of lists of integer letters, got %r" % (words,))
    if not (type(qs) is list and qs and len(qs) == len(words) and all(type(q) is dict for q in qs)):
        raise ValueError("qs must be a nonempty list of %d serialized skew elements, one per word, got %r"
                         % (len(words), qs))
    ring = _ring_for(qs[0])
    words = [tuple(w) for w in words]
    qs = [sk.SkewElem.from_json(ring, q) for q in qs]
    rep = sk.verify_word_system(ring, words, qs)
    return {"kind": "word_system", "ok": rep.ok, "s": rep.s,
            "s_mod": rep.s_mod, "violations": list(rep.violations)}


def _recheck_sigma_cert(obj) -> dict:
    refuse_unknown_keys(obj, rz.SIGMA_CERT_KEYS, "sigma certificate")
    field = field_from_name(obj["field"])
    mat = SeriesMatrix.from_json(field, obj["matrix"])
    inv = SeriesMatrix.from_json(field, obj["inverse"])
    size = obj["size"]
    if type(size) is not int or size != mat.nrows:
        raise ValueError("size must be the integer %d, the matrix's nrows, got %r" % (mat.nrows, size))
    ident = SeriesMatrix.identity(field, size)
    right = mat * inv == ident
    left = inv * mat == ident
    # the recorded verdicts must be the ones the re-check reaches
    for key, want in (("ok_right", right), ("ok_left", left)):
        got = obj.get(key, "nothing")
        if type(got) is not bool or got != want:
            raise ValueError("certificate records %s %r, the re-check gives %r" % (key, got, want))
    return {"kind": "sigma_cert", "ok": right and left,
            "ok_right": right, "ok_left": left}


def _recheck_generator_matrices(obj) -> dict:
    g = rz.generator_matrices_from_json(obj)
    rep = rz.verify_generators(g)
    return {"kind": "generator_matrices", "label": g.spec.label(),
            "ok": rep.ok, "failed": rep.failed()}


def _recheck_chain_plan(obj) -> dict:
    refuse_unknown_keys(obj, rz.CHAIN_PLAN_KEYS, "chain plan")
    plan = rz.plan_chain(obj["groups"], obj["maps"])
    same = plan.to_json()["steps"] == obj["steps"]
    results = rz.verify_chain(plan) if plan.ok else []
    ok = plan.ok and same and all(r.ok for _, r in results)
    return {"kind": "chain_plan", "ok": ok, "replanned_identically": same,
            "specs_verified": len(results)}


_RECHECKERS = {
    "skew_witness": _recheck_skew_witness,
    "paired_witness": _recheck_paired_witness,
    "word_system": _recheck_word_system,
    "sigma_cert": _recheck_sigma_cert,
    "generator_matrices": _recheck_generator_matrices,
    "chain_plan": _recheck_chain_plan,
}


def recheck_certificate(obj) -> dict:
    """Re-run the computation a certificate claims, from its own inputs."""
    if not isinstance(obj, dict):
        raise UsageError("certificate must be a JSON object")
    if "kind" not in obj and isinstance(obj.get("cert"), dict):
        obj = obj["cert"]
    kind = obj.get("kind")
    fn = _RECHECKERS.get(kind) if type(kind) is str else None
    if fn is None:
        raise UsageError("unknown certificate kind %r" % (kind,))
    return fn(obj)


def _cmd_verify_cert(args) -> int:
    out = recheck_certificate(_load_json(args.file))
    _print_json(out)
    return 0 if out["ok"] else 1


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("%r is not a positive integer" % text)
    return value


# Flags that several subcommands read; each subcommand registers only the
# ones its handler uses, so any other flag is a usage error.
_FLAGS = {
    "field": dict(default="q", metavar="F",
                  help="coefficient field: q, fp:<p>, or qt:<r> (default q)"),
    "n": dict(type=int, default=2, metavar="N",
              help="alphabet parameter; series/skew use letters 0..N, "
                   "monoword algebras use 1..N with 0 meaning unbounded"),
    "precision": dict(type=_positive_int, default=16, metavar="P",
                      help="window for the truncated backend (default 16)"),
    "json": dict(action="store_true", help="machine-readable JSON on stdout"),
    "window": dict(type=int, default=6,
                   help="print coefficients of words shorter than this"),
}


def _command(subs, name: str, helptext: str, func, *flags):
    p = subs.add_parser(name, help=helptext)
    for flag in flags:
        p.add_argument("--" + flag, **_FLAGS[flag])
    p.set_defaults(func=func)
    return p


def _group(sub, name: str, helptext: str):
    subs = sub.add_parser(name, help=helptext).add_subparsers(
        dest="action", metavar="ACTION")
    subs.required = True
    return subs


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ratskew",
        description="exact computation in skew extensions of rational series, "
                    "monoword algebras, and their K-theory")
    sub = ap.add_subparsers(dest="cmd", metavar="COMMAND")

    ses = _group(sub, "series", "rational power series in x letters")
    p = _command(ses, "eval", "evaluate an expression to a series",
                 _cmd_series_eval, "field", "n", "json", "window")
    p.add_argument("expr")
    p = _command(ses, "invert", "multiplicative inverse (unit constant term)",
                 _cmd_series_invert, "field", "n", "json", "window")
    p.add_argument("expr")
    p = _command(ses, "transduce", "pick out words ending in a letter",
                 _cmd_series_transduce, "field", "n", "json", "window")
    p.add_argument("--letter", type=int, default=0, metavar="I")
    p.add_argument("expr")
    p = _command(ses, "equal", "exact equality of two series",
                 _cmd_series_equal, "field", "n", "json")
    p.add_argument("lhs")
    p.add_argument("rhs")

    sws = _group(sub, "skew", "the extension ring and its ideal")
    for name, helptext, func, operands in (
            ("mul", "multiply two elements", _cmd_skew_mul, ("lhs", "rhs")),
            ("member", "does the element lie in the defining ideal?",
             _cmd_skew_member, ("expr",)),
            ("equal", "equality in the quotient ring", _cmd_skew_equal, ("lhs", "rhs")),
            ("witness", "left/right factors driving the element to 1",
             _cmd_skew_witness, ("expr",))):
        p = _command(sws, name, helptext, func, "field", "n", "precision", "json")
        p.add_argument("--backend", default="rat", choices=sk.CoeffDomain.KINDS,
                       help="coefficient backend (default rat)")
        for operand in operands:
            p.add_argument(operand)

    les = _group(sub, "leavitt", "monoword algebras (letters from 1)")
    p = _command(les, "nf", "normal form under the unit-sum relation",
                 _cmd_leavitt_nf, "field", "n", "json")
    p.add_argument("expr")
    p = _command(les, "witness", "paired witness beta, gamma with beta*a*gamma = 1",
                 _cmd_leavitt_witness, "field", "n", "json")
    p.add_argument("--beyond", type=int, default=0, metavar="K",
                   help="unbounded mode: treat letters above K as fresh")
    p.add_argument("expr")

    k0s = _group(sub, "k0", "monoid presentations and universal groups")
    p = _command(k0s, "monoid", "enumerate, shape-check, and take the universal group",
                 _cmd_k0_monoid, "json")
    p.add_argument("--bound", type=_positive_int, default=64,
                   help="enumeration cutoff, a positive integer (default 64)")
    p.add_argument("presentation", help='e.g. "I | 3I=I" or "I,P | I=2I+P"')
    p = _command(k0s, "group", "universal group only (no enumeration)",
                 _cmd_k0_group, "json")
    p.add_argument("presentation")

    res = _group(sub, "realize", "corner-embedding matrix families")
    p = _command(res, "build", "emit generator matrices for a tag map",
                 _cmd_realize_build, "field")
    p.add_argument("--from", dest="src", type=int, required=True, metavar="N",
                   help="source tag (0 = infinite cyclic)")
    p.add_argument("--to", dest="dst", type=int, required=True, metavar="M",
                   help="target tag (0 = infinite cyclic)")
    p.add_argument("--mult", dest="mult", type=int, required=True, metavar="L",
                   help="order-unit multiplier")
    p.add_argument("--count", type=int, default=4,
                   help="generator pairs materialized when the family is infinite")
    p.add_argument("--backend", default="rat", choices=rz.GENERATOR_BACKENDS,
                   help="coefficient backend for the entries (default rat)")
    p = _command(res, "verify", "re-check a generator_matrices certificate",
                 _cmd_realize_verify)
    p.add_argument("file", help="certificate file, or - for stdin")
    p = _command(res, "chain", "plan a stepwise realization of a group chain",
                 _cmd_realize_chain)
    p.add_argument("--verify", action="store_true",
                   help="also build and verify every emitted spec")
    p.add_argument("--count", type=int, default=2,
                   help="generator pairs per spec when verifying")
    p.add_argument("file", help='JSON with "groups" and "maps", or - for stdin')

    st = sub.add_parser("selftest", help="run the acceptance suite (pinned seed)")
    st.add_argument("--criterion", type=int, default=None, choices=range(1, 13),
                    metavar="1..12", help="run a single criterion")
    st.add_argument("--seed", type=int, default=None)
    st.add_argument("--json", action="store_true")
    st.set_defaults(func=_cmd_selftest)

    vc = sub.add_parser("verify-cert", help="re-check an emitted JSON certificate")
    vc.add_argument("file", help="certificate file, or - for stdin")
    vc.set_defaults(func=_cmd_verify_cert)

    return ap


def run_command(argv) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(list(argv))
    except SystemExit as exc:  # argparse handles --help and usage errors
        return exc.code if isinstance(exc.code, int) else 2
    if getattr(args, "func", None) is None:
        ap.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ExprSyntaxError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, KeyError, ZeroDivisionError, ArithmeticError,
            RuntimeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def main(argv=None) -> int:
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
