"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions and methods of each package module
from outside the package: no file under ``src/`` changes.  Each wrapped
call records one span (name, start, end, parent span, task id).  Spans stay
in memory and are written out by :meth:`Tracer.dump` when the run ends.
Per-name and per-group aggregates (calls, self time, outermost total time)
are kept while the spans are recorded, so the per-layer metrics need no
second pass over the spans.

Self time of a span is its duration minus the time its child spans cover.
Span times come from ``time.perf_counter_ns``: the program is
single-threaded and never waits on I/O, so wall time inside a span is the
process's own work.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

LAYERS = ("fields", "la", "freealg", "linrep", "truncated", "skew", "leavitt",
          "kzero", "realize", "expr", "cli")

# Per-scalar and per-term helpers.  Wrapping them would multiply the span
# count without adding a layer boundary; their time counts as self time of
# the wrapped caller.  RatFunc is wrapped only at its arithmetic operators.
SKIP = {
    "fields.MPoly", "fields.Fp", "fields.Field", "fields.RationalField",
    "fields.PrimeField", "fields.FunctionField", "fields.scalar_to_json",
    "fields.scalar_from_json", "la.vec_mat", "la.dot", "la.mat_vec",
    "leavitt.mono_mul", "skew.Verdict",
}
RATFUNC_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__", "__neg__")
DUNDERS = set(RATFUNC_OPS) | {"__pow__", "__eq__"}

CERT_LOADERS = {
    "skew.SkewElem.from_json", "linrep.LinRep.from_json",
    "linrep.SeriesMatrix.from_json", "realize.generator_matrices_from_json",
    "leavitt.UElem.from_json", "freealg.FreeElem.from_json",
}


def _groups(name: str) -> tuple:
    """Aggregation keys of one span name: the name plus the groups it joins."""
    layer = name.partition(".")[0]
    keys = [name]
    if name.startswith("fields.RatFunc."):
        keys.append("fields.ratfunc")
    if name.startswith("la.Echelon."):
        keys.append("la.echelon")
    if layer in ("truncated", "freealg", "realize"):
        keys.append(layer)
    if name in CERT_LOADERS:
        keys.append("cli.cert_load")
    if name in ("leavitt.v_witness", "leavitt.uinf_witness"):
        keys.append("leavitt.witness")
    if name in ("expr.eval_series", "expr.eval_skew", "expr.eval_leavitt"):
        keys.append("expr.eval")
    return tuple(keys)


class Tracer:
    def __init__(self) -> None:
        self.names: list = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_task = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.task = [-1]
        self.keys: dict = {}  # key -> index into the aggregate lists
        self.calls: list = []
        self.self_ns: list = []
        self.total_ns: list = []
        self.depth: list = []
        self.counts: dict = {}
        self.binding_sites = 0
        self._stack: list = []
        self._restore: list = []

    # -- aggregates ----------------------------------------------------------

    def _key(self, key: str) -> int:
        if key not in self.keys:
            self.keys[key] = len(self.calls)
            for agg in (self.calls, self.self_ns, self.total_ns, self.depth):
                agg.append(0)
        return self.keys[key]

    def count(self, key: str, n=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key: str, n) -> None:
        self.counts[key] = max(self.counts.get(key, 0), n)

    def active(self, key: str) -> bool:
        k = self.keys.get(key)
        return k is not None and self.depth[k] > 0

    def calls_of(self, key: str) -> int:
        k = self.keys.get(key)
        return 0 if k is None else self.calls[k]

    def self_s(self, key: str) -> float:
        k = self.keys.get(key)
        return 0.0 if k is None else self.self_ns[k] / 1e9

    def total_s(self, key: str) -> float:
        """Time inside outermost spans of ``key``; nested spans are not counted twice."""
        k = self.keys.get(key)
        return 0.0 if k is None else self.total_ns[k] / 1e9

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name: str, observer):
        name_id = len(self.names)
        self.names.append(name)
        key_ids = tuple(self._key(k) for k in _groups(name))
        stack, task = self._stack, self.task
        s_name, s_parent, s_task = self.span_name, self.span_parent, self.span_task
        s_start, s_end = self.span_start, self.span_end
        calls, self_ns, total_ns, depth = self.calls, self.self_ns, self.total_ns, self.depth
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(s_name)
            s_name.append(name_id)
            s_parent.append(stack[-1][0] if stack else -1)
            s_task.append(task[0])
            s_end.append(0)
            for k in key_ids:
                depth[k] += 1
            frame = [idx, 0]
            stack.append(frame)
            t0 = clock()
            s_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                s_end[idx] = t1
                dur = t1 - t0
                own = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                for k in key_ids:
                    depth[k] -= 1
                    calls[k] += 1
                    self_ns[k] += own
                    if depth[k] == 0:
                        total_ns[k] += dur
            if observer is not None:
                observer(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, package: str = "ratskew") -> None:
        """Wrap every public function and method of the layer modules, and
        rebind each name in every package module that imported it by name."""
        originals: dict = {}
        classes: set = set()
        for layer in LAYERS:
            mod = sys.modules["%s.%s" % (package, layer)]
            for attr, val in list(vars(mod).items()):
                full = "%s.%s" % (layer, attr)
                if attr.startswith("_") or full in SKIP:
                    continue
                if getattr(val, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(val):
                    originals[id(val)] = (val, self._wrap(val, full, OBSERVERS.get(full)))
                elif (inspect.isclass(val) and not issubclass(val, BaseException)
                      and val not in classes):
                    classes.add(val)  # aliases such as leavitt.VElem share the class
                    self._wrap_class(val, "%s.%s" % (layer, val.__name__))
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, val))
                    self.binding_sites += 1

    def _wrap_class(self, cls, full: str) -> None:
        only = RATFUNC_OPS if full == "fields.RatFunc" else None
        for attr, val in list(vars(cls).items()):
            if only is not None:
                if attr not in only:
                    continue
            elif attr.startswith("_") and attr not in DUNDERS:
                continue
            name = "%s.%s" % (full, attr)
            obs = OBSERVERS.get(name)
            if isinstance(val, staticmethod):
                new = staticmethod(self._wrap(val.__func__, name, obs))
            elif isinstance(val, classmethod):
                new = classmethod(self._wrap(val.__func__, name, obs))
            elif inspect.isfunction(val):
                new = self._wrap(val, name, obs)
            else:
                continue
            setattr(cls, attr, new)
            self._restore.append((cls, attr, val))

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._restore):
            setattr(owner, attr, val)
        self._restore.clear()

    # -- output ----------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_name)

    def dump(self, path) -> int:
        """Write the spans: one JSON header line, then the five arrays in
        header order (native byte order).  Returns the byte count."""
        header = {
            "format": "ratskew-bench-spans-1",
            "count": self.span_count(),
            "names": self.names,
            "arrays": [["name", "H"], ["parent", "i"], ["task", "i"],
                       ["start_ns", "q"], ["end_ns", "q"]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_task,
                        self.span_start, self.span_end):
                arr.tofile(fh)
            return fh.tell()


# ---------------------------------------------------------------------------
# observers: counts read from the arguments and results of one call
# ---------------------------------------------------------------------------

def _obs_gcd(tr, args, result):
    if not result.is_const():
        tr.count("fields.mpoly_gcd.nontrivial")


def _obs_echelon_add(tr, args, result):
    if result:
        tr.count("la.echelon_add.accepted")


def _obs_reduce(tr, args, result):
    din, dout = args[0].dim, result.dim
    tr.count("linrep.reduce.dim_in", din)
    tr.count("linrep.reduce.dim_out", dout)
    if din == dout:
        tr.count("linrep.reduce.noop")
    tr.peak("linrep.max_dim", dout)


def _obs_sm_reduce(tr, args, result):
    if args[0].dim == result.dim:
        tr.count("linrep.sm_reduce.noop")


def _obs_skew_mul(tr, args, result):
    tr.count("skew.mul.term_pairs", len(args[0].data) * len(args[1].data))


def _obs_ideal_member(tr, args, result):
    if tr.active("skew.t_witness"):
        tr.count("skew.ideal_member.in_witness")


def _obs_trunc_mul(tr, args, result):
    tr.peak("truncated.max_terms", len(result.coeffs))


def _obs_verify(tr, args, result):
    tr.count("realize.identity_checks", len(result.checks))


def _obs_enumerate(tr, args, result):
    tr.count("kzero.enumerated_elements", len(result.elements))


OBSERVERS = {
    "fields.mpoly_gcd": _obs_gcd,
    "la.Echelon.add": _obs_echelon_add,
    "linrep.LinRep.reduce": _obs_reduce,
    "linrep.SeriesMatrix.reduce": _obs_sm_reduce,
    "skew.SkewElem.__mul__": _obs_skew_mul,
    "skew.ideal_member": _obs_ideal_member,
    "truncated.TruncSeries.__mul__": _obs_trunc_mul,
    "realize.verify_generators": _obs_verify,
    "kzero.monoid_enumerate": _obs_enumerate,
}


def _frac(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics, name -> (value, unit)."""
    c = tr.counts.get
    gcd = tr.calls_of("fields.mpoly_gcd")
    ech = tr.calls_of("la.Echelon.add")
    red = tr.calls_of("linrep.LinRep.reduce")
    smr = tr.calls_of("linrep.SeriesMatrix.reduce")
    wit = tr.calls_of("skew.t_witness")
    m = {
        "fields.ratfunc_ops": (tr.calls_of("fields.ratfunc"), "count"),
        "fields.ratfunc.self_s": (tr.self_s("fields.ratfunc"), "s"),
        "fields.mpoly_gcd.calls": (gcd, "count"),
        "fields.mpoly_gcd.self_s": (tr.self_s("fields.mpoly_gcd"), "s"),
        "fields.mpoly_gcd.nontrivial_frac": (_frac(c("fields.mpoly_gcd.nontrivial", 0), gcd), "frac"),
        "la.echelon_add.calls": (ech, "count"),
        "la.echelon_add.accepted_frac": (_frac(c("la.echelon_add.accepted", 0), ech), "frac"),
        "la.echelon.self_s": (tr.self_s("la.echelon"), "s"),
        "linrep.reduce.calls": (red, "count"),
        "linrep.reduce.self_s": (tr.self_s("linrep.LinRep.reduce"), "s"),
        "linrep.reduce.total_s": (tr.total_s("linrep.LinRep.reduce"), "s"),
        "linrep.reduce.dim_in_sum": (c("linrep.reduce.dim_in", 0), "count"),
        "linrep.reduce.dim_out_sum": (c("linrep.reduce.dim_out", 0), "count"),
        "linrep.reduce.noop_frac": (_frac(c("linrep.reduce.noop", 0), red), "frac"),
        "linrep.max_dim": (c("linrep.max_dim", 0), "count"),
        "linrep.sm_reduce.calls": (smr, "count"),
        "linrep.sm_reduce.total_s": (tr.total_s("linrep.SeriesMatrix.reduce"), "s"),
        "linrep.sm_reduce.noop_frac": (_frac(c("linrep.sm_reduce.noop", 0), smr), "frac"),
        "linrep.invert_matrix_series.total_s": (tr.total_s("linrep.invert_matrix_series"), "s"),
        "skew.mul.calls": (tr.calls_of("skew.SkewElem.__mul__"), "count"),
        "skew.mul.term_pairs": (c("skew.mul.term_pairs", 0), "count"),
        "skew.mul.self_s": (tr.self_s("skew.SkewElem.__mul__"), "s"),
        "skew.ideal_member.calls": (tr.calls_of("skew.ideal_member"), "count"),
        "skew.ideal_member.total_s": (tr.total_s("skew.ideal_member"), "s"),
        "skew.t_witness.calls": (wit, "count"),
        "skew.t_witness.total_s": (tr.total_s("skew.t_witness"), "s"),
        "skew.ideal_member_per_witness": (_frac(c("skew.ideal_member.in_witness", 0), wit), "calls/witness"),
        "truncated.mul.calls": (tr.calls_of("truncated.TruncSeries.__mul__"), "count"),
        "truncated.self_s": (tr.self_s("truncated"), "s"),
        "truncated.max_terms": (c("truncated.max_terms", 0), "count"),
        "freealg.mul.calls": (tr.calls_of("freealg.FreeElem.__mul__"), "count"),
        "freealg.self_s": (tr.self_s("freealg"), "s"),
        "realize.build.total_s": (tr.total_s("realize.build_generators"), "s"),
        "realize.verify_generators.calls": (tr.calls_of("realize.verify_generators"), "count"),
        "realize.verify_generators.total_s": (tr.total_s("realize.verify_generators"), "s"),
        "realize.verify_generators.self_s": (tr.self_s("realize.verify_generators"), "s"),
        "realize.identity_checks": (c("realize.identity_checks", 0), "count"),
        "realize.spot_check.total_s": (tr.total_s("realize.spot_check_sigma_prime"), "s"),
        "cli.recheck.calls": (tr.calls_of("cli.recheck_certificate"), "count"),
        "cli.recheck.total_s": (tr.total_s("cli.recheck_certificate"), "s"),
        "cli.cert_load.total_s": (tr.total_s("cli.cert_load"), "s"),
        "cli.cert_bytes": (c("cli.cert_bytes", 0), "count"),
        "leavitt.mul.calls": (tr.calls_of("leavitt.UElem.__mul__"), "count"),
        "leavitt.v_normal_form.total_s": (tr.total_s("leavitt.v_normal_form"), "s"),
        "leavitt.witness.total_s": (tr.total_s("leavitt.witness"), "s"),
        "kzero.grothendieck_group.total_s": (tr.total_s("kzero.grothendieck_group"), "s"),
        "kzero.analyze_pisr_shape.total_s": (tr.total_s("kzero.analyze_pisr_shape"), "s"),
        "kzero.enumerated_elements": (c("kzero.enumerated_elements", 0), "count"),
        "expr.parse.total_s": (tr.total_s("expr.parse_expr"), "s"),
        "expr.eval.total_s": (tr.total_s("expr.eval"), "s"),
    }
    return m
