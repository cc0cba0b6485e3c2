#!/usr/bin/env python3
"""Benchmark for ratskew: checked tasks per CPU-second, per-task latency,
set-up time and memory, on four workloads; a traced run adds per-layer
metrics.  See bench/README.md for the workloads and the metrics.

One workload, as the harness is driven:

    python3 bench/run.py --workload skew-q --seed 3 --seconds 20 --trace 0

Every workload, each in its own fresh process, one after another:

    python3 bench/run.py [--seed N] [--seconds S] [--trace 0|1]

A single-workload run prints human-readable lines, then one JSON object as
its last line: {"correct", "attempted", "failed", "metrics"}.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  Runs read and write only inside the checkout; results,
certificates and spans go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
CLOCK = time.process_time  # single-threaded, no I/O waits: CPU time is the cost
# Median time of three calibration loops on the machine that defined the
# benchmark (2 CPUs, CPython 3.11.7); rescaled times are in its seconds.
CAL_REF_S = 0.0010
SLICE_S = 0.1
SETUP_REPEATS = 5
WARMUP_TASKS = 4
WORKLOAD_NAMES = ("series-qt", "skew-q", "certs-qt", "monoword-k0")


def die(msg: str):
    print("bench: %s" % msg, file=sys.stderr)
    sys.exit(2)


def check_checkout() -> None:
    src = ROOT / "src"
    if not (src / "ratskew" / "__init__.py").is_file():
        die("no package source at %s; run from a full checkout" % src)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))


def forget_package() -> None:
    """Drop the imported package, so the next import runs it afresh, and
    collect the old copy now rather than inside a timed set-up."""
    for name in list(sys.modules):
        if name in ("workloads", "ratskew") or name.startswith("ratskew."):
            del sys.modules[name]
    gc.collect()


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ratskew").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    info = time.get_clock_info("process_time")
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": "%s %s" % (platform.python_implementation(), platform.python_version()),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "clock": "time.process_time (%s, resolution %g s)" % (info.implementation, info.resolution),
        "span_clock": "time.perf_counter_ns",
        "limits": "one single-threaded process per workload, run one after another; "
                  "the machine may be shared with other tenants; the benchmark drops "
                  "no caches and changes no machine settings",
    }


def calibration_loop() -> int:
    """Fixed stdlib work shaped like the package's inner loops (Fraction
    arithmetic, tuple-keyed dicts); it runs no package code, so a change to
    the package cannot change its cost."""
    d, acc = {}, 0
    for i in range(1, 100):
        a = Fraction(i % 7 - 3, i % 5 + 1)
        b = a * a + a - Fraction(1, 3)
        d[(i % 50, i % 3)] = b
        acc += b.numerator
    return acc + len(d)


def speed_probe() -> float:
    """Median process time of three calibration loops."""
    times = []
    for _ in range(3):
        t0 = CLOCK()
        calibration_loop()
        times.append(CLOCK() - t0)
    return statistics.median(times)


class Runner:
    """Runs tasks, keeping per-task process time and failures.

    The shared machine's speed drifts by up to 2x over a few seconds.  The
    runner probes it with :func:`calibration_loop` between slices of at
    least SLICE_S seconds of task time and rescales each task's time by
    CAL_REF_S over the mean of the probes around its slice: times are
    reported in seconds at the reference speed.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.probe = speed_probe()
        self.factors: list = []
        self.raw_s = 0.0

    def _rescale(self, pending, out) -> None:
        probe = speed_probe()
        factor = CAL_REF_S / ((self.probe + probe) / 2)
        self.probe = probe
        self.factors.append(factor)
        out += [t * factor for t in pending]
        pending.clear()

    def run(self, tasks, tracer=None):
        """Run the tasks; returns their times, rescaled to the reference
        speed.  Spans get the task's index as task id."""
        out, pending = [], []
        for k, (kind, fn) in enumerate(tasks):
            if tracer is not None:
                tracer.task[0] = k
            t0 = CLOCK()
            try:
                fn()
            except Exception as exc:  # every exception is a failed task
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append("%s: %s: %s" % (kind, type(exc).__name__, exc))
            pending.append(CLOCK() - t0)
            self.raw_s += pending[-1]
            self.attempted += 1
            if sum(pending) >= SLICE_S:
                self._rescale(pending, out)
        if pending:
            self._rescale(pending, out)
        return out

    def timed(self, fn):
        """(rescaled seconds, result) of one call outside the task loop."""
        t0 = CLOCK()
        result = fn()
        raw = CLOCK() - t0
        self._rescale([raw], out := [])
        return out[0], result


def percentile(values, q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def frac(num, den) -> float:
    return num / den if den else 0.0


def setup_workload(name, seed, work_dir, runner):
    """Import the package, build the workload, generate the warm-up inputs
    and run the warm-up tasks.  Returns (rescaled seconds, workloads
    module, workload)."""
    forget_package()

    def build():
        wl_mod = importlib.import_module("workloads")
        wl = wl_mod.WORKLOADS[name](seed, work_dir, CLOCK)
        return wl_mod, wl, wl.round(-1)[:WARMUP_TASKS]
    seconds, (wl_mod, wl, warmup) = runner.timed(build)
    seconds += sum(runner.run(warmup))
    wl.stats = wl_mod.Stats()  # the warm-up's certificates are not measured
    return seconds, wl_mod, wl


def timed_run(args, runner, work_dir):
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, _, wl = setup_workload(args.workload, args.seed, work_dir, runner)
        setups.append(seconds)
    times, rounds = [], 0
    start = runner.raw_s
    while rounds < wl.min_rounds or runner.raw_s - start < args.seconds:
        times += runner.run(wl.round(rounds))
        rounds += 1
    raw_s = runner.raw_s - start
    ms = [1e3 * x for x in times]
    metrics = {
        "tasks_per_s": (len(times) / sum(times), "1/s"),
        "task_ms.p50": (statistics.median(ms), "ms"),
        "task_ms.p90": (percentile(ms, 90), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    p90 = metrics["task_ms.p90"][0]
    details = {
        "rounds": rounds, "tasks": len(times), "task_cpu_s": raw_s,
        "unscaled_tasks_per_s": len(times) / raw_s,
        "speed_factor.median": statistics.median(runner.factors),
        "samples_beyond_p90": sum(1 for x in ms if x > p90),
        "setup_repeats_s": setups,
    }
    details.update(cert_details(wl.stats))
    return metrics, details


def cert_details(stats) -> dict:
    v, s = stats.tamper["value"], stats.tamper["structural"]
    vc = [1e3 * x for x in stats.verify_cert_s]
    return {
        "verify_cert_ms.p50": statistics.median(vc) if vc else 0.0,
        "verify_certs": len(vc),
        "tamper.value": {"probes": v[0], "misreported": v[1]},
        "tamper.structural": {"probes": s[0], "misreported": s[1]},
        "tamper.accepted": stats.tamper_accepted,
    }


def traced_run(args, runner, work_dir):
    import tracer as tr_mod

    _, wl_mod, wl = setup_workload(args.workload, args.seed, work_dir, runner)

    def tasks():  # built afresh so each pass records into its own Stats
        return [t for r in range(wl.trace_rounds) for t in wl.round(r)]

    plain_s = sum(runner.run(tasks()))
    plain = cert_details(wl.stats)

    wl.stats = wl_mod.Stats()
    traced_tasks = tasks()
    tracer = tr_mod.Tracer()
    tracer.install()
    try:
        traced_s = sum(runner.run(traced_tasks, tracer))
    finally:
        tracer.uninstall()
    traced = cert_details(wl.stats)
    tracer.counts["cli.cert_bytes"] = wl.stats.cert_bytes

    metrics = tr_mod.layer_metrics(tracer)
    v, s = traced["tamper.value"], traced["tamper.structural"]
    metrics.update({
        "cli.verify_cert_ms.p50": (plain["verify_cert_ms.p50"], "ms"),
        "cli.tamper.probes": (v["probes"] + s["probes"], "count"),
        "cli.tamper.value_misreport_frac": (frac(v["misreported"], v["probes"]), "frac"),
        "cli.tamper.structural_misreport_frac": (frac(s["misreported"], s["probes"]), "frac"),
        "failed_frac": (frac(runner.failed, runner.attempted), "frac"),
        "trace.overhead_frac": ((traced_s - plain_s) / plain_s, "frac"),
    })
    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    span_bytes = tracer.dump(spans_dir / ("%s.bin" % args.workload))
    details = {
        "tasks_per_pass": len(traced_tasks), "untraced_task_s": plain_s, "traced_task_s": traced_s,
        "spans": tracer.span_count(), "span_file_bytes": span_bytes,
        "binding_sites_patched": tracer.binding_sites,
    }
    details.update(traced)
    return metrics, details


def run_one(args) -> int:
    check_checkout()
    runner = Runner()
    work_dir = WORK / ("certs-%d" % os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, details = traced_run(args, runner, str(work_dir))
        else:
            metrics, details = timed_run(args, runner, str(work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    env = environment()
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details.update({"failed_frac": frac(runner.failed, runner.attempted),
                    "failures": runner.failures})
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "details": details, "result": result}
    with open(results_dir / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for msg in runner.failures:
        print("bench: failed task: %s" % msg, file=sys.stderr)
    print("workload %s, seed %d, trace %d" % (args.workload, args.seed, args.trace))
    for k, v in details.items():
        if k != "failures":
            print("  %s: %s" % (k, json.dumps(v)))
    for k, (v, u) in metrics.items():
        print("  %-40s %14.6g %s" % (k, v, u))
    print("environment: %s" % json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if proc.returncode != 0 or result is None:
            print("%s: no result (exit %d)" % (name, proc.returncode))
            status = 1
            continue
        print("%s: correct=%s attempted=%d failed=%d failed_frac=%.4g"
              % (name, result["correct"], result["attempted"], result["failed"],
                 frac(result["failed"], result["attempted"])))
        for line in lines[:-1]:
            if line.startswith("  ") and ":" in line:
                print("  " + line.strip())
        for k, m in result["metrics"].items():
            print("    %-40s %14.6g %s" % (k, m["value"], m["unit"]))
        if not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES,
                    help="run one workload in this process (default: all, each in its own process)")
    ap.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="task CPU time to measure (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run reporting per-layer metrics")
    args = ap.parse_args(argv)
    if args.seconds is None:
        try:
            with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
                args.seconds = json.load(fh)["run_seconds"]
        except (OSError, ValueError, KeyError):
            args.seconds = 20
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
