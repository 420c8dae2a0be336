"""Benchmark of the wl1approx fits: throughput, latency and failure share.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {interp_real,noisy_ball,ls_diag} \
        --seed N --seconds S --trace {0,1}

--trace 0 runs the op list untraced and prints the end-to-end metrics;
--trace 1 runs the same list with spans around every layer call, then the
first half of it untraced in a fresh process for the tracing overhead,
and prints the per-layer metrics. Either way every op's output is
checked, and the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Every reported time is scaled to nominal host speed by a probe kernel
timed between ops (hostspeed.py); the summary line keeps the raw times.
See bench/README.md for the workloads, the failure rule and the metrics.
"""

import os
import sys

# Fixed before numpy loads, so that every run uses the same BLAS threads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import ctypes
import glob
import json
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_PROBES = 3

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "ok_frac": "frac", "setup_s": "s", "peak_rss_mb": "MB"}

SELF_TIME_SPANS = (
    "solver.solve_weighted_l1", "solver.sup_error", "basis.eval_table",
    "basis.project_coefficients", "basis.linf_norms", "sampling.build_matrix",
    "sampling.make_weights", "sampling.choose_K",
    "sampling.smallest_nonzero_singular_value", "solver.solve_least_squares",
    "solver.oracle_least_squares", "diagnostics.compute_E",
    "diagnostics.compute_F", "diagnostics.check_dual_certificate",
    "diagnostics.truncation_bound", "diagnostics.scaling_study",
    "grid.generate", "grid.build_pointset", "experiments.run_diagnostics")
CALL_SPANS = ("solver.solve_weighted_l1", "basis.eval_table",
              "basis.project_coefficients")


def per_layer_units() -> dict:
    import tracing

    units = {n + ".self_s": "s" for n in SELF_TIME_SPANS}
    units.update({n + ".calls": "count" for n in CALL_SPANS})
    units.update({
        "basis.eval_table.cells": "count",
        "solver.iterations": "count",
        "solver.us_per_iter": "us",
        "solver.converged_frac": "frac",
        "solver.max_iter_calls": "count",
        "op.self_s": "s",
        "trace.overhead_frac": "frac",
    })
    units.update({layer + ".self_s": "s" for layer in tracing.LAYERS})
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("interp_real", "noisy_ball", "ls_diag"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="sets the op count: max(100, nominal rate x seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, default=None,
                   help="override the op count (self-tests use tiny runs)")
    # Internal modes for the child processes this script starts.
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--loop-only", type=int, default=None,
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_instances(args):
    import workloads

    n = args.ops if args.ops is not None else \
        workloads.op_count(args.workload, args.seconds)
    return workloads.instances(args.workload, args.seed, n)


def _child_cmd(args, *mode):
    cmd = [sys.executable, os.path.abspath(__file__), *mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.ops is not None:
        cmd += ["--ops", str(args.ops)]
    return cmd


def measure_setup(args):
    """Set-up time over fresh processes: spawn -> instance list ready.
    Returns (median scaled to nominal host speed, median raw), in s."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        start = time.time()
        out = subprocess.run(_child_cmd(args, "--setup-probe"), check=True,
                             capture_output=True, text=True, timeout=120)
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        raw.append(probe["ready"] - start)
        scaled.append(raw[-1] / probe["slowdown"])
    return statistics.median(scaled), statistics.median(raw)


def untraced_loop(args, n_ops) -> dict:
    """Op time and host slowdown of the first n_ops ops, untraced, in a
    fresh process."""
    out = subprocess.run(_child_cmd(args, "--loop-only", str(n_ops)),
                         check=True, capture_output=True, text=True,
                         timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_loop(insts, out_root, tracer=None):
    """Run every op once, in order, with host-speed probes between ops.
    Returns (records, op seconds, probe seconds last taken before each op,
    host slowdown); a record is None where its op raised."""
    import hostspeed
    import workloads

    host = hostspeed.HostSpeed()
    records, op_s, probe_s = [], [], []
    for i, inst in enumerate(insts):
        host.before_op()
        probe_s.append(host.probes[-1])
        ctx = tracer.op_span(i) if tracer else contextlib.nullcontext()
        t = time.perf_counter()
        try:
            with ctx:
                rec = workloads.run_op(inst, workloads.op_dir(out_root, i))
        except Exception:
            rec = None
            print("op %d raised:\n%s" % (i, traceback.format_exc()),
                  file=sys.stderr)
        op_s.append(time.perf_counter() - t)
        host.after_op(op_s[-1])
        records.append(rec)
    host.finish()
    return records, op_s, probe_s, host.slowdown()


def check_all(insts, records):
    """Apply the failure rule to every op. Returns (per-op quality dicts,
    correct). correct turns false when an op raised, when a check could not
    run, or when an output is wrong while claimed good: a fit reported as
    converged that fails a recomputed check, or an ls_diag output that is
    non-finite or differs from the recorded values. A solve that reports
    max_iter fails honestly and leaves correct alone."""
    import checks

    expected = None
    quality, correct = [], True
    for inst, rec in zip(insts, records):
        if rec is None:
            quality.append({"failed": ["error"]})
            correct = False
            continue
        try:
            if inst["kind"] in ("interp", "noisy"):
                q = checks.check_fit(inst, rec)
                q.update(status=rec["status"], iterations=rec["iterations"],
                         sup_error=rec["sup_error"])
                claimed_good = rec["status"] == "converged"
            else:
                if expected is None:
                    expected = checks.load_expected()
                q = checks.check_ls_diag(inst, rec, expected)
                claimed_good = True
        except Exception:
            print(traceback.format_exc(), file=sys.stderr)
            q, claimed_good = {"failed": ["check_error"]}, True
        if q["failed"] and claimed_good:
            correct = False
        quality.append(q)
    return quality, correct


def _blas_threads():
    """Threads of numpy's OpenBLAS, asked from the library itself."""
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, insts) -> dict:
    import numpy as np
    import scipy

    import hostspeed
    import workloads

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": len(insts), "instances_sha256": workloads.instance_hash(insts),
        "max_iter": workloads.MAX_ITER,
        "nominal_probe_s": hostspeed.NOMINAL_PROBE_S,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas_name,
        "blas_threads_set": int(BLAS_THREADS),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
    }


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def op_lines(insts, quality, op_s, probe_s):
    for i, (inst, q, dt, pt) in enumerate(zip(insts, quality, op_s, probe_s)):
        row = {"op": i, "kind": inst.get("fit", inst["kind"]),
               "basis": inst["basis"], "N": inst["N"], "ms": round(dt * 1e3, 3),
               "probe_ms": round(pt * 1e3, 3)}
        row.update(q)
        yield "op " + json.dumps(row, sort_keys=True)


def end_to_end(op_s, slowdown, failed, setup_s, peak_kb):
    """Timings scaled to nominal host speed: each op time over slowdown."""
    n = len(op_s)
    return {
        "ops_per_s": n * slowdown / sum(op_s),
        "op_p50_ms": _percentile(op_s, 50) * 1e3 / slowdown,
        "op_p90_ms": _percentile(op_s, 90) * 1e3 / slowdown,
        "ok_frac": (n - failed) / n,
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024.0,
    }


def per_layer(tracer, insts, records, slowdown, traced_s, untraced_s):
    """Layer metrics; self times are scaled to nominal host speed, and the
    tracing overhead compares two loops each scaled by its own slowdown."""
    import tracing

    self_s = {k: v / slowdown for k, v in tracer.self_times().items()}
    calls = tracer.calls()
    values = {n + ".self_s": self_s.get(n, 0.0) for n in SELF_TIME_SPANS}
    values.update({n + ".calls": calls.get(n, 0) for n in CALL_SPANS})
    for layer in tracing.LAYERS:
        values[layer + ".self_s"] = sum(
            v for k, v in self_s.items() if k.startswith(layer + "."))
    values["op.self_s"] = self_s.get("op", 0.0)
    fits = [r for i, r in zip(insts, records)
            if r is not None and i["kind"] in ("interp", "noisy")]
    iterations = sum(r["iterations"] for r in fits)
    values["basis.eval_table.cells"] = tracer.counts["basis.eval_table.cells"]
    values["solver.iterations"] = iterations
    values["solver.us_per_iter"] = (
        1e6 * self_s.get("solver.solve_weighted_l1", 0.0) / iterations
        if iterations else 0.0)
    values["solver.converged_frac"] = (
        sum(r["status"] == "converged" for r in fits) / len(fits)
        if fits else 0.0)
    values["solver.max_iter_calls"] = sum(r["status"] == "max_iter"
                                          for r in fits)
    values["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wl1approx", "__init__.py")):
        print("bench: no package source at %s; run from the root of a "
              "checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.setup_probe:
        load_instances(args)
        ready = time.time()
        import hostspeed

        host = hostspeed.HostSpeed()
        probe_s = statistics.median(host.probe() for _ in range(3))
        print(json.dumps({"ready": ready, "slowdown":
                          probe_s / hostspeed.NOMINAL_PROBE_S}))
        return 0

    insts = load_instances(args)
    os.makedirs(OUT_DIR, exist_ok=True)
    out_root = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        if args.loop_only is not None:
            _, op_s, _, slowdown = run_loop(insts[:args.loop_only], out_root)
            print(json.dumps({"op_s": sum(op_s), "slowdown": slowdown}))
            return 0

        setup_s = setup_raw_s = None
        if not args.trace:
            setup_s, setup_raw_s = measure_setup(args)
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        try:
            records, op_s, probe_s, slowdown = run_loop(insts, out_root,
                                                         tracer)
        finally:
            if tracer:
                tracer.uninstall()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        quality, correct = check_all(insts, records)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    failed = sum(bool(q["failed"]) for q in quality)
    print("env " + json.dumps(environment(args, insts), sort_keys=True))
    for line in op_lines(insts, quality, op_s, probe_s):
        print(line)
    reasons = {}
    for q in quality:
        for r in q["failed"]:
            reasons[r] = reasons.get(r, 0) + 1
    p90 = _percentile(op_s, 90)
    print("summary " + json.dumps({
        "attempted": len(insts), "failed": failed,
        "failed_frac": failed / len(insts), "fail_reasons": reasons,
        "samples_above_p90": sum(t > p90 for t in op_s),
        "op_s_raw": sum(op_s), "op_p50_ms_raw": _percentile(op_s, 50) * 1e3,
        "op_p90_ms_raw": p90 * 1e3, "setup_s_raw": setup_raw_s,
        "host_slowdown": slowdown}, sort_keys=True))

    if args.trace:
        # The overhead compares the first half of the ops, traced here and
        # untraced in a fresh process; both start with cold caches.
        half = (len(insts) + 1) // 2
        untraced = untraced_loop(args, half)
        tracer.dump(os.path.join(OUT_DIR, "trace-%s-seed%d.json"
                                 % (args.workload, args.seed)))
        values = per_layer(tracer, insts, records, slowdown,
                           sum(op_s[:half]) / slowdown,
                           untraced["op_s"] / untraced["slowdown"])
        units = per_layer_units()
    else:
        values = end_to_end(op_s, slowdown, failed, setup_s, peak_kb)
        units = END_TO_END_UNITS
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(json.dumps({"correct": correct, "attempted": len(insts),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
