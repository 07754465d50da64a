"""Benchmark runner for logent.

Run from the root of a checkout:

    python3 bench/run.py --workload fuzz-all --seed 1 --seconds 30 --trace 0

With --trace 0 it times the workload untraced and prints the end-to-end
metrics; with --trace 1 it runs each cycle of ops untraced and then again
with every layer wrapped in spans, and prints the per-layer metrics. The last
line of stdout is the result object; the line before it carries the run
environment and details (tail percentile, sample counts, trace overhead).
Scratch files go to .bench_scratch/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SCRATCH = os.path.join(ROOT, ".bench_scratch")
SETUP_PROBES = 5  # fresh interpreters timed per run; setup_s is their median
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import logent from this checkout's src/ and the workload module."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "logent", "__init__.py")):
        fail(f"no logent sources under {src}; run from the root of a logent checkout")
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = BLAS_THREADS
    sys.path[:0] = [src, HERE]
    import logent
    if os.path.dirname(os.path.abspath(logent.__file__)) != os.path.join(src, "logent"):
        fail(f"imported logent from {logent.__file__}, not from {src}")
    import workloads
    return workloads


def warm_up(workload) -> float:
    """Run the workload's warm-up ops; return the time spent inside them."""
    spent = 0.0
    for k in workload.warm_keys():
        inp = workload.inputs(k)
        t0 = time.perf_counter()
        workload.call(inp)
        spent += time.perf_counter() - t0
    return spent


def run_ops(workload, keys, phase: dict, tracer=None) -> None:
    """Closed loop over keys: op k+1 starts when op k has been timed and checked."""
    for k in keys:
        inp = workload.inputs(k)
        if tracer is not None:
            tracer.current_op = k
        t0 = time.perf_counter()
        try:
            out = workload.call(inp)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            phase["times"].append(time.perf_counter() - t0)
            phase["failures"].append(f"op {k}: {type(exc).__name__}: {exc}")
            continue
        phase["times"].append(time.perf_counter() - t0)
        problems = workload.check(inp, out)
        if problems:
            phase["failures"].append(f"op {k}: " + "; ".join(problems))
        for name, value in workload.counters(inp, out).items():
            phase["counts"][name] = phase["counts"].get(name, 0) + value


def new_phase() -> dict:
    return {"times": [], "failures": [], "counts": {}}


def run_phase(workload, seconds: float) -> dict:
    """Whole cycles of the workload's op mix until seconds have passed, so
    every run weighs each kind of op the same."""
    phase = new_phase()
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds:
        run_ops(workload, range(k, k + workload.cycle), phase)
        k += workload.cycle
    return phase


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that
    keeps TAIL_BEYOND samples above it, or the maximum if there are too
    few samples."""
    ordered = sorted(times)
    n = len(ordered)
    idx = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def summarize(phase: dict) -> dict:
    times = phase["times"]
    completed = len(times) - len(phase["failures"])
    value, pct, beyond = tail(times)
    return {"ops": len(times), "failed": len(phase["failures"]),
            "error_rate": len(phase["failures"]) / len(times),
            "ops_per_s": completed / sum(times), "op_p50_s": statistics.median(times),
            "op_tail_s": value, "tail_percentile": pct, "tail_samples_beyond": beyond}


def probe_setup(args) -> list[float]:
    """Time import + warm-up in SETUP_PROBES fresh interpreters."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=False)
        if done.returncode != 0:
            fail(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = os.path.join(ROOT, "src", "logent")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": os.cpu_count(), "src_logent_lines": lines}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fuzz-all", "bound-large",
                                                              "cli-files"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    t0 = time.perf_counter()
    workloads = import_library()
    import_s = time.perf_counter() - t0
    work_dir = os.path.join(SCRATCH, f"{args.workload}-{args.seed}")
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    if args.setup_probe:
        print(json.dumps({"setup_s": import_s + warm_up(workload)}))
        return 0
    try:
        return measure(args, workloads, workload)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(args, workloads, workload) -> int:
    os.makedirs(SCRATCH, exist_ok=True)
    workload.prepare()
    warm_up(workload)
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "env": environment()}
    if args.trace:
        phase, metrics = per_layer(args, workloads, workload, details)
    else:
        phase, metrics = end_to_end(args, workload, details)
    print(json.dumps(details))
    print(json.dumps(result(phase, metrics)))
    return 0


def end_to_end(args, workload, details: dict) -> tuple[dict, dict]:
    """Untraced timed phase; set-up probed in fresh interpreters first."""
    setup = probe_setup(args)
    phase = run_phase(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    s = summarize(phase)
    details.update(s, setup_samples=setup, failures=phase["failures"][:5])
    return phase, {"setup_s": metric(statistics.median(setup), "s"),
                   "ops_per_s": metric(s["ops_per_s"], "1/s"),
                   "op_p50_s": metric(s["op_p50_s"], "s"),
                   "op_tail_s": metric(s["op_tail_s"], "s"),
                   "peak_rss_mb": metric(peak_rss_mb, "MB")}


def per_layer(args, workloads, workload, details: dict) -> tuple[dict, dict]:
    """Each cycle of ops runs untraced, then again traced on the same inputs.

    Alternating by cycle exposes both passes to the same machine state, so
    their ratio is the tracing overhead.
    """
    import layers
    import tracing
    tracer = tracing.Tracer()
    plain, traced = new_phase(), new_phase()
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < args.seconds:
        keys = range(k, k + workload.cycle)
        run_ops(workload, keys, plain)
        tracer.install()
        try:
            run_ops(workload, keys, traced, tracer)
        finally:
            tracer.uninstall()
        k += workload.cycle
    spans = tracer.arrays()
    tracer.save(os.path.join(SCRATCH, f"spans-{args.workload}.npz"), spans)
    s, s_plain = summarize(traced), summarize(plain)
    n_ops = s["ops"]
    layer = tracing.layer_metrics(tracer.names, spans, sum(traced["times"]), n_ops,
                                  layers.FUNCTIONS)
    for suite, fn in layers.FUZZ_SUITES.items():
        calls, busy = tracing.inclusive(tracer.names, spans, fn)
        trials = calls * workloads.FuzzAll.trials
        layer[f"fuzz.{suite}.trials_per_s"] = trials / busy if calls else 0.0
    layer["serialization.bytes_read"] = tracer.counts.get("serialization.bytes_read", 0) / n_ops
    layer["cli.bytes_written"] = traced["counts"].get("cli.bytes_written", 0) / n_ops
    layer["trace.overhead"] = s["ops_per_s"] / s_plain["ops_per_s"]
    failures = plain["failures"] + traced["failures"]
    details.update(traced=s, untraced=s_plain, failures=failures[:5])
    metrics = {name: metric(layer[name], layers.kind(name)[0])
               for name in layers.metric_names()}
    return {"times": plain["times"] + traced["times"], "failures": failures}, metrics


def result(phase: dict, metrics: dict) -> dict:
    """The result line; an op failing its gate makes the run incorrect.

    The error rate is failed / attempted. It is 0 on a correct run, so it
    is carried by these two counts rather than as a metric.
    """
    return {"correct": not phase["failures"], "attempted": len(phase["times"]),
            "failed": len(phase["failures"]), "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
