"""Measure the baseline: two sets of repeated runs of bench/run.py, summarized.

Run from the root of a checkout:

    python3 bench/baseline.py

Each set makes RUNS untraced runs of every workload, on seeds 1 to RUNS,
for BENCHMARK.json's run_seconds each. Then every workload gets one
traced run. It writes bench/baseline.json: per set and workload the
median and quartiles of each end-to-end metric and the spread
(q3 - q1) / median; per workload the relative difference of the two
set medians; the tail percentile each run reported; the per-layer
numbers of the traced run; and which end-to-end metric each per-layer
metric should move on which workload.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fuzz-all", "bound-large", "cli-files")
RUNS = 10
SETS = 2
SEEDS = range(1, RUNS + 1)

NOTES = [
    "error_rate (failed / attempted ops) is 0 at this baseline. It is carried by the result "
    "line's failed and attempted counts, not as an end-to-end metric, because an end-to-end "
    "metric must never read 0. Per-layer metrics may read 0: a function a workload does not "
    "call has 0 calls and 0 self time there.",
    "bound-large runs exchange_entropy at (12,8): its joint space is 1152 and the call needs "
    "about 150 MB. At full rank and (32,16) the same call needs a dense 16384^2 complex matrix "
    "(about 4 GB) and was killed for lack of memory on a 7 GB machine.",
    "setup_s is the median over fresh interpreters of import logent plus the warm-up ops; the "
    "benchmark's own input generation is not part of it.",
    "op_tail_s is the highest percentile with at least 10 slower ops; see tail for the "
    "percentile and op count of each run.",
    "median_change is |a - b| / min(a, b) for the medians a and b of the two sets.",
]


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    details, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed its gate: {details['failures']}")
    details["run_wall_s"] = time.perf_counter() - t0
    return details, result


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def measure_set(seconds: int) -> dict:
    out = {}
    for workload in WORKLOADS:
        runs = [run(workload, seed, seconds, 0) for seed in SEEDS]
        metrics = {name: summary([r["metrics"][name]["value"] for _, r in runs])
                   for name in runs[0][1]["metrics"]}
        for name, m in metrics.items():
            print(f"{workload:12s} {name:12s} median {m['median']:.6g} "
                  f"spread {m['spread']:.4f}", flush=True)
        out[workload] = {
            "env": runs[0][0]["env"],
            "end_to_end": metrics,
            "tail": [{"percentile": d["tail_percentile"], "ops": d["ops"],
                      "samples_beyond": d["tail_samples_beyond"]} for d, _ in runs],
            "run_wall_s": [d["run_wall_s"] for d, _ in runs],
            "error_rate": sum(r["failed"] for _, r in runs) / sum(r["attempted"] for _, r in runs),
        }
    return out


def main() -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    sets = [measure_set(seconds) for _ in range(SETS)]
    out = {"runs": RUNS, "sets": SETS, "seeds": list(SEEDS), "seconds": seconds,
           "notes": NOTES, "workloads": {},
           "moves": [dict(group, metrics=layers.group_metrics(group))
                     for group in layers.GROUPS]}
    for workload in WORKLOADS:
        first, second = (s[workload]["end_to_end"] for s in sets)
        change = {}
        for name in first:
            a, b = first[name]["median"], second[name]["median"]
            change[name] = abs(a - b) / min(a, b)
            print(f"{workload:12s} {name:12s} median_change {change[name]:.4f}", flush=True)
        traced, layer = run(workload, SEEDS[0], seconds, 1)
        out["workloads"][workload] = {
            "sets": [s[workload] for s in sets],
            "median_change": change,
            "trace": {"traced": traced["traced"], "untraced": traced["untraced"],
                      "per_layer": {k: v["value"] for k, v in layer["metrics"].items()}},
        }
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
