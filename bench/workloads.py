"""The benchmark's three closed-loop workloads.

Each workload is driven by one client in one process: op k is generated
by inputs(k) outside the timed interval, run by call(), and gated by
check() against plain-numpy references, again outside the timed
interval. Inputs depend only on the workload seed and k.
"""
from __future__ import annotations

import csv
import json
import os

import numpy as np

import logent.channels
import logent.cli
import logent.fuzz

import oracles

GATE_TOL = 1e-12  # library vs oracle on bound-large; observed residuals stay below 2e-15
CLI_TOL = 1e-10  # library output written as text vs oracle on cli-files

WARM_OFFSET = 10**6  # warm-up ops use keys far from any timed op


class Workload:
    """What run.py drives: prepare() once, then inputs/call/check per op.

    cycle is the number of ops in one round of the op mix; a timed phase
    ends on a whole cycle. counters() returns per-op counts for the
    traced run.
    """

    name = ""
    cycle = 1

    def __init__(self, seed: int, scratch: str):
        self.seed = seed

    def prepare(self) -> None:
        pass

    def counters(self, inp, out) -> dict:
        return {}


class FuzzAll(Workload):
    """run_suite("all") at the CLI's default dimensions, 500 trials per op."""

    name = "fuzz-all"
    trials = 100
    suites = logent.fuzz.SUITES

    def warm_keys(self):
        return [WARM_OFFSET]

    def inputs(self, k: int) -> int:
        return self.seed + self.trials * k

    def call(self, trial_seed: int) -> dict:
        return logent.fuzz.run_suite("all", self.trials, 6, 4, trial_seed)

    def check(self, trial_seed: int, summary: dict) -> list[str]:
        problems = _missing(summary, ("suite", "trials", "failures", "worst_slack", "seed",
                                      "suites"))
        if problems:
            return problems
        if summary["failures"] != 0:
            problems.append(f"{summary['failures']} fuzz failures")
        if summary["trials"] != self.trials * len(self.suites):
            problems.append(f"trials {summary['trials']}")
        subs = summary["suites"]
        if [s.get("suite") for s in subs] != list(self.suites):
            problems.append("suite list differs")
        for sub in subs:
            problems += _missing(sub, ("suite", "trials", "failures", "worst_slack", "seed",
                                       "failed_trials"))
        return problems


class BoundLarge(Workload):
    """verify_entropy_bound at (32,16) and (64,16) on pure states and
    exchange_entropy at (12,8) on a full-rank state, in rotation."""

    name = "bound-large"
    shapes = ((32, 16, "bound"), (64, 16, "bound"), (12, 8, "exchange"))
    cycle = len(shapes)

    def warm_keys(self):
        return [WARM_OFFSET * len(self.shapes)]

    def inputs(self, k: int) -> dict:
        ds, de, kind = self.shapes[k % len(self.shapes)]
        rng = np.random.default_rng(self.seed + k)
        u = oracles.haar_unitary(ds * de, rng)
        if kind == "bound":
            psi = oracles.pure_state(ds, rng)
            rho = np.outer(psi, psi.conj())
            want = oracles.gram_pure(u, psi, ds, de)
        else:
            rho = oracles.mixed_state(ds, rng)
            want = oracles.exchange(u, rho, ds, de)
        return {"kind": kind, "ds": ds, "de": de, "u": u, "rho": rho, "want": want}

    def call(self, inp: dict):
        channels = logent.channels
        model = channels.CouplingModel(inp["u"], dim_s=inp["ds"], dim_e=inp["de"])
        if inp["kind"] == "bound":
            return channels.verify_entropy_bound(inp["rho"], model)
        return channels.exchange_entropy(inp["rho"], model)

    def check(self, inp: dict, report) -> list[str]:
        if inp["kind"] == "bound":
            got = {"entropy": report.entropy, "bound": report.bound, "slack": report.slack}
            problems = [] if report.hypothesis_pure else ["pure input not flagged pure"]
        else:
            got = {"entropy": report.exchange_entropy, "bound": report.bound,
                   "slack": report.slack}
            problems = [] if report.dim_r == inp["ds"] else [f"dim_r {report.dim_r}"]
        return problems + oracles.mismatches(got, inp["want"], GATE_TOL)


class CliFiles(Workload):
    """In-process logent.cli.main calls on JSON files written at set-up."""

    name = "cli-files"
    small = (6, 4)
    large = (32, 16)
    sweep_steps = 64
    theta = 0.7
    # Each command's argv after the global flags; *.json names are input files.
    argvs = {
        "entropy": ["entropy", "--state", "mixed.json"],
        "bound-small": ["bound", "--state", "pure.json", "--model", "model.json"],
        "bound-large": ["bound", "--state", "large-pure.json", "--model", "large-model.json"],
        "exchange": ["exchange", "--state", "mixed.json", "--model", "model.json"],
        "kraus": ["kraus", "--model", "large-model.json"],
        "kraus-damping": ["kraus", "--channel", "amplitude-damping", "--theta", str(theta)],
        "apply": ["apply", "--state", "mixed.json", "--model", "model.json"],
        "sweep": ["sweep", "--state", "qubit.json", "--steps", str(sweep_steps)],
        "prop1": ["prop1", "--state", "mixed.json", "--partition", "partition.json"],
        "prop2": ["prop2", "--ensemble", "ensemble.json"],
        "bridge": ["bridge", "--dist", "dist.json", "--partition", "partition.json"],
    }
    commands = tuple(argvs)
    cycle = len(commands)  # each cycle runs every command once, in a seeded order
    heavy = ("bound-large", "kraus")  # left out of the warm-up

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self.dir = scratch
        self.rng = np.random.default_rng(seed)
        self.order = []
        self.want = {}

    def _path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def prepare(self) -> None:
        """Write every input file and compute every reference."""
        os.makedirs(self.dir, exist_ok=True)
        rng = np.random.default_rng([self.seed, 1])
        ds, de = self.small
        lds, lde = self.large

        def put(name, text):
            with open(self._path(name), "w", encoding="utf-8") as fh:
                fh.write(text)

        def model(u, dims):
            return (f'{{"unitary": {oracles.matrix_json(u)}, '
                    f'"dim_s": {dims[0]}, "dim_e": {dims[1]}}}')

        psi = oracles.pure_state(ds, rng)
        pure = np.outer(psi, psi.conj())
        mixed = oracles.mixed_state(ds, rng)
        u = oracles.haar_unitary(ds * de, rng)
        lpsi = oracles.pure_state(lds, rng)
        lpure = np.outer(lpsi, lpsi.conj())
        lu = oracles.haar_unitary(lds * lde, rng)
        qpsi = oracles.pure_state(2, rng)
        qubit = np.outer(qpsi, qpsi.conj())
        blocks = oracles.random_partition(ds, rng)
        weights = rng.dirichlet(np.ones(4))
        members = [oracles.mixed_state(ds, rng) for _ in weights]
        probs = rng.dirichlet(np.ones(ds))

        # JSON floats round-trip exactly, so the library reads the very
        # matrices the references below are computed from.
        put("pure.json", oracles.matrix_json(pure))
        put("mixed.json", oracles.matrix_json(mixed))
        put("model.json", model(u, self.small))
        put("large-pure.json", oracles.matrix_json(lpure))
        put("large-model.json", model(lu, self.large))
        put("qubit.json", oracles.matrix_json(qubit))
        put("partition.json", json.dumps({"blocks": blocks}))
        put("ensemble.json", f'{{"weights": {json.dumps(weights.tolist())}, "states": ['
                             + ", ".join(oracles.matrix_json(s) for s in members) + "]}")
        put("dist.json", json.dumps({"probs": probs.tolist()}))

        ops = oracles.kraus(u, ds, de)

        def bound_ref(uu, rho, dims):
            r = oracles.exchange(uu, rho, *dims)
            return {"entropy": r["entropy"], "bound": r["bound"], "slack": r["slack"],
                    "projected_entropy": r["bound"], "hypothesis_pure": True}

        ex = oracles.exchange(u, mixed, ds, de)
        self.want = {
            "entropy": {"logical_entropy": 1.0 - oracles.purity(mixed),
                        "purity": oracles.purity(mixed)},
            "bound-small": bound_ref(u, pure, self.small),
            "bound-large": bound_ref(lu, lpure, self.large),
            "exchange": {"exchange_entropy": ex["entropy"], "bound": ex["bound"],
                         "slack": ex["slack"]},
            "kraus": oracles.kraus(lu, lds, lde),
            "kraus-damping": oracles.damping_kraus(self.theta),
            "apply": oracles.apply_channel(ops, mixed),
            "sweep": oracles.sweep_rows(qubit, self.sweep_steps),
            "prop1": dict(oracles.prop1(mixed, blocks), identity_residual=0.0),
            "prop2": oracles.prop2(weights, members),
            "bridge": oracles.bridge(probs, blocks),
        }

    def warm_keys(self):
        return [-1 - i for i, cmd in enumerate(self.commands) if cmd not in self.heavy]

    def _command(self, k: int) -> str:
        if k < 0:
            return self.commands[-1 - k]
        while len(self.order) <= k:
            self.order += [self.commands[i] for i in self.rng.permutation(self.cycle)]
        return self.order[k]

    def inputs(self, k: int) -> dict:
        cmd = self._command(k)
        out = self._path(f"out-{cmd}.txt")
        if os.path.exists(out):
            os.remove(out)
        argv = ["--output", out] + [self._path(a) if a.endswith(".json") else a
                                    for a in self.argvs[cmd]]
        return {"cmd": cmd, "argv": argv, "out": out, "want": self.want.get(cmd)}

    def call(self, inp: dict) -> int:
        return logent.cli.main(inp["argv"])

    def check(self, inp: dict, code: int) -> list[str]:
        if code != 0:
            return [f"{inp['cmd']} exited {code}"]
        with open(inp["out"], encoding="utf-8") as fh:
            text = fh.read()
        sub, want = self.argvs[inp["cmd"]][0], inp["want"]
        if sub == "sweep":
            rows = list(csv.reader(text.splitlines()))[1:]
            return _deviation(np.array([[float(x) for x in r] for r in rows]), want, "sweep")
        got = json.loads(text)
        if sub == "kraus":
            mats = np.array([oracles.wire_matrix(m) for m in got["operators"]])
            problems = _deviation(mats, want, "kraus operators")
            if not 0.0 <= got["completeness_defect"] <= CLI_TOL:
                problems.append(f"completeness_defect {got['completeness_defect']!r}")
            return problems
        if sub == "apply":
            return _deviation(oracles.wire_matrix(got), want, "apply output")
        return oracles.mismatches(got, want, CLI_TOL)

    def counters(self, inp: dict, code) -> dict:
        written = os.path.getsize(inp["out"]) if os.path.exists(inp["out"]) else 0
        return {"cli.bytes_written": written}


def _deviation(got: np.ndarray, want: np.ndarray, what: str) -> list[str]:
    if got.shape != want.shape:
        return [f"{what} has shape {got.shape}, want {want.shape}"]
    err = float(np.max(np.abs(got - want)))
    return [] if err <= CLI_TOL else [f"{what} deviates by {err:.3e}"]


def _missing(summary: dict, keys) -> list[str]:
    return [f"summary key {k!r} missing" for k in keys if k not in summary]


WORKLOADS = {w.name: w for w in (FuzzAll, BoundLarge, CliFiles)}
