"""Randomized verification campaigns.

Each suite replays one identity or inequality across many seeded random
instances. Determinism contract: trial t of a campaign with root seed s
uses exactly numpy's default_rng(s + t), so any failing trial can be
regenerated from the summary alone, and trials could be farmed out in
parallel without changing the outcome.

Suite names follow the command-line interface: "theorem" (the off-block
bound), "prop1" (measurement purity bookkeeping), "prop2" (the mixing
bound), "schmidt" (equal entropies of the two reductions of a bipartite
pure state), "bridge" (classical partition entropy vs measurement).

Summaries are plain dicts: {suite, trials, failures, worst_slack, seed,
failed_trials}. worst_slack is the most adverse value seen of the
suite's primary quantity: the minimum slack for inequality suites, the
largest residual for identity suites. Every check is written so that a
NaN value fails it.
"""
from __future__ import annotations

import numpy as np

from .channels import CouplingModel, verify_entropy_bound
from .classical import bridge_entropies, random_distribution, random_partition
from .measurement import (entropy_gain, entropy_nondecreasing, projectors_from_partition,
                          purity_decomposition)
from .mixing import mixing_bound_report, random_ensemble, schmidt_entropy_pair
from .serialization import matrix_to_json, model_to_json
from .states import (density_from_pure, purity, random_density, random_pure_state,
                     random_unitary)

_MAX_RECORDED = 3  # failing trials kept in the summary, with full inputs
_MAX_COMPONENTS = 6  # largest ensemble drawn by the mixing suite


def _dim(rng: np.random.Generator, dim_max: int) -> int:
    """Per-trial dimension in {2..dim_max}, or 1 when dim_max is 1."""
    if dim_max < 1:
        raise ValueError(f"dimension bound must be >= 1, got {dim_max}")
    lo = 2 if dim_max >= 2 else 1
    return int(rng.integers(lo, dim_max + 1))


def _campaign(suite: str, trials: int, seed: int, worst0: float, pick, trial) -> dict:
    """Run trial(t, rng) for t < trials on rng = default_rng(seed + t).

    A trial returns (values, failed_checks, inputs_thunk): values are
    folded into the running worst with pick (min for slacks, max for
    residuals), and inputs_thunk builds the JSON inputs of a failing
    trial, called only for the first _MAX_RECORDED failures.
    """
    failures = 0
    worst = worst0
    recorded = []
    for t in range(trials):
        values, bad, inputs = trial(t, np.random.default_rng(seed + t))
        worst = pick(worst, *values)
        if bad:
            failures += 1
            if len(recorded) < _MAX_RECORDED:
                recorded.append({"trial": t, "seed": seed + t, "checks": bad, **inputs()})
    return {"suite": suite, "trials": trials, "failures": failures,
            "worst_slack": None if trials == 0 else float(worst),
            "seed": seed, "failed_trials": recorded}


def fuzz_bound(trials: int, dim_s_max: int, dim_e_max: int, seed: int) -> dict:
    """Off-block bound on Haar-random couplings of random pure states.

    Checks per trial: slack >= -1e-9, the projected state's entropy
    equals the bound within 1e-9, and the output entropy does not exceed
    the projected entropy plus 1e-9.
    """
    def trial(t, rng):
        ds = _dim(rng, dim_s_max)
        de = _dim(rng, dim_e_max)
        model = CouplingModel(random_unitary(ds * de, rng), dim_s=ds, dim_e=de)
        rho = density_from_pure(random_pure_state(ds, rng))
        report = verify_entropy_bound(rho, model)
        bad = []
        if not report.slack >= -1e-9:
            bad.append(f"slack {report.slack!r} < -1e-9")
        if not abs(report.projected_entropy - report.bound) <= 1e-9:
            bad.append(f"projected {report.projected_entropy!r} != bound {report.bound!r}")
        if not report.entropy <= report.projected_entropy + 1e-9:
            bad.append(f"entropy {report.entropy!r} > projected {report.projected_entropy!r}")
        return ((report.slack,), bad,
                lambda: {"state": matrix_to_json(rho), "model": model_to_json(model)})

    return _campaign("theorem", trials, seed, np.inf, min, trial)


def fuzz_measurement(trials: int, dim_max: int, seed: int) -> dict:
    """Purity bookkeeping under basis-aligned measurements.

    Even trials use mixed states, odd trials pure ones (whose projected
    entropy must equal the erased off-block weight outright). Checks:
    purity identity within 1e-10, entropy gain == off-block weight within
    1e-10, entropy never decreases within 1e-9.
    """
    def trial(t, rng):
        dim = _dim(rng, dim_max)
        if t % 2 == 0:
            rho = random_density(dim, rng)
        else:
            rho = density_from_pure(random_pure_state(dim, rng))
        blocks = random_partition(dim, rng)
        ps = projectors_from_partition(blocks, dim)
        projected_purity, mass = purity_decomposition(rho, ps)
        residual = abs(purity(rho) - (projected_purity + mass))
        gain = entropy_gain(rho, ps)
        gain_residual = abs(gain - mass)
        values = [residual, gain_residual]
        bad = []
        if not residual <= 1e-10:
            bad.append(f"purity identity residual {residual!r}")
        if not gain_residual <= 1e-10:
            bad.append(f"entropy gain {gain!r} != off-block weight {mass!r}")
        if not entropy_nondecreasing(rho, ps, tol=1e-9):
            bad.append("entropy decreased under measurement")
        if t % 2 == 1:
            pure_residual = abs((1.0 - projected_purity) - mass)
            values.append(pure_residual)
            if not pure_residual <= 1e-10:
                bad.append(f"pure-state projected entropy residual {pure_residual!r}")
        return values, bad, lambda: {"state": matrix_to_json(rho),
                                     "partition": {"blocks": blocks}}

    return _campaign("prop1", trials, seed, 0.0, max, trial)


def fuzz_mixing(trials: int, dim_max: int, seed: int) -> dict:
    """Mixing bound on random ensembles (pure members on even trials,
    mixed on odd; slack >= -1e-9 either way)."""
    def trial(t, rng):
        dim = _dim(rng, dim_max)
        n = int(rng.integers(2, _MAX_COMPONENTS + 1))
        ens = random_ensemble(dim, n, rng, pure=(t % 2 == 0))
        slack = mixing_bound_report(ens).slack
        bad = [] if slack >= -1e-9 else [f"slack {slack!r} < -1e-9"]
        return (slack,), bad, lambda: {
            "ensemble": {"weights": [float(w) for w in ens.weights],
                         "states": [matrix_to_json(s) for s in ens.states]}}

    return _campaign("prop2", trials, seed, np.inf, min, trial)


def fuzz_schmidt(trials: int, dim_a_max: int, dim_b_max: int, seed: int) -> dict:
    """Reduced-state entropies of random bipartite pure states agree
    within 1e-10, and each equals 1 - purity of its reduction."""
    def trial(t, rng):
        da = _dim(rng, dim_a_max)
        db = _dim(rng, dim_b_max)
        psi = random_pure_state(da * db, rng)
        h_a, h_b = schmidt_entropy_pair(psi, da, db)
        diff = abs(h_a - h_b)
        bad = [] if diff <= 1e-10 else [f"reduction entropies differ by {diff!r}"]
        return (diff,), bad, lambda: {"psi": matrix_to_json(psi.reshape(-1, 1)),
                                      "dims": [da, db]}

    return _campaign("schmidt", trials, seed, 0.0, max, trial)


def fuzz_bridge(trials: int, n_max: int, seed: int) -> dict:
    """Classical partition entropy vs quantum measurement entropy on the
    amplitude encoding, within 1e-10."""
    def trial(t, rng):
        n = _dim(rng, n_max)
        probs = random_distribution(n, rng)
        blocks = random_partition(n, rng)
        h_classical, h_quantum = bridge_entropies(probs, blocks)
        diff = abs(h_quantum - h_classical)
        bad = [] if diff <= 1e-10 else [f"bridge residual {diff!r}"]
        return (diff,), bad, lambda: {"distribution": {"probs": [float(p) for p in probs]},
                                      "partition": {"blocks": blocks}}

    return _campaign("bridge", trials, seed, 0.0, max, trial)


# Suite name -> runner on the CLI's knobs: dim_s_max bounds the primary dimension
# (system side, measured dimension, distribution size), dim_e_max the secondary
# one. Suites are looked up by name when called, so a wrapper put on the module
# attribute sees every call.
_RUNNERS = {
    "theorem": lambda n, ds, de, seed: fuzz_bound(n, ds, de, seed),
    "prop1": lambda n, ds, de, seed: fuzz_measurement(n, ds, seed),
    "prop2": lambda n, ds, de, seed: fuzz_mixing(n, ds, seed),
    "schmidt": lambda n, ds, de, seed: fuzz_schmidt(n, ds, de, seed),
    "bridge": lambda n, ds, de, seed: fuzz_bridge(n, ds, seed),
}
SUITES = tuple(_RUNNERS)


def run_suite(suite: str, trials: int, dim_s_max: int, dim_e_max: int, seed: int) -> dict:
    """Run one suite, or every suite for "all", with the CLI's dimension knobs."""
    if suite in _RUNNERS:
        return _RUNNERS[suite](trials, dim_s_max, dim_e_max, seed)
    if suite == "all":
        subs = [_RUNNERS[s](trials, dim_s_max, dim_e_max, seed) for s in SUITES]
        slacks = [r["worst_slack"] for r in subs
                  if r["suite"] in ("theorem", "prop2") and r["worst_slack"] is not None]
        return {"suite": "all",
                "trials": sum(r["trials"] for r in subs),
                "failures": sum(r["failures"] for r in subs),
                "worst_slack": min(slacks) if slacks else None,
                "seed": seed,
                "suites": subs}
    raise ValueError(f"unknown suite {suite!r}; choose from {SUITES + ('all',)}")
