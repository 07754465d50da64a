import dataclasses
import json
import math

import numpy as np
import numpy.testing as npt
import pytest

import logent.fuzz
from logent.fuzz import (SUITES, fuzz_bound, fuzz_bridge, fuzz_measurement,
                         fuzz_mixing, fuzz_schmidt, run_suite)
from logent.channels import CouplingModel, verify_entropy_bound
from logent.classical import bridge_entropies, random_distribution, random_partition
from logent.measurement import (entropy_gain, entropy_nondecreasing, projectors_from_partition,
                                purity_decomposition)
from logent.mixing import mixing_bound_report, random_ensemble, schmidt_entropy_pair
from logent.serialization import matrix_from_json
from logent.states import (density_from_pure, purity, random_density, random_pure_state,
                           random_unitary)


def test_all_suites_clean_on_small_runs():
    assert fuzz_bound(25, 4, 3, seed=0)["failures"] == 0
    assert fuzz_measurement(25, 8, seed=1)["failures"] == 0
    assert fuzz_mixing(25, 5, seed=2)["failures"] == 0
    assert fuzz_schmidt(25, 4, 4, seed=3)["failures"] == 0
    assert fuzz_bridge(25, 10, seed=4)["failures"] == 0


def test_identical_runs_are_identical():
    a = run_suite("all", 10, 4, 3, seed=7)
    b = run_suite("all", 10, 4, 3, seed=7)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_trivial_dimension_one():
    for suite in SUITES:
        summary = run_suite(suite, 1, 1, 1, seed=0)
        assert summary["failures"] == 0


def test_trials_split_by_seed():
    # trial t uses seed + t, so a two-trial run decomposes exactly
    pair = fuzz_bound(2, 4, 3, seed=10)
    first = fuzz_bound(1, 4, 3, seed=10)
    second = fuzz_bound(1, 4, 3, seed=11)
    assert pair["worst_slack"] == min(first["worst_slack"],
                                      second["worst_slack"])


def test_zero_trials_has_null_worst():
    summary = fuzz_bound(0, 4, 3, seed=0)
    assert summary["trials"] == 0
    assert summary["worst_slack"] is None


def test_summary_shape():
    summary = fuzz_measurement(5, 6, seed=9)
    assert set(summary) == {"suite", "trials", "failures", "worst_slack",
                            "seed", "failed_trials"}
    assert summary["suite"] == "prop1"
    assert summary["seed"] == 9


def test_aggregate_counts_every_suite():
    combined = run_suite("all", 4, 4, 3, seed=5)
    assert combined["trials"] == 4 * len(SUITES)
    assert len(combined["suites"]) == len(SUITES)
    assert combined["failures"] == sum(r["failures"] for r in combined["suites"])


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nonsense", 5, 4, 3, seed=0)


def test_failing_trials_are_counted_and_recorded(monkeypatch):
    real = logent.fuzz.verify_entropy_bound

    def broken(rho, model):
        return dataclasses.replace(real(rho, model), slack=-1.0)

    monkeypatch.setattr(logent.fuzz, "verify_entropy_bound", broken)
    seed, trials = 20, 5
    summary = fuzz_bound(trials, 4, 3, seed)
    assert summary["failures"] == trials
    assert summary["worst_slack"] == -1.0
    assert len(summary["failed_trials"]) == 3
    for record in summary["failed_trials"]:
        t = record["trial"]
        assert record["seed"] == seed + t
        assert record["checks"] == ["slack -1.0 < -1e-9"]
        # trial t replays from default_rng(seed + t) alone
        rng = np.random.default_rng(seed + t)
        ds = int(rng.integers(2, 5))
        de = int(rng.integers(2, 4))
        u = random_unitary(ds * de, rng)
        npt.assert_array_equal(matrix_from_json(record["state"]),
                               density_from_pure(random_pure_state(ds, rng)))
        npt.assert_array_equal(matrix_from_json(record["model"]["unitary"]), u)
        assert (record["model"]["dim_s"], record["model"]["dim_e"]) == (ds, de)


def test_nan_slack_counts_as_failure(monkeypatch):
    real = logent.fuzz.verify_entropy_bound

    def broken(rho, model):
        return dataclasses.replace(real(rho, model), slack=float("nan"))

    monkeypatch.setattr(logent.fuzz, "verify_entropy_bound", broken)
    trials = 4
    summary = fuzz_bound(trials, 4, 3, seed=0)
    assert summary["failures"] == trials
    assert summary["worst_slack"] is None  # NaN wins the fold, written as null


def test_one_nan_slack_wins_the_fold(monkeypatch):
    real = logent.fuzz.verify_entropy_bound
    calls = iter(range(100))

    def broken(rho, model):
        report = real(rho, model)
        return dataclasses.replace(report, slack=float("nan")) if next(calls) == 0 else report

    monkeypatch.setattr(logent.fuzz, "verify_entropy_bound", broken)
    summary = fuzz_bound(6, 4, 3, seed=0)
    assert summary["failures"] == 1
    assert summary["worst_slack"] is None  # one NaN among finite slacks still wins


# The serial oracle: each suite's trials one at a time through the public
# per-instance functions, on the same default_rng(seed + t) draws, folded in
# trial order. run_suite must give exactly its summaries.

def _oracle_dim(rng, dim_max):
    return int(rng.integers(2 if dim_max >= 2 else 1, dim_max + 1))


def _oracle_trial(suite, t, rng, dim_s_max, dim_e_max):
    """(values, failed checks) of trial t, as the serial campaigns made them."""
    if suite == "theorem":
        ds, de = _oracle_dim(rng, dim_s_max), _oracle_dim(rng, dim_e_max)
        model = CouplingModel(random_unitary(ds * de, rng), dim_s=ds, dim_e=de)
        r = verify_entropy_bound(density_from_pure(random_pure_state(ds, rng)), model)
        bad = [f"slack {r.slack!r} < -1e-9"] if not r.slack >= -1e-9 else []
        if not r.projected_equals_bound:
            bad.append(f"projected {r.projected_entropy!r} != bound {r.bound!r}")
        if not r.entropy_le_projected:
            bad.append(f"entropy {r.entropy!r} > projected {r.projected_entropy!r}")
        return (r.slack,), bad
    if suite == "prop1":
        dim = _oracle_dim(rng, dim_s_max)
        rho = random_density(dim, rng) if t % 2 == 0 else density_from_pure(random_pure_state(dim, rng))
        ps = projectors_from_partition(random_partition(dim, rng), dim)
        projected, mass = purity_decomposition(rho, ps)
        residual = abs(purity(rho) - (projected + mass))
        gain = entropy_gain(rho, ps)
        values = [residual, abs(gain - mass)]
        bad = [] if residual <= 1e-10 else [f"purity identity residual {residual!r}"]
        bad += [] if values[1] <= 1e-10 else [f"entropy gain {gain!r} != off-block weight {mass!r}"]
        bad += [] if entropy_nondecreasing(rho, ps, tol=1e-9) else ["entropy decreased under measurement"]
        if t % 2 == 1:
            values.append(abs((1.0 - projected) - mass))
            bad += [] if values[2] <= 1e-10 else [f"pure-state projected entropy residual {values[2]!r}"]
        return values, bad
    if suite == "prop2":
        dim = _oracle_dim(rng, dim_s_max)
        ens = random_ensemble(dim, int(rng.integers(2, 7)), rng, pure=(t % 2 == 0))
        slack = mixing_bound_report(ens).slack
        return (slack,), [] if slack >= -1e-9 else [f"slack {slack!r} < -1e-9"]
    if suite == "schmidt":
        da, db = _oracle_dim(rng, dim_s_max), _oracle_dim(rng, dim_e_max)
        h_a, h_b = schmidt_entropy_pair(random_pure_state(da * db, rng), da, db)
        diff = abs(h_a - h_b)
        return (diff,), [] if diff <= 1e-10 else [f"reduction entropies differ by {diff!r}"]
    n = _oracle_dim(rng, dim_s_max)
    h_classical, h_quantum = bridge_entropies(random_distribution(n, rng), random_partition(n, rng))
    diff = abs(h_quantum - h_classical)
    return (diff,), [] if diff <= 1e-10 else [f"bridge residual {diff!r}"]


def _oracle(suite, trials, dim_s_max, dim_e_max, seed):
    """The summary of the serial campaign, failed trials without their inputs."""
    pick, worst = (min, math.inf) if suite in ("theorem", "prop2") else (max, 0.0)
    failures, failed = 0, []
    for t in range(trials):
        values, bad = _oracle_trial(suite, t, np.random.default_rng(seed + t), dim_s_max, dim_e_max)
        worst = pick(worst, *values)
        if any(math.isnan(v) for v in values):
            worst = math.nan
        if bad:
            failures += 1
            failed.append({"trial": t, "seed": seed + t, "checks": bad})
    return {"suite": suite, "trials": trials, "failures": failures,
            "worst_slack": float(worst) if trials and math.isfinite(worst) else None,
            "seed": seed, "failed_trials": failed[:3]}


def _without_inputs(summary):
    keys = ("trial", "seed", "checks")
    return dict(summary, failed_trials=[{k: r[k] for k in keys} for r in summary["failed_trials"]])


@pytest.mark.parametrize("dims_seed", [(6, 4, 42), (3, 2, 7), (1, 1, 0), (8, 5, 123)])
def test_batched_suites_match_the_serial_oracle(dims_seed):
    ds, de, seed = dims_seed
    for summary in run_suite("all", 100, ds, de, seed)["suites"]:
        want = _oracle(summary["suite"], 100, ds, de, seed)
        assert json.dumps(_without_inputs(summary)) == json.dumps(want)


def test_runs_longer_than_a_chunk_fold_the_oracle_values(monkeypatch):
    trials = logent.fuzz._CHUNK + 20
    for suite in ("prop1", "prop2", "schmidt"):
        assert json.dumps(run_suite(suite, trials, 5, 3, 3)) == json.dumps(_oracle(suite, trials, 5, 3, 3))
    # many small chunks give the same summaries as one
    monkeypatch.setattr(logent.fuzz, "_CHUNK", 7)
    for suite in SUITES:
        assert json.dumps(run_suite(suite, 30, 5, 3, 8)) == json.dumps(_oracle(suite, 30, 5, 3, 8))
    # and so do chunks cut at one trial by the byte budget
    monkeypatch.setattr(logent.fuzz, "_CHUNK_BYTES", 1)
    assert json.dumps(run_suite("theorem", 9, 5, 3, 8)) == json.dumps(_oracle("theorem", 9, 5, 3, 8))


def test_invalid_draws_raise_the_error_of_the_lowest_failing_trial(monkeypatch):
    # trials 1 and 2 draw weights summing to 1.1 and 1.3; trial 2 shares its
    # dimension with trial 0, so its group is evaluated first, yet the error
    # is trial 1's, as a serial campaign raised it
    dims = [int(np.random.default_rng(t).integers(2, 5)) for t in range(3)]
    assert dims[0] == dims[2] != dims[1]
    real, scale = logent.fuzz._draw_ensemble, iter([1.0, 1.1, 1.3])

    def skewed(dim, n, rng, pure):
        w, members = real(dim, n, rng, pure)
        return w * next(scale), members

    monkeypatch.setattr(logent.fuzz, "_draw_ensemble", skewed)
    with pytest.raises(ValueError, match="probabilities sum to 1.1,"):
        fuzz_mixing(3, 4, 0)


def test_failing_mixing_trials_are_counted_and_recorded(monkeypatch):
    real = logent.fuzz._mixing_bounds

    def broken(w, states):  # every mixture 1 above a bound of 0
        lhs, rhs, h_w = real(w, states)
        return np.ones_like(lhs), np.zeros_like(rhs), h_w

    monkeypatch.setattr(logent.fuzz, "_mixing_bounds", broken)
    seed, trials = 30, 5
    summary = fuzz_mixing(trials, 4, seed)
    assert summary["failures"] == trials
    assert summary["worst_slack"] == -1.0
    assert len(summary["failed_trials"]) == 3
    for record in summary["failed_trials"]:
        t = record["trial"]
        assert record["seed"] == seed + t
        assert record["checks"] == ["slack -1.0 < -1e-9"]
        # trial t replays from default_rng(seed + t) alone
        rng = np.random.default_rng(seed + t)
        dim = int(rng.integers(2, 5))
        ens = random_ensemble(dim, int(rng.integers(2, 7)), rng, pure=(t % 2 == 0))
        assert record["ensemble"]["weights"] == ens.weights.tolist()
        assert len(record["ensemble"]["states"]) == len(ens)
        for got, want in zip(record["ensemble"]["states"], ens.states):
            npt.assert_array_equal(matrix_from_json(got), want)


def test_short_runs_match_the_oracle_value_by_value():
    # with two trials a run, each trial's own values decide many summaries,
    # not only the most adverse value of a long run
    for seed in range(60):
        ds, de = 2 + seed % 7, 1 + seed % 4
        for suite in SUITES:
            assert json.dumps(run_suite(suite, 2, ds, de, seed)) == json.dumps(_oracle(suite, 2, ds, de, seed))


@pytest.mark.parametrize("suite", ["prop1", "prop2", "bridge"])
def test_large_dimensions_stay_within_the_chunk_budget(suite, peak_bytes):
    # a chunk holds at most _CHUNK_BYTES of the trials' largest stacked
    # arrays (projector sets, ensemble members), not _CHUNK trials of them
    peak = peak_bytes(lambda: run_suite(suite, 40, 48, 1, 1))
    assert peak < 2 * logent.fuzz._CHUNK_BYTES
