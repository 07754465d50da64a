import dataclasses
import json

import numpy as np
import numpy.testing as npt
import pytest

import logent.fuzz
from logent.fuzz import (SUITES, fuzz_bound, fuzz_bridge, fuzz_measurement,
                         fuzz_mixing, fuzz_schmidt, run_suite)
from logent.serialization import matrix_from_json
from logent.states import density_from_pure, random_pure_state, random_unitary


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
