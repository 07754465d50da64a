import dataclasses
import inspect
import json
import math

import numpy as np
import numpy.testing as npt
import pytest

import logent.channels
import logent.fuzz
from logent.fuzz import (SUITES, fuzz_bound, fuzz_bridge, fuzz_measurement,
                         fuzz_mixing, fuzz_schmidt, run_suite)
from logent.channels import CouplingModel, extract_kraus, verify_entropy_bound
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


# how each suite folds its trials into worst_slack: inequality suites keep their
# smallest slack, identity suites their largest residual
FOLDS = {"theorem": min, "prop1": max, "prop2": min, "schmidt": max, "bridge": max}


@pytest.mark.parametrize("suite", SUITES)
def test_trials_split_by_seed(suite):
    # trial t uses seed + t, and prop1 and prop2 alternate their draws with t's
    # parity, so a four-trial run decomposes exactly into two two-trial runs;
    # at (6, 4) every suite's two halves differ (at (4, 3) prop1's both read 2**-52)
    four = run_suite(suite, 4, 6, 4, seed=10)
    first = run_suite(suite, 2, 6, 4, seed=10)
    second = run_suite(suite, 2, 6, 4, seed=12)
    assert first["worst_slack"] != second["worst_slack"]  # so that min and max differ
    assert four["worst_slack"] == FOLDS[suite](first["worst_slack"],
                                               second["worst_slack"])


def test_all_takes_the_smallest_slack_of_the_inequality_suites():
    combined = run_suite("all", 4, 4, 3, seed=5)
    worst = {r["suite"]: r["worst_slack"] for r in combined["suites"]}
    slacks = [worst[s] for s in SUITES if FOLDS[s] is min]
    assert len(slacks) == 2 and combined["worst_slack"] == min(slacks)
    assert min(worst.values()) < combined["worst_slack"]  # a residual is no slack


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


def test_dimension_bound_below_one_rejected():
    with pytest.raises(ValueError, match="^dimension bound must be >= 1, got 0$"):
        run_suite("theorem", 1, 0, 1, 0)


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
        # trial t replays from default_rng(seed + t) alone
        rng = np.random.default_rng(seed + t)
        ds = int(rng.integers(2, 5))
        de = int(rng.integers(2, 4))
        u = random_unitary(ds * de, rng)
        psi = random_pure_state(ds, rng)
        npt.assert_array_equal(matrix_from_json(record["state"]), density_from_pure(psi))
        npt.assert_array_equal(matrix_from_json(record["model"]["unitary"]), u)
        assert (record["model"]["dim_s"], record["model"]["dim_e"]) == (ds, de)
        # a slack of -1.0 also breaks slack = sum_{i != j} |W_ij|^2
        assert record["checks"][0] == "slack -1.0 < -1e-9" and len(record["checks"]) == 2
        tight = _off_diagonal_weight(CouplingModel(u, dim_s=ds, dim_e=de), psi)
        prefix, suffix = "slack -1.0 != off-diagonal weight ", " of W"
        assert record["checks"][1].startswith(prefix) and record["checks"][1].endswith(suffix)
        assert float(record["checks"][1][len(prefix):-len(suffix)]) == pytest.approx(tight, abs=1e-14)


def test_loose_bound_fails_only_the_gram_identity(monkeypatch):
    # a bound 50% too loose, with the projected entropy kept equal to it, passes the slack
    # and proof-step checks; slack = sum_{i != j} |W_ij|^2 for pure input is what catches it
    real = logent.fuzz.verify_entropy_bound

    def loose(rho, model):
        r = real(rho, model)
        bound, projected = 1.5 * r.bound, 1.5 * r.projected_entropy
        return dataclasses.replace(r, bound=bound, projected_entropy=projected, slack=bound - r.entropy,
                                   projected_equals_bound=abs(projected - bound) <= 1e-9,
                                   entropy_le_projected=r.entropy <= projected + 1e-9)

    monkeypatch.setattr(logent.fuzz, "verify_entropy_bound", loose)
    trials = 60
    summary = fuzz_bound(trials, 6, 4, 42)
    assert summary["failures"] == trials and summary["worst_slack"] >= 0.0
    for record in summary["failed_trials"]:
        (check,) = record["checks"]
        assert check.startswith("slack ") and check.endswith(" of W") and "!= off-diagonal weight" in check


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


def edited_exchange(old, new):
    """channels._exchange with the one source edit old -> new: a mutant of the kernel."""
    source = inspect.getsource(logent.channels._exchange)
    assert source.count(old) == 1
    namespace = dict(vars(logent.channels))
    exec(source.replace(old, new), namespace)
    return namespace["_exchange"]


def test_the_slack_identity_reads_the_kernel_exchange_entropy_reads(monkeypatch):
    # the theorem suite's slack == bound - entropy reads exchange_entropy's own kernel on the
    # raw Kraus stack, so a W that drops its conjugate fails the campaign, which passes with the real one
    assert logent.fuzz._exchange is logent.channels._exchange
    assert fuzz_bound(50, 4, 3, 0)["failures"] == 0
    monkeypatch.setattr(logent.fuzz, "_exchange", edited_exchange("flat.conj()", "flat"))
    summary = fuzz_bound(50, 4, 3, 0)
    assert summary["failures"] > 0
    for record in summary["failed_trials"]:
        (check,) = record["checks"]
        assert "!= off-diagonal weight" in check and check.endswith(" of W")


@pytest.mark.parametrize("old, new", [
    ("_purities(w)", "(w * w).sum(axis=(-2, -1)).real"),  # the purity of W without its conjugate
    ("(p * p.swapaxes(-1, -2))", "1.5 * (p * p.swapaxes(-1, -2))"),  # the exchange bound x 1.5
], ids=["exchange_entropy_no_conj", "exchange_bound_loose"])
def test_an_exchange_report_mutant_fails_the_theorem_campaign(old, new, monkeypatch):
    # each fails all 200 trials: the slack identity checks exchange_entropy's arithmetic on every trial
    assert run_suite("theorem", 200, 6, 4, 42)["failures"] == 0
    monkeypatch.setattr(logent.fuzz, "_exchange", edited_exchange(old, new))
    assert run_suite("theorem", 200, 6, 4, 42)["failures"] >= 190


def test_a_measurement_that_leaves_the_state_as_it_is_fails_the_campaign(monkeypatch):
    # the gain check reads the measured state's purity, and the off-block weight from
    # rho∘rhoᵀ without the measured state, so a measurement that erases nothing fails it
    assert run_suite("prop1", 200, 6, 4, 42)["failures"] == 0
    monkeypatch.setattr(logent.fuzz, "_measured", lambda rho, labels: rho)
    assert run_suite("prop1", 200, 6, 4, 42)["failures"] > 0


@pytest.mark.parametrize("suite, kernel", [("prop1", "_partition_split"), ("prop2", "_mixing_bounds")])
def test_an_odd_trial_replays_as_the_last_trial_of_a_run_one_trial_longer(suite, kernel, monkeypatch):
    # trial t of seed s replays as the last trial of --seed s --trials t+1; prop1 and prop2 take
    # a trial's kind from t % 2, so --seed s+t --trials 1 draws trial t's seed as the other kind
    real = getattr(logent.fuzz, kernel)

    def broken(*args):  # every trial fails its first check, so each records its inputs
        first, *rest = real(*args)
        return (first + 1.0, *rest)

    monkeypatch.setattr(logent.fuzz, kernel, broken)
    s, t = 10, 1
    original = run_suite(suite, 3, 4, 3, s)["failed_trials"][t]
    replay = run_suite(suite, t + 1, 4, 3, s)["failed_trials"][-1]
    shifted = run_suite(suite, 1, 4, 3, s + t)["failed_trials"][0]
    assert replay == original and (replay["trial"], replay["seed"]) == (t, s + t)
    assert shifted["seed"] == s + t

    def first_purity(record):  # prop1's odd trials draw a pure state, prop2's odd trials mixed members
        m = record["state"] if suite == "prop1" else record["ensemble"]["states"][0]
        return purity(matrix_from_json(m))

    pure_odd = suite == "prop1"
    assert (first_purity(replay) == pytest.approx(1.0)) == pure_odd
    assert (first_purity(shifted) == pytest.approx(1.0)) != pure_odd


# The serial oracle: each suite's trials one at a time through the public
# per-instance functions, on the same default_rng(seed + t) draws, folded in
# trial order. run_suite must give exactly its summaries.

def _oracle_dim(rng, dim_max):
    return int(rng.integers(2 if dim_max >= 2 else 1, dim_max + 1))


def _off_diagonal_weight(model, psi):
    """sum_{i != j} |W_ij|^2 for W_ij = <E_j psi|E_i psi>, which for pure input is the slack."""
    phi = [e @ psi for e in extract_kraus(model)]
    return sum(abs(np.vdot(b, a)) ** 2 for i, a in enumerate(phi) for j, b in enumerate(phi) if i != j)


def _oracle_trial(suite, t, rng, dim_s_max, dim_e_max):
    """(values, failed checks) of trial t, as the serial campaigns made them."""
    if suite == "theorem":
        ds, de = _oracle_dim(rng, dim_s_max), _oracle_dim(rng, dim_e_max)
        model = CouplingModel(random_unitary(ds * de, rng), dim_s=ds, dim_e=de)
        psi = random_pure_state(ds, rng)
        r = verify_entropy_bound(density_from_pure(psi), model)
        bad = [f"slack {r.slack!r} < -1e-9"] if not r.slack >= -1e-9 else []
        if not r.projected_equals_bound:
            bad.append(f"projected {r.projected_entropy!r} != bound {r.bound!r}")
        if not r.entropy_le_projected:
            bad.append(f"entropy {r.entropy!r} > projected {r.projected_entropy!r}")
        tight = _off_diagonal_weight(model, psi)
        if not abs(r.slack - tight) <= 1e-10:
            bad.append(f"slack {r.slack!r} != off-diagonal weight {tight!r} of W")
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
        bad += [] if entropy_nondecreasing(rho, ps) else ["entropy decreased under measurement"]
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
