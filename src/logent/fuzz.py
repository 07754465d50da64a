"""Randomized verification campaigns.

Each suite replays one identity or inequality across many seeded random
instances. Determinism contract: trial t of a campaign with root seed s
uses exactly numpy's default_rng(s + t), so any failing trial can be
regenerated from the summary alone, and trials could be farmed out in
parallel without changing the outcome.

A campaign runs in chunks of trials, bounded in count and in the bytes
of their largest arrays. Each chunk's trials are drawn in trial order,
grouped by shape, and each group is evaluated at once through the same
private stacked kernels that the public functions run on a single
instance; the results are folded back in trial order. So the summary
does not depend on the grouping or the chunk size. A group's ensembles
form one regular stack, each padded to the group's largest member count
with zero-weight zero members, which leave every sum as it is; its
partition projectors are checked as partitions, the data they are built
from, rather than pair by pair. The theorem suite
stacks its draws, then builds each trial's model and report with the
public CouplingModel and verify_entropy_bound it checks.

Suite names follow the command-line interface: "theorem" (the off-block
bound), "prop1" (measurement purity bookkeeping), "prop2" (the mixing
bound), "schmidt" (equal entropies of the two reductions of a bipartite
pure state), "bridge" (classical partition entropy vs measurement).

Summaries are plain dicts: {suite, trials, failures, worst_slack, seed,
failed_trials}. worst_slack is the most adverse value seen of the
suite's primary quantity: the minimum slack for inequality suites, the
largest residual for identity suites, and null when that is not finite
(a NaN value wins the fold). Every check is written so that a NaN value
fails it.
"""
from __future__ import annotations

import math

import numpy as np

from .channels import CouplingModel, _channel, verify_entropy_bound
from .classical import _bridges, random_distribution, random_partition, validate_distribution
from .linalg import DEFAULT_TOL
from .measurement import _entropy_gains, _nondecreasing, _partition_projectors, _purity_split
from .mixing import _draw_ensemble, _mixing_bounds, _schmidt_pairs
from .serialization import matrix_to_json, model_to_json
from .states import (_gaussian, _haar, _pure_densities, _purities, _random_states, _unit,
                     _validate_densities)

_MAX_RECORDED = 3  # failing trials kept in the summary, with full inputs
_MAX_COMPONENTS = 6  # largest ensemble drawn by the mixing suite
_CHUNK = 128  # most trials drawn and evaluated together
_CHUNK_BYTES = 1 << 23  # and most bytes of the trials' largest stacked arrays
_GATE = 1e-9  # slacks and entropy monotonicity may fall this far below zero
_IDENTITY = 1e-10  # largest residual of an identity
_GATE_TEXT = np.format_float_scientific(_GATE, trim="-", exp_digits=1)  # "1e-9"


def _dim(rng: np.random.Generator, dim_max: int) -> int:
    """Per-trial dimension in {2..dim_max}, or 1 when dim_max is 1."""
    if dim_max < 1:
        raise ValueError(f"dimension bound must be >= 1, got {dim_max}")
    lo = 2 if dim_max >= 2 else 1
    return int(rng.integers(lo, dim_max + 1))


def _campaign(suite: str, trials: int, seed: int, worst0: float, pick, draw, evaluate) -> dict:
    """Run trials t < trials, each drawn by draw(t, rng) on rng = default_rng(seed + t).

    draw returns (key, nbytes, draws), nbytes the size of the trial's
    largest array in evaluation: a chunk holds at most _CHUNK trials and
    _CHUNK_BYTES of such arrays, so memory stays bounded at any dimension
    (the kernels' temporaries are a few of them). Trials with equal keys
    have draws of equal shapes and are evaluated together by
    evaluate(key, [draws, ...]), which returns (values, checks, inputs)
    over the group: values, arrays folded
    in trial order into the running worst with pick (min for slacks, max
    for residuals), where a NaN wins and then sticks; checks, (ok, message)
    pairs with message(m) the failure text of member m; inputs(m), the JSON
    inputs of a failing member, built for the first _MAX_RECORDED failures.
    When a group raises, the chunk is evaluated again one trial at a time,
    so that the lowest failing trial raises its own error.
    """
    failures, worst, recorded, t = 0, worst0, [], 0
    while t < trials:
        chunk, size = [], 0
        while t < trials and len(chunk) < _CHUNK and size < _CHUNK_BYTES:
            key, nbytes, draws = draw(t, np.random.default_rng(seed + t))
            chunk.append((key, draws))
            size, t = size + nbytes, t + 1
        groups = {}
        for m, (key, _) in enumerate(chunk):
            groups.setdefault(key, []).append(m)
        results = [None] * len(chunk)
        try:
            for key, members in groups.items():
                values, checks, inputs = evaluate(key, [chunk[m][1] for m in members])
                for i, (m, row) in enumerate(zip(members, np.stack(values, axis=1).tolist())):
                    results[m] = (row, [message(i) for ok, message in checks if not ok[i]], inputs, i)
        except (ValueError, AssertionError):
            for key, draws in chunk:
                evaluate(key, [draws])
            raise
        for m, (values, bad, inputs, i) in enumerate(results, start=t - len(chunk)):
            worst = math.nan if any(map(math.isnan, values)) else pick(worst, *values)
            if bad:
                failures += 1
                if len(recorded) < _MAX_RECORDED:
                    recorded.append({"trial": m, "seed": seed + m, "checks": bad, **inputs(i)})
    return {"suite": suite, "trials": trials, "failures": failures,
            "worst_slack": float(worst) if trials and math.isfinite(worst) else None,
            "seed": seed, "failed_trials": recorded}


def _slack_check(slack: np.ndarray) -> tuple:
    return slack >= -_GATE, lambda m: f"slack {float(slack[m])!r} < -{_GATE_TEXT}"


def fuzz_bound(trials: int, dim_s_max: int, dim_e_max: int, seed: int) -> dict:
    """Off-block bound on Haar-random couplings of random pure states.

    Checks per trial: slack >= -1e-9, and the report's two proof steps
    (projected entropy equals the bound, output entropy does not exceed
    the projected entropy, both within verify_entropy_bound's tol). Each
    trial's model and report come from the public CouplingModel and
    verify_entropy_bound, the functions this suite checks.
    """
    def draw(t, rng):
        ds, de = _dim(rng, dim_s_max), _dim(rng, dim_e_max)
        return (ds, de), 16 * (ds * de) ** 2, (_gaussian((ds * de, ds * de), rng), _gaussian(ds, rng))

    def evaluate(key, draws):
        g, v = (np.array(x) for x in zip(*draws))
        models = [CouplingModel(u, dim_s=key[0], dim_e=key[1]) for u in _haar(g)]
        rho = _pure_densities(_unit(v))
        r = [verify_entropy_bound(x, model) for x, model in zip(rho, models)]
        slack = np.array([x.slack for x in r])
        return [slack], [
            _slack_check(slack),
            ([x.projected_equals_bound for x in r],
             lambda m: f"projected {r[m].projected_entropy!r} != bound {r[m].bound!r}"),
            ([x.entropy_le_projected for x in r],
             lambda m: f"entropy {r[m].entropy!r} > projected {r[m].projected_entropy!r}"),
        ], lambda m: {"state": matrix_to_json(rho[m]), "model": model_to_json(models[m])}

    return _campaign("theorem", trials, seed, np.inf, min, draw, evaluate)


def fuzz_measurement(trials: int, dim_max: int, seed: int) -> dict:
    """Purity bookkeeping under basis-aligned measurements.

    Even trials use mixed states, odd trials pure ones (whose projected
    entropy must equal the erased off-block weight outright). Checks:
    purity identity within 1e-10, entropy gain == off-block weight within
    1e-10, entropy never decreases within 1e-9.
    """
    def draw(t, rng):
        dim = _dim(rng, dim_max)
        state = _gaussian(dim if t % 2 else (dim, dim), rng)
        blocks = random_partition(dim, rng)
        return (dim, len(blocks), t % 2 == 1), 16 * len(blocks) * dim * dim, (state, blocks)

    def evaluate(key, draws):
        raw, partitions = zip(*draws)
        rho = _random_states(np.array(raw), key[2])
        ps = _partition_projectors(partitions, key[0])
        projected, mass = _purity_split(rho, ps)
        rho_hat = _channel(rho, ps)
        gain = _entropy_gains(rho, rho_hat)
        values = [np.abs(_purities(rho) - (projected + mass)), np.abs(gain - mass)]
        checks = [
            (values[0] <= _IDENTITY, lambda m: f"purity identity residual {float(values[0][m])!r}"),
            (values[1] <= _IDENTITY,
             lambda m: f"entropy gain {float(gain[m])!r} != off-block weight {float(mass[m])!r}"),
            (_nondecreasing(rho, rho_hat, _GATE), lambda m: "entropy decreased under measurement"),
        ]
        if key[2]:  # only a pure state's projected entropy is the erased off-block weight
            values.append(np.abs((1.0 - projected) - mass))
            checks.append((values[2] <= _IDENTITY,
                           lambda m: f"pure-state projected entropy residual {float(values[2][m])!r}"))
        return values, checks, lambda m: {"state": matrix_to_json(rho[m]),
                                          "partition": {"blocks": partitions[m]}}

    return _campaign("prop1", trials, seed, 0.0, max, draw, evaluate)


def fuzz_mixing(trials: int, dim_max: int, seed: int) -> dict:
    """Mixing bound on random ensembles (pure members on even trials,
    mixed on odd; slack >= -1e-9 either way)."""
    def draw(t, rng):
        dim = _dim(rng, dim_max)
        n = int(rng.integers(2, _MAX_COMPONENTS + 1))
        # members are padded to the group's largest member count, at most _MAX_COMPONENTS
        return (dim, t % 2 == 0), 16 * _MAX_COMPONENTS * dim * dim, _draw_ensemble(dim, n, rng, pure=t % 2 == 0)

    def evaluate(key, draws):
        w, raw = zip(*draws)
        states = _random_states(np.concatenate(raw), key[1])
        _validate_densities(states, DEFAULT_TOL)  # Ensemble's checks: the members, then the weights
        w = [validate_distribution(x) for x in w]
        counts = np.array([len(x) for x in w])
        inside = np.arange(counts.max()) < counts[:, None]  # each row's members, then zero padding
        weights, members = np.zeros(inside.shape), np.zeros((*inside.shape, *states.shape[1:]), states.dtype)
        weights[inside], members[inside] = np.concatenate(w), states
        lhs, rhs, _ = _mixing_bounds(weights, members)
        slack = rhs - lhs
        return [slack], [_slack_check(slack)], lambda m: {"ensemble": {
            "weights": w[m].tolist(), "states": [matrix_to_json(s) for s in members[m, :len(w[m])]]}}

    return _campaign("prop2", trials, seed, np.inf, min, draw, evaluate)


def fuzz_schmidt(trials: int, dim_a_max: int, dim_b_max: int, seed: int) -> dict:
    """Reduced-state entropies of random bipartite pure states agree
    within 1e-10, and each equals 1 - purity of its reduction."""
    def draw(t, rng):
        da, db = _dim(rng, dim_a_max), _dim(rng, dim_b_max)
        return (da, db), 16 * (da * db) ** 2, (_gaussian(da * db, rng),)

    def evaluate(key, draws):
        psi = _unit(np.array([v for v, in draws]))
        h_a, h_b = _schmidt_pairs(psi, *key)
        diff = np.abs(h_a - h_b)
        return [diff], [(diff <= _IDENTITY, lambda m: f"reduction entropies differ by {float(diff[m])!r}")], \
            lambda m: {"psi": matrix_to_json(psi[m].reshape(-1, 1)), "dims": list(key)}

    return _campaign("schmidt", trials, seed, 0.0, max, draw, evaluate)


def fuzz_bridge(trials: int, n_max: int, seed: int) -> dict:
    """Classical partition entropy vs quantum measurement entropy on the
    amplitude encoding, within 1e-10."""
    def draw(t, rng):
        n = _dim(rng, n_max)
        # projectors are padded to the group's largest block count, at most n
        return n, 16 * n ** 3, (random_distribution(n, rng), random_partition(n, rng))

    def evaluate(key, draws):
        probs, partitions = zip(*draws)
        h_classical, h_quantum = _bridges(np.array(probs), partitions)
        diff = np.abs(h_quantum - h_classical)
        return [diff], [(diff <= _IDENTITY, lambda m: f"bridge residual {float(diff[m])!r}")], \
            lambda m: {"distribution": {"probs": probs[m].tolist()}, "partition": {"blocks": partitions[m]}}

    return _campaign("bridge", trials, seed, 0.0, max, draw, evaluate)


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
        slacks = [r["worst_slack"] for r in subs if r["suite"] in ("theorem", "prop2")]
        return {"suite": "all",
                "trials": sum(r["trials"] for r in subs),
                "failures": sum(r["failures"] for r in subs),
                "worst_slack": None if None in slacks else min(slacks),
                "seed": seed,
                "suites": subs}
    raise ValueError(f"unknown suite {suite!r}; choose from {SUITES + ('all',)}")
