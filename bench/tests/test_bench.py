"""Tests of the benchmark itself: oracles, span arithmetic and error counting.

Run from the repository root with  python3 -m pytest bench/tests
"""
import json
import os

import numpy as np
import pytest

import layers
import oracles
import run
import tracing


def dense_route(u, rho, dim_s, dim_e):
    """Joint state U (|0><0| (x) rho) U†, its reductions and block weights."""
    env0 = np.zeros((dim_e, dim_e))
    env0[0, 0] = 1.0
    joint = u @ np.kron(env0, rho) @ u.conj().T
    t = joint.reshape(dim_e, dim_s, dim_e, dim_s)
    out = np.trace(t, axis1=0, axis2=2)
    env = np.trace(t, axis1=1, axis2=3)
    weights = np.sum(np.abs(t) ** 2, axis=(1, 3))
    return out, env, float(np.sum(weights) - np.trace(weights))


@pytest.mark.parametrize("dims", [(2, 2), (3, 4), (5, 3)])
def test_gram_oracle_matches_dense_joint_state(dims):
    ds, de = dims
    rng = np.random.default_rng(7)
    u = oracles.haar_unitary(ds * de, rng)
    psi = oracles.pure_state(ds, rng)
    out, _, bound = dense_route(u, np.outer(psi, psi.conj()), ds, de)
    got = oracles.gram_pure(u, psi, ds, de)
    assert got["entropy"] == pytest.approx(1.0 - oracles.purity(out), abs=1e-13)
    assert got["bound"] == pytest.approx(bound, abs=1e-13)
    assert got["slack"] >= -1e-13


def test_exchange_oracle_is_environment_entropy():
    ds, de = 3, 4
    rng = np.random.default_rng(8)
    u = oracles.haar_unitary(ds * de, rng)
    rho = oracles.mixed_state(ds, rng)
    _, env, _ = dense_route(u, rho, ds, de)
    w = oracles.env_matrix(oracles.kraus(u, ds, de), rho)
    assert np.max(np.abs(w - env)) < 1e-13
    got = oracles.exchange(u, rho, ds, de)
    assert got["entropy"] == pytest.approx(1.0 - oracles.purity(env), abs=1e-13)
    assert got["bound"] == pytest.approx(1.0 - float(np.sum(np.diagonal(env).real ** 2)),
                                         abs=1e-13)


def test_apply_and_off_block_bound_match_dense_route():
    ds, de = 3, 2
    rng = np.random.default_rng(9)
    u = oracles.haar_unitary(ds * de, rng)
    rho = oracles.mixed_state(ds, rng)
    out, _, bound = dense_route(u, rho, ds, de)
    ops = oracles.kraus(u, ds, de)
    assert np.max(np.abs(oracles.apply_channel(ops, rho) - out)) < 1e-13
    assert oracles.off_block_bound(ops, rho) == pytest.approx(bound, abs=1e-13)


def test_matrix_json_round_trips_exactly():
    m = oracles.mixed_state(4, np.random.default_rng(10))
    assert np.array_equal(oracles.wire_matrix(json.loads(oracles.matrix_json(m))), m)


def test_self_times_on_synthetic_span_tree():
    # op:  a [0, 10] -> b [1, 4] -> d [2, 3]
    #                -> c [5, 9]
    #      e [11, 12]            (a second top-level span)
    start = [0.0, 1.0, 2.0, 5.0, 11.0]
    end = [10.0, 4.0, 3.0, 9.0, 12.0]
    parent = [-1, 0, 1, 0, -1]
    own = tracing.self_times(start, end, parent)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0, 1.0]
    # Self times telescope to the top-level durations.
    assert own.sum() == 10.0 + 1.0


def test_tracer_wraps_every_binding_and_restores_them():
    import logent
    import logent.channels
    import logent.fuzz

    original = logent.channels.verify_entropy_bound
    init = logent.channels.CouplingModel.__init__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert logent.fuzz.verify_entropy_bound is logent.channels.verify_entropy_bound
        assert logent.verify_entropy_bound is logent.channels.verify_entropy_bound
        assert logent.channels.verify_entropy_bound is not original
        tracer.current_op = 0
        summary = logent.fuzz.run_suite("theorem", 2, 3, 2, 0)
    finally:
        tracer.uninstall()
    assert logent.channels.verify_entropy_bound is original
    assert logent.fuzz.verify_entropy_bound is original
    assert logent.channels.CouplingModel.__init__ is init
    assert summary["failures"] == 0
    a = tracer.arrays()
    calls, busy = tracing.inclusive(tracer.names, a, "fuzz.run_suite")
    assert calls == 1 and busy > 0
    assert tracing.inclusive(tracer.names, a, "channels.verify_entropy_bound")[0] == 2
    assert tracing.inclusive(tracer.names, a, "channels.CouplingModel")[0] == 2
    assert set(a["op"].tolist()) == {0}
    assert a["parent"][0] == -1 and np.all(a["parent"][1:] >= 0)


def test_layer_shares_and_residual_sum_to_one():
    tracer = tracing.Tracer()
    f = tracer.wrap(lambda: None, "states.purity")
    g = tracer.wrap(lambda: f(), "channels.couple")
    g()
    wall = (tracer.end[0] - tracer.start[0]) * 2
    out = tracing.layer_metrics(tracer.names, tracer.arrays(), wall, 1,
                                ["channels.couple", "states.purity"])
    shares = [v for k, v in out.items() if k.endswith("self_share")]
    assert sum(shares) == pytest.approx(1.0)
    assert out["bench.self_share"] == pytest.approx(0.5)
    assert out["channels.couple.calls"] == 1 and out["states.purity.calls"] == 1


class StubWorkload:
    """Ops that take no time; odd ops fail the gate, op 4 raises."""

    cycle = 4

    def inputs(self, k):
        return k

    def call(self, k):
        if k == 4:
            raise ValueError("boom")
        return k

    def check(self, k, out):
        return ["odd"] if out % 2 else []

    def counters(self, k, out):
        return {"cli.bytes_written": 1}


def test_gate_failures_count_as_failed_ops():
    phase = run.run_phase(StubWorkload(), 0.01)
    n = len(phase["times"])
    assert n >= 8 and n % StubWorkload.cycle == 0
    expected = sum(1 for k in range(n) if k % 2 or k == 4)
    assert len(phase["failures"]) == expected
    assert phase["counts"]["cli.bytes_written"] == n - 1
    s = run.summarize(phase)
    assert s["failed"] == expected
    assert s["error_rate"] == expected / n
    assert s["ops_per_s"] == pytest.approx((n - expected) / sum(phase["times"]))
    line = run.result(phase, {})
    assert (line["correct"], line["attempted"], line["failed"]) == (False, n, expected)


def test_tail_keeps_ten_samples_beyond():
    times = [float(i) for i in range(100)]
    value, pct, beyond = run.tail(times)
    assert (value, pct, beyond) == (89.0, 90.0, 10)
    assert run.tail([1.0, 2.0]) == (2.0, 100.0, 0)


def test_benchmark_json_lists_every_per_layer_metric_once():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer"]
    names = layers.metric_names()
    assert len(set(names)) == len(names)
    assert [m["name"] for m in listed] == names
    assert all((m["unit"], m["better"]) == layers.kind(m["name"]) for m in listed)
    assert {n.split(".", 1)[0] for n in layers.FUNCTIONS} == set(layers.LAYERS)


def test_load_json_probe_counts_file_bytes(tmp_path):
    import logent.serialization

    path = tmp_path / "m.json"
    path.write_text('{"probs": [0.5, 0.5]}')
    tracer = tracing.Tracer()
    tracer.install()
    try:
        logent.serialization.load_json(str(path))
        logent.serialization.load_json(str(path))
    finally:
        tracer.uninstall()
    assert tracer.counts["serialization.bytes_read"] == 2 * path.stat().st_size
