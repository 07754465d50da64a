import argparse
import dataclasses
import json
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import logent.amplitude_damping
import logent.channels
import logent.classical
import logent.cli
import logent.fuzz
import logent.measurement
from logent.cli import build_parser, main
from logent import serialization
from logent.serialization import dump_json, matrix_to_json, model_to_json
from logent.states import random_density, random_unitary
from logent.channels import CouplingModel, ExchangeReport
from logent.mixing import MixReport


def write_json(path, obj):
    path.write_text(dump_json(obj) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def plus_state(tmp_path):
    rho = np.full((2, 2), 0.5, dtype=complex)
    return write_json(tmp_path / "plus.json", matrix_to_json(rho))


@pytest.fixture
def mixed_state(tmp_path):
    return write_json(tmp_path / "mixed.json",
                      matrix_to_json(np.eye(2, dtype=complex) / 2))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEntropy:
    def test_plus_state(self, capsys, plus_state):
        code, out, _ = run_cli(capsys, "entropy", "--state", plus_state)
        payload = json.loads(out)
        assert code == 0
        assert payload["logical_entropy"] == 0.0
        assert payload["purity"] == 1.0

    def test_mixed_state(self, capsys, mixed_state):
        code, out, _ = run_cli(capsys, "entropy", "--state", mixed_state)
        assert code == 0
        assert abs(json.loads(out)["logical_entropy"] - 0.5) < 1e-15


class TestBound:
    def test_plus_state_quarter_turn(self, capsys, plus_state):
        code, out, _ = run_cli(capsys, "bound", "--state", plus_state,
                               "--channel", "amplitude-damping",
                               "--theta", str(np.pi / 4))
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["entropy"] - 0.125) < 1e-12
        assert abs(payload["bound"] - 0.375) < 1e-12
        assert abs(payload["slack"] - 0.25) < 1e-12
        assert abs(payload["projected_entropy"] - 0.375) < 1e-12
        assert payload["hypothesis_pure"] is True

    def test_mixed_state_reports_but_does_not_fail(self, capsys, mixed_state):
        code, out, _ = run_cli(capsys, "bound", "--state", mixed_state,
                               "--channel", "amplitude-damping", "--theta", "0.0")
        payload = json.loads(out)
        assert code == 0
        assert payload["hypothesis_pure"] is False
        assert payload["slack"] < 0

    def test_model_file_equivalent_to_named_channel(self, capsys, tmp_path,
                                                    plus_state):
        from logent.amplitude_damping import coupling_model
        model_file = write_json(tmp_path / "model.json",
                                model_to_json(coupling_model(np.pi / 4)))
        code_a, out_a, _ = run_cli(capsys, "bound", "--state", plus_state,
                                   "--model", model_file)
        code_b, out_b, _ = run_cli(capsys, "bound", "--state", plus_state,
                                   "--channel", "amplitude-damping",
                                   "--theta", str(np.pi / 4))
        assert (code_a, out_a) == (code_b, out_b)


    @pytest.mark.parametrize("state,change,code", [
        ("plus", {"entropy_le_projected": False}, 2),
        ("mixed", {"entropy_le_projected": False}, 2),
        ("plus", {"projected_equals_bound": False}, 2),
        ("mixed", {"projected_equals_bound": False}, 2),
    ])
    @pytest.mark.parametrize("command,module,argv", [
        ("bound", logent.channels, ("--channel", "amplitude-damping", "--theta", "0.7")),
        ("sweep", logent.amplitude_damping, ("--steps", "4")),
    ], ids=["bound", "sweep"])
    def test_failed_proof_step_exits_2(self, capsys, monkeypatch, plus_state, mixed_state,
                                       command, module, argv, state, change, code):
        # entropy <= projected and projected - bound = h(rho) are guaranteed for every
        # input; bound and every sweep row read the one verdict, and the output is
        # written in full either way
        real = module._bound_report

        def forged(rho, ops, tol):
            report, w = real(rho, ops, tol)
            return dataclasses.replace(report, **change), w

        monkeypatch.setattr(module, "_bound_report", forged)
        got, out, err = run_cli(capsys, command,
                                "--state", plus_state if state == "plus" else mixed_state, *argv)
        assert (got, err) == (code, "")
        if command == "bound":
            assert set(json.loads(out)) == {"entropy", "bound", "slack", "projected_entropy",
                                            "hypothesis_pure"}
        else:
            assert out.split("\n")[0] == TestSweep.HEADER and out.count("\n") == 5

    def test_block_weight_fault_exits_2_at_any_tol(self, capsys, monkeypatch, plus_state):
        # projected - bound = h(rho) is an identity, checked within the completeness slop whatever --tol says
        real = logent.channels._block_weights

        def faulty(rho, ops):
            w = real(rho, ops)
            w[..., 0, 0] += 1e-6
            return w

        monkeypatch.setattr(logent.channels, "_block_weights", faulty)
        code, out, err = run_cli(capsys, "--tol", "0.5", "bound", "--state", plus_state,
                                 "--channel", "amplitude-damping", "--theta", "0.3")
        assert (code, err) == (2, "") and set(json.loads(out)) >= {"bound", "projected_entropy"}

    @pytest.mark.parametrize("argv", [
        ("--tol", "0", "bound", "--state", "{plus}", "--channel", "amplitude-damping", "--theta", "0.3"),
        ("--tol", "0", "sweep", "--state", "{plus}", "--steps", "3"),
        ("--tol", "0", "exchange", "--state", "{exact}", "--channel", "amplitude-damping", "--theta", "0.3"),
        ("--tol", "1e-6", "bound", "--state", "{drift}", "--channel", "amplitude-damping", "--theta", "0.3"),
        ("--tol", "1e-6", "sweep", "--state", "{drift}", "--steps", "64"),
        ("--tol", "1e-4", "bound", "--state", "{skew_plus}", "--channel", "amplitude-damping", "--theta", "0.3"),
        ("--tol", "1e-4", "sweep", "--state", "{skew_plus}", "--steps", "3"),
        ("--tol", "1e-4", "bound", "--state", "{skew_mixed}", "--channel", "amplitude-damping", "--theta", "0.3"),
        ("--tol", "1e-4", "sweep", "--state", "{skew_mixed}", "--steps", "3"),
        ("--tol", "0", "prop1", "--state", "{exact}", "--partition", "{part}"),
        ("--tol", "1e-6", "prop1", "--state", "{drift}", "--partition", "{part}"),
        ("--tol", "1e-4", "prop1", "--state", "{skew_plus}", "--partition", "{part}"),
        ("--tol", "1e-4", "prop1", "--state", "{skew_mixed}", "--partition", "{part}"),
        ("prop1", "--state", "{imaginary}", "--partition", "{part}"),
    ], ids=["bound-tol-0", "sweep-tol-0", "exchange-tol-0", "bound-drift", "sweep-drift",
            "bound-skew-plus", "sweep-skew-plus", "bound-skew-mixed", "sweep-skew-mixed",
            "prop1-tol-0", "prop1-drift", "prop1-skew-plus", "prop1-skew-mixed", "prop1-imaginary-defect"])
    def test_valid_input_exits_0(self, capsys, tmp_path, plus_state, argv):
        # exact: a seeded mixed state, exactly Hermitian and of exact unit trace;
        # drift: |+><+| scaled to trace 1 + 8e-7, so h(rho) is -1.6e-6;
        # skew: a Hermiticity defect of 9e-5, within --tol 1e-4, on |+><+| and on a mixed state;
        # imaginary: |+><+| with 1e-10i on one off-diagonal entry, within the default --tol.
        # prop1's split sums Re tr(rho^2), which a skew state puts ½||rho - rho†||_F^2 below its purity
        exact = random_density(2, 6)
        exact = (exact + exact.conj().T) / 2
        exact[1, 1] = 1.0 - exact[0, 0]
        assert np.trace(exact) == 1.0 and np.array_equal(exact, exact.conj().T)
        skew = np.array([[0.0, 4.5e-5], [-4.5e-5, 0.0]], dtype=complex)
        files = {"plus": plus_state, "exact": write_json(tmp_path / "exact.json", matrix_to_json(exact)),
                 "drift": write_json(tmp_path / "drift.json",
                                     matrix_to_json(np.full((2, 2), 0.5 + 4e-7, dtype=complex))),
                 "skew_plus": write_json(tmp_path / "skew_plus.json",
                                         matrix_to_json(np.full((2, 2), 0.5, dtype=complex) + skew)),
                 "skew_mixed": write_json(tmp_path / "skew_mixed.json",
                                          matrix_to_json(np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex) + skew)),
                 "imaginary": write_json(tmp_path / "imaginary.json",
                                         matrix_to_json(np.array([[0.5, 0.5], [0.5 + 1e-10j, 0.5]]))),
                 "part": write_json(tmp_path / "part.json", {"blocks": [[0], [1]]})}
        code, out, err = run_cli(capsys, *(a.format(**files) for a in argv))
        assert (code, err) == (0, "") and out


class TestApplyAndKraus:
    def test_apply_full_decay(self, capsys, plus_state):
        code, out, _ = run_cli(capsys, "apply", "--state", plus_state,
                               "--channel", "amplitude-damping",
                               "--theta", str(np.pi / 2))
        payload = json.loads(out)
        assert code == 0
        got = np.array([complex(re, im) for re, im in payload["data"]])
        np.testing.assert_allclose(got.reshape(2, 2), np.diag([1.0, 0.0]),
                                   atol=1e-12)

    def test_kraus_full_decay(self, capsys):
        code, out, _ = run_cli(capsys, "kraus", "--channel", "amplitude-damping",
                               "--theta", str(np.pi / 2))
        payload = json.loads(out)
        assert code == 0
        assert payload["completeness_defect"] < 1e-12
        e1 = np.array([complex(re, im) for re, im in
                       payload["operators"][1]["data"]]).reshape(2, 2)
        np.testing.assert_allclose(e1, [[0, 1], [0, 0]], atol=1e-12)

    @pytest.mark.parametrize("ds, de, env_init, seed", [(2, 2, 1, 0), (3, 4, 2, 1), (6, 4, 3, 2), (5, 3, 1, 3)])
    def test_kraus_reports_completeness_defect_of_its_operators(self, capsys, tmp_path, ds, de, env_init, seed):
        # the printed defect is completeness_defect's own, bit for bit, at a non-default env_init
        model = CouplingModel(random_unitary(ds * de, seed), dim_s=ds, dim_e=de, env_init=env_init)
        path = write_json(tmp_path / "model.json", model_to_json(model))
        code, out, _ = run_cli(capsys, "kraus", "--model", path)
        assert code == 0
        want = logent.channels.completeness_defect(logent.channels.extract_kraus(model))
        assert json.loads(out)["completeness_defect"] == want
        assert want > 0.0  # rounding leaves a residue, so the comparison reads real bits

    def test_two_block_model_file(self, capsys, tmp_path):
        # n = 256: the unitarity check walks two row blocks of 128; compact JSON writes fast
        model = CouplingModel(random_unitary(256, 5), dim_s=32, dim_e=8)
        good, bad = tmp_path / "model.json", tmp_path / "bad.json"
        good.write_text(json.dumps(model_to_json(model)), encoding="utf-8")
        state = write_json(tmp_path / "state.json", matrix_to_json(random_density(32, 6)))
        assert run_cli(capsys, "bound", "--state", state, "--model", str(good))[0] == 0
        assert run_cli(capsys, "kraus", "--model", str(good))[0] == 0
        u = model.unitary.copy()
        u[255, 17] += 1e-6
        bad.write_text(json.dumps({**model_to_json(model), "unitary": matrix_to_json(u)}), encoding="utf-8")
        for argv in (("bound", "--state", state), ("kraus",)):
            code, out, err = run_cli(capsys, *argv, "--model", str(bad))
            assert (code, out) == (1, "")
            assert err.startswith("logent: error: matrix is not unitary: U U† deviates from I by ")
            assert err.count("\n") == 1


class TestExchange:
    def test_mixed_state_full_decay(self, capsys, mixed_state):
        code, out, _ = run_cli(capsys, "exchange", "--state", mixed_state,
                               "--channel", "amplitude-damping",
                               "--theta", str(np.pi / 2))
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["exchange_entropy"] - 0.5) < 1e-12
        assert payload["slack"] >= -1e-9


class TestProp1:
    def test_plus_state_singletons(self, capsys, plus_state, tmp_path):
        part = write_json(tmp_path / "part.json", {"blocks": [[0], [1]]})
        code, out, _ = run_cli(capsys, "prop1", "--state", plus_state,
                               "--partition", part)
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["purity"] - 1.0) < 1e-15
        assert abs(payload["projected_purity"] - 0.5) < 1e-15
        assert abs(payload["off_block_mass"] - 0.5) < 1e-15
        assert payload["identity_residual"] < 1e-12

    def test_partition_is_checked_as_a_partition_only(self, capsys, monkeypatch, tmp_path):
        # a partition is measured through its labels, so no projector reaches the O(k^2 n^3) pair check
        state = write_json(tmp_path / "rho.json", matrix_to_json(random_density(5, 11)))
        part = write_json(tmp_path / "part.json", {"blocks": [[0, 3], [1], [2, 4]]})
        code, want, _ = run_cli(capsys, "prop1", "--state", state, "--partition", part)
        assert code == 0

        def refuse(ps):
            raise AssertionError("validate_projectors ran on partition projectors")

        monkeypatch.setattr(logent.measurement, "validate_projectors", refuse)
        assert run_cli(capsys, "prop1", "--state", state, "--partition", part) == (0, want, "")

    def test_forged_split_of_a_hermitian_state_exits_2(self, capsys, monkeypatch, tmp_path):
        # the verdict admits ½||rho - rho†||_F^2, which is 0.0 here, so a split off by 1e-9 is a contradiction
        rho = random_density(3, 7)
        rho = (rho + rho.conj().T) / 2
        assert np.array_equal(rho, rho.conj().T)
        real = logent.cli._partition_split

        def forged(rho, labels):
            projected, mass = real(rho, labels)
            return projected, mass + 1e-9

        monkeypatch.setattr(logent.cli, "_partition_split", forged)
        state = write_json(tmp_path / "rho.json", matrix_to_json(rho))
        part = write_json(tmp_path / "part.json", {"blocks": [[0], [1, 2]]})
        code, out, err = run_cli(capsys, "prop1", "--state", state, "--partition", part)
        assert (code, err) == (2, "")
        assert abs(json.loads(out)["identity_residual"] - 1e-9) < 1e-12

    def test_out_of_memory_exits_1_with_one_error_line(self, capsys, monkeypatch, plus_state, tmp_path):
        # numpy's _ArrayMemoryError is a MemoryError: a (512, 512, 512) complex stack asks for 2 GiB
        message = "Unable to allocate 2.00 GiB for an array with shape (512, 512, 512) and data type complex128"

        def exhausted(rho, labels):
            raise MemoryError(message)

        monkeypatch.setattr(logent.cli, "_partition_split", exhausted)
        part = write_json(tmp_path / "part.json", {"blocks": [[0], [1]]})
        code, out, err = run_cli(capsys, "prop1", "--state", plus_state, "--partition", part)
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"logent: error: {message}"]


class TestProp2:
    def test_zero_plus_ensemble(self, capsys, tmp_path):
        ens = {"weights": [0.5, 0.5],
               "states": [matrix_to_json(np.diag([1.0, 0.0]).astype(complex)),
                          matrix_to_json(np.full((2, 2), 0.5, dtype=complex))]}
        ens_file = write_json(tmp_path / "ens.json", ens)
        code, out, _ = run_cli(capsys, "prop2", "--ensemble", ens_file)
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["mixture_entropy"] - 0.25) < 1e-12
        assert abs(payload["bound"] - 0.5) < 1e-12
        assert payload["orthogonal_support"] is False


class TestBridge:
    def test_entropy_routes_that_disagree_exit_2(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(logent.classical, "_dit_count", lambda p, blocks: 0.125)
        dist = write_json(tmp_path / "dist.json", {"probs": [0.5, 0.25, 0.25]})
        part = write_json(tmp_path / "part.json", {"blocks": [[0], [1, 2]]})
        code, out, err = run_cli(capsys, "bridge", "--dist", dist, "--partition", part)
        assert (code, out) == (2, "")
        assert err == "logent: error: partition entropy routes disagree: 0.5 vs 0.125\n"

    def test_frozen_case(self, capsys, tmp_path):
        dist = write_json(tmp_path / "dist.json",
                          {"probs": [0.5, 0.25, 0.25]})
        part = write_json(tmp_path / "part.json", {"blocks": [[0], [1, 2]]})
        code, out, _ = run_cli(capsys, "bridge", "--dist", dist,
                               "--partition", part)
        payload = json.loads(out)
        assert code == 0
        assert payload["agree"] is True
        assert abs(payload["partition_entropy"] - 0.5) < 1e-12
        assert payload["difference"] < 1e-12


class TestSweep:
    HEADER = "theta,entropy,bound,closed_form_entropy,closed_form_bound,slack"

    def test_tol_reaches_the_state_check(self, capsys, tmp_path):
        # trace 1 + 5e-8: --tol 1e-6 accepts it for sweep as it does for bound
        rho = np.array([[0.5 + 5e-8, 0.5], [0.5, 0.5]], dtype=complex)
        state = write_json(tmp_path / "drift.json", matrix_to_json(rho))
        code, out, err = run_cli(capsys, "--tol", "1e-6", "sweep", "--state", state, "--steps", "8")
        assert (code, err) == (0, "")
        assert len(out.strip().split("\n")) == 9
        code, _, err = run_cli(capsys, "sweep", "--state", state, "--steps", "8")
        assert code == 1
        assert "tol 1.000e-09" in err

    def test_every_row_is_written_and_an_entropy_mismatch_exits_2(self, capsys, monkeypatch, plus_state,
                                                                   tmp_path):
        real = logent.amplitude_damping._closed_forms

        def forged(*args):
            rho, bound, out_purity, blocks = real(*args)
            return rho, bound, out_purity + 1e-6, blocks

        zero = write_json(tmp_path / "zero.json", matrix_to_json(np.diag([1.0, 0.0]).astype(complex)))
        monkeypatch.setattr(logent.amplitude_damping, "_closed_forms", forged)
        code, out, err = run_cli(capsys, "sweep", "--state", zero, "--steps", "4")
        assert (code, out) == (2, "")
        assert err.startswith("logent: error: entropy routes disagree: ") and err.count("\n") == 1
        monkeypatch.undo()
        # the drift state CI sweeps keeps its identity at every angle
        rho = np.array([[0.5 + 5e-8, 0.5], [0.5, 0.5]], dtype=complex)
        drift = write_json(tmp_path / "drift.json", matrix_to_json(rho))
        code, out, err = run_cli(capsys, "--tol", "1e-6", "sweep", "--state", drift, "--steps", "64")
        assert (code, err) == (0, "")
        assert len(out.strip().split("\n")) == 65

    def test_bound_routes_that_disagree_exit_2(self, capsys, monkeypatch, plus_state):
        real = logent.amplitude_damping._bound_report

        def shifted(*args):
            report, w = real(*args)
            return dataclasses.replace(report, bound=report.bound + 1e-6), w

        monkeypatch.setattr(logent.amplitude_damping, "_bound_report", shifted)
        code, out, err = run_cli(capsys, "sweep", "--state", plus_state, "--steps", "4")
        assert (code, out) == (2, "")
        assert err.startswith("logent: error: bound routes disagree: ") and err.count("\n") == 1

    def test_swapped_block_purities_exit_2(self, capsys, monkeypatch, plus_state):
        real = logent.amplitude_damping._closed_forms

        def swapped(*args):
            rho, bound, out_purity, (p00, p11) = real(*args)
            return rho, bound, out_purity, (p11, p00)

        monkeypatch.setattr(logent.amplitude_damping, "_closed_forms", swapped)
        code, out, err = run_cli(capsys, "sweep", "--state", plus_state, "--steps", "64")
        assert (code, out) == (2, "")
        assert err == "logent: error: block purity routes disagree: (1.0, 0.0) vs (0.0, 1.0)\n"

    def test_shape_and_internal_consistency(self, capsys, plus_state):
        code, out, _ = run_cli(capsys, "sweep", "--state", plus_state,
                               "--steps", "16")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == self.HEADER
        assert len(lines) == 17
        for line in lines[1:]:
            theta, h, bound, cf_h, cf_bound, slack = map(float, line.split(","))
            assert abs(h - cf_h) < 1e-10
            assert abs(bound - cf_bound) < 1e-10
            assert slack >= -1e-9  # pure input
        assert float(lines[1].split(",")[0]) == 0.0

    def test_runs_are_byte_identical(self, capsys, plus_state):
        _, first, _ = run_cli(capsys, "sweep", "--state", plus_state,
                              "--steps", "8")
        _, second, _ = run_cli(capsys, "sweep", "--state", plus_state,
                               "--steps", "8")
        assert first == second

    def test_output_file(self, capsys, plus_state, tmp_path):
        dest = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "--output", str(dest), "sweep",
                               "--state", plus_state, "--steps", "4")
        assert code == 0
        assert out == ""
        assert dest.read_text().startswith(self.HEADER)

    def test_csv_floats_round_trip(self, capsys, plus_state):
        _, out, _ = run_cli(capsys, "sweep", "--state", plus_state,
                            "--steps", "8")
        row = out.strip().split("\n")[3].split(",")
        theta = float(row[0])
        from logent.amplitude_damping import closed_form_bound
        assert float(row[4]) == closed_form_bound(0.5, 0.5, 0.5, theta)


class TestFuzz:
    def test_clean_run(self, capsys):
        code, out, _ = run_cli(capsys, "--seed", "5", "fuzz",
                               "--suite", "theorem", "--trials", "20",
                               "--dim-s", "4", "--dim-e", "3")
        payload = json.loads(out)
        assert code == 0
        assert payload["failures"] == 0
        assert payload["seed"] == 5

    @pytest.mark.parametrize("argv,message", [
        (("--dim-s", "0"), "--dim-s must be >= 1, got 0"),
        (("--suite", "theorem", "--dim-e", "-2"), "--dim-e must be >= 1, got -2"),
        (("--suite", "prop1", "--dim-e", "0"), "--dim-e must be >= 1, got 0"),  # prop1 ignores dim-e
        (("--trials", "-1", "--dim-s", "0"), "--trials must be >= 0"),
    ])
    def test_dimension_bound_below_one_is_a_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "fuzz", "--trials", "3", *argv)
        assert (code, out) == (64, "")
        assert err.startswith("usage: logent fuzz ")
        assert err.endswith(f"logent fuzz: error: {message}\n")

    def test_deterministic_output(self, capsys):
        args = ("--seed", "5", "fuzz", "--suite", "all", "--trials", "6",
                "--dim-s", "4", "--dim-e", "3")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_nan_slack_reported_as_failures(self, capsys, monkeypatch):
        # a NaN slack wins the worst-case fold and is written as null, so the
        # summary stays valid JSON and reports every trial as failed
        real = logent.fuzz.verify_entropy_bound
        monkeypatch.setattr(logent.fuzz, "verify_entropy_bound",
                            lambda rho, model: dataclasses.replace(real(rho, model),
                                                                   slack=float("nan")))
        for suite in ("theorem", "all"):
            code, out, _ = run_cli(capsys, "fuzz", "--suite", suite, "--trials", "4")
            payload = json.loads(out)
            theorem = payload if suite == "theorem" else payload["suites"][0]
            assert code == 1
            assert theorem["suite"] == "theorem"
            assert theorem["failures"] == theorem["trials"] == 4
            assert payload["failures"] == 4
            assert theorem["worst_slack"] is None and payload["worst_slack"] is None


FINITE_RANGE = "logent sweep: error: --theta-start and --theta-end must bound a finite range, got a span of"


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 64

    def test_unknown_flag(self, capsys, plus_state):
        code, _, _ = run_cli(capsys, "entropy", "--state", plus_state,
                             "--bogus")
        assert code == 64

    def test_channel_without_theta(self, capsys, plus_state):
        code, _, err = run_cli(capsys, "bound", "--state", plus_state,
                               "--channel", "amplitude-damping")
        assert code == 64
        assert "--theta" in err

    def test_one_parser_serves_calls_in_turn_as_fresh_parsers_do(self, capsys, monkeypatch,
                                                                 plus_state):
        calls = [("entropy", "--state", plus_state, "--bogus"),
                 ("--format", "csv", "entropy", "--state", plus_state),
                 ("bound", "--state", plus_state, "--channel", "amplitude-damping"),
                 ("bound", "--state", plus_state, "--channel", "amplitude-damping", "--theta", "0.3")]
        shared = [run_cli(capsys, *argv) for argv in calls]
        assert [code for code, _, _ in shared] == [64, 0, 64, 0]
        assert logent.cli._parser() is logent.cli._parser()
        monkeypatch.setattr(logent.cli, "_parser", build_parser)
        assert [run_cli(capsys, *argv) for argv in calls] == shared
        assert build_parser() is not build_parser()

    def test_every_subcommand_carries_its_handler(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        handlers = {name: p.get_default("run") for name, p in sub.choices.items()}
        assert handlers == {name: getattr(logent.cli, f"_cmd_{name}") for name in handlers}
        assert len(handlers) == 10 and sub.dest == "command"

    @pytest.mark.parametrize("tol,code", [("inf", 64), ("nan", 64), ("-1", 64), ("1", 64), ("1e300", 64),
                                          ("0", 1), ("0.5", 1)])
    def test_tol_outside_zero_to_one_is_a_usage_error(self, capsys, tmp_path, tol, code):
        # an infinite tol would pass this state as pure, and a negative or NaN one blame the state;
        # with a tolerance in range the state is validated, and its eigenvalue -1 fails it
        neg = write_json(tmp_path / "neg.json", matrix_to_json(np.diag([2.0, -1.0]).astype(complex)))
        got, out, err = run_cli(capsys, "--tol", tol, "bound", "--state", neg,
                                "--channel", "amplitude-damping", "--theta", "0.5")
        assert (got, out) == (code, "")
        if code == 64:
            assert err.endswith(f"logent: error: --tol must be a finite number in [0, 1), got {float(tol)!r}\n")
        else:
            assert err.startswith("logent: error: not positive semidefinite")

    @pytest.mark.parametrize("argv, message", [
        (("bound", "--state", "{missing}", "--model", "m", "--channel", "amplitude-damping"),
         "logent bound: error: give either --model or --channel, not both"),
        (("apply", "--state", "{missing}", "--channel", "amplitude-damping"),
         "logent apply: error: --channel requires --theta"),
        (("exchange", "--state", "{missing}"),
         "logent exchange: error: a coupling is required: --model FILE or --channel NAME --theta X"),
        (("sweep", "--state", "{missing}", "--steps", "0"), "logent sweep: error: --steps must be >= 1"),
        (("sweep", "--state", "{missing}", "--theta-end=inf"), f"{FINITE_RANGE} inf"),
    ], ids=["bound", "apply", "exchange", "sweep-steps", "sweep-range"])
    def test_a_usage_error_is_reported_before_a_missing_state_file(self, capsys, tmp_path, argv, message):
        missing = str(tmp_path / "missing.json")
        code, out, err = run_cli(capsys, *(a.format(missing=missing) for a in argv))
        assert (code, out) == (64, "")
        assert err.endswith(f"{message}\n") and "No such file" not in err

    def test_model_and_channel_conflict(self, capsys, tmp_path, plus_state):
        model = CouplingModel(random_unitary(4, 1), dim_s=2, dim_e=2)
        model_file = write_json(tmp_path / "m.json", model_to_json(model))
        code, _, err = run_cli(capsys, "bound", "--state", plus_state,
                               "--model", model_file,
                               "--channel", "amplitude-damping", "--theta", "1")
        assert code == 64
        assert "not both" in err


class TestBadInput:
    @pytest.mark.filterwarnings("error")  # a warning before the one error line fails the row
    @pytest.mark.parametrize("argv, code, message", [
        (("apply", "--state", "{rho3}", "--channel", "amplitude-damping", "--theta", "0.3"), 1,
         "logent: error: dimension mismatch: state is (3, 3), operator input side is 2"),
        (("apply", "--state", "{plus}", "--model", "{model}"), 1,
         "logent: error: dimension mismatch: unitary is (4, 4), joint space is 6"),
        (("sweep", "--state", "{rho3}"), 1, "logent: error: sweep needs a single-qubit state, got shape (3, 3)"),
        (("sweep", "--state", "{plus}", "--steps", "0"), 64, "logent sweep: error: --steps must be >= 1"),
        (("sweep", "--state", "{plus}", "--steps", "3", "--theta-end=inf"), 64, f"{FINITE_RANGE} inf"),
        (("sweep", "--state", "{plus}", "--steps", "3", "--theta-start=nan"), 64, f"{FINITE_RANGE} nan"),
        (("sweep", "--state", "{plus}", "--steps", "3", "--theta-start=-1e308", "--theta-end=1e308"), 64,
         f"{FINITE_RANGE} inf"),
        (("sweep", "--state", "{plus}", "--channel", "amplitude-damping"), 64,
         "logent: error: unrecognized arguments: --channel amplitude-damping"),
        (("bound", "--state", "{plus}"), 64,
         "logent bound: error: a coupling is required: --model FILE or --channel NAME --theta X"),
        (("bound", "--state", "{plus}", "--model", "{model}", "--theta", "0.3"), 64,
         "logent bound: error: --theta goes with --channel, not --model"),
        (("kraus", "--channel", "amplitude-damping", "--theta=inf"), 64,
         "logent kraus: error: --theta must be a finite angle, got inf"),
        (("kraus", "--channel", "amplitude-damping", "--theta=nan"), 64,
         "logent kraus: error: --theta must be a finite angle, got nan"),
        (("prop1", "--state", "{plus}", "--partition", "{half}"), 1,
         "logent: error: partition index 0.5 is not an integer"),
        (("bridge", "--dist", "{dist}", "--partition", "{half}"), 1,
         "logent: error: partition index 0.5 is not an integer"),
    ], ids=["apply-state-size", "model-dims", "sweep-qubit", "sweep-steps", "sweep-theta-end-inf",
            "sweep-theta-start-nan", "sweep-span-past-float64", "sweep-has-no-channel", "bound-coupling",
            "bound-theta-with-model", "kraus-theta-inf", "kraus-theta-nan", "prop1-float-index",
            "bridge-float-index"])
    def test_rejection_exits_with_one_error_line(self, capsys, tmp_path, plus_state, argv, code, message):
        files = {"plus": plus_state,
                 "half": write_json(tmp_path / "half.json", {"blocks": [[0.5], [1]]}),
                 "dist": write_json(tmp_path / "dist.json", {"probs": [0.5, 0.5]}),
                 "rho3": write_json(tmp_path / "rho3.json", matrix_to_json(np.eye(3, dtype=complex) / 3)),
                 "model": write_json(tmp_path / "model.json",
                                     {"unitary": matrix_to_json(np.eye(4, dtype=complex)),
                                      "dim_s": 2, "dim_e": 3})}
        got, out, err = run_cli(capsys, *(a.format(**files) for a in argv))
        assert (got, out) == (code, "")
        assert err.endswith(f"{message}\n")  # the message names the parser whose usage comes first
        assert err.startswith(f"usage: {message.split(': error: ')[0]} [-h]") if code == 64 else err.count("\n") == 1

    def test_invalid_density(self, capsys, tmp_path):
        bad = write_json(tmp_path / "bad.json",
                         {"rows": 2, "cols": 2,
                          "data": [[0.9, 0.0], [0.0, 0.0], [0.0, 0.0], [0.9, 0.0]]})
        code, out, err = run_cli(capsys, "entropy", "--state", bad)
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "entropy", "--state", "/nonexistent.json")
        assert code == 1
        assert "error" in err

    def test_nan_state_rejected(self, capsys, tmp_path):
        # NaN fails validation instead of reaching the output as invalid JSON
        path = tmp_path / "nan.json"
        path.write_text('{"rows": 2, "cols": 2, "data": '
                        '[[NaN, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}', encoding="utf-8")
        code, out, err = run_cli(capsys, "entropy", "--state", str(path))
        assert code == 1
        assert out == ""
        assert "error" in err

    ONE_STATE = '[{"rows": 1, "cols": 1, "data": [[1, 0]]}, {"rows": 1, "cols": 1, "data": [[1, 0]]}]'
    HOSTILE = {
        "bool-dims": ("entropy --state {}", '{"rows": true, "cols": true, "data": [[1, 0]]}',
                      "rows/cols must be positive integers"),
        "huge-int": ("entropy --state {}", '{"rows": 1, "cols": 1, "data": [[1' + "0" * 400 + ', 0]]}',
                     "data[0] must be a pair of finite float64 numbers"),
        "infinity": ("entropy --state {}", '{"rows": 1, "cols": 2, "data": [[1, 0], [0, Infinity]]}',
                     "data[1] must be a pair of finite float64 numbers"),
        "1e999-model": ("kraus --model {}", '{"unitary": {"rows": 1, "cols": 1, "data": [[1e999, 0]]}, '
                        '"dim_s": 1, "dim_e": 1}', "data[0] must be a pair of finite float64 numbers"),
        "string-weights": ("prop2 --ensemble {}", '{"weights": ["0.5", "0.5"], "states": ' + ONE_STATE + "}",
                           "weight '0.5' is not a number"),
        "bool-weights": ("prop2 --ensemble {}", '{"weights": [true, false], "states": ' + ONE_STATE + "}",
                         "weight True is not a number"),
        "null-weight": ("prop2 --ensemble {}", '{"weights": [null, 1], "states": ' + ONE_STATE + "}",
                        "weight None is not a number"),
        "nan-weight": ("prop2 --ensemble {}", '{"weights": [NaN, 1], "states": ' + ONE_STATE + "}",
                       "weight nan is not a finite float64"),
        "nan-probs": ("bridge --partition {part} --dist {}", '{"probs": [0.5, NaN]}',
                      "probability nan is not a finite float64"),
    }

    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_hostile_numbers_exit_1_with_one_error_line(self, capsys, tmp_path, case):
        argv, text, message = self.HOSTILE[case]
        path = tmp_path / "hostile.json"
        path.write_text(text, encoding="utf-8")
        part = write_json(tmp_path / "part.json", {"blocks": [[0, 1]]})
        code, out, err = run_cli(capsys, *[a.format(str(path), part=part) for a in argv.split()])
        assert code == 1
        assert out == ""
        assert err.startswith("logent: error: ") and err.count("\n") == 1
        assert message in err and "Traceback" not in err

    def test_bad_pair_past_the_first_chunk_exits_1_with_the_plain_reader_error(self, capsys, tmp_path):
        model = CouplingModel(random_unitary(192, 3), dim_s=12, dim_e=16)
        text = json.dumps(model_to_json(model))
        second = text.index("[", text.index("[[") + serialization._CHUNK + 1000)  # a pair in chunk 2
        k = text.count("[", text.index("[["), second) - 1
        text = text[:second] + "[true, 0]" + text[text.index("]", second) + 1:]
        with pytest.raises(json.JSONDecodeError) as truncated:
            json.loads(text[:-100])
        path = tmp_path / "model.json"
        for body, message in ((text, f"data[{k}] must be a [re, im] pair of numbers, got [True, 0]"),
                              (text[:-100], str(truncated.value))):
            path.write_text(body, encoding="utf-8")
            code, out, err = run_cli(capsys, "kraus", "--model", str(path))
            assert (code, out, err) == (1, "", f"logent: error: {message}\n")

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_output_exits_1_with_one_error_line(self, capsys, tmp_path, where):
        out = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path
        code, stdout, err = run_cli(capsys, "--output", str(out), "kraus",
                                    "--channel", "amplitude-damping", "--theta", "0.3")
        assert code == 1
        assert stdout == ""
        assert err.startswith("logent: error: ") and err.count("\n") == 1
        assert str(out) in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(capsys, "entropy", "--state", str(path))
        assert code == 1


class TestFormats:
    def test_human(self, capsys, plus_state):
        code, out, _ = run_cli(capsys, "--format", "human", "entropy",
                               "--state", plus_state)
        assert code == 0
        assert "logical_entropy = 0" in out

    def test_human_apply_writes_its_nested_data_as_json(self, capsys, plus_state):
        code, out, _ = run_cli(capsys, "--format", "human", "apply", "--state", plus_state,
                               "--channel", "amplitude-damping", "--theta", "0")
        assert code == 0
        assert out.splitlines() == ["rows = 2", "cols = 2",
                                    "data = [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0]]"]

    def test_csv(self, capsys, plus_state):
        code, out, _ = run_cli(capsys, "--format", "csv", "entropy",
                               "--state", plus_state)
        assert code == 0
        assert out.splitlines()[0] == "key,value"
        assert any(line.startswith("purity,") for line in out.splitlines())

    @pytest.mark.parametrize("fmt", ["json", "csv", "human"])
    @pytest.mark.parametrize("command", ["exchange", "prop1", "prop2"])
    def test_nan_report_never_exits_0(self, capsys, monkeypatch, tmp_path, plus_state, command, fmt):
        # csv and human print the NaN and fail the verdict; json refuses to write a NaN
        nan = float("nan")
        fake = {"exchange": ("exchange_entropy", lambda rho, model, tol: ExchangeReport(nan, nan, nan, 1)),
                "prop1": ("_partition_split", lambda rho, labels: (nan, nan)),
                "prop2": ("mixing_bound_report", lambda ens: MixReport(nan, nan, nan, nan, False))}[command]
        monkeypatch.setattr(logent.cli, *fake)
        part = write_json(tmp_path / "part.json", {"blocks": [[0], [1]]})
        ens = write_json(tmp_path / "ens.json", {"weights": [1.0], "states": [matrix_to_json(np.eye(2) / 2)]})
        argv = {"exchange": ("--state", plus_state, "--channel", "amplitude-damping", "--theta", "0.3"),
                "prop1": ("--state", plus_state, "--partition", part),
                "prop2": ("--ensemble", ens)}[command]
        code, out, _ = run_cli(capsys, "--format", fmt, command, *argv)
        assert code == (1 if fmt == "json" else 2)
        assert ("nan" in out) == (fmt != "json")

    def test_json_floats_round_trip_exactly(self, capsys, tmp_path):
        rho = random_density(3, 123)
        state = write_json(tmp_path / "r.json", matrix_to_json(rho))
        from logent.states import logical_entropy
        _, out, _ = run_cli(capsys, "entropy", "--state", state)
        assert json.loads(out)["logical_entropy"] == logical_entropy(rho)


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "logent", "fuzz",
                           "--suite", "bridge", "--trials", "3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["failures"] == 0


def test_readme_commands_parse():
    # every logent command in the README's sh blocks is one the CLI accepts
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    lines = [line for block in readme.split("```sh\n")[1:]
             for line in block.split("```", 1)[0].splitlines() if line.startswith("logent ")]
    assert len(lines) >= 11
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
