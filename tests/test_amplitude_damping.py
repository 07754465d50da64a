import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import logent.amplitude_damping
import logent.channels
from logent.amplitude_damping import (closed_form_block_purities,
                                      closed_form_bound, closed_form_purity,
                                      coupling_model, verify_closed_forms)
from logent.channels import verify_entropy_bound
from logent.states import TraceError, purity, random_density, random_pure_state, validate_density

THETAS = [0.0, 0.3, np.pi / 4, 1.1, np.pi / 2, 2.0, np.pi]


def pure_abc(seed):
    """(a, b, c) of a random pure qubit density, so ac == |b|^2."""
    v = random_pure_state(2, seed)
    return (abs(v[0]) ** 2, v[0] * np.conj(v[1]), abs(v[1]) ** 2)


def test_coupling_is_unitary_for_all_angles():
    for theta in THETAS:
        u = coupling_model(theta).unitary
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)


class TestClosedFormBound:
    def test_equal_superposition_quarter_turn(self):
        assert abs(closed_form_bound(0.5, 0.5, 0.5, np.pi / 4) - 0.375) < 1e-15

    def test_zero_angle_means_zero_bound(self):
        a, b, c = pure_abc(3)
        assert closed_form_bound(a, b, c, 0.0) == 0.0

    def test_full_decay_of_plus_state(self):
        assert abs(closed_form_bound(0.5, 0.5, 0.5, np.pi / 2) - 0.5) < 1e-14

    def test_rejects_invalid_density(self):
        with pytest.raises(ValueError):
            closed_form_bound(0.9, 0.5, 0.1, 0.4)


class TestClosedFormPurity:
    def test_equal_superposition_quarter_turn(self):
        assert abs(closed_form_purity(0.5, 0.5, 0.5, np.pi / 4) - 0.875) < 1e-14

    def test_zero_angle_is_input_purity(self):
        rho = random_density(2, 8)
        a, b, c = rho[0, 0].real, rho[0, 1], rho[1, 1].real
        assert abs(closed_form_purity(a, b, c, 0.0) - purity(rho)) < 1e-12

    def test_full_decay_always_pure(self):
        for seed in range(5):
            rho = random_density(2, seed)
            a, b, c = rho[0, 0].real, rho[0, 1], rho[1, 1].real
            assert abs(closed_form_purity(a, b, c, np.pi / 2) - 1.0) < 1e-12


class TestBlockPurities:
    def test_equal_superposition_quarter_turn(self):
        p00, p11 = closed_form_block_purities(0.5, 0.5, 0.5, np.pi / 4)
        assert abs(p00 - 0.5625) < 1e-14
        assert abs(p11 - 0.0625) < 1e-14

    @given(st.integers(0, 400))
    def test_pure_input_blocks_and_bound_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = pure_abc(rng)
        theta = float(rng.uniform(0, np.pi))
        p00, p11 = closed_form_block_purities(a, b, c, theta)
        assert abs(p00 + p11 + closed_form_bound(a, b, c, theta) - 1.0) < 1e-12


class TestVerifyClosedForms:
    def test_pure_grid_all_flags_hold(self):
        for theta in THETAS:
            for seed in range(6):
                a, b, c = pure_abc(seed + 60)
                report = verify_closed_forms(a, b, c, theta)
                assert report.hypothesis_pure
                assert report.theorem_holds
                assert abs(report.entropy - report.closed_form_entropy) < 1e-10
                assert abs(report.numeric_bound - report.bound) < 1e-10

    def test_state_is_validated_once(self, monkeypatch):
        calls = []

        def counted(rho, *args, **kwargs):
            calls.append(rho)
            return validate_density(rho, *args, **kwargs)

        monkeypatch.setattr(logent.amplitude_damping, "validate_density", counted)
        report = verify_closed_forms(0.5, 0.5, 0.5, np.pi / 4)
        assert len(calls) == 1
        assert (report.bound, report.closed_form_entropy) == (closed_form_bound(0.5, 0.5, 0.5, np.pi / 4),
                                                               1.0 - closed_form_purity(0.5, 0.5, 0.5, np.pi / 4))

    def test_mixed_input_entropy_still_matches(self):
        # the purity identity, and projected - bound = h(rho), hold for any input, pure or not
        for seed in range(100):
            rho = random_density(2, seed)
            a, b, c = rho[0, 0].real, rho[0, 1], rho[1, 1].real
            theta = 0.1 + 3.0 * (seed / 99.0)
            report = verify_closed_forms(a, b, c, theta)
            assert report.theorem_holds

    def test_maximally_mixed_at_zero_angle_breaks_the_bound(self):
        # untouched by the identity channel, entropy 1/2 exceeds bound 0;
        # the inequality really does need a pure input
        report = verify_closed_forms(0.5, 0.0, 0.5, 0.0)
        assert not report.hypothesis_pure
        assert report.entropy > report.bound
        assert abs(report.entropy - 0.5) < 1e-14
        assert report.bound == 0.0

    def test_block_purities_track_closed_forms(self):
        a, b, c = pure_abc(9)
        report = verify_closed_forms(a, b, c, 1.3)
        expected = closed_form_block_purities(a, b, c, 1.3)
        assert abs(report.block_purities[0] - expected[0]) < 1e-10
        assert abs(report.block_purities[1] - expected[1]) < 1e-10

    @pytest.mark.parametrize("offset", [1e-9, float("nan")])
    @pytest.mark.parametrize("field", ["bound", "entropy"])
    def test_routes_that_disagree_raise(self, monkeypatch, field, offset):
        real = logent.amplitude_damping._bound_report

        def shifted(*args):
            report, w = real(*args)
            return dataclasses.replace(report, **{field: getattr(report, field) + offset}), w

        monkeypatch.setattr(logent.amplitude_damping, "_bound_report", shifted)
        with pytest.raises(AssertionError, match=f"^{field} routes disagree: "):
            verify_closed_forms(0.5, 0.5, 0.5, 0.7)

    @pytest.mark.parametrize("theta", [0.0, 0.7, 2.0])  # at pi/2 the two purities of |+> are equal
    def test_swapped_block_purities_raise(self, monkeypatch, theta):
        # the bound check passes (the bound is untouched); only diag W can catch the swap
        real = logent.amplitude_damping._closed_forms

        def swapped(*args):
            rho, bound, out_purity, (p00, p11) = real(*args)
            return rho, bound, out_purity, (p11, p00)

        monkeypatch.setattr(logent.amplitude_damping, "_closed_forms", swapped)
        with pytest.raises(AssertionError, match="^block purity routes disagree: "):
            verify_closed_forms(0.5, 0.5, 0.5, theta)

    def test_a_block_weight_fault_breaks_the_closed_form_agreement(self, monkeypatch):
        # the closed forms check the Kraus route that verify_entropy_bound runs, not a
        # separate dense one: a fault in channels._block_weights must show here
        real = logent.channels._block_weights

        def faulty(rho, ops):
            w = real(rho, ops)
            return w + 1e-6 * (1 - np.eye(w.shape[-1]))

        monkeypatch.setattr(logent.channels, "_block_weights", faulty)
        with pytest.raises(AssertionError, match="^bound routes disagree: "):
            verify_closed_forms(0.5, 0.5, 0.5, 0.7)

    def test_reads_the_kraus_report_kernel(self):
        # entropy, bound, projected entropy, purity flag and block purities are verify_entropy_bound's
        for seed in range(20):
            rho = random_density(2, seed)
            a, b, c = pure_abc(seed) if seed % 2 else (rho[0, 0].real, rho[0, 1], rho[1, 1].real)
            theta = 0.15 * seed
            report = verify_closed_forms(a, b, c, theta)
            kraus = verify_entropy_bound(np.array([[a, b], [np.conj(b), c]]), coupling_model(theta))
            assert (report.entropy, report.numeric_bound, report.projected_entropy, report.hypothesis_pure) == (
                kraus.entropy, kraus.bound, kraus.projected_entropy, kraus.hypothesis_pure)
            assert 1.0 - sum(report.block_purities) == kraus.projected_entropy

    def test_state_is_checked_within_tol(self):
        # a trace of 1 + 5e-8 passes a 1e-6 check and fails the default one
        a, b, c = 0.5 + 5e-8, 0.5, 0.5
        with pytest.raises(TraceError, match=r"tol 1\.000e-09"):
            verify_closed_forms(a, b, c, 0.7)
        report = verify_closed_forms(a, b, c, 0.7, tol=1e-6)
        assert report.theorem_holds
        assert abs(report.numeric_bound - report.bound) < 1e-12
