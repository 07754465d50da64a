import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import logent.amplitude_damping
from logent.amplitude_damping import (closed_form_block_purities,
                                      closed_form_bound, closed_form_purity,
                                      coupling_model, verify_closed_forms)
from logent.states import purity, random_density, random_pure_state

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
                assert report.entropy_matches_closed_form
                assert report.bound_holds
                assert report.projected_equals_bound
                assert abs(report.entropy - report.closed_form_entropy) < 1e-10
                assert abs(report.numeric_bound - report.bound) < 1e-10

    def test_mixed_input_entropy_still_matches(self):
        # the purity identity holds for any input, pure or not
        for seed in range(100):
            rho = random_density(2, seed)
            a, b, c = rho[0, 0].real, rho[0, 1], rho[1, 1].real
            theta = 0.1 + 3.0 * (seed / 99.0)
            report = verify_closed_forms(a, b, c, theta)
            assert report.entropy_matches_closed_form

    def test_maximally_mixed_at_zero_angle_breaks_the_bound(self):
        # untouched by the identity channel, entropy 1/2 exceeds bound 0;
        # the inequality really does need a pure input
        report = verify_closed_forms(0.5, 0.0, 0.5, 0.0)
        assert not report.hypothesis_pure
        assert not report.bound_holds
        assert abs(report.entropy - 0.5) < 1e-14
        assert report.bound == 0.0

    def test_block_purities_track_closed_forms(self):
        a, b, c = pure_abc(9)
        report = verify_closed_forms(a, b, c, 1.3)
        expected = closed_form_block_purities(a, b, c, 1.3)
        assert abs(report.block_purities[0] - expected[0]) < 1e-10
        assert abs(report.block_purities[1] - expected[1]) < 1e-10

    @pytest.mark.parametrize("offset", [1e-9, float("nan")])
    def test_bound_routes_that_disagree_raise(self, monkeypatch, offset):
        real = logent.amplitude_damping.off_block_bound
        monkeypatch.setattr(logent.amplitude_damping, "off_block_bound", lambda blocks: real(blocks) + offset)
        with pytest.raises(AssertionError, match="^bound routes disagree: "):
            verify_closed_forms(0.5, 0.5, 0.5, 0.7)
