import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from logent.states import (DensityValidationError, NonHermitianError,
                           NonPositiveError, TraceError, density_from_pure,
                           logical_entropy, purity, random_density,
                           random_pure_state, random_unitary, validate_density)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def test_validate_density_accepts_and_returns():
    rho = validate_density(np.eye(2) / 2)
    npt.assert_array_equal(rho, np.eye(2, dtype=complex) / 2)
    assert rho.dtype == np.complex128


def test_validate_density_rejects_non_square():
    with pytest.raises(DensityValidationError, match="square"):
        validate_density(np.ones((2, 3)) / 6)


def test_validate_density_hermiticity_variant():
    with pytest.raises(NonHermitianError) as exc:
        validate_density(np.array([[0.5, 0.3], [0.1, 0.5]]))
    assert abs(exc.value.deviation - 0.2) < 1e-15


def test_validate_density_trace_variant():
    with pytest.raises(TraceError) as exc:
        validate_density(np.array([[1.0, 0.0], [0.0, 0.1]]))
    assert abs(exc.value.deviation - 0.1) < 1e-12


def test_validate_density_positivity_variant():
    # eigenvalues of [[0.5, 0.6], [0.6, 0.5]] are 1.1 and -0.1
    with pytest.raises(NonPositiveError) as exc:
        validate_density(np.array([[0.5, 0.6], [0.6, 0.5]]))
    assert abs(exc.value.deviation - 0.1) < 1e-12


def test_validate_density_tolerance_is_adjustable():
    rho = np.array([[1.0 + 5e-8, 0.0], [0.0, 0.0]])
    with pytest.raises(TraceError):
        validate_density(rho)
    validate_density(rho, tol=1e-6)


def test_density_from_pure_plus_state():
    rho = density_from_pure([2**-0.5, 2**-0.5])
    npt.assert_allclose(rho, np.full((2, 2), 0.5), atol=1e-15)


def test_density_from_pure_renormalizes_small_deviation():
    v = np.array([1.0 + 5e-7, 0.0])
    rho = density_from_pure(v)
    assert abs(np.trace(rho).real - 1.0) < 1e-12


def test_density_from_pure_rejects_large_deviation():
    with pytest.raises(ValueError, match="norm"):
        density_from_pure([1.1, 0.0])


def test_density_from_pure_rejects_nan():
    with pytest.raises(ValueError, match="norm"):
        density_from_pure([np.nan, 0.0])


def test_entropy_zero_on_pure():
    for seed in range(5):
        rho = density_from_pure(random_pure_state(4, seed))
        assert abs(logical_entropy(rho)) < 1e-12


def test_entropy_known_values():
    assert abs(logical_entropy(np.diag([0.75, 0.25]).astype(complex)) - 0.375) < 1e-15
    for d in (2, 3, 5):
        assert abs(logical_entropy(np.eye(d, dtype=complex) / d) - (1 - 1 / d)) < 1e-15


def test_entropy_purity_complement():
    rho = random_density(5, 123)
    assert abs(logical_entropy(rho) + purity(rho) - 1.0) < 1e-15


def test_entropy_matches_eigenvalue_route():
    for seed in range(20):
        rho = random_density(6, seed)
        lam = np.linalg.eigvalsh(rho)
        assert abs(logical_entropy(rho) - (1.0 - np.sum(lam**2))) < 1e-10


def test_entropy_range_and_maximum():
    for seed in range(20):
        d = 2 + seed % 5
        h = logical_entropy(random_density(d, seed))
        assert -1e-12 <= h < 1 - 1 / d
    assert abs(logical_entropy(np.eye(4, dtype=complex) / 4) - 0.75) < 1e-15


def test_entropy_zero_iff_pure_both_directions():
    # pure -> zero
    rho = density_from_pure(random_pure_state(4, 9))
    assert abs(logical_entropy(rho)) < 1e-12
    # near-zero entropy -> spectrum within 1e-9 of (1, 0, ..., 0)
    eps = 4e-10
    near = (1 - eps) * rho + eps * np.eye(4) / 4
    assert logical_entropy(near) < 1e-9
    lam = np.sort(np.linalg.eigvalsh(near))[::-1]
    assert abs(lam[0] - 1.0) < 1e-9
    assert np.all(np.abs(lam[1:]) < 1e-9)


@given(seeds, st.integers(min_value=2, max_value=6))
def test_entropy_unitary_invariant(seed, dim):
    rho = random_density(dim, seed)
    u = random_unitary(dim, seed + 1)
    assert abs(logical_entropy(u @ rho @ u.conj().T) - logical_entropy(rho)) < 1e-10


def test_random_density_is_valid_and_deterministic():
    a = random_density(4, 77)
    validate_density(a)
    b = random_density(4, 77)
    npt.assert_array_equal(a, b)
    c = random_density(4, 78)
    assert not np.array_equal(a, c)


def test_random_unitary_is_unitary_and_deterministic():
    u = random_unitary(5, 31)
    npt.assert_allclose(u @ u.conj().T, np.eye(5), atol=1e-10)
    npt.assert_array_equal(u, random_unitary(5, 31))
    assert not np.array_equal(u, random_unitary(5, 32))


def test_random_unitary_accepts_generator():
    rng = np.random.default_rng(3)
    u = random_unitary(3, rng)
    npt.assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-10)


def test_random_pure_state_normalized():
    for seed in range(5):
        v = random_pure_state(6, seed)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
