import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from logent.linalg import _require, hermiticity_defect, partial_trace

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_matrix(dim, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    return scale * (rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim)))


@given(seeds, st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_partial_trace_recovers_factors(seed, da, db):
    a = random_matrix(da, seed)
    b = random_matrix(db, seed + 1)
    m = np.kron(a, b)
    npt.assert_allclose(partial_trace(m, da, db, keep="a"), a * np.trace(b), atol=1e-12)
    npt.assert_allclose(partial_trace(m, da, db, keep="b"), b * np.trace(a), atol=1e-12)


def test_partial_trace_preserves_trace():
    m = random_matrix(6, 3)
    assert abs(np.trace(partial_trace(m, 2, 3, keep="a")) - np.trace(m)) < 1e-12
    assert abs(np.trace(partial_trace(m, 2, 3, keep="b")) - np.trace(m)) < 1e-12


def test_partial_trace_rejects_bad_dims_and_selector():
    with pytest.raises(ValueError, match="dimension mismatch"):
        partial_trace(np.eye(5), 2, 3, keep="a")
    with pytest.raises(ValueError, match="keep"):
        partial_trace(np.eye(6), 2, 3, keep="c")


def test_hermiticity_defect_values():
    assert hermiticity_defect(np.eye(3)) == 0.0
    assert abs(hermiticity_defect(np.array([[0, 0.3], [0.1, 0]])) - 0.2) < 1e-15

def test_require_fails_a_nan_and_formats_only_on_failure():
    _require(1e-9, 1e-9, "{2} has no argument to format")  # passes at equality, message untouched
    with pytest.raises(ValueError, match=r"^defect 2\.000e-09 of 7$"):
        _require(2e-9, 1e-9, "defect {0:.3e} of {1}", 7)
    with pytest.raises(AssertionError, match="^nan$"):
        _require(float("nan"), 1.0, "{!r}", error=AssertionError)
