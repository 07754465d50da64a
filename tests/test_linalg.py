import re
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from logent.amplitude_damping import coupling_model
from logent.channels import (CouplingModel, apply_channel, block_decompose, completeness_defect, couple,
                             exchange_entropy, extract_kraus)
from logent.linalg import _require, as_complex_matrix, hermiticity_defect, partial_trace
from logent.measurement import projectors_from_partition, purity_decomposition, validate_projectors
from logent.mixing import Ensemble, schmidt_entropy_pair
from logent.states import DensityValidationError, NonHermitianError, density_from_pure, purity, validate_density

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


INF_STATE = [[np.inf, 0], [0, 0]]
NORM_INF = re.escape("state vector norm inf deviates from 1")


@pytest.mark.parametrize("call, error, message", [
    (lambda: validate_density(INF_STATE), NonHermitianError, "defect nan"),
    (lambda: validate_density([[1e308, -1e308], [1e308, 0]]), NonHermitianError, "defect inf"),
    (lambda: Ensemble(weights=[1.0], states=(INF_STATE,)), NonHermitianError, "defect nan"),
    (lambda: validate_projectors([np.array([[np.inf]])]), ValueError, "projector 0 is not Hermitian"),
    (lambda: validate_projectors([np.array([[1e200]])]), ValueError, "projector 0 is not idempotent"),
    (lambda: block_decompose(np.full((4, 4), np.inf), 2, 2), ValueError, "joint state not Hermitian: defect nan"),
    (lambda: purity_decomposition(INF_STATE, projectors_from_partition([[0], [1]], 2)), ValueError,
     "state not Hermitian: defect nan"),
    (lambda: density_from_pure([1e200, 1e200]), ValueError, NORM_INF),
    (lambda: schmidt_entropy_pair([1e200, 1e200, 0, 0], 2, 2), ValueError, NORM_INF),
], ids=["density-inf", "density-huge", "ensemble-inf", "projector-inf", "projector-huge", "block-decompose-inf",
        "purity-decomposition-inf", "pure-huge", "schmidt-huge"])
def test_validators_reject_inf_and_huge_input_without_a_numpy_warning(call, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            call()


@pytest.mark.parametrize("m", [[[np.inf]], [[0, np.inf], [np.inf, 0]]])
def test_hermiticity_defect_of_inf_is_nan_without_a_numpy_warning(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(hermiticity_defect(m))


QUBIT_KRAUS = extract_kraus(coupling_model(0.3))
QUBIT_PROJECTORS = projectors_from_partition([[0], [1]], 2)
RAGGED = [[1, 0], [0]]
UNEQUAL_ROWS = "expected a 2-D matrix, got rows of unequal length"


@pytest.mark.parametrize("call, error, message", [
    (lambda: couple(np.eye(3) / 3, coupling_model(0.3)), ValueError,
     "dimension mismatch: state is (3, 3), model system side is 2"),
    (lambda: exchange_entropy(np.eye(3) / 3, coupling_model(0.3)), ValueError,
     "dimension mismatch: state is (3, 3), model system side is 2"),
    (lambda: apply_channel(np.eye(3) / 3, QUBIT_KRAUS), ValueError,
     "dimension mismatch: state is (3, 3), operator input side is 2"),
    (lambda: CouplingModel(np.eye(4), dim_s=2, dim_e=3), ValueError,
     "dimension mismatch: unitary is (4, 4), joint space is 6"),
    (lambda: block_decompose(np.eye(4) / 4, 2, 3), ValueError,
     "dimension mismatch: joint state is (4, 4), joint space is 6"),
    (lambda: purity_decomposition(np.eye(3) / 3, QUBIT_PROJECTORS), ValueError,
     "dimension mismatch: state is (3, 3), projector space is 2"),
    (lambda: partial_trace(np.eye(6), 2, 2, keep="a"), ValueError,
     "dimension mismatch: matrix is (6, 6), space of dims (2,2) is 4"),
    (lambda: schmidt_entropy_pair(np.ones(6) / np.sqrt(6), 2, 2), ValueError,
     "dimension mismatch: matrix is (6, 6), space of dims (2,2) is 4"),
    (lambda: partial_trace(np.eye(2), -1, -2, keep="a"), ValueError,
     "dimensions must be positive, got dim_a=-1 dim_b=-2"),
    (lambda: partial_trace(np.zeros((0, 0)), 0, 5, keep="b"), ValueError,
     "dimensions must be positive, got dim_a=0 dim_b=5"),
    (lambda: schmidt_entropy_pair([1, 0, 0, 0], -2, -2), ValueError,
     "dimensions must be positive, got dim_a=-2 dim_b=-2"),
    (lambda: block_decompose(np.eye(4) / 4, -2, -2), ValueError,
     "dimensions must be positive, got dim_s=-2 dim_e=-2"),
    (lambda: block_decompose(np.ones(4), 0, 2), ValueError, "expected a 2-D matrix, got ndim=1"),
    (lambda: apply_channel(np.eye(2) / 2, [np.eye(2), np.eye(3)]), ValueError,
     "operator 1 has shape (3, 3), expected (2, 2)"),
    (lambda: completeness_defect([np.eye(2), np.eye(3)]), ValueError,
     "operator 1 has shape (3, 3), expected (2, 2)"),
    (lambda: apply_channel(np.eye(2) / 2, [np.eye(2), [[1, 0], [0]]]), ValueError,
     "operator 1 is not a matrix: its rows differ in length"),
    (lambda: completeness_defect([[[1, 0], [0]], np.eye(2)]), ValueError,
     "operator 0 is not a matrix: its rows differ in length"),
    (lambda: completeness_defect(np.zeros((1, 2, 0))), ValueError,
     "expected a non-empty stack of 2-D matrices, got shape (1, 2, 0)"),
    (lambda: apply_channel(np.eye(2) / 2, np.zeros((1, 0, 2))), ValueError,
     "expected a non-empty stack of 2-D matrices, got shape (1, 0, 2)"),
    (lambda: as_complex_matrix(np.ones(3)), ValueError, "expected a 2-D matrix, got ndim=1"),
    (lambda: hermiticity_defect(np.ones((2, 3))), ValueError, "square matrix required, got (2, 3)"),
    (lambda: validate_density(np.ones((2, 3))), DensityValidationError,
     "density matrix must be square, got (2, 3)"),
    (lambda: validate_density(RAGGED), ValueError, UNEQUAL_ROWS),
    (lambda: purity(RAGGED), ValueError, UNEQUAL_ROWS),
    (lambda: partial_trace(RAGGED, 1, 2, keep="a"), ValueError, UNEQUAL_ROWS),
    (lambda: apply_channel(RAGGED, QUBIT_KRAUS), ValueError, UNEQUAL_ROWS),
    (lambda: CouplingModel(RAGGED, dim_s=1, dim_e=2), ValueError, UNEQUAL_ROWS),
    (lambda: Ensemble([0.5, 0.5], [np.eye(2) / 2, RAGGED]), ValueError,
     "state 1 is not a matrix: its rows differ in length"),
    (lambda: validate_projectors([np.eye(2), RAGGED]), ValueError,
     "projector 1 is not a matrix: its rows differ in length"),
    (lambda: Ensemble([0.5, 0.5], [np.eye(2) / 2, np.eye(3) / 3]), ValueError,
     "state 1 has shape (3, 3), expected (2, 2)"),
    (lambda: validate_projectors([np.eye(2), np.eye(3)]), ValueError,
     "projector 1 has shape (3, 3), expected (2, 2)"),
    (lambda: Ensemble([0.5, 0.5], [np.ones((2, 3)) / 2] * 2), DensityValidationError,
     "density matrix must be square, got (2, 3)"),
], ids=["couple", "exchange", "apply", "model", "block-decompose",
        "purity-decomposition", "partial-trace", "schmidt", "partial-trace-negative-dims",
        "partial-trace-zero-dim", "schmidt-negative-dims", "block-decompose-negative-dims",
        "block-decompose-not-2d-and-zero-dim", "apply-ragged-kraus", "completeness-ragged-kraus",
        "apply-ragged-kraus-member", "completeness-ragged-kraus-member", "completeness-zero-width-kraus",
        "apply-zero-height-kraus", "not-2d", "hermiticity-non-square", "density-non-square",
        "density-ragged", "purity-ragged", "partial-trace-ragged", "apply-ragged-state", "model-ragged",
        "ensemble-ragged-member", "projectors-ragged-member", "ensemble-misshaped-member",
        "projectors-misshaped-member", "ensemble-non-square-members"])
def test_shape_checks_name_the_shape_they_reject(call, error, message):
    # each check names the shape it rejects; a check against a space's dimension names the space too
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_a_non_numeric_matrix_entry_keeps_numpys_conversion_error():
    # the rows agree in length, so the entry reaches numpy's complex128 conversion and its error
    bad = [["x", 0], [0, 1]]
    with pytest.raises(ValueError) as numpys:
        np.asarray(bad, dtype=np.complex128)
    with pytest.raises(ValueError, match=f"^{re.escape(str(numpys.value))}$"):
        as_complex_matrix(bad)


def test_a_non_numeric_operator_entry_is_no_shape_error():
    # the members' shapes agree, so the stack check passes the entry on to numpy's conversion
    with pytest.raises(ValueError) as info:
        apply_channel(np.eye(2) / 2, [np.eye(2), [["x", 0], [0, 1]]])
    assert "shape" not in str(info.value)


with warnings.catch_warnings():  # np.matrix warns on construction that the subclass is not recommended
    warnings.simplefilter("ignore", PendingDeprecationWarning)
    NP_MATRIX = np.matrix([[1, 2], [3, 4]])
CONVERSIONS = {
    "ints": [[1, 2], [3, 4]],
    "bools": [[True, False], [False, True]],
    "2**64": [[2**64, 0], [0, 1]],
    "2**70": [[2**70, 1], [1, 1]],
    "-2**63": [[-2**63, 1], [0, 0]],
    "float32-scalars": [[np.float32(0.1), 1], [2.5, np.float32(1 / 3)]],
    "numeric-strings": [["1.5", "2"], ["-3e2", "1+2j"]],
    "none": [[None, 0], [0, 1]],
    "inf": [[np.inf, -np.inf], [0, 1]],
    "nan": [[np.nan, 0], [0, complex(np.nan, -0.0)]],
    "negative-zero": [[-0.0, 0], [complex(0, -0.0), -0.0]],
    "tuples": ((1, 2.5), (3j, 4)),
    "python-complex": [[1 + 2j, 3], [4, 5j]],
    "np-matrix": NP_MATRIX,
    "transposed": np.arange(6.0).reshape(2, 3).T,
    "strided": np.arange(16.0).reshape(4, 4)[::2, ::2],
    "int8": np.eye(3, dtype=np.int8),
    "complex64": (np.arange(4) + 0.1j).astype(np.complex64).reshape(2, 2),
    "non-numeric-string": [["x", 0], [0, 1]],
    "non-numeric-object": [[object(), 0], [0, 1]],
}


def _converted(convert, m):
    """What a conversion gives: its bytes, dtype, shape, layout and warnings, or its error's type and text."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = convert(m)
        except (TypeError, ValueError) as exc:  # the error itself is compared
            return type(exc), str(exc), [str(w.message) for w in caught]
    return (out.tobytes(), out.dtype, out.shape, out.flags.c_contiguous, out.flags.f_contiguous,
            [str(w.message) for w in caught])


@pytest.mark.parametrize("m", CONVERSIONS.values(), ids=CONVERSIONS.keys())
def test_conversion_matches_numpys_complex128_asarray(m):
    # bit for bit (-0.0 and NaN included), with the same dtype, layout and warnings, or the same error
    assert _converted(as_complex_matrix, m) == _converted(lambda x: np.asarray(x, dtype=np.complex128), m)


def test_a_complex128_matrix_is_returned_as_is():
    m = np.arange(16.0).reshape(4, 4) * (1 + 1j)
    for view in (m, m[::2, ::2], m.T):
        assert as_complex_matrix(view) is view
