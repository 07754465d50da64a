import json
import re

import numpy as np
import numpy.testing as npt
import pytest

from logent.amplitude_damping import coupling_model
from logent.serialization import (distribution_from_json, dump_json,
                                  ensemble_from_json, load_json,
                                  matrix_from_json, matrix_to_json,
                                  model_from_json, model_to_json,
                                  partition_from_json)


def test_matrix_round_trip_is_lossless():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    # through the dict, then through actual JSON text
    npt.assert_array_equal(matrix_from_json(matrix_to_json(m)), m)
    npt.assert_array_equal(matrix_from_json(json.loads(json.dumps(matrix_to_json(m)))), m)


def test_matrix_rejects_wrong_data_length():
    with pytest.raises(ValueError, match="exactly rows\\*cols=4"):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0], [0, 0], [0, 0]]})
    with pytest.raises(ValueError, match="exactly rows\\*cols=4"):
        matrix_from_json({"rows": 2, "cols": 2,
                          "data": [[1, 0], [0, 0], [0, 0], [0, 0], [9, 9]]})


def _loop_from_json(obj):
    """Reference reader: one complex(re, im) per pair, as the wire format reads."""
    return np.array([complex(re, im) for re, im in obj["data"]],
                    dtype=np.complex128).reshape(obj["rows"], obj["cols"])


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_matrix_reader_is_bit_identical_to_pair_loop():
    rng = np.random.default_rng(11)
    for _ in range(300):
        rows, cols = rng.integers(1, 6, size=2)
        mant = rng.standard_normal((rows, cols, 2))
        m = mant * 10.0 ** rng.integers(-300, 301, size=(rows, cols, 2))
        obj = {"rows": int(rows), "cols": int(cols), "data": m.reshape(-1, 2).tolist()}
        for text in (obj, json.loads(json.dumps(obj))):
            assert _same_bits(matrix_from_json(text), _loop_from_json(text))
    # integers past float64's exact range round like float(); numpy scalars too
    big = [2**53 + 1, 2**63 + 1, -(2**64) - 3, 10**300 + 7, 3**600]
    scalars = [np.float32(0.1), np.int64(-7), np.float64(-0.0), np.uint8(200),
               np.float16(1e-7), np.int32(2**31 - 1)]
    entries = big + scalars + [-0.0, 5e-324, 1.7976931348623157e308, 0, -1]
    data = [[entries[k], entries[-1 - k]] for k in range(len(entries))]
    obj = {"rows": 1, "cols": len(data), "data": data}
    assert _same_bits(matrix_from_json(obj), _loop_from_json(obj))


def test_matrix_writer_equals_per_element_comprehension():
    rng = np.random.default_rng(12)
    m = rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))
    m[0, 0] = -0.0 - 0.0j
    for view in (m, m[1::2, ::3], m.T, m[:1, ::2], m.real):
        want = [[float(x.real), float(x.imag)] for x in np.asarray(view, dtype=complex).reshape(-1)]
        got = matrix_to_json(view)
        assert got["data"] == want
        assert all(type(x) is float for pair in got["data"] for x in pair)
        assert (got["rows"], got["cols"]) == view.shape
        assert _same_bits(matrix_from_json(got), np.asarray(view, dtype=complex))


def test_matrix_rejects_malformed_entries():
    with pytest.raises(ValueError, match="missing key"):
        matrix_from_json({"rows": 1, "cols": 1})
    with pytest.raises(ValueError, match="JSON object"):
        matrix_from_json([[1, 0]])
    for rows, cols in ((0, 1), (True, True), (1, 1.0), (2, "2")):
        msg = f"rows/cols must be positive integers, got {rows!r}/{cols!r}"
        with pytest.raises(ValueError, match=re.escape(msg)):
            matrix_from_json({"rows": rows, "cols": cols, "data": [[1, 0]]})
    pair = "data[{}] must be a [re, im] pair of numbers, got {!r}"
    finite = "data[{}] must be a pair of finite float64 numbers, got {!r}"
    good = [0.5, -0.25]
    cases = [(pair, [1.0]), (pair, [True, 0.0]), (pair, ["x", 0.0]), (pair, [0.0, None]),
             (pair, [1, 2, 3]), (pair, (1.0, 0.0)), (pair, None), (pair, {"re": 1}),
             (pair, [[1.0], 0.0]), (finite, [float("nan"), 0.0]),
             (finite, [1.0, float("-inf")]), (finite, [10**400, 0]), (finite, [0, -(10**309)])]
    for template, bad in cases:
        for k in (0, 2):
            data = [good] * k + [bad] + [good] * (3 - k)
            with pytest.raises(ValueError, match=re.escape(template.format(k, bad))):
                matrix_from_json({"rows": 2, "cols": 2, "data": data})
    # the first bad pair is named, whichever check it fails
    data = [good, [float("nan"), 0.0], ["x", 0.0], good]
    with pytest.raises(ValueError, match=re.escape(finite.format(1, data[1]))):
        matrix_from_json({"rows": 2, "cols": 2, "data": data})


def test_model_round_trip():
    model = coupling_model(0.7)
    back = model_from_json(json.loads(json.dumps(model_to_json(model))))
    npt.assert_array_equal(back.unitary, model.unitary)
    assert (back.dim_s, back.dim_e, back.env_init) == (2, 2, 0)


def test_model_env_init_defaults_to_zero():
    obj = model_to_json(coupling_model(0.3))
    del obj["env_init"]
    assert model_from_json(obj).env_init == 0


def test_model_rejects_bad_fields():
    obj = model_to_json(coupling_model(0.3))
    obj["dim_s"] = "2"
    with pytest.raises(ValueError, match="dim_s"):
        model_from_json(obj)
    with pytest.raises(ValueError, match="missing key"):
        model_from_json({"dim_s": 2, "dim_e": 2})


def test_partition_from_json():
    assert partition_from_json({"blocks": [[0, 1], [2]]}) == [[0, 1], [2]]
    with pytest.raises(ValueError, match="blocks"):
        partition_from_json({})
    with pytest.raises(ValueError, match="not an integer"):
        partition_from_json({"blocks": [[0.5]]})


def test_ensemble_from_json():
    obj = {"weights": [0.5, 0.5],
           "states": [matrix_to_json(np.diag([1.0, 0.0]).astype(complex)),
                      matrix_to_json(np.diag([0.0, 1.0]).astype(complex))]}
    ens = ensemble_from_json(obj)
    assert len(ens) == 2 and ens.dim == 2
    with pytest.raises(ValueError, match="missing key"):
        ensemble_from_json({"weights": [1.0]})


def test_ensemble_weights_must_be_finite_numbers():
    state = matrix_to_json(np.diag([1.0, 0.0]).astype(complex))
    for bad, what in (("0.5", "not a number"), (True, "not a number"),
                      (None, "not a number"), ([0.5], "not a number"),
                      (float("nan"), "not a finite float64"),
                      (float("inf"), "not a finite float64"),
                      (10**400, "not a finite float64")):
        obj = {"weights": [0.5, bad], "states": [state, state]}
        with pytest.raises(ValueError, match=re.escape(f"weight {bad!r} is {what}")):
            ensemble_from_json(obj)
    ens = ensemble_from_json({"weights": [1, 0], "states": [state, state]})
    npt.assert_array_equal(ens.weights, [1.0, 0.0])


def test_distribution_from_json():
    npt.assert_array_equal(distribution_from_json({"probs": [0.25, 0.75]}), [0.25, 0.75])
    with pytest.raises(ValueError, match="probs"):
        distribution_from_json({"weights": [1.0]})
    for bad in ("0.5", False, None):
        with pytest.raises(ValueError, match=re.escape(f"probability {bad!r} is not a number")):
            distribution_from_json({"probs": [0.5, bad]})
    for bad in (float("nan"), float("-inf"), 10**400):
        with pytest.raises(ValueError, match=re.escape(f"probability {bad!r} is not a finite")):
            distribution_from_json({"probs": [bad, 0.5]})


def test_dump_and_load_json(tmp_path):
    path = tmp_path / "m.json"
    m = np.array([[0.5 + 0.25j]], dtype=complex)
    dump_json(matrix_to_json(m), str(path))
    npt.assert_array_equal(matrix_from_json(load_json(str(path))), m)
