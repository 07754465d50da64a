import dataclasses
import json
import re

import numpy as np
import numpy.testing as npt
import pytest

import logent.fuzz
from logent import serialization
from logent.amplitude_damping import coupling_model
from logent.channels import CouplingModel, _kraus
from logent.fuzz import run_suite
from logent.serialization import (distribution_from_json, dump_json,
                                  ensemble_from_json, load_json,
                                  matrix_from_json, matrix_to_json,
                                  model_from_json, model_to_json,
                                  partition_from_json)
from logent.states import random_density, random_unitary


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


def _wide_range_matrices():
    """300 matrix objects of 1..5 x 1..5 pairs, exponents from -300 to 300."""
    rng = np.random.default_rng(11)
    for _ in range(300):
        rows, cols = rng.integers(1, 6, size=2)
        mant = rng.standard_normal((rows, cols, 2))
        m = mant * 10.0 ** rng.integers(-300, 301, size=(rows, cols, 2))
        yield {"rows": int(rows), "cols": int(cols), "data": m.reshape(-1, 2).tolist()}


def test_matrix_reader_is_bit_identical_to_pair_loop(tmp_path):
    for obj in _wide_range_matrices():
        for text in (obj, json.loads(json.dumps(obj))):
            assert _same_bits(matrix_from_json(text), _loop_from_json(text))
        # and through a file, where load_json reads the pairs as one array
        got = _assert_reads_like_json_loads(tmp_path / "m.json", json.dumps(obj))
        assert isinstance(got, np.ndarray) and _same_bits(got, _loop_from_json(obj))
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
    obj["dim_s"], obj["env_init"] = 2, True
    with pytest.raises(ValueError, match="^model env_init must be an integer, got True$"):
        model_from_json(obj)
    obj["unitary"] = {"rows": 2}  # CouplingModel owns the integer check, so the unitary is read first
    with pytest.raises(ValueError, match="missing key 'cols'"):
        model_from_json(obj)


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


def _assert_writes_like_json_dumps(obj):
    """dump_json writes json.dumps(indent=2, allow_nan=False)'s bytes, or raises its exception."""
    got = _outcome(lambda: dump_json(obj))
    want = _outcome(lambda: json.dumps(obj, indent=2, allow_nan=False))
    same = got == want  # not in the assert: no diff of MBs
    assert same, (str(obj)[:200], str(got)[:200], str(want)[:200])
    return got


def test_dump_json_writes_the_bytes_of_json_dumps(monkeypatch):
    for obj in _wide_range_matrices():
        _assert_writes_like_json_dumps(obj)
    model = CouplingModel(random_unitary(24, 3), dim_s=6, dim_e=4)
    ops, defect = _kraus(model)
    kraus = {"operators": [matrix_to_json(e) for e in ops], "completeness_defect": defect}
    arrays = []
    serialization._lift_pairs(kraus, arrays)
    assert [len(a) for a in arrays] == [36] * 4  # every operator goes through the bulk path
    _assert_writes_like_json_dumps(kraus)
    _assert_writes_like_json_dumps(model_to_json(model))
    _assert_writes_like_json_dumps({"weights": [0.25, 0.75],
                                    "states": [matrix_to_json(random_density(3, s)) for s in (1, 2)]})
    real = logent.fuzz.verify_entropy_bound
    monkeypatch.setattr(logent.fuzz, "verify_entropy_bound",
                        lambda rho, model: dataclasses.replace(real(rho, model), slack=-1.0))
    summary = run_suite("all", 5, 4, 3, 20)
    assert summary["suites"][0]["failed_trials"]  # each records its state and model
    _assert_writes_like_json_dumps(summary)
    edge = [-0.0, 5e-324, 1e16, 1e-7, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]
    _assert_writes_like_json_dumps({"rows": 1, "cols": 7, "data": [[x, edge[-1 - k]] for k, x in enumerate(edge)]})
    text = dump_json({"data": [[x, x] for x in edge]})
    assert all(f"      {x!r}" in text for x in edge)  # repr precision, "1e+16" and "1e-07" included


WRITER_CASES = {
    "int in a pair": {"data": [[1, 2.0], [3.0, 4.0]]}, "bool in a pair": {"data": [[True, 2.0]]},
    "empty data": {"rows": 1, "cols": 1, "data": []}, "strings": {"data": [["1.0", "2.0"]]},
    "string data": {"data": "[[1.0, 2.0]]"}, "triples": {"data": [[1.0, 2.0, 3.0]]},
    "float subclass": {"data": [[np.float64(0.1), 2.0]]}, "tuple pairs": {"data": [(1.0, 2.0)]},
    "non-ASCII keys": {"é": {"data": [[1.0, 2.0]]}, "ключ": "значение", "data": [[3.0, 4.0]]},
    "placeholder string": {"note": serialization._PAIRS, "data": [[1.0, 2.0]]},
    "placeholder key": {serialization._PAIRS: 1, "data": [[1.0, 2.0]]},
    "placeholder data": {"data": serialization._PAIRS, "m": {"data": [[1.0, 2.0]]}},
    "nested": [{"data": [[1.0, 2.0]]}, ({"x": [{"data": [[3.0, -4.0]]}]},), "data", {"data": None}],
    "NaN in data": {"data": [[1.0, 2.0], [float("nan"), 0.0]]},
    "inf in data": {"data": [[float("inf"), 2.0]]}, "-inf in data": {"data": [[1.0, float("-inf")]]},
    "NaN outside": {"x": float("nan"), "data": [[1.0, 2.0]]},
    "inf outside": {"data": [[1.0, 2.0]], "x": [float("-inf")]},
    "unserializable": {"data": [[1.0, 2.0]], "x": object()},
    "unserializable key": {"data": [[1.0, 2.0]], (1, 2): 0},
}


@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_dump_json_writes_or_rejects_as_json_dumps(case):
    _assert_writes_like_json_dumps(WRITER_CASES[case])


def test_dump_json_reports_a_circular_document_as_json_dumps():
    doc = {"data": [[1.0, 2.0]]}
    doc["self"] = [doc]
    got = _assert_writes_like_json_dumps(doc)
    assert got == (ValueError, "Circular reference detected")


def _outcome(read):
    """A reader's matrix, or the type and message of what it raised."""
    try:
        return read()
    except Exception as exc:  # the exception itself is what is compared
        return type(exc), str(exc)


def _plain(obj):
    """The document with the pair array of each "data" key as lists, and every integer that
    a float64 holds as the float it rounds to, as in a pair array. An array anywhere else
    stays, and fails json.dumps."""
    if isinstance(obj, dict):
        return {k: v.tolist() if k == "data" and isinstance(v, np.ndarray) else _plain(v)
                for k, v in obj.items()}
    if isinstance(obj, list):
        return list(map(_plain, obj))
    if isinstance(obj, int) and not isinstance(obj, bool) and abs(obj) < 2**1023:
        return float(obj)
    return obj


def _assert_reads_like_json_loads(path, text):
    """load_json reads the file as json.loads reads its text, and matrix_from_json reads both
    alike: the same document and bitwise the same matrix, or the same exception and message."""
    path.write_bytes(text.encode("utf-8"))
    plain = path.read_text(encoding="utf-8")  # json.load's own read, newlines translated
    got, want = _outcome(lambda: load_json(str(path))), _outcome(lambda: json.loads(plain))
    if isinstance(want, tuple):
        same = got == want
        assert same, (text[:200], got, want)
        return got
    same = json.dumps(_plain(got)) == json.dumps(_plain(want))  # not in the assert: no diff of MBs
    assert same, text[:200]
    got, want = _outcome(lambda: matrix_from_json(got)), _outcome(lambda: matrix_from_json(want))
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and _same_bits(got, want), text[:200]
    else:
        same = got == want
        assert same, (text[:200], got, want)
    return got


def test_load_json_reads_big_integers_and_signed_zeros_as_json_loads_does(tmp_path):
    path = tmp_path / "m.json"
    # integers past float64's exact range round as float() does; "-0" is the integer 0
    entries = ["2" + "0" * 300, str(2**53 + 1), str(2**63 + 1), str(-(2**64) - 3), str(10**300 + 7),
               str(3**600), "-0", "-0.0", "0", "5e-324", "1.7976931348623157e308", "-1", "1E+2", "1e-7"]
    data = ", ".join(f"[{entries[k]}, {entries[-1 - k]}]" for k in range(len(entries)))
    got = _assert_reads_like_json_loads(path, f'{{"rows": 2, "cols": 7, "data": [{data}]}}')
    assert isinstance(got, np.ndarray) and not got.flags.writeable
    assert not np.signbit(got[0, 6].real) and np.signbit(got[1, 0].real)  # -0 and -0.0


PARITY_CASES = {
    "junk after a pair": '[[1, 2]5]', "leading zero": '[[01, 2]]', "plus sign": '[[+1, 2]]',
    "bare fraction": '[[.5, 2]]', "bare point": '[[1., 2]]', "bare exponent": '[[1e, 2]]',
    "trailing comma": '[[1, 2], [3, 4],]', "missing comma": '[[1, 2] [3, 4]]',
    "three-element pair": '[[1, 2, 3], [3, 4]]', "one-element pair": '[[1], [3, 4]]',
    "overflow": '[[1e999, 2], [3, 4]]', "huge integer": '[[1' + "0" * 400 + ', 2], [3, 4]]',
    "number moved past a bracket": '[[1, 2], [3, ]4]', "number moved before a bracket": '[[1, 2], 3[, 4]]',
    "empty slot": '[[1, 2], [, 4]]', "empty pair": '[[1, 2], []]', "empty array": '[]',
    "nested pair": '[[1, [2]], [3, 4]]', "bool": '[[true, 2], [3, 4]]', "string": '[["1", 2], [3, 4]]',
    "null": '[[1, null], [3, 4]]', "object": '[[{}, 2], [3, 4]]', "object in a pair": '[[1, {"a": 2}], [3, 4]]', "Infinity": '[[1, 2], [-Infinity, 4]]', "NaN": '[[NaN, 2], [3, 4]]',
    "whitespace": '[\t[1 ,\r\n2 ] ,\n[ 3,4]\r]', "spaced close": '[[1, 2], [3, 4] ]',
    "short": '[[1, 2]]', "long": '[[1, 2], [3, 4], [5, 6]]', "truncated": '[[1, 2], [3, 4',
    "unclosed": '[[1, 2], [3, 4]',
}


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_load_json_rejects_what_json_loads_rejects(tmp_path, case):
    data = PARITY_CASES[case]
    _assert_reads_like_json_loads(tmp_path / "m.json", f'{{"rows": 2, "cols": 1, "data": {data}}}')
    _assert_reads_like_json_loads(tmp_path / "m.json", f'{{"rows":2,"cols":1,"data":{data}}} ')


def test_load_json_documents_around_the_pair_arrays(tmp_path):
    path = tmp_path / "m.json"
    good = '"rows": 1, "cols": 2, "data": [[1, 2], [3, 4]]'
    for text in ('{"note": "NaN", ' + good + '}', '{"note": 1e999, ' + good + '}',
                 '{"note": NaN, ' + good + '}', '{"note": [-Infinity], ' + good + '}',
                 '{"note": "\\"data\\": [[7, 8]]", ' + good + '}',
                 '{"\\"data": [[7, 8]], ' + good + '}',
                 '{"data": [[7, 8]], ' + good + '}', '{' + good + ', "data": [[7, 8], [9, 0]]}',
                 '{' + good + ', "data": [[7, 8]]}', '{' + good + ', "data": [[7, 8]}',
                 '\ufeff{' + good + '}', '{' + good + '}\n', '{' + good + '} x', '{' + good,
                 '{' + good + '}'[:-3], '\t{\r\n' + good.replace(" ", "\n") + '\r}\r\n',
                 '{"mydata": [[7, 8]], ' + good + '}', '{"data" : \n [[7, 8]], ' + good + '}',
                 '[{"data": [[1, 2]]}, "data", {"data": [[3, 4]]}]'):
        _assert_reads_like_json_loads(path, text)
    ens = {"weights": [0.5, 0.5], "states": [matrix_to_json(np.eye(2) / 2)] * 2}
    path.write_text(json.dumps(ens), encoding="utf-8")
    loaded = load_json(str(path))
    assert all(isinstance(s["data"], np.ndarray) for s in loaded["states"])
    assert _plain(loaded) == ens


def test_load_json_random_mutations_read_like_json_loads(tmp_path):
    rng = np.random.default_rng(2024)
    text = '{"rows": 2, "cols": 2, "data": [[0.5, -1], [2e-3, 0], [-0, 7], [1.25E+2, -0.0]]}'
    alphabet = '[],.-+eE0123456789 \t\n\r"{}:aN\\x'
    for _ in range(500):
        t = list(text)
        for _ in range(rng.integers(1, 4)):
            i, kind = int(rng.integers(len(t))), rng.integers(3)
            c = alphabet[rng.integers(len(alphabet))]
            if kind == 0:
                t[i] = c
            elif kind == 1:
                del t[i]
            else:
                t.insert(i, c)
        _assert_reads_like_json_loads(tmp_path / "m.json", "".join(t))


def test_load_json_reads_pair_arrays_across_chunks(tmp_path):
    rng = np.random.default_rng(5)
    data = json.dumps(rng.standard_normal((40_000, 2)).tolist())
    assert len(data) > 1.5 * serialization._CHUNK
    text = f'{{"rows": 40000, "cols": 1, "data": {data}}}'
    path = tmp_path / "m.json"
    assert isinstance(_assert_reads_like_json_loads(path, text), np.ndarray)
    second = text.index("[", text.index("[[") + serialization._CHUNK + 1000)  # a pair in chunk 2
    end = text.index("]", second)
    for bad in ("[true, 0]", "[0, 01]"):
        _assert_reads_like_json_loads(path, text[:second] + bad + text[end + 1:])
    _assert_reads_like_json_loads(path, text[:-2])


def test_load_json_checks_every_chunk_boundary(tmp_path, monkeypatch):
    # small chunks put a cut next to every kind of pair, slot and bracket
    monkeypatch.setattr(serialization, "_CHUNK", 23)
    pairs = [[f"{x:.3g}", f"{y:.3g}"] for x, y in np.random.default_rng(6).standard_normal((40, 2))]
    path = tmp_path / "m.json"
    for k, (re_, im) in enumerate(pairs):
        for bad in (f"[{re_}, ]{im}", f"{re_}[, {im}]", f"[, {im}]", f"[{re_}, ]", "[true, 0]",
                    f"[{re_} {im}]", f"[{re_}, {im}, 0]", f"[{re_},, {im}]", f"[{re_}, {im}],",
                    f"[{re_}, {im}]"):
            data = ", ".join([f"[{a}, {b}]" for a, b in pairs[:k]] + [bad]
                             + [f"[{a}, {b}]" for a, b in pairs[k + 1:]])
            _assert_reads_like_json_loads(path, f'{{"rows": 40, "cols": 1, "data": [{data}]}}')
