"""JSON wire formats for matrices, coupling models, partitions,
ensembles, and distributions.

A complex matrix travels as {"rows": R, "cols": C, "data": [[re, im],
...]} with exactly R*C row-major pairs; wrong lengths are rejected, not
padded or truncated. The other formats compose that one:

    model        {"unitary": <matrix>, "dim_s": int, "dim_e": int, "env_init": int?}
    partition    {"blocks": [[int, ...], ...]}
    ensemble     {"weights": [float, ...], "states": [<matrix>, ...]}
    distribution {"probs": [float, ...]}

Every entry of `data`, `weights` and `probs` is a finite JSON number that
fits a float64 (integers are accepted); booleans, strings, null, NaN and
Infinity are rejected with a ValueError naming the entry: `weights` and
`probs` are checked entry by entry, `data` once per distinct type, in bulk.
load_json returns each `data` array of number pairs as a read-only (n, 2)
float64 array, never a list per pair, and matrix_from_json takes it as it
is; input it rejects fails with the same messages as plain JSON.
"""
from __future__ import annotations

import json
import numbers
import re
from itertools import chain

import numpy as np

from .channels import CouplingModel
from .linalg import as_complex_matrix
from .mixing import Ensemble


def _numbers(values) -> bool:
    """True when every value is a real number other than a bool: one check per distinct type."""
    return all(issubclass(t, numbers.Real) and not issubclass(t, bool) for t in set(map(type, values)))


def _finite_array(values) -> np.ndarray | None:
    """float64 array of numbers, or None when one overflows float64 or is not finite."""
    try:
        out = np.array(values, dtype=np.float64)
    except OverflowError:
        return None
    return out if np.isfinite(out).all() else None


def _float_list(values: list, name: str) -> np.ndarray:
    """1-D float64 array of a short list of finite numbers, checked entry by entry to name the first bad one."""
    for x in values:
        if not _numbers([x]):
            raise ValueError(f"{name} {x!r} is not a number")
        if _finite_array([x]) is None:
            raise ValueError(f"{name} {x!r} is not a finite float64")
    return np.array(values, dtype=np.float64)


def _json_object(obj, kind: str, *keys: str) -> None:
    """Check that the kind's object is a JSON object holding every key."""
    if not isinstance(obj, dict):
        raise ValueError(f"{kind} object must be a JSON object, got {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{kind} object missing key {key!r}")


def matrix_to_json(m) -> dict:
    m = as_complex_matrix(m)
    rows, cols = m.shape
    return {"rows": rows, "cols": cols, "data": m.reshape(-1, 1).view(np.float64).tolist()}


def matrix_from_json(obj) -> np.ndarray:
    _json_object(obj, "matrix", "rows", "cols", "data")
    rows, cols = obj["rows"], obj["cols"]
    if (not all(isinstance(v, int) and not isinstance(v, bool) for v in (rows, cols))
            or rows < 1 or cols < 1):
        raise ValueError(f"rows/cols must be positive integers, got {rows!r}/{cols!r}")
    data = obj["data"]
    if isinstance(data, np.ndarray):  # load_json's read of a pair array
        if data.shape == (rows * cols, 2) and data.dtype == np.float64 and np.isfinite(data).all():
            return np.ascontiguousarray(data).view(np.complex128).reshape(rows, cols)
        data = data.tolist()
    if not isinstance(data, list) or len(data) != rows * cols:
        n = len(data) if isinstance(data, list) else f"type {type(data).__name__}"
        raise ValueError(f"data must hold exactly rows*cols={rows * cols} pairs, got {n}")
    pairs = (all(issubclass(t, list) for t in set(map(type, data)))
             and set(map(len, data)) == {2} and _numbers(chain.from_iterable(data)))
    out = _finite_array(data) if pairs else None
    if out is None:
        for k, pair in enumerate(data):
            if not (isinstance(pair, list) and len(pair) == 2 and _numbers(pair)):
                raise ValueError(f"data[{k}] must be a [re, im] pair of numbers, got {pair!r}")
            if _finite_array(pair) is None:
                raise ValueError(f"data[{k}] must be a pair of finite float64 numbers, got {pair!r}")
    return out.view(np.complex128).reshape(rows, cols)


def model_to_json(model: CouplingModel) -> dict:
    return {
        "unitary": matrix_to_json(model.unitary),
        "dim_s": model.dim_s,
        "dim_e": model.dim_e,
        "env_init": model.env_init,
    }


def model_from_json(obj) -> CouplingModel:
    _json_object(obj, "model", "unitary", "dim_s", "dim_e")  # CouplingModel checks the integers
    return CouplingModel(matrix_from_json(obj["unitary"]), dim_s=obj["dim_s"], dim_e=obj["dim_e"],
                         env_init=obj.get("env_init", 0))


def partition_from_json(obj) -> list[list]:
    _json_object(obj, "partition", "blocks")
    blocks = obj["blocks"]
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise ValueError("'blocks' must be a list of lists of indices")
    return blocks  # validate_partition checks the indices


def ensemble_from_json(obj) -> Ensemble:
    _json_object(obj, "ensemble", "weights", "states")
    weights = obj["weights"]
    states = obj["states"]
    if not isinstance(weights, list) or not isinstance(states, list):
        raise ValueError("ensemble weights and states must be lists")
    return Ensemble(weights=_float_list(weights, "weight"),
                    states=tuple(matrix_from_json(s) for s in states))


def distribution_from_json(obj) -> np.ndarray:
    _json_object(obj, "distribution", "probs")
    probs = obj["probs"]
    if not isinstance(probs, list) or not probs:
        raise ValueError("'probs' must be a non-empty list of numbers")
    return _float_list(probs, "probability")


_DATA = re.compile(r'"data"[ \t\n\r]*:[ \t\n\r]*(?=\[)')
_CLOSE = re.compile(r"\][ \t\n\r]*\]")
_SPACE, _NUMBER = b" \t\n\r", b"0123456789+-.eE"
_UNBRACKET = bytes.maketrans(b"[]", b"  ")
_CHUNK = 1 << 20  # characters of a pair array checked and parsed at a time
_PAIRS = "\0pairs\0"  # stands in for a pair array while json.dumps writes the rest


def _pair_array(text: str, start: int, end: int) -> np.ndarray:
    """Read text[start:end], a JSON array of [re, im] number pairs, as a read-only (n, 2)
    float64 array; raise ValueError or OverflowError when it is anything else.

    Chunks of about _CHUNK characters, cut at commas, are checked in bulk: they hold only number
    characters, JSON whitespace and "[],"; without whitespace and padded with the commas they were
    cut at, they hold no empty slot ("[," or ",]"); their brackets and commas join into [[,],...,[,]].
    json.loads parses each with its brackets blanked out, one number per slot: the Python
    ints and floats that parsing the nested lists gives.
    """
    skeletons, parts = [], []
    while start < end:
        cut = text.find(",", start + _CHUNK, end)
        cut = end if cut < 0 else cut
        raw = text[start:cut].encode("ascii")
        squeezed = b"," + raw.translate(None, _SPACE) + b","  # the commas the chunk was cut at
        skeletons.append(squeezed[1:-1].translate(None, _NUMBER))
        dense = np.frombuffer(squeezed, dtype=np.uint8)
        left, right = dense[:-1], dense[1:]
        if skeletons[-1].translate(None, b"[],") or (
                (left == ord("[")) & (right == ord(",")) | (left == ord(",")) & (right == ord("]"))).any():
            raise ValueError("a character or an empty slot no pair array holds")
        parts.append(np.array(json.loads(b"[" + raw.translate(_UNBRACKET) + b"]"), dtype=np.float64))
        start = cut + 1
    skeleton = b",".join(skeletons)
    n = len(skeleton) // 4
    if n < 1 or skeleton != b"[" + b"[,],"*(n - 1) + b"[,]]":
        raise ValueError("not an array of pairs")
    out = np.concatenate(parts).reshape(n, 2)
    if not np.isfinite(out).all():
        raise ValueError("non-finite number")
    out.flags.writeable = False
    return out


def load_json(path: str):
    """Parse a JSON file. Every "data" value that is an array of [re, im] number pairs,
    all finite float64, comes back as a read-only (n, 2) float64 array instead of n
    Python lists; matrix_from_json takes it as it is.

    The rest of the document is parsed with each such array replaced by a NaN
    placeholder. On any doubt (an array _pair_array refuses, a NaN elsewhere, a failed
    parse) the whole text is parsed plainly, so rejected input fails as with json.load.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    bounds, arrays, pos = [0], [], 0
    try:
        while (key := _DATA.search(text, pos)) is not None:
            pos = key.end()
            if text[key.start() - 1:key.start()] == "\\":  # an escaped quote: not a "data" key
                continue
            if (close := _CLOSE.search(text, pos)) is None:
                raise ValueError("unclosed pair array")
            arrays.append(_pair_array(text, pos, close.end()))
            bounds += [pos, close.end()]
            pos = close.end()
        rest = [text[a:b] for a, b in zip(bounds[::2], bounds[1::2] + [len(text)])]
        if any("NaN" in r for r in rest):
            raise ValueError("NaN outside the pair arrays")
        found = iter(arrays)
        return json.loads("NaN".join(rest), parse_constant=lambda c: next(found) if c == "NaN" else float(c))
    except (ValueError, OverflowError):
        return json.loads(text)


def _lift_pairs(obj, arrays: list):
    """obj, copied, with each "data" list of [float, float] lists moved to arrays as _PAIRS."""
    if type(obj) is not dict:
        return [_lift_pairs(v, arrays) for v in obj] if type(obj) is list else obj
    out = {}
    for k, v in obj.items():
        if (type(k) is str and k == "data" and type(v) is list and set(map(type, v)) == {list}
                and set(map(len, v)) == {2} and set(map(type, chain.from_iterable(v))) == {float}):
            arrays.append(v)
            v = _PAIRS
        out[k] = _lift_pairs(v, arrays)
    return out


def dump_json(obj) -> str:
    """json.dumps(obj, indent=2, allow_nan=False), byte for byte. Each "data" list of
    [float, float] pairs is written in bulk, one float.__repr__ pass joined with the fixed
    indent separators; json.dumps writes the rest around a placeholder. On any doubt (a
    non-finite pair, a real string equal to the placeholder, a cycle ending in
    RecursionError) plain json.dumps writes the whole object, or raises its own error."""
    arrays = []
    try:
        pieces = json.dumps(_lift_pairs(obj, arrays), indent=2, allow_nan=False).split(json.dumps(_PAIRS))
        text = pieces[:1]
        for pairs, after in zip(arrays, pieces[1:], strict=True):  # more pieces: a real placeholder
            ind = text[-1][text[-1].rfind("\n") + 1:-len('"data": ')]
            it = map(float.__repr__, chain.from_iterable(pairs))
            body = f"\n{ind}  ],\n{ind}  [\n{ind}    ".join(map(f",\n{ind}    ".join, zip(it, it)))
            if "n" in body:  # inf, -inf or nan: no finite repr holds an "n"
                raise ValueError("non-finite pair")
            text += [f"[\n{ind}  [\n{ind}    ", body, f"\n{ind}  ]\n{ind}]", after]
        return "".join(text)
    except (ValueError, TypeError, RecursionError):
        return json.dumps(obj, indent=2, allow_nan=False)
