"""JSON wire formats for matrices, coupling models, partitions,
ensembles, and distributions.

A complex matrix travels as {"rows": R, "cols": C, "data": [[re, im],
...]} with exactly R*C row-major pairs; wrong lengths are rejected, not
padded or truncated. The other formats compose that one:

    model        {"unitary": <matrix>, "dim_s": int, "dim_e": int, "env_init": int?}
    partition    {"blocks": [[int, ...], ...]}
    ensemble     {"weights": [float, ...], "states": [<matrix>, ...]}
    distribution {"probs": [float, ...]}
"""
from __future__ import annotations

import json
import numbers

import numpy as np

from .channels import CouplingModel
from .linalg import as_complex_matrix
from .mixing import Ensemble


def matrix_to_json(m) -> dict:
    m = as_complex_matrix(m)
    rows, cols = m.shape
    data = [[float(x.real), float(x.imag)] for x in m.reshape(-1)]
    return {"rows": rows, "cols": cols, "data": data}


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError(f"matrix object must be a JSON object, got {type(obj).__name__}")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise ValueError(f"matrix object missing key {key!r}")
    rows, cols = obj["rows"], obj["cols"]
    if not (isinstance(rows, int) and isinstance(cols, int)) or rows < 1 or cols < 1:
        raise ValueError(f"rows/cols must be positive integers, got {rows!r}/{cols!r}")
    data = obj["data"]
    if not isinstance(data, list) or len(data) != rows * cols:
        n = len(data) if isinstance(data, list) else f"type {type(data).__name__}"
        raise ValueError(f"data must hold exactly rows*cols={rows * cols} pairs, got {n}")
    out = np.empty(rows * cols, dtype=np.complex128)
    for k, pair in enumerate(data):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in pair)):
            raise ValueError(f"data[{k}] must be a [re, im] pair of numbers, got {pair!r}")
        out[k] = complex(pair[0], pair[1])
    return out.reshape(rows, cols)


def model_to_json(model: CouplingModel) -> dict:
    return {
        "unitary": matrix_to_json(model.unitary),
        "dim_s": model.dim_s,
        "dim_e": model.dim_e,
        "env_init": model.env_init,
    }


def model_from_json(obj) -> CouplingModel:
    if not isinstance(obj, dict):
        raise ValueError(f"model object must be a JSON object, got {type(obj).__name__}")
    for key in ("unitary", "dim_s", "dim_e"):
        if key not in obj:
            raise ValueError(f"model object missing key {key!r}")
    dim_s, dim_e = obj["dim_s"], obj["dim_e"]
    env_init = obj.get("env_init", 0)
    for name, v in (("dim_s", dim_s), ("dim_e", dim_e), ("env_init", env_init)):
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"model {name} must be an integer, got {v!r}")
    return CouplingModel(matrix_from_json(obj["unitary"]), dim_s=dim_s, dim_e=dim_e, env_init=env_init)


def partition_from_json(obj) -> list[list[int]]:
    if not isinstance(obj, dict) or "blocks" not in obj:
        raise ValueError("partition object must be a JSON object with a 'blocks' key")
    blocks = obj["blocks"]
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise ValueError("'blocks' must be a list of lists of indices")
    for b in blocks:
        for i in b:
            if not isinstance(i, int) or isinstance(i, bool):
                raise ValueError(f"partition index {i!r} is not an integer")
    return blocks


def ensemble_from_json(obj) -> Ensemble:
    if not isinstance(obj, dict):
        raise ValueError(f"ensemble object must be a JSON object, got {type(obj).__name__}")
    for key in ("weights", "states"):
        if key not in obj:
            raise ValueError(f"ensemble object missing key {key!r}")
    weights = obj["weights"]
    states = obj["states"]
    if not isinstance(weights, list) or not isinstance(states, list):
        raise ValueError("ensemble weights and states must be lists")
    return Ensemble(weights=np.asarray(weights, dtype=float),
                    states=tuple(matrix_from_json(s) for s in states))


def distribution_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "probs" not in obj:
        raise ValueError("distribution object must be a JSON object with a 'probs' key")
    probs = obj["probs"]
    if not isinstance(probs, list) or not probs:
        raise ValueError("'probs' must be a non-empty list of numbers")
    for x in probs:
        if not isinstance(x, numbers.Real) or isinstance(x, bool):
            raise ValueError(f"probability {x!r} is not a number")
    return np.asarray(probs, dtype=float)


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dump_json(obj, path: str | None = None) -> str:
    text = json.dumps(obj, indent=2, allow_nan=False)  # NaN/Infinity are not JSON
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text
