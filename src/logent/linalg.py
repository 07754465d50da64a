"""Small complex linear-algebra layer shared by every other module.

All matrices are plain 2-D numpy arrays of complex128. Composite systems
use a fixed ordering convention: the first ("a") factor index varies
slowest, so the joint index is i_a * dim_b + i_b.

The tolerance policy is four names that every module reads: DEFAULT_TOL,
IDENTITY_TOL, ROUNDING_TOL and NORM_TOL. Three gates check input: a scalar
check that raises goes through _require, a stacked one through _first, and a
NaN fails both; a matrix's shape against a space's dimension and the
positivity of a joint space's factor dimensions are checked by _on_space.
"""
from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-9  # validation, the CLI's --tol default, and how far a slack may fall below zero
IDENTITY_TOL = 1e-10  # the largest residual of a guaranteed identity
ROUNDING_TOL = 1e-12  # two routes to one sum agree, or rounding alone leaves a residue
NORM_TOL = 1e-6  # how far a state vector's norm may be from 1 and still be renormalized


def _require(value: float, tol: float, message: str, *args, error: type = ValueError) -> None:
    """Raise error(message.format(value, *args)) unless value <= tol, which a NaN value fails."""
    if not value <= tol:
        raise error(message.format(value, *args))


def _on_space(m: np.ndarray, n: int, space: str, what: str = "state", **dims: int) -> np.ndarray:
    """m, after checking that dims, a joint space's factor dimensions, are positive and m's last two axes n x n."""
    if dims and any(d < 1 for d in dims.values()):
        raise ValueError("dimensions must be positive, got " + " ".join(f"{k}={d}" for k, d in dims.items()))
    if m.shape[-2:] != (n, n):
        raise ValueError(f"dimension mismatch: {what} is {m.shape}, {space} is {n}")
    return m


def as_complex_matrix(m, name: str = "") -> np.ndarray:
    """Coerce to a 2-D complex128 array (no copy when already one); a ragged m is reported by name if given."""
    try:
        out = np.asarray(m)
    except ValueError:  # numpy's error for nested rows of unequal length
        raise ValueError(f"{name} is not a matrix: its rows differ in length" if name
                         else "expected a 2-D matrix, got rows of unequal length") from None
    out = out.astype(np.complex128, copy=False)
    if out.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={out.ndim}")
    return out


def hermiticity_defect(m) -> float:
    """Largest entrywise deviation of m from dagger(m)."""
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"square matrix required, got {m.shape}")
    return float(_hermiticity_defects(m))


def _hermiticity_defects(m: np.ndarray) -> np.ndarray:
    """hermiticity_defect over any leading axes, 0 if empty; inf or huge entries fail it quietly (NaN, inf)."""
    with np.errstate(invalid="ignore", over="ignore"):
        return np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)


def _first(ok: np.ndarray) -> int:
    """Flat index of the first False (failed check) in a boolean array, else its size."""
    i = int(ok.argmin()) if ok.size else 0
    return i if ok.size and not ok.flat[i] else ok.size


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.vdot(a, b) along the last axis, over any leading axes: (1 x N) @ (N x 1)
    products, which numpy evaluates with np.vdot's BLAS dot, so each rounds as np.vdot's."""
    return (a.conj()[..., None, :] @ b[..., :, None])[..., 0, 0]


def partial_trace(m, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    """Trace out one factor of a (dim_a*dim_b) x (dim_a*dim_b) matrix.

    keep="a" returns the dim_a x dim_a reduction, keep="b" the
    dim_b x dim_b one. Index convention: joint = i_a * dim_b + i_b.
    """
    return _partial_trace(as_complex_matrix(m), dim_a, dim_b, keep)


def _partial_trace(m: np.ndarray, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    """partial_trace over any leading axes of m."""
    _on_space(m, dim_a * dim_b, f"space of dims ({dim_a},{dim_b})", "matrix", dim_a=dim_a, dim_b=dim_b)
    t = m.reshape(*m.shape[:-2], dim_a, dim_b, dim_a, dim_b)
    if keep == "a":
        return np.trace(t, axis1=-3, axis2=-1)
    if keep == "b":
        return np.trace(t, axis1=-4, axis2=-2)
    raise ValueError(f"keep must be 'a' or 'b', got {keep!r}")
