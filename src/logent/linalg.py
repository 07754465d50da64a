"""Small complex linear-algebra layer shared by every other module.

All matrices are plain 2-D numpy arrays of complex128. Composite systems
use a fixed ordering convention: the first ("a") factor index varies
slowest, so the joint index is i_a * dim_b + i_b.
"""
from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-9


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex128 array (no copy when already one)."""
    out = np.asarray(m, dtype=np.complex128)
    if out.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={out.ndim}")
    return out


def hermiticity_defect(m) -> float:
    """Largest entrywise deviation of m from dagger(m)."""
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"square matrix required, got {m.shape}")
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def partial_trace(m, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    """Trace out one factor of a (dim_a*dim_b) x (dim_a*dim_b) matrix.

    keep="a" returns the dim_a x dim_a reduction, keep="b" the
    dim_b x dim_b one. Index convention: joint = i_a * dim_b + i_b.
    """
    m = as_complex_matrix(m)
    n = dim_a * dim_b
    if m.shape != (n, n):
        raise ValueError(f"dimension mismatch: expected {(n, n)} for dims ({dim_a},{dim_b}), got {m.shape}")
    t = m.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "a":
        return np.trace(t, axis1=1, axis2=3)
    if keep == "b":
        return np.trace(t, axis1=0, axis2=2)
    raise ValueError(f"keep must be 'a' or 'b', got {keep!r}")
