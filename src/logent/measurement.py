"""Projective measurements and how they move logical entropy.

For a complete set of orthogonal projectors {P_i}, the unread
post-measurement state is rho_hat = sum_i P_i rho P_i: the channel whose
Kraus operators are the projectors. The purity of rho splits exactly
into the weights of the blocks P_i rho P_j,

    tr(rho^2) = sum_i ||P_i rho P_i||_F^2 + sum_{i != j} ||P_i rho P_j||_F^2,

and the first sum is tr(rho_hat^2), so measurement raises logical
entropy by exactly the off-block weight it erases, and never lowers it.
Both sums come from the block-weight matrix the channel layer uses for
the off-block bound. When the projectors are diagonal in the
computational basis (a partition of the basis indices into blocks),
projecting simply zeroes every entry of rho that straddles two blocks.
"""
from __future__ import annotations

import numpy as np

from .channels import _block_weights, apply_channel
from .linalg import DEFAULT_TOL, IDENTITY_TOL, ROUNDING_TOL, _first, _require, as_complex_matrix
from .states import _purities


def validate_partition(blocks, n: int) -> list[list[int]]:
    """Check that blocks are disjoint, non-empty, and cover range(n) with integer indices."""
    seen: set[int] = set()
    out = []
    for b in blocks:
        blk = list(b)
        if not blk:
            raise ValueError("partition contains an empty block")
        for i in blk:
            if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
                raise ValueError(f"partition index {i!r} is not an integer")
            if not 0 <= i < n:
                raise ValueError(f"partition index {i} outside [0, {n})")
            if i in seen:
                raise ValueError(f"partition blocks overlap at index {i}")
            seen.add(i)
        out.append([int(i) for i in blk])
    if len(seen) != n:
        missing = sorted(set(range(n)) - seen)
        raise ValueError(f"partition does not cover all indices; missing {missing}")
    return out


def projectors_from_partition(blocks, dim: int) -> list[np.ndarray]:
    """Diagonal projectors onto the coordinate subspaces of a partition."""
    return list(_partition_projectors([validate_partition(blocks, dim)], dim)[0])


def _partition_projectors(parts, dim: int) -> np.ndarray:
    """projectors_from_partition for partitions its callers checked with validate_partition, zero-padded
    to one (s, k, dim, dim) stack. 0/1 diagonals are complete and orthogonal exactly when their
    partition is valid, so checking the partitions checks the sets, which skip validate_projectors."""
    ps = np.zeros((len(parts), max(map(len, parts)), dim, dim), dtype=np.complex128)
    s, b, i = np.array([(s, b, i) for s, part in enumerate(parts) for b, blk in enumerate(part)
                        for i in blk], dtype=int).reshape(-1, 3).T
    ps[s, b, i, i] = 1.0
    return ps


def validate_projectors(ps, tol: float = IDENTITY_TOL) -> np.ndarray:
    """Check a complete orthogonal projector set: each P Hermitian and
    idempotent, P_i P_j = 0 for i != j, and sum_i P_i = I.

    Returns the set as one (k, n, n) stack. The first failing check is
    reported: projector by projector in order, then the first misshaped
    one, then each projector against its successors, then completeness.
    Partition projectors are checked as partitions instead.
    """
    mats = [as_complex_matrix(p) for p in ps]
    if not mats:
        raise ValueError("empty projector set")
    dim = mats[0].shape[0]
    if dim == 0:
        raise ValueError(f"projector 0 has shape {mats[0].shape}: its dimension is empty")
    shaped = next((i for i, p in enumerate(mats) if p.shape != (dim, dim)), len(mats))
    ps = np.array(mats[:shaped]).reshape(shaped, dim, dim)
    herm = np.abs(ps - ps.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    bad = _first((herm <= tol) & (np.abs(ps @ ps - ps).max(axis=(-2, -1)) <= tol))
    if bad < shaped:
        defect = "Hermitian" if not herm[bad] <= tol else "idempotent"
        raise ValueError(f"projector {bad} is not {defect} within {tol:.1e}")
    if shaped < len(mats):
        raise ValueError(f"projector {shaped} has shape {mats[shaped].shape}, expected {(dim, dim)}")
    for i in range(shaped - 1):
        bad = _first(np.abs(ps[i] @ ps[i + 1:]).max(axis=(-2, -1)) <= tol)
        if bad < shaped - 1 - i:
            raise ValueError(f"projectors {i} and {i + 1 + bad} are not orthogonal within {tol:.1e}")
    _require(np.abs(ps.sum(axis=0) - np.eye(dim)).max(), tol,
             "projectors do not sum to the identity within {1:.1e}", tol)
    return ps


def project(rho, ps) -> np.ndarray:
    """Unread post-measurement state sum_i P_i rho P_i, after checking ps
    with validate_projectors."""
    return apply_channel(rho, validate_projectors(ps))


def purity_decomposition(rho, ps) -> tuple[float, float]:
    """Split tr(rho^2) into the projected part and the off-block weight.

    ps is any complete orthogonal projector set, checked with
    validate_projectors; a basis partition is the special case. Returns
    (tr(rho_hat^2), mass) with mass = sum_{i != j} ||P_i rho P_j||_F^2,
    so that tr(rho^2) = tr(rho_hat^2) + mass exactly. For a basis
    partition, mass is the sum of |rho_ab|^2 over the entries whose row
    and column fall in different blocks. The cross-pair sum is formed in
    complex arithmetic first; a nonreal residue above 1e-12 signals a
    non-Hermitian input and is a hard error rather than something to
    discard.
    """
    rho = as_complex_matrix(rho)
    ps = validate_projectors(ps)
    if ps.shape[1:] != rho.shape:
        raise ValueError(f"dimension mismatch: projectors are {ps.shape[1:]}, state is {rho.shape}")
    projected, mass = _purity_split(rho, ps)
    return float(projected), float(mass)


def _purity_split(rho: np.ndarray, ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """purity_decomposition over stacks of states and checked projector sets."""
    w = _block_weights(rho, ps)
    # one C-ordered row per state, so each sum runs as it does for a single state
    pair = w[..., ~np.eye(ps.shape[-3], dtype=bool)].copy().sum(axis=-1)
    bad = _first(np.abs(pair.imag) <= ROUNDING_TOL)  # a NaN residue fails
    if bad < pair.size:
        raise ValueError(f"off-block pair sum has imaginary residue {pair.reshape(-1)[bad].imag:.3e}; "
                         "input not Hermitian")
    return w.trace(axis1=-2, axis2=-1).real, pair.real


def entropy_gain(rho, ps) -> float:
    """h(rho_hat) - h(rho): entropy added by an unread measurement.

    For any complete orthogonal projector set, a basis partition being
    the special case, this equals the off-block weight that
    purity_decomposition reports.
    """
    rho_hat = project(rho, ps)
    return float(_entropy_gains(_purities(as_complex_matrix(rho)), _purities(rho_hat)))


def _entropy_gains(purity: np.ndarray, purity_hat: np.ndarray) -> np.ndarray:
    """entropy_gain from the purities of states and of their measured states."""
    return (1.0 - purity_hat) - (1.0 - purity)


def entropy_nondecreasing(rho, ps, tol: float = DEFAULT_TOL) -> bool:
    """Whether h(rho) <= h(rho_hat) + tol. Holds for every complete
    orthogonal projector set, basis-aligned or not."""
    rho_hat = project(rho, ps)
    return bool(_nondecreasing(_purities(as_complex_matrix(rho)), _purities(rho_hat), tol))


def _nondecreasing(purity: np.ndarray, purity_hat: np.ndarray, tol: float) -> np.ndarray:
    """entropy_nondecreasing from the purities of states and of their measured states."""
    return 1.0 - purity <= 1.0 - purity_hat + tol
