"""Projective measurements and how they move logical entropy.

For a complete set of orthogonal projectors {P_i}, the unread
post-measurement state is rho_hat = sum_i P_i rho P_i. When the
projectors are diagonal in the computational basis (a partition of the
basis indices into blocks), projecting simply zeroes every entry of rho
that straddles two blocks, which gives exact bookkeeping:

    tr(rho^2) = tr(rho_hat^2) + (off-block Frobenius weight)

so measurement raises logical entropy by exactly the weight it erases,
and never lowers it.
"""
from __future__ import annotations

import numpy as np

from .linalg import DEFAULT_TOL, as_complex_matrix
from .states import logical_entropy


def validate_partition(blocks, n: int) -> list[list[int]]:
    """Check that blocks are disjoint, non-empty, and cover range(n)."""
    seen: set[int] = set()
    out = []
    for b in blocks:
        blk = [int(i) for i in b]
        if not blk:
            raise ValueError("partition contains an empty block")
        for i in blk:
            if not 0 <= i < n:
                raise ValueError(f"partition index {i} outside [0, {n})")
            if i in seen:
                raise ValueError(f"partition blocks overlap at index {i}")
            seen.add(i)
        out.append(blk)
    if len(seen) != n:
        missing = sorted(set(range(n)) - seen)
        raise ValueError(f"partition does not cover all indices; missing {missing}")
    return out


def projectors_from_partition(blocks, dim: int) -> list[np.ndarray]:
    """Diagonal projectors onto the coordinate subspaces of a partition."""
    blocks = validate_partition(blocks, dim)
    ps = []
    for blk in blocks:
        p = np.zeros((dim, dim), dtype=np.complex128)
        p[blk, blk] = 1.0
        ps.append(p)
    return ps


def validate_projectors(ps, tol: float = 1e-10) -> list[np.ndarray]:
    """Check a complete orthogonal projector set: each P Hermitian and
    idempotent, P_i P_j = 0 for i != j, and sum_i P_i = I."""
    ps = [as_complex_matrix(p) for p in ps]
    if not ps:
        raise ValueError("empty projector set")
    dim = ps[0].shape[0]
    acc = np.zeros((dim, dim), dtype=np.complex128)
    for k, p in enumerate(ps):
        if p.shape != (dim, dim):
            raise ValueError(f"projector {k} has shape {p.shape}, expected {(dim, dim)}")
        if not np.max(np.abs(p - p.conj().T)) <= tol:
            raise ValueError(f"projector {k} is not Hermitian within {tol:.1e}")
        if not np.max(np.abs(p @ p - p)) <= tol:
            raise ValueError(f"projector {k} is not idempotent within {tol:.1e}")
        acc += p
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            if not np.max(np.abs(ps[i] @ ps[j])) <= tol:
                raise ValueError(f"projectors {i} and {j} are not orthogonal within {tol:.1e}")
    if not np.max(np.abs(acc - np.eye(dim))) <= tol:
        raise ValueError(f"projectors do not sum to the identity within {tol:.1e}")
    return ps


def project(rho, ps) -> np.ndarray:
    """Unread post-measurement state sum_i P_i rho P_i."""
    rho = as_complex_matrix(rho)
    out = np.zeros_like(rho)
    for p in ps:
        p = as_complex_matrix(p)
        if p.shape != rho.shape:
            raise ValueError(f"dimension mismatch: projector {p.shape} against state {rho.shape}")
        out += p @ rho @ p
    return out


def _block_labels(ps, tol: float = 1e-10) -> np.ndarray:
    """Map each basis index to the projector that owns it.

    Requires every projector to be diagonal with 0/1 entries (a basis
    partition); rotated projector sets are rejected.
    """
    ps = [as_complex_matrix(p) for p in ps]
    dim = ps[0].shape[0]
    labels = np.full(dim, -1, dtype=int)
    for k, p in enumerate(ps):
        off = p - np.diag(np.diagonal(p))
        if np.max(np.abs(off)) > tol:
            raise ValueError(f"projector {k} is not diagonal: basis-aligned partition required")
        d = np.diagonal(p)
        if np.max(np.abs(d.imag)) > tol or np.max(np.abs(d.real * (1 - d.real))) > tol:
            raise ValueError(f"projector {k} diagonal is not 0/1: basis-aligned partition required")
        members = np.nonzero(d.real > 0.5)[0]
        for i in members:
            if labels[i] != -1:
                raise ValueError(f"projectors overlap at basis index {i}")
            labels[i] = k
    if np.any(labels < 0):
        raise ValueError("projectors do not cover every basis index")
    return labels


def purity_decomposition(rho, ps) -> tuple[float, float]:
    """Split tr(rho^2) into the projected part and the off-block weight.

    Returns (tr(rho_hat^2), mass) with mass = sum of |rho_ij|^2 over all
    entries whose row and column fall in different blocks, so that
    tr(rho^2) = tr(rho_hat^2) + mass exactly. Only basis-aligned
    projector sets qualify. The cross-pair sum is formed in complex
    arithmetic first; a nonreal residue above 1e-12 signals a non-Hermitian
    input and is a hard error rather than something to discard.
    """
    rho = as_complex_matrix(rho)
    labels = _block_labels(ps)
    if labels.shape[0] != rho.shape[0]:
        raise ValueError(f"dimension mismatch: projectors cover {labels.shape[0]} indices, state is {rho.shape}")
    off = labels[:, None] != labels[None, :]
    pair_sum = complex(np.sum(rho[off] * rho.T[off]))
    if abs(pair_sum.imag) > 1e-12:
        raise ValueError(f"off-block pair sum has imaginary residue {pair_sum.imag:.3e}; input not Hermitian")
    mass = float(np.sum(np.abs(rho[off]) ** 2))
    projected = np.where(off, 0.0, rho)  # basis-aligned projectors only zero the cross-block entries
    return float(np.vdot(projected, projected).real), mass


def entropy_gain(rho, ps) -> float:
    """h(rho_hat) - h(rho): entropy added by an unread measurement.

    For basis-aligned projectors this equals the off-block weight that
    purity_decomposition reports.
    """
    return logical_entropy(project(rho, ps)) - logical_entropy(rho)


def entropy_nondecreasing(rho, ps, tol: float = DEFAULT_TOL) -> bool:
    """Whether h(rho) <= h(rho_hat) + tol. Holds for every complete
    orthogonal projector set, basis-aligned or not."""
    return logical_entropy(rho) <= logical_entropy(project(rho, ps)) + tol
