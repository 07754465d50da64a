"""Projective measurements and how they move logical entropy.

For a complete set of orthogonal projectors {P_i}, the unread
post-measurement state is rho_hat = sum_i P_i rho P_i: the channel whose
Kraus operators are the projectors. The purity of rho splits exactly
into the weights of the blocks P_i rho P_j,

    tr(rho^2) = sum_i ||P_i rho P_i||_F^2 + sum_{i != j} ||P_i rho P_j||_F^2,

and the first sum is tr(rho_hat^2), so measurement raises logical
entropy by exactly the off-block weight it erases, and never lowers it.
Both sums add up entries of rho∘rhoᵀ, whose entry (a, b) is rho_ab rho_ba
and whose total is tr(rho^2). A partition of the basis indices into blocks
is measured through its labels, the block index of each basis index: the
measurement zeroes every entry of rho that straddles two blocks.
"""
from __future__ import annotations

import numpy as np

from .channels import apply_channel
from .linalg import (DEFAULT_TOL, IDENTITY_TOL, _first, _hermiticity_defects, _matrix_stack, _on_space, _require,
                     as_complex_matrix)
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
    """Diagonal projectors onto the coordinate subspaces of a partition, their entries exactly 0 and 1."""
    labels = _labels([blocks := validate_partition(blocks, dim)], dim)[0]
    return [np.diag(labels == b).astype(np.complex128) for b in range(len(blocks))]


def _labels(parts, dim: int) -> np.ndarray:
    """The block index of each basis index: one (s, dim) row per partition its caller checked with
    validate_partition. A checked partition is measured through its labels; no projector is built."""
    labels = np.empty((len(parts), dim), dtype=int)
    for row, part in zip(labels, parts):
        for b, blk in enumerate(part):
            row[blk] = b
    return labels


def _measured(rho: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """sum_b P_b rho P_b over stacks, rho (..., n, n) and labels (..., n): rho where row and column share a block."""
    return rho * (labels[..., :, None] == labels[..., None, :])


def validate_projectors(ps) -> np.ndarray:
    """Check a complete orthogonal projector set within IDENTITY_TOL: each P
    Hermitian and idempotent, P_i P_j = 0 for i != j, and sum_i P_i = I.

    Returns the set as one (k, n, n) stack. The first failing check is
    reported: structure first (the set read as one stack of equally shaped
    matrices, then square), then projector by projector in order, then each
    projector against its successors, then completeness. A basis partition
    is checked as a partition and measured through its labels instead.
    """
    ps = _matrix_stack(ps, "projector")
    if ps.shape[1] != ps.shape[2]:
        raise ValueError(f"projector 0 has shape {ps.shape[1:]}, expected {(ps.shape[1],) * 2}")
    herm = _hermiticity_defects(ps)
    with np.errstate(invalid="ignore", over="ignore"):  # a set with an inf or huge entry fails herm
        bad = _first((herm <= IDENTITY_TOL) & (np.abs(ps @ ps - ps).max(axis=(-2, -1)) <= IDENTITY_TOL))
    if bad < len(ps):
        defect = "Hermitian" if not herm[bad] <= IDENTITY_TOL else "idempotent"
        raise ValueError(f"projector {bad} is not {defect} within {IDENTITY_TOL:.1e}")
    for i in range(len(ps) - 1):
        bad = _first(np.abs(ps[i] @ ps[i + 1:]).max(axis=(-2, -1)) <= IDENTITY_TOL)
        if bad < len(ps) - 1 - i:
            raise ValueError(f"projectors {i} and {i + 1 + bad} are not orthogonal within {IDENTITY_TOL:.1e}")
    _require(np.abs(ps.sum(axis=0) - np.eye(ps.shape[1])).max(), IDENTITY_TOL,
             f"projectors do not sum to the identity within {IDENTITY_TOL:.1e}")
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
    and column fall in different blocks. After the projectors and the
    dimensions, rho is checked Hermitian within DEFAULT_TOL, as
    entropy_gain checks it; the split then reads Re tr(rho^2).
    """
    rho = as_complex_matrix(rho)
    ps = validate_projectors(ps)
    _on_space(rho, ps.shape[1], "projector space")
    with np.errstate(invalid="ignore", over="ignore"):  # an inf state fails the check; a huge one overflows quietly
        _require(_hermiticity_defects(rho), DEFAULT_TOL, "state not Hermitian: defect {:.3e}")
        y = ps @ rho  # sum_i y_i∘y_iᵀ sums to sum_i W_ii; tr(rho^2) less that is sum_{i != j} W_ij
        projected, mass = _purity_split(rho * rho.T, (y * y.swapaxes(-1, -2)).sum(axis=0))
    return float(projected), float(mass)


def _partition_split(rho: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_purity_split of states (..., n, n) under labels (..., n), in n x n memory per state."""
    m = rho * rho.swapaxes(-1, -2)
    return _purity_split(m, m * (labels[..., :, None] == labels[..., None, :]))


def _purity_split(m: np.ndarray, kept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """purity_decomposition's (projected, mass), summing to Re tr(rho^2), from m = rho∘rhoᵀ and its part kept."""
    # one C-ordered row per state, so each sum runs as it does for a single state
    projected, pair = (x.reshape(*m.shape[:-2], -1).sum(axis=-1) for x in (kept, m - kept))
    return projected.real, pair.real


def _measured_purities(rho, ps) -> tuple[np.ndarray, np.ndarray]:
    """tr(rho^2) and tr(project(rho, ps)^2), rho checked Hermitian within DEFAULT_TOL after project's checks."""
    rho = as_complex_matrix(rho)
    with np.errstate(invalid="ignore", over="ignore"):  # an inf state fails the check below
        rho_hat = project(rho, ps)
    _require(_hermiticity_defects(rho), DEFAULT_TOL, "state not Hermitian: defect {:.3e}")  # project made rho square
    return _purities(rho), _purities(rho_hat)


def entropy_gain(rho, ps) -> float:
    """h(rho_hat) - h(rho): entropy added by an unread measurement.

    For any complete orthogonal projector set, a basis partition being
    the special case, this equals the off-block weight that
    purity_decomposition reports.
    """
    return float(_entropy_gains(*_measured_purities(rho, ps)))


def _entropy_gains(purity: np.ndarray, purity_hat: np.ndarray) -> np.ndarray:
    """entropy_gain from the purities of states and of their measured states."""
    return (1.0 - purity_hat) - (1.0 - purity)


def entropy_nondecreasing(rho, ps) -> bool:
    """Whether h(rho) <= h(rho_hat) + DEFAULT_TOL. Holds for every complete
    orthogonal projector set, basis-aligned or not."""
    return bool(_nondecreasing(*_measured_purities(rho, ps)))


def _nondecreasing(purity: np.ndarray, purity_hat: np.ndarray) -> np.ndarray:
    """entropy_nondecreasing from the purities of states and of their measured states."""
    return 1.0 - purity <= 1.0 - purity_hat + DEFAULT_TOL
