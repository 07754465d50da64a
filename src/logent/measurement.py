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
from .linalg import DEFAULT_TOL, _first, as_complex_matrix
from .states import _purities


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
    return list(_partition_projectors([blocks], dim)[0])


def _partition_projectors(partitions, dim: int) -> np.ndarray:
    """projectors_from_partition for many partitions, zero-padded to one (s, k, dim, dim) stack."""
    parts = [validate_partition(blocks, dim) for blocks in partitions]
    ps = np.zeros((len(parts), max(map(len, parts)), dim, dim), dtype=np.complex128)
    s, b, i = np.array([(s, b, i) for s, part in enumerate(parts) for b, blk in enumerate(part)
                        for i in blk], dtype=int).reshape(-1, 3).T
    ps[s, b, i, i] = 1.0
    return ps


def validate_projectors(ps, tol: float = 1e-10) -> np.ndarray:
    """Check a complete orthogonal projector set: each P Hermitian and
    idempotent, P_i P_j = 0 for i != j, and sum_i P_i = I.

    Returns the set as one (k, n, n) stack. The first failing check is
    reported, projector by projector in order, then pair by pair.
    """
    mats = [as_complex_matrix(p) for p in ps]
    if not mats:
        raise ValueError("empty projector set")
    dim = mats[0].shape[0]
    shaped = next((i for i, p in enumerate(mats) if p.shape != (dim, dim)), len(mats))
    misshaped = (ValueError(f"projector {shaped} has shape {mats[shaped].shape}, expected {(dim, dim)}")
                 if shaped < len(mats) else None)
    return _validate_projectors(np.array(mats[:shaped]).reshape(1, shaped, dim, dim), tol, misshaped)[0]


def _validate_projectors(ps: np.ndarray, tol: float = 1e-10, misshaped=None) -> np.ndarray:
    """validate_projectors on an (s, k, n, n) stack; misshaped is raised before the pair checks."""
    herm = np.abs(ps - ps.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    each = (herm <= tol) & (np.abs(ps @ ps - ps).max(axis=(-2, -1)) <= tol)
    # pairs i < j in lexicographic order, one i at a time, so no product outgrows the stack
    pairs = np.concatenate([np.ones((len(ps), 0), dtype=bool)] + [
        np.abs(ps[:, i, None] @ ps[:, i + 1:]).max(axis=(-2, -1)) <= tol for i in range(ps.shape[1] - 1)],
        axis=1)
    whole = np.abs(ps.sum(axis=1) - np.eye(ps.shape[-1])).max(axis=(-2, -1)) <= tol
    s = 0 if misshaped else _first(each.all(axis=1) & pairs.all(axis=1) & whole)
    if s == len(ps):
        return ps
    bad = _first(each[s])
    if bad < len(each[s]):
        defect = "Hermitian" if not herm[s, bad] <= tol else "idempotent"
        raise ValueError(f"projector {bad} is not {defect} within {tol:.1e}")
    if misshaped:
        raise misshaped
    bad = _first(pairs[s])
    if bad < pairs.shape[1]:
        i, j = np.triu_indices(ps.shape[1], 1)
        raise ValueError(f"projectors {i[bad]} and {j[bad]} are not orthogonal within {tol:.1e}")
    raise ValueError(f"projectors do not sum to the identity within {tol:.1e}")


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
    bad = _first(~(np.abs(pair.imag) > 1e-12))
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
    return float(_entropy_gains(as_complex_matrix(rho), rho_hat))


def _entropy_gains(rho: np.ndarray, rho_hat: np.ndarray) -> np.ndarray:
    """entropy_gain from stacks of states and their measured states."""
    return (1.0 - _purities(rho_hat)) - (1.0 - _purities(rho))


def entropy_nondecreasing(rho, ps, tol: float = DEFAULT_TOL) -> bool:
    """Whether h(rho) <= h(rho_hat) + tol. Holds for every complete
    orthogonal projector set, basis-aligned or not."""
    rho_hat = project(rho, ps)
    return bool(_nondecreasing(as_complex_matrix(rho), rho_hat, tol))


def _nondecreasing(rho: np.ndarray, rho_hat: np.ndarray, tol: float) -> np.ndarray:
    """entropy_nondecreasing over stacks of states and their measured states."""
    return 1.0 - _purities(rho) <= 1.0 - _purities(rho_hat) + tol
