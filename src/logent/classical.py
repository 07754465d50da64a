"""Logical entropy of classical distributions and partitions.

h(p) = 1 - sum p_i^2 is the chance two independent draws differ;
coarse-graining by a partition counts only draws landing in different
blocks. The quantum connection: encode p in the amplitudes of a pure
state and measure the partition's projectors, and the post-measurement
logical entropy is exactly the partition entropy.
"""
from __future__ import annotations

import numpy as np

from .channels import _channel
from .linalg import DEFAULT_TOL
from .measurement import _partition_projectors, _validate_projectors, validate_partition
from .states import _purities, _rng

_AGREE = 1e-12  # two independently computed routes must agree this tightly


def validate_distribution(probs, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Nonnegative, sums to 1 within tol; returned exactly renormalized."""
    p = np.asarray(probs, dtype=float).reshape(-1)
    if p.shape[0] == 0:
        raise ValueError("empty distribution")
    if np.any(p < 0):
        raise ValueError(f"negative probability {float(p.min()):.3e}")
    total = float(p.sum())
    if not abs(total - 1.0) <= tol:
        raise ValueError(f"probabilities sum to {total:.12g}, deviating from 1 beyond {tol:.1e}")
    return p / total


def logical_entropy_dist(probs) -> float:
    """1 - sum p_i^2, cross-checked against the pair-counting route."""
    p = validate_distribution(probs)
    direct = float(1.0 - np.sum(p * p))
    pairs = float(np.sum(np.outer(p, p)) - np.sum(p * p))
    if abs(direct - pairs) > _AGREE:
        raise AssertionError(f"entropy routes disagree: {direct!r} vs {pairs!r}")
    return direct


def partition_entropy(probs, blocks) -> float:
    """1 - sum_B q_B^2 where q_B is the block's total probability."""
    p = validate_distribution(probs)
    blocks = validate_partition(blocks, p.shape[0])
    q = np.array([p[b].sum() for b in blocks])
    direct = float(1.0 - np.sum(q * q))
    cross = dit_count(p, blocks)
    if abs(direct - cross) > _AGREE:
        raise AssertionError(f"partition entropy routes disagree: {direct!r} vs {cross!r}")
    return direct


def dit_count(probs, blocks) -> float:
    """Probability mass of ordered pairs landing in different blocks.

    Deliberately the slow, literal enumeration so it can serve as an
    independent oracle for partition_entropy.
    """
    p = validate_distribution(probs)
    blocks = validate_partition(blocks, p.shape[0])
    label = {}
    for k, blk in enumerate(blocks):
        for i in blk:
            label[i] = k
    total = 0.0
    n = p.shape[0]
    for i in range(n):
        for j in range(n):
            if label[i] != label[j]:
                total += float(p[i]) * float(p[j])
    return total


def bridge_entropies(probs, blocks) -> tuple[float, float]:
    """(partition entropy, post-measurement entropy) of (p, blocks).

    The quantum side encodes p as the pure state sum_k sqrt(p_k)|k>,
    measures the partition's projectors and takes h of the result. p is
    used exactly as given (partition_entropy validates it); pass it
    through validate_distribution first to renormalize.
    """
    h_classical, h_quantum = _bridges(np.asarray(probs, dtype=float).reshape(1, -1), [blocks])
    return float(h_classical[0]), float(h_quantum[0])


def _bridges(probs: np.ndarray, partitions) -> tuple[np.ndarray, np.ndarray]:
    """bridge_entropies over a (k, n) stack of distributions and k partitions."""
    h_classical = np.array([partition_entropy(p, blocks) for p, blocks in zip(probs, partitions)])
    amps = np.sqrt(probs).astype(np.complex128)
    ps = _validate_projectors(_partition_projectors(partitions, probs.shape[1]))
    measured = _channel(amps[:, :, None] * amps.conj()[:, None, :], ps)
    return h_classical, 1.0 - _purities(measured)


def bridge_check(probs, blocks, tol: float = 1e-10) -> bool:
    """Classical partition entropy == quantum post-measurement entropy,
    within tol, for the renormalized distribution."""
    h_classical, h_quantum = bridge_entropies(validate_distribution(probs), blocks)
    return abs(h_quantum - h_classical) <= tol


def random_distribution(n: int, seed) -> np.ndarray:
    return _rng(seed).dirichlet(np.ones(n))


def random_partition(n: int, seed) -> list[list[int]]:
    """Uniformly labeled partition of range(n) with a random block count."""
    rng = _rng(seed)
    k = int(rng.integers(1, n + 1))
    blocks = [[] for _ in range(k)]
    for i, c in enumerate(rng.integers(0, k, size=n).tolist()):
        blocks[c].append(i)
    return [b for b in blocks if b]
