"""Logical entropy of classical distributions and partitions.

h(p) = 1 - sum p_i^2 is the chance two independent draws differ;
coarse-graining by a partition counts only draws landing in different
blocks. The quantum connection: encode p in the amplitudes of a pure
state and measure the partition's projectors, and the post-measurement
logical entropy is exactly the partition entropy.

weight_entropy owns 1 - sum p_i^2: both direct routes here and the mixing
module call it, and pair counting and dit counting stay the independent
oracles the direct routes are checked against.
"""
from __future__ import annotations

import numpy as np

from .linalg import DEFAULT_TOL, IDENTITY_TOL, ROUNDING_TOL, _require
from .measurement import _labels, _measured, validate_partition
from .states import _purities, _rng


def validate_distribution(probs, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Nonnegative, sums to 1 within tol; returned exactly renormalized."""
    p = np.asarray(probs, dtype=float).reshape(-1)
    if p.shape[0] == 0:
        raise ValueError("empty distribution")
    if (p < 0).any():
        raise ValueError(f"negative probability {float(p.min()):.3e}")
    total = float(p.sum())
    _require(abs(total - 1.0), tol, "probabilities sum to {1:.12g}, deviating from 1 beyond {2:.1e}",
             total, tol)
    return p / total


def weight_entropy(weights) -> float:
    """1 - sum p_i^2 of the weights as given, unchecked: the one place the sum is written."""
    w = np.asarray(weights, dtype=float)
    return float(1.0 - (w * w).sum())


def logical_entropy_dist(probs) -> float:
    """1 - sum p_i^2, cross-checked against the pair-counting route."""
    p = validate_distribution(probs)
    direct = weight_entropy(p)
    pairs = float(np.sum(np.outer(p, p)) - np.sum(p * p))
    _require(abs(direct - pairs), ROUNDING_TOL, "entropy routes disagree: {1!r} vs {2!r}", direct, pairs,
             error=AssertionError)
    return direct


def partition_entropy(probs, blocks) -> float:
    """1 - sum_B q_B^2 where q_B is the block's total probability."""
    p = validate_distribution(probs)
    return _partition_entropy(p, validate_partition(blocks, p.shape[0]))


def _partition_entropy(p: np.ndarray, blocks: list[list[int]]) -> float:
    """partition_entropy of a checked distribution and partition."""
    direct = weight_entropy([p[b].sum() for b in blocks])
    cross = _dit_count(p, blocks)
    _require(abs(direct - cross), ROUNDING_TOL, "partition entropy routes disagree: {1!r} vs {2!r}",
             direct, cross, error=AssertionError)
    return direct


def dit_count(probs, blocks) -> float:
    """Probability mass of ordered pairs landing in different blocks.

    Deliberately the slow, literal enumeration so it can serve as an
    independent oracle for partition_entropy.
    """
    p = validate_distribution(probs)
    return _dit_count(p, validate_partition(blocks, p.shape[0]))


def _dit_count(p: np.ndarray, blocks: list[list[int]]) -> float:
    """dit_count of a checked distribution and partition."""
    n, total, q = p.shape[0], 0.0, p.tolist()  # the same Python floats as float(p[i])
    label = _labels([blocks], n)[0].tolist()
    for i in range(n):
        for j in range(n):
            if label[i] != label[j]:
                total += q[i] * q[j]
    return total


def bridge_entropies(probs, blocks) -> tuple[float, float]:
    """(partition entropy, post-measurement entropy) of (p, blocks).

    The quantum side encodes p as the pure state sum_k sqrt(p_k)|k>,
    measures the partition's projectors and takes h of the result. The
    classical side reads p renormalized by validate_distribution, the quantum
    side p as given; bridge_check renormalizes p first, so both read one p.
    """
    h_classical, h_quantum = _bridges(np.asarray(probs, dtype=float).reshape(1, -1), [blocks])
    return float(h_classical[0]), float(h_quantum[0])


def _bridges(probs: np.ndarray, partitions) -> tuple[np.ndarray, np.ndarray]:
    """bridge_entropies over a (k, n) stack of distributions and k partitions, each checked once."""
    n = probs.shape[1]  # each member checked as partition_entropy checks it, distribution first
    checked = [(validate_distribution(p), validate_partition(b, n)) for p, b in zip(probs, partitions)]
    h_classical = np.array([_partition_entropy(p, blocks) for p, blocks in checked])
    amps = np.sqrt(probs).astype(np.complex128)
    measured = _measured(amps[:, :, None] * amps.conj()[:, None, :], _labels([blocks for _, blocks in checked], n))
    return h_classical, 1.0 - _purities(measured)


def bridge_check(probs, blocks) -> bool:
    """Classical partition entropy == quantum post-measurement entropy,
    within IDENTITY_TOL, for the renormalized distribution."""
    h_classical, h_quantum = bridge_entropies(validate_distribution(probs), blocks)
    return abs(h_quantum - h_classical) <= IDENTITY_TOL


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
