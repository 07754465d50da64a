import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import logent.classical
from logent.classical import (bridge_check, bridge_entropies, dit_count, logical_entropy_dist,
                              partition_entropy, random_distribution,
                              random_partition, validate_distribution)
from logent.measurement import validate_partition
from logent.states import logical_entropy


def test_weight_entropy_is_the_one_direct_route(monkeypatch):
    weight_entropy = logent.classical.weight_entropy
    assert logent.weight_entropy is logent.mixing.weight_entropy is weight_entropy
    p = np.array([0.1, 0.2, 0.3, 0.4])
    blocks = [[0, 3], [1, 2]]
    q = np.array([p[b].sum() for b in blocks])
    want = (float(1.0 - np.sum(p * p)), float(1.0 - (q * q).sum()))  # the routes as once written inline
    seen = []

    def counted(w):
        seen.append(weight_entropy(w))
        return seen[-1]

    monkeypatch.setattr(logent.classical, "weight_entropy", counted)
    assert (logical_entropy_dist(p), partition_entropy(p, blocks)) == want == tuple(seen)


def test_validate_distribution_errors():
    with pytest.raises(ValueError, match="negative"):
        validate_distribution([1.1, -0.1])
    with pytest.raises(ValueError, match="sum"):
        validate_distribution([0.5, 0.6])
    with pytest.raises(ValueError, match="empty"):
        validate_distribution([])
    with pytest.raises(ValueError, match="sum"):
        validate_distribution([np.nan, 1.0])


@pytest.mark.parametrize("offset", [1e-11, float("nan")])
def test_route_disagreement_raises_and_a_nan_disagrees(monkeypatch, offset):
    real = logent.classical._dit_count
    monkeypatch.setattr(logent.classical, "_dit_count", lambda p, blocks: real(p, blocks) + offset)
    with pytest.raises(AssertionError, match="^partition entropy routes disagree: 0.5 vs "):
        partition_entropy([0.2, 0.3, 0.5], [[0, 1], [2]])


def test_validate_distribution_renormalizes_exactly():
    p = validate_distribution([0.25 + 1e-10, 0.75])
    assert float(p.sum()) == 1.0


def test_uniform_and_point_mass():
    assert abs(logical_entropy_dist([0.25] * 4) - 0.75) < 1e-15
    assert logical_entropy_dist([0.0, 1.0, 0.0]) == 0.0


def test_partition_entropy_pairs_of_blocks():
    assert abs(partition_entropy([0.25] * 4, [[0, 1], [2, 3]]) - 0.5) < 1e-15


def test_discrete_partition_recovers_distribution_entropy():
    for seed in range(10):
        n = 2 + seed % 6
        p = random_distribution(n, seed)
        blocks = [[i] for i in range(n)]
        assert abs(partition_entropy(p, blocks)
                   - logical_entropy_dist(p)) < 1e-12


def test_single_block_partition_is_zero():
    p = random_distribution(5, 1)
    assert abs(partition_entropy(p, [list(range(5))])) < 1e-15


def test_dit_count_frozen_value():
    # p = (1/2, 1/4, 1/4), blocks {0},{1,2}: 2 * (1/2)(1/2) = 1/2
    assert abs(dit_count([0.5, 0.25, 0.25], [[0], [1, 2]]) - 0.5) < 1e-15


@given(st.integers(0, 500))
def test_dit_count_matches_block_mass_route(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    p = random_distribution(n, rng)
    blocks = random_partition(n, rng)
    q = [float(sum(p[i] for i in blk)) for blk in blocks]
    assert abs(dit_count(p, blocks) - (1.0 - sum(x * x for x in q))) < 1e-12


def test_refining_a_partition_never_lowers_entropy():
    for seed in range(15):
        rng = np.random.default_rng(seed + 100)
        n = int(rng.integers(3, 12))
        p = random_distribution(n, rng)
        blocks = random_partition(n, rng)
        coarse = partition_entropy(p, blocks)
        # split the largest block in two
        target = max(range(len(blocks)), key=lambda k: len(blocks[k]))
        if len(blocks[target]) < 2:
            continue
        cut = len(blocks[target]) // 2
        refined = (blocks[:target]
                   + [blocks[target][:cut], blocks[target][cut:]]
                   + blocks[target + 1:])
        assert partition_entropy(p, refined) >= coarse - 1e-12


def test_bridge_frozen_case():
    assert bridge_check([0.5, 0.25, 0.25], [[0], [1, 2]])


def test_bridge_discrete_partition():
    p = random_distribution(6, 3)
    assert bridge_check(p, [[i] for i in range(6)])


def test_bridge_memory_stays_the_size_of_the_state(peak_bytes):
    # a partition is measured through its labels: 128 singleton blocks take a few 128 x 128 arrays,
    # where a stack of their 128 projectors alone takes 32 MiB
    p = random_distribution(128, 0)
    assert peak_bytes(lambda: bridge_entropies(p, [[i] for i in range(128)])) < 8 << 20


@given(st.integers(0, 300))
def test_bridge_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    assert bridge_check(random_distribution(n, rng), random_partition(n, rng))


def test_diagonal_density_matches_distribution_entropy():
    for seed in range(10):
        p = random_distribution(4, seed + 40)
        rho = np.diag(p).astype(complex)
        assert abs(logical_entropy(rho) - logical_entropy_dist(p)) < 1e-12


def test_random_partition_is_valid():
    for seed in range(25):
        n = 1 + seed % 9
        blocks = random_partition(n, seed)
        validate_partition(blocks, n)
