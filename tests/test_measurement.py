import re

import numpy as np
import numpy.testing as npt
import pytest

from logent.channels import _channel, apply_channel
from logent.classical import partition_entropy, random_partition
from logent.measurement import (_labels, _measured, _partition_split, entropy_gain,
                                entropy_nondecreasing, project, projectors_from_partition, purity_decomposition,
                                validate_partition, validate_projectors)
from logent.states import (density_from_pure, logical_entropy, purity,
                           random_density, random_pure_state, random_unitary, validate_density)


def rotated_projectors(blocks, dim, seed):
    """A complete orthogonal projector set that is not basis-aligned."""
    u = random_unitary(dim, seed)
    return [u @ p @ u.conj().T for p in projectors_from_partition(blocks, dim)]


def test_validate_partition_rejects_overlap_gap_empty():
    with pytest.raises(ValueError, match="overlap"):
        validate_partition([[0, 1], [1, 2]], 3)
    with pytest.raises(ValueError, match="missing"):
        validate_partition([[0], [2]], 3)
    with pytest.raises(ValueError, match="empty"):
        validate_partition([[0, 1, 2], []], 3)
    with pytest.raises(ValueError, match="outside"):
        validate_partition([[0, 3]], 3)


def test_validate_partition_rejects_indices_that_are_not_integers():
    for blocks, bad in [([[0.9], [1.2, 2.7]], 0.9), ([[0], [True, 2]], True), ([["2"], [0, 1]], "2"),
                        ([[0, 1], [np.float64(2.0)]], np.float64(2.0)), ([[np.True_], [0, 2]], np.True_)]:
        with pytest.raises(ValueError, match=re.escape(f"partition index {bad!r} is not an integer")):
            validate_partition(blocks, 3)
    with pytest.raises(ValueError, match="partition index 0.7 is not an integer"):
        partition_entropy([0.5, 0.25, 0.25], [[0.7], [1.5, 2.2]])
    # numpy integers are integers, and come back as Python ints
    out = validate_partition([np.arange(2), [np.int64(2)]], 3)
    assert out == [[0, 1], [2]] and all(type(i) is int for blk in out for i in blk)


def test_partition_labels_measure_bit_for_bit_as_the_projectors():
    # a checked partition is measured through its labels; the projector route gives the same bits,
    # also for a group zero-padded to its largest block count
    rng = np.random.default_rng(0)
    for dim in range(1, 25):
        partitions = [random_partition(dim, rng) for _ in range(3)] + [[list(range(dim))],
                                                                      [[i] for i in range(dim)]]
        k = max(map(len, partitions))
        ps = np.zeros((len(partitions), k, dim, dim), dtype=complex)
        for padded, blocks in zip(ps, partitions):
            sets = np.array(projectors_from_partition(blocks, dim))
            assert np.array_equal(sets @ sets, sets) and np.array_equal(sets, sets.conj().swapaxes(-2, -1))
            assert not any((sets[i] @ sets[i + 1:]).any() for i in range(len(sets)))
            assert np.array_equal(sets.sum(axis=0), np.eye(dim))
            padded[:len(sets)] = sets
        labels = _labels([validate_partition(b, dim) for b in partitions], dim)
        rho = np.array([random_density(dim, int(s)) for s in rng.integers(1 << 30, size=len(partitions))])
        assert np.array_equal(_measured(rho, labels), _channel(rho, ps))
        projected, mass = _partition_split(rho, labels)
        for i, (x, padded) in enumerate(zip(rho, ps)):
            assert purity_decomposition(x, padded) == (projected[i], mass[i])


def test_a_partition_split_stays_the_size_of_the_state(peak_bytes):
    # the split is one masked sum over rho∘rhoᵀ: a few n x n arrays, where a
    # (k, n, n) stack of the rows of each block is 32 MiB for 128 singleton blocks
    rho, labels = random_density(128, 0), np.arange(128)
    assert peak_bytes(lambda: _partition_split(rho, labels)) < 4 << 20


def test_projectors_from_partition_form_valid_set():
    ps = projectors_from_partition([[0, 2], [1], [3]], 4)
    validate_projectors(ps)
    npt.assert_array_equal(ps[0], np.diag([1, 0, 1, 0]).astype(complex))


def test_validate_projectors_rejects_nan():
    with pytest.raises(ValueError, match="Hermitian"):
        validate_projectors([np.diag([1.0, np.nan]), np.diag([0.0, 1.0])])


def test_empty_projectors_are_named_at_every_entry_point():
    empty = np.zeros((0, 0))
    message = re.escape("expected a non-empty stack of 2-D matrices, got shape (1, 0, 0)")
    for call in (lambda: validate_projectors([empty]), lambda: project(empty, [empty]),
                 lambda: purity_decomposition(empty, [empty])):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()
    with pytest.raises(ValueError, match=f"^{re.escape('projector 1 has shape (2, 2), expected (0, 0)')}$"):
        validate_projectors([empty, np.eye(2)])


def test_validate_projectors_catches_defects():
    with pytest.raises(ValueError, match="idempotent"):
        validate_projectors([np.eye(2) * 0.5, np.eye(2) * 0.5])
    with pytest.raises(ValueError, match="Hermitian"):
        validate_projectors([np.array([[1, 1], [0, 0]], dtype=complex),
                             np.array([[0, -1], [0, 1]], dtype=complex)])
    with pytest.raises(ValueError, match="identity"):
        validate_projectors([np.diag([1.0, 0.0]).astype(complex)])
    p0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="orthogonal"):
        validate_projectors([p0, p0, np.diag([0.0, 1.0]).astype(complex) - p0 + p0])


def test_project_zeroes_cross_block_entries():
    rho = random_density(4, 3)
    ps = projectors_from_partition([[0, 1], [2, 3]], 4)
    out = project(rho, ps)
    npt.assert_allclose(out[:2, :2], rho[:2, :2], atol=1e-15)
    npt.assert_allclose(out[2:, 2:], rho[2:, 2:], atol=1e-15)
    npt.assert_allclose(out[:2, 2:], 0, atol=1e-15)
    assert abs(np.trace(out).real - 1.0) < 1e-12


def test_project_commutes_with_block_respecting_relabeling():
    rho = random_density(5, 9)
    blocks = [[0, 1], [2, 3, 4]]
    perm = np.array([3, 0, 4, 1, 2])  # arbitrary permutation of basis labels
    permuted_rho = rho[np.ix_(perm, perm)]
    permuted_blocks = [[int(np.where(perm == i)[0][0]) for i in blk] for blk in blocks]
    lhs = project(permuted_rho, projectors_from_partition(permuted_blocks, 5))
    rhs = project(rho, projectors_from_partition(blocks, 5))[np.ix_(perm, perm)]
    npt.assert_array_equal(lhs, rhs)


def test_purity_decomposition_two_by_two_closed_form():
    a, b, c = 0.7, 0.2 + 0.1j, 0.3
    rho = np.array([[a, b], [np.conj(b), c]], dtype=complex)
    ps = projectors_from_partition([[0], [1]], 2)
    projected_purity, mass = purity_decomposition(rho, ps)
    assert abs(projected_purity - (a * a + c * c)) < 1e-15
    assert abs(mass - 2 * abs(b) ** 2) < 1e-15


def test_purity_decomposition_identity_random():
    for seed in range(20):
        dim = 2 + seed % 7
        rho = random_density(dim, seed)
        mid = max(1, dim // 2)
        ps = projectors_from_partition([list(range(mid)), list(range(mid, dim))], dim)
        projected_purity, mass = purity_decomposition(rho, ps)
        assert abs(purity(rho) - (projected_purity + mass)) < 1e-12


def test_purity_decomposition_rotated_projectors_match_dense_oracle():
    # any complete orthogonal projector set splits the purity, not only a basis partition
    for seed in range(40):
        dim = 2 + seed % 6
        rho = density_from_pure(random_pure_state(dim, seed)) if seed % 2 else random_density(dim, seed)
        mid = 1 + seed % (dim - 1)
        ps = rotated_projectors([list(range(mid)), list(range(mid, dim))], dim, seed + 50)
        projected_purity, mass = purity_decomposition(rho, ps)
        cross = sum(np.vdot(p @ rho @ q, p @ rho @ q).real
                    for i, p in enumerate(ps) for j, q in enumerate(ps) if i != j)
        measured = project(rho, ps)
        assert abs(mass - cross) < 1e-12
        assert abs(projected_purity - purity(measured)) < 1e-12
        assert abs(purity(rho) - (projected_purity + mass)) < 1e-12
        assert abs(entropy_gain(rho, ps) - mass) < 1e-12


def test_purity_decomposition_rejects_overlapping_and_incomplete_sets():
    rho = random_density(3, 4)
    p0, p1, p2 = rotated_projectors([[0], [1], [2]], 3, 5)
    with pytest.raises(ValueError, match="projectors 0 and 2 are not orthogonal"):
        purity_decomposition(rho, [p0, p1, p0 + p1])
    with pytest.raises(ValueError, match="identity"):
        purity_decomposition(rho, [p0, p1])


def test_purity_decomposition_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        purity_decomposition(np.eye(3) / 3, projectors_from_partition([[0], [1]], 2))


def test_validate_projectors_returns_stack_and_reports_in_order():
    ps = projectors_from_partition([[0, 2], [1]], 3)
    stack = validate_projectors(ps)
    assert stack.shape == (2, 3, 3)
    npt.assert_array_equal(stack, np.array(ps))
    # a misshaped projector is reported first; then projector 0 fails idempotence before projector 1 Hermiticity
    half = np.eye(2) * 0.5
    with pytest.raises(ValueError, match=r"^projector 2 has shape \(3, 3\), expected \(2, 2\)$"):
        validate_projectors([half, np.array([[1, 1], [0, 0]]), np.eye(3)])
    with pytest.raises(ValueError, match="projector 0 is not idempotent"):
        validate_projectors([half, np.array([[1, 1], [0, 0]]), np.eye(2)])
    with pytest.raises(ValueError, match="projector 1 is not Hermitian"):
        validate_projectors([np.diag([1.0, 0.0]), np.array([[0, 1], [0, 1]]), np.eye(2)])
    with pytest.raises(ValueError, match=r"projector 1 has shape \(3, 3\)"):
        validate_projectors([np.diag([1.0, 0.0]), np.eye(3), half])
    with pytest.raises(ValueError, match=r"projector 0 has shape \(2, 3\)"):
        validate_projectors([np.ones((2, 3))])


def test_purity_decomposition_accepts_what_the_validators_accept():
    # a Hermiticity defect of 5e-10, within DEFAULT_TOL, and a projector pair off by a non-Hermitian E
    # of about 4e-11, within IDENTITY_TOL, each leave a nonreal off-block sum well above 1e-12
    rho = random_density(6, 5)
    rho[np.triu_indices(6, 1)] += 5e-10j
    validate_density(rho)
    p0, p1 = projectors_from_partition([[0, 1], [2, 3]], 4)
    rng = np.random.default_rng(0)
    e = 4e-11 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) / 3
    validate_projectors(ps := [p0 + e, p1 - e])
    for state, projectors in ((rho, projectors_from_partition([[0, 1, 2], [3, 4, 5]], 6)),
                              (random_density(4, 0), ps)):
        _, mass = purity_decomposition(state, projectors)
        assert abs(mass - entropy_gain(state, projectors)) < 1e-10


def test_entropy_gain_equals_erased_weight():
    for seed in range(15):
        dim = 2 + seed % 6
        rho = random_density(dim, seed)
        ps = projectors_from_partition([[i] for i in range(dim)], dim)
        _, mass = purity_decomposition(rho, ps)
        assert abs(entropy_gain(rho, ps) - mass) < 1e-10


def test_pure_state_measurement_entropy_is_off_block_weight():
    rho = density_from_pure([2**-0.5, 2**-0.5])
    ps = projectors_from_partition([[0], [1]], 2)
    measured = project(rho, ps)
    assert abs(logical_entropy(measured) - 0.5) < 1e-12
    assert abs(logical_entropy(measured) - 2 * abs(rho[0, 1]) ** 2) < 1e-12


def test_entropy_never_decreases_basis_aligned():
    for seed in range(15):
        dim = 2 + seed % 5
        rho = random_density(dim, seed)
        ps = projectors_from_partition([[i] for i in range(dim)], dim)
        assert entropy_nondecreasing(rho, ps)


def test_entropy_never_decreases_rotated():
    for seed in range(15):
        dim = 3 + seed % 4
        rho = density_from_pure(random_pure_state(dim, seed)) if seed % 2 else random_density(dim, seed)
        ps = rotated_projectors([[0], list(range(1, dim))], dim, seed + 31)
        assert entropy_nondecreasing(rho, ps)


def test_block_diagonal_state_unchanged():
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    ps = projectors_from_partition([[0, 1], [2, 3]], 4)
    npt.assert_allclose(project(rho, ps), rho, atol=1e-15)
    assert abs(entropy_gain(rho, ps)) < 1e-15


def test_project_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        project(np.eye(3) / 3, projectors_from_partition([[0], [1]], 2))


@pytest.mark.parametrize("fn", [apply_channel, project, entropy_gain, entropy_nondecreasing,
                                purity_decomposition])
def test_a_state_that_is_not_square_is_a_dimension_mismatch(fn):
    # a (2, 3) state against qubit operators is refused by the shape gate, not by numpy's matmul
    with pytest.raises(ValueError, match=r"^dimension mismatch: state is \(2, 3\), "):
        fn(np.ones((2, 3)) / 2, projectors_from_partition([[0], [1]], 2))


def test_an_empty_projector_set_is_named():
    with pytest.raises(ValueError, match=r"^expected a non-empty stack of 2-D matrices, got shape \(0,\)$"):
        validate_projectors([])


@pytest.mark.parametrize("fn", [entropy_gain, entropy_nondecreasing, purity_decomposition])
@pytest.mark.parametrize("state", [np.full((2, 2), np.nan), [[np.inf, 0], [0, 0]], [[0.5, 1], [0, 0.5]]],
                         ids=["nan", "inf", "non-hermitian"])
def test_entropy_change_rejects_a_state_that_is_not_hermitian(fn, state):
    # the state is checked after the projectors and the dimensions, so a bad set keeps its message
    with pytest.raises(ValueError, match="^state not Hermitian: defect "):
        fn(state, projectors_from_partition([[0], [1]], 2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        fn(state, projectors_from_partition([[0], [1], [2]], 3))


@pytest.mark.parametrize("fn", [project, entropy_gain, entropy_nondecreasing])
def test_measurement_checks_its_projectors(fn):
    # the general projector path rejects a set that is not a complete
    # orthogonal measurement, with validate_projectors' own message
    rho = random_density(3, 5)
    p0, p1, p2 = projectors_from_partition([[0], [1], [2]], 3)
    with pytest.raises(ValueError, match="projector 0 is not idempotent"):
        fn(rho, [np.eye(3) * 0.5, np.eye(3) * 0.5])
    with pytest.raises(ValueError, match="projectors 0 and 2 are not orthogonal"):
        fn(rho, [p0 + p1, p2, p1])
    with pytest.raises(ValueError, match="do not sum to the identity"):
        fn(rho, [p0, p1])


def test_projector_checks_stay_the_size_of_the_set(peak_bytes):
    # each projector is checked against its successors in one product, not
    # every pair at once: a set of 64 rank-one projectors needs a few
    # copies of its own stack, where all 2016 pair products need 130 MB
    ps = projectors_from_partition([[i] for i in range(64)], 64)
    stack = 64 * 64 * 64 * 16
    assert peak_bytes(lambda: validate_projectors(ps)) < 4 * stack
    rho = random_density(64, 0)
    assert peak_bytes(lambda: entropy_gain(rho, ps)) < 5 * stack
