import re

import numpy as np
import numpy.testing as npt
import pytest

from logent.classical import partition_entropy, random_partition
from logent.measurement import (_partition_projectors, entropy_gain, entropy_nondecreasing, project,
                                projectors_from_partition, purity_decomposition,
                                validate_partition, validate_projectors)
from logent.states import (density_from_pure, logical_entropy, purity,
                           random_density, random_pure_state, random_unitary)


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


def test_partition_projectors_are_complete_and_orthogonal_by_construction():
    # the campaigns check the partitions, not the projector sets built from them
    rng = np.random.default_rng(0)
    for dim in range(1, 49):
        partitions = [random_partition(dim, rng) for _ in range(3)] + [[list(range(dim))],
                                                                      [[i] for i in range(dim)]]
        for ps in _partition_projectors(partitions, dim):  # each zero-padded to the stack's block count
            validate_projectors(ps, tol=0.0)


def test_projectors_from_partition_form_valid_set():
    ps = projectors_from_partition([[0, 2], [1], [3]], 4)
    validate_projectors(ps)
    npt.assert_array_equal(ps[0], np.diag([1, 0, 1, 0]).astype(complex))


def test_validate_projectors_rejects_nan():
    with pytest.raises(ValueError, match="Hermitian"):
        validate_projectors([np.diag([1.0, np.nan]), np.diag([0.0, 1.0])])


def test_empty_projectors_are_named_at_every_entry_point():
    empty = np.zeros((0, 0))
    message = re.escape("projector 0 has shape (0, 0): its dimension is empty")
    for call in (lambda: validate_projectors([empty]), lambda: project(empty, [empty]),
                 lambda: purity_decomposition(empty, [empty]),
                 lambda: validate_projectors([empty, np.eye(2)])):
        with pytest.raises(ValueError, match=message):
            call()


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
    # projector 0 fails idempotence before projector 1 fails Hermiticity or shape
    half = np.eye(2) * 0.5
    with pytest.raises(ValueError, match="projector 0 is not idempotent"):
        validate_projectors([half, np.array([[1, 1], [0, 0]]), np.eye(3)])
    with pytest.raises(ValueError, match="projector 1 is not Hermitian"):
        validate_projectors([np.diag([1.0, 0.0]), np.array([[0, 1], [0, 1]]), np.eye(3)])
    with pytest.raises(ValueError, match=r"projector 1 has shape \(3, 3\)"):
        validate_projectors([np.diag([1.0, 0.0]), np.eye(3), half])
    with pytest.raises(ValueError, match=r"projector 0 has shape \(2, 3\)"):
        validate_projectors([np.ones((2, 3))])


@pytest.mark.parametrize("rho,residue", [
    (np.array([[0.5, 1j], [0.5, 0.5]], dtype=complex), "1.000e+00"),  # not Hermitian
    (np.full((2, 2), np.nan), "nan"),  # fails the gate |imag| <= tol, where ~(|imag| > tol) let it through
])
def test_purity_decomposition_imaginary_residue_is_hard_error(rho, residue):
    ps = projectors_from_partition([[0], [1]], 2)
    with pytest.raises(ValueError, match=re.escape(f"imaginary residue {residue}; input not Hermitian")):
        purity_decomposition(rho, ps)


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
