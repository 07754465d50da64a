import warnings

import numpy as np
import numpy.testing as npt
import pytest

from logent.amplitude_damping import coupling_model
from logent.channels import (CouplingModel, _bound_report, _gram_defect, _theorem_holds, apply_channel,
                             block_decompose, completeness_defect, couple, env_kraus, exchange_entropy,
                             extract_kraus, off_block_bound, verify_entropy_bound)
from logent.linalg import DEFAULT_TOL, partial_trace
from logent.states import (density_from_pure, logical_entropy, purity,
                           random_density, random_pure_state, random_unitary)

PLUS = np.full((2, 2), 0.5, dtype=complex)


def damped_joint_closed_form(a, b, c, theta):
    """The coupled state of [[a, b], [conj(b), c]], expanded by hand."""
    ct, st = np.cos(theta), np.sin(theta)
    bb = np.conj(b)
    return np.array([
        [a, b * ct, b * st, 0],
        [ct * bb, ct * ct * c, ct * st * c, 0],
        [st * bb, st * ct * c, st * st * c, 0],
        [0, 0, 0, 0],
    ], dtype=complex)


def random_model(dim_s, dim_e, seed):
    return CouplingModel(random_unitary(dim_s * dim_e, seed), dim_s=dim_s, dim_e=dim_e)


class TestCouplingModel:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            CouplingModel(np.ones((4, 4)), dim_s=2, dim_e=2)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            CouplingModel(np.eye(4), dim_s=2, dim_e=3)

    def test_rejects_dimensions_below_one(self):
        with pytest.raises(ValueError, match="^dimensions must be positive, got dim_s=0 dim_e=1$"):
            CouplingModel(np.eye(1), dim_s=0, dim_e=1)

    def test_unitary_is_a_read_only_private_copy(self):
        u = np.eye(4, dtype=complex)
        model = CouplingModel(u, dim_s=2, dim_e=2)
        assert not model.unitary.flags.writeable
        assert not np.shares_memory(model.unitary, u)
        u[0, 0] = 2.0
        assert model.unitary[0, 0] == 1.0

    def test_rejects_env_init_out_of_range(self):
        with pytest.raises(ValueError, match="env_init"):
            CouplingModel(np.eye(4), dim_s=2, dim_e=2, env_init=2)

    @pytest.mark.parametrize("field", ["dim_s", "dim_e", "env_init"])
    @pytest.mark.parametrize("value", [2.0, 1.0, True, False, np.True_, "2", None])
    def test_integer_fields_are_checked_before_they_are_used(self, field, value):
        # 2.0 would otherwise reach the Kraus slice and fail there with a TypeError, True pass as 1
        fields = {"dim_s": 2, "dim_e": 2, "env_init": 0, field: value}
        with pytest.raises(ValueError, match=f"^model {field} must be an integer, got {value!r}$"):
            CouplingModel(np.eye(4), **fields)

    def test_numpy_integer_fields_are_integers(self):
        model = CouplingModel(np.eye(4), dim_s=np.int64(2), dim_e=np.int32(2), env_init=np.uint8(1))
        assert extract_kraus(model).shape == (2, 2, 2)

    def test_rejects_nan(self):
        u = np.eye(4, dtype=complex)
        u[1, 1] = np.nan
        with pytest.raises(ValueError, match="unitary"):
            CouplingModel(u, dim_s=2, dim_e=2)

    def test_unitary_is_read_only(self):
        model = coupling_model(0.4)
        with pytest.raises(ValueError):
            model.unitary[0, 0] = 9.0


def gram_oracle(a):
    """The dense max |A A† - I|."""
    return float(np.max(np.abs(a @ a.conj().T - np.eye(len(a)))))


class TestBlockedUnitarityCheck:
    """The check walks U U† in row blocks of 128; sizes straddle one, two and a ragged last block."""

    SIZES = (1, 2, 127, 128, 129, 259)
    SPOTS = {"diagonal block": lambda n: (min(5, n - 1), min(100, n - 1)),
             "above it": lambda n: (0, n - 1),
             "below it": lambda n: (n - 1, 0),
             "last block": lambda n: (n - 1, max(n - 2, 0))}

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("spot", sorted(SPOTS))
    def test_accepts_and_rejects_as_the_dense_oracle(self, n, spot):
        u = random_unitary(n, n)
        i, j = self.SPOTS[spot](n)

        def perturbed(delta):
            v = u.copy()
            v[i, j] += delta * np.exp(0.7j)
            return v

        slope = gram_oracle(perturbed(1e-6)) / 1e-6  # the defect is linear in small delta
        verdicts = []
        for delta in (0.9 * DEFAULT_TOL / slope, 1.1 * DEFAULT_TOL / slope, 1e-3):
            v = perturbed(delta)
            want = gram_oracle(v)
            try:
                CouplingModel(v, dim_s=n, dim_e=1)
                verdicts.append("accept")
            except ValueError as exc:
                assert str(exc) == f"matrix is not unitary: U U† deviates from I by {want:.3e}"
                verdicts.append("reject")
            assert verdicts[-1] == ("accept" if want <= DEFAULT_TOL else "reject")
        assert verdicts == ["accept", "reject", "reject"]

    @pytest.mark.filterwarnings("error")  # inf * 0 meets the Gram product: only the verdict reports it
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("spot", ["first row", "last row", "last column"])
    def test_non_finite_entries_are_not_unitary(self, n, bad, spot):
        u = random_unitary(n, n)
        u[{"first row": (0, n // 2), "last row": (n - 1, n // 3),
           "last column": (n // 2, n - 1)}[spot]] = bad
        with pytest.raises(ValueError, match="matrix is not unitary"):
            CouplingModel(u, dim_s=n, dim_e=1)

    def test_non_finite_and_huge_entries_are_rejected_without_warnings(self):
        for bad in (np.nan, np.inf, -np.inf, 1e200):
            u = np.eye(4, dtype=complex)
            u[1, 2] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="matrix is not unitary: U U† deviates from I by (nan|inf)"):
                    CouplingModel(u, dim_s=2, dim_e=2)
                assert not completeness_defect(u.reshape(2, 2, 4)) <= 1.0

    def test_the_check_makes_no_copy_of_the_matrix(self, peak_bytes):
        # each row block is conjugated on its own: a few 128 x 1024 arrays, where a conjugate
        # copy of the whole 16 MiB matrix put the peak at 19.75 MiB
        u = random_unitary(1024, 1)
        assert peak_bytes(lambda: _gram_defect(u)) < 8 << 20


class TestCouple:
    @pytest.mark.parametrize("a,b,c,theta", [
        (0.5, 0.5, 0.5, np.pi / 4),
        (0.5, 0.5, 0.5, np.pi / 2),
        (0.7, 0.2 + 0.35j, 0.3, 1.1),
        (1.0, 0.0, 0.0, 0.3),
    ])
    def test_matches_hand_expanded_joint(self, a, b, c, theta):
        rho = np.array([[a, b], [np.conj(b), c]], dtype=complex)
        joint = couple(rho, coupling_model(theta))
        npt.assert_allclose(joint, damped_joint_closed_form(a, b, c, theta), atol=1e-14)

    def test_trace_and_purity_preserved(self):
        for seed in range(10):
            rho = random_density(3, seed)
            joint = couple(rho, random_model(3, 2, seed + 100))
            assert abs(np.trace(joint).real - 1.0) < 1e-12
            assert abs(purity(joint) - purity(rho)) < 1e-12

    def test_nondefault_env_init_selects_column(self):
        model = CouplingModel(np.eye(4), dim_s=2, dim_e=2, env_init=1)
        joint = couple(PLUS, model)
        expected = np.zeros((4, 4), dtype=complex)
        expected[2:, 2:] = PLUS
        npt.assert_allclose(joint, expected, atol=1e-15)

    def test_rejects_wrong_state_dimension(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            couple(np.eye(3) / 3, coupling_model(0.5))

    def test_isometry_matches_dense_kron_oracle(self):
        # the full-unitary route: U (|k><k| (x) rho) U†
        rng = np.random.default_rng(3)
        for seed in range(8):
            ds, de = 2 + seed % 3, 2 + seed % 3
            k = int(rng.integers(1, de))
            model = CouplingModel(random_unitary(ds * de, seed), ds, de, env_init=k)
            rho = random_density(ds, seed + 20)
            e_proj = np.zeros((de, de))
            e_proj[k, k] = 1.0
            u = model.unitary
            dense = u @ np.kron(e_proj, rho) @ u.conj().T
            npt.assert_allclose(couple(rho, model), dense, rtol=0, atol=1e-12)


class TestKraus:
    @pytest.mark.parametrize("theta", np.linspace(0, np.pi, 16))
    def test_damping_kraus_closed_forms(self, theta):
        e0, e1 = extract_kraus(coupling_model(theta))
        npt.assert_allclose(e0, [[1, 0], [0, np.cos(theta)]], atol=1e-12)
        npt.assert_allclose(e1, [[0, np.sin(theta)], [0, 0]], atol=1e-12)

    def test_completeness_random_models(self):
        for seed in range(10):
            ops = extract_kraus(random_model(3, 4, seed))
            assert completeness_defect(ops) < 1e-10

    def test_env_init_one_takes_second_column(self):
        model = coupling_model(0.8)
        shifted = CouplingModel(model.unitary, 2, 2, env_init=1)
        e0, e1 = extract_kraus(shifted)
        # column block 1 of the damping unitary
        npt.assert_allclose(e0, [[0, 0], [0, -np.sin(0.8)]], atol=1e-12)
        npt.assert_allclose(e1, [[0, np.cos(0.8)], [1, 0]], atol=1e-12)

    def test_uncoupled_unitary_gives_single_kraus(self):
        us = random_unitary(3, 5)
        model = CouplingModel(np.kron(np.eye(2), us), dim_s=3, dim_e=2)
        e0, e1 = extract_kraus(model)
        npt.assert_allclose(e0, us, atol=1e-12)
        npt.assert_allclose(e1, np.zeros((3, 3)), atol=1e-12)

    def test_completeness_defect_empty(self):
        with pytest.raises(ValueError, match="empty"):
            completeness_defect([])

    @pytest.mark.parametrize("k,m,n", [(1, 1, 1), (3, 2, 5), (2, 130, 130), (1, 300, 259)])
    def test_completeness_defect_matches_dense_oracle(self, k, m, n):
        rng = np.random.default_rng(n)
        ops = (rng.standard_normal((k, m, n)) + 1j * rng.standard_normal((k, m, n))) / np.sqrt(2 * k * m)
        assert abs(completeness_defect(ops) - gram_oracle(ops.reshape(-1, n).conj().T)) <= 1e-15

    def test_nan_completeness_defect_is_rejected(self):
        model = random_model(3, 2, 0)
        u = model.unitary.copy()
        u[4, 1] = np.nan
        object.__setattr__(model, "unitary", u)
        rho = density_from_pure(random_pure_state(3, 1))
        # every reader of the Kraus operators checks completeness, the reports included
        readers = (extract_kraus, lambda m: verify_entropy_bound(rho, m), lambda m: exchange_entropy(rho, m))
        for reader in readers:
            with pytest.raises(ValueError, match="Kraus completeness violated"):
                reader(model)


class TestApplyChannel:
    def test_damping_quarter_turn_oracle(self):
        out = apply_channel(PLUS, extract_kraus(coupling_model(np.pi / 4)))
        expected = np.array([[0.75, 0.3535533905932738],
                             [0.3535533905932738, 0.25]], dtype=complex)
        npt.assert_allclose(out, expected, atol=1e-10)

    def test_damping_half_turn_fully_decays(self):
        out = apply_channel(PLUS, extract_kraus(coupling_model(np.pi / 2)))
        npt.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_agrees_with_couple_then_trace(self):
        for seed in range(15):
            ds, de = 2 + seed % 3, 2 + seed % 2
            model = random_model(ds, de, seed)
            rho = random_density(ds, seed + 50)
            via_kraus = apply_channel(rho, extract_kraus(model))
            via_joint = partial_trace(couple(rho, model), de, ds, keep="b")
            npt.assert_allclose(via_kraus, via_joint, atol=1e-12)

    def test_rejects_mismatched_operator(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_channel(np.eye(3) / 3, [np.eye(2)])


class TestBlocks:
    def test_blocks_equal_kraus_sandwiches(self):
        for seed in range(8):
            model = random_model(3, 3, seed)
            rho = random_density(3, seed + 9)
            blocks = block_decompose(couple(rho, model), 3, 3)
            ops = extract_kraus(model)
            for i in range(3):
                for j in range(3):
                    npt.assert_allclose(blocks[i, j],
                                        ops[i] @ rho @ ops[j].conj().T, atol=1e-12)

    def test_blocks_are_a_view_of_the_joint_state(self):
        joint = couple(random_density(2, 1), random_model(2, 3, 2))
        blocks = block_decompose(joint, 2, 3)
        assert blocks.shape == (3, 3, 2, 2)
        assert np.shares_memory(blocks, joint)
        npt.assert_array_equal(blocks[2, 1], joint[4:6, 2:4])

    def test_block_dagger_symmetry(self):
        blocks = block_decompose(couple(PLUS, coupling_model(0.6)), 2, 2)
        npt.assert_allclose(blocks[0, 1], blocks[1, 0].conj().T, atol=1e-10)

    def test_diagonal_blocks_sum_to_output(self):
        model = coupling_model(1.2)
        blocks = block_decompose(couple(PLUS, model), 2, 2)
        out = apply_channel(PLUS, extract_kraus(model))
        npt.assert_allclose(blocks[0, 0] + blocks[1, 1], out, atol=1e-12)

    def test_rejects_non_hermitian_and_bad_trace(self):
        with pytest.raises(ValueError, match="Hermitian"):
            block_decompose(np.triu(np.ones((4, 4))) / 2, 2, 2)
        with pytest.raises(ValueError, match="trace"):
            block_decompose(np.eye(4), 2, 2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            block_decompose(np.eye(4) / 4, 2, 3)


class TestBound:
    def test_quarter_turn_oracle(self):
        blocks = block_decompose(couple(PLUS, coupling_model(np.pi / 4)), 2, 2)
        assert abs(off_block_bound(blocks) - 0.375) < 1e-12

    def test_half_turn_oracle(self):
        blocks = block_decompose(couple(PLUS, coupling_model(np.pi / 2)), 2, 2)
        assert abs(off_block_bound(blocks) - 0.5) < 1e-12

    def test_restatement_as_total_minus_diagonal(self):
        for seed in range(10):
            model = random_model(3, 4, seed)
            rho = density_from_pure(random_pure_state(3, seed))
            joint = couple(rho, model)
            blocks = block_decompose(joint, 3, 4)
            diag_weight = sum(np.vdot(blocks[i, i], blocks[i, i]).real
                              for i in range(4))
            assert abs(off_block_bound(blocks) - (purity(joint) - diag_weight)) < 1e-10

    def test_uncoupled_model_gives_zero_bound_and_entropy(self):
        us = random_unitary(2, 8)
        model = CouplingModel(np.kron(np.eye(3), us), dim_s=2, dim_e=3)
        report = verify_entropy_bound(PLUS, model)
        assert abs(report.bound) < 1e-12
        assert abs(report.entropy) < 1e-12


class TestVerifyEntropyBound:
    def test_quarter_turn_report(self):
        report = verify_entropy_bound(PLUS, coupling_model(np.pi / 4))
        assert abs(report.entropy - 0.125) < 1e-12
        assert abs(report.bound - 0.375) < 1e-12
        assert abs(report.slack - 0.25) < 1e-12
        assert abs(report.projected_entropy - 0.375) < 1e-12
        assert report.hypothesis_pure
        assert report.projected_equals_bound
        assert report.entropy_le_projected

    def test_half_turn_report(self):
        report = verify_entropy_bound(PLUS, coupling_model(np.pi / 2))
        assert abs(report.entropy) < 1e-12
        assert abs(report.bound - 0.5) < 1e-12

    def test_mixed_input_flagged_not_failed(self):
        report = verify_entropy_bound(np.eye(2, dtype=complex) / 2, coupling_model(0.3))
        assert not report.hypothesis_pure
        assert report.entropy_le_projected
        # the bound may legitimately be violated for mixed inputs
        assert report.slack < 0

    def test_mixed_input_projected_entropy_bookkeeping(self):
        # projected entropy always equals input entropy plus the erased
        # off-block weight, pure or not
        for seed in range(8):
            rho = random_density(3, seed)
            model = random_model(3, 2, seed + 3)
            report = verify_entropy_bound(rho, model)
            expected = logical_entropy(rho) + report.bound
            assert abs(report.projected_entropy - expected) < 1e-10

    def test_pure_inputs_satisfy_bound(self):
        for seed in range(25):
            ds, de = 2 + seed % 4, 2 + seed % 3
            rho = density_from_pure(random_pure_state(ds, seed))
            report = verify_entropy_bound(rho, random_model(ds, de, seed + 7))
            assert report.slack >= -1e-9
            assert report.projected_equals_bound
            assert report.entropy_le_projected

    def test_proof_steps_hold_at_zero_tol_for_pure_input_of_unit_trace(self):
        # projected - bound = h(rho) is an identity, checked within the completeness slop: a zero tol
        # tightens the slack and entropy <= projected checks only
        for seed in range(500):
            ds, de = 2 + seed % 4, 2 + seed % 3
            rho = density_from_pure(random_pure_state(ds, seed))
            np.fill_diagonal(rho, rho.diagonal().real)
            for k in np.repeat(np.arange(ds), 2):  # nudge the diagonal until the trace is 1 to the bit
                rho[k, k] += 1.0 - np.trace(rho).real
            assert np.trace(rho) == 1.0
            report, _ = _bound_report(rho, extract_kraus(random_model(ds, de, seed + 1000)), 0.0)
            assert _theorem_holds(report, 0.0), (seed, report)

    def test_rejects_invalid_density(self):
        with pytest.raises(ValueError):
            verify_entropy_bound(np.eye(2), coupling_model(0.5))

    def test_projected_entropy_matches_dense_projection(self):
        # the report reads the Kraus stack; the coupled state built densely is its oracle
        for seed in range(16):
            ds, de = 2 + seed % 3, 2 + seed % 4
            model = CouplingModel(random_unitary(ds * de, seed), ds, de,
                                  env_init=seed % de)
            rho = (random_density(ds, seed + 30) if seed % 2
                   else density_from_pure(random_pure_state(ds, seed + 30)))
            joint = couple(rho, model)
            mask = np.kron(np.eye(de), np.ones((ds, ds)))
            report = verify_entropy_bound(rho, model)
            assert abs(report.projected_entropy - logical_entropy(joint * mask)) < 1e-12
            assert abs(report.bound - off_block_bound(block_decompose(joint, ds, de))) < 1e-12
            assert abs(report.entropy
                       - logical_entropy(partial_trace(joint, de, ds, keep="b"))) < 1e-12

    def test_tol_reaches_the_density_check(self):
        # trace 1 + 1e-7 is within tol=1e-6; block_decompose at its default tol
        # refuses the coupled state of the same input
        rho = np.diag([1 + 1e-7, 0]).astype(complex)
        report = verify_entropy_bound(rho, coupling_model(0.3), tol=1e-6)
        assert report.hypothesis_pure
        with pytest.raises(ValueError, match="trace"):
            verify_entropy_bound(rho, coupling_model(0.3))
        with pytest.raises(ValueError, match="trace"):
            block_decompose(couple(rho, coupling_model(0.3)), 2, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"dimension mismatch: state is \(3, 3\), "
                                             r"model system side is 2"):
            verify_entropy_bound(np.eye(3) / 3, coupling_model(0.3))


def kron_oracle(model, w):
    """The dense model U (W (x) I_S), W a unitary whose column 0 is w: it couples model's U to |w>."""
    de, ds = model.dim_e, model.dim_s
    m = np.random.default_rng(de).standard_normal((de, de)) * (1 + 0j)
    m[:, 0] = w
    q, r = np.linalg.qr(m)
    q[:, 0] *= r[0, 0]  # |r00| = |w| = 1, so column 0 becomes w itself
    return CouplingModel(model.unitary @ np.kron(q, np.eye(ds)), ds, de)


class TestEnvRotation:
    def test_rotation_to_basis_state_matches_env_init(self):
        # bitwise, for every basis state of every model, the damping coupling included
        models = [coupling_model(0.7)] + [CouplingModel(random_unitary(ds * de, ds + de), ds, de, env_init=de // 2)
                                          for ds, de in ((1, 1), (2, 3), (3, 4), (1, 5), (4, 2))]
        for model in models:
            ds, de = model.dim_s, model.dim_e
            rho = density_from_pure(random_pure_state(ds, de))
            for k, e_k in enumerate(np.eye(de)):
                shifted = CouplingModel(model.unitary, ds, de, env_init=k)
                ops = env_kraus(model, e_k)
                assert np.array_equal(ops, extract_kraus(shifted))
                assert verify_entropy_bound(rho, ops) == verify_entropy_bound(rho, shifted)
                assert exchange_entropy(rho, ops) == exchange_entropy(rho, shifted)

    def test_rotation_to_superposition_preserves_purity(self):
        model = random_model(2, 3, 4)
        w = np.array([0.5, 0.5j, np.sqrt(0.5)])
        rho = density_from_pure(random_pure_state(2, 11))
        assert abs(purity(couple(rho, env_kraus(model, w))) - 1.0) < 1e-12

    @pytest.mark.parametrize("ds,de", [(3, 4), (1, 5), (4, 1), (1, 1), (6, 7)])
    def test_matches_dense_kron_oracle(self, ds, de):
        rng = np.random.default_rng(10 * ds + de)
        model = CouplingModel(random_unitary(ds * de, de), ds, de, env_init=int(rng.integers(de)))
        w = rng.standard_normal(de) + 1j * rng.standard_normal(de)
        w /= np.linalg.norm(w)
        ops, dense = env_kraus(model, w), kron_oracle(model, w)
        npt.assert_allclose(ops, extract_kraus(dense), rtol=0, atol=1e-12)
        pure, mixed = density_from_pure(random_pure_state(ds, de)), random_density(ds, de + 1)
        for report in (lambda m: verify_entropy_bound(pure, m), lambda m: exchange_entropy(mixed, m)):
            got, want = report(ops), report(dense)
            for field, value in vars(want).items():
                npt.assert_allclose(getattr(got, field), value, rtol=0, atol=1e-12, err_msg=field)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            env_kraus(coupling_model(0.2), [1.0, 1.0])
        with pytest.raises(ValueError, match=r"^dimension mismatch: env state has 3 entries, dim_e=2$"):
            env_kraus(coupling_model(0.2), [1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="norm"):
            env_kraus(coupling_model(0.2), [np.nan, 0.0])

    def test_overflowing_norm_is_rejected_without_warnings(self):
        # a huge finite state overflows the norm to inf, and is rejected as an inf state is
        for w in ([1e200, 1e200], [1e300, 0.0], [np.inf, 0.0], [np.nan, 0.0]):
            norm = "nan" if np.isnan(w[0]) else "inf"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=f"environment state norm {norm} deviates from 1"):
                    env_kraus(coupling_model(0.2), w)


QUBIT_STATE = density_from_pure([0.6, 0.8])
STACK_READERS = {
    "extract_kraus": lambda rho, ops: extract_kraus(ops),
    "couple": couple,
    "verify_entropy_bound": verify_entropy_bound,
    "exchange_entropy": exchange_entropy,
}


class TestKrausStackInput:
    """Every channel consumer takes a Kraus stack in place of a model, and checks it on the way in."""

    @pytest.mark.parametrize("reader", STACK_READERS.values(), ids=STACK_READERS.keys())
    def test_an_incomplete_stack_is_rejected(self, reader):
        ops = extract_kraus(coupling_model(0.4)) * np.sqrt(1 + 10 * DEFAULT_TOL)
        with pytest.raises(ValueError, match="^Kraus completeness violated"):
            reader(QUBIT_STATE, ops)

    @pytest.mark.parametrize("reader", STACK_READERS.values(), ids=STACK_READERS.keys())
    def test_a_nan_stack_fails_completeness(self, reader):
        ops = extract_kraus(coupling_model(0.4)).copy()
        ops[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="^Kraus completeness violated"):
            reader(QUBIT_STATE, ops)

    @pytest.mark.parametrize("reader", STACK_READERS.values(), ids=STACK_READERS.keys())
    def test_a_ragged_member_is_named(self, reader):
        with pytest.raises(ValueError, match="^operator 1 is not a matrix: its rows differ in length$"):
            reader(QUBIT_STATE, [np.eye(2), [[1, 0], [0]]])

    @pytest.mark.parametrize("reader", list(STACK_READERS.values())[1:], ids=list(STACK_READERS)[1:])
    def test_a_stack_on_another_input_side_is_a_dimension_mismatch(self, reader):
        ops = extract_kraus(random_model(3, 2, 5))
        with pytest.raises(ValueError, match=r"^dimension mismatch: state is \(2, 2\), model system side is 3$"):
            reader(QUBIT_STATE, ops)

    def test_a_models_stack_reads_as_the_model(self):
        for seed in range(8):
            ds, de = 1 + seed % 4, 2 + seed % 3
            model = CouplingModel(random_unitary(ds * de, seed + 70), ds, de, env_init=1 + seed % (de - 1))
            ops = extract_kraus(model)
            for rho in (density_from_pure(random_pure_state(ds, seed)), random_density(ds, seed + 1)):
                assert verify_entropy_bound(rho, ops) == verify_entropy_bound(rho, model)
                assert exchange_entropy(rho, ops) == exchange_entropy(rho, model)
                assert np.array_equal(couple(rho, ops), couple(rho, model))
            assert np.array_equal(extract_kraus(ops), ops)


class TestExchangeEntropy:
    def test_identity_model_zero(self):
        rho = random_density(3, 21)
        report = exchange_entropy(rho, CouplingModel(np.eye(6), dim_s=3, dim_e=2))
        assert abs(report.exchange_entropy) < 1e-12
        assert report.dim_r == 3

    def test_half_turn_damping_on_maximally_mixed(self):
        report = exchange_entropy(np.eye(2, dtype=complex) / 2, coupling_model(np.pi / 2))
        assert abs(report.exchange_entropy - 0.5) < 1e-12
        assert report.slack >= -1e-9

    def test_pure_input_reduces_to_plain_bound(self):
        rho = density_from_pure(random_pure_state(2, 31))
        model = coupling_model(0.9)
        ex = exchange_entropy(rho, model)
        plain = verify_entropy_bound(rho, model)
        assert ex.dim_r == 1
        assert abs(ex.exchange_entropy - plain.entropy) < 1e-12
        assert abs(ex.bound - plain.bound) < 1e-12

    def test_two_route_agreement(self):
        # definition (couple the purification, trace the environment) vs
        # lifting the Kraus operators by hand
        for seed in range(6):
            rho = random_density(3, seed)
            model = random_model(3, 2, seed + 40)
            report = exchange_entropy(rho, model)
            evals, evecs = np.linalg.eigh(rho)
            keep = evals > 1e-9
            lam, vecs = evals[keep], evecs[:, keep]
            psi = (np.sqrt(lam)[None, :] * vecs).T.reshape(-1)
            rho_rs = np.outer(psi, psi.conj())
            lifted = [np.kron(np.eye(len(lam)), e) for e in extract_kraus(model)]
            direct = logical_entropy(apply_channel(rho_rs, lifted))
            assert abs(report.exchange_entropy - direct) < 1e-10

    def test_low_rank_input_shrinks_reference(self):
        # rank-2 state on a 3-dimensional system
        g = np.random.default_rng(17).standard_normal((3, 2)) * (1 + 0j)
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        model = random_model(3, 2, 55)
        report = exchange_entropy(rho, model)
        assert report.dim_r == 2
        assert report.slack >= -1e-9

    def test_dropped_eigenvalues_renormalize(self):
        # regression guard: the two eigenvalues at 0.9e-9 fall below tol, so
        # the reference keeps one dimension; the environment state comes
        # from rho itself, so this near-boundary input needs no rescaling
        rho = np.diag([1 - 1.8e-9, 0.9e-9, 0.9e-9]).astype(complex)
        report = exchange_entropy(rho, random_model(3, 2, 83))
        assert report.dim_r == 1
        assert report.slack >= -1e-9

    def test_matches_hand_lifted_unitary(self):
        # the lifted coupling on R (x) S, block (i, j) = I_R (x) U_ij, fed to
        # the plain bound on the purification, for every rank 1 .. dim_s
        for seed in range(6):
            ds, de = 2 + seed % 2, 2 + seed % 3
            model = CouplingModel(random_unitary(ds * de, seed + 90), ds, de,
                                  env_init=seed % de)
            u = model.unitary.reshape(de, ds, de, ds)
            rng = np.random.default_rng(seed)
            for dim_r in range(1, ds + 1):
                g = rng.standard_normal((ds, dim_r)) + 1j * rng.standard_normal((ds, dim_r))
                rho = g @ g.conj().T
                rho /= np.trace(rho).real
                evals, evecs = np.linalg.eigh(rho)
                lam, vecs = evals[-dim_r:], evecs[:, -dim_r:]
                psi = (np.sqrt(lam)[None, :] * vecs).T.reshape(-1)
                lifted_u = np.block([[np.kron(np.eye(dim_r), u[i, :, j, :]) for j in range(de)]
                                     for i in range(de)])
                lifted = CouplingModel(lifted_u, dim_r * ds, de, env_init=model.env_init)
                oracle = verify_entropy_bound(np.outer(psi, psi.conj()), lifted)
                report = exchange_entropy(rho, model)
                assert report.dim_r == dim_r
                assert abs(report.exchange_entropy - oracle.entropy) < 1e-10
                assert abs(report.bound - oracle.bound) < 1e-10
                assert abs(report.slack - oracle.slack) < 1e-10

    def test_dimension_mismatch_rejected(self):
        rho = np.eye(2, dtype=complex) / 2
        with pytest.raises(ValueError, match="dimension mismatch"):
            exchange_entropy(rho, random_model(3, 2, 71))
        # a model on R (x) S (dim_r * dim_s = 4) is not a model on S
        with pytest.raises(ValueError, match="dimension mismatch"):
            exchange_entropy(rho, random_model(4, 2, 61))
