import re

import numpy as np
import numpy.testing as npt
import pytest

from logent.classical import logical_entropy_dist
from logent.linalg import partial_trace
from logent.mixing import (Ensemble, _mixing_bounds, mix, mixing_bound_report, orthogonal_support,
                           purification_chain_check, purify, purify_ensemble,
                           random_ensemble, schmidt_entropy_pair, weight_entropy)
from logent.states import (NonHermitianError, _random_states, density_from_pure, logical_entropy,
                           random_density, random_pure_state)


def two_state_ensemble():
    zero = density_from_pure([1, 0])
    plus = density_from_pure([2**-0.5, 2**-0.5])
    return Ensemble([0.5, 0.5], [zero, plus])


class TestEnsemble:
    def test_weight_validation(self):
        rho = density_from_pure([1, 0])
        with pytest.raises(ValueError, match="sum"):
            Ensemble([0.6, 0.6], [rho, rho])
        with pytest.raises(ValueError, match="negative"):
            Ensemble([1.2, -0.2], [rho, rho])
        with pytest.raises(ValueError, match="weights for"):
            Ensemble([1.0], [rho, rho])
        with pytest.raises(ValueError, match="shape"):
            Ensemble([0.5, 0.5], [rho, density_from_pure([1, 0, 0])])

    def test_weights_are_renormalized_exactly(self):
        rho = density_from_pure([1, 0])
        ens = Ensemble([0.3 + 1e-10, 0.7], [rho, rho])
        assert float(np.sum(ens.weights)) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Ensemble([], [])

    @pytest.mark.parametrize("container", [list, tuple, np.array])
    def test_members_are_one_read_only_complex_stack(self, container):
        members = [density_from_pure([1, 0]), np.eye(2) / 2, [[0.5, 0.5], [0.5, 0.5]]]
        given = container(members)
        ens = Ensemble([0.2, 0.3, 0.5], given)
        assert type(ens.states) is np.ndarray
        assert ens.states.dtype == np.complex128 and ens.states.shape == (3, 2, 2)
        assert not ens.states.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ens.states[0, 0, 0] = 0.0
        npt.assert_array_equal(ens.states, np.array(members, dtype=complex))
        if isinstance(given, np.ndarray):  # the stack is the ensemble's own copy
            given[0, 0, 0] = 7.0
        assert ens.states[0, 0, 0] == 1.0
        assert (len(ens), ens.dim) == (3, 2)

    def test_two_faults_report_the_first_check(self):
        # the members' shapes are checked first, then the members, then the weights, then the count
        rho, qutrit, skew = density_from_pure([1, 0]), np.eye(3) / 3, [[0.5, 1.0], [0.0, 0.5]]
        misshaped = f"^{re.escape('state 2 has shape (3, 3), expected (2, 2)')}$"
        with pytest.raises(ValueError, match=misshaped):  # a shape mismatch beats an earlier bad member
            Ensemble([0.5, 0.5], [rho, skew, qutrit])
        with pytest.raises(NonHermitianError):  # a bad member beats bad weights
            Ensemble([0.6, 0.6], [rho, skew])
        with pytest.raises(ValueError, match="^probabilities sum to 1.2,"):  # bad weights beat a count mismatch
            Ensemble([0.6, 0.6], [rho, rho, rho])
        with pytest.raises(ValueError, match=misshaped):  # a shape mismatch beats a count mismatch
            Ensemble([0.5, 0.5], [rho, rho, qutrit])


class TestMix:
    def test_half_zero_half_plus(self):
        got = mix(two_state_ensemble())
        npt.assert_allclose(got, [[0.75, 0.25], [0.25, 0.25]], atol=1e-15)

    def test_mix_is_convex_combination(self):
        ens = random_ensemble(4, 3, seed=11, pure=False)
        manual = sum(w * s for w, s in zip(ens.weights, ens.states))
        npt.assert_allclose(mix(ens), manual, atol=1e-15)


class TestMixingBound:
    def test_nonorthogonal_pair_report(self):
        report = mixing_bound_report(two_state_ensemble())
        assert abs(report.mixture_entropy - 0.25) < 1e-12
        assert abs(report.bound - 0.5) < 1e-12
        assert abs(report.slack - 0.25) < 1e-12
        assert abs(report.weight_entropy - 0.5) < 1e-12
        assert not report.orthogonal_support

    def test_orthogonal_pure_pair_is_tight(self):
        ens = Ensemble([0.3, 0.7],
                       [density_from_pure([1, 0]), density_from_pure([0, 1])])
        report = mixing_bound_report(ens)
        assert report.orthogonal_support
        assert abs(report.mixture_entropy - 0.42) < 1e-12
        assert abs(report.bound - 0.42) < 1e-12
        assert abs(report.slack) < 1e-12

    def test_random_ensembles_never_violate(self):
        for seed in range(25):
            ens = random_ensemble(2 + seed % 5, 2 + seed % 4, seed=seed,
                                  pure=bool(seed % 2))
            report = mixing_bound_report(ens)
            assert report.slack >= -1e-9
            assert abs(report.weight_entropy
                       - logical_entropy_dist(ens.weights)) < 1e-12

    def test_orthogonal_support_equality_with_mixed_members(self):
        # members live on disjoint index ranges, so cross purities vanish
        d = 6
        rho_a = np.zeros((d, d), dtype=complex)
        rho_a[:3, :3] = random_density(3, 5)
        rho_b = np.zeros((d, d), dtype=complex)
        rho_b[3:, 3:] = random_density(3, 6)
        ens = Ensemble([0.4, 0.6], [rho_a, rho_b])
        report = mixing_bound_report(ens)
        assert report.orthogonal_support
        assert abs(report.slack) < 1e-9

    def test_spectral_ensemble_reproduces_grouped_bound(self):
        # mix eigenvector ensembles of two states: bound collapses to
        # h(p) + sum_i p_i^2 h(rho_i) with h from each spectrum
        rhos = [random_density(4, 21), random_density(4, 22)]
        weights = [0.35, 0.65]
        flat_w, flat_s = [], []
        for p, rho in zip(weights, rhos):
            lam, vecs = np.linalg.eigh(rho)
            for k in range(4):
                flat_w.append(p * lam[k])
                flat_s.append(density_from_pure(vecs[:, k]))
        report = mixing_bound_report(Ensemble(flat_w, flat_s))
        expected = (1 - sum(p * p for p in weights)) + sum(
            p * p * logical_entropy(rho) for p, rho in zip(weights, rhos))
        assert abs(report.bound - expected) < 1e-10

    def test_orthogonal_support_flag(self):
        assert not orthogonal_support(two_state_ensemble())


class TestPurify:
    def test_partial_trace_recovers_state(self):
        for seed in range(10):
            dim = 2 + seed % 4
            rho = random_density(dim, seed)
            psi = purify(rho)
            joint = np.outer(psi, psi.conj())
            npt.assert_allclose(partial_trace(joint, dim, dim, keep="a"), rho,
                                atol=1e-9)

    def test_maximally_mixed_qubit_schmidt_weights(self):
        psi = purify(np.eye(2, dtype=complex) / 2)
        npt.assert_allclose(np.abs(psi), [0, 2**-0.5, 2**-0.5, 0], atol=1e-12)

    def test_pure_state_purifies_trivially(self):
        psi_in = random_pure_state(3, 4)
        psi = purify(density_from_pure(psi_in))
        # reference factor stays in its first basis state; zero eigenvalues
        # of the input enter under a square root, hence the 1e-7 allowance
        block = psi.reshape(3, 3)
        npt.assert_allclose(block[:, 1:], 0, atol=1e-7)
        assert abs(abs(np.vdot(psi_in, block[:, 0])) - 1.0) < 1e-9

    def test_marginals_share_entropy(self):
        for seed in range(10):
            rho = random_density(3, seed + 50)
            joint = np.outer(purify(rho), purify(rho).conj())
            ha = logical_entropy(partial_trace(joint, 3, 3, keep="a"))
            hb = logical_entropy(partial_trace(joint, 3, 3, keep="b"))
            assert abs(ha - hb) < 1e-10


class TestPurifyEnsemble:
    def test_system_marginal_is_the_mixture(self):
        ens = two_state_ensemble()
        psi = purify_ensemble(ens)
        joint = np.outer(psi, psi.conj())
        npt.assert_allclose(partial_trace(joint, 2, 2, keep="a"), mix(ens),
                            atol=1e-9)

    def test_pointer_marginal_gram_matrix(self):
        psi = purify_ensemble(two_state_ensemble())
        joint = np.outer(psi, psi.conj())
        rho_b = partial_trace(joint, 2, 2, keep="b")
        npt.assert_allclose(rho_b,
                            [[0.5, 0.3535533905932738],
                             [0.3535533905932738, 0.5]], atol=1e-12)

    def test_mixed_member_rejected(self):
        ens = Ensemble([0.5, 0.5],
                       [np.eye(2, dtype=complex) / 2, density_from_pure([1, 0])])
        with pytest.raises(ValueError, match="pure"):
            purify_ensemble(ens)

    def test_the_first_impure_member_is_named(self):
        pure, half, third = density_from_pure([1, 0]), np.diag([0.5, 0.5]), np.diag([2 / 3, 1 / 3])
        ens = Ensemble([0.25, 0.25, 0.25, 0.25], [pure, pure, half, third])
        with pytest.raises(ValueError, match="^ensemble member 2 is not pure: largest eigenvalue 0.5$"):
            purify_ensemble(ens)
        # within tol of pure passes; the stacked eigensolver gives each member's own vectors
        ens = random_ensemble(3, 5, 4)
        want = [np.linalg.eigh(s)[1][:, -1] for s in ens.states]
        npt.assert_array_equal(purify_ensemble(ens), (np.stack(want, axis=1) * np.sqrt(ens.weights)).reshape(-1))


class TestSchmidt:
    def test_pair_entropies_match(self):
        for seed in range(10):
            da, db = 2 + seed % 3, 2 + (seed + 1) % 3
            psi = random_pure_state(da * db, seed)
            ha, hb = schmidt_entropy_pair(psi, da, db)
            assert abs(ha - hb) < 1e-10

    def test_product_state_has_zero_entropy(self):
        psi = np.kron(random_pure_state(2, 1), random_pure_state(3, 2))
        ha, hb = schmidt_entropy_pair(psi, 2, 3)
        assert abs(ha) < 1e-12 and abs(hb) < 1e-12


class TestPurificationChain:
    def test_known_ensemble_chain_and_links(self):
        ens = two_state_ensemble()
        assert purification_chain_check(ens)
        # recompute each link at the oracle values
        psi = purify_ensemble(ens)
        joint = np.outer(psi, psi.conj())
        rho_b = partial_trace(joint, 2, 2, keep="b")
        assert abs(logical_entropy(mix(ens)) - 0.25) < 1e-12
        assert abs(logical_entropy(rho_b) - 0.25) < 1e-12
        assert abs(logical_entropy(np.diag(np.diag(rho_b))) - 0.5) < 1e-12

    def test_random_pure_ensembles(self):
        for seed in range(15):
            ens = random_ensemble(2 + seed % 4, 2 + seed % 3, seed=seed + 7)
            assert purification_chain_check(ens)


def test_weight_entropy_matches_distribution_route():
    ens = random_ensemble(3, 5, seed=2)
    assert abs(weight_entropy(ens.weights)
               - logical_entropy_dist(ens.weights)) < 1e-12


def test_orthogonality_check_stays_the_size_of_the_ensemble(peak_bytes):
    # member pairs are taken as many at a time as there are members, not
    # all 780 at once: 40 members need a few copies of their stack
    ens = random_ensemble(24, 40, 0, pure=False)
    assert peak_bytes(lambda: orthogonal_support(ens)) < 5 * 40 * 24 * 24 * 16


def test_padding_leaves_every_result_as_it_was():
    # 12 members are past the 8 terms after which np.sum regroups a sum, so
    # every sum must run in member order from zero, padded or not
    for dim, pure in [(1, False), (3, True), (4, False)]:
        ens = random_ensemble(dim, 12, dim, pure=pure)
        w, states = ens.weights, np.array(ens.states)
        mixed, spread = np.zeros((dim, dim), dtype=complex), 0.0
        for p, s in zip(w, states):
            mixed += p * s
            spread += p * p * (1.0 - np.vdot(s, s).real)
        assert mix(ens).tobytes() == mixed.tobytes()
        report = mixing_bound_report(ens)
        assert report.mixture_entropy == 1.0 - np.vdot(mixed, mixed).real
        assert report.weight_entropy == weight_entropy(w)
        assert report.bound == weight_entropy(w) + spread
        assert report.slack == report.bound - report.mixture_entropy
        # beside a 3-member ensemble in a campaign's stack, padded with zero-weight zero members
        short = random_ensemble(dim, 3, dim + 1, pure=pure)
        weights, members = np.zeros((2, 12)), np.zeros((2, 12, dim, dim), dtype=complex)
        weights[0], members[0] = w, states
        weights[1, :3], members[1, :3] = short.weights, short.states
        lhs, rhs, h_w = _mixing_bounds(weights, members)
        for k, e in enumerate([ens, short]):
            r = mixing_bound_report(e)
            assert (lhs[k], rhs[k], h_w[k]) == (r.mixture_entropy, r.bound, r.weight_entropy)


def test_orthogonal_support_checks_every_pair_of_twelve():
    basis = [np.diag(np.eye(12)[i]).astype(complex) for i in range(12)]
    assert orthogonal_support(Ensemble(np.full(12, 1 / 12), basis))
    for i, j in [(0, 1), (3, 7), (10, 11)]:
        overlapping = list(basis)
        overlapping[j] = (basis[i] + basis[j]) / 2
        ens = Ensemble(np.full(12, 1 / 12), overlapping)
        assert not orthogonal_support(ens)
        assert not mixing_bound_report(ens).orthogonal_support


def test_orthogonal_support_rejects_identical_members():
    # two identical pure members overlap fully (tr = 1)
    ens = Ensemble([0.5, 0.5], [np.diag([1.0, 0.0])] * 2)
    assert not orthogonal_support(ens)


def test_ensemble_members_are_drawn_as_one_gaussian_after_another():
    # one read of the stream for all members yields the numbers of the member-by-member draws
    for seed, dim, n, pure in [(0, 3, 2, True), (1, 4, 6, False), (2, 1, 3, True), (3, 2, 5, False)]:
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.ones(n))
        shape = dim if pure else (dim, dim)
        members = np.array([rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(n)])
        ens = random_ensemble(dim, n, seed, pure=pure)
        npt.assert_array_equal(ens.weights, w / w.sum())  # Ensemble renormalizes its weights
        npt.assert_array_equal(np.array(ens.states), _random_states(members, pure))
