"""Mixtures, the mixing entropy bound, and purifications.

The logical entropy of a mixture sum_i p_i rho_i never exceeds

    h(p) + sum_i p_i^2 h(rho_i),

with equality exactly when the components live on mutually orthogonal
supports. The proof route is constructive and checkable: purify an
ensemble of pure states into |SB> = sum_i sqrt(p_i) |psi_i>|i>, note the
two reduced states share a spectrum (so equal entropy), and compare the
B-side reduction against its measured diagonal, whose entropy is h(p).
Every link of that chain is verified numerically here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import validate_distribution, weight_entropy
from .linalg import DEFAULT_TOL, IDENTITY_TOL, _dots, _matrix_stack, _partial_trace, _require, partial_trace
from .measurement import _measured
from .states import (_pure_densities, _purities, _random_states, _rng, _validate_densities, density_from_pure,
                     logical_entropy, validate_density)


@dataclass(frozen=True)
class Ensemble:
    """Weighted collection of density matrices on one space.

    Members are read as one stack of equal shapes, then checked as density
    matrices within DEFAULT_TOL; weights, one per member, must be nonnegative
    and sum to 1 within 1e-9, and are renormalized exactly so downstream
    identities hold at full precision.
    """

    weights: np.ndarray
    states: np.ndarray  # the checked members, one read-only complex (m, d, d) array

    def __post_init__(self):
        states = np.array(_matrix_stack(self.states, "state"))  # a private copy
        _validate_densities(states, DEFAULT_TOL)
        w = validate_distribution(self.weights)
        if w.shape[0] != len(states):
            raise ValueError(f"{w.shape[0]} weights for {len(states)} states")
        w.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "states", states)

    @property
    def dim(self) -> int:
        return self.states[0].shape[0]

    def __len__(self) -> int:
        return len(self.states)


def mix(ensemble: Ensemble) -> np.ndarray:
    """The mixture sum_i p_i rho_i."""
    return _running_sums((ensemble.weights[:, None, None] * ensemble.states)[None])[0]


def _running_sums(terms: np.ndarray) -> np.ndarray:
    """Sums over the member axis 1 of a (g, m, ...) stack, added in member order from zero
    (np.sum may regroup them), so the zero terms padding an ensemble leave its sum as it is."""
    out = np.zeros_like(terms[:, 0])
    for row in terms.swapaxes(0, 1):
        out += row
    return out


@dataclass(frozen=True)
class MixReport:
    """Mixing-bound measurement: mixture_entropy <= bound up to slack >= 0.

    orthogonal_support is True when every pair of components satisfies
    tr(rho_i rho_j) < 1e-10; the bound is then an equality.
    """

    mixture_entropy: float
    bound: float
    slack: float
    weight_entropy: float
    orthogonal_support: bool


def orthogonal_support(ensemble: Ensemble) -> bool:
    """Whether all component pairs overlap less than IDENTITY_TOL in tr(rho_i rho_j). Each member
    is compared with all its successors at once, so no array outgrows the ensemble."""
    f = ensemble.states.reshape(len(ensemble), -1)
    return all((np.abs(_dots(f[i + 1:], f[i])) < IDENTITY_TOL).all() for i in range(len(f) - 1))


def mixing_bound_report(ensemble: Ensemble) -> MixReport:
    """Evaluate both sides of the mixing entropy bound."""
    lhs, rhs, h_w = (x.item() for x in _mixing_bounds(ensemble.weights[None], ensemble.states[None]))
    return MixReport(mixture_entropy=lhs, bound=rhs, slack=rhs - lhs, weight_entropy=h_w,
                     orthogonal_support=orthogonal_support(ensemble))


def _mixing_bounds(w: np.ndarray, states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """mixing_bound_report's mixture entropy, bound and weight entropy over a stack of checked
    ensembles: weights w (g, m) and members (g, m, d, d), padded with zero-weight zero members."""
    lhs = 1.0 - _purities(_running_sums(w[..., None, None] * states))
    h_w = np.array([weight_entropy(row) for row in w])
    rhs = h_w + _running_sums(w * w * (1.0 - _purities(states)))
    return lhs, rhs, h_w


def purify(rho) -> np.ndarray:
    """A pure vector on S (x) B (B a copy of S) reducing to rho on S.

    Built from the eigendecomposition, largest eigenvalue first, as
    sum_k sqrt(lam_k) |v_k>|k> with the S index slowest; a pure input
    therefore purifies to |psi>|0>.
    """
    rho = validate_density(rho)
    evals, evecs = np.linalg.eigh(rho)
    order = np.argsort(evals)[::-1]
    lam = np.clip(evals[order], 0.0, None)
    # Entry (s, k) of the S x B coefficient matrix is sqrt(lam_k) v_k[s].
    return (evecs[:, order] * np.sqrt(lam)).reshape(-1)


def purify_ensemble(ensemble: Ensemble) -> np.ndarray:
    """|SB> = sum_i sqrt(p_i) |psi_i>|i> for an ensemble of pure states.

    The B register has one dimension per component and records which
    member was drawn; tracing it out returns mix(ensemble), while the
    B-side reduction has entries <psi_j|psi_i> sqrt(p_i p_j). Members
    must be pure (largest eigenvalue within DEFAULT_TOL of 1).
    """
    evals, evecs = np.linalg.eigh(ensemble.states)
    i = int(np.argmin(1.0 - evals[:, -1] <= DEFAULT_TOL))  # the first impure member, or 0 when all are pure
    _require(1.0 - evals[i, -1], DEFAULT_TOL, "ensemble member {1} is not pure: largest eigenvalue {2:.12g}",
             i, evals[i, -1])
    # Entry (s, i) of the S x B coefficient matrix is sqrt(p_i) psi_i[s].
    return (evecs[:, :, -1].T * np.sqrt(ensemble.weights)).reshape(-1)


def schmidt_entropy_pair(psi, dim_a: int, dim_b: int) -> tuple[float, float]:
    """Logical entropies of the two reductions of a bipartite pure state.

    They coincide (shared Schmidt spectrum), which makes the pair a
    useful self-test.
    """
    h_a, h_b = _schmidt_pairs(np.asarray(psi, dtype=np.complex128).reshape(-1), dim_a, dim_b)
    return float(h_a), float(h_b)


def _schmidt_pairs(psi: np.ndarray, dim_a: int, dim_b: int) -> tuple[np.ndarray, np.ndarray]:
    """schmidt_entropy_pair over any leading axes of psi."""
    rho = _pure_densities(psi)
    return (1.0 - _purities(_partial_trace(rho, dim_a, dim_b, "a")),
            1.0 - _purities(_partial_trace(rho, dim_a, dim_b, "b")))


def purification_chain_check(ensemble: Ensemble) -> bool:
    """Verify the mixing bound's proof chain link by link, each within DEFAULT_TOL.

    h(mix) == h(rho_B)  (shared Schmidt spectrum of |SB>),
    h(rho_B) <= h(diag(rho_B))  (measuring in the record basis),
    h(diag(rho_B)) == h(p)  (the diagonal of rho_B is exactly p).
    """
    n = len(ensemble)
    d = ensemble.dim
    psi = purify_ensemble(ensemble)
    rho_sb = density_from_pure(psi)
    h_mix = logical_entropy(mix(ensemble))
    rho_b = partial_trace(rho_sb, d, n, keep="b")
    h_b = logical_entropy(rho_b)
    h_diag = logical_entropy(_measured(rho_b, np.arange(n)))  # measured in the record basis: singleton blocks
    h_w = weight_entropy(ensemble.weights)
    return abs(h_mix - h_b) <= DEFAULT_TOL and h_b <= h_diag + DEFAULT_TOL and abs(h_diag - h_w) <= DEFAULT_TOL


def random_ensemble(dim: int, n: int, seed, pure: bool = True) -> Ensemble:
    """Random ensemble with Dirichlet-uniform weights.

    pure=True draws Gaussian unit vectors; otherwise Ginibre mixed states.
    """
    w, draws = _draw_ensemble(dim, n, _rng(seed), pure)
    return Ensemble(weights=w, states=_random_states(draws, pure))


def _draw_ensemble(dim: int, n: int, rng: np.random.Generator, pure: bool):
    """random_ensemble's draws: the weights, then each member's _gaussian, all in one read of the stream."""
    w, x = rng.dirichlet(np.ones(n)), rng.standard_normal((n, 2, dim) if pure else (n, 2, dim, dim))
    return w, x[:, 0] + 1j * x[:, 1]
