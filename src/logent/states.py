"""Density matrices, their logical entropy, and seeded random generators.

The logical entropy of a state is h(rho) = 1 - tr(rho^2). For Hermitian
rho the purity tr(rho^2) equals the squared Frobenius norm, so h is
computed entrywise without an eigensolver; the eigenvalue route
1 - sum(lambda_i^2) exists only as a cross-check in the test suite.
"""
from __future__ import annotations

import numpy as np

from .linalg import DEFAULT_TOL, NORM_TOL, _dots, _first, _hermiticity_defects, as_complex_matrix


class DensityValidationError(ValueError):
    """A matrix failed density-matrix validation.

    Attributes
    ----------
    deviation : float
        How far the offending invariant was from holding.
    """

    def __init__(self, message: str, deviation: float):
        super().__init__(message)
        self.deviation = float(deviation)


class NonHermitianError(DensityValidationError):
    pass


class NonPositiveError(DensityValidationError):
    pass


class TraceError(DensityValidationError):
    pass


def validate_density(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Check the density-matrix invariants and return the validated array.

    Checks, in order: squareness, hermiticity within tol, unit trace
    within tol, and smallest eigenvalue >= -tol. Each failure raises its
    own error class carrying the deviation, so callers can tell *which*
    invariant broke and by how much. A NaN deviation fails every check.
    """
    m = as_complex_matrix(m)
    _validate_densities(m[None], tol)
    return m


def _validate_densities(m: np.ndarray, tol: float) -> None:
    """validate_density's checks on a (k, m, n) stack, squareness first; the first failing member raises."""
    if m.shape[1] != m.shape[2]:
        raise DensityValidationError(f"density matrix must be square, got {m.shape[1:]}", 0.0)
    herm = _hermiticity_defects(m)
    tr = m.trace(axis1=1, axis2=2)
    dev = np.abs(tr - 1.0)
    cut = _first(np.maximum(herm, dev) <= tol)  # a NaN in either fails
    lo = np.linalg.eigvalsh(m[:cut])[:, 0] if cut else np.zeros(0)
    neg = _first(lo >= -tol)
    if neg < cut:
        raise NonPositiveError(f"not positive semidefinite: min eigenvalue {lo[neg]:.3e} below -{tol:.3e}",
                               -lo[neg])
    if cut < len(m) and not herm[cut] <= tol:
        raise NonHermitianError(f"not Hermitian: defect {herm[cut]:.3e} exceeds tol {tol:.3e}", herm[cut])
    if cut < len(m):
        raise TraceError(f"trace {complex(tr[cut]):.12g} deviates from 1 by {dev[cut]:.3e} (tol {tol:.3e})",
                         dev[cut])


def density_from_pure(psi) -> np.ndarray:
    """Outer product |psi><psi| of a state vector.

    Norm deviations up to 1e-6 are silently renormalized; anything
    larger is rejected as not a state vector.
    """
    return _pure_densities(np.asarray(psi, dtype=np.complex128).reshape(-1))


def _pure_densities(v: np.ndarray) -> np.ndarray:
    """density_from_pure along the last axis of v; the first failing vector raises."""
    norm = _norms(v)
    bad = _first(np.abs(norm - 1.0) <= NORM_TOL)
    if bad < norm.size:
        raise ValueError(f"state vector norm {norm.reshape(-1)[bad]:.9g} deviates from 1 by more than 1e-6")
    v = v / norm[..., None]
    return v[..., :, None] * v.conj()[..., None, :]


def _norms(v: np.ndarray) -> np.ndarray:
    """Norms along the last axis, summed as np.linalg.norm sums one vector."""
    with np.errstate(over="ignore"):  # huge entries overflow to inf, as an inf entry does
        return np.sqrt(_dots(v.real, v.real) + _dots(v.imag, v.imag))


def _purities(m: np.ndarray) -> np.ndarray:
    """tr(m^2) of Hermitian matrices over any leading axes, each summed as np.vdot."""
    f = m.reshape(*m.shape[:-2], -1)
    return _dots(f, f).real


def purity(rho) -> float:
    """tr(rho^2) for Hermitian rho, via the squared Frobenius norm."""
    return float(_purities(as_complex_matrix(rho)))


def logical_entropy(rho) -> float:
    """Logical entropy h(rho) = 1 - tr(rho^2).

    Zero exactly on pure states, at most 1 - 1/dim (the maximally mixed
    state). Input is assumed to be a valid density matrix.
    """
    return 1.0 - purity(rho)


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def _gaussian(shape, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian draw: the real parts, then the imaginary parts."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_density(dim: int, seed) -> np.ndarray:
    """Random mixed state: G G† / tr(G G†) with G complex Gaussian."""
    return _gram_densities(_gaussian((dim, dim), _rng(seed)))


def _gram_densities(g: np.ndarray) -> np.ndarray:
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian matrix with the
    R-diagonal phases folded into Q (Mezzadri, arXiv:math-ph/0609050)."""
    return _haar(_gaussian((dim, dim), _rng(seed)))


def _haar(g: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_pure_state(dim: int, seed) -> np.ndarray:
    """Random unit vector (complex Gaussian direction)."""
    return _unit(_gaussian(dim, _rng(seed)))


def _unit(v: np.ndarray) -> np.ndarray:
    return v / _norms(v)[..., None]


def _random_states(g: np.ndarray, pure: bool) -> np.ndarray:
    """States from a stack of Gaussian draws: density_from_pure(random_pure_state) if pure,
    else random_density."""
    return _pure_densities(_unit(g)) if pure else _gram_densities(g)
