"""Density matrices, their logical entropy, and seeded random generators.

The logical entropy of a state is h(rho) = 1 - tr(rho^2). For Hermitian
rho the purity tr(rho^2) equals the squared Frobenius norm, so h is
computed entrywise without an eigensolver; the eigenvalue route
1 - sum(lambda_i^2) exists only as a cross-check in the test suite.
"""
from __future__ import annotations

import numpy as np

from .linalg import DEFAULT_TOL, as_complex_matrix, hermiticity_defect


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
    if m.shape[0] != m.shape[1]:
        raise DensityValidationError(f"density matrix must be square, got {m.shape}", 0.0)
    defect = hermiticity_defect(m)
    if not defect <= tol:
        raise NonHermitianError(f"not Hermitian: defect {defect:.3e} exceeds tol {tol:.3e}", defect)
    tr = complex(np.trace(m))
    dev = abs(tr - 1.0)
    if not dev <= tol:
        raise TraceError(f"trace {tr:.12g} deviates from 1 by {dev:.3e} (tol {tol:.3e})", dev)
    lo = float(np.linalg.eigvalsh(m)[0])
    if not lo >= -tol:
        raise NonPositiveError(f"not positive semidefinite: min eigenvalue {lo:.3e} below -{tol:.3e}", -lo)
    return m


def density_from_pure(psi) -> np.ndarray:
    """Outer product |psi><psi| of a state vector.

    Norm deviations up to 1e-6 are silently renormalized; anything
    larger is rejected as not a state vector.
    """
    v = np.asarray(psi, dtype=np.complex128).reshape(-1)
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= 1e-6:
        raise ValueError(f"state vector norm {norm:.9g} deviates from 1 by more than 1e-6")
    v = v / norm
    return np.outer(v, v.conj())


def purity(rho) -> float:
    """tr(rho^2) for Hermitian rho, via the squared Frobenius norm."""
    rho = as_complex_matrix(rho)
    return float(np.vdot(rho, rho).real)


def logical_entropy(rho) -> float:
    """Logical entropy h(rho) = 1 - tr(rho^2).

    Zero exactly on pure states, at most 1 - 1/dim (the maximally mixed
    state). Input is assumed to be a valid density matrix.
    """
    return 1.0 - purity(rho)


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def random_density(dim: int, seed) -> np.ndarray:
    """Random mixed state: G G† / tr(G G†) with G complex Gaussian."""
    rng = _rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian matrix with the
    R-diagonal phases folded into Q."""
    rng = _rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_pure_state(dim: int, seed) -> np.ndarray:
    """Random unit vector (complex Gaussian direction)."""
    rng = _rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)
