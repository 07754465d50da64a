"""Noise channels from system-environment couplings, and the off-block
entropy bound.

A noise process is modeled as a unitary U acting jointly on the system S
and an environment E prepared in a basis state |e0>. The joint space is
ordered environment-major (joint index = e * dim_s + s), so only the e0
block column of U reaches |e0> (x) rho: the isometry V = U (|e0> (x) I_S),
whose dim_s x dim_s slices are the Kraus operators E_i = <i| U |e0>. The
coupled state V rho V† is read as one (dim_e, dim_e, dim_s, dim_s) view
of its blocks

    B[i, j] = E_i rho E_j†.

The central inequality: for *pure* input rho, the logical entropy of the
noisy output tr_E(...) is at most the total Frobenius weight of the
off-diagonal blocks,

    h(rho_out) <= sum_{i != j} tr(B[i, j] B[i, j]†).

Equality analysis splits into two steps, both reported by
verify_entropy_bound: projecting the coupled state onto its diagonal
blocks yields entropy 1 - sum_i tr(B[i, i]^2), exactly equal to the bound
for pure input, and the traced output never exceeds the projected entropy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, as_complex_matrix, hermiticity_defect, partial_trace
from .states import logical_entropy, purity, validate_density


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.complex128)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class CouplingModel:
    """A system-environment coupling: joint unitary plus dimension split.

    Parameters
    ----------
    unitary : ndarray
        (dim_s*dim_e) x (dim_s*dim_e) unitary on E (x) S, environment-major.
    dim_s, dim_e : int
        System and environment dimensions.
    env_init : int
        Environment initial basis state index, default 0.
    """

    unitary: np.ndarray
    dim_s: int
    dim_e: int
    env_init: int = 0

    def __post_init__(self):
        u = as_complex_matrix(self.unitary)
        n = self.dim_s * self.dim_e
        if self.dim_s < 1 or self.dim_e < 1:
            raise ValueError(f"dimensions must be positive, got dim_s={self.dim_s} dim_e={self.dim_e}")
        if u.shape != (n, n):
            raise ValueError(f"dimension mismatch: unitary is {u.shape}, dims imply {(n, n)}")
        defect = float(np.max(np.abs(u @ u.conj().T - np.eye(n))))
        if not defect <= DEFAULT_TOL:
            raise ValueError(f"matrix is not unitary: U U† deviates from I by {defect:.3e}")
        if not 0 <= self.env_init < self.dim_e:
            raise ValueError(f"env_init {self.env_init} outside [0, {self.dim_e})")
        object.__setattr__(self, "unitary", _readonly(u))


def _isometry(model: CouplingModel) -> np.ndarray:
    """V = U (|e0> (x) I_S): the env_init block column of U."""
    ds = model.dim_s
    return model.unitary[:, model.env_init * ds:(model.env_init + 1) * ds]


def couple(rho, model: CouplingModel) -> np.ndarray:
    """Joint state U (|e0><e0| (x) rho) U† = V rho V† on E (x) S."""
    rho = as_complex_matrix(rho)
    if rho.shape != (model.dim_s, model.dim_s):
        raise ValueError(f"dimension mismatch: state is {rho.shape}, model system side is {model.dim_s}")
    v = _isometry(model)
    return v @ rho @ v.conj().T


def extract_kraus(model: CouplingModel) -> list[np.ndarray]:
    """Kraus operators E_i = <i| U |e0> of the induced channel.

    E_i is the dim_s x dim_s slice of the isometry at block row i, a
    read-only view into the unitary. Completeness sum_i E_i† E_i = I is
    checked (it follows from unitarity, so a violation means the model
    is corrupt).
    """
    ops = list(_isometry(model).reshape(model.dim_e, model.dim_s, model.dim_s))
    defect = completeness_defect(ops)
    if defect > DEFAULT_TOL:
        raise ValueError(f"Kraus completeness violated: sum E†E deviates from I by {defect:.3e}")
    return ops


def completeness_defect(ops) -> float:
    """Largest entrywise deviation of sum_i E_i† E_i from the identity."""
    ops = [as_complex_matrix(e) for e in ops]
    if not ops:
        raise ValueError("empty operator list")
    acc = sum(e.conj().T @ e for e in ops)
    return float(np.max(np.abs(acc - np.eye(ops[0].shape[1]))))


def apply_channel(rho, ops) -> np.ndarray:
    """sum_i E_i rho E_i†. Trace-preserving when ops are complete."""
    rho = as_complex_matrix(rho)
    out = np.zeros_like(rho)
    for e in ops:
        e = as_complex_matrix(e)
        if e.shape[1] != rho.shape[0]:
            raise ValueError(f"dimension mismatch: operator {e.shape} against state {rho.shape}")
        out += e @ rho @ e.conj().T
    return out


def block_decompose(joint, dim_s: int, dim_e: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """View a joint density matrix as its environment-indexed blocks.

    Returns a (dim_e, dim_e, dim_s, dim_s) view of joint with
    blocks[i, j] = B_ij. The source must look like a density matrix
    (Hermitian within tol, unit trace within tol); blocks[j, i] is then
    the dagger of blocks[i, j].
    """
    joint = as_complex_matrix(joint)
    n = dim_s * dim_e
    if joint.shape != (n, n):
        raise ValueError(f"dimension mismatch: expected {(n, n)}, got {joint.shape}")
    defect = hermiticity_defect(joint)
    if not defect <= tol:
        raise ValueError(f"joint state not Hermitian: defect {defect:.3e}")
    tr_dev = abs(complex(np.trace(joint)) - 1.0)
    if not tr_dev <= tol:
        raise ValueError(f"joint state trace deviates from 1 by {tr_dev:.3e}")
    return joint.reshape(dim_e, dim_s, dim_e, dim_s).swapaxes(1, 2)


def _block_weights(blocks: np.ndarray) -> np.ndarray:
    """W_ij = ||B_ij||_F^2, the Frobenius weight of every block."""
    return np.einsum("ijab,ijab->ij", blocks, blocks.conj()).real


def off_block_bound(blocks: np.ndarray) -> float:
    """Total Frobenius weight of the off-diagonal blocks,
    sum_{i != j} tr(B_ij B_ij†)."""
    w = _block_weights(blocks)
    return float(w[~np.eye(len(w), dtype=bool)].sum())


@dataclass(frozen=True)
class BoundReport:
    """Everything verify_entropy_bound measures about one (state, model) pair.

    slack = bound - entropy; >= 0 is the inequality. The two proof-step
    fields record whether the diagonal-block projection has entropy equal
    to the bound (true exactly when the coupled state is pure) and whether
    the traced output's entropy stays below the projection's (always).
    """

    entropy: float
    bound: float
    slack: float
    projected_entropy: float
    hypothesis_pure: bool
    projected_equals_bound: bool
    entropy_le_projected: bool


def verify_entropy_bound(rho, model: CouplingModel, tol: float = DEFAULT_TOL) -> BoundReport:
    """Couple rho to the environment and compare output entropy with the
    off-block bound.

    The inequality h(out) <= bound is guaranteed for pure rho. Mixed
    inputs are processed all the same, with hypothesis_pure=False in the
    report; their slack may legitimately be negative.
    """
    rho = validate_density(rho, tol=tol)
    return _bound_report(rho, couple(rho, model), model.dim_s, model.dim_e, tol)


def _bound_report(rho, joint, dim_s: int, dim_e: int, tol: float) -> BoundReport:
    """BoundReport of validated rho and its coupled state; the bound and the
    projected entropy are separate sums over one block-weight matrix."""
    out = partial_trace(joint, dim_e, dim_s, keep="b")
    w = _block_weights(block_decompose(joint, dim_s, dim_e, tol=tol))
    bound = float(w[~np.eye(dim_e, dtype=bool)].sum())
    entropy = logical_entropy(out)
    projected = 1.0 - float(np.trace(w))
    return BoundReport(
        entropy=entropy,
        bound=bound,
        slack=bound - entropy,
        projected_entropy=projected,
        hypothesis_pure=purity(rho) >= 1.0 - tol,
        projected_equals_bound=abs(projected - bound) <= tol,
        entropy_le_projected=entropy <= projected + tol,
    )


def rotate_env_init(model: CouplingModel, env_state) -> CouplingModel:
    """Fold a pure environment preparation |w> into the unitary.

    Returns a model with U' = U (W (x) I_S) where W maps |env_init> to
    |w>; coupling with the new model is coupling the old one to |w>.
    """
    w = np.asarray(env_state, dtype=np.complex128).reshape(-1)
    if w.shape[0] != model.dim_e:
        raise ValueError(f"dimension mismatch: env state has {w.shape[0]} entries, dim_e={model.dim_e}")
    norm = float(np.linalg.norm(w))
    if not abs(norm - 1.0) <= 1e-6:
        raise ValueError(f"environment state norm {norm:.9g} deviates from 1 by more than 1e-6")
    w = w / norm
    # Complete w to an orthonormal basis, phase-fixed so column 0 is w itself,
    # then swap that column into position env_init.
    q, r = np.linalg.qr(w.reshape(-1, 1), mode="complete")
    q = np.asarray(q, dtype=np.complex128)
    q[:, 0] *= r[0, 0] / abs(r[0, 0])
    perm = list(range(model.dim_e))
    perm[0], perm[model.env_init] = perm[model.env_init], perm[0]
    w_full = q[:, perm]
    u2 = model.unitary @ np.kron(w_full, np.eye(model.dim_s))
    return CouplingModel(u2, dim_s=model.dim_s, dim_e=model.dim_e, env_init=model.env_init)


@dataclass(frozen=True)
class ExchangeReport:
    """Exchange entropy of (rho, model) and the off-block bound that caps it."""

    exchange_entropy: float
    bound: float
    slack: float
    dim_r: int


def exchange_entropy(rho, model: CouplingModel, tol: float = DEFAULT_TOL) -> ExchangeReport:
    """Entropy the environment gains, measured through a reference system.

    rho is purified against a reference R of dimension rank(rho), the
    number of eigenvalues above tol (the rest are dropped); the
    coupling acts on the S side of the pure state |RS>, and the reported
    entropy is that of the surviving R (x) S state after tracing out E.
    Because |RS> is pure, the off-block bound applies unconditionally.

    The model may act either on R (x) S directly (dim_s == dim_r * d) or
    on S alone (dim_s == d), in which case its Kraus operators are
    lifted to I_R (x) E_i (Schumacher, PRA 54, 2614 (1996)). Anything
    else is a dimension error.
    """
    rho = validate_density(rho, tol=tol)
    d = rho.shape[0]
    evals, evecs = np.linalg.eigh(rho)
    keep = evals > tol
    lam = evals[keep] / np.sum(evals[keep])  # renormalized so |RS> keeps unit norm
    vecs = evecs[:, keep]
    dim_r = int(lam.shape[0])
    # |RS> = sum_k sqrt(lam_k) |k>_R |v_k>_S, reference index slowest.
    psi = (np.sqrt(lam)[None, :] * vecs).T.reshape(-1)
    rho_rs = validate_density(np.outer(psi, psi.conj()), tol=tol)

    if model.dim_s not in (d, dim_r * d):
        raise ValueError(
            f"dimension mismatch: model system side {model.dim_s} matches neither "
            f"dim_r*dim_s={dim_r * d} nor dim_s={d}")
    ops = np.stack(extract_kraus(model))
    if model.dim_s != dim_r * d:
        ops = np.einsum("rq,iab->iraqb", np.eye(dim_r), ops)
    v = ops.reshape(-1, dim_r * d)
    report = _bound_report(rho_rs, v @ rho_rs @ v.conj().T, dim_r * d, model.dim_e, tol)
    return ExchangeReport(
        exchange_entropy=report.entropy,
        bound=report.bound,
        slack=report.slack,
        dim_r=dim_r,
    )
