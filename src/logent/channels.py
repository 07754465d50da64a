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

verify_entropy_bound reads every block weight off the Kraus stack,
W_ij = tr(A_i rho A_j rho) with A_i = E_i† E_i, and never builds the
coupled state. couple, block_decompose and off_block_bound (with
linalg.partial_trace) build it densely and stay as the independent
route the Kraus route is checked against. Unitarity and Kraus completeness
read max |A A† - I| off the block upper triangle of A A†, at half the flops.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, NORM_TOL, _require, as_complex_matrix, hermiticity_defect
from .states import _purities, validate_density

_GRAM_ROWS = 128  # rows of A per block of the Gram-defect walk


def _gram_defect(a: np.ndarray) -> float:
    """max |A A† - I| off the block upper triangle: m^2 k / 2 multiply-adds, one product per 128 rows."""
    ah, peak = a.conj().T, 0.0
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 is a NaN peak, which fails the check
        for s in range(0, len(a), _GRAM_ROWS):
            g = a[s:s + _GRAM_ROWS] @ ah[:, s:]
            g.reshape(-1)[::g.shape[1] + 1] -= 1  # g is a fresh C-ordered product: its block's diagonal
            peak = np.abs(g).max(initial=peak)  # a NaN entry or peak stays NaN; max(0.0, nan) is 0.0
    return float(peak)


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
        (dim_s*dim_e) x (dim_s*dim_e) unitary on E (x) S, environment-major; max |U U† - I|
        <= DEFAULT_TOL, read off the block upper triangle of U U† in ~n^3 / 2 multiply-adds.
    dim_s, dim_e : int
        System and environment dimensions, each an int or np.integer (not a bool).
    env_init : int
        Environment initial basis state index, default 0; an integer as the dimensions are.
    """

    unitary: np.ndarray
    dim_s: int
    dim_e: int
    env_init: int = 0

    def __post_init__(self):
        for name, v in (("dim_s", self.dim_s), ("dim_e", self.dim_e), ("env_init", self.env_init)):
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):  # np.bool_ is no np.integer
                raise ValueError(f"model {name} must be an integer, got {v!r}")
        u = as_complex_matrix(self.unitary)
        n = self.dim_s * self.dim_e
        if self.dim_s < 1 or self.dim_e < 1:
            raise ValueError(f"dimensions must be positive, got dim_s={self.dim_s} dim_e={self.dim_e}")
        if u.shape != (n, n):
            raise ValueError(f"dimension mismatch: unitary is {u.shape}, dims imply {(n, n)}")
        _require(_gram_defect(u), DEFAULT_TOL, "matrix is not unitary: U U† deviates from I by {:.3e}")
        if not 0 <= self.env_init < self.dim_e:
            raise ValueError(f"env_init {self.env_init} outside [0, {self.dim_e})")
        object.__setattr__(self, "unitary", _readonly(u))


def _isometry(model: CouplingModel) -> np.ndarray:
    """V = U (|e0> (x) I_S): the env_init block column of U."""
    ds = model.dim_s
    return model.unitary[:, model.env_init * ds:(model.env_init + 1) * ds]


def _on_system(rho: np.ndarray, model: CouplingModel) -> np.ndarray:
    """rho, after checking that it lives on the model's system side."""
    if rho.shape != (model.dim_s, model.dim_s):
        raise ValueError(f"dimension mismatch: state is {rho.shape}, model system side is {model.dim_s}")
    return rho


def couple(rho, model: CouplingModel) -> np.ndarray:
    """Joint state U (|e0><e0| (x) rho) U† = V rho V† on E (x) S."""
    rho = _on_system(as_complex_matrix(rho), model)
    v = _isometry(model)
    return v @ rho @ v.conj().T


def extract_kraus(model: CouplingModel) -> np.ndarray:
    """Kraus operators E_i = <i| U |e0> of the induced channel.

    Returns the isometry as a read-only (dim_e, dim_s, dim_s) view into
    the unitary, ops[i] = E_i. Completeness sum_i E_i† E_i = I is
    checked (it follows from unitarity, so a violation means the model
    is corrupt).
    """
    return _kraus(model)[0]


def _kraus(model: CouplingModel) -> tuple[np.ndarray, float]:
    """extract_kraus's operators and the completeness defect they were checked with."""
    ops = _isometry(model).reshape(model.dim_e, model.dim_s, model.dim_s)
    defect = _gram_defect(ops.reshape(-1, model.dim_s).conj().T)  # completeness_defect(ops), not re-coerced
    _require(defect, DEFAULT_TOL, "Kraus completeness violated: sum E†E deviates from I by {:.3e}")
    return ops, defect


def _operator_stack(ops) -> np.ndarray:
    """Coerce Kraus operators (a stack or a sequence of matrices) to (k, m, n) complex128."""
    ops = np.asarray(ops, dtype=np.complex128)
    if ops.ndim != 3 or not len(ops):
        raise ValueError(f"expected a non-empty stack of 2-D matrices, got shape {ops.shape}")
    return ops


def completeness_defect(ops) -> float:
    """Largest entrywise deviation of sum_i E_i† E_i from the identity, read off
    the block upper triangle of flat† flat (one block, k n^3, for n <= 128)."""
    flat = _operator_stack(ops)
    flat = flat.reshape(-1, flat.shape[2])  # the E_i stacked as rows: flat† flat = sum E_i† E_i
    return _gram_defect(flat.conj().T)


def apply_channel(rho, ops) -> np.ndarray:
    """sum_i E_i rho E_i†. Trace-preserving when ops are complete."""
    rho = as_complex_matrix(rho)
    ops = _operator_stack(ops)
    if ops.shape[2] != rho.shape[0]:
        raise ValueError(f"dimension mismatch: operator {ops.shape[1:]} against state {rho.shape}")
    return _channel(rho, ops)


def _channel(rho: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """apply_channel over stacks: rho (..., n, n) and ops (..., k, m, n)."""
    return (ops @ rho[..., None, :, :] @ ops.conj().swapaxes(-1, -2)).sum(axis=-3)


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
    _require(hermiticity_defect(joint), tol, "joint state not Hermitian: defect {:.3e}")
    _require(abs(complex(np.trace(joint)) - 1.0), tol, "joint state trace deviates from 1 by {:.3e}")
    return joint.reshape(dim_e, dim_s, dim_e, dim_s).swapaxes(1, 2)


def _block_weights(rho: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """W_ij = tr(A_i rho A_j rho) with A_i = E_i† E_i, as a complex matrix.

    For Hermitian rho, W_ij = ||E_i rho E_j†||_F^2: the Frobenius weight
    of block (i, j) of the coupled state for Kraus operators, and of
    P_i rho P_j for projectors. With X_i = A_i rho, W_ij = tr(X_i X_j) is
    one product of the flattened stack with its flattened transpose.
    Works over stacks: rho (..., n, n) and ops (..., k, n, n).
    """
    x = ops.conj().swapaxes(-1, -2) @ ops @ rho[..., None, :, :]
    rows = x.shape[:-2]
    return x.reshape(*rows, -1) @ x.swapaxes(-1, -2).reshape(*rows, -1).swapaxes(-1, -2)


def off_block_bound(blocks: np.ndarray) -> float:
    """Total Frobenius weight of the off-diagonal blocks,
    sum_{i != j} tr(B_ij B_ij†)."""
    w = np.einsum("ijab,ijab->ij", blocks, blocks.conj()).real
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
    """Push rho through the model's channel and compare output entropy
    with the off-block bound.

    The inequality h(out) <= bound is guaranteed for pure rho. Mixed
    inputs are processed all the same, with hypothesis_pure=False in the
    report; their slack may legitimately be negative. The output comes
    from the Kraus operators, and the bound and the projected entropy are
    separate sums of one block-weight matrix W: the off-diagonal sum and
    1 - tr W. Each is computed once, by the kernels the stacked campaigns run.
    """
    rho = _on_system(validate_density(rho, tol=tol), model)
    ops = extract_kraus(model)
    w = _block_weights(rho, ops)
    bound = float(w[~np.eye(model.dim_e, dtype=bool)].sum().real)
    entropy = 1.0 - float(_purities(_channel(rho, ops)))
    projected = 1.0 - float(w.trace().real)
    return BoundReport(
        entropy=entropy,
        bound=bound,
        slack=bound - entropy,
        projected_entropy=projected,
        hypothesis_pure=float(_purities(rho)) >= 1.0 - tol,
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
    with np.errstate(over="ignore"):  # huge entries overflow to inf, as an inf entry does
        norm = float(np.linalg.norm(w))
    _require(abs(norm - 1.0), NORM_TOL,
             "environment state norm {1:.9g} deviates from 1 by more than 1e-6", norm)
    w = w / norm
    # Complete w to an orthonormal basis, phase-fixed so column 0 is w itself,
    # then swap that column into position env_init.
    q, r = np.linalg.qr(w.reshape(-1, 1), mode="complete")
    q = np.asarray(q, dtype=np.complex128)
    q[:, 0] *= r[0, 0] / abs(r[0, 0])
    perm = list(range(model.dim_e))
    perm[0], perm[model.env_init] = perm[model.env_init], perm[0]
    u = model.unitary.reshape(-1, model.dim_e, model.dim_s)  # U (W (x) I_S) in O(n^2 dim_e)
    u2 = (u.swapaxes(1, 2) @ q[:, perm]).swapaxes(1, 2).reshape(model.unitary.shape)
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

    rho is purified against a reference R of dimension dim_r = rank(rho),
    the number of eigenvalues above tol, and the model acts on the S side
    of |RS>. The coupled state on E (x) R (x) S is pure, so R (x) S shares
    its entropy with E (Schumacher, PRA 54, 2614 (1996)), and everything
    follows from the environment's dim_e x dim_e state

        W_ij = tr(E_i rho E_j†):

    the exchange entropy is 1 - ||W||_F^2, and since every block
    (I_R (x) E_i)|RS><RS|(I_R (x) E_j)† has rank one, the off-block bound
    is sum_{i != j} W_ii W_jj. The purification is never built.
    """
    rho = _on_system(validate_density(rho, tol=tol), model)
    ops = extract_kraus(model)
    w = (ops @ rho).reshape(model.dim_e, -1) @ ops.reshape(model.dim_e, -1).conj().T
    _require(abs(complex(np.trace(w)) - 1.0), tol, "environment state trace deviates from 1 by {:.3e}")
    p = w.diagonal().real
    bound = float(np.outer(p, p)[~np.eye(model.dim_e, dtype=bool)].sum())
    entropy = 1.0 - float(np.vdot(w, w).real)
    return ExchangeReport(exchange_entropy=entropy, bound=bound, slack=bound - entropy,
                          dim_r=int(np.count_nonzero(np.linalg.eigvalsh(rho) > tol)))
