"""Noise channels from system-environment couplings, and the off-block
entropy bound.

A noise process is modeled as a unitary U acting jointly on the system S
and an environment E prepared in a basis state |e0>. The joint space is
ordered environment-major (joint index = e * dim_s + s), so only the e0
block column of U reaches |e0> (x) rho: the isometry V = U (|e0> (x) I_S),
whose dim_s x dim_s slices are the Kraus operators E_i = <i| U |e0>. A
channel is read only as such a stack: each consumer takes a CouplingModel
or any complete Kraus stack (the channel of some coupling, by Stinespring),
and env_kraus gives the stack E_i = sum_j w_j <i| U |j> of an environment
prepared in any pure |w>. The coupled state V rho V† is read as one
(dim_e, dim_e, dim_s, dim_s) view of its blocks

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
coupled state; the amplitude-damping closed forms pin this route. couple,
block_decompose and off_block_bound (with linalg.partial_trace) build it
densely and are only the test oracle for it. Unitarity and Kraus completeness
read max |A A† - I| off the block upper triangle of A A†, at half the flops.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, NORM_TOL, _hermiticity_defects, _on_space, _require, as_complex_matrix
from .states import _norms, _purities, validate_density

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
        _on_space(u, self.dim_s * self.dim_e, "joint space", "unitary", dim_s=self.dim_s, dim_e=self.dim_e)
        _require(_gram_defect(u), DEFAULT_TOL, "matrix is not unitary: U U† deviates from I by {:.3e}")
        if not 0 <= self.env_init < self.dim_e:
            raise ValueError(f"env_init {self.env_init} outside [0, {self.dim_e})")
        u = np.array(u)  # a private copy, frozen
        u.setflags(write=False)
        object.__setattr__(self, "unitary", u)


def _kraus_stack(u: np.ndarray, ds: int, env_init: int = 0) -> np.ndarray:
    """E_i = <i| U |e0> as (..., dim_e, ds, ds) views of unitaries u (..., n, n): the env_init block column."""
    return u[..., env_init * ds:(env_init + 1) * ds].reshape(*u.shape[:-2], -1, ds, ds)


def couple(rho, model) -> np.ndarray:
    """Joint state V rho V† on E (x) S, V the stacked E_i of a model (V = U (|e0> (x) I_S)) or a Kraus stack."""
    rho, ops = as_complex_matrix(rho), extract_kraus(model)
    v = ops.reshape(-1, ops.shape[2])
    return v @ _on_space(rho, ops.shape[2], "model system side") @ v.conj().T


def extract_kraus(model) -> np.ndarray:
    """Kraus operators E_i = <i| U |e0> of the induced channel, ops[i] = E_i.

    For a CouplingModel, a read-only (dim_e, dim_s, dim_s) view into its
    unitary; any other model is a Kraus stack in a form apply_channel
    takes, returned as a (k, m, n) complex array. Completeness
    sum_i E_i† E_i = I is checked (a model has it by unitarity, so a
    violation means the model is corrupt).
    """
    return _kraus(model)[0]


def _kraus(model) -> tuple[np.ndarray, float]:
    """extract_kraus's operators and the completeness defect they were checked with."""
    is_model = isinstance(model, CouplingModel)
    ops = _kraus_stack(model.unitary, model.dim_s, model.env_init) if is_model else _operator_stack(model)
    defect = completeness_defect(ops)
    _require(defect, DEFAULT_TOL, "Kraus completeness violated: sum E†E deviates from I by {:.3e}")
    return ops, defect


def _operator_stack(ops) -> np.ndarray:
    """Coerce Kraus operators (a stack or a sequence of equally shaped matrices) to (k, m, n) complex128."""
    shapes = []
    for i, e in enumerate(ops if isinstance(ops, (list, tuple)) else ()):
        try:
            shapes.append(np.shape(e))
        except ValueError:  # numpy's error for nested rows of unequal length
            raise ValueError(f"operator {i} is not a matrix: its rows differ in length") from None
        if shapes[i] != shapes[0]:
            raise ValueError(f"operator {i} has shape {shapes[i]}, expected {shapes[0]}")
    ops = np.asarray(ops, dtype=np.complex128)
    if ops.ndim != 3 or 0 in ops.shape:
        raise ValueError(f"expected a non-empty stack of 2-D matrices, got shape {ops.shape}")
    return ops


def completeness_defect(ops) -> float:
    """Largest entrywise deviation of sum_i E_i† E_i from the identity, read off
    the block upper triangle of flat† flat (one block, k n^3, for n <= 128)."""
    flat = _operator_stack(ops)
    flat = flat.reshape(-1, flat.shape[2])  # the E_i stacked as rows: flat† flat = sum E_i† E_i
    return _gram_defect(flat.conj().T)


def apply_channel(rho, ops) -> np.ndarray:
    """sum_i E_i rho E_i†, rho n x n for operators of input side n; trace-preserving only when
    ops are complete, which extract_kraus and completeness_defect check and this does not."""
    rho = as_complex_matrix(rho)
    ops = _operator_stack(ops)
    return _channel(_on_space(rho, ops.shape[2], "operator input side"), ops)


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
    joint = _on_space(as_complex_matrix(joint), dim_s * dim_e, "joint space", "joint state", dim_s=dim_s, dim_e=dim_e)
    _require(_hermiticity_defects(joint), tol, "joint state not Hermitian: defect {:.3e}")
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


def _env_state(rho: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """W_ij = tr(E_i rho E_j†), the environment's state, over stacks: rho (..., n, n) and ops (..., k, m, n)."""
    flat = ops.reshape(*ops.shape[:-2], -1)
    return (ops @ rho[..., None, :, :]).reshape(flat.shape) @ flat.conj().swapaxes(-1, -2)


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


def verify_entropy_bound(rho, model, tol: float = DEFAULT_TOL) -> BoundReport:
    """Push rho through the channel of model (a CouplingModel or a complete
    Kraus stack) and compare output entropy with the off-block bound.

    The inequality h(out) <= bound is guaranteed for pure rho. Mixed
    inputs are processed all the same, with hypothesis_pure=False in the
    report; their slack may legitimately be negative. The output comes
    from the Kraus operators, and the bound and the projected entropy are
    separate sums of one block-weight matrix W: the off-diagonal sum and
    1 - tr W. Each is computed once, by the kernels the stacked campaigns run.
    """
    rho, ops = validate_density(rho, tol=tol), extract_kraus(model)
    return _bound_report(_on_space(rho, ops.shape[2], "model system side"), ops, tol)[0]


def _bound_report(rho: np.ndarray, ops: np.ndarray, tol: float) -> tuple[BoundReport, np.ndarray]:
    """verify_entropy_bound of a checked state and Kraus stack, with the block-weight matrix W it read."""
    w = _block_weights(rho, ops)
    bound = float(w[~np.eye(len(ops), dtype=bool)].sum().real)
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
    ), w


def _theorem_holds(r: BoundReport, tol: float) -> bool:
    """The proof steps at tol: entropy <= projected always; slack >= -tol and projected == bound for pure input."""
    return r.entropy_le_projected and (not r.hypothesis_pure or r.slack >= -tol and r.projected_equals_bound)


def env_kraus(model: CouplingModel, env_state) -> np.ndarray:
    """The (dim_e, dim_s, dim_s) Kraus stack E_i = sum_j w_j <i| U |j> of the model's environment prepared in |w>."""
    ds, de = model.dim_s, model.dim_e
    w = np.asarray(env_state, dtype=np.complex128).reshape(-1)
    if w.shape[0] != de:
        raise ValueError(f"dimension mismatch: env state has {w.shape[0]} entries, dim_e={de}")
    norm = float(_norms(w))
    _require(abs(norm - 1.0), NORM_TOL,
             "environment state norm {1:.9g} deviates from 1 by more than 1e-6", norm)
    return np.einsum("iajb,j->iab", model.unitary.reshape(de, ds, de, ds), w / norm)


@dataclass(frozen=True)
class ExchangeReport:
    """Exchange entropy of (rho, model) and the off-block bound that caps it."""

    exchange_entropy: float
    bound: float
    slack: float
    dim_r: int


def exchange_entropy(rho, model, tol: float = DEFAULT_TOL) -> ExchangeReport:
    """Entropy the environment gains, measured through a reference system.

    rho is purified against a reference R of dimension dim_r = rank(rho),
    the number of eigenvalues above tol, and the model (a CouplingModel or a
    complete Kraus stack) acts on the S side of |RS>. The coupled state on
    E (x) R (x) S is pure, so R (x) S shares its entropy with E (Schumacher,
    PRA 54, 2614 (1996)), and all follows from the environment's dim_e x dim_e state

        W_ij = tr(E_i rho E_j†):

    the exchange entropy is 1 - ||W||_F^2, and since every block
    (I_R (x) E_i)|RS><RS|(I_R (x) E_j)† has rank one, the off-block bound
    is sum_{i != j} W_ii W_jj. The purification is never built.
    """
    rho, ops = validate_density(rho, tol=tol), extract_kraus(model)
    w = _env_state(_on_space(rho, ops.shape[2], "model system side"), ops)
    _require(abs(complex(np.trace(w)) - 1.0), tol, "environment state trace deviates from 1 by {:.3e}")
    p = w.diagonal().real
    bound = float(np.outer(p, p)[~np.eye(len(ops), dtype=bool)].sum())
    entropy = 1.0 - float(np.vdot(w, w).real)
    return ExchangeReport(exchange_entropy=entropy, bound=bound, slack=bound - entropy,
                          dim_r=int(np.count_nonzero(np.linalg.eigvalsh(rho) > tol)))
