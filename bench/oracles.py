"""Plain-numpy reference values and input writers for the benchmark.

Nothing here imports logent: every number the correctness gate compares
against is computed independently of the library, outside the timed
interval.

Joint spaces are environment-major (joint index = e * dim_s + s), so the
Kraus operator E_i of a coupling unitary U with the environment starting
in |0> is the dim_s x dim_s block of U at block row i, block column 0.
"""
from __future__ import annotations

import json

import numpy as np


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian, R phases folded in."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def pure_state(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def mixed_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank Ginibre state G G† / tr(G G†)."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def kraus(u: np.ndarray, dim_s: int, dim_e: int) -> np.ndarray:
    """Stack of the dim_e Kraus operators E_i = <i| U |0>, shape (dim_e, dim_s, dim_s)."""
    return u[:, :dim_s].reshape(dim_e, dim_s, dim_s)


def purity(rho: np.ndarray) -> float:
    return float(np.sum(np.abs(rho) ** 2))


def gram_pure(u: np.ndarray, psi: np.ndarray, dim_s: int, dim_e: int) -> dict:
    """Output entropy and off-block bound of a pure input via the Gram matrix.

    With phi_i = E_i psi and G_ij = <phi_i|phi_j>: entropy = 1 - ||G||_F^2
    and bound = 1 - sum_i G_ii^2.
    """
    phi = kraus(u, dim_s, dim_e) @ psi
    g = phi.conj() @ phi.T
    return _from_env_matrix(g)


def env_matrix(ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """W_ij = tr(E_i rho E_j†)."""
    return np.einsum("iab,bc,jac->ij", ops, rho, ops.conj())


def exchange(u: np.ndarray, rho: np.ndarray, dim_s: int, dim_e: int) -> dict:
    """Exchange entropy 1 - ||W||_F^2 and its bound 1 - sum_i W_ii^2."""
    return _from_env_matrix(env_matrix(kraus(u, dim_s, dim_e), rho))


def _from_env_matrix(w: np.ndarray) -> dict:
    entropy = 1.0 - float(np.sum(np.abs(w) ** 2))
    bound = 1.0 - float(np.sum(np.abs(np.diagonal(w)) ** 2))
    return {"entropy": entropy, "bound": bound, "slack": bound - entropy}


def apply_channel(ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return np.einsum("iab,bc,idc->ad", ops, rho, ops.conj())


def off_block_bound(ops: np.ndarray, rho: np.ndarray) -> float:
    """sum_{i != j} ||E_i rho E_j†||_F^2, the definition of the bound."""
    blocks = np.einsum("iab,bc,jdc->ijad", ops, rho, ops.conj())
    weights = np.sum(np.abs(blocks) ** 2, axis=(2, 3))
    return float(np.sum(weights) - np.trace(weights))


def damping_kraus(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[[1.0, 0.0], [0.0, c]], [[0.0, s], [0.0, 0.0]]], dtype=np.complex128)


def sweep_rows(rho: np.ndarray, steps: int) -> np.ndarray:
    """(theta, entropy, bound, closed-form entropy, closed-form bound, slack)
    per decay angle on linspace(0, pi, steps), all from the Kraus pair."""
    rows = []
    for theta in np.linspace(0.0, np.pi, steps):
        ops = damping_kraus(float(theta))
        entropy = 1.0 - purity(apply_channel(ops, rho))
        bound = off_block_bound(ops, rho)
        rows.append([theta, entropy, bound, entropy, bound, bound - entropy])
    return np.array(rows)


def partition_labels(blocks, n: int) -> np.ndarray:
    labels = np.empty(n, dtype=int)
    for k, blk in enumerate(blocks):
        labels[blk] = k
    return labels


def random_partition(n: int, rng: np.random.Generator) -> list[list[int]]:
    k = int(rng.integers(1, n + 1))
    labels = rng.integers(0, k, size=n)
    return [b for b in ([int(i) for i in np.nonzero(labels == c)[0]] for c in range(k)) if b]


def prop1(rho: np.ndarray, blocks) -> dict:
    labels = partition_labels(blocks, rho.shape[0])
    off = labels[:, None] != labels[None, :]
    mass = float(np.sum(np.abs(rho[off]) ** 2))
    pur = purity(rho)
    return {"purity": pur, "projected_purity": pur - mass, "off_block_mass": mass}


def prop2(weights: np.ndarray, states: list[np.ndarray]) -> dict:
    mixture = sum(p * s for p, s in zip(weights, states))
    h_w = 1.0 - float(np.sum(weights ** 2))
    bound = h_w + sum(p * p * (1.0 - purity(s)) for p, s in zip(weights, states))
    entropy = 1.0 - purity(mixture)
    overlaps = [abs(np.vdot(states[j], states[i])) for i in range(len(states))
                for j in range(i + 1, len(states))]
    return {"mixture_entropy": entropy, "bound": bound, "slack": bound - entropy,
            "weight_entropy": h_w, "orthogonal_support": all(o < 1e-10 for o in overlaps)}


def bridge(probs: np.ndarray, blocks) -> dict:
    q = np.array([probs[b].sum() for b in blocks])
    h = 1.0 - float(np.sum(q * q))
    return {"partition_entropy": h, "post_measurement_entropy": h, "difference": 0.0,
            "agree": True}


def matrix_json(m: np.ndarray) -> str:
    """The library's JSON matrix format, row-major [re, im] pairs, as text.

    Built one row at a time, so writing a large model does not hold the
    whole matrix as Python lists and the set-up stays out of peak RSS.
    """
    m = np.asarray(m, dtype=np.complex128)
    rows = ",".join(json.dumps(np.stack([r.real, r.imag], axis=1).tolist())[1:-1] for r in m)
    return f'{{"rows": {m.shape[0]}, "cols": {m.shape[1]}, "data": [{rows}]}}'


def wire_matrix(obj: dict) -> np.ndarray:
    pairs = np.asarray(obj["data"], dtype=float).reshape(obj["rows"], obj["cols"], 2)
    return pairs[..., 0] + 1j * pairs[..., 1]


def mismatches(got: dict, want: dict, tol: float) -> list[str]:
    """Keys of want whose value in got is missing or off by more than tol."""
    bad = []
    for key, ref in want.items():
        val = got.get(key)
        if isinstance(ref, bool):
            ok = val is ref
        else:
            ok = (isinstance(val, (int, float)) and not isinstance(val, bool)
                  and abs(val - ref) <= tol)
        if not ok:
            bad.append(f"{key}: got {val!r}, want {ref!r}")
    return bad
