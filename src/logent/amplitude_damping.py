"""Amplitude damping as a one-qubit system coupled to a one-qubit
environment, with closed-form expressions to pin the numerics down.

The coupling unitary, environment-major on E (x) S with E starting in
|0>, rotates |0>_E|1>_S toward |1>_E|0>_S by an angle theta:

    U = [[1, 0,         0, 0],
         [0, cos(theta), 0, -sin(theta)],
         [0, sin(theta), 0,  cos(theta)],
         [0, 0,         1, 0]]

Its Kraus pair is E_0 = [[1, 0], [0, cos(theta)]] and
E_1 = [[0, sin(theta)], [0, 0]]: with probability sin^2(theta) the
excitation decays into the environment.

For an input density [[a, b], [conj(b), c]] everything of interest has a
closed form in (a, b, c, theta):

    off-block bound   2|b|^2 sin^2 + 2 cos^2 sin^2 c^2
    output purity     a^2 + sin^4 c^2 + 2ac sin^2 + 2|b|^2 cos^2 + cos^4 c^2
    projected blocks  tr(B00^2) = a^2 + 2|b|^2 cos^2 + cos^4 c^2,
                      tr(B11^2) = sin^4 c^2

The private _closed_forms is their one owner: it checks the state once
and evaluates every expression above, and the closed_form_* functions
read it. verify_closed_forms calls it once and recomputes all of them
numerically through the generic channel machinery, which stays the
independent oracle; for pure input the bound inequality and the
projected-entropy equality must hold on top of the always-valid purity
identity.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin

import numpy as np

from .channels import (CouplingModel, apply_channel, block_decompose, couple,
                       extract_kraus, off_block_bound)
from .linalg import DEFAULT_TOL, IDENTITY_TOL, ROUNDING_TOL, _require
from .states import logical_entropy, purity, validate_density


def coupling_model(theta: float) -> CouplingModel:
    """The damping coupling at decay angle theta."""
    ct, st = cos(theta), sin(theta)
    u = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, ct, 0.0, -st],
        [0.0, st, 0.0, ct],
        [0.0, 0.0, 1.0, 0.0],
    ], dtype=np.complex128)
    return CouplingModel(u, dim_s=2, dim_e=2, env_init=0)


def _closed_forms(a: float, b: complex, c: float, theta: float) -> tuple[np.ndarray, float, float, tuple]:
    """The one closed-form evaluation: the checked state [[a, b], [conj(b), c]], the off-block
    bound, the output purity and the two block purities, each as the module docstring writes it."""
    rho = validate_density(np.array([[a, b], [np.conj(b), c]], dtype=np.complex128))
    st2 = sin(theta) ** 2
    ct2 = cos(theta) ** 2
    b2 = abs(b) ** 2
    bound = 2.0 * b2 * st2 + 2.0 * ct2 * st2 * c ** 2
    out_purity = a ** 2 + st2 ** 2 * c ** 2 + 2.0 * a * c * st2 + 2.0 * b2 * ct2 + ct2 ** 2 * c ** 2
    return rho, bound, out_purity, (a ** 2 + 2.0 * b2 * ct2 + ct2 ** 2 * c ** 2, st2 ** 2 * c ** 2)


def closed_form_bound(a: float, b: complex, c: float, theta: float) -> float:
    """Off-block bound of the damped output, in closed form."""
    return _closed_forms(a, b, c, theta)[1]


def closed_form_purity(a: float, b: complex, c: float, theta: float) -> float:
    """tr(rho_out^2) of the damped output, in closed form."""
    return _closed_forms(a, b, c, theta)[2]


def closed_form_block_purities(a: float, b: complex, c: float, theta: float) -> tuple[float, float]:
    """tr(B00^2) and tr(B11^2) of the coupled state's diagonal blocks."""
    return _closed_forms(a, b, c, theta)[3]


@dataclass(frozen=True)
class ClosedFormReport:
    """Numeric pipeline vs closed forms for one (a, b, c, theta).

    bound is the closed form, numeric_bound the coupled state's off-block
    weight (they agree within 1e-10). entropy_matches_closed_form must
    always hold; bound_holds and projected_equals_bound are only
    guaranteed under hypothesis_pure.
    """

    entropy: float
    closed_form_entropy: float
    bound: float
    numeric_bound: float
    projected_entropy: float
    block_purities: tuple
    hypothesis_pure: bool
    entropy_matches_closed_form: bool
    bound_holds: bool
    projected_equals_bound: bool


def verify_closed_forms(a: float, b: complex, c: float, theta: float) -> ClosedFormReport:
    """Drive the generic machinery and compare with every closed form."""
    rho, cf_bound, cf_purity, _ = _closed_forms(a, b, c, theta)
    model = coupling_model(theta)
    out = apply_channel(rho, extract_kraus(model))
    entropy = logical_entropy(out)
    cf_entropy = 1.0 - cf_purity
    blocks = block_decompose(couple(rho, model), 2, 2)
    b00, b11 = blocks[0, 0], blocks[1, 1]
    block_pur = (float(np.vdot(b00, b00).real), float(np.vdot(b11, b11).real))
    projected = 1.0 - sum(block_pur)
    numeric_bound = off_block_bound(blocks)
    _require(abs(numeric_bound - cf_bound), IDENTITY_TOL, "bound routes disagree: {1!r} vs {2!r}",
             numeric_bound, cf_bound, error=AssertionError)
    return ClosedFormReport(
        entropy=entropy,
        closed_form_entropy=cf_entropy,
        bound=cf_bound,
        numeric_bound=numeric_bound,
        projected_entropy=projected,
        block_purities=block_pur,
        hypothesis_pure=purity(rho) >= 1.0 - DEFAULT_TOL,
        entropy_matches_closed_form=abs(entropy - cf_entropy) <= IDENTITY_TOL,
        bound_holds=entropy <= cf_bound + ROUNDING_TOL,
        projected_equals_bound=abs(projected - cf_bound) <= IDENTITY_TOL,
    )
