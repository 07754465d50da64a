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
read it. verify_closed_forms pins the Kraus route bound runs: it reads
the entropy, bound, projected entropy and block purities (diag W) off
verify_entropy_bound's kernel; the dense joint state is the test oracle.
Each closed form is a second route to one value, so a disagreement
raises; theorem_holds is the one proof-step verdict, the one that bound reads.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin

import numpy as np

from .channels import CouplingModel, _bound_report, _theorem_holds, extract_kraus
from .linalg import DEFAULT_TOL, IDENTITY_TOL, _require
from .states import validate_density


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


def _closed_forms(a: float, b: complex, c: float, theta: float,
                  tol: float = DEFAULT_TOL) -> tuple[np.ndarray, float, float, tuple]:
    """The one closed-form evaluation: the state [[a, b], [conj(b), c]] checked within tol, the
    off-block bound, the output purity and the two block purities, as the module docstring writes them."""
    rho = validate_density(np.array([[a, b], [np.conj(b), c]], dtype=np.complex128), tol=tol)
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

    Each numeric value agrees with its closed form within 1e-10, or
    verify_closed_forms raises: entropy with closed_form_entropy, numeric_bound
    (verify_entropy_bound's) with bound, and block_purities (diag W) with
    closed_form_block_purities. theorem_holds is bound's proof-step verdict at tol.
    """

    entropy: float
    closed_form_entropy: float
    bound: float
    numeric_bound: float
    projected_entropy: float
    block_purities: tuple
    hypothesis_pure: bool
    theorem_holds: bool


def verify_closed_forms(a: float, b: complex, c: float, theta: float,
                        tol: float = DEFAULT_TOL) -> ClosedFormReport:
    """Run verify_entropy_bound's kernel on the damping channel, the state checked within tol,
    and compare with every closed form. The entropy, the bound and the two block purities are two
    routes to one value each: a difference past IDENTITY_TOL, or a NaN, raises AssertionError."""
    rho, cf_bound, cf_purity, cf_blocks = _closed_forms(a, b, c, theta, tol)
    r, w = _bound_report(rho, extract_kraus(coupling_model(theta)), tol)
    cf_entropy, blocks = 1.0 - cf_purity, (float(w[0, 0].real), float(w[1, 1].real))
    for what, numeric, closed in (("entropy", r.entropy, cf_entropy), ("bound", r.bound, cf_bound),
                                  ("block purity", blocks, cf_blocks)):
        _require(np.abs(np.subtract(numeric, closed)).max(), IDENTITY_TOL,
                 what + " routes disagree: {1!r} vs {2!r}", numeric, closed, error=AssertionError)
    return ClosedFormReport(
        entropy=r.entropy, closed_form_entropy=cf_entropy, bound=cf_bound, numeric_bound=r.bound,
        projected_entropy=r.projected_entropy, block_purities=blocks,
        hypothesis_pure=r.hypothesis_pure, theorem_holds=_theorem_holds(r, tol),
    )
