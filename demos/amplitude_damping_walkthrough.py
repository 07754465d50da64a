"""Amplitude damping, end to end.

A single qubit leaks its excitation into a fresh environment qubit. We
build the coupling unitary, read off the Kraus pair, push the |+> state
through, and watch the off-block bound cap the output entropy at every
decay angle.

Run:  python3 demos/amplitude_damping_walkthrough.py
"""
import numpy as np

from logent.amplitude_damping import (closed_form_bound, closed_form_purity,
                                      coupling_model, verify_closed_forms)
from logent.channels import apply_channel, couple, extract_kraus, verify_entropy_bound
from logent.states import density_from_pure, logical_entropy

np.set_printoptions(precision=4, suppress=True)

theta = np.pi / 4
rho = density_from_pure([2**-0.5, 2**-0.5])

print("=== The coupling ===")
model = coupling_model(theta)
print(f"decay angle theta = pi/4, coupling unitary on E (x) S:\n{model.unitary.real}\n")

print("=== Kraus operators ===")
e0, e1 = extract_kraus(model)
print(f"E_0 (nothing leaked):\n{e0.real}")
print(f"E_1 (excitation captured by the environment):\n{e1.real}\n")

print("=== One state through the channel ===")
out = apply_channel(rho, [e0, e1])
print(f"input  rho  = |+><+|, entropy {logical_entropy(rho):.4f}")
print(f"output rho~ =\n{out.real}")
print(f"output entropy h = {logical_entropy(out):.4f}\n")

print("=== Where the entropy comes from ===")
joint = couple(rho, model)
print(f"joint state after coupling (environment-major blocks):\n{joint.real}")
report = verify_entropy_bound(rho, model)
print(f"off-block bound        : {report.bound:.4f}")
print(f"projected-state entropy: {report.projected_entropy:.4f}  (equals the bound: pure input)")
print(f"output entropy         : {report.entropy:.4f}  <=  bound, slack {report.slack:.4f}\n")

print("=== Closed forms agree with the machinery ===")
cf = verify_closed_forms(0.5, 0.5, 0.5, theta)
print(f"entropy  numeric {cf.entropy:.6f}  closed form {cf.closed_form_entropy:.6f}")
print(f"bound    closed form {cf.bound:.6f}")
print(f"diagonal blocks carry purities {cf.block_purities[0]:.4f} + {cf.block_purities[1]:.4f}"
      f" = {sum(cf.block_purities):.4f} = 1 - bound\n")

print("=== Sweep over the decay angle ===")
print(f"{'theta':>8} {'entropy':>9} {'bound':>9}")
for t in np.linspace(0, np.pi / 2, 7):
    h = 1.0 - closed_form_purity(0.5, 0.5, 0.5, float(t))
    b = closed_form_bound(0.5, 0.5, 0.5, float(t))
    print(f"{t:8.4f} {h:9.4f} {b:9.4f}")
print("\nAt theta = pi/2 the qubit decays completely: the output is the pure")
print("ground state, entropy 0, while the bound stays positive. The bound is")
print("a ceiling, not an estimate.")
