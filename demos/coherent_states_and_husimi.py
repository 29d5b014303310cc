"""Spin coherent states and the Husimi view of a density matrix.

Walks from the amplitude vector of a single coherent state up to full
sphere-sampled fields with exact derivatives.  Every block prints a check
against an independent evaluation.
"""

import math

import numpy as np

from spinphase import (
    SolidAngle,
    SphereGrid,
    SpinJ,
    bloch_to_rho,
    coherent_amplitudes,
    husimi_field,
    husimi_q,
    wehrl_entropy,
)

# ----------------------------------------------------------------------
# Coherent amplitudes: a binomial profile along the polar angle
# ----------------------------------------------------------------------
j = SpinJ(3)  # spin 3/2
theta = 2.0 * math.pi / 5.0
state = coherent_amplitudes(j, theta)
print(f"spin {j.j}, theta = {theta:.4f}")
print("amplitudes       ", np.round(state.amplitudes, 6))
print(f"sum of squares    {np.sum(state.amplitudes ** 2):.15f}  (should be 1)")

# the top component is cos^(2J)(theta/2), the bottom sin^(2J)(theta/2)
print(f"top vs cos^3      {state.amplitudes[0]:.10f} vs {math.cos(theta / 2) ** 3:.10f}")
print(f"bottom vs sin^3   {state.amplitudes[-1]:.10f} vs {math.sin(theta / 2) ** 3:.10f}")
print()

# ----------------------------------------------------------------------
# Pointwise Husimi values: the qubit case has a two-line formula
# ----------------------------------------------------------------------
tau = np.array([0.4, -0.2, 0.3])
rho = bloch_to_rho(tau)
omega = SolidAngle(1.1, 0.6)
n_hat = np.array(
    [
        math.sin(omega.theta) * math.cos(omega.phi),
        math.sin(omega.theta) * math.sin(omega.phi),
        math.cos(omega.theta),
    ]
)
print(f"qubit Q at (1.1, 0.6)   {husimi_q(rho, omega):.12f}")
print(f"(1 + n.tau)/2           {0.5 * (1 + n_hat @ tau):.12f}")
print()

# ----------------------------------------------------------------------
# Whole-sphere fields: unit normalization under the quadrature rule
# ----------------------------------------------------------------------
grid = SphereGrid(64, 64)
for two_j in (1, 2, 4):
    jj = SpinJ(two_j)
    dim = jj.dim
    rng = np.random.default_rng(two_j)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    field = husimi_field(rho, grid)
    total = (two_j + 1) / (4 * math.pi) * grid.integrate(field.q)
    print(f"2J = {two_j}:  (2J+1)/(4 pi) * integral Q = {total:.14f}")
print()

# ----------------------------------------------------------------------
# Exact derivatives vs finite differences at one grid node
# ----------------------------------------------------------------------
rho = bloch_to_rho([0.6, 0.1, -0.2])
field = husimi_field(rho, grid)
a, b = 20, 33
th, ph = grid.theta_nodes[a], grid.phi_nodes[b]
d = 1e-6
fd_th = (husimi_q(rho, SolidAngle(th + d, ph)) - husimi_q(rho, SolidAngle(th - d, ph))) / (2 * d)
fd_ph = (husimi_q(rho, SolidAngle(th, ph + d)) - husimi_q(rho, SolidAngle(th, ph - d))) / (2 * d)
print(f"dQ/dtheta  analytic {field.dq_dtheta[a, b]:+.10f}   fd {fd_th:+.10f}")
print(f"dQ/dphi    analytic {field.dq_dphi[a, b].real:+.10f}   fd {fd_ph:+.10f}")
print()

# ----------------------------------------------------------------------
# Wehrl entropy: coherent states sit on the floor 2J/(2J+1)
# ----------------------------------------------------------------------
fine = SphereGrid(128, 128)
for two_j in (1, 2, 3):
    jj = SpinJ(two_j)
    amps = coherent_amplitudes(jj, 0.8).amplitudes.astype(complex)
    pure = np.outer(amps, amps.conj())
    s_w = wehrl_entropy(husimi_field(pure, fine))
    print(f"2J = {two_j}:  Wehrl(coherent) = {s_w:.10f}   floor = {two_j / (two_j + 1):.10f}")
mixed = wehrl_entropy(husimi_field(np.eye(2, dtype=complex) / 2, fine))
print(f"qubit maximally mixed:  {mixed:.10f}   ln 2 = {math.log(2):.10f}")
