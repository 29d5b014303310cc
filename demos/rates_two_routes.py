"""Entropy production through two independent routes.

The von Neumann route needs the matrix logarithm of the state and blows up
on pure states.  The phase-space route only ever sees the smooth Husimi
density, so it stays finite all the way to the rim of the Bloch ball.
"""

import math

import numpy as np

from spinphase import (
    BathParams,
    DephasingChannel,
    PurityDivergence,
    SphereGrid,
    SpinJ,
    bloch_to_rho,
    ep_qubit_damping_closed,
    ep_qubit_dephasing_closed,
    ep_rate_damping_quad,
    ep_rate_dephasing_quad,
    ep_vn_qubit_damping,
    ep_vn_qubit_dephasing,
    husimi_field,
    make_spin_operators,
)

ops = make_spin_operators(SpinJ(1))
dephasing = DephasingChannel(lam=1.0, ops=ops)
grid = SphereGrid(128, 128)

# ----------------------------------------------------------------------
# Dephasing: closed form vs sphere quadrature, digit for digit
# ----------------------------------------------------------------------
print("dephasing rates at lam = 1")
print(" tau_x    closed form       quadrature        vN route")
for perp in (0.2, 0.4, 0.6, 0.8):
    tau = [perp, 0.0, 0.1]
    closed = ep_qubit_dephasing_closed(tau, 1.0)
    quad = ep_rate_dephasing_quad(husimi_field(bloch_to_rho(tau), grid), dephasing).sigma_dot
    vn = ep_vn_qubit_dephasing(tau, 1.0)
    print(f" {perp:.1f}     {closed:.12f}    {quad:.12f}    {vn:.12f}")
print()

# ----------------------------------------------------------------------
# Damping against a thermal bath: report carries rate, flux, balance
# ----------------------------------------------------------------------
bath = BathParams.from_nbar(1.0, 0.5)
print(f"damping, gamma = 1, nbar = 0.5 (tau_bar_z = {bath.tau_bar_z:+.2f})")
print(" tau      sigma (closed)    sigma (quad)      phi (quad)")
for tau in ([0.0, 0.0, 0.0], [0.6, 0.0, 0.0], [0.3, 0.2, -0.4]):
    closed = ep_qubit_damping_closed(tau, bath)
    report = ep_rate_damping_quad(husimi_field(bloch_to_rho(tau), grid), bath.channel(ops))
    print(f" {str(tau):24s} {closed:.10f}    {report.sigma_dot:.10f}    {report.phi_dot:+.10f}")
    balance = report.sigma_dot - report.phi_dot - report.ds_dt
    assert abs(balance) < 1e-12
print()

# the vN route always dominates the Wehrl route where it exists
tau = [0.5, 0.0, 0.1]
print(f"vN dominates:  {ep_vn_qubit_damping(tau, bath):.6f} >= "
      f"{ep_qubit_damping_closed(tau, bath):.6f}")
print()

# ----------------------------------------------------------------------
# At the pure rim the two routes part ways
# ----------------------------------------------------------------------
print("pure states tau = (sin th, 0, cos th), dephasing")
print(" th/pi    quadrature       lam sin^2(th)/4   vN route")
fine = SphereGrid(256, 256)
for frac in (0.125, 0.25, 0.5):
    theta = frac * math.pi
    tau = [math.sin(theta), 0.0, math.cos(theta)]
    quad = ep_rate_dephasing_quad(husimi_field(bloch_to_rho(tau), fine), dephasing).sigma_dot
    target = 0.25 * math.sin(theta) ** 2
    try:
        ep_vn_qubit_dephasing(tau, 1.0)
        vn_note = "finite?"
    except PurityDivergence:
        vn_note = "diverges"
    print(f" {frac:.3f}    {quad:.10f}     {target:.10f}     {vn_note}")
print()

# ----------------------------------------------------------------------
# Coherence is the fuel: rates grow monotonically with tau_perp
# ----------------------------------------------------------------------
perps = np.linspace(0.0, 0.9, 10)
deph = [ep_qubit_dephasing_closed([p, 0.0, 0.2], 1.0) for p in perps]
damp = [ep_qubit_damping_closed([p, 0.0, 0.2], bath) for p in perps]
print("tau_perp  sigma_deph   sigma_damp")
for p, a, b in zip(perps, deph, damp):
    print(f"  {p:.2f}    {a:.6f}    {b:.6f}")
assert all(b > a for a, b in zip(deph, deph[1:]))
assert all(b > a for a, b in zip(damp, damp[1:]))
print("both sweeps strictly increasing")
