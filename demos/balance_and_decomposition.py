"""Bookkeeping identities along damped trajectories.

Three checks: the phase-space rate balances a finite-difference Wehrl
entropy derivative, the vN production rate equals the decay rate of the
relative entropy to equilibrium, and on a qubit it splits into a classical
jump part plus the coherence consumption rate.
"""

import numpy as np

from spinphase import (
    BathParams,
    SphereGrid,
    SpinJ,
    bloch_to_rho,
    classical_ep_rate,
    coherence_ep_rate,
    damping_stationary_state,
    ep_rate_damping_quad,
    ep_vn_general,
    evolve,
    husimi_field,
    make_spin_operators,
    pauli_rates_from_davies,
    quantum_relative_entropy,
    wehrl_entropy,
)

qubit = SpinJ(1)
ops = make_spin_operators(qubit)
bath = BathParams.from_nbar(1.0, 0.5)
chan = bath.channel(ops)
rho_eq = damping_stationary_state(qubit, 0.5)
grid = SphereGrid(128, 128)

# ----------------------------------------------------------------------
# 1. sigma - phi = dS_W/dt, measured by stepping dt to both sides
# ----------------------------------------------------------------------
dt = 1e-3
rho0 = bloch_to_rho([0.5, 0.1, 0.2])
traj = evolve(chan, rho0, 2 * dt, 2)
s_before = wehrl_entropy(husimi_field(traj.states[0], grid))
s_after = wehrl_entropy(husimi_field(traj.states[2], grid))
report = ep_rate_damping_quad(husimi_field(traj.states[1], grid), chan)
fd = (s_after - s_before) / (2 * dt)
print("Wehrl balance")
print(f"  sigma - phi      {report.ds_dt:+.10f}")
print(f"  finite diff      {fd:+.10f}")
print(f"  gap              {abs(report.ds_dt - fd):.2e}")
print()

# ----------------------------------------------------------------------
# 2. vN production = -d/dt S(rho || rho_eq)
# ----------------------------------------------------------------------
traj = evolve(chan, bloch_to_rho([0.5, 0.2, 0.3]), 2.0, 2000)
h = traj.times[1] - traj.times[0]
print("relative-entropy decay vs vN production")
print("   t      -dR/dt          sigma_vn")
for idx in (200, 600, 1200, 1800):
    fd = -(
        quantum_relative_entropy(traj.states[idx + 1], rho_eq)
        - quantum_relative_entropy(traj.states[idx - 1], rho_eq)
    ) / (2 * h)
    sigma = ep_vn_general(traj.states[idx], chan, rho_eq).sigma_dot
    print(f"  {traj.times[idx]:.2f}   {fd:.10f}   {sigma:.10f}")
print()

# ----------------------------------------------------------------------
# 3. qubit split: sigma_vn = classical jump part + coherence part
# ----------------------------------------------------------------------
rates = pauli_rates_from_davies(chan)
traj = evolve(chan, bloch_to_rho([0.5, 0.0, 0.2]), 2.0, 2000)
upsilon = coherence_ep_rate(traj)
print("   t      sigma_vn        classical       upsilon         residual")
worst = 0.0
for idx in (200, 600, 1200, 1800):
    rho = traj.states[idx]
    sigma_vn = ep_vn_general(rho, chan, rho_eq).sigma_dot
    sigma_cl = classical_ep_rate(rates, np.real(np.diag(rho)))
    residual = sigma_vn - sigma_cl - upsilon[idx]
    worst = max(worst, abs(residual))
    print(f"  {traj.times[idx]:.2f}   {sigma_vn:.10f}   {sigma_cl:.10f}   {upsilon[idx]:.10f}   {residual:+.2e}")
print(f"worst residual {worst:.2e}")
