"""Lindblad channels and fixed-step propagation.

Dephasing shrinks off-diagonal elements at a rate set by the level gap,
damping pulls every state toward the bath polarization.  Both are checked
here against the closed qubit solutions.
"""

import numpy as np

from spinphase import (
    BathParams,
    DephasingChannel,
    SpinJ,
    apply_liouvillian,
    bloch_to_rho,
    damping_stationary_state,
    evolve,
    make_spin_operators,
    qubit_damping_bloch,
    qubit_dephasing_bloch,
    rho_to_bloch,
)

qubit = SpinJ(1)
ops = make_spin_operators(qubit)

# ----------------------------------------------------------------------
# Dephasing: transverse decay at lam/2, frozen populations
# ----------------------------------------------------------------------
lam = 0.8
tau0 = np.array([0.6, 0.0, 0.3])
traj = evolve(DephasingChannel(lam=lam, ops=ops), bloch_to_rho(tau0), 3.0, 300)

print("dephasing, lam = 0.8, tau0 = (0.6, 0, 0.3)")
print(" t      tau_x (rk4)   tau_x (exact)   tau_z")
for idx in (0, 100, 200, 300):
    t = traj.times[idx]
    tau = rho_to_bloch(traj.states[idx])
    exact = qubit_dephasing_bloch(tau0, lam, t)
    print(f" {t:4.1f}   {tau[0]:+.9f}  {exact[0]:+.9f}  {tau[2]:+.6f}")
print()

# ----------------------------------------------------------------------
# Damping: relaxation to (0, 0, tau_bar_z) at rate gamma_bar
# ----------------------------------------------------------------------
gamma, nbar = 1.0, 0.5
bath = BathParams.from_nbar(gamma, nbar)
chan = bath.channel(ops)
print(f"damping, gamma = {gamma}, nbar = {nbar}")
print(f"bath polarization tau_bar_z = {bath.tau_bar_z:+.4f}, gamma_bar = {bath.gamma_bar:.4f}")

traj = evolve(chan, bloch_to_rho([0.6, 0.0, 0.4]), 6.0, 600)
print(" t      tau_z (rk4)   tau_z (exact)")
for idx in (0, 150, 300, 600):
    t = traj.times[idx]
    tau = rho_to_bloch(traj.states[idx])
    exact = qubit_damping_bloch([0.6, 0.0, 0.4], gamma, nbar, t)
    print(f" {t:4.1f}   {tau[2]:+.9f}  {exact[2]:+.9f}")
print()

# ----------------------------------------------------------------------
# The thermal state is exactly stationary, for any spin
# ----------------------------------------------------------------------
for two_j in (1, 2, 4):
    jj = SpinJ(two_j)
    chan_j = BathParams.from_nbar(1.0, 0.5).channel(make_spin_operators(jj))
    rho_eq = damping_stationary_state(jj, 0.5)
    residual = np.abs(apply_liouvillian(chan_j, rho_eq)).max()
    pops = np.real(np.diag(rho_eq))
    print(f"2J = {two_j}:  |L[rho_eq]|_max = {residual:.2e}   ratio p1/p0 = {pops[1] / pops[0]:.6f}"
          f"   (nbar+1)/nbar = {(0.5 + 1) / 0.5:.6f}")
print()

# ----------------------------------------------------------------------
# Trace and hermiticity hold along the whole trajectory
# ----------------------------------------------------------------------
worst_tr = max(abs(np.trace(s).real - 1.0) for s in traj.states)
worst_h = max(np.abs(s - s.conj().T).max() for s in traj.states)
print(f"trace drift   {worst_tr:.2e}")
print(f"hermiticity   {worst_h:.2e}")

# halving the step barely moves the endpoint: classical rk4 convergence
fine = evolve(chan, bloch_to_rho([0.6, 0.0, 0.4]), 6.0, 1200)
print(f"step halving  {np.abs(traj.states[-1] - fine.states[-1]).max():.2e}")
