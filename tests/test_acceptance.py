"""End-to-end acceptance checks.

Each test verifies one shipped guarantee at its stated tolerance and prints a
single PASS line with the worst measured deviation; run with -v -s to see the
full scoreboard.  The reference constants were frozen from 50-digit arbitrary
precision evaluations of the closed forms.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import column, load_csv
from spinphase import (
    BathParams,
    DephasingChannel,
    PurityDivergence,
    SolidAngle,
    SphereGrid,
    SpinJ,
    bloch_to_rho,
    classical_ep_rate,
    coherence_ep_rate,
    coherent_amplitudes,
    damping_stationary_state,
    ep_qubit_damping_closed,
    ep_qubit_dephasing_closed,
    ep_rate_damping_quad,
    ep_rate_dephasing_quad,
    ep_vn_general,
    ep_vn_qubit_dephasing,
    evolve,
    husimi_field,
    husimi_q,
    make_spin_operators,
    pauli_rates_from_davies,
    quantum_relative_entropy,
    random_state_with_coherence,
    wehrl_entropy,
)

QUBIT = SpinJ(1)
OPS = make_spin_operators(QUBIT)

# (lam/4) tau_perp^2 b(tau) at tau = (0.6, 0, 0), lam = 1, with
# b(0.6) = (0.6 - 0.64 ln 2) / 0.216
DEPH_ANCHOR = 0.0651607518506813
# damping rate at the maximally mixed state, gamma = 1, nbar = 0.5
DAMP_ANCHOR = 0.1760409


def random_bloch_ball(rng, n, radius=0.99):
    """n points drawn uniformly from the Bloch ball of the given radius."""
    vecs = rng.normal(size=(n, 3))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    return vecs * (radius * rng.uniform(0.0, 1.0, size=n) ** (1.0 / 3.0))[:, None]


def random_rho(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_criterion_01_dephasing_route_equivalence():
    grid = SphereGrid(128, 128)
    chan = DephasingChannel(lam=1.0, ops=OPS)
    rng = np.random.default_rng(101)
    worst = 0.0
    for tau in random_bloch_ball(rng, 100):
        closed = ep_qubit_dephasing_closed(tau, 1.0)
        quad = ep_rate_dephasing_quad(husimi_field(bloch_to_rho(tau), grid), chan).sigma_dot
        worst = max(worst, abs(quad - closed) / max(closed, 1e-12))
    assert worst < 1e-6

    closed = ep_qubit_dephasing_closed([0.6, 0.0, 0.0], 1.0)
    quad = ep_rate_dephasing_quad(husimi_field(bloch_to_rho([0.6, 0.0, 0.0]), grid), chan).sigma_dot
    assert closed == pytest.approx(DEPH_ANCHOR, abs=1e-6)
    assert quad == pytest.approx(DEPH_ANCHOR, abs=1e-6)
    print(f"PASS criterion 1: dephasing routes agree, worst rel err {worst:.3e}")


def test_criterion_02_damping_route_equivalence():
    grid = SphereGrid(128, 128)
    bath = BathParams.from_nbar(1.0, 0.5)
    chan = bath.channel(OPS)
    rng = np.random.default_rng(102)
    worst = 0.0
    for tau in random_bloch_ball(rng, 100):
        closed = ep_qubit_damping_closed(tau, bath)
        quad = ep_rate_damping_quad(husimi_field(bloch_to_rho(tau), grid), chan).sigma_dot
        worst = max(worst, abs(quad - closed) / max(closed, 1e-12))
    assert worst < 1e-6

    closed = ep_qubit_damping_closed([0.0, 0.0, 0.0], bath)
    quad = ep_rate_damping_quad(husimi_field(bloch_to_rho([0.0, 0.0, 0.0]), grid), chan).sigma_dot
    assert closed == pytest.approx(DAMP_ANCHOR, abs=1e-6)
    assert quad == pytest.approx(DAMP_ANCHOR, abs=1e-6)
    print(f"PASS criterion 2: damping routes agree, worst rel err {worst:.3e}")


def test_criterion_03_pure_dephasing_quadrature_stays_finite():
    # the quadrature route reaches the pure rim where the vN route diverges
    grid = SphereGrid(512, 512)
    chan = DephasingChannel(lam=1.0, ops=OPS)
    worst = 0.0
    for k in range(1, 8):
        theta = k * math.pi / 8.0
        tau = [math.sin(theta), 0.0, math.cos(theta)]
        quad = ep_rate_dephasing_quad(husimi_field(bloch_to_rho(tau), grid), chan).sigma_dot
        worst = max(worst, abs(quad - 0.25 * math.sin(theta) ** 2))
        with pytest.raises(PurityDivergence):
            ep_vn_qubit_dephasing(tau, 1.0)
    assert worst < 1e-5
    print(f"PASS criterion 3: pure-state quadrature matches sin^2/4, worst abs err {worst:.3e}")


def test_criterion_04_nonnegative_production():
    grid = SphereGrid(64, 64)
    bath = BathParams.from_nbar(1.0, 0.5)
    floor = 0.0
    for two_j in (1, 2):
        j = SpinJ(two_j)
        ops = make_spin_operators(j)
        dephasing, damping = DephasingChannel(lam=1.0, ops=ops), bath.channel(ops)
        rng = np.random.default_rng(104 + two_j)
        for _ in range(1000):
            field = husimi_field(random_rho(rng, j.dim), grid)
            s_deph = ep_rate_dephasing_quad(field, dephasing).sigma_dot
            s_damp = ep_rate_damping_quad(field, damping).sigma_dot
            floor = min(floor, s_deph, s_damp)
    assert floor >= -1e-10

    # Spohn inequality on the vN route for the thermal damping map
    vn_floor = 0.0
    for two_j in (1, 2):
        j = SpinJ(two_j)
        chan = bath.channel(make_spin_operators(j))
        rho_eq = damping_stationary_state(j, 0.5)
        rng = np.random.default_rng(114 + two_j)
        for _ in range(100):
            vn_floor = min(vn_floor, ep_vn_general(random_rho(rng, j.dim), chan, rho_eq).sigma_dot)
    assert vn_floor >= -1e-10
    print(f"PASS criterion 4: production nonnegative, quad floor {floor:.3e}, vN floor {vn_floor:.3e}")


def test_criterion_05_wehrl_balance_against_finite_difference():
    dt = 1e-3
    grid = SphereGrid(128, 128)
    worst = 0.0
    for two_j in (1, 2):
        j = SpinJ(two_j)
        ops = make_spin_operators(j)
        if two_j == 1:
            rho = bloch_to_rho([0.5, 0.1, 0.2])
        else:
            rho = random_state_with_coherence(3, 0.5, seed=7)
        for chan, report_of in (
            (DephasingChannel(lam=1.0, ops=ops), ep_rate_dephasing_quad),
            (BathParams.from_nbar(1.0, 0.5).channel(ops), ep_rate_damping_quad),
        ):
            traj = evolve(chan, rho, 2.0 * dt, 2)
            s0 = wehrl_entropy(husimi_field(traj.states[0], grid))
            s2 = wehrl_entropy(husimi_field(traj.states[2], grid))
            report = report_of(husimi_field(traj.states[1], grid), chan)
            worst = max(worst, abs((s2 - s0) / (2.0 * dt) - report.ds_dt))
    assert worst < 1e-4
    print(f"PASS criterion 5: Wehrl balance matches finite differences, worst abs err {worst:.3e}")


def test_criterion_06_thermal_state_is_silent():
    from spinphase import apply_liouvillian

    grid = SphereGrid(96, 96)
    bath = BathParams.from_nbar(1.0, 0.5)
    worst_gen = worst_rate = 0.0
    for two_j in (1, 2):
        j = SpinJ(two_j)
        chan = bath.channel(make_spin_operators(j))
        rho_eq = damping_stationary_state(j, 0.5)
        worst_gen = max(worst_gen, float(np.abs(apply_liouvillian(chan, rho_eq)).max()))
        report = ep_rate_damping_quad(husimi_field(rho_eq, grid), chan)
        worst_rate = max(worst_rate, abs(report.sigma_dot), abs(report.phi_dot))
    assert worst_gen < 1e-10
    assert worst_rate < 1e-9
    print(f"PASS criterion 6: thermal fixed point, generator {worst_gen:.3e}, rates {worst_rate:.3e}")


def test_criterion_07_coherence_orders_the_production_curves(fig_dir):
    # sweep panels: rate grows with coherence, Wehrl under vN
    for name in ("fig2_dephasing.csv", "fig2_damping.csv"):
        _, header, rows, _ = load_csv(fig_dir / name)
        wehrl = column(header, rows, "sigma_wehrl")
        assert all(b >= a - 1e-12 for a, b in zip(wehrl, wehrl[1:])), name
        for r in rows:
            vn = r[header.index("sigma_vn")]
            if not math.isnan(vn):
                assert vn >= r[header.index("sigma_wehrl")] - 1e-9, name

    # time panels: curves start strictly ordered by initial coherence
    for name in (
        "fig3_dephasing.csv",
        "fig3_damping.csv",
        "fig4_dephasing.csv",
        "fig4_damping.csv",
    ):
        _, header, rows, _ = load_csv(fig_dir / name)
        for row in rows[:2]:
            values = row[1:]
            assert all(b > a for a, b in zip(values, values[1:])), name
    print("PASS criterion 7: all six figure panels keep the coherence ordering")


def test_criterion_08_reference_trajectories(fig_dir):
    _, header, rows, _ = load_csv(fig_dir / "fig1_observables.csv")
    worst_norm = 0.0
    for row in rows:
        tau = np.array([row[header.index(c)] for c in ("sx_closed", "sy_closed", "sz_closed")])
        worst_norm = max(worst_norm, abs(np.linalg.norm(tau) - 1.0))
    assert worst_norm < 1e-8

    last = rows[-1]
    final = np.array([last[header.index(c)] for c in ("sx_damped", "sy_damped", "sz_damped")])
    gap = float(np.abs(final - np.array([0.0, 0.0, -0.5])).max())
    assert gap < 1e-6
    print(f"PASS criterion 8: unitary norm drift {worst_norm:.3e}, damped endpoint gap {gap:.3e}")


def test_criterion_09_vn_rate_equals_relative_entropy_decay():
    worst = 0.0
    for two_j, rho0 in ((1, bloch_to_rho([0.5, 0.2, 0.3])), (2, random_state_with_coherence(3, 0.5, seed=9))):
        j = SpinJ(two_j)
        chan = BathParams.from_nbar(1.0, 0.5).channel(make_spin_operators(j))
        rho_eq = damping_stationary_state(j, 0.5)
        traj = evolve(chan, rho0, 2.0, 2000)
        dt = traj.times[1] - traj.times[0]
        for idx in (300, 700, 1200, 1700):
            fd = (
                quantum_relative_entropy(traj.states[idx + 1], rho_eq)
                - quantum_relative_entropy(traj.states[idx - 1], rho_eq)
            ) / (2.0 * dt)
            sigma = ep_vn_general(traj.states[idx], chan, rho_eq).sigma_dot
            worst = max(worst, abs(sigma + fd))
    assert worst < 1e-5
    print(f"PASS criterion 9: vN rate tracks -d/dt S(rho || rho_eq), worst abs err {worst:.3e}")


def test_criterion_10_classical_plus_coherence_splits_the_vn_rate():
    chan = BathParams.from_nbar(1.0, 0.5).channel(OPS)
    rho_eq = damping_stationary_state(QUBIT, 0.5)
    rates = pauli_rates_from_davies(chan)
    traj = evolve(chan, bloch_to_rho([0.5, 0.0, 0.2]), 2.0, 2000)
    upsilon = coherence_ep_rate(traj)
    worst = 0.0
    for idx in range(1, len(traj.times) - 1):
        rho = traj.states[idx]
        sigma_vn = ep_vn_general(rho, chan, rho_eq).sigma_dot
        sigma_cl = classical_ep_rate(rates, np.real(np.diag(rho)))
        worst = max(worst, abs(sigma_vn - sigma_cl - upsilon[idx]))
    assert worst < 1e-4
    print(f"PASS criterion 10: vN rate = classical + coherence part, worst abs err {worst:.3e}")


def test_criterion_11_husimi_core_guarantees():
    # normalization on the quadrature grid
    grid = SphereGrid(64, 64)
    rng = np.random.default_rng(111)
    worst_norm = 0.0
    for two_j in (1, 2, 3):
        j = SpinJ(two_j)
        pref = (two_j + 1.0) / (4.0 * math.pi)
        for _ in range(17):
            field = husimi_field(random_rho(rng, j.dim), grid)
            worst_norm = max(worst_norm, abs(pref * grid.integrate(field.q) - 1.0))
    assert worst_norm < 1e-10

    # coherent amplitudes against the rotation matrix exponential
    worst_amp = 0.0
    for two_j in (1, 2, 3, 4):
        j = SpinJ(two_j)
        ops = make_spin_operators(j)
        jy = -0.5j * (ops.jplus - ops.jminus)
        for theta in rng.uniform(0.0, math.pi, size=50):
            column_vec = expm(-1j * theta * jy)[:, 0]
            amps = coherent_amplitudes(j, theta).amplitudes
            worst_amp = max(worst_amp, float(np.abs(amps - column_vec.real).max()))
    assert worst_amp < 1e-12

    # analytic field derivatives against pointwise finite differences
    delta = 1e-5
    worst_fd = 0.0
    fd_grid = SphereGrid(32, 32)
    for two_j in (1, 2, 3):
        j = SpinJ(two_j)
        for _ in range(7):
            rho = random_rho(rng, j.dim)
            field = husimi_field(rho, fd_grid)
            for _ in range(5):
                a = int(rng.integers(2, fd_grid.n_theta - 2))
                b = int(rng.integers(2, fd_grid.n_phi - 2))
                theta, phi = fd_grid.theta_nodes[a], fd_grid.phi_nodes[b]
                fd_theta = (
                    husimi_q(rho, SolidAngle(theta + delta, phi))
                    - husimi_q(rho, SolidAngle(theta - delta, phi))
                ) / (2.0 * delta)
                fd_phi = (
                    husimi_q(rho, SolidAngle(theta, phi + delta))
                    - husimi_q(rho, SolidAngle(theta, phi - delta))
                ) / (2.0 * delta)
                worst_fd = max(
                    worst_fd,
                    abs(field.dq_dtheta[a, b] - fd_theta),
                    abs(field.dq_dphi[a, b].real - fd_phi),
                )
    assert worst_fd < 1e-6
    print(
        "PASS criterion 11: Husimi core, "
        f"normalization {worst_norm:.3e}, amplitudes {worst_amp:.3e}, derivatives {worst_fd:.3e}"
    )
