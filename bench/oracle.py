"""Output checks for every workload.

Each output table gets a row check.  Qubit rows are held to the closed
forms, non-qubit rows to the independent formulas in reference.py, and
every row to the invariants: sigma >= 0, Wehrl entropy above the
Lieb-Solovej floor 2J/(2J+1), finite values where the column is defined,
and the von Neumann balance sigma - phi = dS/dt.  Stored states are
compared with exact propagation at a tolerance that admits both RK4 and
exact propagators.  A self-check perturbs one value of every table and
requires the row check to reject it, so a check that passes everything is
itself caught.
"""

import csv
import math
import os

import numpy as np

import reference as ref
import workloads as wl

RTOL = 1e-8  # library vs reference formula on the same grid: roundoff only
QUBIT_TOL = 1e-9  # interior qubit rows vs closed forms (measured 6e-14)
RIM_TOL = 1e-3  # pure-state rim rows vs closed forms (measured 1.0e-4 at 128^2)
CLOSED_STATE_TOL = 1e-7  # qubit RK4 states vs the closed Bloch solutions
PERTURBATION = 1e-4  # relative change the self-check makes to one value


def load_csv(path):
    """(header, float array) of a spinphase CSV; '#' lines are skipped."""
    header, rows = None, []
    with open(path, newline="", encoding="utf-8") as fh:
        for record in csv.reader(fh):
            if not record or record[0].startswith("#"):
                continue
            if header is None:
                header = record
            else:
                rows.append([float(tok) for tok in record])
    return header, np.array(rows)


def close(value, expected, rtol, atol=0.0):
    return math.isfinite(value) and abs(value - expected) <= rtol * abs(expected) + atol


class Table:
    """One output array with a per-row check and the column the self-check perturbs."""

    def __init__(self, label, data, row_ok, column, states=0):
        self.label, self.data, self.row_ok, self.column, self.states = label, data, row_ok, column, states

    def failed_rows(self):
        return [k for k in range(len(self.data)) if not self.row_ok(self.data, k)]

    def perturbation_caught(self):
        k = len(self.data) // 2
        bad = self.data.copy()
        bad[k, self.column] = bad[k, self.column] * (1.0 + PERTURBATION) + PERTURBATION * 1e-2
        return not self.row_ok(bad, k)


def _bind(rate, param):
    return lambda tau: rate(tau, param)


def figure_tables(out_dir, sp):
    ep = sp.entropy_production
    tables, rim = [], []

    _, fig1 = load_csv(os.path.join(out_dir, "fig1_observables.csv"))

    def fig1_ok(a, k):
        t = a[k, 0]
        closed = (0.0, -math.sin(t), math.cos(t))
        damped = sp.dynamics.qubit_damping_bloch([0.0, 0.0, 1.0], 0.5, 0.5, t)
        return all(close(a[k, 1 + i], closed[i], 0.0, CLOSED_STATE_TOL) for i in range(3)) and all(
            close(a[k, 4 + i], damped[i], 0.0, CLOSED_STATE_TOL) for i in range(3)
        )

    tables.append(Table("fig1", fig1, fig1_ok, 6))

    for panel in ("dephasing", "damping"):
        _, a = load_csv(os.path.join(out_dir, f"fig2_{panel}.csv"))
        # fig2 runs both channels at rate 1; damping at infinite temperature
        param = 1.0 if panel == "dephasing" else ep.BathParams.from_tau_bar(1.0, 0.0)
        closed = _bind(getattr(ep, f"ep_qubit_{panel}_closed"), param)
        vn_closed = _bind(getattr(ep, f"ep_vn_qubit_{panel}"), param)

        def fig2_ok(a, k, closed=closed, vn_closed=vn_closed):
            c_fig, perp, sigma_w, sigma_vn = a[k]
            if not (close(c_fig, 2.0 * perp * perp, 1e-12, 1e-15) and 0.0 <= perp <= 1.0 and sigma_w >= 0.0):
                return False
            tau = np.array([perp, 0.0, 0.0])
            if perp >= 1.0 - 1e-12:  # pure state: only the quadrature route is finite
                return close(sigma_w, closed(tau), 0.0, RIM_TOL) and math.isnan(sigma_vn)
            return close(sigma_w, closed(tau), QUBIT_TOL, QUBIT_TOL) and close(sigma_vn, vn_closed(tau), QUBIT_TOL)

        for k in range(len(a)):
            if a[k, 1] >= 1.0 - 1e-12:
                rim.append(abs(a[k, 2] - closed(np.array([a[k, 1], 0.0, 0.0]))))
        tables.append(Table(f"fig2_{panel}", a, fig2_ok, 2, states=len(a)))

    return tables, max(rim)


def state_tol(channel, rho0, p, exact):
    """How far stored states may be from exact propagation: twice the error of
    classic RK4 at the workload's step, which reaches 1.2e-5 at two_j = 8 with
    damping, plus roundoff.  RK4 and exact propagators both pass; a wrong
    generator or step does not."""
    rk4 = ref.rk4_trajectory(channel, rho0, p["tmax"], p["steps"])
    return 2.0 * np.abs(rk4 - exact).max() + 1e-9


def _state_from_columns(row, dim):
    rho = np.zeros((dim, dim), dtype=complex)
    k = 0
    for i in range(dim):
        for j in range(i, dim):
            re = row[k]
            im = row[k + 1] if j > i else 0.0
            k += 2 if j > i else 1
            rho[i, j] = re + 1j * im
            rho[j, i] = re - 1j * im
    return rho


def trajectory_tables(out_dir, inputs, sp):
    p = wl.TRAJ
    dim = p["two_j"] + 1
    header, a = load_csv(os.path.join(out_dir, "trajectory.csv"))
    col = {name: i for i, name in enumerate(header)}
    n_state = dim * dim
    channel = ("damping", p["gamma"], p["nbar"])
    gamma_bar = p["gamma"] * (2.0 * p["nbar"] + 1.0)
    grid = ref.Grid(*p["grid"])
    rho0 = sp.spins.random_state_with_coherence(dim, inputs["coherence"], inputs["state_seed"])
    exact = ref.exact_trajectory(channel, rho0, p["tmax"], p["steps"])
    tol = state_tol(channel, rho0, p, exact)
    floor = p["two_j"] / (p["two_j"] + 1.0)

    def row_ok(a, k):
        row = a[k]
        rho = _state_from_columns(row[1:1 + n_state], dim)
        if len(a) != p["steps"] + 1 or np.abs(rho - exact[k]).max() > tol:
            return False
        if not close(row[0], gamma_bar * k * p["tmax"] / p["steps"], 1e-12, 1e-15):
            return False
        sigma, phi, _ = ref.quad_rates(channel, rho, grid)
        sigma_vn, _, _ = ref.vn_rates(channel, rho)
        scale = 1e-10 * (abs(sigma) + abs(phi) + 1.0)
        return (
            row[col["sigma_quad"]] >= 0.0
            and row[col["s_q"]] >= floor - 1e-12
            and close(row[col["s_q"]], ref.wehrl_entropy(rho, grid), RTOL)
            and close(row[col["s_vn"]], ref.vn_entropy(rho), RTOL, 1e-12)
            and close(row[col["c_l1"]], ref.l1(rho), RTOL, 1e-12)
            and close(row[col["sigma_quad"]], sigma, RTOL, scale)
            and close(row[col["phi_dot"]], phi, RTOL, scale)
            and close(row[col["sigma_vn"]], sigma_vn, RTOL, scale)
            and row[col["warnings_count"]] >= 0
        )

    return [Table("trajectory", a, row_ok, col["sigma_quad"], states=len(a))]


def sweep_tables(out_dir, inputs, sp):
    p = wl.SWEEP
    dim = p["two_j"] + 1
    grid = ref.Grid(*p["grid"])
    targets = np.linspace(0.0, p["c_max"], p["points"])
    states = [sp.spins.random_state_with_coherence(dim, float(c), inputs["state_seed"]) for c in targets]
    tables = []
    for kind in ("dephasing", "damping"):
        _, a = load_csv(os.path.join(out_dir, f"sweep_{kind}.csv"))
        channel = ("dephasing", p["lam"]) if kind == "dephasing" else ("damping", p["gamma"], p["nbar"])

        def row_ok(a, k, channel=channel):
            c_fig, c_l1, sigma_w, sigma_vn = a[k]
            if len(a) != p["points"] or not math.isnan(c_fig):
                return False
            rho = states[k]
            sigma, _, _ = ref.quad_rates(channel, rho, grid)
            sigma_ref_vn, _, _ = ref.vn_rates(channel, rho)
            scale = 1e-10 * (abs(sigma) + 1.0)
            return (
                sigma_w >= 0.0
                and close(c_l1, targets[k], 0.0, 1e-6)
                and close(c_l1, ref.l1(rho), RTOL, 1e-12)
                and close(sigma_w, sigma, RTOL, scale)
                and close(sigma_vn, sigma_ref_vn, RTOL, scale)
            )

        tables.append(Table(f"sweep_{kind}", a, row_ok, 2, states=len(a)))
    return tables


def _vn_qubit_check(kind, rho0, sp):
    """Check of one two_j = 1 vn_route row against the closed Bloch solution and vN rate."""
    ep, dyn, p = sp.entropy_production, sp.dynamics, wl.VN
    tau0 = sp.spins.rho_to_bloch(rho0)
    if kind == "dephasing":
        def bloch(t):
            return dyn.qubit_dephasing_bloch(tau0, p["lam"], t)

        def rate(tau):
            return ep.ep_vn_qubit_dephasing(tau, p["lam"])
    else:
        if kind == "damping":
            bath = ep.BathParams.from_nbar(p["gamma"], p["nbar"])

            def bloch(t):
                return dyn.qubit_damping_bloch(tau0, bath.gamma, bath.nbar, t)
        else:
            bath = ep.BathParams.from_tau_bar(p["gamma_bar"], 0.0)

            def bloch(t):
                # infinite temperature: transverse decay at gamma_bar/2, tau_z at gamma_bar, towards 0
                decay = np.exp(-bath.gamma_bar * t * np.array([0.5, 0.5, 1.0]))
                return tau0 * decay

        def rate(tau):
            return ep.ep_vn_qubit_damping(tau, bath)

    def ok(state, sigma, t):
        tau = sp.spins.rho_to_bloch(state)
        return np.abs(tau - bloch(t)).max() <= CLOSED_STATE_TOL and close(sigma, rate(tau), QUBIT_TOL)

    return ok


def vn_tables(out_dir, inputs, sp):
    p = wl.VN
    saved = np.load(os.path.join(out_dir, "vn_route.npz"))
    times = np.linspace(0.0, p["tmax"], p["steps"] + 1)
    tables = []
    for i, combo in enumerate(inputs["combos"]):
        states, rates = saved[f"states_{i}"], saved[f"rates_{i}"]
        channel = wl.reference_channel(combo["channel"])
        rho0 = sp.spins.random_state_with_coherence(combo["two_j"] + 1, combo["coherence"], combo["state_seed"])
        exact = ref.exact_trajectory(channel, rho0, p["tmax"], p["steps"])
        tol = state_tol(channel, rho0, p, exact)
        qubit_ok = _vn_qubit_check(combo["channel"], rho0, sp) if combo["two_j"] == 1 else None

        def row_ok(rates, k, states=states, exact=exact, tol=tol, channel=channel, qubit_ok=qubit_ok):
            if len(rates) != p["steps"] + 1 or np.abs(states[k] - exact[k]).max() > tol:
                return False
            sigma, phi, ds_dt = rates[k]
            expected = ref.vn_rates(channel, states[k])
            scale = 1e-10 * (abs(expected[0]) + abs(expected[1]) + 1.0)
            return (
                sigma >= -scale
                and abs(sigma - phi - ds_dt) <= scale
                and all(close(rates[k, i], expected[i], RTOL, scale) for i in range(3))
                and (qubit_ok is None or qubit_ok(states[k], sigma, times[k]))
            )

        label = "vn_%s_2j%d" % (combo["channel"], combo["two_j"])
        tables.append(Table(label, rates, row_ok, 0, states=len(rates)))
    return tables


def check(name, inputs, out_dir, sp):
    """(tables, rim_err) for a workload's outputs; rim_err is None off figures_qubit."""
    if name == "figures_qubit":
        return figure_tables(out_dir, sp)
    if name == "trajectory_spin4":
        return trajectory_tables(out_dir, inputs, sp), None
    if name == "sweep_spin4":
        return sweep_tables(out_dir, inputs, sp), None
    return vn_tables(out_dir, inputs, sp), None
