"""Command-line front end: figure CSVs, trajectory runs, coherence sweeps.

Every output is a CSV with `#`-prefixed metadata, full-precision floats, and
a trailing comment block of collected warnings, so a run can be audited and
reproduced byte for byte from the file alone.
"""

import argparse
import math
import os
import sys
import warnings
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from . import __version__
from .dynamics import (
    AmplitudeDampingChannel,
    BathParams,
    DephasingChannel,
    UnitaryChannel,
    damping_stationary_state,
    evolve,
    qubit_damping_bloch,
    qubit_dephasing_bloch,
)
from .entropy_production import (
    ep_qubit_damping_closed,
    ep_qubit_dephasing_closed,
    ep_rate_damping_quad,
    ep_rate_dephasing_quad,
    ep_vn_general,
    ep_vn_qubit_damping,
    ep_vn_qubit_dephasing,
    sigma_damping_quad,
    vn_rate_dephasing,
)
from .errors import (
    BandLimitError,
    PositivityWarning,
    PurityDivergence,
    QFloorWarning,
    StepCountError,
    SupportError,
    TemperatureDivergence,
)
from .phase_space import SphereGrid, husimi_field, wehrl_entropy
from .spins import (
    PAULI_X,
    SpinJ,
    bloch_to_rho,
    check_density_matrix,
    l1_coherence,
    make_spin_operators,
    random_state_with_coherence,
    rho_to_bloch,
    von_neumann_entropy,
)

FMT = "%.17e"


class CliError(Exception):
    """Configuration error; message names the offending flag."""


def _parse_j(text: str) -> SpinJ:
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            value = float(num) / float(den)
        else:
            value = float(text)
        two_j = round(2.0 * value)
        if abs(2.0 * value - two_j) > 1e-9 or two_j < 1:
            raise ValueError
        return SpinJ(two_j)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"--j: expected a positive integer or half-integer, got {text!r}") from None


def _parse_grid(text: str) -> tuple:
    try:
        n_theta, n_phi = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise CliError(f"--grid: expected NTHETAxNPHI like 64x64, got {text!r}") from None
    return n_theta, n_phi


def _grid_for(text: str, j: SpinJ) -> SphereGrid:
    """The --grid sphere grid, checked against the spin's band limit before any work is done."""
    try:
        grid = SphereGrid(*_parse_grid(text))
    except ValueError as exc:
        raise CliError(f"--grid: {exc}") from None
    grid.check_band_limit(j)
    return grid


def _parse_bloch(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise CliError(f"--bloch: expected X,Y,Z, got {text!r}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise CliError(f"--bloch: non-numeric component in {text!r}") from None


def read_state_file(path: str) -> np.ndarray:
    """Parse the plain-text state format: `dim d`, then d rows of d complex tokens."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("dim"):
        raise CliError(f"--state: {path}: first line must be 'dim d'")
    try:
        dim = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise CliError(f"--state: {path}: first line must be 'dim d'") from None
    if len(lines) != 1 + dim:
        raise CliError(f"--state: {path}: expected {dim} matrix rows, found {len(lines) - 1}")
    rows = []
    for i, ln in enumerate(lines[1:]):
        tokens = ln.split()
        if len(tokens) != dim:
            raise CliError(f"--state: {path}: row {i} has {len(tokens)} entries, expected {dim}")
        try:
            rows.append([complex(tok) for tok in tokens])
        except ValueError:
            raise CliError(f"--state: {path}: row {i}: unparsable complex token") from None
    return np.array(rows, dtype=complex)


def _run_tasks(tasks, deterministic: bool) -> list:
    """Evaluate a list of thunks in order, on this thread.

    Every run is single-threaded, so deterministic has no effect; the
    two-argument call is what bench/tracer.py wraps to time the rows.
    """
    return [task() for task in tasks]


def _row_format(row) -> str:
    """The %-format of a table's rows, read from its first row: %d for ints, %s for text, FMT otherwise."""
    kinds = ("%d" if isinstance(v, (int, np.integer)) else "%s" if isinstance(v, str) else FMT for v in row)
    return ",".join(kinds) + "\n"


def write_csv(path: str, metadata: dict, header: list, rows: list, notes: list) -> None:
    """CSV with '#' metadata lines, one header row, %.17e numbers, trailing warnings.

    Every row has the cell kinds of the first; None and NaN cells read nan.
    """
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(metadata):
            fh.write(f"# {key} = {metadata[key]}\n")
        fh.write(",".join(header) + "\n")
        if rows:
            fmt = _row_format(rows[0])
            fh.writelines(fmt % tuple(math.nan if v is None else v for v in row) for row in rows)
        for note in notes:
            fh.write(f"# warning: {note}\n")


class _Rates(NamedTuple):
    """A channel with its rates bound: the one place the CLI tells channel kinds apart.

    quad(field) is the quadrature EpReport and sigma(field) the quadrature
    production rate alone (sigma_dot and warnings, without dS/dt),
    closed(tau) the qubit closed form, vn(rho, tau) the von Neumann rate
    (its qubit closed form when tau is given), time the scaled-time column
    (name, scale) and meta the rate metadata.  The bound functions look the library functions up as module
    globals when they run, so whatever is bound to those names then (the
    benchmark's tracer, say) sees every call.
    """

    channel: object
    quad: Callable
    sigma: Callable
    closed: Callable
    vn: Callable
    time: tuple
    meta: dict

    def sigma_vn(self, rho, tau) -> float:
        """von Neumann production rate, or NaN where the route is divergent or undefined."""
        try:
            return self.vn(rho, tau)
        except (PurityDivergence, TemperatureDivergence, SupportError):
            return math.nan


def _dephasing(lam: float, j: SpinJ) -> _Rates:
    channel = DephasingChannel(lam=lam, ops=make_spin_operators(j))

    def vn(rho, tau):
        if tau is not None:
            return ep_vn_qubit_dephasing(tau, lam)
        return vn_rate_dephasing(rho, lam, channel.ops)

    def quad(field):
        return ep_rate_dephasing_quad(field, lam, j)

    return _Rates(
        channel=channel,
        quad=quad,
        sigma=quad,
        closed=lambda tau: ep_qubit_dephasing_closed(tau, lam),
        vn=vn,
        time=("lambda_t", lam) if lam > 0 else ("t", 1.0),
        meta={"lambda": repr(lam)},
    )


def _damping(bath: BathParams, j: SpinJ, meta: dict) -> _Rates:
    channel = bath.channel(make_spin_operators(j))
    rho_eq = damping_stationary_state(j, bath.nbar)

    def vn(rho, tau):
        if tau is not None:
            return ep_vn_qubit_damping(tau, bath)
        return ep_vn_general(rho, channel, rho_eq).sigma_dot

    return _Rates(
        channel=channel,
        quad=lambda field: ep_rate_damping_quad(field, bath, j),
        sigma=lambda field: sigma_damping_quad(field, bath, j),
        closed=lambda tau: ep_qubit_damping_closed(tau, bath),
        vn=vn,
        time=("gamma_bar_t", bath.gamma_bar) if bath.gamma_bar > 0 else ("t", 1.0),
        meta=meta,
    )


def _build_channel(args, j: SpinJ) -> _Rates:
    """Channel and bound rates from the rate flags; the library range-checks the rates."""
    if args.channel == "dephasing":
        if args.lam is None:
            raise CliError("--lambda is required for --channel dephasing")
        return _dephasing(args.lam, j)
    if args.tau_bar_z is not None:
        if args.gamma is not None or args.nbar is not None:
            raise CliError("--tau-bar-z is mutually exclusive with --gamma/--nbar")
        bath = BathParams.from_tau_bar(1.0, args.tau_bar_z)
        return _damping(bath, j, {"tau_bar_z": repr(args.tau_bar_z), "gamma_bar": repr(1.0)})
    if args.gamma is None or args.nbar is None:
        raise CliError("--channel damping needs --gamma and --nbar (or --tau-bar-z)")
    bath = BathParams.from_nbar(args.gamma, args.nbar)
    return _damping(bath, j, {"gamma": repr(args.gamma), "nbar": repr(args.nbar)})


def _rows_and_notes(tasks) -> tuple:
    """Run row thunks, each returning (row, floor notes), with QFloorWarning silenced.

    Returns the rows in order and the distinct notes in first-seen order,
    which the CSV carries as its trailing warning lines.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QFloorWarning)
        results = _run_tasks(tasks, True)
    return [row for row, _ in results], list(dict.fromkeys(note for _, notes in results for note in notes))


def _initial_state(args, j: SpinJ) -> np.ndarray:
    given = [args.bloch is not None, args.state is not None, args.coherence is not None or args.seed is not None]
    if sum(given) != 1:
        raise CliError("exactly one of --bloch, --state, or --seed with --coherence must be given")
    if args.bloch is not None:
        if j.dim != 2:
            raise CliError("--bloch: only valid for --j 1/2")
        return bloch_to_rho(_parse_bloch(args.bloch))
    if args.state is not None:
        rho = read_state_file(args.state)
        if rho.shape[0] != j.dim:
            raise CliError(f"--state: dimension {rho.shape[0]} does not match --j (dim {j.dim})")
        return check_density_matrix(rho)
    if args.coherence is None or args.seed is None:
        raise CliError("--seed and --coherence must be given together")
    return random_state_with_coherence(j.dim, args.coherence, args.seed)


def _common_metadata(args, j: SpinJ, grid: SphereGrid, rates: _Rates) -> dict:
    return {
        "channel": args.channel,
        "two_j": j.two_j,
        "grid": f"{grid.n_theta}x{grid.n_phi}",
        "deterministic": args.deterministic,
        "version": __version__,
        **rates.meta,
    }


def _state_columns(j: SpinJ) -> list:
    if j.dim == 2:
        return ["tau_x", "tau_y", "tau_z"]
    cols = []
    for i in range(j.dim):
        for k in range(i, j.dim):
            cols.append(f"rho_{i}{k}_re")
            if k > i:
                cols.append(f"rho_{i}{k}_im")
    return cols


def _state_values(rho, j: SpinJ) -> list:
    if j.dim == 2:
        return list(rho_to_bloch(rho))
    vals = []
    for i in range(j.dim):
        for k in range(i, j.dim):
            vals.append(rho[i, k].real)
            if k > i:
                vals.append(rho[i, k].imag)
    return vals


def cmd_evolve(args) -> int:
    j = _parse_j(args.j)
    grid = _grid_for(args.grid, j)
    rates = _build_channel(args, j)
    rho0 = _initial_state(args, j)
    if args.tmax <= 0:
        raise CliError("--tmax: must be > 0")
    with warnings.catch_warnings():
        warnings.simplefilter("error", PositivityWarning)
        try:
            traj = evolve(rates.channel, rho0, args.tmax, args.steps)
        except PositivityWarning as exc:
            # every later state check rejects the same eigenvalue, so the run cannot go on
            raise CliError(f"--steps: {exc}") from None
    t_name, t_scale = rates.time
    is_qubit = j.dim == 2

    def row_for(t, rho):
        field = husimi_field(rho, grid)
        report = rates.quad(field)
        tau = rho_to_bloch(rho) if is_qubit else None
        row = [t * t_scale, *_state_values(rho, j)]
        row += [von_neumann_entropy(rho), wehrl_entropy(field), l1_coherence(rho), report.sigma_dot]
        if is_qubit:
            row.append(rates.closed(tau))
        row += [rates.sigma_vn(rho, tau), report.phi_dot, len(report.warnings)]
        return row, report.warnings

    tasks = [lambda t=t, rho=rho: row_for(t, rho) for t, rho in zip(traj.times, traj.states)]
    rows, notes = _rows_and_notes(tasks)

    header = [t_name] + _state_columns(j) + ["s_vn", "s_q", "c_l1", "sigma_quad"]
    if is_qubit:
        header.append("sigma_closed")
    header += ["sigma_vn", "phi_dot", "warnings_count"]

    meta = _common_metadata(args, j, grid, rates)
    meta.update({"command": "evolve", "tmax": repr(args.tmax), "steps": args.steps})
    if args.seed is not None:
        meta["seed"] = args.seed
        meta["coherence"] = repr(args.coherence)
    if args.bloch is not None:
        meta["bloch"] = args.bloch
    if args.state is not None:
        meta["state_file"] = os.path.basename(args.state)
    write_csv(args.out, meta, header, rows, notes)
    return 0


SWEEP_HEADER = ["coherence_fig", "coherence_l1", "sigma_wehrl", "sigma_vn"]


def _sweep_row(rates: _Rates, grid: SphereGrid, rho, tau, coherence_fig: float) -> tuple:
    report = rates.sigma(husimi_field(rho, grid))
    return [coherence_fig, l1_coherence(rho), report.sigma_dot, rates.sigma_vn(rho, tau)], report.warnings


def _sweep_rows_qubit(rates: _Rates, grid: SphereGrid, tau_z: float, n_points: int) -> tuple:
    """Transverse-coherence sweep at fixed tau_z, up to the pure-state boundary."""
    perp_max = math.sqrt(max(0.0, 1.0 - tau_z * tau_z))

    def row_for(perp):
        tau = np.array([perp, 0.0, tau_z])
        return _sweep_row(rates, grid, bloch_to_rho(tau), tau, 2.0 * perp * perp)

    return _rows_and_notes([lambda p=p: row_for(p) for p in np.linspace(0.0, perp_max, n_points)])


def _sweep_rows_random(rates: _Rates, j: SpinJ, grid: SphereGrid, c_max, n_points, seed) -> tuple:
    """Random-state sweep over l1-coherence targets for dimensions above 2."""

    def row_for(target):
        return _sweep_row(rates, grid, random_state_with_coherence(j.dim, float(target), seed), None, math.nan)

    return _rows_and_notes([lambda c=c: row_for(c) for c in np.linspace(0.0, c_max, n_points)])


def cmd_sweep_coherence(args) -> int:
    j = _parse_j(args.j)
    grid = _grid_for(args.grid, j)
    rates = _build_channel(args, j)
    if args.points < 2:
        raise CliError("--points: need at least 2 sweep points")
    if j.dim == 2:
        tau_z = 0.0
        if args.bloch is not None:
            tau_z = float(_parse_bloch(args.bloch)[2])
            if abs(tau_z) > 1.0:
                raise CliError("--bloch: |tau_z| must be <= 1")
        rows, notes = _sweep_rows_qubit(rates, grid, tau_z, args.points)
    else:
        if args.seed is None or args.coherence is None:
            raise CliError("dim > 2 sweeps need --seed and --coherence (the sweep's maximum)")
        rows, notes = _sweep_rows_random(rates, j, grid, args.coherence, args.points, args.seed)

    meta = _common_metadata(args, j, grid, rates)
    meta.update({"command": "sweep-coherence", "points": args.points})
    if args.seed is not None:
        meta["seed"] = args.seed
    if args.coherence is not None:
        meta["coherence_max"] = repr(args.coherence)
    if args.bloch is not None:
        meta["bloch"] = args.bloch
    write_csv(args.out, meta, SWEEP_HEADER, rows, notes)
    return 0


FIG_GRID = (128, 128)
FIG3_COHERENCES = (0.3, 0.6, 0.9, 1.2, 1.5, 1.8)
FIG4_COHERENCES = (0.2, 0.4, 0.6, 0.8)
FIG4_SEED = 2


def _fig1(out_dir: str) -> None:
    """Closed vs damped qubit observables: H = (omega0/2) sigma_x against a thermal bath."""
    omega0 = 1.0
    j = SpinJ(1)
    ops = make_spin_operators(j)
    rho0 = bloch_to_rho([0.0, 0.0, 1.0])
    closed = evolve(UnitaryChannel(hamiltonian=0.5 * omega0 * PAULI_X), rho0, 20.0, 2000)
    damped = evolve(AmplitudeDampingChannel(gamma=0.5, nbar=0.5, ops=ops), rho0, 20.0, 2000)
    rows = [
        [t, *tc, *td]
        for t, tc, td in zip(closed.times, rho_to_bloch(closed.states), rho_to_bloch(damped.states))
    ]
    meta = {
        "command": "fig",
        "figure": 1,
        "omega0": repr(omega0),
        "gamma": repr(0.5),
        "nbar": repr(0.5),
        "gamma_bar": repr(1.0),
        "steps": 2000,
        "tmax": repr(20.0),
        "version": __version__,
        "note": "damped trajectory is dissipator-only so the fixed point is (0, 0, tau_bar_z)",
    }
    header = ["t", "sx_closed", "sy_closed", "sz_closed", "sx_damped", "sy_damped", "sz_damped"]
    write_csv(os.path.join(out_dir, "fig1_observables.csv"), meta, header, rows, [])


def _fig2(out_dir: str) -> None:
    """Wehrl vs vN production rates across the coherence sweep, both channels."""
    j = SpinJ(1)
    grid = SphereGrid(*FIG_GRID)
    for name, rates in (
        ("dephasing", _dephasing(1.0, j)),
        ("damping", _damping(BathParams.from_tau_bar(1.0, 0.0), j, {"gamma_bar": repr(1.0)})),
    ):
        rows, notes = _sweep_rows_qubit(rates, grid, 0.0, 51)
        meta = {
            "command": "fig",
            "figure": 2,
            "panel": name,
            "tau_z": repr(0.0),
            "tau_bar_z": repr(0.0),
            "grid": f"{grid.n_theta}x{grid.n_phi}",
            "points": 51,
            "version": __version__,
            **rates.meta,
        }
        write_csv(os.path.join(out_dir, f"fig2_{name}.csv"), meta, SWEEP_HEADER, rows, notes)


def _curve_row(rates: _Rates, grid: SphereGrid, t: float, states) -> tuple:
    """Row [t, sigma of each state] of a figure's rate curves, with its floor notes."""
    reports = [rates.sigma(husimi_field(rho, grid)) for rho in states]
    return [t] + [r.sigma_dot for r in reports], [note for r in reports for note in r.warnings]


def _write_curves(path: str, rates: _Rates, tasks, coherences, meta: dict) -> None:
    """Run a figure panel's curve rows and write them under the shared figure metadata."""
    rows, notes = _rows_and_notes(tasks)
    header = [rates.time[0]] + [f"sigma_c_{c:g}" for c in coherences]
    meta = {
        "command": "fig",
        "grid": "%dx%d" % FIG_GRID,
        "coherences": ",".join(f"{c:g}" for c in coherences),
        "version": __version__,
        **rates.meta,
        **meta,
    }
    write_csv(path, meta, header, rows, notes)


def _fig3(out_dir: str) -> None:
    """Qubit production-rate curves over time from the closed Bloch solutions, one per initial coherence."""
    j = SpinJ(1)
    grid = SphereGrid(*FIG_GRID)
    times = np.linspace(0.0, 5.0, 251)
    lam, tau_sq = 1.0, 0.9
    gamma, nbar, tau_z0 = 0.5, 0.5, 0.1
    bath = BathParams.from_nbar(gamma, nbar)
    # (panel, rates, initial Bloch vector of a coherence, closed Bloch solution, panel metadata)
    panels = (
        (
            "dephasing",
            _dephasing(lam, j),
            lambda c: [math.sqrt(c / 2.0), 0.0, math.sqrt(tau_sq - c / 2.0)],
            lambda tau0, t: qubit_dephasing_bloch(tau0, lam, t),
            {"tau_sq": repr(tau_sq)},
        ),
        (
            "damping",
            _damping(bath, j, {"gamma": repr(gamma), "nbar": repr(nbar), "gamma_bar": repr(bath.gamma_bar)}),
            lambda c: [math.sqrt(c / 2.0), 0.0, tau_z0],
            lambda tau0, t: qubit_damping_bloch(tau0, gamma, nbar, t),
            {"tau_z0": repr(tau_z0)},
        ),
    )
    for name, rates, initial, bloch, meta in panels:
        scale = rates.time[1]
        tau0s = [initial(c) for c in FIG3_COHERENCES]

        def row_for(t, rates=rates, bloch=bloch, scale=scale, tau0s=tau0s):
            return _curve_row(rates, grid, t, [bloch_to_rho(bloch(tau0, t / scale)) for tau0 in tau0s])

        tasks = [lambda t=t: row_for(t) for t in times]
        meta = {"figure": 3, "panel": name, **meta}
        _write_curves(os.path.join(out_dir, f"fig3_{name}.csv"), rates, tasks, FIG3_COHERENCES, meta)


def _fig4(out_dir: str) -> None:
    """Qutrit production-rate curves for random states at fixed coherence targets."""
    j = SpinJ(2)
    grid = SphereGrid(*FIG_GRID)
    lam, gamma, nbar = 1.0, 0.5, 0.5
    bath = BathParams.from_nbar(gamma, nbar)
    n_steps = 250
    states = [random_state_with_coherence(3, c, FIG4_SEED) for c in FIG4_COHERENCES]
    panels = (
        ("dephasing", _dephasing(lam, j)),
        ("damping", _damping(bath, j, {"gamma": repr(gamma), "nbar": repr(nbar), "gamma_bar": repr(bath.gamma_bar)})),
    )
    for name, rates in panels:
        scale = rates.time[1]
        trajs = [evolve(rates.channel, rho0, 5.0 / scale, n_steps) for rho0 in states]

        def row_for(i, rates=rates, scale=scale, trajs=trajs):
            return _curve_row(rates, grid, scale * trajs[0].times[i], [traj.states[i] for traj in trajs])

        tasks = [lambda i=i: row_for(i) for i in range(n_steps + 1)]
        meta = {"figure": 4, "panel": name, "seed": FIG4_SEED, "steps": n_steps}
        _write_curves(os.path.join(out_dir, f"fig4_{name}.csv"), rates, tasks, FIG4_COHERENCES, meta)


def cmd_fig(args) -> int:
    builders = {1: _fig1, 2: _fig2, 3: _fig3, 4: _fig4}
    if args.id not in builders:
        raise CliError("--id: must be 1, 2, 3, or 4")
    os.makedirs(args.out, exist_ok=True)
    builders[args.id](args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spinphase", description="Spin phase-space entropy production toolkit")
    parser.add_argument("--version", action="version", version=f"spinphase {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("fig", help="write one of the four reference figure datasets as CSV")
    fig.add_argument("--id", type=int, required=True, help="figure number, 1-4")
    fig.add_argument("--out", required=True, help="output directory")

    def add_run_flags(p):
        p.add_argument("--channel", choices=["dephasing", "damping"], required=True)
        p.add_argument("--j", default="1/2", help="spin as integer or half-integer, e.g. 1/2, 1, 3/2")
        p.add_argument("--bloch", help="initial qubit Bloch vector X,Y,Z")
        p.add_argument("--state", help="initial state file (dim d header, complex entries)")
        p.add_argument("--seed", type=int, help="seed for the random initial state")
        p.add_argument("--coherence", type=float, help="l1-coherence target for the random state")
        p.add_argument("--lambda", dest="lam", type=float, help="dephasing rate")
        p.add_argument("--gamma", type=float, help="damping rate")
        p.add_argument("--nbar", type=float, help="bath occupation")
        p.add_argument("--tau-bar-z", type=float, help="bath polarization in [-1, 0]; fixes gamma_bar = 1")
        p.add_argument("--grid", default="64x64", help="quadrature grid NTHETAxNPHI")
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--deterministic", action="store_true", help="no effect (every run is single-threaded)")

    ev = sub.add_parser("evolve", help="integrate a trajectory and tabulate entropy rates")
    add_run_flags(ev)
    ev.add_argument("--tmax", type=float, default=5.0, help="integration time (raw units)")
    ev.add_argument("--steps", type=int, default=500, help="number of integrator steps")

    sw = sub.add_parser("sweep-coherence", help="production rates across initial coherence values")
    add_run_flags(sw)
    sw.add_argument("--points", type=int, default=51, help="number of sweep points")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "fig":
            return cmd_fig(args)
        if args.command == "evolve":
            return cmd_evolve(args)
        return cmd_sweep_coherence(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except BandLimitError as exc:
        print(f"error: --grid: {exc}", file=sys.stderr)
        return 2
    except StepCountError as exc:
        print(f"error: --steps: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
