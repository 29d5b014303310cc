"""Command-line front end: figure CSVs, trajectory runs, coherence sweeps.

Every output is a CSV with `#`-prefixed metadata, full-precision floats, and
a trailing comment block of collected warnings, so a run can be audited and
reproduced byte for byte from the file alone.  State-only columns, and the
von Neumann column at every spin, each take one pass over a table's stack.
The phase-space columns (Husimi fields, quadrature rates, Wehrl entropy)
take the stack in blocks of at most BLOCK_NODES grid nodes, each block one
stacked call of each library function: one state per block at 128^2,
sixteen at 32^2, so a block's temporaries stay those of one 128^2 field.
One Husimi field per block serves every channel of a table, so fig 2's
two panels, which share their states, take one pass.
"""

import argparse
import functools
import math
import os
import re
import sys
import warnings
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from . import __version__
from .dynamics import (
    BathParams,
    DephasingChannel,
    UnitaryChannel,
    evolve,
    qubit_damping_bloch,
    qubit_dephasing_bloch,
)
from .dynamics import damping_stationary_state  # noqa: F401  (bench/tracer.py wraps this name)
from .entropy_production import (
    ep_qubit_damping_closed,
    ep_qubit_dephasing_closed,
    ep_rate_damping_quad,
    ep_rate_dephasing_quad,
    vn_rates,
)
from .entropy_production import ep_vn_general, vn_rate_dephasing  # noqa: F401  (bench/tracer.py wraps these names)
from .entropy_production import ep_vn_qubit_damping, ep_vn_qubit_dephasing  # noqa: F401  (bench/tracer.py wraps these)
from .errors import (
    PositivityWarning,
    QFloorWarning,
    StepCountError,
    TemperatureDivergence,
    UnreachableCoherence,
)
from .phase_space import SphereGrid, husimi_field, wehrl_entropy
from .spins import (
    PAULI_X,
    SpinJ,
    bloch_to_rho,
    check_bloch_vector,
    check_density_matrix,
    l1_coherence,
    make_spin_operators,
    random_state_with_coherence,
    rho_to_bloch,
    von_neumann_entropy,
)

FMT = "%.17e"
# grid nodes per stacked phase-space call; at 128 x 128 a block holds one state
BLOCK_NODES = 128 * 128


class CliError(ValueError):
    """Configuration error; message names the offending flag.  main reports it as it does the library's ValueErrors."""


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
    except (ValueError, ZeroDivisionError, OverflowError):
        raise CliError(f"--j: expected a positive integer or half-integer, got {text!r}") from None


def _grid_for(text: str, j: SpinJ) -> SphereGrid:
    """The --grid sphere grid, checked against the spin's band limit before any work is done.

    A grid too large to allocate is a --grid error too.
    """
    try:
        n_theta, n_phi = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise CliError(f"--grid: expected NTHETAxNPHI like 64x64, got {text!r}") from None
    try:
        grid = SphereGrid(n_theta, n_phi)
        grid.check_band_limit(j)
    except (ValueError, MemoryError) as exc:
        raise CliError(f"--grid: {exc}") from None
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

    Every row has the cell kinds of the first, whose format string then
    formats each row in one %; a missing value is a NaN cell, which reads nan.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(metadata):
            fh.write(f"# {key} = {metadata[key]}\n")
        fh.write(",".join(header) + "\n")
        if rows:
            fmt = _row_format(rows[0])
            fh.writelines(fmt % tuple(row) for row in rows)
        for note in notes:
            fh.write(f"# warning: {note}\n")


class _Rates(NamedTuple):
    """A channel with its rates bound: the one place the CLI tells channel kinds apart.

    quad(field) is the quadrature EpReport, closed(tau) the qubit closed
    form of the phase-space rate, sigma_vn(states) the von Neumann column of
    any table, time the scaled-time column (name, scale) and meta the rate
    metadata.  The bound functions look the library functions up as module
    globals when they run, so whatever is bound to those names then (the
    benchmark's tracer, say) sees every call.
    """

    channel: object
    quad: Callable
    closed: Callable
    time: tuple
    meta: dict

    def sigma_vn(self, states) -> list:
        """Von Neumann rates of a stack, one vn_rates pass; NaN at a rank-deficient state, or all NaN if divergent."""
        try:
            return vn_rates(states, self.channel)[0].tolist()
        except TemperatureDivergence:
            return [math.nan] * len(states)


def _dephasing(lam: float, j: SpinJ) -> _Rates:
    channel = DephasingChannel(lam=lam, ops=make_spin_operators(j))
    return _Rates(
        channel=channel,
        quad=lambda field: ep_rate_dephasing_quad(field, channel),
        closed=lambda tau: ep_qubit_dephasing_closed(tau, lam),
        time=("lambda_t", lam) if lam > 0 else ("t", 1.0),
        meta={"lambda": repr(lam)},
    )


def _damping(bath: BathParams, j: SpinJ, meta: dict) -> _Rates:
    channel = bath.channel(make_spin_operators(j))
    return _Rates(
        channel=channel,
        quad=lambda field: ep_rate_damping_quad(field, channel),
        closed=lambda tau: ep_qubit_damping_closed(tau, bath),
        time=("gamma_bar_t", bath.gamma_bar) if bath.gamma_bar > 0 else ("t", 1.0),
        meta=meta,
    )


def _reject_unread(flags: dict, reader: str) -> None:
    """Raise a CliError naming the first of flags ({flag: parsed value}) that was given: reader never reads it."""
    for flag, value in flags.items():
        if value is not None:
            raise CliError(f"{flag}: not read by {reader}")


def _reject_overflow(header: list, rows: list, rates: _Rates) -> None:
    """Raise a CliError naming the rate flags if a cell of rows is +-inf; nan cells are the documented classes."""
    infinite = np.isinf(np.array(rows, dtype=float))
    if infinite.any():
        row, column = np.argwhere(infinite)[0]
        # a run's rate flags are its rate metadata keys; gamma_bar is fixed by --tau-bar-z, not given
        flags = "/".join("--" + key.replace("_", "-") for key in rates.meta if key != "gamma_bar")
        raise CliError(f"{flags}: the rates overflow: {header[column]} is infinite in row {row}")


def _build_channel(args, j: SpinJ) -> _Rates:
    """Channel and bound rates from the rate flags (the library range-checks the rates), its generator built.

    Every table reads the d^2 x d^2 generator, so a --j too large to
    allocate it is named here, before any other work.
    """
    if args.channel == "dephasing":
        unread = {"--gamma": args.gamma, "--nbar": args.nbar, "--tau-bar-z": args.tau_bar_z}
        _reject_unread(unread, "--channel dephasing")
        if args.lam is None:
            raise CliError("--lambda is required for --channel dephasing")
        rates = _dephasing(args.lam, j)
    else:
        _reject_unread({"--lambda": args.lam}, "--channel damping")
        if args.tau_bar_z is not None:
            if args.gamma is not None or args.nbar is not None:
                raise CliError("--tau-bar-z is mutually exclusive with --gamma/--nbar")
            bath = BathParams.from_tau_bar(1.0, args.tau_bar_z)
            rates = _damping(bath, j, {"tau_bar_z": repr(args.tau_bar_z), "gamma_bar": repr(1.0)})
        elif args.gamma is None or args.nbar is None:
            raise CliError("--channel damping needs --gamma and --nbar (or --tau-bar-z)")
        else:
            bath = BathParams.from_nbar(args.gamma, args.nbar)
            rates = _damping(bath, j, {"gamma": repr(args.gamma), "nbar": repr(args.nbar)})
    try:
        rates.channel.generator
    except MemoryError as exc:
        raise CliError(f"--j: {exc}") from None
    return rates


class _PhaseSpace(NamedTuple):
    """The phase-space columns of a table's states, one entry per state; s_q is None unless asked for."""

    sigma: list
    phi_dot: list
    s_q: list | None
    notes: list


def _run_rows(rates: tuple, grid: SphereGrid, states, with_entropy: bool = False) -> list:
    """The phase-space columns of a table's rows under each channel of rates, from its (N, d, d) stack.

    The stack is run in blocks of at most BLOCK_NODES grid nodes (at least
    one state each), with QFloorWarning silenced.  Every block is one
    stacked Husimi field that every channel reads: one quadrature report
    per channel and, with_entropy, one Wehrl entropy call.  Returns, per
    channel, its columns (_PhaseSpace) and its distinct floor notes in
    first-seen order, which the CSV carries as its trailing warning lines.
    """
    states = np.asarray(states, dtype=complex)
    size = max(1, BLOCK_NODES // (grid.n_theta * grid.n_phi))

    def block(lo):
        field = husimi_field(states[lo : lo + size], grid)
        return [channel.quad(field) for channel in rates], wehrl_entropy(field) if with_entropy else None

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QFloorWarning)
        results = _run_tasks([functools.partial(block, lo) for lo in range(0, len(states), size)], True)
    s_q = np.concatenate([s_q for _, s_q in results]).tolist() if with_entropy else None
    tables = []
    # one channel's reports, block by block
    for reports in zip(*(block_reports for block_reports, _ in results)):
        notes = [state_notes for report in reports for state_notes in report.warnings]
        phase = _PhaseSpace(
            sigma=np.concatenate([report.sigma_dot for report in reports]).tolist(),
            phi_dot=np.concatenate([report.phi_dot for report in reports]).tolist(),
            s_q=s_q,
            notes=notes,
        )
        tables.append((phase, list(dict.fromkeys(note for state_notes in notes for note in state_notes))))
    return tables


def _spaced(stop: float, points: int) -> np.ndarray:
    """A sweep's --points values from 0 to stop; a count too large to allocate names --points."""
    try:
        return np.linspace(0.0, stop, points)
    except MemoryError as exc:
        raise CliError(f"--points: {exc}") from None


def _draw(j: SpinJ, coherence: float, seed: int, points: int | None = None) -> np.ndarray:
    """The seeded random state of --seed and --coherence, or a sweep's stack of points targets from 0 to --coherence."""
    if not 0.0 <= coherence < math.inf:
        raise CliError(f"--coherence: must be finite and >= 0, got {coherence}")
    if seed < 0:
        raise CliError(f"--seed: must be >= 0, got {seed}")
    targets = coherence if points is None else _spaced(coherence, points)
    try:
        return random_state_with_coherence(j.dim, targets, seed)
    except UnreachableCoherence as exc:
        raise CliError(f"--coherence: {exc}") from None


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
    return _draw(j, args.coherence, args.seed)


def _common_metadata(args, j: SpinJ, grid: SphereGrid, rates: _Rates) -> dict:
    return {
        "channel": args.channel,
        "two_j": j.two_j,
        "grid": f"{grid.n_theta}x{grid.n_phi}",
        "deterministic": args.deterministic,
        "version": __version__,
        **rates.meta,
    }


def _state_table(states, j: SpinJ) -> tuple:
    """(column names, values) of the state-only columns of a stack: a qubit's Bloch vector, else the upper triangle.

    The upper triangle is gathered in row-major order with each entry's
    (re, im) pair interleaved, less the zero imaginary parts of the diagonal.
    """
    if j.dim == 2:
        return ["tau_x", "tau_y", "tau_z"], rho_to_bloch(states)
    rows, cols = np.triu_indices(j.dim)
    keep = np.column_stack((np.ones(rows.size, dtype=bool), rows != cols)).ravel()
    names = [f"rho_{r}{c}_{part}" for r, c in zip(rows, cols) for part in ("re", "im")]
    pairs = np.ascontiguousarray(states[:, rows, cols]).view(float)
    return [name for name, kept in zip(names, keep) if kept], pairs[:, keep]


def cmd_evolve(args) -> int:
    j = _parse_j(args.j)
    grid = _grid_for(args.grid, j)
    rates = _build_channel(args, j)
    rho0 = _initial_state(args, j)
    if not 0.0 < args.tmax < math.inf:
        raise CliError(f"--tmax: must be finite and > 0, got {args.tmax}")
    with warnings.catch_warnings():
        warnings.simplefilter("error", PositivityWarning)
        try:
            traj = evolve(rates.channel, rho0, args.tmax, args.steps)
        except (StepCountError, PositivityWarning, MemoryError) as exc:
            # a diverging step map, an eigenvalue that every later state check rejects, or a trajectory too
            # large to allocate: the run cannot go on
            raise CliError(f"--steps: {exc}") from None
    t_name, t_scale = rates.time
    is_qubit = j.dim == 2
    # the columns that depend on the state alone, for the whole trajectory at once
    state_names, state_values = _state_table(traj.states, j)
    s_vn = von_neumann_entropy(traj.states).tolist()
    c_l1 = l1_coherence(traj.states).tolist()
    sigma_vn = rates.sigma_vn(traj.states)
    [(phase, notes)] = _run_rows((rates,), grid, traj.states, with_entropy=True)
    closed = [[rates.closed(tau)] if is_qubit else [] for tau in state_values]
    rows = [
        [t * t_scale, *state_values[i].tolist(), s_vn[i], phase.s_q[i], c_l1[i], phase.sigma[i], *closed[i],
         sigma_vn[i], phase.phi_dot[i], len(phase.notes[i])]
        for i, t in enumerate(traj.times)
    ]
    header = [t_name, *state_names, "s_vn", "s_q", "c_l1", "sigma_quad", *(["sigma_closed"] if is_qubit else [])]
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
    _reject_overflow(header, rows, rates)
    write_csv(args.out, meta, header, rows, notes)
    return 0


SWEEP_HEADER = ["coherence_fig", "coherence_l1", "sigma_wehrl", "sigma_vn"]


def _sweep_table(rates: tuple, grid: SphereGrid, states, coherence_fig) -> list:
    """SWEEP_HEADER rows and notes of a stack of states, one (rows, notes) per channel of rates, in one pass."""
    sigma_vn = [channel.sigma_vn(states) for channel in rates]
    c_l1 = l1_coherence(states).tolist()
    return [
        ([[coherence_fig[i], c_l1[i], phase.sigma[i], vn[i]] for i in range(len(states))], notes)
        for vn, (phase, notes) in zip(sigma_vn, _run_rows(rates, grid, states))
    ]


def _qubit_sweep_states(tau_z: float, n_points: int) -> tuple:
    """(states, figure coherences) of the transverse sweep at fixed tau_z, out to the pure states."""
    perps = _spaced(math.sqrt(max(0.0, 1.0 - tau_z * tau_z)), n_points)
    taus = np.column_stack((perps, np.zeros(n_points), np.full(n_points, tau_z)))
    return bloch_to_rho(taus), 2.0 * perps * perps


def cmd_sweep_coherence(args) -> int:
    j = _parse_j(args.j)
    grid = _grid_for(args.grid, j)
    rates = _build_channel(args, j)
    if args.points < 2:
        raise CliError("--points: need at least 2 sweep points")
    meta = _common_metadata(args, j, grid, rates)
    meta.update({"command": "sweep-coherence", "points": args.points})
    if j.dim == 2:
        _reject_unread({"--seed": args.seed, "--coherence": args.coherence}, "a --j 1/2 sweep")
        tau_z = 0.0
        if args.bloch is not None:
            tau = _parse_bloch(args.bloch)
            if abs(tau[2]) > 1.0:
                raise CliError("--bloch: |tau_z| must be <= 1")
            check_bloch_vector(tau)
            if tau[0] != 0.0 or tau[1] != 0.0:
                raise CliError(f"--bloch: a --j 1/2 sweep reads only tau_z, so X and Y must be 0, got {args.bloch!r}")
            tau_z = float(tau[2])
            meta["bloch"] = args.bloch
        [(rows, notes)] = _sweep_table((rates,), grid, *_qubit_sweep_states(tau_z, args.points))
    else:
        _reject_unread({"--bloch": args.bloch}, "a sweep above --j 1/2")
        if args.seed is None or args.coherence is None:
            raise CliError("dim > 2 sweeps need --seed and --coherence (the sweep's maximum)")
        states = _draw(j, args.coherence, args.seed, args.points)
        [(rows, notes)] = _sweep_table((rates,), grid, states, [math.nan] * args.points)
        meta.update({"seed": args.seed, "coherence_max": repr(args.coherence)})
    _reject_overflow(SWEEP_HEADER, rows, rates)
    write_csv(args.out, meta, SWEEP_HEADER, rows, notes)
    return 0


FIG_GRID = (128, 128)
FIG3_COHERENCES = (0.3, 0.6, 0.9, 1.2, 1.5, 1.8)
FIG4_COHERENCES = (0.2, 0.4, 0.6, 0.8)
FIG4_SEED = 2


def _fig1(out_dir: str) -> None:
    """Closed vs damped qubit observables: H = (omega0/2) sigma_x against a thermal bath."""
    omega0 = 1.0
    ops = make_spin_operators(SpinJ(1))
    rho0 = bloch_to_rho([0.0, 0.0, 1.0])
    closed = evolve(UnitaryChannel(hamiltonian=0.5 * omega0 * PAULI_X), rho0, 20.0, 2000)
    damped = evolve(BathParams.from_nbar(0.5, 0.5).channel(ops), rho0, 20.0, 2000)
    rows = np.column_stack((closed.times, rho_to_bloch(closed.states), rho_to_bloch(damped.states))).tolist()
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
    """Wehrl vs vN production rates across the coherence sweep, both channels from one pass over its states."""
    j = SpinJ(1)
    grid = SphereGrid(*FIG_GRID)
    panels = {
        "dephasing": _dephasing(1.0, j),
        "damping": _damping(BathParams.from_tau_bar(1.0, 0.0), j, {"gamma_bar": repr(1.0)}),
    }
    tables = _sweep_table(tuple(panels.values()), grid, *_qubit_sweep_states(0.0, 51))
    for (name, rates), (rows, notes) in zip(panels.items(), tables):
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


def _write_curves(path: str, rates: _Rates, grid: SphereGrid, times, states, coherences, meta: dict) -> None:
    """Write a figure panel's sigma curves, one row per time of a time-major (time x coherence) stack of states."""
    states = np.asarray(states, dtype=complex)
    [(phase, notes)] = _run_rows((rates,), grid, states.reshape(-1, *states.shape[-2:]))
    width = len(coherences)
    rows = [[t] + phase.sigma[k * width : (k + 1) * width] for k, t in enumerate(times)]
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
        states = bloch_to_rho(np.array([bloch(tau0, t / scale) for t in times for tau0 in tau0s]))
        meta = {"figure": 3, "panel": name, **meta}
        _write_curves(os.path.join(out_dir, f"fig3_{name}.csv"), rates, grid, times, states, FIG3_COHERENCES, meta)


def _fig4(out_dir: str) -> None:
    """Qutrit production-rate curves for random states at fixed coherence targets."""
    j = SpinJ(2)
    grid = SphereGrid(*FIG_GRID)
    lam, gamma, nbar = 1.0, 0.5, 0.5
    bath = BathParams.from_nbar(gamma, nbar)
    n_steps = 250
    initial = random_state_with_coherence(3, FIG4_COHERENCES, FIG4_SEED)
    panels = (
        ("dephasing", _dephasing(lam, j)),
        ("damping", _damping(bath, j, {"gamma": repr(gamma), "nbar": repr(nbar), "gamma_bar": repr(bath.gamma_bar)})),
    )
    for name, rates in panels:
        scale = rates.time[1]
        trajs = [evolve(rates.channel, rho0, 5.0 / scale, n_steps) for rho0 in initial]
        states = np.stack([traj.states for traj in trajs], axis=1)
        meta = {"figure": 4, "panel": name, "seed": FIG4_SEED, "steps": n_steps}
        path = os.path.join(out_dir, f"fig4_{name}.csv")
        _write_curves(path, rates, grid, scale * trajs[0].times, states, FIG4_COHERENCES, meta)


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
        p.add_argument("--bloch", help="qubit Bloch vector X,Y,Z: the initial state, or a sweep's fixed tau_z")
        p.add_argument("--seed", type=int, help="seed for the random initial state")
        p.add_argument("--coherence", type=float, help="l1-coherence target for the random state (a sweep's maximum)")
        p.add_argument("--lambda", dest="lam", type=float, help="dephasing rate")
        p.add_argument("--gamma", type=float, help="damping rate")
        p.add_argument("--nbar", type=float, help="bath occupation")
        p.add_argument("--tau-bar-z", type=float, help="bath polarization in [-1, 0]; fixes gamma_bar = 1")
        p.add_argument("--grid", default="64x64", help="quadrature grid NTHETAxNPHI")
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--deterministic", action="store_true", help="no effect (every run is single-threaded)")

    ev = sub.add_parser("evolve", help="integrate a trajectory and tabulate entropy rates")
    add_run_flags(ev)
    ev.add_argument("--state", help="initial state file (dim d header, complex entries)")
    ev.add_argument("--tmax", type=float, default=5.0, help="integration time (raw units)")
    ev.add_argument("--steps", type=int, default=500, help="number of integrator steps")

    sw = sub.add_parser("sweep-coherence", help="production rates across initial coherence values")
    add_run_flags(sw)
    sw.add_argument("--points", type=int, default=51, help="number of sweep points")

    return parser


def _join_negative_values(argv: list) -> list:
    """argv with `--flag -0.5,0,0` passed as `--flag=-0.5,0,0`, which argparse would read as two flags."""
    joined = []
    for token in argv:
        if joined and re.match(r"-[\d.]", token) and re.fullmatch(r"--[\w-]+", joined[-1]):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        if args.command == "fig":
            return cmd_fig(args)
        if args.command == "evolve":
            return cmd_evolve(args)
        return cmd_sweep_coherence(args)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
