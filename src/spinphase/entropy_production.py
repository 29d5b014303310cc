"""Entropy production and flux rates along three routes.

The phase-space (Wehrl) route integrates Husimi-field currents over the
sphere and splits the Wehrl entropy rate into production and flux,
dS/dt = sigma - phi: sigma integrates the squared currents over Q, and the
damping flux, linear in Q, reads the state's populations alone.  Closed
forms specialize it to the qubit; the von Neumann route differentiates
S(rho || rho_eq).  The two routes bound each other but are genuinely
different functionals, which is the point of keeping both.  The von
Neumann route takes one state (ep_vn_general, vn_rate_dephasing) or, in
one batched pass, a stack (vn_rates, the reference read from the channel).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import AmplitudeDampingChannel, BathParams, DephasingChannel, check_dephasing_rate, dephasing_dissipator
from .dynamics import check_diagonal_hamiltonian, rung_log_ratio
from .dynamics import apply_liouvillian  # noqa: F401  (bench/tracer.py wraps this name)
from .errors import DimensionError, PurityDivergence, SupportError, TemperatureDivergence
from .phase_space import FLOOR_NOTE, HusimiField, damping_flux, floor_mask
from .phase_space import wehrl_rate_dissipative  # noqa: F401  (bench/tracer.py wraps this name)
from .spins import check_bloch_vector, density_eigh, density_eigh_stack
from .spins import check_density_matrix  # noqa: F401  (bench/tracer.py wraps this name)
from .spins import make_spin_operators  # noqa: F401  (bench/tracer.py wraps this name)

# below the cut the direct forms lose ~eps/x^2 to cancellation; the series
# truncation error there is ~2 x^8 / 99, so both branches hold ~1e-12
SERIES_CUT = 1e-2
PURITY_CUT = 1e-12
# distinct reference states whose logarithm is kept; a run uses one per channel
REFERENCE_MEMO = 16


@dataclass(frozen=True)
class EpReport:
    """Entropy production rate, flux rate, and their balance for one route.

    Of one state, the rates are floats and warnings the tuple of its notes.
    A quadrature rate of a stacked Husimi field reports each state in place:
    the rates are (N,) arrays and warnings[i] is the tuple of state i's notes.
    """

    sigma_dot: float
    phi_dot: float
    ds_dt: float
    warnings: tuple = ()


def _bracket(x: float) -> float:
    """Even function [x - (1 - x^2) atanh x] / x^3, from 2/3 at 0 to 1 at 1."""
    ax = abs(x)
    if ax < SERIES_CUT:
        x2 = x * x
        return 2.0 / 3.0 + (2.0 / 15.0) * x2 + (2.0 / 35.0) * x2 * x2 + (2.0 / 63.0) * x2**3
    if ax >= 1.0 - PURITY_CUT:
        return 1.0
    return (ax - (1.0 - ax * ax) * math.atanh(ax)) / ax**3


def _atanh_over(x: float) -> float:
    """Even function atanh(x)/x, equal to 1 at x = 0."""
    ax = abs(x)
    if ax < SERIES_CUT:
        x2 = x * x
        return 1.0 + x2 / 3.0 + x2 * x2 / 5.0 + x2**3 / 7.0
    return math.atanh(ax) / ax


def _bloch_parts(tau):
    """(norm clipped to 1, tau_x^2 + tau_y^2, tau_z) of a Bloch vector that check_bloch_vector accepts."""
    tau, norm = check_bloch_vector(tau)
    return min(norm, 1.0), float(tau[0] ** 2 + tau[1] ** 2), float(tau[2])


def ep_qubit_dephasing_closed(tau, lam: float) -> float:
    """Phase-space entropy production rate of a dephasing qubit.

    (lam/4)(tau_x^2 + tau_y^2) [tau - (1 - tau^2) atanh tau] / tau^3;
    finite for every valid Bloch vector, pure states included.
    """
    check_dephasing_rate(lam)
    norm, perp2, _ = _bloch_parts(tau)
    return 0.25 * lam * perp2 * _bracket(norm)


def ep_vn_qubit_dephasing(tau, lam: float) -> float:
    """Von Neumann entropy production rate of a dephasing qubit.

    (lam/2)(tau_x^2 + tau_y^2) atanh(tau)/tau; diverges logarithmically at
    purity, so PurityDivergence is raised at tau >= 1 - 1e-12.
    """
    check_dephasing_rate(lam)
    norm, perp2, _ = _bloch_parts(tau)
    if norm >= 1.0 - PURITY_CUT:
        raise PurityDivergence(f"Bloch norm {norm:.15g} at the divergence")
    return 0.5 * lam * perp2 * _atanh_over(norm)


def ep_qubit_damping_closed(tau, bath: BathParams) -> float:
    """Phase-space entropy production rate of a thermally damped qubit.

    Evaluated in the gamma_bar parameterization, where the two bracket
    terms combine without any division by tau_bar_z:

        (g_bar/4)(tau^2 + tau_z^2) B(tau)
      - (g_bar/2) tau_bar_z tau_z [B(tau) + B(tau_bar_z)]
      + (g_bar/2) tau_bar_z^2 B(tau_bar_z)

    with B the bracket function above.  This covers the infinite- and
    zero-temperature ends without separate limit branches.
    """
    norm, perp2, tz = _bloch_parts(tau)
    b_state = _bracket(norm)
    b_bath = _bracket(bath.tau_bar_z)
    g = bath.gamma_bar
    tb = bath.tau_bar_z
    tau2 = perp2 + tz * tz
    return 0.25 * g * (tau2 + tz * tz) * b_state - 0.5 * g * tb * tz * (b_state + b_bath) + 0.5 * g * tb * tb * b_bath


def ep_vn_qubit_damping(tau, bath: BathParams) -> float:
    """Von Neumann entropy production rate of a thermally damped qubit.

    gamma_bar [ (atanh(tau) / (2 tau)) (tau^2 + tau_z^2 - 2 tau_z tau_bar_z)
                - atanh(tau_bar_z) (tau_z - tau_bar_z) ].
    atanh(tau_bar_z) = ln(nbar / (nbar + 1)) / 2 is read from nbar, so it
    keeps its digits as tau_bar_z -> -1 and is finite at any nbar > 0.
    Diverges for pure states and at a zero-temperature bath (nbar = 0).
    """
    norm, perp2, tz = _bloch_parts(tau)
    if norm >= 1.0 - PURITY_CUT:
        raise PurityDivergence(f"Bloch norm {norm:.15g} at the divergence")
    if bath.nbar == 0.0:
        raise TemperatureDivergence("zero-temperature bath: atanh(tau_bar_z) diverges")
    tb = bath.tau_bar_z
    tau2 = perp2 + tz * tz
    return bath.gamma_bar * (
        0.5 * _atanh_over(norm) * (tau2 + tz * tz - 2.0 * tz * tb) - 0.5 * rung_log_ratio(bath.nbar) * (tz - tb)
    )


def _squares_over_q(field: HusimiField, currents: tuple, context: str):
    """Per theta row, the phi sums of x^2 / Q for each current x, with the Husimi floor applied; and the warnings.

    Each state of a stack has its own floor mask and notes: the notes are
    one state's tuple, or a tuple of each state's for a stack.
    """
    mask, excluded = floor_mask(field, context)
    q = field.q
    sums = [
        np.einsum("...ij,...ij->...i", x, x / q if mask is None else np.divide(x, q, out=np.zeros_like(q), where=mask))
        for x in currents
    ]
    stacked = q.ndim == 3
    if mask is None:
        notes = ((),) * (len(q) if stacked else 1)
    else:
        notes = tuple((FLOOR_NOTE.format(context, weight),) if weight else () for weight in np.ravel(excluded))
    return sums, notes if stacked else notes[0]


def ep_rate_dephasing_quad(field: HusimiField, channel: DephasingChannel) -> EpReport:
    """Quadrature entropy production rate of the dephasing channel: azimuthal current squared over Q.

    The flux vanishes identically, so the full dissipative Wehrl rate equals
    the production rate.  A stacked field gives a stacked report (EpReport).
    """
    j = channel.ops.j
    if j != field.j:
        raise DimensionError("spin does not match field")
    pref = (j.two_j + 1) / (4.0 * np.pi)
    (rows,), notes = _squares_over_q(field, (field.dq_dphi,), "dephasing rate")
    sigma = 0.5 * channel.lam * pref * field.grid.integrate_rows(rows)
    phi = 0.0 if isinstance(sigma, float) else np.zeros(sigma.shape)
    return EpReport(sigma_dot=sigma, phi_dot=phi, ds_dt=sigma, warnings=notes)


def ep_rate_damping_quad(field: HusimiField, channel: AmplitudeDampingChannel) -> EpReport:
    """Quadrature entropy production and flux rates of the thermal damping channel, from its bath.

    One formula each in (gamma_bar, tau_bar_z) at every temperature, with
    the drift current D = tau_bar_z 2J Q sin + (1 + tau_bar_z cos) d_theta Q:

        sigma = (gamma_bar/2)(2J+1)/(4 pi) integral of
                [D^2 / (1 + tau_bar_z cos) + (d_phi Q)^2 (cos + tau_bar_z) cos / sin^2] / Q,
        phi = (gamma_bar/4)(2J+1) sum_m f_m (p_m - p_m^eq),  f_m = sum_i W_i w(theta_i) a_m(theta_i)^2,
        w = (2J tau_bar_z)^2 sin^2 / (1 + tau_bar_z cos) - 4J tau_bar_z cos,

    the flux summed over the grid's Gauss-Legendre theta nodes and weights
    W_i, p the populations and p^eq the channel's stationary_populations.
    sigma is written as D^2 / ((1 + tau_bar_z cos) Q) = (1 + tau_bar_z cos) u^2 / Q
    with u = d_theta Q + 2J tau_bar_z sin Q / (1 + tau_bar_z cos), so only
    u^2 / Q and (d_phi Q)^2 / Q are summed over each phi row and the
    theta-only factors weight the row sums.  u keeps D's zero on a
    detailed-balance state, where expanding the square into Q, d_theta Q
    and (d_theta Q)^2 / Q terms would leave their O(1) roundoff.
    dS/dt := sigma - phi, so no D(Q) is synthesized (wehrl_rate_dissipative
    computes it independently).  The grid is at or above the band limit.
    A stacked field gives a stacked report (EpReport); the theta-only
    factors and the flux weight are formed once per call.
    """
    j, bath = channel.ops.j, channel.bath
    if j != field.j:
        raise DimensionError("spin does not match field")
    grid = field.grid
    pref = (j.two_j + 1) / (4.0 * np.pi)
    tb = bath.tau_bar_z
    cos_t, sin_t = grid.cos_theta, grid.sin_theta
    relax = 1.0 + tb * cos_t
    # theta-only factors are formed on the theta nodes before they meet the grid
    u = (tb * j.two_j * sin_t / relax)[:, None] * field.q
    u += field.dq_dtheta
    (drift, azimuthal), notes = _squares_over_q(field, (u, field.dq_dphi), "damping rate")
    rows = relax * drift + (cos_t + tb) * cos_t / sin_t**2 * azimuthal
    sigma = 0.5 * bath.gamma_bar * pref * grid.integrate_rows(rows)
    phi = damping_flux(field, bath.gamma_bar, tb, channel.stationary_populations)
    return EpReport(sigma_dot=sigma, phi_dot=phi, ds_dt=sigma - phi, warnings=notes)


def _log_full_rank(rho: np.ndarray, label: str) -> tuple:
    """Validated state and its logarithm, both from one eigendecomposition; SupportError below 1e-12."""
    rho, vals, vecs = density_eigh(rho)
    if float(vals.min()) < PURITY_CUT:
        raise SupportError(f"{label} is rank deficient (min eigenvalue {vals.min():.3e})")
    return rho, (vecs * np.log(vals)) @ vecs.conj().T


@functools.lru_cache(maxsize=REFERENCE_MEMO)
def _reference_log_of(data: bytes, shape: tuple) -> np.ndarray:
    log_eq = _log_full_rank(np.frombuffer(data, dtype=complex).reshape(shape), "reference state")[1]
    log_eq.flags.writeable = False
    return log_eq


def _reference_log(rho_eq) -> np.ndarray:
    """ln rho_eq, validated and computed once per distinct reference state.

    Keyed on the complex128 bytes and the shape of the array, so a new or
    mutated reference gets its own entry; an invalid one raises on every
    call, since exceptions are never cached.
    """
    ref = np.ascontiguousarray(rho_eq, dtype=complex)
    return _reference_log_of(ref.tobytes(), ref.shape)


def ep_vn_general(rho: np.ndarray, spec, rho_eq: np.ndarray) -> EpReport:
    """Von Neumann production, flux, and entropy rates for a thermal channel.

    sigma_dot = -tr(L[rho](ln rho - ln rho_eq)), phi_dot = tr(L[rho] ln rho_eq),
    ds_dt = -tr(L[rho] ln rho); the three are computed independently, each
    as one elementwise contraction, and satisfy the balance identity to
    roundoff.  Both states must be full rank.

    A state costs one eigendecomposition, which both validates it and gives
    its logarithm.  The reference state's validation and logarithm are
    memoized per distinct reference, and L is the channel's generator
    matrix, built on its first read, so L[rho] is one matrix-vector product.
    """
    rho, log_rho = _log_full_rank(rho, "state")
    log_eq = _reference_log(rho_eq)
    if rho.shape != log_eq.shape:
        raise DimensionError(f"shape mismatch {rho.shape} vs {log_eq.shape}")
    gen_matrix = spec.generator
    if gen_matrix.shape[0] != rho.size:
        raise DimensionError(f"state shape {rho.shape} does not match channel dimension {spec.dim}")
    gen = (gen_matrix @ rho.reshape(-1)).reshape(rho.shape)
    # tr(G X) = vdot(X, G) for Hermitian X
    sigma = -float(np.vdot(log_rho - log_eq, gen).real)
    flux = float(np.vdot(log_eq, gen).real)
    ds_dt = -float(np.vdot(log_rho, gen).real)
    return EpReport(sigma_dot=sigma, phi_dot=flux, ds_dt=ds_dt)


def vn_rate_dephasing(rho: np.ndarray, lam: float, ops) -> float:
    """Von Neumann entropy production rate -tr(D[rho] ln rho) under pure dephasing.

    The dephasing flux vanishes, so this equals dS/dt; requires a full-rank
    state.  Reduces to ep_vn_qubit_dephasing for spin one-half.  One
    eigendecomposition validates the state and gives its logarithm, and the
    trace is one elementwise contraction.
    """
    check_dephasing_rate(lam)
    rho, log_rho = _log_full_rank(rho, "state")
    if rho.shape != ops.jz.shape:
        raise DimensionError(f"state shape {rho.shape} does not match spin operators {ops.jz.shape}")
    gen = dephasing_dissipator(lam, ops, rho)
    return -float(np.vdot(log_rho, gen).real)


def vn_rates(states: np.ndarray, channel) -> tuple:
    """ep_vn_general's (sigma_dot, phi_dot, ds_dt) of each state in an (N, d, d) stack, as float arrays of shape (N,).

    ln rho_eq is diag(channel.stationary_log_populations).  One stacked
    validation, one batched eigh, one GEMM with the channel's generator and
    one contraction per trace; a state whose smallest eigenvalue is below
    PURITY_CUT gets NaN in its row.  Raises BasisError under a non-diagonal
    Hamiltonian unless the reference is uniform, a fixed point of every
    Hamiltonian, then TemperatureDivergence at a zero-temperature bath.
    """
    log_eq = channel.stationary_log_populations
    if (log_eq != log_eq[0]).any():
        check_diagonal_hamiltonian(channel)
    if not np.isfinite(log_eq).all():
        raise TemperatureDivergence("zero-temperature bath: ln rho_eq diverges")
    states, vals, vecs = density_eigh_stack(states, channel.dim)
    full = vals[:, 0] >= PURITY_CUT
    # ln 1 = 0 stands in at a rank-deficient state, whose row is NaN below
    log_rho = (vecs * np.log(np.where(full[:, None], vals, 1.0))[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    gen = (states.reshape(len(states), -1) @ channel.generator.T).reshape(states.shape)
    # tr(G X) = vdot(X, G) for Hermitian X; + 0.0 makes an exact zero rate +0.0, not the negation's -0.0
    sigma = -np.einsum("nij,nij->n", (log_rho - np.diag(log_eq)).conj(), gen).real + 0.0
    flux = np.einsum("nii,i->n", gen, log_eq).real
    ds_dt = -np.einsum("nij,nij->n", log_rho.conj(), gen).real
    return tuple(np.where(full, rate, np.nan) for rate in (sigma, flux, ds_dt))
