"""Entropy production and flux rates along three routes.

The phase-space (Wehrl) route integrates Husimi-field currents over the
sphere; closed forms specialize it to the qubit; the von Neumann route
differentiates S(rho || rho_eq).  The two routes bound each other but are
genuinely different functionals, which is the point of keeping both.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import BathParams, apply_liouvillian, channel_dim, check_dephasing_rate, dephasing_dissipator
from .errors import (
    BlochNormError,
    DimensionError,
    PurityDivergence,
    QFloorWarning,
    SupportError,
    TemperatureDivergence,
)
from .phase_space import FLOOR_NOTE, HusimiField, floor_mask, wehrl_rate_dissipative
from .spins import SpinJ, density_eigh, make_spin_operators
from .spins import check_density_matrix  # noqa: F401  (bench/tracer.py wraps this name)

# below the cut the direct forms lose ~eps/x^2 to cancellation; the series
# truncation error there is ~2 x^8 / 99, so both branches hold ~1e-12
SERIES_CUT = 1e-2
PURITY_CUT = 1e-12
# distinct reference states whose logarithm is kept; a run uses one per channel
REFERENCE_MEMO = 16


@dataclass(frozen=True)
class EpReport:
    """Entropy production rate, flux rate, and their balance for one route."""

    sigma_dot: float
    phi_dot: float
    ds_dt: float
    route: str
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
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (3,):
        raise DimensionError(f"Bloch vector must have 3 components, got shape {tau.shape}")
    norm = float(np.linalg.norm(tau))
    if norm > 1.0 + 1e-12:
        raise BlochNormError(f"Bloch norm {norm:.15g} exceeds 1")
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
    Diverges for pure states and in the zero-temperature bath limit.
    """
    norm, perp2, tz = _bloch_parts(tau)
    if norm >= 1.0 - PURITY_CUT:
        raise PurityDivergence(f"Bloch norm {norm:.15g} at the divergence")
    tb = bath.tau_bar_z
    if tb <= -1.0 + PURITY_CUT:
        raise TemperatureDivergence("zero-temperature bath: atanh(tau_bar_z) diverges")
    tau2 = perp2 + tz * tz
    return bath.gamma_bar * (
        0.5 * _atanh_over(norm) * (tau2 + tz * tz - 2.0 * tz * tb) - math.atanh(tb) * (tz - tb)
    )


def _masked_log_quadrature(field: HusimiField, numerator: np.ndarray, context: str):
    """Integrate numerator / q with the Husimi floor applied; returns (value, warnings)."""
    mask, excluded = floor_mask(field, context)
    notes = (FLOOR_NOTE.format(context, excluded),) if excluded else ()
    integrand = np.zeros_like(field.q)
    integrand[mask] = numerator[mask] / field.q[mask]
    return field.grid.integrate(integrand), notes


def ep_rate_dephasing_quad(field: HusimiField, lam: float, j: SpinJ) -> EpReport:
    """Quadrature entropy production rate for dephasing: azimuthal current squared over Q.

    The flux vanishes identically, so the full dissipative Wehrl rate equals
    the production rate.
    """
    check_dephasing_rate(lam)
    if j != field.j:
        raise DimensionError("spin does not match field")
    pref = (j.two_j + 1) / (4.0 * np.pi)
    numerator = np.abs(field.dq_dphi) ** 2
    value, notes = _masked_log_quadrature(field, numerator, "dephasing rate")
    sigma = 0.5 * lam * pref * value
    return EpReport(sigma_dot=sigma, phi_dot=0.0, ds_dt=sigma, route="quadrature", warnings=notes)


def ep_rate_damping_quad(field: HusimiField, bath: BathParams, j: SpinJ) -> EpReport:
    """Quadrature entropy production and flux rates for thermal damping.

    The production rate integrates the squared thermal drift current plus a
    weighted azimuthal current term; the flux rate is defined through the
    balance with the dissipative Wehrl rate.
    """
    if j != field.j:
        raise DimensionError("spin does not match field")
    grid = field.grid
    pref = (j.two_j + 1) / (4.0 * np.pi)
    cos_t = grid.cos_theta[:, None]
    sin_t = grid.sin_theta[:, None]
    az2 = np.abs(field.dq_dphi) ** 2
    if math.isinf(bath.nbar):
        numerator = field.dq_dtheta**2 + az2 * (cos_t / sin_t) ** 2
        value, notes = _masked_log_quadrature(field, numerator, "damping rate")
        sigma = 0.5 * bath.gamma_bar * pref * value
    else:
        big_m = 2.0 * bath.nbar + 1.0
        drift = j.two_j * field.q * sin_t + (cos_t - big_m) * field.dq_dtheta
        numerator = drift**2 / (big_m - cos_t) + az2 * (big_m * cos_t - 1.0) * cos_t / sin_t**2
        value, notes = _masked_log_quadrature(field, numerator, "damping rate")
        sigma = 0.5 * bath.gamma * pref * value
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QFloorWarning)
        ds_dt = wehrl_rate_dissipative(field, bath.channel(make_spin_operators(j)))
    return EpReport(sigma_dot=sigma, phi_dot=sigma - ds_dt, ds_dt=ds_dt, route="quadrature", warnings=notes)


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


def _generator_matrix(spec) -> np.ndarray:
    """The channel's d^2 x d^2 generator on row-major vec(rho), built on first use and kept on the channel.

    One apply_liouvillian call on the stack of basis matrices |a><b| gives
    every column.  The matrix is built whole and then stored in one step,
    so a pool thread sees all of it or none; the channel holds read-only
    copies of its operators, so the matrix cannot go stale.
    """
    gen = spec.__dict__.get("_generator")
    if gen is None:
        d = channel_dim(spec)
        basis = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
        gen = np.ascontiguousarray(apply_liouvillian(spec, basis).reshape(d * d, d * d).T)
        gen.flags.writeable = False
        object.__setattr__(spec, "_generator", gen)
    return gen


def ep_vn_general(rho: np.ndarray, spec, rho_eq: np.ndarray) -> EpReport:
    """Von Neumann production, flux, and entropy rates for a thermal channel.

    sigma_dot = -tr(L[rho](ln rho - ln rho_eq)), phi_dot = tr(L[rho] ln rho_eq),
    ds_dt = -tr(L[rho] ln rho); the three are computed independently, each
    as one elementwise contraction, and satisfy the balance identity to
    roundoff.  Both states must be full rank.

    A state costs one eigendecomposition, which both validates it and gives
    its logarithm.  The reference state's validation and logarithm are
    memoized per distinct reference, and L is a d^2 x d^2 matrix built once
    per channel and kept on it, so L[rho] is one matrix-vector product.
    """
    rho, log_rho = _log_full_rank(rho, "state")
    log_eq = _reference_log(rho_eq)
    if rho.shape != log_eq.shape:
        raise DimensionError(f"shape mismatch {rho.shape} vs {log_eq.shape}")
    gen_matrix = _generator_matrix(spec)
    if gen_matrix.shape[0] != rho.size:
        raise DimensionError(f"state shape {rho.shape} does not match channel dimension {channel_dim(spec)}")
    gen = (gen_matrix @ rho.reshape(-1)).reshape(rho.shape)
    # tr(G X) = vdot(X, G) for Hermitian X
    sigma = -float(np.vdot(log_rho - log_eq, gen).real)
    flux = float(np.vdot(log_eq, gen).real)
    ds_dt = -float(np.vdot(log_rho, gen).real)
    return EpReport(sigma_dot=sigma, phi_dot=flux, ds_dt=ds_dt, route="von-neumann")


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
