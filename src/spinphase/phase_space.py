"""Spin coherent states, Husimi fields on a sphere grid, and Wehrl functionals.

A state of spin J becomes the function Q(theta, phi) = <Omega| rho |Omega>
with |Omega> = exp(-i phi jz) exp(-i theta jy) |J, J>.  In the ladder basis
the overlap factorizes as <J, m|Omega> = exp(-i m phi) a_m(theta) with real
nonnegative amplitudes, so every field built from rho is a finite azimuthal
Fourier series

    F(theta, phi) = sum_k g_k(theta) exp(i k phi),  |k| <= 2J.

A field keeps that series as one dense Spectrum: a complex array
g[order, k - k0, theta] over a contiguous range of k, where order 0 holds
the components g_k and orders 1 and 2 their analytic theta-derivatives.
The differential actions

    jz  -> -i d_phi
    j+  ->  exp(+i phi) (d_theta + i cot(theta) d_phi)
    j-  -> -exp(-i phi) (d_theta - i cot(theta) d_phi)

then reduce to exact recurrences applied to every k at once, which keeps
the dissipator fields free of finite-difference noise.

Whatever depends only on J and the grid is built on first use and cached
on the SphereGrid, keyed by 2J: the pair products a_r a_r' of the coherent
amplitudes with their first and second theta-derivatives, and the phases
e^{ik phi} for |k| <= 2J + 2.  A state's spectrum is then one broadcast
product of rho with the pair table, summed along the diagonals k = r' - r,
and sampling a spectrum on the grid is one (n_theta x K) @ (K x n_phi)
matrix product against the phase table.

Quadrature pairs Gauss-Legendre nodes in cos(theta) with a uniform phi
grid, so there are no polar nodes and trigonometric polynomials up to the
band limit integrate exactly.
"""

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BandLimitError, DimensionError, QFloorWarning, RangeError
from .spins import SpinJ, check_density_matrix

Q_FLOOR = 1e-14
FLOOR_NOTE = "{}: excluded weight {:.3e} below Husimi floor"


class SolidAngle(NamedTuple):
    """Point on the sphere: polar angle theta in [0, pi], azimuth phi."""

    theta: float
    phi: float


class SphereGrid:
    """Product quadrature grid: Gauss-Legendre in cos(theta) times uniform phi.

    The grid also caches the spectral-engine tables of each spin it has
    sampled a field of; they are built on the first field, not here, and
    only at or above the band limit n_theta >= 2J + 1, n_phi >= 4J + 1.
    """

    def __init__(self, n_theta: int = 64, n_phi: int = 64):
        if n_theta < 2 or n_phi < 4:
            raise ValueError(f"grid too small: {n_theta} x {n_phi}")
        self.n_theta = int(n_theta)
        self.n_phi = int(n_phi)
        x, w = np.polynomial.legendre.leggauss(self.n_theta)
        theta = np.arccos(x)
        order = np.argsort(theta)
        self.theta_nodes = theta[order]
        self.theta_weights = w[order]
        self.phi_nodes = 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi
        self.cos_theta = np.cos(self.theta_nodes)
        self.sin_theta = np.sin(self.theta_nodes)
        self.cot_theta = self.cos_theta / self.sin_theta
        self.inv_sin2_theta = 1.0 / self.sin_theta**2
        self.weights_2d = np.outer(self.theta_weights, np.full(self.n_phi, 2.0 * np.pi / self.n_phi))
        self._tables = {}

    def _spin_tables(self, j: SpinJ) -> "_SpinTables":
        tables = self._tables.get(j.two_j)
        if tables is None:
            # built whole, then stored in one step: a pool thread sees all of it or none
            tables = _build_tables(j, self)
            self._tables[j.two_j] = tables
        return tables

    def integrate(self, values: np.ndarray) -> float:
        """Integral over the full sphere of values sampled on the grid."""
        values = np.asarray(values)
        if values.shape != (self.n_theta, self.n_phi):
            raise DimensionError(f"values shape {values.shape} does not match grid {self.n_theta} x {self.n_phi}")
        return float(np.sum(values * self.weights_2d).real)


def integrate(grid: SphereGrid, values: np.ndarray) -> float:
    """Sphere integral of grid-sampled values (sum over the fixed node order)."""
    return grid.integrate(values)


def _amplitude_table(j: SpinJ, thetas: np.ndarray, orders: int = 3) -> np.ndarray:
    """Coherent-state amplitudes a_m(theta) and theta-derivatives.

    Returns shape (orders, dim, len(thetas)); row index r corresponds to
    m = J - r.  a_m = sqrt(C(2J, J-m)) cos^(J+m)(theta/2) sin^(J-m)(theta/2).
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    c = np.cos(0.5 * thetas)
    s = np.sin(0.5 * thetas)
    out = np.zeros((orders, j.dim, thetas.shape[0]))
    for r in range(j.dim):
        p = j.two_j - r
        q = r
        root = math.sqrt(math.comb(j.two_j, r))
        out[0, r] = root * c**p * s**q
        if orders >= 2:
            acc = np.zeros_like(thetas)
            if q > 0:
                acc += q * c ** (p + 1) * s ** (q - 1)
            if p > 0:
                acc -= p * c ** (p - 1) * s ** (q + 1)
            out[1, r] = 0.5 * root * acc
        if orders >= 3:
            acc = -(2.0 * p * q + p + q) * c**p * s**q
            if p > 1:
                acc = acc + p * (p - 1) * c ** (p - 2) * s ** (q + 2)
            if q > 1:
                acc = acc + q * (q - 1) * c ** (p + 2) * s ** (q - 2)
            out[2, r] = 0.25 * root * acc
    return out


@dataclass(frozen=True, eq=False)
class CoherentAmplitudes:
    """Amplitudes a_m(theta) and derivatives at one polar angle, ordered m = J ... -J."""

    j: SpinJ
    theta: float
    amplitudes: np.ndarray
    damplitudes: np.ndarray


def coherent_amplitudes(j: SpinJ, theta: float) -> CoherentAmplitudes:
    """Overlap amplitudes <J, m|Omega> at azimuth zero, with theta-derivatives."""
    if not (0.0 <= theta <= math.pi):
        raise RangeError(f"theta must lie in [0, pi], got {theta}")
    table = _amplitude_table(j, np.array([theta]), orders=2)
    return CoherentAmplitudes(j=j, theta=theta, amplitudes=table[0, :, 0].copy(), damplitudes=table[1, :, 0].copy())


# ---------------------------------------------------------------------------
# dense spectra: g[order, i] is the component k = k0 + i, field = sum_k g_k e^{ik phi}


class Spectrum(NamedTuple):
    """Azimuthal spectrum over the contiguous range k0 ... k0 + K - 1.

    g has shape (orders, K, n_theta): order 0 holds the components g_k and
    orders 1 and 2 their analytic theta-derivatives.
    """

    g: np.ndarray
    k0: int

    @property
    def ks(self) -> np.ndarray:
        return self.k0 + np.arange(self.g.shape[1])


@dataclass(frozen=True, eq=False)
class _SpinTables:
    """What the spectral engine needs of one spin on one grid; read-only once built.

    pairs[:, r, r'] holds a_r a_r', its first theta-derivative and its
    second, so a state's components are rho[r, r'] times these summed along
    k = r' - r.  phase[k + k_max] is e^{ik phi} on the phi nodes and dphase
    its phi-derivative; k_max = 2J + 2 covers every spectrum the ladder
    recurrences produce from a state.
    """

    pairs: np.ndarray
    k_max: int
    phase: np.ndarray
    dphase: np.ndarray


def _build_tables(j: SpinJ, grid: SphereGrid) -> _SpinTables:
    if grid.n_theta < j.two_j + 1 or grid.n_phi < 2 * j.two_j + 1:
        raise BandLimitError(
            f"grid {grid.n_theta}x{grid.n_phi} is below the band limit of two_j = {j.two_j}: integrating Q^2 "
            f"exactly needs n_theta >= {j.two_j + 1} and n_phi >= {2 * j.two_j + 1}"
        )
    a0, a1, a2 = _amplitude_table(j, grid.theta_nodes, orders=3)
    pairs = np.stack((
        a0[:, None] * a0[None, :],
        a1[:, None] * a0[None, :] + a0[:, None] * a1[None, :],
        a2[:, None] * a0[None, :] + 2.0 * a1[:, None] * a1[None, :] + a0[:, None] * a2[None, :],
    ))
    k_max = j.two_j + 2
    ks = np.arange(-k_max, k_max + 1)
    phase = np.exp(1j * ks[:, None] * grid.phi_nodes[None, :])
    dphase = 1j * ks[:, None] * phase
    for table in (pairs, phase, dphase):
        table.flags.writeable = False
    return _SpinTables(pairs=pairs, k_max=k_max, phase=phase, dphase=dphase)


def _components_from_state(rho: np.ndarray, tables: _SpinTables) -> Spectrum:
    d = rho.shape[0]
    rows = np.arange(d)[:, None]
    # entry (r, r') lands in column k + 2J, k = r' - r (m - m' for m = J - r, m' = J - r')
    skewed = np.zeros((3, d, 2 * d - 1, tables.pairs.shape[-1]), dtype=complex)
    skewed[:, rows, np.arange(d) - rows + (d - 1)] = rho[:, :, None] * tables.pairs
    return Spectrum(skewed.sum(axis=1), 1 - d)


def _evaluate(spec: Spectrum, tables: _SpinTables, order: int = 0, phi_derivative: bool = False) -> np.ndarray:
    phase = tables.dphase if phi_derivative else tables.phase
    lo = spec.k0 + tables.k_max
    return spec.g[order].T @ phase[lo : lo + spec.g.shape[1]]


def _scale_by_k(spec: Spectrum, factor) -> Spectrum:
    return Spectrum(factor(spec.ks)[:, None] * spec.g, spec.k0)


def _shift_phi(spec: Spectrum, dk: int) -> Spectrum:
    return Spectrum(spec.g, spec.k0 + dk)


def _conjugate(spec: Spectrum) -> Spectrum:
    return Spectrum(np.conj(spec.g[:, ::-1]), -(spec.k0 + spec.g.shape[1] - 1))


def _add(a: Spectrum, b: Spectrum) -> Spectrum:
    """Sum of two spectra over the same k range, keeping the derivative orders both carry."""
    if a.k0 != b.k0 or a.g.shape[1] != b.g.shape[1]:
        raise ValueError("spectra cover different k ranges")
    n = min(a.g.shape[0], b.g.shape[0])
    return Spectrum(a.g[:n] + b.g[:n], a.k0)


def _mul_theta(spec: Spectrum, h: np.ndarray, dh: np.ndarray) -> Spectrum:
    """Multiply by a theta-only function h with derivative dh, keeping one derivative order."""
    g = spec.g
    return Spectrum(np.stack((g[0] * h, g[1] * h + g[0] * dh)), spec.k0)


def _ladder(spec: Spectrum, grid: SphereGrid, s: int) -> Spectrum:
    """j+ (s = 1) or j- (s = -1): s e^{i s phi} (d_theta + i s cot d_phi); consumes one derivative order."""
    g = spec.g
    if g.shape[0] < 2:
        raise ValueError(f"need at least one stored derivative to apply {'j+' if s > 0 else 'j-'}")
    ks = s * spec.ks[:, None]
    kcot, kinv2 = ks * grid.cot_theta, ks * grid.inv_sin2_theta
    out = np.empty((g.shape[0] - 1,) + g.shape[1:], dtype=complex)
    out[0] = s * (g[1] - kcot * g[0])
    if g.shape[0] >= 3:
        out[1] = s * (g[2] + kinv2 * g[0] - kcot * g[1])
    return Spectrum(out, spec.k0 + s)


# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HusimiField:
    """Husimi function of a state sampled on a sphere grid.

    q and dq_dtheta are real arrays of shape (n_theta, n_phi); dq_dphi keeps
    the complex spectral result (its imaginary part is roundoff for a valid
    state).  spectral is the dense Spectrum of Q: components k = -2J ... 2J,
    each with two theta-derivatives, in one (3, 4J + 1, n_theta) array.  It
    drives the exact differential-operator actions, which sample their
    results with the tables the grid caches for this spin.
    """

    j: SpinJ
    grid: SphereGrid
    q: np.ndarray
    dq_dtheta: np.ndarray
    dq_dphi: np.ndarray
    spectral: Spectrum


def husimi_field(rho: np.ndarray, grid: SphereGrid) -> HusimiField:
    """Sample Q = <Omega|rho|Omega> and its first angular derivatives on a grid."""
    rho = check_density_matrix(rho)
    j = SpinJ(rho.shape[0] - 1)
    tables = grid._spin_tables(j)
    spec = _components_from_state(rho, tables)
    q = _evaluate(spec, tables, order=0).real
    dq_dtheta = _evaluate(spec, tables, order=1).real
    dq_dphi = _evaluate(spec, tables, order=0, phi_derivative=True)
    return HusimiField(j=j, grid=grid, q=q, dq_dtheta=dq_dtheta, dq_dphi=dq_dphi, spectral=spec)


def husimi_q(rho: np.ndarray, omega: SolidAngle) -> float:
    """Husimi value <Omega|rho|Omega> at a single direction."""
    rho = check_density_matrix(rho)
    theta, phi = omega
    if not (0.0 <= theta <= math.pi):
        raise RangeError(f"theta must lie in [0, pi], got {theta}")
    j = SpinJ(rho.shape[0] - 1)
    # Q = u^H rho u with u_r = <J, J - r|Omega> up to a global phase: a_r e^{i r phi}
    u = _amplitude_table(j, np.array([theta]), orders=1)[0, :, 0] * np.exp(1j * np.arange(j.dim) * phi)
    return float((u.conj() @ rho @ u).real)


def phase_space_jz(field: HusimiField) -> np.ndarray:
    """Differential jz action -i d_phi Q on the grid (purely imaginary for real Q)."""
    return -1j * field.dq_dphi


def phase_space_jplus(field: HusimiField) -> np.ndarray:
    """Differential j+ action e^{i phi}(d_theta + i cot d_phi) Q on the grid."""
    return _evaluate(_ladder(field.spectral, field.grid, 1), field.grid._spin_tables(field.j))


def phase_space_jminus(field: HusimiField) -> np.ndarray:
    """Differential j- action -e^{-i phi}(d_theta - i cot d_phi) Q on the grid."""
    return _evaluate(_ladder(field.spectral, field.grid, -1), field.grid._spin_tables(field.j))


def _checked_tables(field: HusimiField, j: SpinJ) -> _SpinTables:
    if j != field.j:
        raise DimensionError("channel spin does not match field spin")
    return field.grid._spin_tables(j)


def dephasing_dissipator_field(field: HusimiField, lam: float, j: SpinJ) -> np.ndarray:
    """D(Q) of dephasing at rate lam through jz of spin j (see dissipator_field)."""
    tables = _checked_tables(field, j)
    return _evaluate(_scale_by_k(field.spectral, lambda k: -0.5 * lam * k * k), tables).real


def damping_dissipator_field(field: HusimiField, gamma_bar: float, tau_bar_z: float, j: SpinJ) -> np.ndarray:
    """D(Q) of thermal ladder damping of spin j at any temperature (see dissipator_field)."""
    tables = _checked_tables(field, j)
    grid = field.grid
    drift = _scale_by_k(field.spectral, lambda k: -0.5 * tau_bar_z * (j.two_j - k))
    drift = _shift_phi(_mul_theta(drift, grid.sin_theta, grid.cos_theta), +1)
    pumped = _mul_theta(
        _ladder(field.spectral, grid, 1), -0.5 * (1.0 + tau_bar_z * grid.cos_theta), 0.5 * tau_bar_z * grid.sin_theta
    )
    current = _add(drift, pumped)
    vals = _evaluate(_ladder(current, grid, -1), tables) - _evaluate(_ladder(_conjugate(current), grid, 1), tables)
    return (0.5 * gamma_bar * vals).real


def dissipator_field(field: HusimiField, channel) -> np.ndarray:
    """Phase-space dissipator D(Q) of the channel, sampled on the field's grid.

    Dephasing maps component k to -(lam/2) k^2 g_k.  Thermal damping is
    D(Q) = (1/2)(j- F - j+ F*), one formula at every temperature:

        F = gamma_bar [-tau_bar_z (2J Q - jz Q) e^{i phi} sin - (1 + tau_bar_z cos) j+ Q] / 2,

    -(gamma_bar/4)(j- j+ + j+ j-) Q at tau_bar_z = 0.  Unitary and Davies
    channels raise TypeError.  A field exists only on a grid at or above the
    band limit n_theta >= 2J + 1, n_phi >= 4J + 1 (BandLimitError otherwise).
    """
    return channel.phase_space_dissipator(field)


def floor_mask(field: HusimiField, context: str | None = None) -> tuple:
    """Nodes where Q clears the Husimi floor, and the quadrature weight of the rest.

    Given a context, an exclusion also raises QFloorWarning with the text
    FLOOR_NOTE.  The Wehrl entropy passes none: Q ln Q has a removable
    limit at Q = 0, so the excluded nodes lose nothing.
    """
    mask = field.q >= Q_FLOOR
    if mask.all():
        return mask, 0.0
    excluded = float(np.sum(field.grid.weights_2d[~mask]))
    if context is not None:
        warnings.warn(FLOOR_NOTE.format(context, excluded), QFloorWarning, stacklevel=3)
    return mask, excluded


def wehrl_entropy(field: HusimiField) -> float:
    """Wehrl entropy -(2J+1)/(4 pi) integral of Q ln Q."""
    pref = (field.j.two_j + 1) / (4.0 * np.pi)
    mask, _ = floor_mask(field)
    integrand = np.zeros_like(field.q)
    integrand[mask] = field.q[mask] * np.log(field.q[mask])
    return -pref * field.grid.integrate(integrand)


def wehrl_rate_dissipative(field: HusimiField, channel) -> float:
    """Dissipative Wehrl entropy rate -(2J+1)/(4 pi) integral of D(Q) ln Q."""
    pref = (field.j.two_j + 1) / (4.0 * np.pi)
    dvals = dissipator_field(field, channel)
    mask, _ = floor_mask(field, "wehrl rate")
    integrand = np.zeros_like(field.q)
    integrand[mask] = dvals[mask] * np.log(field.q[mask])
    return -pref * field.grid.integrate(integrand)
