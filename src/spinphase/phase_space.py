"""Spin coherent states, Husimi fields on a sphere grid, and Wehrl functionals.

A state of spin J becomes the function Q(theta, phi) = <Omega| rho |Omega>
with |Omega> = exp(-i phi jz) exp(-i theta jy) |J, J>.  In the ladder basis
the overlap factorizes as <J, m|Omega> = exp(-i m phi) a_m(theta) with real
nonnegative amplitudes, so every field built from rho is a finite azimuthal
Fourier series

    F(theta, phi) = sum_k g_k(theta) exp(i k phi),  |k| <= 2J.

Q is real, so its spectrum is conjugate symmetric, g_{-k} = conj(g_k), and
a field keeps only the k >= 0 half: a complex array half[order, k, theta]
for k = 0 ... 2J, where order 0 holds the components g_k and orders 1 and
2 their analytic theta-derivatives.  A real field is synthesized from a
k >= 0 half as

    F = Re sum_{k >= 0} c_k e^{ik phi} = sum_k (Re c_k cos(k phi) - Im c_k sin(k phi)),

with c_k = 2 g_k for k > 0, which is one real matrix product of the
interleaved [Re c_k, Im c_k] columns with a cos/sin table.

The differential actions

    jz  -> -i d_phi
    j+  ->  exp(+i phi) (d_theta + i cot(theta) d_phi)
    j-  -> -exp(-i phi) (d_theta - i cot(theta) d_phi)

are read pointwise from the synthesized Q, dQ/dtheta and dQ/dphi.  The
dissipators keep each azimuthal order k, so D(Q) is one synthesis of a
per-k half spectrum d_k built from the exact derivatives, free of
finite-difference noise.  Dephasing gives d_k = -(lam/2) k^2 g_k.  Thermal
damping, D(Q) = Re(j- F) with F the current of dissipator_field, averages
the k and -k ladder recurrences, so its coefficients are real and even in
k; with c = cos(theta), s = sin(theta), t = tau_bar_z and n = 2J,

    d_k = (gamma_bar / 2) [(1 + t c) g_k'' + ((c + t) / s + (n - 2) t s) g_k'
                           + (2 n t c - k^2 c (c + t) / s^2) g_k].

Whatever depends only on J and the grid is built on first use and cached
on the SphereGrid, keyed by 2J: the pair products a_r a_r' (r <= r') of the
coherent amplitudes with their first and second theta-derivatives, and the
cos/sin table over k = 0 ... 2J.  A state's half spectrum is then one
broadcast product of rho with the pair table, summed along the diagonals
k = r' - r, and Q, dQ/dtheta and dQ/dphi come out of one real
(3 n_theta x 2K) @ (2K x n_phi) product.

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

    The grid also caches the synthesis tables of each spin it has
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
        self.weights_2d = np.outer(self.theta_weights, np.full(self.n_phi, 2.0 * np.pi / self.n_phi))
        self._tables = {}

    def check_band_limit(self, j: SpinJ) -> None:
        """Raise BandLimitError unless n_theta >= 2J + 1 and n_phi >= 4J + 1, where Q^2 integrates exactly."""
        if self.n_theta < j.two_j + 1 or self.n_phi < 2 * j.two_j + 1:
            raise BandLimitError(
                f"grid {self.n_theta}x{self.n_phi} is below the band limit of two_j = {j.two_j}: integrating Q^2 "
                f"exactly needs n_theta >= {j.two_j + 1} and n_phi >= {2 * j.two_j + 1}"
            )

    def _spin_tables(self, j: SpinJ) -> "_SpinTables":
        tables = self._tables.get(j.two_j)
        if tables is None:
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


@dataclass(frozen=True, eq=False)
class _SpinTables:
    """What the Husimi synthesis needs of one spin on one grid; read-only once built.

    pairs[:, p] holds a_r a_r', its first theta-derivative and its second
    for the p-th pair (rows[p], cols[p]) of the upper triangle r <= r', in
    row-major order, so row r starts at starts[r] and runs over k = r' - r =
    0 ... 2J - r.  A state's k >= 0 components are rho[r, r'] times these
    summed over the rows.  trig rows 2k and 2k + 1 hold cos(k phi) and -sin(k phi)
    on the phi nodes, k = 0 ... 2J.
    """

    pairs: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    starts: np.ndarray
    trig: np.ndarray


def _build_tables(j: SpinJ, grid: SphereGrid) -> _SpinTables:
    grid.check_band_limit(j)
    a0, a1, a2 = _amplitude_table(j, grid.theta_nodes, orders=3)
    rows, cols = np.triu_indices(j.dim)
    starts = np.searchsorted(rows, np.arange(j.dim))
    pairs = np.stack((
        a0[rows] * a0[cols],
        a1[rows] * a0[cols] + a0[rows] * a1[cols],
        a2[rows] * a0[cols] + 2.0 * a1[rows] * a1[cols] + a0[rows] * a2[cols],
    ))
    angles = np.arange(j.dim)[:, None] * grid.phi_nodes[None, :]
    trig = np.stack((np.cos(angles), -np.sin(angles)), axis=1).reshape(2 * j.dim, grid.n_phi)
    for table in (pairs, rows, cols, starts, trig):
        table.flags.writeable = False
    return _SpinTables(pairs=pairs, rows=rows, cols=cols, starts=starts, trig=trig)


def _half_spectrum(rho: np.ndarray, tables: _SpinTables) -> np.ndarray:
    """Components k = 0 ... 2J of Q with two theta-derivatives; those at -k are their conjugates."""
    # pair (r, r') adds to component k = r' - r (m - m' for m = J - r, m' = J - r');
    # row r holds k = 0 ... d - 1 - r contiguously, and the rows are summed in order
    terms = rho[tables.rows, tables.cols][:, None] * tables.pairs
    d = rho.shape[0]
    g = terms[:, :d].copy()
    for r, start in enumerate(tables.starts[1:], 1):
        g[:, : d - r] += terms[:, start : start + d - r]
    return g


def _from_half(g: np.ndarray, tables: _SpinTables) -> np.ndarray:
    """Real field of a conjugate-symmetric spectrum from its k >= 0 half g of shape (..., 2J + 1, n_theta)."""
    doubled = np.full((g.shape[-2], 1), 2.0)
    doubled[0] = 1.0
    c = doubled * g
    lead, (n_k, n_theta) = c.shape[:-2], c.shape[-2:]
    # [Re c_k, Im c_k] interleaved along k, against the cos / -sin rows of the table
    coeffs = np.ascontiguousarray(np.swapaxes(c, -1, -2)).view(float).reshape(-1, 2 * n_k)
    return (coeffs @ tables.trig).reshape(*lead, n_theta, -1)


@dataclass(frozen=True, eq=False)
class HusimiField:
    """Husimi function of a state sampled on a sphere grid.

    q, dq_dtheta and dq_dphi are real arrays of shape (n_theta, n_phi),
    synthesized together from half: the components g_k of Q for
    k = 0 ... 2J, each with two theta-derivatives, in one complex
    (3, 2J + 1, n_theta) array.  The dissipator fields are per-k
    combinations of half, synthesized with the tables the grid caches for
    this spin; the ladder actions are read pointwise from the derivatives.
    """

    j: SpinJ
    grid: SphereGrid
    q: np.ndarray
    dq_dtheta: np.ndarray
    dq_dphi: np.ndarray
    half: np.ndarray


def husimi_field(rho: np.ndarray, grid: SphereGrid) -> HusimiField:
    """Sample Q = <Omega|rho|Omega> and its first angular derivatives on a grid."""
    rho = check_density_matrix(rho)
    j = SpinJ(rho.shape[0] - 1)
    tables = grid._spin_tables(j)
    half = _half_spectrum(rho, tables)
    # d_phi maps g_k to ik g_k
    q, dq_dtheta, dq_dphi = _from_half(np.stack((half[0], half[1], 1j * np.arange(j.dim)[:, None] * half[0])), tables)
    return HusimiField(j=j, grid=grid, q=q, dq_dtheta=dq_dtheta, dq_dphi=dq_dphi, half=half)


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
    """Differential jz action -i d_phi Q on the grid (purely imaginary, since Q is real)."""
    return -1j * field.dq_dphi


def _ladder(field: HusimiField, s: int) -> np.ndarray:
    """j+ (s = 1) or j- (s = -1): s e^{i s phi} (d_theta + i s cot d_phi) Q on the grid."""
    grid = field.grid
    return s * np.exp(1j * s * grid.phi_nodes) * (field.dq_dtheta + 1j * s * grid.cot_theta[:, None] * field.dq_dphi)


def phase_space_jplus(field: HusimiField) -> np.ndarray:
    """Differential j+ action e^{i phi}(d_theta + i cot d_phi) Q on the grid."""
    return _ladder(field, 1)


def phase_space_jminus(field: HusimiField) -> np.ndarray:
    """Differential j- action -e^{-i phi}(d_theta - i cot d_phi) Q on the grid."""
    return _ladder(field, -1)


def _checked_tables(field: HusimiField, j: SpinJ) -> _SpinTables:
    if j != field.j:
        raise DimensionError("channel spin does not match field spin")
    return field.grid._spin_tables(j)


def dephasing_dissipator_field(field: HusimiField, lam: float, j: SpinJ) -> np.ndarray:
    """D(Q) of dephasing at rate lam through jz of spin j (see dissipator_field)."""
    tables = _checked_tables(field, j)
    return _from_half(-0.5 * lam * np.arange(j.dim)[:, None] ** 2 * field.half[0], tables)


def damping_dissipator_field(field: HusimiField, gamma_bar: float, tau_bar_z: float, j: SpinJ) -> np.ndarray:
    """D(Q) of thermal ladder damping of spin j at any temperature (see dissipator_field)."""
    tables = _checked_tables(field, j)
    c, s, t, n = field.grid.cos_theta, field.grid.sin_theta, tau_bar_z, j.two_j
    k2 = np.arange(j.dim)[:, None] ** 2
    g, dg, d2g = field.half
    d = (1.0 + t * c) * d2g + ((c + t) / s + (n - 2) * t * s) * dg + (2 * n * t * c - k2 * (c * (c + t) / s**2)) * g
    return _from_half(0.5 * gamma_bar * d, tables)


def dissipator_field(field: HusimiField, channel) -> np.ndarray:
    """Phase-space dissipator D(Q) of the channel, sampled on the field's grid.

    Both forms keep each azimuthal order k and are one synthesis of a
    per-k half spectrum.  Dephasing maps component k to -(lam/2) k^2 g_k.
    Thermal damping is D(Q) = (1/2)(j- F - j+ F*) = Re(j- F), since
    j+ F* = -(j- F)*, one formula at every temperature:

        F = gamma_bar [-tau_bar_z (2J Q - jz Q) e^{i phi} sin - (1 + tau_bar_z cos) j+ Q] / 2,

    -(gamma_bar/4)(j- j+ + j+ j-) Q at tau_bar_z = 0, and expanded over the
    k >= 0 components of Q it is the per-k d_k of the module docstring.
    Unitary and Davies channels raise TypeError.  A field exists only on a
    grid at or above the band limit n_theta >= 2J + 1, n_phi >= 4J + 1
    (BandLimitError otherwise).
    """
    return channel.phase_space_dissipator(field)


def floored_integral(field: HusimiField, f, values: np.ndarray, context: str | None = None) -> tuple:
    """Sphere integral of f(values, Q) over the nodes where Q clears the Husimi floor, and the weight of the rest.

    Given a context, an exclusion also raises QFloorWarning with the text
    FLOOR_NOTE.  The Wehrl entropy passes none: Q ln Q has a removable
    limit at Q = 0, so the excluded nodes lose nothing.  The mask and its
    boolean-indexed integrand are built only when some node lies below the
    floor.
    """
    q = field.q
    if q.min() >= Q_FLOOR:
        return field.grid.integrate(f(values, q)), 0.0
    mask = q >= Q_FLOOR
    excluded = float(np.sum(field.grid.weights_2d[~mask]))
    if context is not None:
        warnings.warn(FLOOR_NOTE.format(context, excluded), QFloorWarning, stacklevel=3)
    integrand = np.zeros_like(q)
    integrand[mask] = f(values[mask], q[mask])
    return field.grid.integrate(integrand), excluded


def wehrl_entropy(field: HusimiField) -> float:
    """Wehrl entropy -(2J+1)/(4 pi) integral of Q ln Q."""
    pref = (field.j.two_j + 1) / (4.0 * np.pi)
    return -pref * floored_integral(field, lambda q, _: q * np.log(q), field.q)[0]


def wehrl_rate_dissipative(field: HusimiField, channel) -> float:
    """Dissipative Wehrl entropy rate -(2J+1)/(4 pi) integral of D(Q) ln Q."""
    pref = (field.j.two_j + 1) / (4.0 * np.pi)
    dvals = dissipator_field(field, channel)
    return -pref * floored_integral(field, lambda d, q: d * np.log(q), dvals, "wehrl rate")[0]
