"""Spin coherent states, Husimi fields on a sphere grid, and Wehrl functionals.

A state of spin J becomes the function Q(theta, phi) = <Omega| rho |Omega>
with |Omega> = exp(-i phi jz) exp(-i theta jy) |J, J>.  In the ladder basis
the overlap factorizes as <J, m|Omega> = exp(-i m phi) a_m(theta) with real
nonnegative amplitudes, so Q is a finite azimuthal Fourier series

    Q(theta, phi) = sum_k g_k(theta) exp(i k phi),  |k| <= 2J,

whose component g_k sums rho[r, r + k] a_r a_{r+k} along the k-th
diagonal.  Q is real, so g_{-k} = conj(g_k), and

    Q = Re sum_{k >= 0} c_k e^{ik phi} = sum_k (Re c_k cos(k phi) - Im c_k sin(k phi)),

with c_k = 2 g_k for k > 0, which is one real matrix product of the
interleaved [Re c_k, Im c_k] columns with a cos/sin table.

The differential actions

    jz  -> -i d_phi
    j+  ->  exp(+i phi) (d_theta + i cot(theta) d_phi)
    j-  -> -exp(-i phi) (d_theta - i cot(theta) d_phi)

are read pointwise from the synthesized Q, dQ/dtheta and dQ/dphi.

Every field, integral and rate here takes one state or a stack of states
along a leading axis: a stack of N states is validated in one batched
pass and synthesized in one pair-space scatter and two batched GEMMs, and
its integrals are (N,) arrays of the same theta-weighted row sums.  One
state is the stack of one without the leading axis, through the same code.

The map rho -> Q is linear, so the phase-space dissipator of a channel,
the rate of change D(Q) that its dissipator gives Q, is the Husimi
function of the matrix dissipator: D(Q) = Q[D[rho]].  dissipator_field
synthesizes it from channel.dissipator(rho) exactly as Q is synthesized
from rho, so no channel carries a phase-space formula of its own.

Whatever depends only on J and the grid is built on first use and cached
on the SphereGrid, keyed by 2J: the pair products a_r a_r' (r <= r') of the
coherent amplitudes with their first theta-derivatives, one row per
(order, theta node) and doubled where r' > r, the cos/sin table over
k = 0 ... 2J, and the indices that scatter a matrix into pair space.  A
Hermitian matrix M becomes a real (pairs x 2K) matrix, K = 2J + 1, whose
row for the pair (r, r') holds [Re M[r, r'], Im M[r, r']] at column
k = r' - r.  For M = rho, one GEMM per state with the value and
theta-derivative rows of the pair table gives the interleaved coefficients
[Re c_k, Im c_k] of Q and dQ/dtheta on every theta node, ik times those of
Q give dQ/dphi, and one real (3 N n_theta x 2K) @ (2K x n_phi) product
synthesizes all three fields of every state; D(Q) takes the value rows
alone for M = D[rho].

Quadrature pairs Gauss-Legendre nodes in cos(theta) with a uniform phi
grid, so there are no polar nodes and trigonometric polynomials up to the
band limit integrate exactly.  Every grid integral is one form,
(2 pi / n_phi) sum_theta W_theta sum_phi f: the phi sums of each theta row
against the Gauss-Legendre weights.
"""

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BandLimitError, DimensionError, QFloorWarning, RangeError
from .spins import SpinJ, check_density_matrix, check_density_stack, read_only

Q_FLOOR = 1e-14
FLOOR_NOTE = "{}: excluded weight {:.3e} below Husimi floor"


class SolidAngle(NamedTuple):
    """Point on the sphere: polar angle theta in [0, pi], azimuth phi."""

    theta: float
    phi: float


class SphereGrid:
    """Product quadrature grid: Gauss-Legendre in cos(theta) times uniform phi.

    theta_nodes ascend in (0, pi) and theta_weights are the Gauss-Legendre
    weights of cos(theta), summing to 2.  The rule is solved in theta
    itself, by a fixed few vectorized Newton steps on the Fourier series of
    P_n(cos theta) (see _gauss_legendre_theta): it puts the nodes within a
    few ulp of the exact rule, also at the poles, where arccos of a node in
    cos(theta) loses digits.  The nodes are symmetric about the equator bit
    for bit, with equal weights, and an odd rule's middle node is pi/2.

    The grid also caches the synthesis tables of each spin it has
    sampled a field of; they are built on the first field, not here, and
    only at or above the band limit n_theta >= 2J + 1, n_phi >= 4J + 1.
    """

    def __init__(self, n_theta: int = 64, n_phi: int = 64):
        if not all(isinstance(n, (int, np.integer)) for n in (n_theta, n_phi)):
            raise TypeError(f"grid sizes must be integers, got {n_theta!r} x {n_phi!r}")
        if n_theta < 2 or n_phi < 4:
            raise ValueError(f"grid too small: {n_theta} x {n_phi}")
        self.n_theta = int(n_theta)
        self.n_phi = int(n_phi)
        self.theta_nodes, self.theta_weights = _gauss_legendre_theta(self.n_theta)
        self.phi_nodes = 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi
        self.cos_theta = np.cos(self.theta_nodes)
        self.sin_theta = np.sin(self.theta_nodes)
        self.cot_theta = self.cos_theta / self.sin_theta
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

    def integrate(self, values: np.ndarray):
        """Integral over the full sphere of values sampled on the grid, (..., n_theta, n_phi) (see integrate_rows)."""
        values = np.asarray(values)
        if values.shape[-2:] != (self.n_theta, self.n_phi):
            raise DimensionError(f"values shape {values.shape} does not match grid {self.n_theta} x {self.n_phi}")
        return self.integrate_rows(values.sum(axis=-1))

    def integrate_rows(self, row_sums: np.ndarray):
        """Integral over the full sphere of a field given by its phi sums on each theta row.

        (2 pi / n_phi) sum_theta W_theta row_sums[..., theta]: a float for
        one field's (n_theta,) row sums, an (N,) array for a stack's
        (N, n_theta).  A theta-only factor of the integrand can multiply the
        row sums instead of the grid.
        """
        return _per_state(_dots(row_sums.real, self.theta_weights) * (2.0 * np.pi / self.n_phi))


def _gauss_legendre_theta(n: int) -> tuple:
    """The n-point Gauss-Legendre rule in cos(theta) as ascending polar angles and their weights.

    Newton's method in theta on the Fourier series of the Legendre
    polynomial, folded onto its positive frequencies m = n - 2k,

        P_n(cos theta) = sum_{k < n/2} 2 a_k a_{n-k} cos((n - 2k) theta)  [+ a_{n/2}^2 for even n],

    with a_k = C(2k, k) / 4^k (Hale and Townsend, SIAM J. Sci. Comput. 35,
    A652 (2013)).  Tricomi's guess puts each node in (0, pi/2] within 2e-3
    relative, at any n, and each Newton step squares that error (about
    1e-6, then 1e-12), so three steps reach roundoff for every n.  A step
    is one cos/sin table over (node, frequency) and two matrix-vector
    products; that table is the rule's first allocation larger than O(n).
    The weight 2 / ((1 - x^2) P_n'(x)^2) at x = cos(theta) is
    2 / (dP_n/dtheta)^2 at the converged nodes.  The other half mirrors
    them as pi - theta with the same weights, and an odd n's middle node is
    pi/2 exactly.
    """
    half = (n + 1) // 2
    guess = (4 * np.arange(1, half + 1) - 1) * np.pi / (4 * n + 2)
    # Tricomi's x = (1 - (n - 1) / 8n^3) cos(guess), to first order in theta
    theta = guess + (n - 1) / (8.0 * n**3) / np.tan(guess)
    i = np.arange(1, n + 1)
    a = np.cumprod(np.concatenate(([1.0], (i - 0.5) / i)))  # a_k / a_{k-1} = (2k - 1) / 2k
    k = np.arange(half)
    freq = n - 2 * k
    coeffs = 2.0 * a[k] * a[n - k]
    constant = a[n // 2] ** 2 if n % 2 == 0 else 0.0
    slopes = freq * coeffs
    for _ in range(3):
        angles = np.outer(theta, freq)
        theta = theta + (np.cos(angles) @ coeffs + constant) / (np.sin(angles) @ slopes)
    if n % 2:
        theta[-1] = 0.5 * np.pi
    weights = 2.0 / (np.sin(np.outer(theta, freq)) @ slopes) ** 2
    return np.concatenate((theta, np.pi - theta[: n // 2][::-1])), np.concatenate((weights, weights[: n // 2][::-1]))


def _dots(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """rows[..., :] @ weights for each row, one (1 x n) @ (n x 1) product per row.

    numpy takes each such product as one dot, the same as a lone row's
    rows @ weights, so a state's value does not depend on the stack it sits
    in; one GEMV of the whole stack would sum in another order.
    """
    return np.matmul(rows[..., None, :], weights[:, None])[..., 0, 0]


def _per_state(values: np.ndarray):
    """A float for one state's 0-d value, else the (N,) array of a stack's values."""
    return values if values.ndim else float(values)


def _amplitude_table(j: SpinJ, thetas: np.ndarray) -> np.ndarray:
    """Coherent-state amplitudes a_m(theta) and their theta-derivatives.

    Returns shape (2, dim, len(thetas)); row index r corresponds to
    m = J - r.  a_m = sqrt(C(2J, J-m)) cos^(J+m)(theta/2) sin^(J-m)(theta/2).
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    c = np.cos(0.5 * thetas)
    s = np.sin(0.5 * thetas)
    out = np.zeros((2, j.dim, thetas.shape[0]))
    for r in range(j.dim):
        p = j.two_j - r
        q = r
        root = math.sqrt(math.comb(j.two_j, r))
        out[0, r] = root * c**p * s**q
        acc = np.zeros_like(thetas)
        if q > 0:
            acc += q * c ** (p + 1) * s ** (q - 1)
        if p > 0:
            acc -= p * c ** (p - 1) * s ** (q + 1)
        out[1, r] = 0.5 * root * acc
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
    table = _amplitude_table(j, np.array([theta]))
    return CoherentAmplitudes(j=j, theta=theta, amplitudes=table[0, :, 0].copy(), damplitudes=table[1, :, 0].copy())


@dataclass(frozen=True, eq=False)
class _SpinTables:
    """What the Husimi synthesis needs of one spin on one grid; read-only once built.

    pairs[o * n_theta + i, p] holds the o-th theta-derivative (o = 0, 1)
    of a_r a_r' at node i for the p-th pair (r, r') of the upper triangle
    r <= r', in row-major order, doubled where r' > r (the weight of
    c_k = 2 g_k at k = r' - r > 0); squares[i, r] is a_m^2 at node i for
    m = J - r, the value rows of the diagonal pairs (r, r).  A matrix's pair-space form is zero but for its entry
    rho.flat[source[p]] at flat index target[p] of a complex
    (pairs, 2J + 1) array, column k = r' - r.  trig rows 2k and 2k + 1 hold
    cos(k phi) and -sin(k phi) on the phi nodes, k = 0 ... 2J, and the row
    ik maps a component of Q to the one of d_phi Q.
    """

    pairs: np.ndarray
    squares: np.ndarray
    source: np.ndarray
    target: np.ndarray
    trig: np.ndarray
    ik: np.ndarray


def _build_tables(j: SpinJ, grid: SphereGrid) -> _SpinTables:
    grid.check_band_limit(j)
    a0, a1 = _amplitude_table(j, grid.theta_nodes)
    rows, cols = np.triu_indices(j.dim)
    k = cols - rows
    doubled = np.where(np.arange(j.dim) > 0, 2.0, 1.0)
    pairs = np.stack((
        a0[rows] * a0[cols],
        a1[rows] * a0[cols] + a0[rows] * a1[cols],
    )) * doubled[k, None]
    pairs = np.ascontiguousarray(pairs.transpose(0, 2, 1).reshape(2 * grid.n_theta, rows.size))
    angles = np.arange(j.dim)[:, None] * grid.phi_nodes[None, :]
    trig = np.stack((np.cos(angles), -np.sin(angles)), axis=1).reshape(2 * j.dim, grid.n_phi)
    tables = _SpinTables(
        pairs=pairs, squares=pairs[: grid.n_theta, k == 0], source=rows * j.dim + cols, target=np.arange(rows.size) * j.dim + k,
        trig=trig, ik=1j * np.arange(j.dim),
    )
    for table in vars(tables).values():
        table.flags.writeable = False
    return tables


def _pair_space(matrices: np.ndarray, tables: _SpinTables) -> np.ndarray:
    """Hermitian matrices M, one (d, d) or a stack (..., d, d), in pair space, where each upper triangle fixes M.

    The real (..., pairs, 2(2J + 1)) array whose row for the pair (r, r')
    holds [Re M[r, r'], Im M[r, r']] at column k = r' - r (m - m' for
    m = J - r, m' = J - r'), filled by one scatter.
    """
    lead = matrices.shape[:-2]
    out = np.zeros((*lead, tables.source.size, matrices.shape[-1]), dtype=complex)
    out.reshape(*lead, -1)[..., tables.target] = matrices.reshape(*lead, -1)[..., tables.source]
    return out.view(float)


@dataclass(frozen=True, eq=False)
class HusimiField:
    """Husimi function of a state, or of each state of a stack, sampled on a sphere grid.

    q, dq_dtheta and dq_dphi are real arrays of shape (n_theta, n_phi),
    or (N, n_theta, n_phi) for a stack, synthesized together from the
    states in pair space with the tables the grid caches for this spin; the
    ladder actions are read pointwise from them.  rho is a read-only copy
    of the validated state (d, d), or stack (N, d, d), which the dissipator
    field and the damping flux read.
    """

    j: SpinJ
    grid: SphereGrid
    q: np.ndarray
    dq_dtheta: np.ndarray
    dq_dphi: np.ndarray
    rho: np.ndarray


def husimi_field(rho: np.ndarray, grid: SphereGrid) -> HusimiField:
    """Sample Q = <Omega|rho|Omega> and its first angular derivatives on a grid, of one state or an (N, d, d) stack.

    A stack is validated in one batched pass, whose error names the first
    bad state, and synthesized in one scatter, one batched GEMM with the
    pair table and one with the trig table.
    """
    rho = np.asarray(rho, dtype=complex)
    states = check_density_stack(rho)
    n, dim = states.shape[:2]
    j = SpinJ(dim - 1)
    tables = grid._spin_tables(j)
    n_theta = grid.n_theta
    # per state, rows: the [Re c_k, Im c_k] of Q, then of dQ/dtheta, then of dQ/dphi, on every theta node
    coeffs = np.empty((n, 3 * n_theta, 2 * dim))
    np.matmul(tables.pairs, _pair_space(states, tables), out=coeffs[:, : 2 * n_theta])
    np.multiply(coeffs[:, :n_theta].view(complex), tables.ik, out=coeffs[:, 2 * n_theta :].view(complex))
    fields = (coeffs.reshape(-1, 2 * dim) @ tables.trig).reshape(n, 3, n_theta, grid.n_phi)
    if rho.ndim == 2:
        fields, states = fields[0], states[0]
    q, dq_dtheta, dq_dphi = fields.swapaxes(0, -3)
    return HusimiField(j=j, grid=grid, q=q, dq_dtheta=dq_dtheta, dq_dphi=dq_dphi, rho=read_only(states))


def husimi_q(rho: np.ndarray, omega: SolidAngle) -> float:
    """Husimi value <Omega|rho|Omega> at a single direction."""
    rho = check_density_matrix(rho)
    theta, phi = omega
    if not (0.0 <= theta <= math.pi):
        raise RangeError(f"theta must lie in [0, pi], got {theta}")
    if not math.isfinite(phi):
        raise RangeError(f"phi must be finite, got {phi}")
    j = SpinJ(rho.shape[0] - 1)
    # Q = u^H rho u with u_r = <J, J - r|Omega> up to a global phase: a_r e^{i r phi}
    u = _amplitude_table(j, np.array([theta]))[0, :, 0] * np.exp(1j * np.arange(j.dim) * phi)
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


def damping_flux(field: HusimiField, gamma_bar: float, tau_bar_z: float, populations_eq: np.ndarray):
    """Wehrl flux rate of thermal ladder damping, read from the populations alone (see ep_rate_damping_quad).

    Integrating the drift terms of sigma by parts leaves
    (gamma_bar/2)(2J+1)/(4 pi) times the integral of w(theta) Q, so only the
    azimuthal average sum_m p_m a_m^2 of Q enters.  Written against the
    stationary populations populations_eq, it is exactly 0.0 on that state.
    The weight f_m is formed once per call; each state's flux is its own
    (2J+1)-term dot with f (see _dots), so its value does not depend on the
    stack.
    """
    grid = field.grid
    tables = grid._spin_tables(field.j)
    c, s, t, n = grid.cos_theta, grid.sin_theta, tau_bar_z, field.j.two_j
    w = (n * t) ** 2 * s**2 / (1.0 + t * c) - 2 * n * t * c
    f = (grid.theta_weights * w) @ tables.squares
    excess = field.rho.diagonal(0, -2, -1).real - populations_eq
    return _per_state(0.25 * gamma_bar * (n + 1) * _dots(excess, f))


def dissipator_field(field: HusimiField, channel) -> np.ndarray:
    """Phase-space dissipator D(Q) of the channel, sampled on the field's grid.

    Q is linear in rho, so D(Q) is the Husimi function of the matrix
    dissipator D[rho], Hermitian like rho: one synthesis from the same
    pair-space scatter and value rows of the pair table as Q.  A unitary
    channel's dissipator is zero, and so is its D(Q).  A stack's field gives
    an (N, n_theta, n_phi) array.  A channel of another spin than the
    field's raises DimensionError.
    """
    if channel.dim != field.j.dim:
        raise DimensionError("channel spin does not match field spin")
    tables = field.grid._spin_tables(field.j)
    coeffs = tables.pairs[: field.grid.n_theta] @ _pair_space(channel.dissipator(field.rho), tables)
    return coeffs @ tables.trig


def floor_mask(field: HusimiField, context: str | None = None) -> tuple:
    """Mask of the nodes where Q clears the Husimi floor (None when all do) and the grid weight of the rest.

    The excluded weight is the integral of the masked-node count of each
    theta row: 0.0 when every node clears the floor, else a float for one
    field and an (N,) array of each state's weight for a stack.  Given a
    context, each state with an exclusion also raises QFloorWarning with
    the text FLOOR_NOTE, in state order, attributed to the caller of the
    rate that asked.
    """
    q = field.q
    if q.min() >= Q_FLOOR:
        return None, 0.0
    mask = q >= Q_FLOOR
    excluded = field.grid.integrate(~mask)
    if context is not None:
        for weight in np.ravel(excluded):
            if weight:
                warnings.warn(FLOOR_NOTE.format(context, weight), QFloorWarning, stacklevel=4)
    return mask, excluded


def floored_log(field: HusimiField, context: str | None = None) -> np.ndarray:
    """ln Q on the nodes where Q clears the Husimi floor and 0 on the rest, so a product with it leaves them out.

    Given a context, an exclusion also raises QFloorWarning (see
    floor_mask).  The Wehrl entropy passes none: Q ln Q has a removable
    limit at Q = 0, so the excluded nodes lose nothing.
    """
    mask, _ = floor_mask(field, context)
    return np.log(field.q if mask is None else np.where(mask, field.q, 1.0))


def wehrl_entropy(field: HusimiField):
    """Wehrl entropy -(2J+1)/(4 pi) integral of Q ln Q: a float, or an (N,) array for a stack."""
    pref = (field.j.two_j + 1) / (4.0 * np.pi)
    return -pref * field.grid.integrate(field.q * floored_log(field))


def wehrl_rate_dissipative(field: HusimiField, channel):
    """Dissipative Wehrl entropy rate -(2J+1)/(4 pi) integral of D(Q) ln Q: a float, or an (N,) array for a stack."""
    pref = (field.j.two_j + 1) / (4.0 * np.pi)
    return -pref * field.grid.integrate(dissipator_field(field, channel) * floored_log(field, "wehrl rate"))
