"""Independent numpy reference for the quantities the benchmark checks.

Nothing here imports spinphase.  Each quantity is written from its defining
formula in the most direct form (dense coherent-state vectors, matrix
dissipators, eigendecomposition logarithms, Taylor-series propagators), so
a change to the library's algorithms (batching, FFT synthesis, exact
propagation) is checked against formulas it does not share code with.
"""

import math

import numpy as np

Q_FLOOR = 1e-14


# --- spin algebra -----------------------------------------------------------

def spin_ops(two_j):
    """(jz, j+, j-) in the basis m = J, J-1, ..., -J."""
    d = two_j + 1
    j = two_j / 2.0
    m = j - np.arange(d)
    jplus = np.zeros((d, d), dtype=complex)
    for r in range(d - 1):
        jplus[r, r + 1] = math.sqrt(j * (j + 1) - m[r + 1] * (m[r + 1] + 1))
    return np.diag(m.astype(complex)), jplus, jplus.conj().T


def _lindblad(op, rho):
    ldl = op.conj().T @ op
    return op @ rho @ op.conj().T - 0.5 * (ldl @ rho + rho @ ldl)


def dissipator(channel, rho):
    """Matrix dissipator D[rho] for ("dephasing", lam), ("damping", gamma, nbar), ("damping_inf", gamma_bar)."""
    jz, jp, jm = spin_ops(rho.shape[0] - 1)
    kind = channel[0]
    if kind == "dephasing":
        inner = jz @ rho - rho @ jz
        return -0.5 * channel[1] * (jz @ inner - inner @ jz)
    if kind == "damping":
        gamma, nbar = channel[1], channel[2]
        return gamma * (nbar + 1.0) * _lindblad(jm, rho) + gamma * nbar * _lindblad(jp, rho)
    return 0.5 * channel[1] * (_lindblad(jm, rho) + _lindblad(jp, rho))


def stationary_state(channel, dim):
    """Thermal reference state of a damping channel (populations ratio nbar/(nbar+1) per rung)."""
    if channel[0] == "damping_inf":
        return np.eye(dim, dtype=complex) / dim
    x = channel[2] / (channel[2] + 1.0)
    weights = x ** np.arange(dim - 1, -1, -1, dtype=float)
    return np.diag((weights / weights.sum()).astype(complex))


def _logm_herm(rho):
    vals, vecs = np.linalg.eigh(rho)
    return (vecs * np.log(vals)) @ vecs.conj().T


def vn_rates(channel, rho):
    """(sigma, phi, ds_dt) of the von Neumann route; phi is 0 for dephasing."""
    gen = dissipator(channel, rho)
    ds_dt = -float(np.trace(gen @ _logm_herm(rho)).real)
    if channel[0] == "dephasing":
        return ds_dt, 0.0, ds_dt
    phi = float(np.trace(gen @ _logm_herm(stationary_state(channel, rho.shape[0]))).real)
    return ds_dt + phi, phi, ds_dt


def vn_entropy(rho):
    vals = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    vals = vals[vals > 0.0]
    return float(-np.sum(vals * np.log(vals)))


def l1(rho):
    return float(np.sum(np.abs(rho)) - np.sum(np.abs(np.diag(rho))))


# --- propagation --------------------------------------------------------------

def superoperator(channel, dim):
    """Matrix of rho -> D[rho] acting on row-major vec(rho)."""
    cols = []
    for k in range(dim * dim):
        basis = np.zeros(dim * dim, dtype=complex)
        basis[k] = 1.0
        cols.append(dissipator(channel, basis.reshape(dim, dim)).ravel())
    return np.array(cols).T


def expm(a):
    """Matrix exponential by scaling and squaring of a degree-18 Taylor series."""
    norm = np.linalg.norm(a, 1)
    squarings = max(0, int(math.ceil(math.log2(norm / 0.25)))) if norm > 0.25 else 0
    a = a / 2.0**squarings
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, 19):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def _propagate(step, rho0, n_steps):
    dim = rho0.shape[0]
    vec = rho0.ravel().astype(complex)
    out = np.empty((n_steps + 1, dim, dim), dtype=complex)
    for k in range(n_steps + 1):
        out[k] = vec.reshape(dim, dim)
        vec = step @ vec
    return out


def exact_trajectory(channel, rho0, t_max, n_steps):
    """States exp(t_k L) rho0 at t_k = k t_max / n_steps, k = 0 .. n_steps."""
    return _propagate(expm((t_max / n_steps) * superoperator(channel, rho0.shape[0])), rho0, n_steps)


def rk4_trajectory(channel, rho0, t_max, n_steps):
    """Classic RK4 states at the same times: for a linear generator one RK4
    step is the degree-4 Taylor polynomial of exp(h L)."""
    a = (t_max / n_steps) * superoperator(channel, rho0.shape[0])
    step, term = np.eye(a.shape[0], dtype=complex), np.eye(a.shape[0], dtype=complex)
    for k in range(1, 5):
        term = term @ a / k
        step = step + term
    return _propagate(step, rho0, n_steps)


# --- phase space --------------------------------------------------------------

class Grid:
    """Gauss-Legendre nodes in cos(theta) times a uniform phi grid, with 2D weights."""

    def __init__(self, n_theta, n_phi):
        x, w = np.polynomial.legendre.leggauss(n_theta)
        self.theta = np.arccos(x)
        self.phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        self.weights = np.outer(w, np.full(n_phi, 2.0 * np.pi / n_phi))

    def integrate(self, values):
        return float(np.sum(values * self.weights))


def husimi(rho, grid):
    """Q, dQ/dtheta, dQ/dphi on the grid from the coherent vectors u_r = a_r(theta) e^{i r phi}."""
    two_j = rho.shape[0] - 1
    r = np.arange(two_j + 1)
    p = two_j - r
    root = np.sqrt([math.comb(two_j, k) for k in r])
    c = np.cos(0.5 * grid.theta)[:, None]
    s = np.sin(0.5 * grid.theta)[:, None]
    amp = root * c**p * s**r
    damp = 0.5 * root * (r * c ** (p + 1) * s ** (r - 1.0) - p * c ** (p - 1.0) * s ** (r + 1))
    phase = np.exp(1j * np.outer(grid.phi, r))
    u = amp[:, None, :] * phase[None, :, :]
    rho_u = u @ rho.T
    q = np.einsum("tpr,tpr->tp", u.conj(), rho_u).real
    dq_dtheta = 2.0 * np.einsum("tpr,tpr->tp", (damp[:, None, :] * phase[None, :, :]).conj(), rho_u).real
    dq_dphi = 2.0 * np.einsum("tpr,tpr->tp", (1j * r * u).conj(), rho_u).real
    return u, q, dq_dtheta, dq_dphi


def wehrl_entropy(rho, grid):
    _, q, _, _ = husimi(rho, grid)
    mask = q > Q_FLOOR
    vals = np.zeros_like(q)
    vals[mask] = q[mask] * np.log(q[mask])
    return -(rho.shape[0] / (4.0 * np.pi)) * grid.integrate(vals)


def quad_rates(channel, rho, grid):
    """(sigma, phi, ds_dt) of the Wehrl route on the grid.

    sigma integrates the squared phase-space currents over Q; ds_dt is the
    dissipative Wehrl rate -pref * integral D(Q) ln Q with D(Q) the Husimi
    function of the matrix dissipator D[rho]; phi = sigma - ds_dt.
    """
    dim = rho.shape[0]
    two_j = dim - 1
    pref = dim / (4.0 * np.pi)
    u, q, dq_dt, dq_dp = husimi(rho, grid)
    cos_t = np.cos(grid.theta)[:, None]
    sin_t = np.sin(grid.theta)[:, None]
    kind = channel[0]
    if kind == "dephasing":
        num, rate = dq_dp**2, channel[1]
    elif kind == "damping_inf":
        num, rate = dq_dt**2 + dq_dp**2 * (cos_t / sin_t) ** 2, channel[1]
    else:
        big_m = 2.0 * channel[2] + 1.0
        drift = two_j * q * sin_t + (cos_t - big_m) * dq_dt
        num = drift**2 / (big_m - cos_t) + dq_dp**2 * (big_m * cos_t - 1.0) * cos_t / sin_t**2
        rate = channel[1]
    mask = q >= Q_FLOOR
    integrand = np.zeros_like(q)
    integrand[mask] = num[mask] / q[mask]
    sigma = 0.5 * rate * pref * grid.integrate(integrand)
    if kind == "dephasing":
        return sigma, 0.0, sigma
    d_q = np.einsum("tpr,tpr->tp", u.conj(), u @ dissipator(channel, rho).T).real
    integrand = np.zeros_like(q)
    integrand[mask] = d_q[mask] * np.log(q[mask])
    ds_dt = -pref * grid.integrate(integrand)
    return sigma, sigma - ds_dt, ds_dt
