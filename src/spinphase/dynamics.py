"""Lindblad channels, fixed-step propagation, and the classical rate sector.

Channels bundle a Hamiltonian with a dissipator.  The dephasing channel
couples through jz with strength lambda; the amplitude-damping channel is
the thermal ladder pair (J-, J+) with loss rate gamma (nbar + 1) and gain
rate gamma nbar, read from the one BathParams it carries.  Each channel is
one frozen object holding every constant its rates read, and its
Hamiltonian and jump operators as read-only copies taken at construction,
so its generator matrix, built on first read, stays valid.

A channel acts on matrices only.  The map from rho to its Husimi function
Q is linear, so a channel's phase-space dissipator is the Husimi function
of its matrix dissipator, which phase_space synthesizes from
dissipator(rho); no channel carries a phase-space form of its own.
"""

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BasisError,
    DimensionError,
    PositivityWarning,
    StepCountError,
    ZeroRateError,
)
from .spins import (
    EIG_FLOOR,
    SpinJ,
    SpinOperators,
    _above_floor,
    check_density_matrix,
    read_only,
    relative_entropy_of_coherence,
)


class Channel:
    """Base of every channel, which gives its dim, hamiltonian (or None) and dissipator(rho) on (..., d, d) stacks."""

    @functools.cached_property
    def generator(self) -> np.ndarray:
        """Read-only d^2 x d^2 generator on row-major vec(rho), built on first read from one apply_liouvillian call.

        The call acts on the stack of basis matrices |a><b|, one column each;
        evolve's step map and every von Neumann rate read this one build.
        """
        d = self.dim
        basis = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
        gen = np.ascontiguousarray(apply_liouvillian(self, basis).reshape(d * d, d * d).T)
        gen.flags.writeable = False
        return gen


@dataclass(frozen=True, eq=False)
class UnitaryChannel(Channel):
    """Closed evolution under a Hamiltonian."""

    hamiltonian: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "hamiltonian", read_only(self.hamiltonian))

    dim = property(lambda self: self.hamiltonian.shape[0])

    def dissipator(self, rho: np.ndarray) -> np.ndarray:
        return np.zeros_like(rho)


def check_dephasing_rate(lam: float) -> None:
    """Raise ValueError unless the dephasing rate lam is finite and >= 0; every dephasing rate goes through this check."""
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"dephasing rate must be finite and >= 0, got {lam}")


@dataclass(frozen=True, eq=False)
class DephasingChannel(Channel):
    """Pure dephasing through jz at a finite rate lam >= 0; D[rho] is rho times the read-only weights."""

    lam: float
    ops: SpinOperators
    hamiltonian: np.ndarray | None = None
    weights: np.ndarray = field(init=False, repr=False)
    stationary_log_populations: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        check_dephasing_rate(self.lam)
        object.__setattr__(self, "hamiltonian", read_only(self.hamiltonian))
        # the dissipator scales each entry, so its value at rho = 1 is the weight table
        with np.errstate(over="ignore"):
            weights = dephasing_dissipator(self.lam, self.ops, 1.0)
        if not np.isfinite(weights).all():
            raise ValueError(f"dephasing rate {self.lam} overflows the dissipator weights at dim {self.ops.j.dim}")
        object.__setattr__(self, "weights", read_only(weights))
        # unital, so the stationary state is uniform, as at infinite temperature
        object.__setattr__(self, "stationary_log_populations", damping_stationary_log_populations(self.ops.j, math.inf))

    dim = property(lambda self: self.ops.j.dim)

    def dissipator(self, rho: np.ndarray) -> np.ndarray:
        return self.weights * rho


def _bath_rates(gamma: float, nbar: float) -> tuple:
    """(tau_bar_z, gamma_bar) of a bath at finite occupation, after range-checking gamma and nbar."""
    if not (0.0 <= gamma < math.inf and 0.0 <= nbar < math.inf):
        raise ValueError(f"gamma and nbar must be finite and >= 0, got gamma={gamma} nbar={nbar}")
    return -1.0 / (2.0 * nbar + 1.0), gamma * (2.0 * nbar + 1.0)


@dataclass(frozen=True)
class BathParams:
    """Thermal bath of the damping channel; the one place its rates are derived and checked.

    tau_bar_z = -1/(2 nbar + 1) is the stationary qubit polarization and
    gamma_bar = gamma (2 nbar + 1) the total relaxation rate.  gamma_bar
    stays finite at tau_bar_z = 0 (infinite temperature), where gamma
    itself vanishes.
    """

    gamma: float
    nbar: float
    tau_bar_z: float
    gamma_bar: float

    def __post_init__(self):
        if not -1.0 <= self.tau_bar_z <= 0.0:
            raise ValueError(f"tau_bar_z must lie in [-1, 0], got {self.tau_bar_z}")
        if not 0.0 <= self.gamma_bar < math.inf:
            raise ValueError(f"gamma_bar must be finite and >= 0, got {self.gamma_bar}")
        if math.isinf(self.nbar):
            if self.gamma != 0.0 or self.tau_bar_z != 0.0:
                raise ValueError("infinite nbar needs gamma = 0 and tau_bar_z = 0")
            return
        tau_bar_z, gamma_bar = _bath_rates(self.gamma, self.nbar)
        if abs(self.tau_bar_z - tau_bar_z) > 1e-9:
            raise ValueError("tau_bar_z inconsistent with nbar")
        if abs(self.gamma_bar - gamma_bar) > 1e-9 * max(1.0, gamma_bar):
            raise ValueError("gamma_bar inconsistent with gamma and nbar")

    @classmethod
    def from_nbar(cls, gamma: float, nbar: float) -> "BathParams":
        tau_bar_z, gamma_bar = _bath_rates(gamma, nbar)
        return cls(gamma=gamma, nbar=nbar, tau_bar_z=tau_bar_z, gamma_bar=gamma_bar)

    @classmethod
    def from_tau_bar(cls, gamma_bar: float, tau_bar_z: float) -> "BathParams":
        if tau_bar_z == 0.0:
            return cls(gamma=0.0, nbar=math.inf, tau_bar_z=0.0, gamma_bar=gamma_bar)
        # -1/tau_bar_z - 1 cancels as tau_bar_z -> -1, where 1 + tau_bar_z is exact and keeps nbar's digits
        nbar = 0.5 * (-1.0 / tau_bar_z - 1.0) if tau_bar_z > -0.5 else -0.5 * (1.0 + tau_bar_z) / tau_bar_z
        return cls(gamma=gamma_bar * (-tau_bar_z), nbar=nbar, tau_bar_z=tau_bar_z, gamma_bar=gamma_bar)

    def channel(self, ops: SpinOperators) -> "AmplitudeDampingChannel":
        """Damping channel of this bath; it carries this object, not a copy of its rates."""
        return AmplitudeDampingChannel(self, ops)


def _lindblad_term(l_op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    ldl = l_op.conj().T @ l_op
    return l_op @ rho @ l_op.conj().T - 0.5 * (ldl @ rho + rho @ ldl)


@dataclass(frozen=True, eq=False)
class AmplitudeDampingChannel(Channel):
    """Thermal ladder damping: loss through J- at gamma (nbar + 1) and gain through J+ at gamma nbar.

    The rates are read from the one BathParams the channel carries, as
    (gamma_bar +- gamma) / 2 with gamma_bar = gamma (2 nbar + 1), the total
    relaxation rate that stays finite in the infinite-temperature limit
    gamma -> 0, nbar -> inf.  The read-only stationary_populations p_m, which
    every damping flux reads, and stationary_log_populations, their closed
    form logarithms and every von Neumann rate's reference, are built here.
    """

    bath: BathParams
    ops: SpinOperators
    hamiltonian: np.ndarray | None = None
    stationary_populations: np.ndarray = field(init=False, repr=False)
    stationary_log_populations: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "hamiltonian", read_only(self.hamiltonian))
        j, nbar = self.ops.j, self.bath.nbar
        object.__setattr__(self, "stationary_populations", damping_stationary_populations(j, nbar))
        object.__setattr__(self, "stationary_log_populations", damping_stationary_log_populations(j, nbar))

    dim = property(lambda self: self.ops.j.dim)

    @property
    def jumps(self) -> tuple:
        """(rate, jump) pairs: loss (gamma_bar + gamma) / 2 through J-, gain (gamma_bar - gamma) / 2 through J+."""
        bath = self.bath
        return (
            (0.5 * (bath.gamma_bar + bath.gamma), self.ops.jminus),
            (0.5 * (bath.gamma_bar - bath.gamma), self.ops.jplus),
        )

    def dissipator(self, rho: np.ndarray) -> np.ndarray:
        """Sum of the Lindblad terms of both jumps, a zero rate's term skipped."""
        out = np.zeros_like(rho)
        for rate, jump in self.jumps:
            if rate != 0.0:
                out = out + rate * _lindblad_term(jump, rho)
        return out


def dephasing_dissipator(lam: float, ops: SpinOperators, rho: np.ndarray) -> np.ndarray:
    """-(lam/2) [jz, [jz, rho]]; jz is diagonal, so entry (m, m') is scaled by -(lam/2)(m - m')^2."""
    m = ops.jz.diagonal().real
    gap = m[:, None] - m
    return -0.5 * lam * (gap * gap) * rho


def apply_liouvillian(spec: Channel, rho: np.ndarray) -> np.ndarray:
    """Full generator L[rho] = -i [H, rho] + D[rho], of one state or of each state in a (..., d, d) stack."""
    rho = np.asarray(rho, dtype=complex)
    d = spec.dim
    if rho.shape[-2:] != (d, d):
        raise DimensionError(f"state shape {rho.shape} does not match channel dimension {d}")
    ham = spec.hamiltonian
    out = spec.dissipator(rho)
    if ham is not None:
        if ham.shape != (d, d):
            raise DimensionError(f"Hamiltonian shape {ham.shape} does not match channel dimension {d}")
        out = out - 1j * (ham @ rho - rho @ ham)
    return out


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Stored propagation output: times and one state per step."""

    times: np.ndarray
    states: np.ndarray


def evolve(spec: Channel, rho0: np.ndarray, t_max: float, n_steps: int) -> Trajectory:
    """Propagate rho0 with classical fixed-step fourth-order Runge-Kutta.

    The generator G is constant, so one RK4 step of size h is exactly the
    Taylor map S = I + hG + (hG)^2/2 + (hG)^3/6 + (hG)^4/24, built once from
    the channel's generator by Horner's rule (three d^2 x d^2 products).
    The trajectory is then filled by doubling: once states 0 .. k-1 are
    known, states k .. 2k-1 are one matrix product of those rows with S^k,
    and S^k is squared, so n steps cost about 2 log2 n matrix products.
    S is linear, preserves the trace and maps Hermitian and anti-Hermitian
    parts to themselves, so every stored state is re-hermitized and
    trace-renormalized in one batched pass at the end, which equals doing
    so after every step up to roundoff.  A step map that diverges (an
    overflow anywhere in the stack) raises StepCountError.  Otherwise one
    batched Cholesky floor check (spins._above_floor) passes the whole
    trajectory, or a batched eigenvalue pass finds its minimum and emits
    PositivityWarning once if any state dips below spins.EIG_FLOOR
    (-1e-10), the floor every state check applies, which signals a
    too-coarse step size.
    """
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise StepCountError(f"n_steps must be a positive integer, got {n_steps}")
    if not (t_max > 0.0) or not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite and > 0, got {t_max}")
    rho = check_density_matrix(rho0)
    d = spec.dim
    if rho.shape != (d, d):
        raise DimensionError(f"state shape {rho.shape} does not match channel dimension {d}")
    # G^T acts on a row-major vec(rho) row from the right, and so does the Taylor map of h G^T
    hg = (t_max / n_steps) * spec.generator.T
    eye = np.eye(d * d)
    power = eye + hg @ (eye + hg @ (eye + hg @ (eye + hg / 4.0) / 3.0) / 2.0)
    times = np.linspace(0.0, t_max, n_steps + 1)
    states = np.empty((n_steps + 1, d, d), dtype=complex)
    rows = states.reshape(n_steps + 1, d * d)
    rows[0] = rho.reshape(-1)
    with np.errstate(all="ignore"):
        known = 1
        while True:
            count = min(known, n_steps + 1 - known)
            np.matmul(rows[:count], power, out=rows[known : known + count])
            known += count
            if known > n_steps:
                break
            power = power @ power
        tail = states[1:]
        # rho + rho^+ is twice the Hermitian part; the exact factor 2 cancels in the renormalization
        tail += tail.conj().swapaxes(-1, -2)
        tail /= np.trace(tail, axis1=-2, axis2=-1).real[:, None, None]
        finite = np.isfinite(tail).all()
    if not finite:
        raise StepCountError(
            f"{n_steps} steps over t_max = {t_max:g} are too coarse for this channel: the step map diverges"
        )
    if not _above_floor(tail):
        worst = float(np.linalg.eigvalsh(tail).min())
        if worst < EIG_FLOOR:
            warnings.warn(
                f"minimum eigenvalue reached {worst:.3e}; steps too coarse for this channel",
                PositivityWarning,
                stacklevel=2,
            )
    return Trajectory(times=times, states=states)


def qubit_dephasing_bloch(tau0, lam: float, t) -> np.ndarray:
    """Dephasing Bloch solution: transverse decay exp(-lam t / 2), tau_z frozen.

    Accepts a scalar or array of times; returns shape (..., 3).
    """
    tau0 = np.asarray(tau0, dtype=float)
    t = np.asarray(t, dtype=float)
    decay = np.exp(-0.5 * lam * t)
    out = np.empty(t.shape + (3,))
    out[..., 0] = tau0[0] * decay
    out[..., 1] = tau0[1] * decay
    out[..., 2] = tau0[2]
    return out


def qubit_damping_bloch(tau0, gamma: float, nbar: float, t) -> np.ndarray:
    """Damping Bloch solution relaxing to (0, 0, tau_bar_z).

    Transverse components decay at gamma_bar / 2 and the longitudinal
    offset tau_z - tau_bar_z decays at gamma_bar, gamma_bar = gamma (2 nbar + 1).
    """
    tau0 = np.asarray(tau0, dtype=float)
    t = np.asarray(t, dtype=float)
    bath = BathParams.from_nbar(gamma, nbar)
    out = np.empty(t.shape + (3,))
    out[..., 0] = tau0[0] * np.exp(-0.5 * bath.gamma_bar * t)
    out[..., 1] = tau0[1] * np.exp(-0.5 * bath.gamma_bar * t)
    out[..., 2] = (tau0[2] - bath.tau_bar_z) * np.exp(-bath.gamma_bar * t) + bath.tau_bar_z
    return out


def damping_stationary_populations(j: SpinJ, nbar: float) -> np.ndarray:
    """Read-only stationary populations p_m, m = J ... -J, of ladder damping: ratio nbar / (nbar + 1) per rung."""
    # population proportional to x^m with x = nbar / (nbar + 1), ground rung m = -J dominating for x < 1
    weights = np.ones(j.dim) if math.isinf(nbar) else (nbar / (nbar + 1.0)) ** (j.m_values + j.j)
    populations = weights / weights.sum()
    populations.flags.writeable = False
    return populations


def rung_log_ratio(nbar: float) -> float:
    """ln(nbar / (nbar + 1)) at nbar > 0, to full relative accuracy on either side of nbar = 1; -0.0 at nbar inf."""
    return math.log(nbar) - math.log1p(nbar) if nbar < 1.0 else -math.log1p(1.0 / nbar)


def damping_stationary_log_populations(j: SpinJ, nbar: float) -> np.ndarray:
    """Read-only ln p_m = (J + m) ln x - ln Z, x = nbar / (nbar + 1), in closed form; -inf above m = -J at nbar 0."""
    rungs = j.m_values + j.j
    if nbar == 0.0:
        return read_only(np.where(rungs == 0.0, 0.0, -np.inf))
    log_w = rungs * rung_log_ratio(nbar)
    # the last rung is the ground one, of weight 1, so ln Z is log1p of the other weights
    return read_only(log_w - math.log1p(float(np.exp(log_w[:-1]).sum())))


def damping_stationary_state(j: SpinJ, nbar: float) -> np.ndarray:
    """Stationary state of the ladder damping channel: diagonal, with damping_stationary_populations."""
    return np.diag(damping_stationary_populations(j, nbar).astype(complex))


def check_diagonal_hamiltonian(spec: Channel) -> None:
    """Raise BasisError unless the channel's Hamiltonian is None or diagonal to 1e-12 in the working basis."""
    ham = spec.hamiltonian
    off = 0.0 if ham is None else np.abs(ham - np.diag(np.diag(ham))).max()
    if off > 1e-12:
        raise BasisError(f"Hamiltonian has off-diagonal weight {off:.3e}")


@dataclass(frozen=True, eq=False)
class PauliRates:
    """Classical transition rates w[n, k] for the jump k -> n; diagonal is zero."""

    w: np.ndarray


def pauli_rates_from_davies(spec: AmplitudeDampingChannel) -> PauliRates:
    """Project a damping channel onto populations: w[n, k] = sum over its jumps of rate |<n|L|k>|^2.

    Requires a Hamiltonian diagonal in the working basis (or none), since
    the population sector only closes on itself in that case.
    """
    check_diagonal_hamiltonian(spec)
    w = sum(rate * np.abs(jump) ** 2 for rate, jump in spec.jumps)
    np.fill_diagonal(w, 0.0)
    return PauliRates(w=w)


def classical_ep_rate(rates: PauliRates, populations) -> float:
    """Entropy production of a Pauli master equation in Schnakenberg form.

    (1/2) sum over ordered pairs of (flux in minus flux out) times the log
    ratio of the two directed fluxes; nonnegative, zero exactly at detailed
    balance.  A one-way edge carrying flux raises ZeroRateError.
    """
    w = np.asarray(rates.w, dtype=float)
    p = np.asarray(populations, dtype=float)
    if w.shape[0] != w.shape[1] or p.shape != (w.shape[0],):
        raise DimensionError(f"incompatible shapes {w.shape} and {p.shape}")
    if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-10:
        raise ValueError("populations must be a normalized distribution")
    if np.any(w < 0.0):
        raise ValueError("rates must be >= 0")
    # forward[n, k] = w[n, k] p[k] is the flux k -> n and forward.T the flux back; a population within the
    # tolerance below zero is the zero population it stands for
    forward = w * np.clip(p, 0.0, None)
    backward = forward.T
    one_way = (forward == 0.0) != (backward == 0.0)
    if one_way.any():
        n, k = np.argwhere(one_way)[0]
        raise ZeroRateError(f"one-way flux on edge {k} -> {n}")
    # every edge left carries flux both ways or none, and the diagonal's terms are zero
    flowing = forward != 0.0
    return float(0.5 * np.sum((forward - backward)[flowing] * np.log(forward[flowing] / backward[flowing])))


def coherence_ep_rate(trajectory: Trajectory) -> np.ndarray:
    """Coherence consumption rate -dC/dt along a stored trajectory.

    Uses central differences in the interior and one-sided differences at
    the endpoints.
    """
    if trajectory.times.shape[0] < 3:
        raise ValueError("need at least 3 stored states for differencing")
    c_values = np.array([relative_entropy_of_coherence(s) for s in trajectory.states])
    return -np.gradient(c_values, trajectory.times)
