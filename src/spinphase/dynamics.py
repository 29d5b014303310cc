"""Lindblad channels, fixed-step propagation, and the classical rate sector.

Channels bundle a Hamiltonian with a dissipator.  The dephasing channel
couples through jz with strength lambda; the amplitude-damping channel is
the thermal ladder pair (J-, J+) with loss rate gamma (nbar + 1) and gain
rate gamma nbar.  A general Davies channel carries explicit jump operators
and rates, optionally tied together by an inverse temperature.  Every
channel holds its Hamiltonian and jump operators as read-only copies taken
at construction, so its generator matrix, built on first read, stays valid.
"""

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BasisError,
    DetailedBalanceError,
    DimensionError,
    PositivityWarning,
    StepCountError,
    ZeroRateError,
)
from .phase_space import damping_dissipator_field, dephasing_dissipator_field
from .spins import (
    EIG_FLOOR,
    SpinJ,
    SpinOperators,
    check_density_matrix,
    make_spin_operators,
    read_only,
    relative_entropy_of_coherence,
)


class Channel:
    """Base of every channel, which gives its dim, hamiltonian (or None) and dissipator(rho) on (..., d, d) stacks."""

    @functools.cached_property
    def generator(self) -> np.ndarray:
        """Read-only d^2 x d^2 generator on row-major vec(rho), built on first read from one apply_liouvillian call.

        The call acts on the stack of basis matrices |a><b|, one column each.
        """
        d = self.dim
        basis = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
        gen = np.ascontiguousarray(apply_liouvillian(self, basis).reshape(d * d, d * d).T)
        gen.flags.writeable = False
        return gen

    def phase_space_dissipator(self, field) -> np.ndarray:
        """D(Q) on the field's grid; only dephasing and damping have one."""
        raise TypeError(f"no phase-space dissipator for {type(self).__name__}")


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

    def __post_init__(self):
        check_dephasing_rate(self.lam)
        object.__setattr__(self, "hamiltonian", read_only(self.hamiltonian))
        # the dissipator scales each entry, so its value at rho = 1 is the weight table
        object.__setattr__(self, "weights", read_only(dephasing_dissipator(self.lam, self.ops, 1.0)))

    dim = property(lambda self: self.ops.j.dim)

    def dissipator(self, rho: np.ndarray) -> np.ndarray:
        return self.weights * rho

    def phase_space_dissipator(self, field) -> np.ndarray:
        return dephasing_dissipator_field(field, self.lam, self.ops.j)


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
        nbar = 0.5 * (-1.0 / tau_bar_z - 1.0)
        return cls(gamma=gamma_bar * (-tau_bar_z), nbar=nbar, tau_bar_z=tau_bar_z, gamma_bar=gamma_bar)

    def channel(self, ops: SpinOperators) -> "AmplitudeDampingChannel":
        """Damping channel of this bath; it carries this object, not a copy of its rates."""
        return AmplitudeDampingChannel._of(self, ops)


@dataclass(frozen=True, eq=False)
class DaviesPair:
    """One thermal jump pair: lowering operator, its rate, the raising rate, and the transition frequency.

    l_plus, the raising operator, is derived once here because the
    dissipator applies it at every generator evaluation.
    """

    l_minus: np.ndarray
    gamma_minus: float
    gamma_plus: float
    omega: float
    l_plus: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "l_minus", read_only(self.l_minus))
        object.__setattr__(self, "l_plus", read_only(self.l_minus.conj().T))


def _lindblad_term(l_op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    ldl = l_op.conj().T @ l_op
    return l_op @ rho @ l_op.conj().T - 0.5 * (ldl @ rho + rho @ ldl)


def davies_dissipator(spec, rho: np.ndarray) -> np.ndarray:
    """Sum over the jump pairs of spec (a Davies or damping channel) of both Lindblad terms.

    This loop is the damping dissipator too: a damping channel is the one
    pair (J-, gamma (nbar + 1), gamma nbar), built when the channel is.
    """
    out = np.zeros_like(rho)
    for pair in spec.pairs:
        if pair.gamma_minus != 0.0:
            out = out + pair.gamma_minus * _lindblad_term(pair.l_minus, rho)
        if pair.gamma_plus != 0.0:
            out = out + pair.gamma_plus * _lindblad_term(pair.l_plus, rho)
    return out


@dataclass(frozen=True, eq=False, init=False)
class AmplitudeDampingChannel(Channel):
    """Thermal ladder damping: the single jump pair (J-, gamma (nbar + 1), gamma nbar).

    The channel carries one BathParams and reads gamma, nbar, gamma_bar and
    tau_bar_z from it.  gamma_bar = gamma (2 nbar + 1) is the total
    relaxation rate; it stays finite in the infinite-temperature limit
    gamma -> 0, nbar -> inf, which is reachable through the
    infinite_temperature constructor or BathParams.channel.
    """

    bath: BathParams
    ops: SpinOperators
    hamiltonian: np.ndarray | None
    pairs: tuple

    def __init__(self, gamma: float, nbar: float, ops: SpinOperators, hamiltonian=None):
        self._bind(BathParams.from_nbar(gamma, nbar), ops, hamiltonian)

    def _bind(self, bath: BathParams, ops: SpinOperators, hamiltonian) -> None:
        pair = DaviesPair(
            l_minus=ops.jminus,
            gamma_minus=0.5 * (bath.gamma_bar + bath.gamma),
            gamma_plus=0.5 * (bath.gamma_bar - bath.gamma),
            omega=0.0,
        )
        object.__setattr__(self, "bath", bath)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "hamiltonian", read_only(hamiltonian))
        object.__setattr__(self, "pairs", (pair,))

    @classmethod
    def _of(cls, bath: BathParams, ops: SpinOperators, hamiltonian=None) -> "AmplitudeDampingChannel":
        """Channel sharing an existing bath, so its rates are not derived a second time."""
        channel = cls.__new__(cls)
        channel._bind(bath, ops, hamiltonian)
        return channel

    @classmethod
    def infinite_temperature(cls, gamma_bar: float, ops: SpinOperators, hamiltonian=None):
        """Infinite-temperature limit: equal up and down rates gamma_bar / 2."""
        return cls._of(BathParams.from_tau_bar(gamma_bar, 0.0), ops, hamiltonian)

    gamma = property(lambda self: self.bath.gamma)
    nbar = property(lambda self: self.bath.nbar)
    gamma_bar = property(lambda self: self.bath.gamma_bar)
    tau_bar_z = property(lambda self: self.bath.tau_bar_z, doc="Stationary qubit polarization -1 / (2 nbar + 1).")
    dim = property(lambda self: self.ops.j.dim)
    dissipator = davies_dissipator

    def phase_space_dissipator(self, field) -> np.ndarray:
        return damping_dissipator_field(field, self.gamma_bar, self.tau_bar_z, self.ops.j)


@dataclass(frozen=True, eq=False)
class DaviesChannel(Channel):
    """Collection of thermal jump pairs, optionally checked against a declared beta."""

    pairs: tuple
    hamiltonian: np.ndarray | None = None
    beta: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        object.__setattr__(self, "hamiltonian", read_only(self.hamiltonian))
        for pair in self.pairs:
            if pair.gamma_minus < 0.0 or pair.gamma_plus < 0.0:
                raise ValueError("Davies rates must be >= 0")
            if self.beta is not None:
                if pair.gamma_minus == 0.0:
                    if pair.gamma_plus != 0.0:
                        raise DetailedBalanceError("gamma_plus > 0 with gamma_minus = 0")
                    continue
                ratio = pair.gamma_plus / pair.gamma_minus
                expected = math.exp(-self.beta * pair.omega)
                if abs(ratio - expected) > 1e-10:
                    raise DetailedBalanceError(
                        f"rate ratio {ratio:.15g} differs from exp(-beta omega) = {expected:.15g}"
                    )

    @classmethod
    def with_beta(cls, pairs, beta: float, hamiltonian=None):
        """Fix each gamma_plus to gamma_minus exp(-beta omega)."""
        fixed = tuple(
            DaviesPair(
                l_minus=p.l_minus,
                gamma_minus=p.gamma_minus,
                gamma_plus=p.gamma_minus * math.exp(-beta * p.omega),
                omega=p.omega,
            )
            for p in pairs
        )
        return cls(pairs=fixed, hamiltonian=hamiltonian, beta=beta)

    dim = property(lambda self: (self.pairs[0].l_minus if self.hamiltonian is None else self.hamiltonian).shape[0])
    dissipator = davies_dissipator


def dephasing_dissipator(lam: float, ops: SpinOperators, rho: np.ndarray) -> np.ndarray:
    """-(lam/2) [jz, [jz, rho]]; jz is diagonal, so entry (m, m') is scaled by -(lam/2)(m - m')^2."""
    m = ops.jz.diagonal().real
    gap = m[:, None] - m
    return -0.5 * lam * (gap * gap) * rho


def amplitude_damping_dissipator(gamma: float, nbar: float, ops: SpinOperators, rho: np.ndarray) -> np.ndarray:
    """Thermal ladder dissipator with loss gamma (nbar + 1) and gain gamma nbar."""
    return davies_dissipator(AmplitudeDampingChannel(gamma=gamma, nbar=nbar, ops=ops), rho)


def dissipator(spec: Channel, rho: np.ndarray) -> np.ndarray:
    """Dissipative part of the generator for the given channel."""
    return spec.dissipator(rho)


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

    The generator is constant, so one RK4 step is a fixed linear map S.  It
    is built once, as a d^2 x d^2 matrix, by taking a single RK4 step of
    every basis matrix |a><b| at once (four generator calls on the stack).
    The trajectory is then filled by doubling: once states 0 .. k-1 are
    known, states k .. 2k-1 are one matrix product of those rows with S^k,
    and S^k is squared, so n steps cost about 2 log2 n matrix products.
    S is linear, preserves the trace and maps Hermitian and anti-Hermitian
    parts to themselves, so every stored state is re-hermitized and
    trace-renormalized in one batched pass at the end, which equals doing
    so after every step up to roundoff.  A step map that diverges (an
    overflow anywhere in the stack) raises StepCountError.  Otherwise one
    batched eigenvalue pass checks the whole trajectory and emits
    PositivityWarning once if any state dips below spins.EIG_FLOOR
    (-1e-10), the floor every state check applies, which signals a
    too-coarse step size.
    """
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise StepCountError(f"n_steps must be a positive integer, got {n_steps}")
    if not (t_max > 0.0) or not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite and > 0, got {t_max}")
    rho = check_density_matrix(rho0)
    d = rho.shape[0]
    h = t_max / n_steps
    basis = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    k1 = apply_liouvillian(spec, basis)
    k2 = apply_liouvillian(spec, basis + 0.5 * h * k1)
    k3 = apply_liouvillian(spec, basis + 0.5 * h * k2)
    k4 = apply_liouvillian(spec, basis + h * k3)
    # row k is the step applied to basis matrix k, so it acts on a row-major vec(rho) row from the right
    power = (basis + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)).reshape(d * d, d * d)
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


def damping_stationary_state(j: SpinJ, nbar: float) -> np.ndarray:
    """Stationary state of the ladder damping channel: populations with ratio nbar / (nbar + 1) per rung."""
    if math.isinf(nbar):
        return np.eye(j.dim, dtype=complex) / j.dim
    x = nbar / (nbar + 1.0)
    # population proportional to x^m, ground rung m = -J dominating for x < 1
    weights = x ** (j.m_values + j.j)
    weights = weights / weights.sum()
    return np.diag(weights.astype(complex))


@dataclass(frozen=True, eq=False)
class PauliRates:
    """Classical transition rates w[n, k] for the jump k -> n; diagonal is zero."""

    w: np.ndarray


def pauli_rates_from_davies(spec: DaviesChannel | AmplitudeDampingChannel) -> PauliRates:
    """Project a Davies or damping channel onto populations: w[n, k] = sum of rate |<n|L|k>|^2.

    Requires a Hamiltonian diagonal in the working basis (or none), since
    the population sector only closes on itself in that case.
    """
    ham = spec.hamiltonian
    if ham is not None:
        off = np.abs(np.asarray(ham) - np.diag(np.diag(np.asarray(ham)))).max()
        if off > 1e-12:
            raise BasisError(f"Hamiltonian has off-diagonal weight {off:.3e}")
    w = np.zeros((spec.dim, spec.dim))
    for pair in spec.pairs:
        down = np.abs(pair.l_minus) ** 2
        up = np.abs(pair.l_plus) ** 2
        w += pair.gamma_minus * down + pair.gamma_plus * up
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
    total = 0.0
    d = w.shape[0]
    for n in range(d):
        for k in range(d):
            if n == k:
                continue
            forward = w[n, k] * p[k]
            backward = w[k, n] * p[n]
            if forward == 0.0 and backward == 0.0:
                continue
            if forward == 0.0 or backward == 0.0:
                raise ZeroRateError(f"one-way flux on edge {k} -> {n}")
            total += 0.5 * (forward - backward) * math.log(forward / backward)
    return total


def coherence_ep_rate(trajectory: Trajectory) -> np.ndarray:
    """Coherence consumption rate -dC/dt along a stored trajectory.

    Uses central differences in the interior and one-sided differences at
    the endpoints.
    """
    if trajectory.times.shape[0] < 3:
        raise ValueError("need at least 3 stored states for differencing")
    c_values = np.array([relative_entropy_of_coherence(s) for s in trajectory.states])
    return -np.gradient(c_values, trajectory.times)
