import math
import warnings

import numpy as np
import pytest

from spinphase import (
    AmplitudeDampingChannel,
    BasisError,
    DaviesChannel,
    DaviesPair,
    DephasingChannel,
    DetailedBalanceError,
    DimensionError,
    PositivityWarning,
    SpinJ,
    StepCountError,
    Trajectory,
    UnitaryChannel,
    ZeroRateError,
    amplitude_damping_dissipator,
    apply_liouvillian,
    bloch_to_rho,
    classical_ep_rate,
    coherence_ep_rate,
    damping_stationary_state,
    davies_dissipator,
    dephasing_dissipator,
    evolve,
    make_spin_operators,
    pauli_rates_from_davies,
    qubit_damping_bloch,
    qubit_dephasing_bloch,
    rho_to_bloch,
)
from spinphase import dynamics
from spinphase.spins import PAULI_X

QUBIT = SpinJ(1)
OPS = make_spin_operators(QUBIT)


def random_rho(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_dephasing_kills_off_diagonals_quadratically_in_m_gap():
    # component m - m' = k decays at rate (lam/2) k^2
    ops3 = make_spin_operators(SpinJ(2))
    rho = np.full((3, 3), 1.0 / 3.0, dtype=complex)
    out = dephasing_dissipator(2.0, ops3, rho)
    np.testing.assert_allclose(np.diag(out), 0.0, atol=1e-15)
    assert out[0, 1] == pytest.approx(-1.0 * rho[0, 1], abs=1e-14)
    assert out[0, 2] == pytest.approx(-4.0 * rho[0, 2], abs=1e-14)


def test_dephasing_leaves_diagonal_states_alone():
    rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
    out = dephasing_dissipator(1.3, make_spin_operators(SpinJ(2)), rho)
    assert np.abs(out).max() < 1e-15


def test_damping_dark_state_at_zero_nbar():
    # with nbar = 0 the lowest level m = -J (last index) is stationary
    ops = make_spin_operators(SpinJ(2))
    ground = np.zeros((3, 3), dtype=complex)
    ground[2, 2] = 1.0
    out = amplitude_damping_dissipator(1.7, 0.0, ops, ground)
    assert np.abs(out).max() < 1e-15


def test_damping_qubit_bloch_rates():
    # d tau_z/dt = -gamma_bar (tau_z - tau_bar_z), d tau_x/dt = -(gamma_bar/2) tau_x
    gamma, nbar = 1.0, 0.5
    gamma_bar = gamma * (2 * nbar + 1)
    tau_bar_z = -gamma / gamma_bar
    rho = bloch_to_rho([0.6, 0.0, 0.2])
    out = amplitude_damping_dissipator(gamma, nbar, OPS, rho)
    drift = 2.0 * np.array(
        [np.real(out[0, 1]), -np.imag(out[0, 1]), np.real(out[0, 0])]
    )
    np.testing.assert_allclose(
        drift,
        [-0.5 * gamma_bar * 0.6, 0.0, -gamma_bar * (0.2 - tau_bar_z)],
        atol=1e-12,
    )


def test_damping_stationary_state_is_dark():
    for two_j in (1, 2, 4):
        ops = make_spin_operators(SpinJ(two_j))
        rho_eq = damping_stationary_state(SpinJ(two_j), 0.5)
        out = amplitude_damping_dissipator(0.8, 0.5, ops, rho_eq)
        assert np.abs(out).max() < 1e-14


def test_damping_stationary_populations_follow_boltzmann_ratio():
    nbar = 0.5
    rho_eq = damping_stationary_state(SpinJ(2), nbar)
    p = np.real(np.diag(rho_eq))
    # upper state first, so each step down gains the factor (nbar+1)/nbar
    assert p[1] / p[0] == pytest.approx((nbar + 1.0) / nbar, rel=1e-12)
    assert p[2] / p[1] == pytest.approx((nbar + 1.0) / nbar, rel=1e-12)


def test_infinite_temperature_channel():
    chan = AmplitudeDampingChannel.infinite_temperature(1.2, OPS)
    assert math.isinf(chan.nbar)
    assert chan.gamma_bar == pytest.approx(1.2)
    assert chan.tau_bar_z == pytest.approx(0.0)
    out = dissipator_of(chan, np.eye(2, dtype=complex) / 2.0)
    assert np.abs(out).max() < 1e-14


def dissipator_of(chan, rho):
    # dissipator only, no Hamiltonian part
    return apply_liouvillian(chan, rho)


def test_davies_matches_amplitude_damping():
    gamma, nbar = 0.7, 0.3
    chan = AmplitudeDampingChannel(gamma=gamma, nbar=nbar, ops=OPS)
    pairs = (
        DaviesPair(l_minus=OPS.jminus, gamma_minus=gamma * (nbar + 1.0), gamma_plus=gamma * nbar, omega=1.0),
    )
    davies = DaviesChannel(pairs=pairs)
    rng = np.random.default_rng(2)
    for _ in range(20):
        rho = random_rho(rng, 2)
        np.testing.assert_allclose(
            davies_dissipator(davies, rho),
            amplitude_damping_dissipator(gamma, nbar, OPS, rho),
            atol=1e-12,
        )


def test_davies_with_beta_fixes_rate_ratio():
    seed = DaviesPair(l_minus=OPS.jminus, gamma_minus=0.9, gamma_plus=0.0, omega=1.4)
    pairs = DaviesChannel.with_beta([seed], beta=0.8).pairs
    assert pairs[0].gamma_plus / pairs[0].gamma_minus == pytest.approx(math.exp(-0.8 * 1.4), rel=1e-12)


def test_davies_rejects_broken_detailed_balance():
    # a declared beta pins the rate ratio; inconsistent pairs are refused
    with pytest.raises(DetailedBalanceError):
        DaviesChannel(
            pairs=(DaviesPair(l_minus=OPS.jminus, gamma_minus=0.0, gamma_plus=0.5, omega=1.0),),
            beta=1.0,
        )
    with pytest.raises(DetailedBalanceError):
        DaviesChannel(
            pairs=(DaviesPair(l_minus=OPS.jminus, gamma_minus=1.0, gamma_plus=0.9, omega=1.0),),
            beta=1.0,
        )


def test_apply_liouvillian_shape_guard():
    chan = DephasingChannel(lam=1.0, ops=OPS)
    with pytest.raises(DimensionError):
        apply_liouvillian(chan, np.eye(3, dtype=complex) / 3.0)


def test_liouvillian_vanishes_on_commuting_hamiltonian_state():
    ham = np.diag([0.5, -0.5])
    chan = UnitaryChannel(hamiltonian=ham)
    out = apply_liouvillian(chan, np.diag([0.7, 0.3]).astype(complex))
    assert np.abs(out).max() < 1e-15


def test_evolve_unitary_precession():
    # H = (omega0/2) sigma_x swings tau_z as cos(omega0 t)
    omega0 = 1.0
    traj = evolve(UnitaryChannel(hamiltonian=0.5 * omega0 * PAULI_X), bloch_to_rho([0.0, 0.0, 1.0]), 6.0, 600)
    for idx in (0, 150, 300, 599):
        t = traj.times[idx]
        tau = rho_to_bloch(traj.states[idx])
        assert tau[2] == pytest.approx(math.cos(omega0 * t), abs=1e-8)
        assert np.linalg.norm(tau) == pytest.approx(1.0, abs=1e-8)


def test_evolve_matches_qubit_damping_solution():
    gamma, nbar = 1.0, 0.5
    chan = AmplitudeDampingChannel(gamma=gamma, nbar=nbar, ops=OPS)
    rng = np.random.default_rng(4)
    for _ in range(10):
        tau0 = rng.uniform(-0.5, 0.5, size=3)
        traj = evolve(chan, bloch_to_rho(tau0), 2.0, 400)
        for idx in (100, 250, 399):
            expected = qubit_damping_bloch(tau0, gamma, nbar, traj.times[idx])
            np.testing.assert_allclose(rho_to_bloch(traj.states[idx]), expected, atol=1e-7)


def test_evolve_matches_qubit_dephasing_solution():
    lam = 0.8
    chan = DephasingChannel(lam=lam, ops=OPS)
    tau0 = np.array([0.5, -0.3, 0.4])
    traj = evolve(chan, bloch_to_rho(tau0), 3.0, 300)
    expected = qubit_dephasing_bloch(tau0, lam, traj.times[-1])
    np.testing.assert_allclose(rho_to_bloch(traj.states[-1]), expected, atol=1e-9)
    # decay of the transverse part only
    assert expected[2] == pytest.approx(0.4, abs=1e-15)
    assert expected[0] == pytest.approx(0.5 * math.exp(-0.5 * lam * 3.0), abs=1e-12)


def test_dephasing_bloch_half_life():
    tau = qubit_dephasing_bloch([0.8, 0.0, 0.1], 1.0, 2.0 * math.log(2.0))
    assert tau[0] == pytest.approx(0.4, abs=1e-12)


def test_damping_bloch_long_time_fixed_point():
    gamma, nbar = 0.9, 0.25
    tau = qubit_damping_bloch([0.5, 0.5, 0.5], gamma, nbar, 200.0)
    tau_bar_z = -1.0 / (2 * nbar + 1)
    np.testing.assert_allclose(tau, [0.0, 0.0, tau_bar_z], atol=1e-12)


def test_evolve_keeps_states_physical():
    chan = AmplitudeDampingChannel(gamma=1.0, nbar=0.2, ops=OPS)
    traj = evolve(chan, bloch_to_rho([0.7, 0.0, 0.1]), 4.0, 200)
    for rho in traj.states:
        assert abs(np.trace(rho).real - 1.0) < 1e-10
        assert np.abs(rho - rho.conj().T).max() < 1e-10


def test_evolve_diagonal_dephasing_populations_frozen():
    ops3 = make_spin_operators(SpinJ(2))
    rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
    traj = evolve(DephasingChannel(lam=2.0, ops=ops3), rho0, 5.0, 100)
    drift = np.abs(traj.states - rho0[None]).max()
    assert drift < 1e-9


def test_evolve_halved_step_agreement():
    chan = AmplitudeDampingChannel(gamma=1.0, nbar=0.5, ops=OPS)
    rho0 = bloch_to_rho([0.5, 0.2, 0.3])
    coarse = evolve(chan, rho0, 2.0, 200)
    fine = evolve(chan, rho0, 2.0, 400)
    assert np.abs(coarse.states[-1] - fine.states[-1]).max() < 1e-8


def test_evolve_rejects_bad_steps():
    chan = DephasingChannel(lam=1.0, ops=OPS)
    with pytest.raises(StepCountError):
        evolve(chan, np.eye(2, dtype=complex) / 2.0, 1.0, 0)
    with pytest.raises(ValueError):
        evolve(chan, np.eye(2, dtype=complex) / 2.0, -1.0, 10)


def test_evolve_warns_when_step_breaks_positivity():
    # one huge step overshoots the coherence decay and leaves the Bloch ball
    chan = DephasingChannel(lam=10.0, ops=OPS)
    with pytest.warns(PositivityWarning):
        evolve(chan, bloch_to_rho([1.0, 0.0, 0.0]), 1.0, 1)


def test_pauli_rates_qubit_damping():
    gamma, nbar = 1.0, 0.5
    rates = pauli_rates_from_davies(AmplitudeDampingChannel(gamma=gamma, nbar=nbar, ops=OPS))
    # w[n, k] is the rate of the jump k -> n; index 0 is the upper state
    assert rates.w[1, 0] == pytest.approx(gamma * (nbar + 1.0), abs=1e-14)
    assert rates.w[0, 1] == pytest.approx(gamma * nbar, abs=1e-14)
    assert rates.w[0, 0] == 0.0 and rates.w[1, 1] == 0.0


def test_pauli_rates_detailed_balance_ratio():
    nbar = 0.5
    beta_omega = math.log((nbar + 1.0) / nbar)
    rates = pauli_rates_from_davies(AmplitudeDampingChannel(gamma=2.0, nbar=nbar, ops=OPS))
    assert rates.w[0, 1] / rates.w[1, 0] == pytest.approx(math.exp(-beta_omega), rel=1e-12)


def test_pauli_rates_dephasing_collapse_to_zero():
    pairs = (DaviesPair(l_minus=OPS.jz, gamma_minus=1.0, gamma_plus=1.0, omega=0.0),)
    rates = pauli_rates_from_davies(DaviesChannel(pairs=pairs))
    off = rates.w - np.diag(np.diag(rates.w))
    assert np.abs(off).max() == 0.0


def test_pauli_rates_reject_nondiagonal_hamiltonian():
    chan = AmplitudeDampingChannel(gamma=1.0, nbar=0.0, ops=OPS, hamiltonian=PAULI_X)
    with pytest.raises(BasisError):
        pauli_rates_from_davies(chan)


def test_classical_ep_rate_worked_value():
    rates = pauli_rates_from_davies(AmplitudeDampingChannel(gamma=1.0, nbar=0.5, ops=OPS))
    # w(1|0) = 1.5, w(0|1) = 0.5, equal populations
    value = classical_ep_rate(rates, [0.5, 0.5])
    assert value == pytest.approx(0.5 * math.log(3.0), abs=1e-12)


def test_classical_ep_rate_zero_at_detailed_balance():
    rates = pauli_rates_from_davies(AmplitudeDampingChannel(gamma=1.0, nbar=0.5, ops=OPS))
    p_eq = np.real(np.diag(damping_stationary_state(QUBIT, 0.5)))
    assert classical_ep_rate(rates, p_eq) == pytest.approx(0.0, abs=1e-14)


def test_classical_ep_rate_nonnegative_on_random_pairs():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        w = np.zeros((2, 2))
        w[1, 0], w[0, 1] = rng.uniform(0.05, 3.0, size=2)
        p0 = rng.uniform(0.01, 0.99)
        value = classical_ep_rate(PauliRatesView(w), [p0, 1.0 - p0])
        assert value >= 0.0


class PauliRatesView:
    def __init__(self, w):
        self.w = w


def test_classical_ep_rate_one_way_flux_raises():
    w = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ZeroRateError):
        classical_ep_rate(PauliRatesView(w), [0.5, 0.5])


def test_classical_ep_rate_input_guards():
    w = np.array([[0.0, 0.5], [1.5, 0.0]])
    with pytest.raises(ValueError):
        classical_ep_rate(PauliRatesView(w), [0.7, 0.7])
    with pytest.raises(DimensionError):
        classical_ep_rate(PauliRatesView(w), [0.2, 0.3, 0.5])


def test_coherence_ep_rate_diagonal_trajectory_is_zero():
    rho0 = np.diag([0.6, 0.4]).astype(complex)
    traj = evolve(AmplitudeDampingChannel(gamma=1.0, nbar=0.5, ops=OPS), rho0, 1.0, 50)
    np.testing.assert_allclose(coherence_ep_rate(traj), 0.0, atol=1e-10)


def test_coherence_ep_rate_positive_while_dephasing_eats_coherence():
    traj = evolve(DephasingChannel(lam=1.0, ops=OPS), bloch_to_rho([0.8, 0.0, 0.0]), 1.0, 100)
    upsilon = coherence_ep_rate(traj)
    assert upsilon.shape == traj.times.shape
    assert np.all(upsilon[1:-1] > 0.0)


def test_coherence_ep_rate_needs_three_points():
    times = np.array([0.0, 1.0])
    states = np.stack([np.eye(2, dtype=complex) / 2.0] * 2)
    with pytest.raises(ValueError):
        coherence_ep_rate(Trajectory(times=times, states=states))


def rk4_oracle(spec, rho0, t_max, n_steps):
    """Reference propagation: four generator calls per RK4 step, then re-hermitize and renormalize."""
    h = t_max / n_steps
    rho = np.asarray(rho0, dtype=complex)
    states = [rho]
    for _ in range(n_steps):
        k1 = apply_liouvillian(spec, rho)
        k2 = apply_liouvillian(spec, rho + 0.5 * h * k1)
        k3 = apply_liouvillian(spec, rho + 0.5 * h * k2)
        k4 = apply_liouvillian(spec, rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        rho = rho / np.trace(rho).real
        states.append(rho)
    return np.stack(states)


def channel_zoo(two_j):
    """One channel of every kind at spin two_j / 2, each with a Hamiltonian where the kind takes one."""
    ops = make_spin_operators(SpinJ(two_j))
    ham = ops.jx + 0.3 * ops.jz
    pairs = (
        DaviesPair(l_minus=ops.jminus, gamma_minus=0.6, gamma_plus=0.0, omega=1.0),
        DaviesPair(l_minus=ops.jz, gamma_minus=0.2, gamma_plus=0.0, omega=0.0),
    )
    return {
        "unitary": UnitaryChannel(hamiltonian=ham),
        "dephasing": DephasingChannel(lam=0.5, ops=ops, hamiltonian=ham),
        "damping": AmplitudeDampingChannel(gamma=0.7, nbar=0.5, ops=ops),
        "damping_infinite_t": AmplitudeDampingChannel.infinite_temperature(0.9, ops),
        "davies": DaviesChannel.with_beta(pairs, beta=0.8, hamiltonian=ops.jz),
    }


@pytest.mark.parametrize("kind", ["unitary", "dephasing", "damping", "damping_infinite_t", "davies"])
@pytest.mark.parametrize("two_j", [1, 2, 4, 8])
def test_evolve_step_map_matches_per_step_rk4(two_j, kind):
    spec = channel_zoo(two_j)[kind]
    rho0 = random_rho(np.random.default_rng(two_j), two_j + 1)
    traj = evolve(spec, rho0, 1.0, 100)
    np.testing.assert_allclose(traj.states, rk4_oracle(spec, rho0, 1.0, 100), rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("two_j", [1, 4])
def test_apply_liouvillian_on_a_stack_equals_each_matrix(two_j):
    d = two_j + 1
    rng = np.random.default_rng(7)
    stack = rng.normal(size=(5, d, d)) + 1j * rng.normal(size=(5, d, d))
    for spec in channel_zoo(two_j).values():
        each = np.stack([apply_liouvillian(spec, m) for m in stack])
        assert np.array_equal(apply_liouvillian(spec, stack), each)
        with pytest.raises(DimensionError):
            apply_liouvillian(spec, np.zeros((5, d + 1, d + 1), dtype=complex))


def test_evolve_warns_on_coarse_damping_of_a_pure_state():
    ops = make_spin_operators(SpinJ(8))
    top = np.zeros((9, 9), dtype=complex)
    top[0, 0] = 1.0
    with pytest.warns(PositivityWarning, match="minimum eigenvalue reached"):
        evolve(AmplitudeDampingChannel(gamma=1.0, nbar=0.5, ops=ops), top, 2.0, 40)


def test_evolve_generator_calls_do_not_grow_with_steps(monkeypatch):
    calls = []
    original = dynamics.apply_liouvillian

    def counted(spec, rho):
        calls.append(1)
        return original(spec, rho)

    monkeypatch.setattr(dynamics, "apply_liouvillian", counted)
    chan = AmplitudeDampingChannel(gamma=1.0, nbar=0.5, ops=OPS)
    rho0 = bloch_to_rho([0.5, 0.2, 0.3])
    evolve(chan, rho0, 1.0, 2)
    short = len(calls)
    evolve(chan, rho0, 1.0, 200)
    assert len(calls) - short == short


def test_channel_generator_is_built_once_read_only_and_equals_the_liouvillian(monkeypatch):
    ops = make_spin_operators(SpinJ(4))
    d = 5
    pair = DaviesPair(l_minus=ops.jminus, gamma_minus=0.8, gamma_plus=0.3, omega=0.0)
    channels = [
        UnitaryChannel(hamiltonian=ops.jx),
        DephasingChannel(lam=0.7, ops=ops, hamiltonian=0.4 * ops.jx),
        AmplitudeDampingChannel(gamma=0.6, nbar=0.4, ops=ops, hamiltonian=0.3 * ops.jz),
        AmplitudeDampingChannel.infinite_temperature(0.9, ops),
        DaviesChannel(pairs=[pair], hamiltonian=ops.jz),
    ]
    original = dynamics.apply_liouvillian
    calls = []
    monkeypatch.setattr(dynamics, "apply_liouvillian", lambda *args: calls.append(1) or original(*args))
    for chan in channels:
        gen = chan.generator
        assert chan.generator is gen
        assert not gen.flags.writeable
        with pytest.raises(AttributeError):
            chan.generator = np.eye(d * d)
        for col in range(d * d):
            unit = np.zeros(d * d, dtype=complex)
            unit[col] = 1.0
            assert np.array_equal(gen[:, col], original(chan, unit.reshape(d, d)).reshape(-1))
    assert len(calls) == len(channels)


@pytest.mark.parametrize("two_j", range(1, 9))
def test_dephasing_weights_match_the_double_commutator(two_j):
    ops = make_spin_operators(SpinJ(two_j))
    chan = DephasingChannel(lam=1.3, ops=ops)
    assert not chan.weights.flags.writeable
    rho = random_rho(np.random.default_rng(two_j), two_j + 1)
    inner = ops.jz @ rho - rho @ ops.jz
    commutator_form = -0.65 * (ops.jz @ inner - inner @ ops.jz)
    for out in (chan.dissipator(rho), dephasing_dissipator(1.3, ops, rho), apply_liouvillian(chan, rho)):
        assert np.abs(out - commutator_form).max() < 1e-13


def longdouble_oracle(spec, rho0, t_max, n_steps):
    """evolve's RK4 step map, built the same way, applied one step at a time in extended precision.

    Each step is re-hermitized and trace-renormalized, so the oracle shows
    what doubling and the single batched clean-up at the end cost in accuracy.
    """
    d = spec.dim
    h = t_max / n_steps
    basis = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    k1 = apply_liouvillian(spec, basis)
    k2 = apply_liouvillian(spec, basis + 0.5 * h * k1)
    k3 = apply_liouvillian(spec, basis + 0.5 * h * k2)
    k4 = apply_liouvillian(spec, basis + h * k3)
    step = (basis + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)).reshape(d * d, d * d).astype(np.clongdouble)
    rho = np.asarray(rho0, dtype=np.clongdouble)
    states = [rho]
    for _ in range(n_steps):
        rho = (rho.reshape(-1) @ step).reshape(d, d)
        rho = 0.5 * (rho + rho.conj().T)
        rho = rho / np.trace(rho).real
        states.append(rho)
    return np.stack(states)


def oracle_cases():
    """(channel, rho0, t_max, n_steps, atol): a long unitary qubit run, the fig 1 pair, two damped two_j = 8 runs."""
    up = bloch_to_rho([0.0, 0.0, 1.0])
    ops = make_spin_operators(SpinJ(8))
    rho = random_rho(np.random.default_rng(11), 9)
    closed = UnitaryChannel(hamiltonian=0.5 * PAULI_X)
    return {
        "unitary_20000_steps": (closed, bloch_to_rho([0.6, 0.2, 0.3]), 2000.0, 20000, 1e-12),
        "fig1_closed": (closed, up, 20.0, 2000, 1e-13),
        "fig1_damped": (AmplitudeDampingChannel(gamma=0.5, nbar=0.5, ops=OPS), up, 20.0, 2000, 1e-13),
        "davies_spin4": (channel_zoo(8)["davies"], rho, 5.0, 500, 1e-13),
        "damping_spin4_with_h": (
            AmplitudeDampingChannel(gamma=0.7, nbar=0.5, ops=ops, hamiltonian=ops.jx + 0.3 * ops.jz),
            rho, 5.0, 500, 1e-13,
        ),
    }


@pytest.mark.parametrize("case", list(oracle_cases()))
def test_evolve_by_doubling_matches_the_extended_precision_oracle(case):
    spec, rho0, t_max, n_steps, atol = oracle_cases()[case]
    traj = evolve(spec, rho0, t_max, n_steps)
    assert np.abs(traj.states - longdouble_oracle(spec, rho0, t_max, n_steps)).max() <= atol
    assert np.array_equal(traj.states[0], rho0)


def test_divergent_step_map_is_a_named_step_count_error():
    # the fastest damping mode at two_j = 8 decays at rate 67.5, so RK4 needs h < 2.79 / 67.5 = 0.041; h = 0.25 diverges
    ops = make_spin_operators(SpinJ(8))
    rho0 = random_rho(np.random.default_rng(3), 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepCountError, match="200 steps .* too coarse for this channel"):
            evolve(AmplitudeDampingChannel(gamma=1.0, nbar=0.5, ops=ops), rho0, 50.0, 200)
