import math

import numpy as np
import pytest
from scipy.linalg import expm

from spinphase import (
    AmplitudeDampingChannel,
    BandLimitError,
    DaviesChannel,
    DaviesPair,
    DephasingChannel,
    DimensionError,
    QFloorWarning,
    RangeError,
    SolidAngle,
    SphereGrid,
    SpinJ,
    UnitaryChannel,
    bloch_to_rho,
    coherent_amplitudes,
    dephasing_dissipator,
    dissipator,
    dissipator_field,
    husimi_field,
    husimi_q,
    integrate,
    make_spin_operators,
    phase_space_jminus,
    phase_space_jplus,
    phase_space_jz,
    random_state_with_coherence,
    wehrl_entropy,
    wehrl_rate_dissipative,
)

QUBIT = SpinJ(1)


def random_rho(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def coherent_vector(j, theta, phi):
    # phase e^{i k phi} on row k = J - m reproduces the e^{i(m - m')phi} kernel
    amps = coherent_amplitudes(j, theta).amplitudes
    return amps * np.exp(1j * np.arange(j.dim) * phi)


def coherent_projector(j, theta, phi):
    vec = coherent_vector(j, theta, phi)
    return np.outer(vec, vec.conj())


def brute_expectation(op, j, grid):
    """Direct complex <omega|op|omega> evaluation, no spectral machinery."""
    out = np.empty((grid.n_theta, grid.n_phi), dtype=complex)
    for a, theta in enumerate(grid.theta_nodes):
        for b, phi in enumerate(grid.phi_nodes):
            vec = coherent_vector(j, theta, phi)
            out[a, b] = vec.conj() @ op @ vec
    return out


def brute_husimi(rho, j, grid):
    """Real part of brute_expectation, for the Hermitian rho and D[rho] whose fields are real."""
    return brute_expectation(rho, j, grid).real


def test_grid_weights_cover_the_sphere():
    grid = SphereGrid(24, 24)
    assert integrate(grid, np.ones((24, 24))) == pytest.approx(4.0 * math.pi, abs=1e-12)
    cos2 = np.broadcast_to(np.cos(grid.theta_nodes)[:, None] ** 2, (24, 24))
    assert integrate(grid, cos2) == pytest.approx(4.0 * math.pi / 3.0, abs=1e-12)
    # open grid: Gauss nodes exclude both poles, uniform phis exclude 2 pi
    assert grid.theta_nodes.min() > 0.0 and grid.theta_nodes.max() < math.pi


def test_grid_guards():
    with pytest.raises(ValueError):
        SphereGrid(1, 8)
    with pytest.raises(ValueError):
        SphereGrid(16, 3)
    grid = SphereGrid(16, 16)
    with pytest.raises(DimensionError):
        integrate(grid, np.ones((8, 8)))


def test_coherent_amplitudes_poles_and_equator():
    top = coherent_amplitudes(QUBIT, 0.0).amplitudes
    np.testing.assert_allclose(top, [1.0, 0.0], atol=1e-15)
    bottom = coherent_amplitudes(QUBIT, math.pi).amplitudes
    np.testing.assert_allclose(bottom, [0.0, 1.0], atol=1e-15)
    eq = coherent_amplitudes(SpinJ(2), math.pi / 2.0).amplitudes
    np.testing.assert_allclose(eq, [0.5, 1.0 / math.sqrt(2.0), 0.5], atol=1e-14)


def test_coherent_amplitudes_range_guard():
    with pytest.raises(RangeError):
        coherent_amplitudes(QUBIT, -0.1)
    with pytest.raises(RangeError):
        coherent_amplitudes(QUBIT, math.pi + 0.1)


def test_coherent_amplitudes_normalized():
    rng = np.random.default_rng(0)
    for two_j in (1, 2, 3, 4):
        for theta in rng.uniform(0.0, math.pi, size=10):
            amps = coherent_amplitudes(SpinJ(two_j), theta).amplitudes
            assert abs(np.sum(amps**2) - 1.0) < 1e-12


def test_coherent_amplitudes_match_rotation_oracle():
    # amplitudes are the top column of exp(-i theta Jy) in the m basis
    rng = np.random.default_rng(1)
    for two_j in (1, 2, 3, 4):
        j = SpinJ(two_j)
        ops = make_spin_operators(j)
        jy = -0.5j * (ops.jplus - ops.jminus)
        for theta in rng.uniform(0.0, math.pi, size=50):
            column = expm(-1j * theta * jy)[:, 0]
            amps = coherent_amplitudes(j, theta).amplitudes
            assert np.abs(amps - column.real).max() < 1e-12
            assert np.abs(column.imag).max() < 1e-12


def test_coherent_amplitude_derivatives_match_finite_differences():
    rng = np.random.default_rng(2)
    delta = 1e-5
    for two_j in (1, 2, 3):
        j = SpinJ(two_j)
        for theta in rng.uniform(0.2, math.pi - 0.2, size=20):
            fd = (
                coherent_amplitudes(j, theta + delta).amplitudes
                - coherent_amplitudes(j, theta - delta).amplitudes
            ) / (2.0 * delta)
            assert np.abs(coherent_amplitudes(j, theta).damplitudes - fd).max() < 1e-6


def test_husimi_pointwise_qubit_formula():
    # Q = (1 + n . tau) / 2 for a qubit
    tau = np.array([0.3, -0.2, 0.4])
    rho = bloch_to_rho(tau)
    rng = np.random.default_rng(3)
    for _ in range(20):
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        n_hat = np.array(
            [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
        )
        expected = 0.5 * (1.0 + n_hat @ tau)
        assert husimi_q(rho, SolidAngle(theta, phi)) == pytest.approx(expected, abs=1e-12)


def test_husimi_self_overlap_is_one():
    for two_j in (1, 2, 3):
        j = SpinJ(two_j)
        rho = coherent_projector(j, 1.1, 0.7)
        assert husimi_q(rho, SolidAngle(1.1, 0.7)) == pytest.approx(1.0, abs=1e-12)


def test_husimi_field_matches_brute_force():
    rng = np.random.default_rng(4)
    grid = SphereGrid(16, 16)
    for two_j in (1, 2, 3):
        j = SpinJ(two_j)
        rho = random_rho(rng, j.dim)
        field = husimi_field(rho, grid)
        assert np.abs(field.q - brute_husimi(rho, j, grid)).max() < 1e-12


def test_husimi_normalization():
    rng = np.random.default_rng(5)
    grid = SphereGrid(64, 64)
    for two_j in (1, 2, 3):
        j = SpinJ(two_j)
        pref = (two_j + 1.0) / (4.0 * math.pi)
        for _ in range(10):
            field = husimi_field(random_rho(rng, j.dim), grid)
            assert abs(pref * integrate(grid, field.q) - 1.0) < 1e-10


def test_husimi_field_derivatives_match_finite_differences():
    rng = np.random.default_rng(6)
    grid = SphereGrid(32, 32)
    delta = 1e-5
    for two_j in (1, 2, 3):
        j = SpinJ(two_j)
        rho = random_rho(rng, j.dim)
        field = husimi_field(rho, grid)
        assert np.abs(field.dq_dphi.imag).max() < 1e-12
        for _ in range(5):
            a = int(rng.integers(2, grid.n_theta - 2))
            b = int(rng.integers(2, grid.n_phi - 2))
            theta, phi = grid.theta_nodes[a], grid.phi_nodes[b]
            fd_theta = (
                husimi_q(rho, SolidAngle(theta + delta, phi)) - husimi_q(rho, SolidAngle(theta - delta, phi))
            ) / (2.0 * delta)
            fd_phi = (
                husimi_q(rho, SolidAngle(theta, phi + delta)) - husimi_q(rho, SolidAngle(theta, phi - delta))
            ) / (2.0 * delta)
            assert field.dq_dtheta[a, b] == pytest.approx(fd_theta, abs=1e-6)
            assert field.dq_dphi[a, b].real == pytest.approx(fd_phi, abs=1e-6)


def test_qutrit_husimi_closed_form():
    # spin-1 Q in terms of populations and the real off-diagonal parts
    rho = random_state_with_coherence(3, 0.6, seed=8)
    grid = SphereGrid(16, 16)
    field = husimi_field(rho, grid)
    th = grid.theta_nodes[:, None]
    ph = grid.phi_nodes[None, :]
    alpha, beta, gamma = np.real(rho[0, 1]), np.real(rho[0, 2]), np.real(rho[1, 2])
    closed = (
        np.real(rho[0, 0]) * np.cos(th / 2.0) ** 4
        + np.real(rho[1, 1]) * np.sin(th) ** 2 / 2.0
        + np.real(rho[2, 2]) * np.sin(th / 2.0) ** 4
        + (math.sqrt(2.0) / 2.0)
        * np.sin(th)
        * (alpha + gamma + (alpha - gamma) * np.cos(th))
        * np.cos(ph)
        + (beta / 2.0) * np.sin(th) ** 2 * np.cos(2.0 * ph)
    )
    assert np.abs(field.q - closed).max() < 1e-12


def test_differential_jz_action():
    # jz acts as -i d/dphi; for tau = (1, 0, 0), that gives (i/2) sin(theta) sin(phi)
    grid = SphereGrid(24, 24)
    field = husimi_field(bloch_to_rho([1.0, 0.0, 0.0]), grid)
    expected = 0.5j * np.sin(grid.theta_nodes)[:, None] * np.sin(grid.phi_nodes)[None, :]
    assert np.abs(phase_space_jz(field) - expected).max() < 1e-12

    diag = husimi_field(np.diag([0.4, 0.6]).astype(complex), grid)
    assert np.abs(phase_space_jz(diag)).max() < 1e-14


def test_differential_ladder_on_polarized_state():
    # for rho = |j, j><j, j| the raising action reduces to -(e^{i phi}/2) sin(theta) d/d(cos...)
    grid = SphereGrid(24, 24)
    field = husimi_field(np.diag([1.0, 0.0]).astype(complex), grid)
    expected = -0.5 * np.exp(1j * grid.phi_nodes)[None, :] * np.sin(grid.theta_nodes)[:, None]
    assert np.abs(phase_space_jplus(field) - expected).max() < 1e-12


def test_ladder_duality():
    # J-(Q) + conj(J+(Q)) = 0 for Hermitian rho
    rng = np.random.default_rng(9)
    grid = SphereGrid(24, 24)
    for two_j in (1, 2, 3):
        for _ in range(7):
            field = husimi_field(random_rho(rng, two_j + 1), grid)
            residual = phase_space_jminus(field) + np.conj(phase_space_jplus(field))
            assert np.abs(residual).max() < 1e-10


@pytest.mark.parametrize("two_j", (1, 2, 3))
def test_dephasing_field_matches_matrix_dissipator(two_j):
    j = SpinJ(two_j)
    ops = make_spin_operators(j)
    grid = SphereGrid(20, 20)
    rng = np.random.default_rng(10 + two_j)
    chan = DephasingChannel(lam=1.3, ops=ops)
    for _ in range(5):
        rho = random_rho(rng, j.dim)
        field = husimi_field(rho, grid)
        oracle = brute_husimi(dephasing_dissipator(1.3, ops, rho), j, grid)
        assert np.abs(dissipator_field(field, chan) - oracle).max() < 1e-12


@pytest.mark.parametrize("two_j", (1, 2, 3))
@pytest.mark.parametrize("gamma,nbar", ((1.0, 0.0), (0.7, 0.5), (0.4, 2.0)))
def test_damping_field_matches_matrix_dissipator(two_j, gamma, nbar):
    j = SpinJ(two_j)
    ops = make_spin_operators(j)
    grid = SphereGrid(20, 20)
    rng = np.random.default_rng(20 + two_j)
    chan = AmplitudeDampingChannel(gamma=gamma, nbar=nbar, ops=ops)
    for _ in range(5):
        rho = random_rho(rng, j.dim)
        field = husimi_field(rho, grid)
        oracle = brute_husimi(dissipator(chan, rho), j, grid)
        assert np.abs(dissipator_field(field, chan) - oracle).max() < 1e-12


@pytest.mark.parametrize("two_j", (1, 2, 3))
def test_infinite_temperature_field_matches_matrix_dissipator(two_j):
    j = SpinJ(two_j)
    ops = make_spin_operators(j)
    grid = SphereGrid(20, 20)
    rng = np.random.default_rng(30 + two_j)
    chan = AmplitudeDampingChannel.infinite_temperature(0.9, ops)
    for _ in range(5):
        rho = random_rho(rng, j.dim)
        field = husimi_field(rho, grid)
        oracle = brute_husimi(dissipator(chan, rho), j, grid)
        assert np.abs(dissipator_field(field, chan) - oracle).max() < 1e-12


def test_dissipator_field_integrates_to_zero():
    # trace preservation seen on the sphere
    rng = np.random.default_rng(40)
    grid = SphereGrid(48, 48)
    j = SpinJ(2)
    ops = make_spin_operators(j)
    for chan in (
        DephasingChannel(lam=1.0, ops=ops),
        AmplitudeDampingChannel(gamma=0.8, nbar=0.6, ops=ops),
    ):
        for _ in range(5):
            field = husimi_field(random_rho(rng, 3), grid)
            assert abs(integrate(grid, dissipator_field(field, chan))) < 1e-9


def test_wehrl_entropy_reference_values():
    grid = SphereGrid(128, 128)
    assert wehrl_entropy(husimi_field(np.eye(2, dtype=complex) / 2.0, grid)) == pytest.approx(
        math.log(2.0), abs=1e-9
    )
    # pure coherent states sit at the floor 2J / (2J + 1)
    for two_j in (1, 2, 3):
        j = SpinJ(two_j)
        rho = coherent_projector(j, 0.9, 2.1)
        expected = two_j / (two_j + 1.0)
        assert wehrl_entropy(husimi_field(rho, grid)) == pytest.approx(expected, abs=1e-6)


def test_wehrl_exceeds_coherent_state_floor():
    rng = np.random.default_rng(41)
    grid = SphereGrid(64, 64)
    for two_j in (1, 2):
        floor = two_j / (two_j + 1.0)
        for _ in range(10):
            value = wehrl_entropy(husimi_field(random_rho(rng, two_j + 1), grid))
            assert value > floor - 1e-6


def test_wehrl_entropy_rotation_invariant():
    # demands the fine grid; coarser grids leak through the polar clustering
    j = SpinJ(2)
    ops = make_spin_operators(j)
    rng = np.random.default_rng(42)
    rho = random_rho(rng, 3)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    jx = 0.5 * (ops.jplus + ops.jminus)
    jy = -0.5j * (ops.jplus - ops.jminus)
    rot = expm(-1j * 0.9 * (axis[0] * jx + axis[1] * jy + axis[2] * ops.jz))
    grid = SphereGrid(512, 512)
    before = wehrl_entropy(husimi_field(rho, grid))
    after = wehrl_entropy(husimi_field(rot @ rho @ rot.conj().T, grid))
    assert abs(after - before) < 1e-10


def test_wehrl_rate_zero_for_diagonal_dephasing():
    grid = SphereGrid(32, 32)
    ops = make_spin_operators(SpinJ(2))
    field = husimi_field(np.diag([0.5, 0.3, 0.2]).astype(complex), grid)
    assert abs(wehrl_rate_dissipative(field, DephasingChannel(lam=1.0, ops=ops))) < 1e-12


def test_wehrl_rate_matches_finite_difference():
    from spinphase import evolve

    dt = 1e-3
    grid = SphereGrid(96, 96)
    rng = np.random.default_rng(43)
    for two_j in (1, 3):
        j = SpinJ(two_j)
        ops = make_spin_operators(j)
        rho = random_rho(rng, j.dim)
        for chan in (
            DephasingChannel(lam=1.0, ops=ops),
            AmplitudeDampingChannel(gamma=1.0, nbar=0.5, ops=ops),
        ):
            traj = evolve(chan, rho, 2.0 * dt, 2)
            s0 = wehrl_entropy(husimi_field(traj.states[0], grid))
            s2 = wehrl_entropy(husimi_field(traj.states[2], grid))
            rate = wehrl_rate_dissipative(husimi_field(traj.states[1], grid), chan)
            assert rate == pytest.approx((s2 - s0) / (2.0 * dt), abs=1e-4)


def test_floor_warning_on_vanishing_husimi_density():
    # a pure spin-4 coherent state underflows near the antipode; the entropy
    # integrand has a removable limit there, the rate integrand does not
    j = SpinJ(8)
    rho = coherent_projector(j, 0.0, 0.0)
    field = husimi_field(rho, SphereGrid(64, 64))
    assert field.q.min() < 1e-14
    wehrl_entropy(field)
    chan = DephasingChannel(lam=1.0, ops=make_spin_operators(j))
    with pytest.warns(QFloorWarning):
        wehrl_rate_dissipative(field, chan)


def test_husimi_nonnegative_for_valid_states():
    rng = np.random.default_rng(44)
    grid = SphereGrid(32, 32)
    for two_j in (1, 2, 4):
        for _ in range(10):
            field = husimi_field(random_rho(rng, two_j + 1), grid)
            assert field.q.min() > -1e-12


WORKLOAD_SPINS = (4, 5, 8)


def sparse_and_random_states(rng, j):
    """A random state and three sparse ones whose spectra carry zero components."""
    d = j.dim
    top = np.zeros((d, d), dtype=complex)
    top[0, 0] = 1.0  # |J, J><J, J|: only k = 0, and Q vanishes at the south pole
    pops = rng.dirichlet(np.ones(d))
    band = np.diag(np.full(d, 1.0 / d)).astype(complex)
    offset = 2
    for r in range(d - offset):
        band[r, r + offset] = 0.4 / d * np.exp(1j * (0.3 + r))
        band[r + offset, r] = np.conj(band[r, r + offset])
    return {"random": random_rho(rng, d), "top": top, "diagonal": np.diag(pops).astype(complex), "band": band}


@pytest.mark.parametrize("two_j", WORKLOAD_SPINS)
def test_husimi_field_matches_pointwise_husimi_at_workload_spins(two_j):
    j = SpinJ(two_j)
    grid = SphereGrid(24, 24)
    for name, rho in sparse_and_random_states(np.random.default_rng(50 + two_j), j).items():
        field = husimi_field(rho, grid)
        pointwise = np.array(
            [[husimi_q(rho, SolidAngle(theta, phi)) for phi in grid.phi_nodes] for theta in grid.theta_nodes]
        )
        assert np.abs(field.q - pointwise).max() < 1e-12, name


@pytest.mark.parametrize("two_j", WORKLOAD_SPINS)
def test_husimi_field_derivatives_at_workload_spins(two_j):
    j = SpinJ(two_j)
    grid = SphereGrid(24, 24)
    rng = np.random.default_rng(60 + two_j)
    delta = 1e-5
    for name, rho in sparse_and_random_states(rng, j).items():
        field = husimi_field(rho, grid)
        assert np.abs(field.dq_dphi.imag).max() < 1e-12, name
        for _ in range(6):
            a = int(rng.integers(1, grid.n_theta - 1))
            b = int(rng.integers(0, grid.n_phi))
            theta, phi = grid.theta_nodes[a], grid.phi_nodes[b]
            fd_theta = (
                husimi_q(rho, SolidAngle(theta + delta, phi)) - husimi_q(rho, SolidAngle(theta - delta, phi))
            ) / (2.0 * delta)
            fd_phi = (
                husimi_q(rho, SolidAngle(theta, phi + delta)) - husimi_q(rho, SolidAngle(theta, phi - delta))
            ) / (2.0 * delta)
            assert field.dq_dtheta[a, b] == pytest.approx(fd_theta, abs=1e-6), name
            assert field.dq_dphi[a, b].real == pytest.approx(fd_phi, abs=1e-6), name


@pytest.mark.parametrize("two_j", WORKLOAD_SPINS)
def test_dissipator_fields_match_matrix_dissipators_at_workload_spins(two_j):
    j = SpinJ(two_j)
    ops = make_spin_operators(j)
    grid = SphereGrid(24, 24)
    channels = (
        DephasingChannel(lam=1.3, ops=ops),
        AmplitudeDampingChannel(gamma=0.7, nbar=0.5, ops=ops),
        AmplitudeDampingChannel.infinite_temperature(0.9, ops),
        AmplitudeDampingChannel(gamma=1.0, nbar=0.0, ops=ops),
    )
    for name, rho in sparse_and_random_states(np.random.default_rng(70 + two_j), j).items():
        field = husimi_field(rho, grid)
        for chan in channels:
            oracle = brute_husimi(dissipator(chan, rho), j, grid)
            assert np.abs(dissipator_field(field, chan) - oracle).max() < 1e-12, (name, chan)


@pytest.mark.parametrize("two_j", WORKLOAD_SPINS)
def test_ladder_actions_match_matrix_commutators_at_workload_spins(two_j):
    # each differential action on Q is the Husimi transform <omega|[J, rho]|omega>, complex for J+ and J-
    j = SpinJ(two_j)
    ops = make_spin_operators(j)
    grid = SphereGrid(20, 20)
    actions = ((phase_space_jplus, ops.jplus), (phase_space_jminus, ops.jminus), (phase_space_jz, ops.jz))
    for name, rho in sparse_and_random_states(np.random.default_rng(90 + two_j), j).items():
        field = husimi_field(rho, grid)
        for action, op in actions:
            oracle = brute_expectation(op @ rho - rho @ op, j, grid)
            assert np.abs(action(field) - oracle).max() < 1e-12, (name, action.__name__)


def test_one_grid_serves_several_spins():
    # the grid caches its tables per spin; alternating spins must not mix them
    grid = SphereGrid(24, 24)
    rng = np.random.default_rng(80)
    for two_j in (8, 5, 8, 1, 5):
        j = SpinJ(two_j)
        rho = random_rho(rng, j.dim)
        field = husimi_field(rho, grid)
        fresh = husimi_field(rho, SphereGrid(24, 24))
        assert np.array_equal(field.q, fresh.q)
        assert np.abs(field.q - brute_husimi(rho, j, grid)).max() < 1e-12
        chan = AmplitudeDampingChannel(gamma=1.0, nbar=0.5, ops=make_spin_operators(j))
        assert np.array_equal(dissipator_field(field, chan), dissipator_field(fresh, chan))


def test_grid_builds_spin_tables_on_first_field(monkeypatch):
    from spinphase import phase_space

    calls = []
    real = phase_space._amplitude_table

    def counting(j, thetas, orders=3):
        calls.append(j.two_j)
        return real(j, thetas, orders)

    monkeypatch.setattr(phase_space, "_amplitude_table", counting)
    grid = SphereGrid(128, 128)
    assert calls == []
    rng = np.random.default_rng(81)
    for _ in range(3):
        husimi_field(random_rho(rng, 9), grid)
    assert calls == [8]
    husimi_field(random_rho(rng, 2), grid)
    assert calls == [8, 1]


def test_channels_without_a_phase_space_dissipator_raise_type_error():
    ops = make_spin_operators(QUBIT)
    field = husimi_field(bloch_to_rho([0.3, 0.1, 0.2]), SphereGrid(16, 16))
    pair = DaviesPair(l_minus=ops.jminus, gamma_minus=0.8, gamma_plus=0.2, omega=0.0)
    for chan in (UnitaryChannel(hamiltonian=ops.jx), DaviesChannel(pairs=[pair])):
        name = type(chan).__name__
        with pytest.raises(TypeError, match=name):
            dissipator_field(field, chan)
        with pytest.raises(TypeError, match=name):
            wehrl_rate_dissipative(field, chan)


@pytest.mark.parametrize("two_j", [2, 4, 8])
def test_grid_below_the_band_limit_is_rejected(two_j):
    j = SpinJ(two_j)
    rho = random_state_with_coherence(j.dim, 0.3, 11)
    n_theta, n_phi = two_j + 1, 2 * two_j + 1
    for coarse in (SphereGrid(n_theta - 1, n_phi), SphereGrid(n_theta, n_phi - 1)):
        with pytest.raises(BandLimitError, match=f"n_theta >= {n_theta} and n_phi >= {n_phi}"):
            husimi_field(rho, coarse)
    # at the limit Q^2 integrates exactly
    at_limit = SphereGrid(n_theta, n_phi)
    exact = integrate(SphereGrid(64, 64), husimi_field(rho, SphereGrid(64, 64)).q ** 2)
    assert abs(integrate(at_limit, husimi_field(rho, at_limit).q ** 2) - exact) < 1e-13
    # a grid that rejects one spin still serves the spins it resolves
    with pytest.raises(BandLimitError):
        husimi_field(np.eye(2 * two_j + 1) / (2 * two_j + 1), at_limit)
    assert np.array_equal(husimi_field(rho, at_limit).q, husimi_field(rho, SphereGrid(n_theta, n_phi)).q)
