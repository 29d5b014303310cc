import math

import numpy as np
import pytest

import scipy.linalg

from spinphase import entropy_production
from spinphase import (
    AmplitudeDampingChannel,
    BathParams,
    DaviesChannel,
    DaviesPair,
    DephasingChannel,
    BlochNormError,
    DimensionError,
    EpReport,
    PurityDivergence,
    SphereGrid,
    SpinJ,
    SupportError,
    TemperatureDivergence,
    bloch_to_rho,
    damping_stationary_state,
    ep_qubit_damping_closed,
    ep_qubit_dephasing_closed,
    ep_rate_damping_quad,
    ep_rate_dephasing_quad,
    ep_vn_general,
    ep_vn_qubit_damping,
    ep_vn_qubit_dephasing,
    gibbs_state,
    husimi_field,
    make_spin_operators,
    vn_rate_dephasing,
)
from spinphase.entropy_production import _bracket

QUBIT = SpinJ(1)
OPS = make_spin_operators(QUBIT)

# mpmath oracle, 50 digits: b(x) = (x - (1 - x^2) atanh x) / x^3 at x = 0.6
BRACKET_06 = 0.724008353896458
# (lam/4) tau_perp^2 b(tau) at tau = (0.6, 0, 0), lam = 1
DEPH_CLOSED_06 = 0.0651607518506813
# damping rate at the maximally mixed state, gamma = 1, nbar = 0.5
DAMP_CLOSED_ORIGIN = 0.176040783498918
# damping vN rate at tau = (0.6, 0, 0), gamma = 1, nbar = 0.5
VN_DAMP_06 = 0.965194452670022


def test_bath_params_round_trip():
    bath = BathParams.from_nbar(1.0, 0.5)
    assert bath.gamma_bar == pytest.approx(2.0, abs=1e-14)
    assert bath.tau_bar_z == pytest.approx(-0.5, abs=1e-14)
    again = BathParams.from_tau_bar(bath.gamma_bar, bath.tau_bar_z)
    assert again.gamma == pytest.approx(1.0, abs=1e-12)
    assert again.nbar == pytest.approx(0.5, abs=1e-12)


def test_bath_params_infinite_temperature():
    bath = BathParams.from_tau_bar(1.4, 0.0)
    assert bath.gamma == 0.0
    assert math.isinf(bath.nbar)
    chan = bath.channel(OPS)
    assert isinstance(chan, AmplitudeDampingChannel)
    assert chan.gamma_bar == pytest.approx(1.4)


def test_bath_has_one_value():
    # the damping channel reads its rates from one BathParams, so both agree
    assert AmplitudeDampingChannel(gamma=0.0, nbar=0.5, ops=OPS).tau_bar_z == -1.0 / (2 * 0.5 + 1)
    assert BathParams.from_nbar(0.0, 0.5).tau_bar_z == -1.0 / (2 * 0.5 + 1)
    for tau_bar_z in (-1.0, -0.9, -0.3, -0.1, 0.0):
        bath = BathParams.from_tau_bar(1.0, tau_bar_z)
        chan = bath.channel(OPS)
        assert (chan.gamma_bar, chan.tau_bar_z) == (bath.gamma_bar, bath.tau_bar_z)


def test_bath_params_validation():
    with pytest.raises(ValueError):
        BathParams.from_nbar(-1.0, 0.5)
    with pytest.raises(ValueError):
        BathParams.from_tau_bar(1.0, 0.3)
    with pytest.raises(ValueError):
        BathParams(gamma=1.0, nbar=0.5, tau_bar_z=-0.9, gamma_bar=2.0)


def test_bracket_values():
    assert _bracket(0.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert _bracket(0.6) == pytest.approx(BRACKET_06, abs=1e-14)
    assert _bracket(1.0) == pytest.approx(1.0, abs=1e-14)
    assert _bracket(-0.6) == pytest.approx(BRACKET_06, abs=1e-14)
    # 4 - 3 ln 3 at x = 1/2
    assert _bracket(0.5) == pytest.approx(4.0 - 3.0 * math.log(3.0), abs=1e-14)


def test_bracket_series_joins_direct_branch():
    from spinphase.entropy_production import SERIES_CUT

    below = _bracket(SERIES_CUT - 1e-12)
    above = _bracket(SERIES_CUT + 1e-12)
    assert abs(below - above) < 1e-11


def test_dephasing_closed_reference_point():
    assert ep_qubit_dephasing_closed([0.6, 0.0, 0.0], 1.0) == pytest.approx(DEPH_CLOSED_06, abs=1e-14)
    # scales linearly in lam and vanishes without transverse coherence
    assert ep_qubit_dephasing_closed([0.6, 0.0, 0.0], 2.0) == pytest.approx(2 * DEPH_CLOSED_06, abs=1e-14)
    assert ep_qubit_dephasing_closed([0.0, 0.0, 0.9], 1.0) == 0.0


def test_dephasing_closed_pure_state_is_quarter_sine_squared():
    for theta in (0.3, 1.0, 2.0):
        tau = [math.sin(theta), 0.0, math.cos(theta)]
        assert ep_qubit_dephasing_closed(tau, 1.0) == pytest.approx(
            0.25 * math.sin(theta) ** 2, abs=1e-12
        )


def test_dephasing_vn_reference_point():
    # (lam/2) tau_perp^2 atanh(tau)/tau with atanh(0.6) = ln 2
    expected = 0.3 * math.log(2.0)
    assert ep_vn_qubit_dephasing([0.6, 0.0, 0.0], 1.0) == pytest.approx(expected, abs=1e-14)
    assert ep_vn_qubit_dephasing([0.0, 0.0, 0.5], 1.0) == 0.0


def test_dephasing_vn_diverges_at_purity():
    with pytest.raises(PurityDivergence):
        ep_vn_qubit_dephasing([1.0, 0.0, 0.0], 1.0)
    with pytest.raises(PurityDivergence):
        ep_vn_qubit_dephasing([math.sin(0.4), 0.0, math.cos(0.4)], 1.0)


def test_vn_dominates_wehrl_closed_forms():
    rng = np.random.default_rng(1)
    bath = BathParams.from_nbar(1.0, 0.5)
    for _ in range(50):
        tau = rng.uniform(-0.55, 0.55, size=3)
        assert ep_vn_qubit_dephasing(tau, 1.0) >= ep_qubit_dephasing_closed(tau, 1.0) - 1e-12
        assert ep_vn_qubit_damping(tau, bath) >= ep_qubit_damping_closed(tau, bath) - 1e-12


def test_damping_closed_reference_points():
    bath = BathParams.from_nbar(1.0, 0.5)
    assert ep_qubit_damping_closed([0.0, 0.0, 0.0], bath) == pytest.approx(DAMP_CLOSED_ORIGIN, abs=1e-14)
    # thermal state produces nothing
    assert ep_qubit_damping_closed([0.0, 0.0, bath.tau_bar_z], bath) == pytest.approx(0.0, abs=1e-14)


def test_damping_closed_infinite_temperature_reduces_to_dephasing_shape():
    # at tau_bar_z = 0 both channels share the (gamma_bar/4)(tau^2) b(tau) profile
    bath = BathParams.from_tau_bar(1.0, 0.0)
    assert ep_qubit_damping_closed([0.6, 0.0, 0.0], bath) == pytest.approx(DEPH_CLOSED_06, abs=1e-14)


def test_damping_vn_reference_point():
    bath = BathParams.from_nbar(1.0, 0.5)
    assert ep_vn_qubit_damping([0.6, 0.0, 0.0], bath) == pytest.approx(VN_DAMP_06, abs=1e-13)
    assert ep_vn_qubit_damping([0.0, 0.0, bath.tau_bar_z], bath) == pytest.approx(0.0, abs=1e-12)


def test_damping_vn_divergences():
    bath = BathParams.from_nbar(1.0, 0.5)
    with pytest.raises(PurityDivergence):
        ep_vn_qubit_damping([0.0, 0.0, 1.0], bath)
    cold = BathParams.from_nbar(1.0, 0.0)
    with pytest.raises(TemperatureDivergence):
        ep_vn_qubit_damping([0.3, 0.0, 0.0], cold)


def test_closed_forms_reject_bad_bloch_input():
    with pytest.raises(BlochNormError):
        ep_qubit_dephasing_closed([1.2, 0.0, 0.0], 1.0)
    with pytest.raises(DimensionError):
        ep_qubit_dephasing_closed([0.5, 0.0], 1.0)


def test_monotone_in_transverse_coherence():
    # 10-point sweeps at fixed tau_z: larger coherence, faster production
    bath = BathParams.from_nbar(1.0, 0.5)
    perps = np.linspace(0.0, 0.9, 10)
    deph = [ep_qubit_dephasing_closed([p, 0.0, 0.2], 1.0) for p in perps]
    damp = [ep_qubit_damping_closed([p, 0.0, 0.2], bath) for p in perps]
    vn_deph = [ep_vn_qubit_dephasing([p, 0.0, 0.2], 1.0) for p in perps]
    vn_damp = [ep_vn_qubit_damping([p, 0.0, 0.2], bath) for p in perps]
    for seq in (deph, damp, vn_deph, vn_damp):
        diffs = np.diff(seq)
        assert np.all(diffs > 0.0)


def test_quadrature_dephasing_null_on_diagonal():
    grid = SphereGrid(32, 32)
    for two_j in (1, 2, 3, 4):
        j = SpinJ(two_j)
        pops = np.random.default_rng(two_j).dirichlet(np.ones(j.dim))
        report = ep_rate_dephasing_quad(husimi_field(np.diag(pops.astype(complex)), grid), 1.0, j)
        assert abs(report.sigma_dot) < 1e-12
        assert report.phi_dot == 0.0


def test_quadrature_matches_closed_form_spot():
    grid = SphereGrid(96, 96)
    rng = np.random.default_rng(2)
    bath = BathParams.from_nbar(1.0, 0.5)
    for _ in range(10):
        tau = rng.uniform(-0.5, 0.5, size=3)
        field = husimi_field(bloch_to_rho(tau), grid)
        deph = ep_rate_dephasing_quad(field, 1.0, QUBIT)
        expected = ep_qubit_dephasing_closed(tau, 1.0)
        assert abs(deph.sigma_dot - expected) / max(expected, 1e-12) < 1e-6
        damp = ep_rate_damping_quad(field, bath, QUBIT)
        expected = ep_qubit_damping_closed(tau, bath)
        assert abs(damp.sigma_dot - expected) / max(expected, 1e-12) < 1e-6


def test_quadrature_report_balance():
    grid = SphereGrid(64, 64)
    bath = BathParams.from_nbar(1.0, 0.5)
    field = husimi_field(bloch_to_rho([0.4, 0.1, -0.2]), grid)
    report = ep_rate_damping_quad(field, bath, QUBIT)
    assert isinstance(report, EpReport)
    assert report.route == "quadrature"
    assert report.ds_dt == pytest.approx(report.sigma_dot - report.phi_dot, abs=1e-9)


def test_quadrature_dephasing_flux_free():
    grid = SphereGrid(64, 64)
    field = husimi_field(bloch_to_rho([0.5, 0.0, 0.3]), grid)
    report = ep_rate_dephasing_quad(field, 1.0, QUBIT)
    assert report.phi_dot == 0.0
    assert report.ds_dt == report.sigma_dot


def test_quadrature_damping_thermal_state_silent():
    grid = SphereGrid(64, 64)
    bath = BathParams.from_nbar(1.0, 0.5)
    field = husimi_field(bloch_to_rho([0.0, 0.0, bath.tau_bar_z]), grid)
    report = ep_rate_damping_quad(field, bath, QUBIT)
    assert abs(report.sigma_dot) < 1e-9
    assert abs(report.phi_dot) < 1e-9


def test_quadrature_infinite_temperature_branch():
    grid = SphereGrid(96, 96)
    bath = BathParams.from_tau_bar(1.0, 0.0)
    tau = [0.5, 0.1, 0.2]
    field = husimi_field(bloch_to_rho(tau), grid)
    report = ep_rate_damping_quad(field, bath, QUBIT)
    expected = ep_qubit_damping_closed(tau, bath)
    assert abs(report.sigma_dot - expected) / expected < 1e-6


def test_quadrature_dimension_guard():
    grid = SphereGrid(32, 32)
    field = husimi_field(np.eye(3, dtype=complex) / 3.0, grid)
    with pytest.raises(DimensionError):
        ep_rate_dephasing_quad(field, 1.0, QUBIT)


def test_vn_general_matches_qubit_closed_forms():
    rng = np.random.default_rng(3)
    bath = BathParams.from_nbar(1.0, 0.5)
    chan = bath.channel(OPS)
    rho_eq = damping_stationary_state(QUBIT, 0.5)
    for _ in range(20):
        tau = rng.uniform(-0.5, 0.5, size=3)
        report = ep_vn_general(bloch_to_rho(tau), chan, rho_eq)
        assert report.route == "von-neumann"
        assert report.sigma_dot == pytest.approx(ep_vn_qubit_damping(tau, bath), abs=1e-9)
        assert report.ds_dt == pytest.approx(report.sigma_dot - report.phi_dot, abs=1e-9)


def test_vn_general_zero_at_equilibrium():
    rho_eq = damping_stationary_state(QUBIT, 0.5)
    chan = BathParams.from_nbar(1.0, 0.5).channel(OPS)
    report = ep_vn_general(rho_eq, chan, rho_eq)
    assert abs(report.sigma_dot) < 1e-12
    assert abs(report.phi_dot) < 1e-12


def test_vn_general_rejects_rank_deficient_state():
    chan = BathParams.from_nbar(1.0, 0.5).channel(OPS)
    rho_eq = damping_stationary_state(QUBIT, 0.5)
    with pytest.raises(SupportError):
        ep_vn_general(np.diag([1.0, 0.0]).astype(complex), chan, rho_eq)
    with pytest.raises(SupportError):
        ep_vn_general(np.eye(2, dtype=complex) / 2.0, chan, np.diag([1.0, 0.0]).astype(complex))
    with pytest.raises(DimensionError):
        ep_vn_general(np.eye(2, dtype=complex) / 2.0, chan, np.eye(3, dtype=complex) / 3.0)


def test_vn_general_spin_one_thermal_fixed_point():
    j = SpinJ(2)
    ops3 = make_spin_operators(j)
    chan = AmplitudeDampingChannel(gamma=1.0, nbar=0.5, ops=ops3)
    rho_eq = damping_stationary_state(j, 0.5)
    report = ep_vn_general(rho_eq, chan, rho_eq)
    assert abs(report.sigma_dot) < 1e-12


def test_vn_rate_dephasing_matches_qubit_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(10):
        tau = rng.uniform(-0.5, 0.5, size=3)
        value = vn_rate_dephasing(bloch_to_rho(tau), 1.3, OPS)
        assert value == pytest.approx(ep_vn_qubit_dephasing(tau, 1.3), abs=1e-9)


def test_vn_rate_dephasing_spin_one():
    # rate is finite, nonnegative, and zero on diagonal states
    ops3 = make_spin_operators(SpinJ(2))
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    assert abs(vn_rate_dephasing(rho, 1.0, ops3)) < 1e-12
    rho = np.array(
        [
            [0.4, 0.1, 0.0],
            [0.1, 0.35, 0.05],
            [0.0, 0.05, 0.25],
        ],
        dtype=complex,
    )
    assert vn_rate_dephasing(rho, 1.0, ops3) > 0.0


def _grid_field():
    return husimi_field(bloch_to_rho([0.3, 0.0, 0.2]), SphereGrid(16, 16))


@pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize(
    "rate",
    [
        lambda lam: vn_rate_dephasing(np.eye(2, dtype=complex) / 2.0, lam, OPS),
        lambda lam: ep_rate_dephasing_quad(_grid_field(), lam, QUBIT),
        lambda lam: ep_vn_qubit_dephasing([0.3, 0.0, 0.2], lam),
        lambda lam: ep_qubit_dephasing_closed([0.3, 0.0, 0.2], lam),
    ],
    ids=["vn_rate_dephasing", "ep_rate_dephasing_quad", "ep_vn_qubit_dephasing", "ep_qubit_dephasing_closed"],
)
def test_dephasing_rates_reject_bad_rate(rate, lam):
    # the same check and message as DephasingChannel, not a NaN, infinite or negative rate
    with pytest.raises(ValueError, match="dephasing rate must be finite and >= 0"):
        DephasingChannel(lam=lam, ops=OPS)
    with pytest.raises(ValueError, match="dephasing rate must be finite and >= 0"):
        rate(lam)


def test_vn_rate_dephasing_rejects_operators_of_another_spin():
    with pytest.raises(DimensionError):
        vn_rate_dephasing(np.eye(2, dtype=complex) / 2.0, 1.0, make_spin_operators(SpinJ(2)))


def _full_rank_state(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    rho = 0.8 * rho / np.trace(rho).real + 0.2 * np.eye(d) / d
    return 0.5 * (rho + rho.conj().T)


def test_vn_general_makes_one_eigendecomposition_per_state(monkeypatch):
    j = SpinJ(8)
    chan = BathParams.from_nbar(1.0, 0.37).channel(make_spin_operators(j))
    rho_eq = damping_stationary_state(j, 0.37)
    states = [_full_rank_state(j.dim, seed) for seed in range(10)]
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *args, _f=original, **kw: calls.append(1) or _f(a, *args, **kw))
    generator_calls = []
    original = entropy_production.apply_liouvillian
    monkeypatch.setattr(
        entropy_production, "apply_liouvillian", lambda *args: generator_calls.append(1) or original(*args)
    )
    for rho in states:
        ep_vn_general(rho, chan, rho_eq)
    # one per state plus at most one for the reference state (the parent made four per call)
    assert len(calls) <= 11
    # the generator matrix is built once, on the channel's first rate
    assert len(generator_calls) == 1


def test_channels_hold_read_only_operators():
    # a generator cached on a channel cannot go stale through the caller's arrays
    j = SpinJ(2)
    ops = make_spin_operators(j)
    ham = np.array(ops.jz)
    chan = DaviesChannel.with_beta(
        [DaviesPair(l_minus=np.array(ops.jminus), gamma_minus=0.8, gamma_plus=0.0, omega=1.0)], beta=0.5, hamiltonian=ham
    )
    rho = _full_rank_state(j.dim, 3)
    rho_eq = gibbs_state(ops.jz, 0.5)
    before = ep_vn_general(rho, chan, rho_eq)
    ham[...] = 0.0
    assert ep_vn_general(rho, chan, rho_eq) == before
    for array in (chan.hamiltonian, chan.pairs[0].l_minus, chan.pairs[0].l_plus, ops.jz):
        assert not array.flags.writeable


def _lindblad(rho, ham, jumps):
    """-i[H, rho] + sum of rate (L rho L^+ - {L^+ L, rho} / 2), written out independently of the library."""
    out = np.zeros_like(rho)
    if ham is not None:
        out = out - 1j * (ham @ rho - rho @ ham)
    for rate, l_op in jumps:
        ldl = l_op.conj().T @ l_op
        out = out + rate * (l_op @ rho @ l_op.conj().T - 0.5 * (ldl @ rho + rho @ ldl))
    return out


def _logm_rates(rho, ham, jumps, rho_eq):
    """(sigma, phi, dS/dt) from scipy's matrix logarithm."""
    gen = _lindblad(rho, ham, jumps)
    log_rho = scipy.linalg.logm(rho)
    log_eq = scipy.linalg.logm(rho_eq)
    return (
        -np.trace(gen @ (log_rho - log_eq)).real,
        np.trace(gen @ log_eq).real,
        -np.trace(gen @ log_rho).real,
    )


def _assert_rates(report, expected):
    got = (report.sigma_dot, report.phi_dot, report.ds_dt)
    scale = max(abs(v) for v in expected)
    for value, ref in zip(got, expected):
        assert abs(value - ref) <= 1e-12 * scale


@pytest.mark.parametrize("two_j", [1, 2, 4, 8])
def test_vn_rates_match_logm_oracle(two_j):
    j = SpinJ(two_j)
    ops = make_spin_operators(j)
    rho = _full_rank_state(j.dim, 100 + two_j)

    lam = 0.7
    expected = _logm_rates(rho, None, [(lam, ops.jz)], rho)[2]
    assert abs(vn_rate_dephasing(rho, lam, ops) - expected) <= 1e-12 * abs(expected)

    gamma, nbar = 1.3, 0.5
    jumps = [(gamma * (nbar + 1.0), ops.jminus), (gamma * nbar, ops.jplus)]
    rho_eq = damping_stationary_state(j, nbar)
    report = ep_vn_general(rho, AmplitudeDampingChannel(gamma=gamma, nbar=nbar, ops=ops), rho_eq)
    _assert_rates(report, _logm_rates(rho, None, jumps, rho_eq))

    gamma_bar = 0.9
    jumps = [(0.5 * gamma_bar, ops.jminus), (0.5 * gamma_bar, ops.jplus)]
    rho_eq = damping_stationary_state(j, math.inf)
    report = ep_vn_general(rho, AmplitudeDampingChannel.infinite_temperature(gamma_bar, ops), rho_eq)
    _assert_rates(report, _logm_rates(rho, None, jumps, rho_eq))

    omega, beta = 1.1, 0.6
    ham = omega * ops.jz
    pair = DaviesPair(l_minus=ops.jminus, gamma_minus=0.8, gamma_plus=0.0, omega=omega)
    chan = DaviesChannel.with_beta([pair], beta=beta, hamiltonian=ham)
    jumps = [(0.8, ops.jminus), (0.8 * math.exp(-beta * omega), ops.jplus)]
    rho_eq = gibbs_state(ham, beta)
    _assert_rates(ep_vn_general(rho, chan, rho_eq), _logm_rates(rho, ham, jumps, rho_eq))


def test_vn_general_reference_memo_follows_the_reference():
    j = SpinJ(4)
    ops = make_spin_operators(j)
    gamma, nbar = 1.0, 0.5
    chan = AmplitudeDampingChannel(gamma=gamma, nbar=nbar, ops=ops)
    jumps = [(gamma * (nbar + 1.0), ops.jminus), (gamma * nbar, ops.jplus)]
    rho = _full_rank_state(j.dim, 7)
    first = damping_stationary_state(j, nbar)
    second = _full_rank_state(j.dim, 8)
    _assert_rates(ep_vn_general(rho, chan, first), _logm_rates(rho, None, jumps, first))
    # another reference of the same shape gets its own logarithm
    _assert_rates(ep_vn_general(rho, chan, second), _logm_rates(rho, None, jumps, second))
    # a writable reference changed in place is a new reference
    mutable = first.copy()
    ep_vn_general(rho, chan, mutable)
    mutable[...] = second
    _assert_rates(ep_vn_general(rho, chan, mutable), _logm_rates(rho, None, jumps, second))
    # an invalid reference raises on every call, after a valid one was cached
    singular = np.diag([1.0, 0.0, 0.0, 0.0, 0.0]).astype(complex)
    for _ in range(2):
        with pytest.raises(SupportError):
            ep_vn_general(rho, chan, singular)
    _assert_rates(ep_vn_general(rho, chan, first), _logm_rates(rho, None, jumps, first))
