import math
import warnings

import mpmath
import numpy as np
import pytest

import scipy.linalg

from spinphase import dynamics
from spinphase import (
    AmplitudeDampingChannel,
    BasisError,
    BathParams,
    DephasingChannel,
    BlochNormError,
    DimensionError,
    EpReport,
    PurityDivergence,
    QFloorWarning,
    SphereGrid,
    SpinJ,
    StateValidationError,
    SupportError,
    TemperatureDivergence,
    bloch_to_rho,
    check_density_matrix,
    coherent_amplitudes,
    damping_stationary_state,
    dissipator_field,
    ep_qubit_damping_closed,
    ep_qubit_dephasing_closed,
    ep_rate_damping_quad,
    ep_rate_dephasing_quad,
    ep_vn_general,
    ep_vn_qubit_damping,
    ep_vn_qubit_dephasing,
    husimi_field,
    make_spin_operators,
    random_state_with_coherence,
    vn_rate_dephasing,
    vn_rates,
    wehrl_entropy,
    wehrl_rate_dissipative,
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
    assert chan.bath is bath


def test_bath_has_one_value():
    # the damping channel carries the one BathParams it was built from and reads its rates there
    assert BathParams.from_nbar(0.0, 0.5).tau_bar_z == -1.0 / (2 * 0.5 + 1)
    baths = [BathParams.from_nbar(0.0, 0.5)] + [BathParams.from_tau_bar(1.0, t) for t in (-1.0, -0.9, -0.3, -0.1, 0.0)]
    for bath in baths:
        chan = bath.channel(OPS)
        assert chan.bath is bath
        assert AmplitudeDampingChannel(bath, OPS).bath is bath


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


CLOSED_FORMS = {
    "dephasing": lambda tau: ep_qubit_dephasing_closed(tau, 1.0),
    "vn_dephasing": lambda tau: ep_vn_qubit_dephasing(tau, 1.0),
    "damping": lambda tau: ep_qubit_damping_closed(tau, BathParams.from_nbar(1.0, 0.5)),
    "vn_damping": lambda tau: ep_vn_qubit_damping(tau, BathParams.from_nbar(1.0, 0.5)),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("form", sorted(CLOSED_FORMS))
def test_closed_forms_reject_non_finite_bloch_vectors(form, bad):
    # a NaN component has a NaN norm, which no norm bound rejects
    with pytest.raises(BlochNormError, match="non-finite"):
        CLOSED_FORMS[form]([bad, 0.0, 0.0])
    with pytest.raises(BlochNormError, match="non-finite"):
        CLOSED_FORMS[form]([0.0, 0.1, bad])


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
        chan = DephasingChannel(lam=1.0, ops=make_spin_operators(j))
        report = ep_rate_dephasing_quad(husimi_field(np.diag(pops.astype(complex)), grid), chan)
        assert abs(report.sigma_dot) < 1e-12
        assert report.phi_dot == 0.0


def test_quadrature_matches_closed_form_spot():
    grid = SphereGrid(96, 96)
    rng = np.random.default_rng(2)
    bath = BathParams.from_nbar(1.0, 0.5)
    dephasing, damping = DephasingChannel(lam=1.0, ops=OPS), bath.channel(OPS)
    for _ in range(10):
        tau = rng.uniform(-0.5, 0.5, size=3)
        field = husimi_field(bloch_to_rho(tau), grid)
        deph = ep_rate_dephasing_quad(field, dephasing)
        expected = ep_qubit_dephasing_closed(tau, 1.0)
        assert abs(deph.sigma_dot - expected) / max(expected, 1e-12) < 1e-6
        damp = ep_rate_damping_quad(field, damping)
        expected = ep_qubit_damping_closed(tau, bath)
        assert abs(damp.sigma_dot - expected) / max(expected, 1e-12) < 1e-6


def test_quadrature_report_balance():
    grid = SphereGrid(64, 64)
    bath = BathParams.from_nbar(1.0, 0.5)
    field = husimi_field(bloch_to_rho([0.4, 0.1, -0.2]), grid)
    report = ep_rate_damping_quad(field, bath.channel(OPS))
    assert isinstance(report, EpReport)
    assert report.ds_dt == pytest.approx(report.sigma_dot - report.phi_dot, abs=1e-9)


@pytest.mark.parametrize(
    "two_j, nbar, pure", [(1, 0.5, False), (2, 0.0, False), (8, math.inf, False), (8, 0.5, True)]
)
def test_sigma_only_damping_rate_is_the_full_reports_sigma(two_j, nbar, pure):
    # the one damping quadrature rate notes and warns of the Husimi floor exactly when Q underflows
    # (the pure |J, J>), and its dS/dt is sigma - phi_dot
    j = SpinJ(two_j)
    bath = BathParams.from_tau_bar(1.0, 0.0) if math.isinf(nbar) else BathParams.from_nbar(1.0, nbar)
    if pure:
        rho = np.zeros((j.dim, j.dim), dtype=complex)
        rho[0, 0] = 1.0
    else:
        rho = random_state_with_coherence(j.dim, 0.3, seed=4)
    chan = bath.channel(make_spin_operators(j))
    field = husimi_field(rho, SphereGrid(32, 32))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", QFloorWarning)
        report = ep_rate_damping_quad(field, chan)
    assert bool(report.warnings) == pure
    assert [str(w.message) for w in caught] == list(report.warnings)
    assert report.ds_dt == report.sigma_dot - report.phi_dot


def parent_integrand_rates(field, bath, lam):
    """Damping sigma, dephasing sigma and S_W by the full-grid integrands, and the excluded weight.

    The drift / numerator form of each rate on every node, the Husimi floor
    mask zeroing the nodes below 1e-14, and one sum against the outer
    product of the theta and phi weights: no theta row sums, no completed
    square, no shared quotient.
    """
    grid = field.grid
    weights_2d = np.outer(grid.theta_weights, np.full(grid.n_phi, 2.0 * np.pi / grid.n_phi))
    q = field.q
    mask = q >= 1e-14
    safe_q = np.where(mask, q, 1.0)
    pref = (field.j.two_j + 1) / (4.0 * np.pi)
    tb = bath.tau_bar_z
    cos_t = grid.cos_theta[:, None]
    sin_t = grid.sin_theta[:, None]
    relax = 1.0 + tb * cos_t
    drift = tb * field.j.two_j * sin_t * q + relax * field.dq_dtheta
    numerator = drift**2 / relax + field.dq_dphi**2 * ((cos_t + tb) * cos_t / sin_t**2)
    damping = 0.5 * bath.gamma_bar * pref * np.sum(np.where(mask, numerator / safe_q, 0.0) * weights_2d)
    dephasing = 0.5 * lam * pref * np.sum(np.where(mask, field.dq_dphi**2 / safe_q, 0.0) * weights_2d)
    wehrl = -pref * np.sum(np.where(mask, q * np.log(safe_q), 0.0) * weights_2d)
    return damping, dephasing, wehrl, float(np.sum(weights_2d[~mask]))


@pytest.mark.parametrize("n", [32, 128])
@pytest.mark.parametrize("two_j", [1, 2, 4, 8])
def test_rates_match_their_full_grid_integrands(two_j, n):
    # the row-sum forms against the node-by-node integrands, on full-rank states: measured <= 3.3e-16 relative
    j = SpinJ(two_j)
    ops = make_spin_operators(j)
    grid = SphereGrid(n, n)
    rng = np.random.default_rng(500 + two_j)
    lam = 0.7
    for nbar in (0.0, 0.5, math.inf):
        bath = BathParams.from_tau_bar(1.3, 0.0) if math.isinf(nbar) else BathParams.from_nbar(1.3, nbar)
        field = husimi_field(random_full_rank(rng, j.dim), grid)
        damping, dephasing, wehrl, excluded = parent_integrand_rates(field, bath, lam)
        assert excluded == 0.0
        assert ep_rate_damping_quad(field, bath.channel(ops)).sigma_dot == pytest.approx(damping, rel=1e-13, abs=0.0)
        sigma = ep_rate_dephasing_quad(field, DephasingChannel(lam=lam, ops=ops)).sigma_dot
        assert sigma == pytest.approx(dephasing, rel=1e-13, abs=0.0)
        assert wehrl_entropy(field) == pytest.approx(wehrl, rel=1e-13, abs=0.0)


def test_floored_rates_match_their_full_grid_integrands():
    # a pure spin-4 coherent state underflows near its antipode; the floored nodes leave every rate
    # integral, with the excluded weight of the full-grid mask (0.224 here): measured <= 2.7e-16 relative
    j = SpinJ(8)
    vec = coherent_amplitudes(j, 1.1).amplitudes * np.exp(0.7j * np.arange(j.dim))
    field = husimi_field(np.outer(vec, vec.conj()), SphereGrid(64, 64))
    ops = make_spin_operators(j)
    bath = BathParams.from_nbar(1.0, 0.5)
    damping, dephasing, wehrl, excluded = parent_integrand_rates(field, bath, 1.0)
    assert excluded > 0.0
    for rate, expected, context in (
        (lambda: ep_rate_damping_quad(field, bath.channel(ops)), damping, "damping rate"),
        (lambda: ep_rate_dephasing_quad(field, DephasingChannel(lam=1.0, ops=ops)), dephasing, "dephasing rate"),
    ):
        note = f"{context}: excluded weight {excluded:.3e} below Husimi floor"
        with pytest.warns(QFloorWarning) as caught:
            report = rate()
        assert [str(w.message) for w in caught] == [note]
        assert report.warnings == (note,)
        assert report.sigma_dot == pytest.approx(expected, rel=1e-13, abs=0.0)
    assert wehrl_entropy(field) == pytest.approx(wehrl, rel=1e-13, abs=0.0)


def random_full_rank(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def flux_oracle(two_j, bath, populations, populations_eq):
    """phi_dot = (gamma_bar/4)(2J+1) sum_m f_m (p_m - p_m^eq), each f_m integrated over cos(theta) in mpmath.

    f_m = integral over [-1, 1] of w(c) C(2J, r) ((1 + c)/2)^(2J - r) ((1 - c)/2)^r dc, r = J - m, with
    w = (2J t)^2 (1 - c^2) / (1 + t c) - 4J t c; Gauss-Legendre nodes stay off the endpoint c = 1,
    where the n_bar = 0 weight has its removable singularity.
    """
    n = two_j
    with mpmath.workdps(40):
        t = mpmath.mpf(bath.tau_bar_z)

        def f(r):
            def integrand(c):
                w = (n * t) ** 2 * (1 - c * c) / (1 + t * c) - 2 * n * t * c
                return w * mpmath.binomial(n, r) * ((1 + c) / 2) ** (n - r) * ((1 - c) / 2) ** r

            return mpmath.quad(integrand, [-1, 1], method="gauss-legendre")

        moves = (mpmath.mpf(p) - mpmath.mpf(q) for p, q in zip(populations, populations_eq))
        total = mpmath.fsum(f(r) * move for r, move in enumerate(moves))
        return float(mpmath.mpf(bath.gamma_bar) / 4 * (n + 1) * total)


@pytest.mark.parametrize("nbar", [0.0, 0.5, 3.0, math.inf])
@pytest.mark.parametrize("two_j", [1, 2, 4, 8])
def test_damping_flux_matches_the_mpmath_oracle(two_j, nbar):
    # measured <= 5.4e-14 relative over four draws; at n_bar = inf the weight vanishes and both read 0
    j = SpinJ(two_j)
    bath = BathParams.from_tau_bar(1.0, 0.0) if math.isinf(nbar) else BathParams.from_nbar(1.0, nbar)
    chan = bath.channel(make_spin_operators(j))
    rho = random_full_rank(np.random.default_rng(two_j), j.dim)
    p_eq = damping_stationary_state(j, nbar).diagonal().real
    expected = flux_oracle(two_j, bath, rho.diagonal().real, p_eq)
    for grid in (SphereGrid(32, 32), SphereGrid(128, 128)):
        phi = ep_rate_damping_quad(husimi_field(rho, grid), chan).phi_dot
        assert abs(phi - expected) <= 1e-12 * abs(expected)


def test_damping_flux_of_a_pure_qubit_is_grid_stable():
    # sigma carries the rim error of 1/Q here (1.9e-5 at 128^2); the flux, linear in Q, spreads by 5e-15
    bath = BathParams.from_nbar(1.0, 0.5)
    theta, phi = 1.1, 0.7
    tau = [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    rho = bloch_to_rho(tau)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QFloorWarning)
        grids = [SphereGrid(n, n) for n in (16, 32, 64, 128, 256)]
        fluxes = [ep_rate_damping_quad(husimi_field(rho, grid), bath.channel(OPS)).phi_dot for grid in grids]
    assert max(fluxes) - min(fluxes) <= 1e-14
    p_eq = damping_stationary_state(QUBIT, bath.nbar).diagonal().real
    expected = flux_oracle(1, bath, rho.diagonal().real, p_eq)
    assert abs(fluxes[0] - expected) <= 1e-13 * expected


@pytest.mark.parametrize("nbar", [0.0, 0.5, 3.0])
@pytest.mark.parametrize("two_j", [1, 2, 4, 8])
def test_damping_balance_against_the_dissipative_wehrl_rate(two_j, nbar):
    # sigma - phi_dot against dS/dt = -(2J+1)/(4 pi) integral of D(Q) ln Q, computed independently from
    # the D(Q) synthesis, relative to the largest of the three; measured <= 1.2e-14 over 20 seeds.
    # Off the rim only: the 1/Q and ln Q quadratures of sigma and dS/dt converge more slowly as Q nears 0
    # (an unmixed two_j = 2 draw with min Q 8.7e-3 balances to 1.1e-10 at 64x128), so each full-rank
    # draw is mixed 3:1 with the maximally mixed state, which keeps Q >= 1/(4d)
    j = SpinJ(two_j)
    bath = BathParams.from_nbar(1.0, nbar)
    channel = bath.channel(make_spin_operators(j))
    grid = SphereGrid(64, 128)
    rng = np.random.default_rng(100 + two_j)
    for _ in range(2):
        rho = 0.75 * random_full_rank(rng, j.dim) + 0.25 * np.eye(j.dim) / j.dim
        field = husimi_field(rho, grid)
        report = ep_rate_damping_quad(field, channel)
        ds_dt = wehrl_rate_dissipative(field, channel)
        scale = max(abs(report.sigma_dot), abs(report.phi_dot), abs(ds_dt))
        assert abs(report.sigma_dot - report.phi_dot - ds_dt) <= 1e-12 * scale


def test_quadrature_dephasing_flux_free():
    grid = SphereGrid(64, 64)
    field = husimi_field(bloch_to_rho([0.5, 0.0, 0.3]), grid)
    report = ep_rate_dephasing_quad(field, DephasingChannel(lam=1.0, ops=OPS))
    assert report.phi_dot == 0.0
    assert report.ds_dt == report.sigma_dot


def test_quadrature_damping_thermal_state_silent():
    grid = SphereGrid(64, 64)
    bath = BathParams.from_nbar(1.0, 0.5)
    field = husimi_field(bloch_to_rho([0.0, 0.0, bath.tau_bar_z]), grid)
    report = ep_rate_damping_quad(field, bath.channel(OPS))
    assert abs(report.sigma_dot) < 1e-9
    assert abs(report.phi_dot) < 1e-9


def test_quadrature_infinite_temperature_branch():
    grid = SphereGrid(96, 96)
    bath = BathParams.from_tau_bar(1.0, 0.0)
    tau = [0.5, 0.1, 0.2]
    field = husimi_field(bloch_to_rho(tau), grid)
    report = ep_rate_damping_quad(field, bath.channel(OPS))
    expected = ep_qubit_damping_closed(tau, bath)
    assert abs(report.sigma_dot - expected) / expected < 1e-6


def test_quadrature_dimension_guard():
    grid = SphereGrid(32, 32)
    field = husimi_field(np.eye(3, dtype=complex) / 3.0, grid)
    with pytest.raises(DimensionError):
        ep_rate_dephasing_quad(field, DephasingChannel(lam=1.0, ops=OPS))


def test_vn_general_matches_qubit_closed_forms():
    rng = np.random.default_rng(3)
    bath = BathParams.from_nbar(1.0, 0.5)
    chan = bath.channel(OPS)
    rho_eq = damping_stationary_state(QUBIT, 0.5)
    for _ in range(20):
        tau = rng.uniform(-0.5, 0.5, size=3)
        report = ep_vn_general(bloch_to_rho(tau), chan, rho_eq)
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
    chan = BathParams.from_nbar(1.0, 0.5).channel(ops3)
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
        lambda lam: ep_rate_dephasing_quad(_grid_field(), DephasingChannel(lam=lam, ops=OPS)),
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
    original = dynamics.apply_liouvillian
    monkeypatch.setattr(dynamics, "apply_liouvillian", lambda *args: generator_calls.append(1) or original(*args))
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
    chan = AmplitudeDampingChannel(BathParams.from_nbar(0.8, 1.0 / math.expm1(0.5)), ops, hamiltonian=ham)
    rho = _full_rank_state(j.dim, 3)
    rho_eq = damping_stationary_state(j, chan.bath.nbar)
    before = ep_vn_general(rho, chan, rho_eq)
    ham[...] = 0.0
    assert ep_vn_general(rho, chan, rho_eq) == before
    jumps = [jump for _, jump in chan.jumps]
    for array in (chan.hamiltonian, chan.stationary_populations, *jumps, ops.jz):
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
    report = ep_vn_general(rho, BathParams.from_nbar(gamma, nbar).channel(ops), rho_eq)
    _assert_rates(report, _logm_rates(rho, None, jumps, rho_eq))

    gamma_bar = 0.9
    jumps = [(0.5 * gamma_bar, ops.jminus), (0.5 * gamma_bar, ops.jplus)]
    rho_eq = damping_stationary_state(j, math.inf)
    report = ep_vn_general(rho, BathParams.from_tau_bar(gamma_bar, 0.0).channel(ops), rho_eq)
    _assert_rates(report, _logm_rates(rho, None, jumps, rho_eq))

    # the damping channel in Davies form: H = omega jz, with the bath at the occupation of inverse temperature beta
    omega, beta, loss = 1.1, 0.6, 0.8
    ham = omega * ops.jz
    nbar = 1.0 / math.expm1(beta * omega)
    chan = AmplitudeDampingChannel(BathParams.from_nbar(loss / (nbar + 1.0), nbar), ops, hamiltonian=ham)
    jumps = [(loss, ops.jminus), (loss * math.exp(-beta * omega), ops.jplus)]
    # the Gibbs populations exp(-beta omega m) / Z, written out apart from the channel's closed form
    gibbs = np.exp(-beta * omega * j.m_values)
    np.testing.assert_allclose(chan.stationary_populations, gibbs / gibbs.sum(), rtol=1e-12, atol=0.0)
    rho_eq = damping_stationary_state(j, nbar)
    _assert_rates(ep_vn_general(rho, chan, rho_eq), _logm_rates(rho, ham, jumps, rho_eq))


def test_vn_general_reference_memo_follows_the_reference():
    j = SpinJ(4)
    ops = make_spin_operators(j)
    gamma, nbar = 1.0, 0.5
    chan = BathParams.from_nbar(gamma, nbar).channel(ops)
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


@pytest.mark.parametrize("two_j", range(1, 9))
def test_hot_damping_approaches_the_infinite_temperature_rates(two_j):
    # one (gamma_bar, tau_bar_z) formula serves both ends: at gamma = gamma_bar / (2 nbar + 1)
    # the finite-nbar sigma, dS/dt and D(Q) differ from tau_bar_z = 0 by O(1/nbar)
    j = SpinJ(two_j)
    ops = make_spin_operators(j)
    field = husimi_field(random_state_with_coherence(j.dim, 0.3, 11), SphereGrid(32, 32))
    gamma_bar = 1.3
    limit = BathParams.from_tau_bar(gamma_bar, 0.0)
    cold = ep_rate_damping_quad(field, limit.channel(ops))
    d_limit = dissipator_field(field, limit.channel(ops))
    for nbar in (1e3, 1e6):
        hot_bath = BathParams.from_nbar(gamma_bar / (2.0 * nbar + 1.0), nbar)
        hot = ep_rate_damping_quad(field, hot_bath.channel(ops))
        d_hot = dissipator_field(field, hot_bath.channel(ops))
        assert abs(hot.sigma_dot - cold.sigma_dot) < 20.0 / nbar * abs(cold.sigma_dot)
        assert abs(hot.ds_dt - cold.ds_dt) < 20.0 / nbar * abs(cold.ds_dt)
        assert np.abs(d_hot - d_limit).max() < 20.0 / nbar * np.abs(d_limit).max()


def _channels(ops):
    """(channel, per-state rates of rho) of dephasing and of damping at nbar 0.5 and infinity, from the per-state path."""
    j = ops.j
    lam = 0.7
    out = [(DephasingChannel(lam=lam, ops=ops), lambda rho: (None, None, vn_rate_dephasing(rho, lam, ops)))]
    for bath, nbar in ((BathParams.from_nbar(1.3, 0.5), 0.5), (BathParams.from_tau_bar(0.9, 0.0), math.inf)):
        chan = bath.channel(ops)
        rho_eq = damping_stationary_state(j, nbar)
        out.append((chan, lambda rho, chan=chan, rho_eq=rho_eq: _report_rates(ep_vn_general(rho, chan, rho_eq))))
    return out


def _report_rates(report):
    return report.sigma_dot, report.phi_dot, report.ds_dt


@pytest.mark.parametrize("two_j", range(1, 9))
def test_vn_rates_match_the_per_state_path(two_j):
    ops = make_spin_operators(SpinJ(two_j))
    states = np.stack([_full_rank_state(ops.j.dim, 200 + k) for k in range(5)])
    for chan, per_state in _channels(ops):
        stacked = vn_rates(states, chan)
        assert all(rate.shape == (5,) and rate.dtype == float for rate in stacked)
        for k, rho in enumerate(states):
            expected = per_state(rho)
            scale = max(abs(v) for v in expected if v is not None)
            for value, ref in zip((rate[k] for rate in stacked), expected):
                if ref is not None:
                    assert abs(value - ref) <= 1e-13 * scale


def _mp_log_eq(two_j, nbar):
    """ln p_m of the ladder damping's stationary state, m = J ... -J, in mpmath."""
    x = mpmath.mpf(nbar) / (mpmath.mpf(nbar) + 1)
    weights = [x ** (two_j - r) for r in range(two_j + 1)]
    log_z = mpmath.log(mpmath.fsum(weights))
    return [mpmath.log(w) - log_z for w in weights]


def _mp_damping_generator(rho, two_j, loss, gain):
    """L[rho] of ladder damping in mpmath: rate loss through J-, rate gain through J+."""
    d = two_j + 1
    jplus = mpmath.zeros(d, d)
    for r in range(d - 1):
        m = mpmath.mpf(two_j) / 2 - (r + 1)
        jplus[r, r + 1] = mpmath.sqrt(mpmath.mpf(two_j) / 2 * (mpmath.mpf(two_j) / 2 + 1) - m * (m + 1))
    jminus = jplus.T
    out = mpmath.zeros(d, d)
    for rate, l_op in ((loss, jminus), (gain, jplus)):
        ldl = l_op.T * l_op
        out += rate * (l_op * rho * l_op.T - (ldl * rho + rho * ldl) / 2)
    return out


@pytest.mark.parametrize("two_j", range(1, 9))
def test_vn_rates_at_low_temperature_match_an_mpmath_logm_oracle(two_j):
    # the reference state's smallest population reaches x^(2J), about 1e-24 at two_j 8 and nbar 1e-3: its
    # logarithm is read from the channel in closed form, not from a decomposition of rho_eq
    ops = make_spin_operators(SpinJ(two_j))
    rho = random_state_with_coherence(two_j + 1, 0.25, seed=7)
    with mpmath.workdps(40):
        rho_mp = mpmath.matrix(rho.tolist())
        log_rho = mpmath.logm(rho_mp)
        for nbar in (1e-3, 1e-2, 0.03):
            gen = _mp_damping_generator(rho_mp, two_j, mpmath.mpf(nbar) + 1, mpmath.mpf(nbar))
            log_eq = _mp_log_eq(two_j, nbar)
            ds_dt = -mpmath.re(sum(gen[a, b] * log_rho[b, a] for a in range(two_j + 1) for b in range(two_j + 1)))
            flux = mpmath.re(mpmath.fsum(gen[a, a] * log_eq[a] for a in range(two_j + 1)))
            expected = [float(ds_dt + flux), float(flux), float(ds_dt)]
            got = vn_rates(rho[None], BathParams.from_nbar(1.0, nbar).channel(ops))
            for value, ref in zip(got, expected):
                assert abs(value[0] - ref) <= 1e-12 * abs(expected[0])


QUBIT_BATHS = [("nbar", nbar) for nbar in (1e-13, 1e-10, 1e-6, 1e-3, 0.5)] + [
    ("tau_bar_z", tau_bar_z) for tau_bar_z in (0.0, -0.999999, -1.0 + 1e-13)
]


@pytest.mark.parametrize("given, value", QUBIT_BATHS)
def test_vn_qubit_damping_closed_form_matches_an_mpmath_logm_oracle(given, value):
    # atanh(tau_bar_z) = ln(nbar / (nbar + 1)) / 2 near tau_bar_z = -1 needs the digits of whichever of the two the
    # bath was given: atanh of the tau_bar_z rounded from nbar 1e-10 is off by 3.7e-9 relative on this state
    tau = [0.3, 0.2, -0.4]
    rho = bloch_to_rho(tau)
    with mpmath.workdps(50):
        if given == "nbar":
            bath, g_bar = BathParams.from_nbar(1.0, value), 2 * mpmath.mpf(value) + 1
            t = -1 / g_bar
        else:
            bath, t, g_bar = BathParams.from_tau_bar(1.0, value), mpmath.mpf(value), mpmath.mpf(1)
        rho_mp = mpmath.matrix(rho.tolist())
        log_rho = mpmath.logm(rho_mp)
        # the stationary populations are (1 + t) / 2 up and (1 - t) / 2 down, and the loss and gain rates
        # g_bar (1 -+ t) / 2 balance them
        gen = _mp_damping_generator(rho_mp, 1, g_bar * (1 - t) / 2, g_bar * (1 + t) / 2)
        log_eq = [mpmath.log((1 + t) / 2), mpmath.log((1 - t) / 2)]
        sigma = -mpmath.re(mpmath.fsum(gen[a, b] * (log_rho[b, a] - (log_eq[a] if a == b else 0))
                                       for a in range(2) for b in range(2)))
        expected = float(sigma)
    assert abs(ep_vn_qubit_damping(tau, bath) - expected) <= 1e-13 * expected


def test_vn_rates_low_temperature_reference_values():
    # sigma_vN of one seeded two_j 8 state under damping with gamma 1 at nbar 0.03, 0.01 and 0.001
    ops = make_spin_operators(SpinJ(8))
    rho = random_state_with_coherence(9, 0.25, seed=7)
    for nbar, expected in ((0.03, 73.377839310068871), (0.01, 88.789982605892284), (0.001, 122.69733271626576)):
        sigma = vn_rates(rho[None], BathParams.from_nbar(1.0, nbar).channel(ops))[0][0]
        assert sigma == pytest.approx(expected, rel=1e-14)


# at two_j 2 and 6 the mixed state's rate is a roundoff 1e-32, not zero
@pytest.mark.parametrize("two_j", [1, 4, 8])
def test_a_zero_von_neumann_rate_is_positive_zero(two_j):
    ops = make_spin_operators(SpinJ(two_j))
    d = two_j + 1
    populations = np.arange(1.0, d + 1.0)
    diagonal = np.diag(populations / populations.sum()).astype(complex)
    mixed = np.eye(d, dtype=complex) / d
    for state, chan in (
        (diagonal, DephasingChannel(lam=1.0, ops=ops)),
        (mixed, BathParams.from_tau_bar(1.0, 0.0).channel(ops)),
    ):
        sigma = vn_rates(state[None], chan)[0][0]
        assert sigma == 0.0 and math.copysign(1.0, sigma) == 1.0


def test_vn_rates_give_nan_at_a_rank_deficient_state_only():
    ops = make_spin_operators(SpinJ(2))
    pure = np.diag([0.0, 1.0, 0.0]).astype(complex)
    states = np.stack([_full_rank_state(3, 1), pure, _full_rank_state(3, 2)])
    for chan, per_state in _channels(ops):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rates = vn_rates(states, chan)
        for rate in rates:
            assert math.isnan(rate[1]) and np.isfinite(rate[[0, 2]]).all()
        assert rates[2][0] == pytest.approx(per_state(states[0])[2], rel=1e-13)


def test_vn_rates_name_the_first_bad_state():
    chan = BathParams.from_nbar(1.0, 0.5).channel(make_spin_operators(SpinJ(2)))
    good = _full_rank_state(3, 1)
    skew, negative, unnormalized = good.copy(), np.diag([1.2, 0.0, -0.2]).astype(complex), 2.0 * good
    skew[0, 1] += 1e-6
    # (stack, index of its first bad state, the start of that state's own error)
    cases = (
        ([good, skew, negative], 1, "matrix not Hermitian: max |rho - rho^+| = 1.000e-06"),
        ([good, good, negative, skew], 2, "negative eigenvalue -2.000e-01 below floor -1e-10"),
        ([unnormalized, skew], 0, "trace must be 1"),
        ([good, np.full((3, 3), np.nan)], 1, "density matrix has non-finite entries"),
    )
    for states, first, start in cases:
        with pytest.raises(StateValidationError, match=r"^state \d+: ") as stacked:
            vn_rates(np.stack(states), chan)
        with pytest.raises(StateValidationError) as own:
            check_density_matrix(states[first])
        assert str(own.value).startswith(start)
        assert str(stacked.value) == f"state {first}: {own.value}"
    with pytest.raises(DimensionError):
        vn_rates(good, chan)
    with pytest.raises(DimensionError):
        vn_rates(np.eye(2, dtype=complex)[None] / 2.0, chan)


def test_vn_rates_diverge_at_zero_temperature_and_need_a_diagonal_hamiltonian():
    ops = make_spin_operators(SpinJ(2))
    states = _full_rank_state(3, 4)[None]
    with pytest.raises(TemperatureDivergence):
        vn_rates(states, BathParams.from_nbar(1.0, 0.0).channel(ops))
    bath = BathParams.from_nbar(1.0, 0.5)
    # a non-uniform reference is stationary only under a diagonal Hamiltonian, at zero temperature too
    for nbar in (0.5, 0.0):
        chan = AmplitudeDampingChannel(BathParams.from_nbar(1.0, nbar), ops, hamiltonian=np.array(ops.jx))
        with pytest.raises(BasisError):
            vn_rates(states, chan)
    # a diagonal Hamiltonian keeps the thermal state stationary, so it is the reference; and I/d is a fixed point
    # of the infinite-temperature bath under any Hamiltonian
    hot = BathParams.from_tau_bar(1.0, 0.0)
    for chan, rho_eq in (
        (AmplitudeDampingChannel(bath, ops, hamiltonian=1.1 * np.array(ops.jz)), damping_stationary_state(ops.j, 0.5)),
        (AmplitudeDampingChannel(hot, ops, hamiltonian=np.array(ops.jx)), np.eye(3, dtype=complex) / 3.0),
    ):
        expected = ep_vn_general(states[0], chan, rho_eq)
        got = vn_rates(states, chan)
        for value, ref in zip(got, _report_rates(expected)):
            assert abs(value[0] - ref) <= 1e-13 * abs(expected.sigma_dot)


@pytest.mark.parametrize("two_j", [1, 4, 8])
def test_stationary_log_populations_are_the_logarithms_of_the_populations(two_j):
    j = SpinJ(two_j)
    ops = make_spin_operators(j)
    for nbar in (1e-3, 0.5, 1e8):
        chan = BathParams.from_nbar(1.0, nbar).channel(ops)
        assert not chan.stationary_log_populations.flags.writeable
        np.testing.assert_allclose(np.exp(chan.stationary_log_populations), chan.stationary_populations, rtol=1e-13)
        expected = [float(v) for v in _mp_log_eq(two_j, nbar)]
        np.testing.assert_allclose(chan.stationary_log_populations, expected, rtol=1e-14, atol=1e-15)
    np.testing.assert_array_equal(DephasingChannel(lam=1.0, ops=ops).stationary_log_populations, -math.log(j.dim))
    zero = BathParams.from_nbar(1.0, 0.0).channel(ops).stationary_log_populations
    assert zero[-1] == 0.0 and np.isneginf(zero[:-1]).all()


STACK_CHANNELS = (
    ("dephasing", lambda ops: DephasingChannel(lam=0.7, ops=ops), ep_rate_dephasing_quad),
    ("nbar 0.5", lambda ops: BathParams.from_nbar(1.0, 0.5).channel(ops), ep_rate_damping_quad),
    ("nbar 0", lambda ops: BathParams.from_nbar(1.0, 0.0).channel(ops), ep_rate_damping_quad),
    ("nbar inf", lambda ops: BathParams.from_tau_bar(1.0, 0.0).channel(ops), ep_rate_damping_quad),
    ("tau_bar -0.4", lambda ops: BathParams.from_tau_bar(1.0, -0.4).channel(ops), ep_rate_damping_quad),
)


def rim_stack(j, rng):
    """Full-rank states between the rim states: the pure |J, J>, a pure coherent state off the poles, a near-pure mixture."""
    top = np.zeros((j.dim, j.dim), dtype=complex)
    top[0, 0] = 1.0
    vec = coherent_amplitudes(j, 1.1).amplitudes * np.exp(0.7j * np.arange(j.dim))
    coherent = np.outer(vec, vec.conj())
    near = 0.999 * coherent + 0.001 * np.eye(j.dim) / j.dim
    return np.stack([random_full_rank(rng, j.dim), top, coherent, random_full_rank(rng, j.dim), near])


def recorded(rate):
    """(result of rate(), the QFloorWarning texts it raised)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", QFloorWarning)
        result = rate()
    return result, [str(w.message) for w in caught]


@pytest.mark.parametrize("n", [32, 128])
@pytest.mark.parametrize("two_j", range(1, 9))
def test_a_stacked_field_gives_each_state_its_own_rates_and_notes(two_j, n):
    # a stack of states is the N-state case of the one-state code: each state's sigma, phi_dot and S_Q, and its
    # floor notes, are those of the state alone (the flux bit for bit), whatever else the stack holds
    j = SpinJ(two_j)
    ops = make_spin_operators(j)
    grid = SphereGrid(n, n)
    states = rim_stack(j, np.random.default_rng(900 + two_j))
    field = husimi_field(states, grid)
    alone = [husimi_field(rho, grid) for rho in states]
    assert field.q.shape == (len(states), n, n) and field.rho.shape == states.shape
    for stacked, one in zip(wehrl_entropy(field), alone):
        assert abs(stacked - wehrl_entropy(one)) <= 1e-15 * abs(wehrl_entropy(one))
    noted = 0
    for _, make, rate in STACK_CHANNELS:
        channel = make(ops)
        report, raised = recorded(lambda: rate(field, channel))
        reports, raised_alone = zip(*(recorded(lambda one=one: rate(one, channel)) for one in alone))
        assert report.sigma_dot.shape == report.phi_dot.shape == (len(states),)
        assert len(report.warnings) == len(states)
        for i, one in enumerate(reports):
            assert isinstance(one.sigma_dot, float) and isinstance(one.phi_dot, float)
            assert abs(report.sigma_dot[i] - one.sigma_dot) <= 1e-15 * abs(one.sigma_dot)
            assert report.phi_dot[i] == one.phi_dot
            assert report.warnings[i] == one.warnings
        assert raised == [text for texts in raised_alone for text in texts]
        noted += sum(map(bool, report.warnings))
    # the pure states underflow the Husimi floor near their zeros from two_j 5 on at 32^2, and from 4 on at 128^2
    assert (noted > 0) == (two_j >= (5 if n == 32 else 4))


def test_a_bad_state_of_a_stacked_field_is_named():
    grid = SphereGrid(16, 16)
    good = random_full_rank(np.random.default_rng(5), 3)
    negative = np.diag([1.2, 0.0, -0.2]).astype(complex)
    with pytest.raises(StateValidationError, match=r"^state 2: negative eigenvalue -2\.000e-01 below floor"):
        husimi_field(np.stack([good, good, negative, good]), grid)
    # one state's error reads as check_density_matrix's, with no index
    with pytest.raises(StateValidationError, match=r"^negative eigenvalue -2\.000e-01 below floor"):
        husimi_field(negative, grid)
    with pytest.raises(DimensionError):
        husimi_field(np.ones((2, 3), dtype=complex), grid)
