"""Invariants of Husimi fields, their dissipators and the von Neumann rates over the advertised spin range."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinphase import (
    AmplitudeDampingChannel,
    BathParams,
    DephasingChannel,
    QFloorWarning,
    SphereGrid,
    SpinJ,
    coherent_amplitudes,
    damping_stationary_state,
    dissipator_field,
    ep_rate_damping_quad,
    ep_rate_dephasing_quad,
    ep_vn_general,
    husimi_field,
    integrate,
    make_spin_operators,
    sigma_damping_quad,
    vn_rate_dephasing,
    wehrl_entropy,
)

# 32 Gauss nodes integrate polynomials in cos(theta) to degree 63 and 32
# phis every |k| < 32, far above the band 2J <= 8 of every field below
GRID = SphereGrid(32, 32)
# the Wehrl integrand Q ln Q and the rim are not band limited, so those checks use a finer grid
FINE = SphereGrid(64, 64)


@given(
    two_j=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(1, 9),
    lam=st.floats(0.05, 3.0),
    gamma=st.floats(0.05, 3.0),
    nbar=st.floats(0.0, 3.0),
)
def test_husimi_field_is_a_normalized_density_that_dissipators_conserve(two_j, seed, rank, lam, gamma, nbar):
    d = two_j + 1
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, min(rank, d))) + 1j * rng.normal(size=(d, min(rank, d)))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    field = husimi_field(rho, GRID)
    assert field.q.min() >= -1e-14
    assert abs((two_j + 1) / (4.0 * math.pi) * integrate(GRID, field.q) - 1.0) < 1e-10
    ops = make_spin_operators(field.j)
    for chan in (DephasingChannel(lam=lam, ops=ops), AmplitudeDampingChannel(gamma=gamma, nbar=nbar, ops=ops)):
        assert abs(integrate(GRID, dissipator_field(field, chan))) < 1e-10


@given(
    two_j=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    mixing=st.floats(1e-3, 1.0),
    gamma=st.floats(0.05, 3.0),
    nbar=st.one_of(st.floats(0.05, 3.0), st.just(math.inf)),
    lam=st.floats(0.05, 3.0),
)
def test_von_neumann_rates_obey_spohn_and_balance(two_j, seed, mixing, gamma, nbar, lam):
    # Spohn (1978): relative entropy to a stationary state never grows, so sigma >= 0
    j = SpinJ(two_j)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(j.dim, j.dim)) + 1j * rng.normal(size=(j.dim, j.dim))
    rho = a @ a.conj().T
    rho = (1.0 - mixing) * rho / np.trace(rho).real + mixing * np.eye(j.dim) / j.dim
    rho = 0.5 * (rho + rho.conj().T)
    ops = make_spin_operators(j)
    bath = BathParams.from_tau_bar(gamma, 0.0) if math.isinf(nbar) else BathParams.from_nbar(gamma, nbar)
    report = ep_vn_general(rho, bath.channel(ops), damping_stationary_state(j, nbar))
    assert report.sigma_dot >= -1e-12
    assert abs(report.sigma_dot - (report.phi_dot + report.ds_dt)) < 1e-10
    assert vn_rate_dephasing(rho, lam, ops) >= -1e-12


@given(
    two_j=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(1, 9),
    lam=st.floats(0.05, 3.0),
    gamma=st.floats(0.05, 3.0),
    nbar=st.one_of(st.floats(0.0, 3.0), st.just(math.inf)),
)
def test_quadrature_production_rates_are_nonnegative(two_j, seed, rank, lam, gamma, nbar):
    # the damping integrand is negative where 0 < cos(theta) < -tau_bar_z; only its integral is bounded
    j = SpinJ(two_j)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(j.dim, min(rank, j.dim))) + 1j * rng.normal(size=(j.dim, min(rank, j.dim)))
    rho = a @ a.conj().T
    field = husimi_field(rho / np.trace(rho).real, GRID)
    bath = BathParams.from_tau_bar(gamma, 0.0) if math.isinf(nbar) else BathParams.from_nbar(gamma, nbar)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QFloorWarning)
        assert ep_rate_dephasing_quad(field, lam, j).sigma_dot >= -1e-12
        assert sigma_damping_quad(field, bath, j).sigma_dot >= -1e-12


def bath_at(gamma, nbar):
    return BathParams.from_tau_bar(gamma, 0.0) if math.isinf(nbar) else BathParams.from_nbar(gamma, nbar)


@pytest.mark.parametrize("nbar", [0.0, 0.5, 3.0, math.inf])
@pytest.mark.parametrize("two_j", range(1, 9))
def test_rates_vanish_on_the_damping_stationary_state(two_j, nbar):
    # measured at 64^2 over these cases: quadrature sigma <= 2.7e-31, dS/dt <= 1.5e-15, von Neumann rates <= 5.8e-15
    j = SpinJ(two_j)
    bath = bath_at(1.0, nbar)
    steady = damping_stationary_state(j, nbar)
    with warnings.catch_warnings():
        # the n_bar = 0 state is |J, -J>, whose Husimi field vanishes at the north pole
        warnings.simplefilter("ignore", QFloorWarning)
        quad = ep_rate_damping_quad(husimi_field(steady, FINE), bath, j)
    assert abs(quad.sigma_dot) <= 1e-29
    assert abs(quad.ds_dt) <= 1e-14
    if nbar > 0.0:
        # the von Neumann route needs a full-rank state; at n_bar = 0 the stationary state is pure
        vn = ep_vn_general(steady, bath.channel(make_spin_operators(j)), steady)
        assert max(abs(vn.sigma_dot), abs(vn.phi_dot), abs(vn.ds_dt)) <= 1e-13


@given(
    two_j=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    theta=st.floats(0.0, math.pi),
    phi=st.floats(0.0, 2.0 * math.pi),
    mixing=st.floats(1e-3, 1.0),
)
def test_wehrl_entropy_of_a_full_rank_state_exceeds_the_lieb_solovej_bound(two_j, seed, theta, phi, mixing):
    # S_W >= 2J / (2J + 1), with equality only on coherent states (Lieb and Solovej, Acta Math. 212 (2014));
    # mixing a coherent state with weight m of a full-rank state raises S_W by more than 0.03 m, far above
    # the 64^2 quadrature error (<= 1.6e-7, at two_j = 1)
    j = SpinJ(two_j)
    rng = np.random.default_rng(seed)
    coherent = coherent_amplitudes(j, theta).amplitudes * np.exp(1j * phi * np.arange(j.dim))
    a = rng.normal(size=(j.dim, j.dim)) + 1j * rng.normal(size=(j.dim, j.dim))
    noise = a @ a.conj().T
    rho = (1.0 - mixing) * np.outer(coherent, coherent.conj()) + mixing * noise / np.trace(noise).real
    assert wehrl_entropy(husimi_field(rho, FINE)) > two_j / (two_j + 1.0)


# |S_W - 2J/(2J+1)| measured at 64^2 on |J, +-J>: 2.9e-8 at two_j = 1 and 2.8e-11 at two_j = 2 (the Husimi
# zero at the opposite pole, ROADMAP item 3), 3.7e-14 at two_j = 3 and <= 5.0e-15 above
POLE_WEHRL_TOL = {1: 5e-8, 2: 5e-11, 3: 1e-13}


@pytest.mark.parametrize("top", [True, False])
@pytest.mark.parametrize("two_j", range(1, 9))
def test_wehrl_entropy_of_a_pole_state_meets_the_lieb_solovej_bound(two_j, top):
    rho = np.zeros((two_j + 1, two_j + 1), dtype=complex)
    rho[(0, 0) if top else (two_j, two_j)] = 1.0
    s_w = wehrl_entropy(husimi_field(rho, FINE))
    assert abs(s_w - two_j / (two_j + 1.0)) <= POLE_WEHRL_TOL.get(two_j, 1e-14)
