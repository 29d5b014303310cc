"""Invariants of Husimi fields, their dissipators and the von Neumann rates over the advertised spin range."""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from spinphase import (
    AmplitudeDampingChannel,
    BathParams,
    DephasingChannel,
    SphereGrid,
    SpinJ,
    damping_stationary_state,
    dissipator_field,
    ep_vn_general,
    husimi_field,
    integrate,
    make_spin_operators,
    vn_rate_dephasing,
)

# 32 Gauss nodes integrate polynomials in cos(theta) to degree 63 and 32
# phis every |k| < 32, far above the band 2J <= 8 of every field below
GRID = SphereGrid(32, 32)


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
