import math

import numpy as np
import pytest

from spinphase import (
    BlochNormError,
    DimensionError,
    FreeEnergySplit,
    SpinJ,
    StateValidationError,
    SupportError,
    UnreachableCoherence,
    bloch_to_rho,
    check_density_matrix,
    figure_coherence_qubit,
    gibbs_state,
    l1_coherence,
    make_spin_operators,
    nonequilibrium_free_energy,
    quantum_relative_entropy,
    random_state_with_coherence,
    relative_entropy_of_coherence,
    rho_to_bloch,
    von_neumann_entropy,
)
from spinphase.spins import PAULI_X, PAULI_Y, PAULI_Z, density_eigh

LN2 = math.log(2.0)


def test_spin_j_validation():
    assert SpinJ(1).j == 0.5
    assert SpinJ(3).dim == 4
    with pytest.raises(TypeError):
        SpinJ(1.5)
    with pytest.raises(ValueError):
        SpinJ(0)


def test_m_values_run_from_plus_j_down():
    np.testing.assert_allclose(SpinJ(2).m_values, [1.0, 0.0, -1.0])
    np.testing.assert_allclose(SpinJ(1).m_values, [0.5, -0.5])


def test_qubit_operators_are_half_paulis():
    ops = make_spin_operators(SpinJ(1))
    np.testing.assert_allclose(ops.jz, np.diag([0.5, -0.5]), atol=1e-15)
    np.testing.assert_allclose(ops.jplus, [[0.0, 1.0], [0.0, 0.0]], atol=1e-15)
    np.testing.assert_allclose(ops.jminus, [[0.0, 0.0], [1.0, 0.0]], atol=1e-15)


def test_ladder_entries_spin_three_halves():
    # <m+1| j+ |m> = sqrt(j(j+1) - m(m+1)) with rows ordered m = J ... -J
    ops = make_spin_operators(SpinJ(3))
    jj = 1.5 * 2.5
    for row, m in ((0, 0.5), (1, -0.5), (2, -1.5)):
        assert ops.jplus[row, row + 1] == pytest.approx(math.sqrt(jj - m * (m + 1)), abs=1e-15)
    np.testing.assert_allclose(ops.jminus, ops.jplus.conj().T, atol=1e-15)


@pytest.mark.parametrize("two_j", range(1, 9))
def test_commutator_algebra(two_j):
    ops = make_spin_operators(SpinJ(two_j))
    jx = 0.5 * (ops.jplus + ops.jminus)
    jy = -0.5j * (ops.jplus - ops.jminus)
    assert np.abs(jx @ jy - jy @ jx - 1j * ops.jz).max() < 1e-12
    assert np.abs(ops.jz @ ops.jplus - ops.jplus @ ops.jz - ops.jplus).max() < 1e-12


def test_check_density_matrix_accepts_and_rejects():
    check_density_matrix(np.eye(2) / 2.0)
    with pytest.raises(DimensionError):
        check_density_matrix(np.ones((2, 3)))
    with pytest.raises(StateValidationError):
        check_density_matrix(np.array([[0.5, 0.3], [0.1, 0.5]]))
    with pytest.raises(StateValidationError):
        check_density_matrix(np.diag([0.9, 0.2]))
    with pytest.raises(StateValidationError):
        check_density_matrix(np.diag([1.2, -0.2]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(math.inf, math.inf), complex(0.0, -math.inf)])
@pytest.mark.parametrize("where", [(0, 0), (2, 2), (0, 1), (2, 0)])
def test_non_finite_entries_are_named_on_and_off_the_diagonal(bad, where):
    rho = np.eye(3, dtype=complex) / 3.0
    rho[where] = bad
    for check in (check_density_matrix, density_eigh):
        with pytest.raises(StateValidationError, match="non-finite entries"):
            check(rho)
    # a Hermitian pair of infinities cancels in rho - rho^+ to NaN, not to zero
    if where[0] != where[1]:
        rho[where[::-1]] = np.conj(bad)
        with pytest.raises(StateValidationError, match="non-finite entries"):
            check_density_matrix(rho)


def test_bloch_round_trip():
    tau = np.array([0.3, -0.4, 0.5])
    rho = bloch_to_rho(tau)
    np.testing.assert_allclose(rho_to_bloch(rho), tau, atol=1e-12)
    np.testing.assert_allclose(bloch_to_rho([0.0, 0.0, 0.0]), np.eye(2) / 2.0, atol=1e-15)
    np.testing.assert_allclose(bloch_to_rho([0.0, 0.0, 1.0]), np.diag([1.0, 0.0]), atol=1e-15)


def test_rho_to_bloch_on_a_stack_equals_the_pauli_traces():
    rng = np.random.default_rng(5)
    stack = rng.normal(size=(2, 3, 2, 2)) + 1j * rng.normal(size=(2, 3, 2, 2))
    traces = np.array(
        [[[np.trace(s @ m).real for s in (PAULI_X, PAULI_Y, PAULI_Z)] for m in row] for row in stack]
    )
    assert np.array_equal(rho_to_bloch(stack), traces)
    with pytest.raises(DimensionError):
        rho_to_bloch(np.zeros((4, 3, 3)))


def test_bloch_norm_guard():
    with pytest.raises(BlochNormError):
        bloch_to_rho([1.0, 0.5, 0.0])
    with pytest.raises(DimensionError):
        rho_to_bloch(np.eye(3) / 3.0)


def test_l1_coherence():
    assert l1_coherence(np.diag([0.3, 0.7])) == 0.0
    assert l1_coherence(bloch_to_rho([0.6, 0.0, 0.0])) == pytest.approx(0.6, abs=1e-14)
    rho = np.array(
        [
            [0.4, 0.1, 0.05],
            [0.1, 0.35, -0.02],
            [0.05, -0.02, 0.25],
        ]
    )
    assert l1_coherence(rho) == pytest.approx(2 * (0.1 + 0.05 + 0.02), abs=1e-14)


def test_figure_coherence_qubit():
    # 2 (tau_x^2 + tau_y^2): the squared transverse Bloch component, doubled
    assert figure_coherence_qubit([0.0, 0.0, 0.5]) == 0.0
    assert figure_coherence_qubit([0.6, 0.0, 0.0]) == pytest.approx(0.72, abs=1e-14)
    assert figure_coherence_qubit([0.3, 0.4, 0.2]) == pytest.approx(0.5, abs=1e-14)


def test_von_neumann_entropy_values():
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(np.eye(3) / 3.0) == pytest.approx(math.log(3.0), abs=1e-12)
    expected = -(0.8 * math.log(0.8) + 0.2 * math.log(0.2))
    assert von_neumann_entropy(bloch_to_rho([0.6, 0.0, 0.0])) == pytest.approx(expected, abs=1e-12)


def test_quantum_relative_entropy():
    rho = bloch_to_rho([0.2, 0.1, -0.3])
    assert quantum_relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    value = quantum_relative_entropy(np.eye(2) / 2.0, np.diag([0.75, 0.25]))
    expected = -LN2 - 0.5 * (math.log(0.75) + math.log(0.25))
    assert value == pytest.approx(expected, abs=1e-12)

    with pytest.raises(SupportError):
        quantum_relative_entropy(np.eye(2) / 2.0, np.diag([1.0, 0.0]))
    with pytest.raises(DimensionError):
        quantum_relative_entropy(np.eye(2) / 2.0, np.eye(3) / 3.0)


def test_quantum_relative_entropy_nonnegative():
    rng = np.random.default_rng(7)
    for _ in range(100):
        d = int(rng.integers(2, 4))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = a @ a.conj().T
        sigma = b @ b.conj().T
        rho /= np.trace(rho).real
        sigma /= np.trace(sigma).real
        assert quantum_relative_entropy(rho, sigma) >= -1e-10


def test_relative_entropy_of_coherence():
    assert relative_entropy_of_coherence(np.diag([0.3, 0.7])) == pytest.approx(0.0, abs=1e-12)
    plus = bloch_to_rho([1.0, 0.0, 0.0])
    assert relative_entropy_of_coherence(plus) == pytest.approx(LN2, abs=1e-12)

    tau = [0.6, 0.0, 0.3]
    rho = bloch_to_rho(tau)
    norm = math.sqrt(0.6**2 + 0.3**2)

    def h2(p):
        return -(p * math.log(p) + (1 - p) * math.log(1 - p))

    expected = h2((1 + 0.3) / 2) - h2((1 + norm) / 2)
    assert relative_entropy_of_coherence(rho) == pytest.approx(expected, abs=1e-12)


def test_gibbs_state():
    h = np.diag([1.0, 0.0, -1.0])
    np.testing.assert_allclose(gibbs_state(h, 0.0), np.eye(3) / 3.0, atol=1e-14)
    rho = gibbs_state(h, 1.0)
    z = math.exp(-1.0) + 1.0 + math.exp(1.0)
    np.testing.assert_allclose(np.diag(rho), [math.exp(-1.0) / z, 1.0 / z, math.exp(1.0) / z], atol=1e-14)
    with pytest.raises(ValueError):
        gibbs_state(h, -0.5)


def test_free_energy_split_identity():
    # total excess above the equilibrium free energy equals T times the relative entropy
    h = np.diag([0.5, -0.5])
    t_bath = 0.8
    rho_eq = gibbs_state(h, 1.0 / t_bath)
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        split = nonequilibrium_free_energy(rho, h, t_bath)
        assert isinstance(split, FreeEnergySplit)
        qre = quantum_relative_entropy(rho, rho_eq)
        assert split.total - split.f_eq == pytest.approx(t_bath * qre, abs=1e-10)
        assert split.classical_excess >= -1e-12
        assert split.quantum_excess >= -1e-12


def test_free_energy_split_diagonal_state_has_no_quantum_part():
    h = np.diag([0.5, -0.5])
    split = nonequilibrium_free_energy(np.diag([0.9, 0.1]), h, 1.0)
    assert split.quantum_excess == pytest.approx(0.0, abs=1e-12)
    assert split.classical_excess > 0.0


def test_equilibrium_free_energy_is_minus_t_log_z():
    h = np.diag([0.5, -0.5])
    t_bath = 0.7
    split = nonequilibrium_free_energy(gibbs_state(h, 1.0 / t_bath), h, t_bath)
    z = math.exp(-0.5 / t_bath) + math.exp(0.5 / t_bath)
    assert split.f_eq == pytest.approx(-t_bath * math.log(z), abs=1e-12)
    assert split.total == pytest.approx(split.f_eq, abs=1e-12)


def test_random_state_hits_coherence_target():
    for dim, target in ((2, 0.4), (3, 0.5), (4, 1.0)):
        rho = random_state_with_coherence(dim, target, seed=11)
        check_density_matrix(rho)
        assert l1_coherence(rho) == pytest.approx(target, abs=1e-6)


def test_random_state_zero_target_is_diagonal():
    rho = random_state_with_coherence(3, 0.0, seed=1)
    off = rho - np.diag(np.diag(rho))
    assert np.abs(off).max() < 1e-12


def test_random_state_deterministic_in_seed():
    a = random_state_with_coherence(3, 0.6, seed=5)
    b = random_state_with_coherence(3, 0.6, seed=5)
    c = random_state_with_coherence(3, 0.6, seed=6)
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - c).max() > 1e-6


def test_random_state_rejects_unreachable_target():
    with pytest.raises(UnreachableCoherence):
        random_state_with_coherence(2, 5.0, seed=0)


def _scalar_draw_state(dim, target_c, seed, max_attempts=200):
    """The entry-by-entry draw that random_state_with_coherence makes in one call per attempt."""
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        pops = rng.dirichlet(np.ones(dim))
        if target_c == 0.0:
            return np.diag(pops.astype(complex))
        direction = np.zeros((dim, dim), dtype=complex)
        for a in range(dim):
            for b in range(a + 1, dim):
                entry = rng.normal() if dim == 3 else rng.normal() + 1j * rng.normal()
                direction[a, b] = entry
                direction[b, a] = np.conj(entry)
        weight = l1_coherence(direction)
        if weight == 0.0:
            continue
        direction /= weight
        candidate = np.diag(pops) + target_c * direction
        if abs(l1_coherence(candidate) - target_c) > 1e-6:
            continue
        if float(np.min(np.linalg.eigvalsh(candidate))) < 1e-12:
            continue
        return candidate
    return None


def test_random_state_draws_match_the_scalar_loop_bit_for_bit():
    # the larger targets include states found only after rejected draws, and unreachable ones
    for dim in (2, 3, 4, 5, 9):
        for seed in range(6):
            for target in (0.0, 0.3, 0.9, 1.5, 3.0):
                expected = _scalar_draw_state(dim, target, seed, max_attempts=20)
                if expected is None:
                    with pytest.raises(UnreachableCoherence):
                        random_state_with_coherence(dim, target, seed, max_attempts=20)
                    continue
                got = random_state_with_coherence(dim, target, seed, max_attempts=20)
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), (dim, seed, target)
