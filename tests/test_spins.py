import math

import numpy as np
import pytest

from spinphase import (
    BlochNormError,
    DimensionError,
    SpinJ,
    StateValidationError,
    SupportError,
    UnreachableCoherence,
    bloch_to_rho,
    check_density_matrix,
    l1_coherence,
    make_spin_operators,
    quantum_relative_entropy,
    random_state_with_coherence,
    relative_entropy_of_coherence,
    rho_to_bloch,
    von_neumann_entropy,
)
from spinphase.spins import EIG_FLOOR, PAULI_X, PAULI_Y, PAULI_Z, check_density_stack, density_eigh

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


def near_floor_state(dim: int, offset: float, seed: int) -> np.ndarray:
    """A state whose smallest eigenvalue is EIG_FLOOR + offset, in a random basis."""
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    lowest = EIG_FLOOR + offset
    vals = np.concatenate(([lowest], (1.0 - lowest) * rng.dirichlet(np.ones(dim - 1))))
    rho = (basis * vals) @ basis.conj().T
    return (rho + rho.conj().T) / 2.0


@pytest.mark.parametrize("dim", [2, 3, 5, 9])
def test_the_floor_verdict_is_eigvalsh_s_a_hair_either_side_of_the_floor(dim):
    above, below = (near_floor_state(dim, offset, seed=dim) for offset in (1e-12, -1e-12))
    # eigvalsh reads the two spectra on either side of the floor
    assert np.linalg.eigvalsh(above)[0] >= EIG_FLOOR > np.linalg.eigvalsh(below)[0]
    check_density_matrix(above)
    assert check_density_stack(np.stack([above, above])).shape == (2, dim, dim)
    with pytest.raises(StateValidationError, match=r"^negative eigenvalue -1\.010e-10 below floor -1e-10$"):
        check_density_matrix(below)
    with pytest.raises(StateValidationError, match=r"^state 2: negative eigenvalue -1\.010e-10 below floor -1e-10$"):
        check_density_stack(np.stack([above, above, below, above]))


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


def test_a_stack_of_bloch_vectors_gives_each_vector_s_state_bit_for_bit():
    rng = np.random.default_rng(3)
    taus = rng.normal(size=(40, 3))
    taus /= np.linalg.norm(taus, axis=1)[:, None] * rng.uniform(1.0, 1.5, size=(40, 1))
    # zeros of both signs, pure states, and a norm above 1 within the tolerance
    taus[:3] = [[0.0, -0.0, 0.0], [-0.0, 0.0, -1.0], [1.0 + 0.8e-12, 0.0, 0.0]]
    taus[3:8] /= np.linalg.norm(taus[3:8], axis=1)[:, None]
    stack = bloch_to_rho(taus)
    reference = np.array([0.5 * (np.eye(2, dtype=complex) + t[0] * PAULI_X + t[1] * PAULI_Y + t[2] * PAULI_Z) for t in taus])
    assert stack.shape == (40, 2, 2)
    assert stack.tobytes() == reference.tobytes() == np.array([bloch_to_rho(t) for t in taus]).tobytes()
    assert bloch_to_rho(np.empty((0, 3))).shape == (0, 2, 2)
    # the first bad vector is named, with the error it raises alone
    for bad in ([1.0, 0.5, 0.0], [1.0 + 2e-12, 0.0, 0.0], [0.0, math.nan, 0.0], [math.inf, 0.0, 0.0], [1e200, 0.0, 0.0]):
        stack = taus.copy()
        stack[[7, 9]] = bad, [2.0, 0.0, 0.0]
        with pytest.raises(BlochNormError) as own:
            bloch_to_rho(bad)
        with pytest.raises(BlochNormError) as stacked:
            bloch_to_rho(stack)
        assert str(stacked.value) == f"vector 7: {own.value}"
    with pytest.raises(DimensionError, match=r"expected an \(N, 3\) stack of Bloch vectors, got shape \(4, 2\)"):
        bloch_to_rho(np.zeros((4, 2)))


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


@pytest.mark.parametrize("dim", [3, 4, 9])
def test_array_targets_match_per_target_calls_bit_for_bit(dim):
    targets = np.linspace(0.0, 1.2, 51)
    rejected = 0
    for seed in range(3):
        stack = random_state_with_coherence(dim, targets, seed)
        assert stack.shape == (targets.size, dim, dim)
        for target, got in zip(targets, stack):
            expected = random_state_with_coherence(dim, float(target), seed)
            assert got.tobytes() == expected.tobytes(), (seed, target)
        # a state whose populations are not attempt 0's came after rejected draws
        first = np.random.default_rng(seed).dirichlet(np.ones(dim))
        rejected += sum(not np.array_equal(np.diag(rho).real, first) for rho in stack)
    assert rejected > 0


@pytest.mark.parametrize("dim", [3, 4, 9])
def test_array_targets_raise_the_per_call_error_for_an_unreachable_target(dim):
    with pytest.raises(UnreachableCoherence) as single:
        random_state_with_coherence(dim, 5.0, 1)
    with pytest.raises(UnreachableCoherence) as stacked:
        random_state_with_coherence(dim, np.append(np.linspace(0.0, 1.2, 51), 5.0), 1)
    assert str(stacked.value) == str(single.value)


def test_array_targets_are_checked_like_a_scalar():
    with pytest.raises(ValueError, match="got nan"):
        random_state_with_coherence(3, np.array([0.2, math.nan]), 1)
    with pytest.raises(DimensionError):
        random_state_with_coherence(3, np.zeros((2, 2)), 1)


def _assorted_states(dim, count, seed):
    """Random states of every rank from 1 (pure) to dim, in turn."""
    rng = np.random.default_rng(seed)
    states = []
    for k in range(count):
        a = rng.normal(size=(dim, 1 + k % dim)) + 1j * rng.normal(size=(dim, 1 + k % dim))
        rho = a @ a.conj().T
        states.append(0.5 * (rho + rho.conj().T) / np.trace(rho).real)
    return np.array(states)


@pytest.mark.parametrize("dim", [2, 3, 5, 9])
def test_entropy_and_coherence_of_a_stack_equal_the_per_state_values(dim):
    stack = _assorted_states(dim, 2 * dim, seed=dim)
    for f in (von_neumann_entropy, l1_coherence):
        loop = np.array([f(rho) for rho in stack])
        assert all(isinstance(f(rho), float) for rho in stack[:2])
        np.testing.assert_array_equal(f(stack), loop)
        np.testing.assert_array_equal(f(stack.reshape(2, dim, dim, dim)), loop.reshape(2, dim))
    pure = stack[0]
    assert np.linalg.matrix_rank(pure) == 1
    assert von_neumann_entropy(pure) == pytest.approx(0.0, abs=1e-12)
