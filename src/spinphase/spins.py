"""Spin-J algebra, qubit Bloch maps, and entropic functionals of states.

Conventions: hbar = k_B = 1, natural logarithms throughout.  Basis states
are ordered by decreasing magnetic quantum number, so index 0 is the top
rung m = +J of the ladder (for a qubit, the upper level).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BlochNormError,
    DimensionError,
    StateValidationError,
    SupportError,
    UnreachableCoherence,
)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIG_FLOOR = -1e-10
SUPPORT_TOL = 1e-10

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class SpinJ:
    """Spin magnitude stored as the integer 2J, so half-integers stay exact."""

    two_j: int

    def __post_init__(self):
        if not isinstance(self.two_j, (int, np.integer)):
            raise TypeError(f"two_j must be an integer, got {type(self.two_j).__name__}")
        if self.two_j < 1:
            raise ValueError(f"two_j must be >= 1, got {self.two_j}")

    @property
    def j(self) -> float:
        return self.two_j / 2.0

    @property
    def dim(self) -> int:
        return self.two_j + 1

    @property
    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers J, J-1, ..., -J matching the basis order."""
        return self.j - np.arange(self.dim)


def read_only(a):
    """A read-only copy of an array (None passes through), for operators that objects share or cache on."""
    if a is None:
        return None
    a = np.array(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class SpinOperators:
    """Matrix representations of the spin algebra for a fixed J, held as read-only copies."""

    j: SpinJ
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray
    jplus: np.ndarray
    jminus: np.ndarray

    def __post_init__(self):
        for name in ("jx", "jy", "jz", "jplus", "jminus"):
            object.__setattr__(self, name, read_only(getattr(self, name)))


@functools.lru_cache(maxsize=32)
def make_spin_operators(j: SpinJ) -> SpinOperators:
    """Build jx, jy, jz and the ladder pair for spin j.

    jz is diagonal with entries J, J-1, ..., -J; the ladder matrix elements
    are <m+1|J+|m> = sqrt(J(J+1) - m(m+1)).  Built once per spin and shared,
    so every array is read-only.
    """
    d = j.dim
    m = j.m_values
    jz = np.diag(m.astype(complex))
    jplus = np.zeros((d, d), dtype=complex)
    for r in range(d - 1):
        # raises the level below row r (m value m[r+1]) up to row r
        jplus[r, r + 1] = math.sqrt(j.j * (j.j + 1) - m[r + 1] * (m[r + 1] + 1))
    jminus = jplus.conj().T
    jx = (jplus + jminus) / 2.0
    jy = (jplus - jminus) / 2.0j
    return SpinOperators(j=j, jx=jx, jy=jy, jz=jz, jplus=jplus, jminus=jminus)


def _validated(rho, with_vectors: bool) -> tuple:
    """The one body of state checks: (rho, eigenvalues, eigenvectors or None) from one decomposition."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionError(f"density matrix must be square, got shape {rho.shape}")
    # a non-finite entry makes this NaN or inf, so only the failure path looks for one
    with np.errstate(invalid="ignore", over="ignore"):
        herm = np.abs(rho - rho.conj().T).max()
    if not herm <= HERMITICITY_TOL:
        if not np.isfinite(rho).all():
            raise StateValidationError("density matrix has non-finite entries")
        raise StateValidationError(f"matrix not Hermitian: max |rho - rho^+| = {herm:.3e}")
    tr = rho.trace()
    if abs(tr - 1.0) > TRACE_TOL:
        raise StateValidationError(f"trace must be 1, got {tr:.15g}")
    if with_vectors:
        vals, vecs = np.linalg.eigh(rho)
    else:
        vals, vecs = np.linalg.eigvalsh(rho), None
    # LAPACK returns the eigenvalues in ascending order
    lo = float(vals[0])
    if lo < EIG_FLOOR:
        raise StateValidationError(f"negative eigenvalue {lo:.3e} below floor {EIG_FLOOR}")
    return rho, vals, vecs


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate a density matrix and return it as a complex array.

    Enforces finite entries, hermiticity and unit trace to 1e-12 and
    eigenvalues above the -1e-10 floor; raises StateValidationError
    otherwise.
    """
    return _validated(rho, with_vectors=False)[0]


def density_eigh(rho: np.ndarray) -> tuple:
    """Validate a density matrix as check_density_matrix does and return (rho, eigenvalues, eigenvectors).

    The eigendecomposition that checks the eigenvalue floor is the one
    returned, so a caller that needs the spectrum pays for one.
    """
    return _validated(rho, with_vectors=True)


def bloch_to_rho(tau) -> np.ndarray:
    """Qubit state (1 + tau . sigma) / 2 from a finite Bloch vector of norm <= 1."""
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (3,):
        raise DimensionError(f"Bloch vector must have 3 components, got shape {tau.shape}")
    if not np.all(np.isfinite(tau)):
        raise BlochNormError(f"Bloch vector {tau} has non-finite components")
    norm = float(np.linalg.norm(tau))
    if norm > 1.0 + 1e-12:
        raise BlochNormError(f"Bloch norm {norm:.15g} exceeds 1")
    rho = 0.5 * (np.eye(2, dtype=complex) + tau[0] * PAULI_X + tau[1] * PAULI_Y + tau[2] * PAULI_Z)
    return rho


def rho_to_bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch components tau_i = Re tr(sigma_i rho) of a qubit state, or of each state in a (..., 2, 2) stack.

    Returns shape (..., 3): (Re(rho01 + rho10), Im rho10 - Im rho01, Re(rho00 - rho11)).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (2, 2):
        raise DimensionError(f"expected a 2x2 matrix, got shape {rho.shape}")
    return np.stack(
        [
            (rho[..., 0, 1] + rho[..., 1, 0]).real,
            rho[..., 1, 0].imag - rho[..., 0, 1].imag,
            (rho[..., 0, 0] - rho[..., 1, 1]).real,
        ],
        axis=-1,
    )


def l1_coherence(rho: np.ndarray) -> float:
    """Sum of the moduli of all off-diagonal entries."""
    rho = np.asarray(rho, dtype=complex)
    return float(np.sum(np.abs(rho)) - np.sum(np.abs(np.diag(rho))))


def figure_coherence_qubit(tau) -> float:
    """Transverse-coherence measure 2 (tau_x^2 + tau_y^2) used on sweep axes.

    This is the squared-transverse convention; it differs from the l1 value
    of the same state (tau_perp), and both are exposed deliberately.
    """
    tau = np.asarray(tau, dtype=float)
    return float(2.0 * (tau[0] ** 2 + tau[1] ** 2))


def _spectrum(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of a state, with tiny negatives clipped to zero."""
    vals = np.linalg.eigvalsh(rho)
    if float(vals.min()) < EIG_FLOOR:
        raise StateValidationError(f"negative eigenvalue {vals.min():.3e} in spectrum")
    return np.clip(vals, 0.0, None)


def _entropy_of(p: np.ndarray) -> float:
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """S(rho) = -tr(rho ln rho), with 0 ln 0 = 0."""
    return _entropy_of(_spectrum(np.asarray(rho, dtype=complex)))


def quantum_relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """S(rho || sigma) = tr(rho ln rho) - tr(rho ln sigma).

    Raises SupportError when rho carries weight outside the support of
    sigma beyond 1e-10, where the quantity diverges.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise DimensionError(f"shape mismatch {rho.shape} vs {sigma.shape}")
    svals, svecs = np.linalg.eigh(sigma)
    probs = np.real(np.einsum("ij,jk,ki->i", svecs.conj().T, rho, svecs))
    kernel = svals < 1e-12
    outside = float(np.sum(probs[kernel]))
    if outside > SUPPORT_TOL:
        raise SupportError(f"weight {outside:.3e} outside reference support")
    cross = float(np.sum(probs[~kernel] * np.log(svals[~kernel])))
    return -von_neumann_entropy(rho) - cross


def relative_entropy_of_coherence(rho: np.ndarray) -> float:
    """C(rho) = S(diag rho) - S(rho), diagonal taken in the working basis."""
    rho = np.asarray(rho, dtype=complex)
    pops = np.clip(np.real(np.diag(rho)), 0.0, None)
    return _entropy_of(pops) - von_neumann_entropy(rho)


def gibbs_state(hamiltonian: np.ndarray, beta: float) -> np.ndarray:
    """Thermal state exp(-beta H) / Z, computed through the eigenbasis of H."""
    if beta < 0.0 or not math.isfinite(beta):
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    h = np.asarray(hamiltonian, dtype=complex)
    vals, vecs = np.linalg.eigh(h)
    w = np.exp(-beta * (vals - vals.min()))
    w /= w.sum()
    rho = (vecs * w) @ vecs.conj().T
    return 0.5 * (rho + rho.conj().T)


@dataclass(frozen=True)
class FreeEnergySplit:
    """Decomposition of F(rho) into equilibrium, population, and coherence parts."""

    f_eq: float
    classical_excess: float
    quantum_excess: float
    total: float


def nonequilibrium_free_energy(rho: np.ndarray, hamiltonian: np.ndarray, temperature: float) -> FreeEnergySplit:
    """Split F(rho) = tr(H rho) - T S(rho) against the thermal reference.

    The total separates exactly as F_eq plus T times the population
    divergence KL(P || P_eq) plus T times the coherence C(rho), both taken
    in the eigenbasis of the Hamiltonian.
    """
    if temperature <= 0.0 or not math.isfinite(temperature):
        raise ValueError(f"temperature must be finite and > 0, got {temperature}")
    rho = check_density_matrix(rho)
    h = np.asarray(hamiltonian, dtype=complex)
    if h.shape != rho.shape:
        raise DimensionError(f"Hamiltonian shape {h.shape} does not match state {rho.shape}")
    beta = 1.0 / temperature
    evals, evecs = np.linalg.eigh(h)
    log_z = -beta * evals.min() + math.log(float(np.sum(np.exp(-beta * (evals - evals.min())))))
    f_eq = -temperature * log_z

    rho_h = evecs.conj().T @ rho @ evecs
    pops = np.clip(np.real(np.diag(rho_h)), 0.0, None)
    pops_eq = np.exp(-beta * (evals - evals.min()))
    pops_eq /= pops_eq.sum()
    mask = pops > 0.0
    kl = float(np.sum(pops[mask] * (np.log(pops[mask]) - np.log(pops_eq[mask]))))

    s_vn = von_neumann_entropy(rho)
    coherence = _entropy_of(pops) - s_vn
    energy = float(np.real(np.trace(h @ rho)))
    total = energy - temperature * s_vn
    return FreeEnergySplit(
        f_eq=f_eq,
        classical_excess=temperature * kl,
        quantum_excess=temperature * coherence,
        total=total,
    )


def random_state_with_coherence(dim: int, target_c: float, seed: int, max_attempts: int = 200) -> np.ndarray:
    """Draw a random state whose l1 coherence equals target_c to 1e-6.

    The diagonal is sampled from a flat Dirichlet distribution and a random
    off-diagonal direction, normalized to unit l1 coherence, is scaled by
    target_c; draws failing positivity are rejected and resampled.  For
    dim = 3 the off-diagonal entries are real.  The same seed always
    returns the same state.

    Raises UnreachableCoherence when no positive state is found within
    max_attempts draws.
    """
    if dim < 2:
        raise DimensionError(f"dim must be >= 2, got {dim}")
    if not 0.0 <= target_c < math.inf:
        raise ValueError(f"target coherence must be finite and >= 0, got {target_c}")
    rng = np.random.default_rng(seed)
    rows, cols = np.triu_indices(dim, 1)
    for _ in range(max_attempts):
        pops = rng.dirichlet(np.ones(dim))
        if target_c == 0.0:
            return np.diag(pops.astype(complex))
        # one draw per attempt, in the row-major order of the upper triangle; (re, im) pairs read as complex
        if dim == 3:
            entries = rng.normal(size=rows.size)
        else:
            entries = rng.normal(size=(rows.size, 2)).view(complex)[:, 0]
        direction = np.zeros((dim, dim), dtype=complex)
        direction[rows, cols] = entries
        direction[cols, rows] = np.conj(entries)
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
    raise UnreachableCoherence(
        f"no positive dim={dim} state with l1 coherence {target_c} found in {max_attempts} draws"
    )
