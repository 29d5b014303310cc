"""Spin-J algebra, qubit Bloch maps, and entropic functionals of states.

Conventions: hbar = k_B = 1, natural logarithms throughout.  Basis states
are ordered by decreasing magnetic quantum number, so index 0 is the top
rung m = +J of the ladder (for a qubit, the upper level).
"""

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


def make_spin_operators(j: SpinJ) -> SpinOperators:
    """Build jx, jy, jz and the ladder pair for spin j.

    jz is diagonal with entries J, J-1, ..., -J; the ladder matrix elements
    are <m+1|J+|m> = sqrt(J(J+1) - m(m+1)).  Every array is read-only.
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


def _above_floor(states) -> bool:
    """True when one Cholesky factorization shows every eigenvalue of a (..., d, d) Hermitian stack is >= EIG_FLOOR.

    The factorization of states - (EIG_FLOOR + 1e-13) I exists when each
    state's smallest eigenvalue clears the floor by 1e-13.  Cholesky's
    backward error for a trace-1 state with d <= 9 is far below 1e-13, so
    whenever it succeeds eigvalsh accepts every state too.  False is no
    verdict: the caller runs eigvalsh to find the state and its eigenvalue.
    """
    try:
        np.linalg.cholesky(states + (-EIG_FLOOR - 1e-13) * np.eye(states.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return True


def _validated(rho, with_vectors: bool) -> tuple:
    """The one body of state checks: (rho, eigenvalues, eigenvectors) from one decomposition.

    Without vectors the floor is checked by _above_floor first, and a state
    that clears it returns None for both.
    """
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
    elif _above_floor(rho):
        return rho, None, None
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


def _validated_stack(states, dim: int | None, with_vectors: bool, named: bool = True) -> tuple:
    """The stacked body of state checks: (states, eigenvalues, eigenvectors) of an (N, d, d) stack.

    One batched decomposition checks every state (without vectors, one
    _above_floor pass first, and None for both when every state clears
    it); the first bad one is re-checked by _validated for its message,
    which names it as state <i> when named.  d is read from the shape when
    dim is None.
    """
    states = np.asarray(states, dtype=complex)
    dim = states.shape[-1] if dim is None else dim
    if states.ndim != 3 or states.shape[1:] != (dim, dim):
        raise DimensionError(f"expected an (N, {dim}, {dim}) stack of density matrices, got shape {states.shape}")
    with np.errstate(invalid="ignore", over="ignore"):
        herm = abs(states - states.conj().swapaxes(1, 2))
    trace_error = abs(states.trace(axis1=1, axis2=2) - 1.0)
    # a good stack passes on scalar comparisons alone; the bad states are looked for only once one fails
    fine = herm.max(initial=0.0) <= HERMITICITY_TOL and trace_error.max(initial=0.0) <= TRACE_TOL
    ok = fine or (herm.max(axis=(1, 2)) <= HERMITICITY_TOL) & (trace_error <= TRACE_TOL)
    # a state that already failed is swapped for a valid one, so the eigh sees finite Hermitian input only
    checked = states if fine else np.where(ok[:, None, None], states, np.eye(dim))
    if with_vectors:
        vals, vecs = np.linalg.eigh(checked)
    elif fine and _above_floor(states):
        return states, None, None
    else:
        vals, vecs = np.linalg.eigvalsh(checked), None
    # eigenvalues come in ascending order, so the smallest of all is some state's first
    if not (fine and vals.min(initial=0.0) >= EIG_FLOOR):
        first = int(np.argmin(ok & (vals[:, 0] >= EIG_FLOOR)))
        try:
            _validated(states[first], with_vectors)
            raise StateValidationError(f"negative eigenvalue {vals[first, 0]:.3e} below floor {EIG_FLOOR}")
        except StateValidationError as exc:
            if not named:
                raise
            raise StateValidationError(f"state {first}: {exc}") from None
    return states, vals, vecs


def check_density_stack(states) -> np.ndarray:
    """check_density_matrix of one (d, d) state or each state of an (N, d, d) stack, in one batched pass.

    Returns the (N, d, d) stack, N = 1 for one state; only a stack's error
    names the bad state, as state <i>.
    """
    states = np.asarray(states, dtype=complex)
    if states.ndim == 2 and states.shape[0] == states.shape[1]:
        return _validated_stack(states[None], None, with_vectors=False, named=False)[0]
    if states.ndim != 3:
        raise DimensionError(f"density matrix must be square, got shape {states.shape}")
    return _validated_stack(states, None, with_vectors=False)[0]


def density_eigh_stack(states, dim: int) -> tuple:
    """density_eigh of each state of an (N, dim, dim) stack, in one batched pass; a bad state's error names it."""
    return _validated_stack(states, dim, with_vectors=True)


def check_bloch_vector(tau) -> tuple:
    """(tau as floats, its norm) of 3 finite components of norm <= 1 + 1e-12, else DimensionError or BlochNormError."""
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (3,):
        raise DimensionError(f"Bloch vector must have 3 components, got shape {tau.shape}")
    if not np.all(np.isfinite(tau)):
        raise BlochNormError(f"Bloch vector {tau} has non-finite components")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(tau))
    if norm > 1.0 + 1e-12:
        raise BlochNormError(f"Bloch norm {norm:.15g} exceeds 1")
    return tau, norm


def bloch_to_rho(tau) -> np.ndarray:
    """Qubit state (1 + tau . sigma) / 2 from a finite Bloch vector of norm <= 1, or each state of an (N, 3) stack.

    A stack gives an (N, 2, 2) stack, validated in one pass, whose error
    names the first bad vector as vector <i>; each state is bit for bit the
    one its vector alone gives.
    """
    tau = np.asarray(tau, dtype=float)
    stack = tau.ndim == 2
    if not stack:
        tau = check_bloch_vector(tau)[0][None]
    elif tau.shape[1] != 3:
        raise DimensionError(f"expected an (N, 3) stack of Bloch vectors, got shape {tau.shape}")
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            # the stacked norm can differ from check_bloch_vector's in its last bits, so a vector within half
            # the tolerance of the bound, or non-finite, is checked alone: the verdict is check_bloch_vector's
            near = ~(np.linalg.norm(tau, axis=1) <= 1.0 + 0.5e-12)
        for i in np.flatnonzero(near):
            try:
                check_bloch_vector(tau[i])
            except BlochNormError as exc:
                raise BlochNormError(f"vector {i}: {exc}") from None
    x, y, z = (tau[:, k, None, None] for k in range(3))
    rho = 0.5 * (np.eye(2, dtype=complex) + x * PAULI_X + y * PAULI_Y + z * PAULI_Z)
    return rho if stack else rho[0]


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


def l1_coherence(rho: np.ndarray):
    """Sum of the moduli of all off-diagonal entries, of one state or of each state in a (..., d, d) stack.

    One state gives a float and a stack an array of shape (...); each
    state's entries are summed in the same order either way, so a state's
    value does not depend on the stack it sits in.
    """
    rho = np.asarray(rho, dtype=complex)
    lead = rho.shape[:-2]
    total = np.abs(rho).reshape(*lead, -1).sum(axis=-1) - np.abs(np.diagonal(rho, axis1=-2, axis2=-1)).sum(axis=-1)
    return total if lead else float(total)


def _spectrum(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of a state or a (..., d, d) stack, with tiny negatives clipped to zero."""
    vals = np.linalg.eigvalsh(rho)
    if float(vals.min()) < EIG_FLOOR:
        raise StateValidationError(f"negative eigenvalue {vals.min():.3e} in spectrum")
    return np.clip(vals, 0.0, None)


def _entropy_of(p: np.ndarray):
    """-sum p ln p along the last axis, with 0 ln 0 = 0; a float for one distribution."""
    # ln 1 = 0 stands in at the zeros, so no term warns and every row sums d terms
    total = -np.sum(p * np.log(np.where(p > 0.0, p, 1.0)), axis=-1)
    return total if p.ndim > 1 else float(total)


def von_neumann_entropy(rho: np.ndarray):
    """S(rho) = -tr(rho ln rho), with 0 ln 0 = 0, of one state or of each state in a (..., d, d) stack.

    One state gives a float and a stack an array of shape (...), from one
    batched eigenvalue pass; a state's value does not depend on the stack
    it sits in.  Raises StateValidationError when any eigenvalue lies below
    the -1e-10 floor.
    """
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


def random_state_with_coherence(dim: int, target_c, seed: int, max_attempts: int = 200) -> np.ndarray:
    """Draw a random state whose l1 coherence equals target_c to 1e-6, or one per target of a 1-D array.

    The diagonal is sampled from a flat Dirichlet distribution and a random
    off-diagonal direction, normalized to unit l1 coherence, is scaled by
    the target; draws failing positivity are rejected and resampled.  For
    dim = 3 the off-diagonal entries are real.  The same seed always
    returns the same state.

    A scalar target gives one (dim, dim) state, a 1-D array of n targets an
    (n, dim, dim) stack.  The targets share one stream of attempts from
    default_rng(seed): attempt i draws its populations, then its
    off-diagonal entries if a positive target is still unserved, and each
    target takes the first attempt its checks accept (target 0 the bare
    populations of attempt 0).  So each state of a stack is bit for bit the
    one a call with that target alone returns.

    Raises UnreachableCoherence, naming the first target left unserved,
    when a target finds no positive state within max_attempts draws.
    """
    if dim < 2:
        raise DimensionError(f"dim must be >= 2, got {dim}")
    given = np.asarray(target_c)
    if given.ndim > 1:
        raise DimensionError(f"targets must be a scalar or a 1-D array, got shape {given.shape}")
    given = given.reshape(-1)
    targets = given.astype(float)
    bad = ~((targets >= 0.0) & (targets < math.inf))
    if bad.any():
        raise ValueError(f"target coherence must be finite and >= 0, got {given[bad][0]}")
    rng = np.random.default_rng(seed)
    rows, cols = np.triu_indices(dim, 1)
    states = np.empty((targets.size, dim, dim), dtype=complex)
    pending = np.arange(targets.size)
    for _ in range(max_attempts):
        base = np.diag(rng.dirichlet(np.ones(dim)).astype(complex))
        # only attempt 0 finds zero targets pending, and serves them its bare populations
        zero = targets[pending] == 0.0
        states[pending[zero]] = base
        pending = pending[~zero]
        if not pending.size:
            break
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
        wanted = targets[pending]
        candidates = base + wanted[:, None, None] * direction
        ok = np.abs(l1_coherence(candidates) - wanted) <= 1e-6
        ok[ok] = np.linalg.eigvalsh(candidates[ok]).min(axis=-1) >= 1e-12
        states[pending[ok]] = candidates[ok]
        pending = pending[~ok]
        if not pending.size:
            break
    if pending.size:
        raise UnreachableCoherence(
            f"no positive dim={dim} state with l1 coherence {given[pending[0]]} found in {max_attempts} draws"
        )
    return states if np.ndim(target_c) else states[0]
