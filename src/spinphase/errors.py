"""Exception and warning types shared across the package."""


class DimensionError(ValueError):
    """Operator or state dimensions do not match the declared spin."""


class BlochNormError(ValueError):
    """Bloch vector norm exceeds 1 beyond tolerance."""


class StateValidationError(ValueError):
    """Matrix fails a density-matrix invariant (hermiticity, trace, positivity)."""


class SupportError(ValueError):
    """Relative-entropy argument has weight outside the reference support."""


class UnreachableCoherence(RuntimeError):
    """Random-state search could not reach the requested coherence."""


class BasisError(ValueError):
    """Operation requires a Hamiltonian diagonal in the working basis."""


class StepCountError(ValueError):
    """Integrator step count is not a positive integer, or too coarse: the step map diverges for the channel."""


class ZeroRateError(ValueError):
    """A one-way transition carries flux, so the entropy rate diverges."""


class RangeError(ValueError):
    """Angular argument outside its admissible range."""


class PurityDivergence(ValueError):
    """Von Neumann rate diverges as the state approaches purity."""


class TemperatureDivergence(ValueError):
    """Von Neumann rate diverges in the zero-temperature bath limit."""


class BandLimitError(ValueError):
    """Sphere grid too coarse for the spin: Q^2 integrates exactly only for n_theta >= 2J + 1, n_phi >= 4J + 1."""


class PositivityWarning(UserWarning):
    """Integrator produced an eigenvalue below the positivity floor."""


class QFloorWarning(UserWarning):
    """Quadrature nodes excluded where the Husimi function underflows."""
