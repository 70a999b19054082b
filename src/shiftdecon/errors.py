"""Exception types shared across the package."""


class ShiftDeconError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(ShiftDeconError, ValueError):
    """A parameter is outside its documented range."""


class AliasingError(ShiftDeconError, ValueError):
    """A grid is too coarse for the requested frequency band."""


class InvariantViolationError(ShiftDeconError, ValueError):
    """Data violates a structural invariant it claims to satisfy."""


class VanishingEigenvalueError(ShiftDeconError, ZeroDivisionError):
    """A shift-density Fourier coefficient needed for inversion vanishes.

    Raised when ``|gamma_k|^2`` is at or below
    ``shiftdecon.spectral.EIGENVALUE_FLOOR`` (machine epsilon), not only at
    exact zero: dividing by such a value returns a finite but meaningless
    estimate.
    """


class DegenerateInputError(ShiftDeconError, ValueError):
    """An input is degenerate for the requested computation (e.g. a zero
    oracle risk in a ratio denominator)."""


class ConfigError(ShiftDeconError, ValueError):
    """A configuration file or value could not be accepted."""
