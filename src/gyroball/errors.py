"""Exception hierarchy shared across the package."""


class GyroError(Exception):
    """Base class for all errors raised by gyroball."""


class DimensionMismatchError(GyroError, ValueError):
    """Two vectors of different dimensions were combined."""


class DomainError(GyroError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class BoundaryError(GyroError, ValueError):
    """A point or intermediate value reached the unit-sphere guard band."""


class DegeneracyError(GyroError):
    """A construction requires a nonidentity gyration but none exists."""


class LeftInvarianceError(GyroError):
    """A metric claimed to be left-invariant failed the sampled check.

    Carries a ``witness`` dict with the offending triple and both distances.
    """

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class UnknownNameError(GyroError, KeyError):
    """A model, gyronorm, or suite name is not registered."""

    def __str__(self):  # KeyError quotes its message otherwise
        return self.args[0] if self.args else ""


class SamplingHealthError(GyroError):
    """More than the allowed fraction of samples was skipped during a suite.

    Carries the assembled ``report`` so callers can still inspect it.
    """

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report
