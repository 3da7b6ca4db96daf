"""Exception types shared across the package."""


class OnsetError(Exception):
    """Base class for all domain errors raised by this package."""


class ValidationError(OnsetError, ValueError):
    """Input violates a contract: shape, stochasticity, range, or format."""


class IndependenceError(OnsetError):
    """X carries no information about Y, so no finite threshold exists."""


class InvalidDirectionError(OnsetError):
    """A score vector is constant (or label-blind) and defines no threshold."""
