"""Exception types shared across the package."""


class CgmsError(Exception):
    """Base class for all package errors."""


class IntegrationDivergedError(CgmsError):
    """A simulated state became non-finite."""


class DegenerateBasisError(CgmsError):
    """All RBF activations underflowed; the normalized basis is undefined."""


class CertifiedFloorError(CgmsError):
    """The stiffness schedule's smallest eigenvalue fell below the floor.

    Raised instead of clamping: a near-singular stiffness schedule is
    rejected so that every accepted schedule stays on the certified manifold.
    """


class InfeasibleFloorError(CgmsError):
    """Even the beta = 0 gain floor saturates the actuators."""


class ContractViolationError(CgmsError):
    """An input violated a documented contract (e.g. asymmetric matrix)."""


class MarginTooSmallError(CgmsError):
    """Certificate margins are too small for the boundedness constants."""


class ConfigError(CgmsError):
    """Malformed or unknown configuration content."""
