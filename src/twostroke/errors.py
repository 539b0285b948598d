"""Exception types shared across the package."""


class EngineError(Exception):
    """Base class for domain errors raised by this package."""


class ConfigError(EngineError, ValueError):
    """Invalid engine configuration (frequencies, temperatures, flags)."""


class CyclicityError(EngineError, ValueError):
    """Catalyst marginal changed across a work stroke."""


class GuardExceededError(EngineError, ValueError):
    """A size guard or the simplex iteration limit was exceeded."""


class DegeneratePointError(EngineError, ValueError):
    """Closed-form expression evaluated at a pole; use the linear solver."""


class NoEngineRegimeError(EngineError, ValueError):
    """No stroke with positive work exists for the requested configuration."""


class CoherenceCheckError(EngineError):
    """Rotated and original engines disagreed beyond tolerance."""
