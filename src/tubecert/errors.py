"""Exception types shared across the package."""


class ConfigError(Exception):
    """A check config the program cannot honour; ``tubecert verify`` exits 2."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class SpaceError(ValueError):
    """Operands live in incompatible variable spaces."""


class ConstraintError(ValueError):
    """Group-element parameters violate their defining algebraic constraint."""


class ClosureViolation(RuntimeError):
    """Parameter recovery after composition failed to reproduce the map.

    This never fires for valid inputs; if it does, it signals a bug in the
    composition or recovery code, not in the caller.
    """


class NotAHypersurfacePoint(ValueError):
    """The defining function has zero gradient at the requested point."""
