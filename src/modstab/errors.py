"""Exception types shared across the package.

Every package error derives from ``ModstabError`` as well as from the
builtin ``ValueError`` or ``RuntimeError`` it specializes, so a caller can
catch all of them at once or keep catching the builtin.
"""


class ModstabError(Exception):
    """Base class of every error the package raises on purpose."""


class ConfigError(ModstabError, ValueError):
    """Bad configuration: wrong dimensions, unknown presets, invalid values."""


class InvalidModularError(ModstabError, ValueError):
    """A functional that claims to be a modular but provably is not."""


class BracketDivergenceError(ModstabError, RuntimeError):
    """Bisection could not bracket its root within the magnitude cap."""


class OutOfDiscError(ModstabError, ValueError):
    """Scalar outside the disc where the unimodular decomposition exists."""


class PreconditionError(ModstabError, ValueError):
    """Caller-supplied data violates a documented precondition."""


class NonFiniteValueError(ModstabError, RuntimeError):
    """An evaluation produced NaN or infinity."""

    def __init__(self, message, probe_id=None, level=None):
        super().__init__(message)
        self.probe_id = probe_id
        self.level = level


class OverflowAbort(ModstabError, RuntimeError):
    """Scaled iteration left the configured magnitude cap."""

    def __init__(self, message, level, probe_id):
        super().__init__(message)
        self.level = level
        self.probe_id = probe_id
