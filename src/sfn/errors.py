"""Exception hierarchy shared across the package.

Every domain error derives from :class:`SfnError` so the command line
driver can map failures onto stable process exit codes.
"""

EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_SATURATED = 4


class SfnError(Exception):
    """Base class for all package-specific failures."""

    exit_code = EXIT_DEGENERATE


class ConfigError(SfnError):
    """Malformed or contradictory run configuration."""

    exit_code = EXIT_CONFIG


class ArgumentError(SfnError):
    """A caller violated an operation precondition."""

    exit_code = EXIT_CONFIG


class ShapeError(ArgumentError):
    """Tensor arguments with incompatible or unsupported dimensions."""


class SaturationError(SfnError):
    """Placement or picking ran out of room before reaching the target."""

    exit_code = EXIT_SATURATED


class DegenerateTemplateError(SfnError):
    """A template collapsed to (numerically) zero or duplicated another."""


class DegenerateDataError(SfnError):
    """Input data cannot support the requested fit (e.g. identical rows)."""


class UndefinedCorrelationError(SfnError):
    """Correlation requested against a constant (zero-variance) input."""
