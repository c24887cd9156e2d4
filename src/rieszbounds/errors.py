"""Exception types shared across the package.

Domain violations (bad arguments) are kept distinct from numerical
failures (iteration did not converge, budget exhausted) so that callers
-- in particular the command line front end -- can map them to different
exit codes.
"""

__all__ = ["DomainError", "NumericalError", "ResourceError"]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericalError(RuntimeError):
    """An iterative computation failed to reach its accuracy target."""


class ResourceError(NumericalError):
    """A configured budget (series terms, table size) was exhausted."""
