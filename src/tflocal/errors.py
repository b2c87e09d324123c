"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: usage/input problems exit with 2,
numeric failures (insufficient quadrature, ill conditioning, SVD trouble)
exit with 3.  A MemoryError (a request too large for the machine) also
exits with 2, never with 1, which means "verification violations".
"""


class DomainError(ValueError):
    """An argument is outside the operation's mathematical domain."""


class RangeError(ValueError):
    """A lattice shift or support would leave the computation box."""


class UsageError(ValueError):
    """Bad CLI arguments, config contents, or an unknown check id."""


class PrecisionError(RuntimeError):
    """The torus grid is too coarse to evaluate an integral exactly."""


class ConditioningError(RuntimeError):
    """A reconstruction constant is too close to zero to divide by."""


class UnboundedError(RuntimeError):
    """A supremum diverges on the search range."""
