"""Exception types and the scalar validators shared across the toolkit.

The CLI maps these onto exit codes: usage/input problems exit with 2,
numeric failures (insufficient quadrature, ill conditioning, SVD trouble)
exit with 3.  A MemoryError (a request too large for the machine) also
exits with 2, never with 1, which means "verification violations".

`integer`, `number` and `fmt17` read and write the scalars of files,
configs and reports.  They live here, with no import from the package, so
that every module can use them without an import cycle.
"""

import numbers
import sys


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


def fmt17(x: float) -> str:
    """Decimal with 17 significant digits (exact double round trip)."""
    return format(float(x), ".17g")


def integer(value, what: str) -> int:
    """`value` as an int: an int or an integral float, never a bool."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise UsageError(f"{what} must be an integer, got {value!r}")
    return int(value)


def number(value, what: str) -> float:
    """`value` as a finite float: an int or a float, never a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise UsageError(f"{what} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # nan, inf, or an int too large for a float
        raise UsageError(f"{what} must be finite, got {value!r}")
    return float(value)
