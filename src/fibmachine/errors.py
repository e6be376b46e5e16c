"""Exception hierarchy shared by all fibmachine modules, and the three guards.

Everything derives from FibmachineError so callers (notably the CLI) can
distinguish "your input is wrong" (ValueError-flavoured, exit code 2) from
"the computation ran out of headroom" (CapacityError / BudgetExceeded,
exit code 3).

Every count argument (levels, steps, states, pixels, workers) enters through
`integer`, which refuses a bool, a float or any other non-integer with a
ValueError naming the argument.  Every real parameter (escape radius,
margin, bound, threshold, ratio) enters through `real`, which refuses a
bool or a non-number the same way.  Every truncation of an infinite
object (matrix states, escape levels, simulation steps, pixels) is checked
by `within`, the one place that raises BudgetExceeded.
"""

import numbers


class FibmachineError(Exception):
    """Base class for all errors raised by this package."""


class CapacityError(FibmachineError, OverflowError):
    """A value left the checked unsigned 64-bit range."""


class BudgetExceeded(FibmachineError):
    """A requested computation exceeds the configured size budget."""


class InadmissibleWord(FibmachineError, ValueError):
    """A digit word violates the base's admissibility constraint."""


class NoPath(FibmachineError, ValueError):
    """The successor transducer has no accepting path for the input."""


class InvalidProbability(FibmachineError, ValueError):
    """A probability fell outside the half-open interval (0, 1]."""


class TailUndefined(FibmachineError, ValueError):
    """A probability sequence without a tail rule was queried beyond its prefix."""


class UnsupportedVariant(FibmachineError, ValueError):
    """The requested analysis is not decidable for this descriptor."""


class InvalidBudget(FibmachineError, ValueError):
    """The summable budget passed to the construction is malformed."""


class ZeroDelta(FibmachineError, ValueError):
    """The probability sequence has infimum 0, so no escape radius exists."""


class InvalidPolynomial(FibmachineError, ValueError):
    """The polynomial is not of the required shape (no constant/linear term)."""


class InvalidSeed(FibmachineError, ValueError):
    """Seed values for the generalized recursion have the wrong arity."""


class ConfigError(FibmachineError, ValueError):
    """A configuration file or value could not be interpreted."""


class OrbitEscaped(FibmachineError, IndexError):
    """The q orbit passed CLAMP short of the level asked for: no value to index."""


def integer(value, what: str, low: int | None = None) -> int:
    """`value` as an int; a bool, a non-integer or a value below `low` is refused, naming `what`."""
    # an exact int skips the abstract-class check, which costs several times more
    if type(value) is not int and (type(value) is bool or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if low is not None and value < low:
        bound = "nonnegative" if low == 0 else f"at least {low}"
        raise ValueError(f"{what} must be {bound}, got {value!r}")
    return int(value)


def real(value, what: str):
    """`value` as given if it is a real number; a bool or anything else is refused, naming `what`."""
    if type(value) is not float and (type(value) is bool or not isinstance(value, numbers.Real)):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    return value


def within(count: int, budget: int, unit: str) -> None:
    """Refuse a `count` over `budget` with BudgetExceeded, naming the `unit` counted."""
    if count > budget:
        raise BudgetExceeded(f"{count} exceeds the {budget} {unit} budget")
