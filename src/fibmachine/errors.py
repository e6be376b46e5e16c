"""Exception hierarchy shared by all fibmachine modules.

Everything derives from FibmachineError so callers (notably the CLI) can
distinguish "your input is wrong" (ValueError-flavoured, exit code 2) from
"the computation ran out of headroom" (CapacityError / BudgetExceeded,
exit code 3).
"""


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
