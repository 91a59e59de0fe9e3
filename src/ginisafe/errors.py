"""Exception hierarchy for ginisafe, and the one admission rule for integer arguments.

Public functions raise these instead of bare ValueError so callers (and the
CLI) can map failures to exit codes and name the violated invariant.
"""

import numbers
import reprlib

# Error messages echo values through this repr: 6 items of a list or dict, 30
# characters of a string, two levels of nesting, so a message stays one short line.
ECHO = reprlib.Repr()
ECHO.maxlevel = 2


class GiniSafeError(Exception):
    """Base error for this package."""


class ValidationError(GiniSafeError, ValueError):
    """Input violates a domain invariant (shape, range, normalization)."""


class NegativeEntryError(ValidationError):
    """A probability entry is negative beyond the allowed tolerance."""


class NotNormalizedError(ValidationError):
    """Probabilities do not sum to 1 within the allowed tolerance."""


class DimensionMismatchError(ValidationError):
    """Operands have incompatible dimensions."""


class IndexOutOfRangeError(ValidationError, IndexError):
    """A component position or level index is outside [0, d)."""


class DimensionTooLargeError(ValidationError):
    """The requested dense object exceeds the supported size budget."""


class NotProductFormError(GiniSafeError):
    """A tensor asserted to be product-form carries correlations above tolerance."""


class CorrelatedSpecRejectedError(GiniSafeError):
    """Operation is defined for independent ensembles only."""


def admit_int(value, what: str, lo, hi=None) -> int:
    """The one rule for a count, size, seed or index argument named `what`.

    A Python int or a numpy integer is returned as an int.  A bool or
    ``np.bool_``, any float (even an integral one), a string, None or any
    other value is a ValidationError, as is a value below `lo`; a value above
    the cap `hi` is a DimensionTooLargeError.  A bound of None is no bound.
    """
    # a plain int takes only the type test: the numbers.Integral ABC test costs several times more
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        bounds = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
        raise ValidationError(f"{what} must be an integer{bounds}, got {ECHO.repr(value)}")
    value = int(value)
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        error = ValidationError if hi is None or value <= hi else DimensionTooLargeError
        # a capped argument names its interval and an uncapped one its floor, as error lines always have
        raise error(f"{what} = {_echo_int(value)} outside [{lo}, {hi}]" if hi is not None
                    else f"{what} must be an integer >= {lo}, got {_echo_int(value)}")
    return value


def admit_index(value, what: str, d: int) -> int:
    """A position, level or code: an integer by :func:`admit_int`, in [0, d) or an IndexOutOfRangeError."""
    if not 0 <= (index := admit_int(value, what, None)) < d:
        raise IndexOutOfRangeError(f"{what} = {_echo_int(index)} outside [0, {d})")
    return index


def _echo_int(value: int) -> str:
    """An int through ECHO, or past 4096 bits, where repr() may fail, by its sign and bit length."""
    return ECHO.repr(value) if value.bit_length() <= 4096 else f"{'-' * (value < 0)}<{value.bit_length()}-bit integer>"
