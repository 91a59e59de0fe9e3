"""Exception hierarchy for ginisafe, and the admission rules for integer, tolerance and array arguments.

Public functions raise these instead of bare ValueError so callers (and the
CLI) can map failures to exit codes and name the violated invariant.  Every
count, size, seed and index argument goes through :func:`admit_int`, every
tolerance through :func:`admit_tol`, and every array argument through
:func:`admit_array`: it converts as ``np.asarray(value, dtype=dtype)`` and
returns an ndarray of that dtype untouched, and it rejects a value with
``<what> must be a non-empty <n>-D array of <real|complex> numbers, got
<value>``, or a non-square matrix (:func:`admit_square`) with ``<what> must
be square, got shape (r, c)``.
"""

import numbers
import reprlib
import warnings

import numpy as np

try:
    from numpy.exceptions import ComplexWarning
except ImportError:  # numpy < 1.25
    from numpy import ComplexWarning

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


def admit_tol(value, what: str = "'tol'") -> float:
    """The one rule for a tolerance: a real number in [0, 1), as a float; below 1 a passing vector sums to > 0 once clipped."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0.0 <= value < 1.0:  # NaN fails both
        raise ValidationError(f"{what} must be a finite number >= 0 and < 1, got {ECHO.repr(value)}")
    return float(value) + 0.0  # -0.0 admits as 0.0, so no message echoes a signed zero


def admit_array(value, what: str, dtype, ndim) -> np.ndarray:
    """The one rule for an array argument named `what`: a non-empty array of `ndim` (an int or a tuple) dimensions.

    `dtype` is float or complex.  The value converts as ``np.asarray(value, dtype=dtype)`` converts it,
    and an ndarray that already has the dtype is returned untouched.  A ragged, non-numeric or huge-int
    value, a string in place of a number, a complex value for a real dtype, and an empty or wrong-ndim array
    are a ValidationError that shows the value, or an ndarray's dtype and shape.
    """
    ndims = (ndim,) if type(ndim) is int else ndim
    array = value
    if type(value) is not np.ndarray or value.dtype != dtype:
        try:
            found = np.asarray(value)  # numpy's own dtype first: a cast to float would drop an imaginary part
            if found.dtype.kind == "c" and dtype is not complex:
                raise TypeError
            # numpy would parse a string, but a string is not a number, whatever it spells
            strings = found.dtype.kind == "O" and any(isinstance(v, (str, bytes)) for v in found.flat)
            if found.dtype.kind in "SU" or strings:
                raise TypeError
            if found.dtype.kind == "O":
                # objects convert one by one, as the dtype asks; a numpy complex scalar
                # among them would lose its imaginary part with only a ComplexWarning
                with warnings.catch_warnings():
                    warnings.simplefilter("error", ComplexWarning)
                    array = np.asarray(value, dtype=dtype)
            else:
                array = np.asarray(found, dtype=dtype)  # a number found is cast
        except (TypeError, ValueError, OverflowError, ComplexWarning):
            array = None
    if array is None or array.size == 0 or array.ndim not in ndims:
        dims = " or ".join(f"{n}-D" for n in ndims)
        kind = "complex" if dtype is complex else "real"
        got = f"a {value.dtype} array of shape {value.shape}" if isinstance(value, np.ndarray) else ECHO.repr(value)
        raise ValidationError(f"{what} must be a non-empty {dims} array of {kind} numbers, got {got}")
    return array


def admit_square(value, what: str, dtype) -> np.ndarray:
    """A square matrix: a 2-D array by :func:`admit_array` with as many rows as columns."""
    if (matrix := admit_array(value, what, dtype, 2)).shape[0] != matrix.shape[1]:
        raise ValidationError(f"{what} must be square, got shape {matrix.shape}")
    return matrix
