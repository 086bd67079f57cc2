"""Exception types shared across the package.

The CLI maps these onto stable exit codes (see cli.py), so library code
should raise the most specific class that applies.
"""

import contextlib
import math
import numbers

import numpy as np

__all__ = [
    "AmsCascadeError",
    "ConfigError",
    "DataError",
    "TrainingError",
    "CascadeError",
    "DegenerateInputError",
]


class AmsCascadeError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(AmsCascadeError):
    """Invalid configuration value, file, or flag combination."""


class DataError(AmsCascadeError):
    """Malformed or inconsistent input data (schema, parse, validation)."""


class TrainingError(AmsCascadeError):
    """A base learner cannot be fit on the given inputs."""


class CascadeError(AmsCascadeError):
    """A cascade run could not produce any usable round."""


class DegenerateInputError(AmsCascadeError):
    """An operation was asked to evaluate a mathematically undefined case."""


def _shown(value) -> str:
    """``repr(value)`` on one line: a refused value as the rules' messages
    show it (a 2-D array's repr spans lines; a string's never does)."""
    return " ".join(line.strip() for line in repr(value).splitlines())


def _integer(name, value, least=None, error=ConfigError) -> int:
    """``value`` as an ``int``: the package's one rule for scalar counts and seeds.

    Python and numpy integers pass, ``bool`` does not.  Anything else, or an
    integer below ``least``, raises ``error`` with a one-line message.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if least is None or value >= least:
            return int(value)
    bound = "" if least is None else f" >= {least}"
    raise error(f"{name} must be an integer{bound}, got {_shown(value)}")


def _real(name, value, low=-math.inf, high=math.inf, *, open_low=False, open_high=False,
          error=ConfigError) -> float:
    """``value`` as a ``float``: the package's one rule for scalar reals.

    Python and numpy reals pass, ``bool`` does not, and NaN fails every bound.
    Anything else raises ``error`` with a one-line message naming the interval.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond float range
            x = math.nan
        if (low < x if open_low else low <= x) and (x < high if open_high else x <= high):
            return x
    interval = f"{'(' if open_low else '['}{low:g}, {high:g}{')' if open_high else ']'}"
    raise error(f"{name} must be a real number in {interval}, got {_shown(value)}")


def _choice(name, value, options, error=ConfigError):
    """The option of the tuple ``options`` that ``value`` equals: the
    package's one rule for named choices and flags.

    ``options`` is all ``str`` or all ``bool``.  A ``str`` (``np.str_``
    too) matches only ``str`` options and a Python or numpy bool only
    ``bool`` options, so ``0``, ``"true"`` and None are no flag.  Anything
    else raises ``error`` with a one-line message.
    """
    if isinstance(value, str if isinstance(options[0], str) else (bool, np.bool_)):
        for option in options:
            if value == option:
                return option
    raise error(f"{name} must be one of {options}, got {_shown(value)}")


@contextlib.contextmanager
def _open(path, mode, error):
    """``path`` opened in ``mode`` (text with ``newline=""``, as csv needs): the
    package's one rule for files.  A failed open, undecodable text, and an
    OSError in the block or at the close (a full disk) raise ``error``."""
    try:
        handle = open(path, mode, newline=None if "b" in mode else "")
    except OSError as exc:
        raise error(f"cannot open {path!r}: {exc}") from None
    try:
        with handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise error(f"cannot decode {path!r} as text: {exc.reason}") from None
    except OSError as exc:
        raise error(f"cannot {'read' if 'r' in mode else 'write'} {path!r}: {exc}") from None


# what each array dtype takes, as its messages say
_ARRAY_RULES = {float: "must be real numbers", np.int64: "must be integers", bool: "must be 0 or 1"}


def _array(name, value, dtype, error=ValueError) -> np.ndarray:
    """``value`` as a C-contiguous ``dtype`` array, ``dtype`` being ``float``,
    ``np.int64`` or ``bool``: the package's one rule for arrays.  Bool and
    real input passes where the cast changes no value, without a copy where
    none is needed; anything else raises ``error`` with a one-line message."""
    rule = _ARRAY_RULES[dtype]
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nested sequence
        raise error(f"{name} {rule}, got a ragged sequence") from None
    kind, bad = arr.dtype.kind, None
    if kind not in "biuf":
        raise error(f"{name} {rule}, got an array of {arr.dtype}")
    if dtype is np.int64 and kind == "f":
        bad = ~((arr == np.trunc(arr)) & (arr >= -(2.0**63)) & (arr < 2.0**63))
    elif dtype is np.int64 and kind == "u" and arr.dtype.itemsize == 8:
        # compared as uint64: against a Python int numpy 1.x would go through float64
        bad, rule = arr > np.uint64(2**63 - 1), "must fit in int64"
    elif dtype is bool and kind != "b":
        bad = (arr != 0) & (arr != 1)
    if bad is not None and bad.any():
        raise error(f"{name} {rule}, got {arr[bad][0].item()!r}")
    return np.ascontiguousarray(arr, dtype=dtype)


def _labels(name, value, error=ValueError) -> np.ndarray:
    """``value`` as an int64 array by ``_array``, each entry -1 or +1."""
    arr = _array(name, value, np.int64, error)
    bad = (arr != 1) & (arr != -1)
    if bad.any():
        raise error(f"{name} must take values in {{-1, +1}}, got {arr[bad][0].item()!r}")
    return arr
