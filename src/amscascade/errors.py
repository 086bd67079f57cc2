"""Exception types shared across the package.

The CLI maps these onto stable exit codes (see cli.py), so library code
should raise the most specific class that applies.
"""

import math
import numbers

import numpy as np


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


def _integer(name, value, least=None, error=ConfigError) -> int:
    """``value`` as an ``int``: the package's one rule for scalar counts and seeds.

    Python and numpy integers pass, ``bool`` does not.  Anything else, or an
    integer below ``least``, raises ``error`` with a one-line message.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if least is None or value >= least:
            return int(value)
    bound = "" if least is None else f" >= {least}"
    raise error(f"{name} must be an integer{bound}, got {value!r}")


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
    raise error(f"{name} must be a real number in {interval}, got {value!r}")
