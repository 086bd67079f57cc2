"""Significance measures, their convex conjugates, and the dual risk.

The two built-in measures share the form ``h(B * f(s / B))`` where ``s`` is
the selected signal weight, ``B`` the selected background weight (with any
additive regularizer already folded in), ``f`` a closed proper convex
function with ``f(0) = 0``, and ``h`` an increasing outer transform.  The
conjugate triple ``(f, f*, f')`` turns maximizing the measure into
minimizing a risk that is linear in the confusion counts, which is what the
cascade engine exploits: for fixed dual weight ``u`` the risk is a weighted
classification error, and for a fixed classifier the optimal ``u`` has a
closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import DegenerateInputError, _array, _choice, _labels, _real

__all__ = [
    "U_MIN",
    "U_MAX",
    "ConfusionSummary",
    "SignificanceMeasure",
    "AMS2",
    "AMS3",
    "custom_measure",
    "resolve_measure",
    "confusion_summary",
    "significance",
    "significance_curve",
    "dual_risk",
    "optimal_u",
    "fenchel_young_gap",
]

# Dual weights live in [U_MIN, U_MAX].  u = 0 would zero the signal
# misclassification cost and collapse the weighted classification problem;
# the closed-form update diverges as the background weight goes to 0, so a
# ceiling keeps every round's subproblem well-posed.
U_MIN = 1e-6
U_MAX = 20.0

_ABS_TOL = 1e-9


def clamp_dual(u: float) -> float:
    """Clamp a dual weight into [U_MIN, U_MAX]; reject non-finite input."""
    u = _real("dual weight", u, open_low=True, open_high=True, error=ValueError)
    return min(max(u, U_MIN), U_MAX)


def validate_dual(u: float) -> float:
    """Check that ``u`` is finite and at least U_MIN; return it as a float."""
    return _real("dual weight", u, U_MIN, open_high=True, error=ValueError)


@dataclass(frozen=True)
class ConfusionSummary:
    """Weighted confusion counts of a hard classifier on a dataset.

    ``b`` already contains the additive regularizer ``b_reg``, so every
    downstream formula can use ``b`` directly without re-adding it.

    Attributes:
        s: weighted true positives (selected signal weight).
        b: weighted false positives plus ``b_reg``.
        p: total signal weight in the dataset.
        b_reg: the additive part of ``b`` (>= 0).
    """

    s: float
    b: float
    p: float
    b_reg: float = 0.0

    def __post_init__(self) -> None:
        # the derived counts are checked like the stored ones: s > p shows as
        # a negative s_tilde, and an overflowing s + b as an infinite n
        for name in ("s", "b", "p", "s_tilde", "n", "b_reg"):
            _real(name, getattr(self, name), -_ABS_TOL, open_high=True, error=ValueError)
        if self.b_reg > self.b + _ABS_TOL:
            raise ValueError("b cannot be smaller than its additive part b_reg")

    @classmethod
    def from_counts(
        cls, s: float, background: float, p: float, b_reg: float = 0.0
    ) -> "ConfusionSummary":
        """Build a summary from raw counts, folding ``b_reg`` into ``b``; both
        are checked first, over the constructor's interval for ``b``."""
        background = _real("background", background, -_ABS_TOL, open_high=True, error=ValueError)
        b_reg = _real("b_reg", b_reg, -_ABS_TOL, open_high=True, error=ValueError)
        return cls(s=s, b=background + b_reg, p=p, b_reg=b_reg)

    @property
    def s_tilde(self) -> float:
        """Weighted false negatives, ``p - s``."""
        return self.p - self.s

    @property
    def n(self) -> float:
        """Weighted predicted positives, ``s + b``."""
        return self.s + self.b

    @property
    def raw_background(self) -> float:
        """Selected background weight without the additive regularizer."""
        return self.b - self.b_reg


ArrayLike = Union[float, np.ndarray]


def _elementwise(kernel: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """Lift a kernel written for float arrays of at least one dimension.

    The lifted function takes a scalar or an array of any shape and returns
    a Python float for 0-d input, an array of the input's shape otherwise.
    """

    @functools.wraps(kernel)
    def lifted(x: ArrayLike) -> ArrayLike:
        arr = np.asarray(x, dtype=float)
        out = kernel(np.atleast_1d(arr))
        return out.item() if arr.ndim == 0 else out

    return lifted


_SERIES_CUT = 0.01


def _near_zero_series(
    out: np.ndarray, x: np.ndarray, coeffs: tuple[float, ...], divisor: float
) -> None:
    """Overwrite ``out`` where ``|x| < _SERIES_CUT`` with a truncated series.

    The series is ``x^2 (c_0 + x (c_1 + ... + x (c_last + x / divisor)))`` in
    Horner form, evaluated on the selected entries only; with none selected
    it returns at once, as the grid suite's blocks away from 0 do.
    """
    small = np.abs(x) < _SERIES_CUT
    if not small.any():
        return
    xs = x[small]
    acc = coeffs[-1] + xs / divisor
    for c in reversed(coeffs[:-1]):
        acc = c + xs * acc
    out[small] = xs * xs * acc


# sum_{k>=2} (-1)^k t^k / (k (k - 1)) and sum_{k>=2} u^k / k!, through k = 9
_F2_SERIES = (1.0 / 2.0, -1.0 / 6.0, 1.0 / 12.0, -1.0 / 20.0, 1.0 / 30.0, -1.0 / 42.0, 1.0 / 56.0)
_F2_CONJUGATE_SERIES = (
    1.0 / 2.0, 1.0 / 6.0, 1.0 / 24.0, 1.0 / 120.0, 1.0 / 720.0, 1.0 / 5040.0, 1.0 / 40320.0
)


@_elementwise
def _f2(t: np.ndarray) -> np.ndarray:
    """(1 + t) * ln(1 + t) - t, series-evaluated near 0 to avoid cancellation."""
    out = (1.0 + t) * np.log1p(t)
    # f(inf) = inf; subtracting there would give inf - inf = nan
    np.subtract(out, t, out=out, where=~np.isinf(t))
    _near_zero_series(out, t, _F2_SERIES, -72.0)
    return out


@_elementwise
def _f2_conjugate(u: np.ndarray) -> np.ndarray:
    """exp(u) - u - 1, series-evaluated near 0 to avoid cancellation."""
    out = np.expm1(u)
    out -= u
    _near_zero_series(out, u, _F2_CONJUGATE_SERIES, 362880.0)
    return out


@_elementwise
def _f2_prime(t: np.ndarray) -> np.ndarray:
    return np.log1p(t)


@_elementwise
def _f3(t: np.ndarray) -> np.ndarray:
    return 0.5 * t * t


@_elementwise
def _f3_prime(t: np.ndarray) -> np.ndarray:
    return t + 0.0


@_elementwise
def _sqrt2x(x: np.ndarray) -> np.ndarray:
    return np.sqrt(2.0 * x)


@dataclass(frozen=True)
class SignificanceMeasure:
    """A conjugate triple plus outer transform defining one measure.

    All four evaluators must accept scalars and numpy arrays and must
    satisfy ``f(0) = f'(0) = f_conjugate(0) = 0`` with ``f`` convex on the
    nonnegative axis and ``h`` increasing.
    """

    f: Callable[[ArrayLike], ArrayLike]
    f_conjugate: Callable[[ArrayLike], ArrayLike]
    f_prime: Callable[[ArrayLike], ArrayLike]
    h: Callable[[ArrayLike], ArrayLike]
    name: str = "custom"


AMS2 = SignificanceMeasure(
    f=_f2,
    f_conjugate=_f2_conjugate,
    f_prime=_f2_prime,
    h=_sqrt2x,
    name="ams2",
)

AMS3 = SignificanceMeasure(
    f=_f3,
    f_conjugate=_f3,  # x^2 / 2 is its own conjugate
    f_prime=_f3_prime,
    h=_sqrt2x,
    name="ams3",
)

_BUILTINS = {"ams2": AMS2, "ams3": AMS3}


def resolve_measure(measure: Union[str, SignificanceMeasure]) -> SignificanceMeasure:
    """Turn a measure name ("ams2", "ams3", in any case) or instance into an instance."""
    if isinstance(measure, SignificanceMeasure):
        return measure
    if isinstance(measure, str):
        measure = measure.lower()
    return _BUILTINS[_choice("measure", measure, tuple(_BUILTINS), ValueError)]


def custom_measure(
    f: Callable[[ArrayLike], ArrayLike],
    f_conjugate: Callable[[ArrayLike], ArrayLike],
    f_prime: Callable[[ArrayLike], ArrayLike],
    h: Callable[[ArrayLike], ArrayLike],
    name: str = "custom",
) -> SignificanceMeasure:
    """Register a user-supplied measure, checking the triple's consistency.

    The derivative is checked against central finite differences
    (eps = 1e-6, tolerance 1e-4) on a sample of the nonnegative axis, and
    the conventions f(0) = 0, f*(0) = 0, f* >= 0 are verified.  Evaluators
    are treated as black boxes; no symbolic differentiation is attempted.
    Every check is written so that a NaN fails it.
    """
    eps = 1e-6
    for t in np.geomspace(1e-3, 50.0, 25):
        fd = (float(f(t + eps)) - float(f(t - eps))) / (2.0 * eps)
        analytic = float(f_prime(t))
        if not abs(fd - analytic) <= 1e-4 * max(1.0, abs(analytic)):
            raise ValueError(
                f"f_prime inconsistent with f at t={t!r}: "
                f"finite difference {fd!r} vs supplied {analytic!r}"
            )
    if not abs(float(f(0.0))) <= _ABS_TOL:
        raise ValueError("custom measure requires f(0) = 0")
    if not abs(float(f_conjugate(0.0))) <= _ABS_TOL:
        raise ValueError("custom measure requires f_conjugate(0) = 0")
    for u in np.geomspace(1e-3, U_MAX, 10):
        if not float(f_conjugate(u)) >= -_ABS_TOL:
            raise ValueError(f"f_conjugate must be nonnegative on [0, inf); fails at u={u!r}")
    return SignificanceMeasure(f=f, f_conjugate=f_conjugate, f_prime=f_prime, h=h, name=name)


def confusion_summary(dataset, predictions, b_reg: float = 0.0) -> ConfusionSummary:
    """Weighted confusion counts of hard predictions against a dataset.

    ``dataset`` needs ``labels`` and ``weights`` attributes (one entry per
    example, labels in {-1, +1}, weights > 0).  ``predictions`` is a
    matching sequence of labels in {-1, +1}.
    """
    b_reg = _real("b_reg", b_reg, 0.0, open_high=True, error=ValueError)
    labels = _labels("labels", dataset.labels)
    weights = _array("weights", dataset.weights, float)
    preds = _labels("predictions", predictions)
    if weights.shape != labels.shape:
        raise ValueError(f"weights shape {weights.shape} does not match labels {labels.shape}")
    if preds.shape != labels.shape:
        raise ValueError(
            f"predictions length {preds.shape} does not match dataset {labels.shape}"
        )
    selected = preds == 1
    signal = labels == 1
    s = float(weights[selected & signal].sum())
    fp = float(weights[selected & ~signal].sum())
    p = float(weights[signal].sum())
    return ConfusionSummary.from_counts(s, fp, p, b_reg)


def significance(summary: ConfusionSummary, measure: SignificanceMeasure) -> float:
    """``significance_curve`` at one summary, but where it would give +inf,
    s > 0 with b <= 0, raises DegenerateInputError.  An ``s`` below 0 within
    the tolerance gives 0 at any b, as s = 0 does."""
    if summary.s > 0.0 and summary.b <= 0.0:
        raise DegenerateInputError(
            "significance undefined: no background weight selected and b_reg = 0"
        )
    return float(significance_curve(summary.s, summary.b, measure))


def significance_curve(
    s: np.ndarray, b: np.ndarray, measure: SignificanceMeasure
) -> np.ndarray:
    """Vectorized significance over paired (s, b) arrays.

    ``b`` must already include any regularizer.  Entries with s = 0 give 0;
    entries with b = 0 and s > 0 give +inf (the supremum of the measure as
    the selected background vanishes).  Every entry of ``s`` and ``b`` must
    lie in [-1e-9, inf), the interval ``ConfusionSummary`` accepts; a NaN,
    infinite or more negative one raises ValueError.  An ``s`` below 0 within
    that tolerance gives 0, as s = 0 does.  The one copy of the formula.
    """
    s = np.asarray(s, dtype=float)
    b = np.asarray(b, dtype=float)
    # one check of both arrays, written so that NaN fails it
    if not ((s >= -_ABS_TOL) & (s < math.inf) & (b >= -_ABS_TOL) & (b < math.inf)).all():
        raise ValueError(f"s and b must be real numbers in [{-_ABS_TOL:g}, inf)")
    # a negative s over a small b would leave f's domain: AMS2's log1p warns
    # and gives NaN below s / b = -1, and AMS3 squares it into a positive value
    s = np.maximum(s, 0.0)
    ok = b > 0.0
    # a subnormal b can overflow s / b, and a huge b the product b * f(s / b);
    # either gives +inf without a warning
    with np.errstate(over="ignore"):
        ratio = np.where(ok, s / np.where(ok, b, 1.0), 0.0)
        values = np.asarray(measure.h(b * np.asarray(measure.f(ratio))))
    values = np.where(ok, values, np.inf)
    return np.where(s == 0.0, 0.0, values)


def dual_risk(
    summary: ConfusionSummary, u: ArrayLike, measure: SignificanceMeasure
) -> ArrayLike:
    """The dual objective b * f*(u) + s_tilde * u - p * u.

    Convex in ``u``; its minimum over the dual domain equals
    ``-significance(summary)**2 / 2`` for the built-in measures.  Accepts a
    scalar or an array of ``u`` values.
    """
    arr = np.asarray(u, dtype=float)
    out = summary.b * np.asarray(measure.f_conjugate(arr)) + (summary.s_tilde - summary.p) * arr
    return out.item() if arr.ndim == 0 else out


def optimal_u(summary: ConfusionSummary, measure: SignificanceMeasure) -> float:
    """Closed-form minimizer of the dual risk, clamped to [U_MIN, U_MAX].

    f'(s / b) evaluates to ln(s / b + 1) for the Poisson-form measure and
    s / b for the quadratic one.  The s = 0 limit returns U_MIN rather than
    0 so the next round's signal cost stays positive.
    """
    if summary.b <= 0.0:
        raise DegenerateInputError("optimal dual weight undefined: b + b_reg = 0")
    if summary.s == 0.0:
        return U_MIN
    u = float(measure.f_prime(summary.s / summary.b))
    if math.isinf(u):
        raise DegenerateInputError(
            f"optimal dual weight undefined: f'(s / b) is infinite at s={summary.s!r}, "
            f"b={summary.b!r}"
        )
    return clamp_dual(u)


def fenchel_young_gap(measure: SignificanceMeasure, a: float, c: float) -> float:
    """a * f(c/a) - [c * f'(c/a) - a * f*(f'(c/a))], zero up to roundoff.

    The two sides agree exactly when (f, f*, f') is a consistent conjugate
    triple, so this is a numerical oracle for measure implementations: for
    the built-ins the returned magnitude stays below 1e-9 at moderate
    scales.
    """
    a = _real("a", a, 0.0, open_low=True, open_high=True, error=ValueError)
    c = _real("c", c, 0.0, open_high=True, error=ValueError)
    t = c / a
    u = float(measure.f_prime(t))
    lhs = a * float(measure.f(t))
    rhs = c * u - a * float(measure.f_conjugate(u))
    return lhs - rhs
