"""Tests for the significance measures and their dual machinery.

Expected values marked "frozen" were computed independently with 40-digit
arithmetic and pasted in as literals, so these tests do not trust the code
under test to generate its own oracle.
"""

import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from amscascade.checks import _GRID_BLOCK, GRID_POINTS, _grid_block
from amscascade.errors import DegenerateInputError
from amscascade.significance import (
    _SERIES_CUT,
    AMS2,
    AMS3,
    U_MAX,
    U_MIN,
    ConfusionSummary,
    clamp_dual,
    confusion_summary,
    custom_measure,
    dual_risk,
    fenchel_young_gap,
    optimal_u,
    resolve_measure,
    significance,
    significance_curve,
    validate_dual,
    _f2,
    _f2_conjugate,
)

# frozen 40-digit oracle values
AMS2_100_400 = 4.8107745025317654943
RISK_AT_OPT_100_400 = -11.571775657104877883
LN_125 = 0.22314355131420975577
LN_2 = 0.69314718055994530942
ONE_MINUS_2LN2 = -0.38629436111989061883
F2_SMALL = {
    1e-3: 4.9983341661669997621e-7,
    5e-4: 1.2497917187343802065e-7,
    1e-4: 4.9998333416661667e-9,
    2e-3: 1.9986679984021302903e-6,
}
F2_CONJ_SMALL = {
    1e-3: 5.0016670834166805575e-7,
    5e-4: 1.2502083593776043837e-7,
    1e-4: 5.0001666708334166681e-9,
    2e-3: 2.001334000266755581e-6,
}


def make_summary(s, b, p=None, b_reg=0.0):
    if p is None:
        p = s
    return ConfusionSummary.from_counts(s=s, background=b - b_reg, p=p, b_reg=b_reg)


class TestMeasureFunctions:
    def test_f2_small_argument_branch(self):
        # the series branch must agree with high-precision reference values
        for t, expected in F2_SMALL.items():
            np.testing.assert_allclose(AMS2.f(t), expected, rtol=1e-13)

    def test_f2_conjugate_small_argument_branch(self):
        for u, expected in F2_CONJ_SMALL.items():
            np.testing.assert_allclose(AMS2.f_conjugate(u), expected, rtol=1e-13)

    def test_f2_large_arguments(self):
        t = 3.0
        np.testing.assert_allclose(AMS2.f(t), 4.0 * math.log(4.0) - 3.0, rtol=1e-14)
        np.testing.assert_allclose(
            AMS2.f_conjugate(2.0), math.exp(2.0) - 3.0, rtol=1e-14
        )

    def test_f3_is_quadratic(self):
        rng = np.random.default_rng(42)
        t = rng.uniform(0.0, 50.0, 100)
        np.testing.assert_allclose(AMS3.f(t), t * t / 2.0, rtol=0, atol=0)
        np.testing.assert_allclose(AMS3.f_conjugate(t), t * t / 2.0, rtol=0, atol=0)
        np.testing.assert_allclose(AMS3.f_prime(t), t, rtol=0, atol=0)

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(42)
        eps = 1e-6
        for measure in (AMS2, AMS3):
            for t in rng.uniform(0.01, 80.0, 50):
                fd = (measure.f(t + eps) - measure.f(t - eps)) / (2.0 * eps)
                np.testing.assert_allclose(measure.f_prime(t), fd, rtol=1e-7)

    def test_conjugate_nonnegative_and_zero_at_zero(self):
        rng = np.random.default_rng(42)
        for measure in (AMS2, AMS3):
            assert measure.f(0.0) == 0.0
            assert measure.f_conjugate(0.0) == 0.0
            u = rng.uniform(0.0, 20.0, 200)
            assert np.all(np.asarray(measure.f_conjugate(u)) >= 0.0)

    def test_vectorized_matches_scalar(self):
        t = np.array([1e-5, 1e-3, 0.5, 7.0])
        for measure in (AMS2, AMS3):
            vec = np.asarray(measure.f(t))
            for i, ti in enumerate(t):
                assert vec[i] == measure.f(float(ti))

    def test_resolve_measure(self):
        assert resolve_measure("ams2") is AMS2
        assert resolve_measure("AMS3") is AMS3
        assert resolve_measure(AMS2) is AMS2
        with pytest.raises(ValueError):
            resolve_measure("ams4")


def _reference_f2(t):
    """``_f2`` as a whole-array ``np.where`` blend of series and closed form.

    The oracle for the kernel that evaluates the series only where
    ``|t| < 0.01``: both must give the same bytes and the same warnings.
    """
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    small = np.abs(arr) < 0.01
    ts = np.where(small, arr, 0.0)
    series = ts * ts * (
        1.0 / 2.0
        + ts * (
            -1.0 / 6.0
            + ts * (
                1.0 / 12.0
                + ts * (
                    -1.0 / 20.0
                    + ts * (1.0 / 30.0 + ts * (-1.0 / 42.0 + ts * (1.0 / 56.0 - ts / 72.0)))
                )
            )
        )
    )
    tl = np.where(small, 1.0, arr)
    # at +-inf the closed form skips "- t": f(inf) = inf, not inf - inf = nan
    direct = (1.0 + tl) * np.log1p(tl) - np.where(np.isinf(arr), 0.0, tl)
    out = np.where(small, series, direct)
    return out.item() if scalar else out


def _reference_f2_conjugate(u):
    """``_f2_conjugate`` as a whole-array ``np.where`` blend (see above)."""
    arr = np.asarray(u, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    small = np.abs(arr) < 0.01
    us = np.where(small, arr, 0.0)
    series = us * us * (
        1.0 / 2.0
        + us * (
            1.0 / 6.0
            + us * (
                1.0 / 24.0
                + us * (
                    1.0 / 120.0
                    + us * (1.0 / 720.0 + us * (1.0 / 5040.0 + us * (1.0 / 40320.0 + us / 362880.0)))
                )
            )
        )
    )
    direct = np.expm1(arr) - arr
    out = np.where(small, series, direct)
    return out.item() if scalar else out


_KERNELS = [(_f2, _reference_f2), (_f2_conjugate, _reference_f2_conjugate)]
_KERNEL_IDS = ["f2", "f2_conjugate"]


def _elementwise_reference(formula):
    """``formula`` on a float array; a Python float for 0-d input."""

    def reference(x):
        arr = np.asarray(x, dtype=float)
        out = np.asarray(formula(arr))
        return out.item() if arr.ndim == 0 else out

    return reference


def _written_out_risk(summary, u, measure):
    """``summary.b * f*(u) + (s_tilde - p) * u``, in that order, as one
    expression; a Python float for 0-d ``u``."""
    arr = np.asarray(u, dtype=float)
    out = summary.b * np.asarray(measure.f_conjugate(arr)) + (summary.s_tilde - summary.p) * arr
    return out.item() if arr.ndim == 0 else out


_RISK_SUMMARY = ConfusionSummary.from_counts(s=3.0, background=7.0, p=5.0, b_reg=1.0)


def _risk(measure):
    def kernel(u):
        return dual_risk(_RISK_SUMMARY, u, measure)

    def reference(u):
        return _written_out_risk(_RISK_SUMMARY, u, measure)

    return kernel, reference


# every element-wise evaluator of the module, each with an independent
# statement of its formula under the same 0-d / array convention
_ELEMENTWISE = _KERNELS + [
    (AMS2.f_prime, _elementwise_reference(np.log1p)),
    (AMS3.f, _elementwise_reference(lambda t: 0.5 * t * t)),
    (AMS3.f_prime, _elementwise_reference(lambda t: t + 0.0)),
    (AMS2.h, _elementwise_reference(lambda x: np.sqrt(2.0 * x))),
    _risk(AMS2),
    _risk(AMS3),
]
_ELEMENTWISE_IDS = _KERNEL_IDS + [
    "f2_prime", "f3", "f3_prime", "sqrt2x", "dual_risk_ams2", "dual_risk_ams3",
]


def _cut_band():
    """Every float within 200 ulps of each of +-cut, and a linear band
    around them."""
    cut = _SERIES_CUT
    near = [cut]
    for _ in range(200):
        near.append(np.nextafter(near[-1], 0.0))
    far = [cut]
    for _ in range(200):
        far.append(np.nextafter(far[-1], 1.0))
    ulps = np.array(near + far)
    band = np.linspace(0.9 * cut, 1.1 * cut, 20001)
    both = np.concatenate([ulps, band])
    return np.concatenate([both, -both])


_EDGES = np.array(
    [
        0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300,
        _SERIES_CUT, -_SERIES_CUT,
        np.nextafter(_SERIES_CUT, 0.0), np.nextafter(-_SERIES_CUT, 0.0),
        0.00999999, 1.0, -0.5,
        # log1p(-1) = -inf, log1p below -1 is NaN
        -1.0, -2.0,
        # expm1 overflows past ~709.78
        709.0, 710.0, 1e308, -1e308,
        np.inf, -np.inf, np.nan,
    ]
)


class TestKernelOracle:
    """Series-only-where-small kernels against the ``np.where`` reference:
    byte-equal outputs, the same warnings, and Python floats for 0-d input."""

    @staticmethod
    def _run(kernel, x):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = kernel(x)
        return out, [(w.category, str(w.message)) for w in caught]

    def _assert_matches(self, kernel, reference, x):
        got, got_warnings = self._run(kernel, x)
        want, want_warnings = self._run(reference, x)
        assert type(got) is type(want)
        assert np.asarray(got).shape == np.asarray(want).shape
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert got_warnings == want_warnings
        return got_warnings

    @pytest.mark.parametrize("kernel,reference", _KERNELS, ids=_KERNEL_IDS)
    def test_check_grid(self, kernel, reference):
        grid = np.linspace(0.0, U_MAX, GRID_POINTS)
        assert np.count_nonzero(grid < _SERIES_CUT) > 500
        assert self._assert_matches(kernel, reference, grid) == []

    @pytest.mark.parametrize("kernel,reference", _KERNELS, ids=_KERNEL_IDS)
    def test_no_entry_near_zero(self, kernel, reference):
        # the series step returns at once here, as on the grid suite's
        # blocks past the first
        block = np.linspace(0.0, U_MAX, GRID_POINTS)[8192:16384]
        away = np.linspace(_SERIES_CUT, 30.0, 5000)
        x = np.concatenate([block, away, -away, [1e308, np.inf, -np.inf, np.nan]])
        assert not np.any(np.abs(x) < _SERIES_CUT)
        self._assert_matches(kernel, reference, x)
        self._assert_matches(kernel, reference, block)

    @pytest.mark.parametrize("kernel,reference", _KERNELS, ids=_KERNEL_IDS)
    def test_band_around_cut(self, kernel, reference):
        self._assert_matches(kernel, reference, _cut_band())

    @pytest.mark.parametrize("scale", [1e-4, 1e-2, 1.0, 10.0])
    @pytest.mark.parametrize("kernel,reference", _KERNELS, ids=_KERNEL_IDS)
    def test_exponential_draws(self, kernel, reference, scale):
        rng = np.random.default_rng(int(1e4 * scale))
        draws = rng.exponential(scale, 50_000)
        self._assert_matches(kernel, reference, draws)
        self._assert_matches(kernel, reference, -draws)
        # a 2-d input keeps its shape
        self._assert_matches(kernel, reference, draws.reshape(250, 200))

    @pytest.mark.parametrize("kernel,reference", _KERNELS, ids=_KERNEL_IDS)
    def test_edge_values(self, kernel, reference):
        warned = self._assert_matches(kernel, reference, _EDGES)
        # the edges reach the closed form's overflow and invalid paths
        assert warned
        for x in _EDGES:
            self._assert_matches(kernel, reference, x)
            self._assert_matches(kernel, reference, np.array([x]))

    @pytest.mark.parametrize(
        "x", [0.0, -0.0, 1e-3, -5e-3, _SERIES_CUT, 0.5, 3.0, 2, np.float64(0.004), np.array(1e-3)]
    )
    @pytest.mark.parametrize("kernel,reference", _ELEMENTWISE, ids=_ELEMENTWISE_IDS)
    def test_zero_dim_returns_python_float(self, kernel, reference, x):
        self._assert_matches(kernel, reference, x)
        assert type(self._run(kernel, x)[0]) is float

    @pytest.mark.parametrize("kernel,reference", _ELEMENTWISE, ids=_ELEMENTWISE_IDS)
    def test_empty_and_input_untouched(self, kernel, reference):
        self._assert_matches(kernel, reference, np.array([]))
        x = np.array([1e-3, 0.5, -2e-3])
        before = x.tobytes()
        self._run(kernel, x)
        assert x.tobytes() == before

    @pytest.mark.parametrize("kernel,reference", _ELEMENTWISE, ids=_ELEMENTWISE_IDS)
    def test_shapes_kept(self, kernel, reference):
        rng = np.random.default_rng(7)
        for shape in [(1,), (5,), (1, 1), (3, 4), (2, 3, 2)]:
            x = rng.exponential(0.5, size=shape)
            x.flat[0] = 1e-3
            got = self._run(kernel, x)[0]
            assert isinstance(got, np.ndarray) and got.shape == shape
            self._assert_matches(kernel, reference, x)
        # a Python list is an array too
        self._assert_matches(kernel, reference, [1e-3, 2.0])


class TestFenchelYoung:
    def test_normalized_identity_on_grid(self):
        # f(t) + f*(f'(t)) = t f'(t) within 1e-9 for t in (0, 100]
        t = np.geomspace(1e-6, 100.0, 500)
        for measure in (AMS2, AMS3):
            lhs = np.asarray(measure.f(t)) + np.asarray(
                measure.f_conjugate(np.asarray(measure.f_prime(t)))
            )
            rhs = t * np.asarray(measure.f_prime(t))
            assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_gap_hand_example_quadratic(self):
        # a=2, c=3: both sides evaluate to 2.25
        assert fenchel_young_gap(AMS3, 2.0, 3.0) == 0.0

    def test_gap_zero_at_c_zero(self):
        for measure in (AMS2, AMS3):
            assert fenchel_young_gap(measure, 5.0, 0.0) == 0.0

    def test_gap_below_tolerance_random_pairs(self):
        # scales chosen so float noise stays well under the 1e-9 contract
        rng = np.random.default_rng(42)
        for measure in (AMS2, AMS3):
            for _ in range(1000):
                a = rng.uniform(0.5, 1e4)
                c = rng.uniform(0.0, 1e3)
                assert abs(fenchel_young_gap(measure, a, c)) <= 1e-9

    def test_gap_400_100(self):
        assert abs(fenchel_young_gap(AMS2, 400.0, 100.0)) <= 1e-9

    def test_gap_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            fenchel_young_gap(AMS2, 0.0, 1.0)
        with pytest.raises(ValueError):
            fenchel_young_gap(AMS2, 1.0, -1.0)


class TestConfusionSummary:
    def test_direct_weighted_count(self):
        data = SimpleNamespace(labels=np.array([1, -1]), weights=np.array([2.0, 3.0]))
        summary = confusion_summary(data, np.array([1, 1]), b_reg=0.0)
        assert summary.s == 2.0
        assert summary.b == 3.0
        assert summary.p == 2.0
        assert summary.s_tilde == 0.0
        assert summary.n == 5.0

    def test_all_negative_predictions(self):
        data = SimpleNamespace(
            labels=np.array([1, 1, -1]), weights=np.array([1.0, 2.0, 4.0])
        )
        summary = confusion_summary(data, np.array([-1, -1, -1]), b_reg=0.0)
        assert summary.s == 0.0
        assert summary.b == 0.0
        assert summary.s_tilde == summary.p == 3.0

    def test_regularizer_folded_into_b(self):
        # hand count: only the w=1.5 signal selected, so b is the bare b_reg
        data = SimpleNamespace(
            labels=np.array([1, 1, -1]), weights=np.array([1.5, 0.5, 4.0])
        )
        summary = confusion_summary(data, np.array([1, -1, -1]), b_reg=10.0)
        assert summary.s == 1.5
        assert summary.b == 10.0
        assert summary.s_tilde == 0.5
        assert summary.b_reg == 10.0
        assert summary.raw_background == 0.0

    def test_length_mismatch_rejected(self):
        data = SimpleNamespace(labels=np.array([1, -1]), weights=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            confusion_summary(data, np.array([1]), b_reg=0.0)

    def test_bad_label_rejected(self):
        data = SimpleNamespace(labels=np.array([1, -1]), weights=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            confusion_summary(data, np.array([1, 0]), b_reg=0.0)

    def test_invariant_validation(self):
        interval = r" must be a real number in \[-1e-09, inf\), got "
        with pytest.raises(ValueError, match="^s" + interval + "-1.0$"):
            ConfusionSummary(s=-1.0, b=0.0, p=1.0)
        # s > p shows as a negative s_tilde = p - s
        with pytest.raises(ValueError, match="^s_tilde" + interval + "-1.0$"):
            ConfusionSummary(s=2.0, b=0.0, p=1.0)
        with pytest.raises(ValueError, match="b_reg"):
            ConfusionSummary(s=1.0, b=1.0, p=1.0, b_reg=5.0)
        # n = s + b is checked like a stored count: an overflow is not finite
        with pytest.raises(ValueError, match="^n" + interval + "inf$"):
            ConfusionSummary.from_counts(s=1e308, background=1e308, p=1e308)

    def test_from_counts(self):
        summary = ConfusionSummary.from_counts(s=3.0, background=7.0, p=4.0, b_reg=10.0)
        assert summary.b == 17.0
        assert summary.raw_background == 7.0
        assert summary.s_tilde == 1.0
        assert summary.n == 20.0


class TestSignificance:
    def test_quadratic_closed_form_hand_value(self):
        summary = make_summary(s=2.0, b=8.0)
        np.testing.assert_allclose(
            significance(summary, AMS3), 0.7071067811865475244, rtol=1e-15
        )

    def test_zero_signal_gives_zero(self):
        summary = make_summary(s=0.0, b=5.0, p=3.0)
        assert significance(summary, AMS2) == 0.0
        assert significance(make_summary(s=0.0, b=0.0), AMS3) == 0.0

    def test_poisson_form_frozen_oracle(self):
        summary = make_summary(s=100.0, b=400.0)
        np.testing.assert_allclose(significance(summary, AMS2), AMS2_100_400, rtol=1e-12)

    def test_degenerate_error(self):
        with pytest.raises(DegenerateInputError):
            significance(make_summary(s=1.0, b=0.0, p=1.0), AMS2)

    @pytest.mark.parametrize("measure", [AMS2, AMS3], ids=["ams2", "ams3"])
    @pytest.mark.parametrize("s", [-1e-9, -1e-10, -5e-324, -0.0])
    def test_negative_signal_within_the_tolerance_gives_zero(self, measure, s):
        # at b = 1e-12, s = -1e-10 gives s / b = -100: AMS2's log1p would warn
        # and give NaN, and AMS3 would square it into a positive 1e-4
        # and at b = 0 it gives 0, as significance_curve does, not an error
        for b in (0.0, 1e-12, 1e6):
            summary = ConfusionSummary(s=s, b=b, p=0.0)
            assert significance(summary, measure) == 0.0
            assert significance_curve(summary.s, summary.b, measure) == 0.0

    def test_quadratic_closed_form_random(self):
        # AMS3 significance must equal s / sqrt(b) to 1e-12
        rng = np.random.default_rng(42)
        for _ in range(200):
            s = rng.uniform(0.1, 1e4)
            b = rng.uniform(0.1, 1e6)
            summary = make_summary(s=s, b=b)
            np.testing.assert_allclose(
                significance(summary, AMS3), s / math.sqrt(b), rtol=1e-12
            )

    def test_monotone_in_signal(self):
        rng = np.random.default_rng(42)
        for measure in (AMS2, AMS3):
            for _ in range(100):
                b = rng.uniform(0.5, 1e5)
                s_lo, s_hi = np.sort(rng.uniform(0.0, 1e4, 2))
                lo = significance(make_summary(s=s_lo, b=b, p=s_hi), measure)
                hi = significance(make_summary(s=s_hi, b=b, p=s_hi), measure)
                assert hi >= lo

    @pytest.mark.parametrize("measure", [AMS2, AMS3])
    def test_overflowing_ratio_gives_inf(self, measure):
        # s / b overflows to inf with a subnormal background; no warning is
        # raised (warnings are errors here), and AMS2's f(inf) is not inf - inf
        summary = ConfusionSummary.from_counts(s=1e6, background=1e-309, p=1e6)
        assert significance(summary, measure) == math.inf
        curve = significance_curve(np.array([1e6, 2.0]), np.array([1e-309, 8.0]), measure)
        assert curve[0] == math.inf and curve[1] == significance(make_summary(2.0, 8.0), measure)

    @pytest.mark.parametrize("measure", [AMS2, AMS3])
    def test_overflowing_product_does_not_warn(self, measure):
        # b * f(s / b) overflows although s / b = 1e8 does not; the true
        # significance is about 5.9e154 (AMS2) or 1e158 (AMS3), and the
        # overflow gives inf, without a warning
        summary = ConfusionSummary.from_counts(s=1e308, background=1e300, p=1e308)
        assert significance(summary, measure) > 1e150

    @pytest.mark.parametrize(
        "measure, s, background",
        [(AMS3, 1e6, 1e-200), (AMS2, 1e6, 1e6 / 3e305)],
        ids=["ams3", "ams2"],
    )
    def test_overflowing_kernel_gives_inf_without_warning(self, measure, s, background):
        # s / b is finite but f(s / b) overflows: AMS3's s / sqrt(b) is 1e106
        # and AMS2's s / b is 3e305, above its overflow near 2.5e305.  The
        # documented degradation is +inf, with no warning (warnings are errors)
        assert significance_curve(s, background, measure) == math.inf
        summary = ConfusionSummary.from_counts(s=s, background=background, p=s)
        assert significance(summary, measure) == math.inf

    def test_curve_matches_scalar_and_handles_edges(self):
        s = np.array([0.0, 2.0, 3.0])
        b = np.array([5.0, 8.0, 0.0])
        curve = significance_curve(s, b, AMS3)
        assert curve[0] == 0.0
        np.testing.assert_allclose(curve[1], 2.0 / math.sqrt(8.0), rtol=1e-15)
        assert curve[2] == math.inf

    @pytest.mark.parametrize("measure", [AMS2, AMS3])
    @pytest.mark.parametrize(
        "s, b",
        [
            ([-1.0], [1.0]),
            ([math.nan], [1.0]),
            ([2.0, -2e-9], [1.0, 1.0]),
            ([1.0], [-1.0]),
            ([1.0], [math.nan]),
            ([1.0], [math.inf]),
            ([math.inf], [1.0]),
            (-1.0, 1.0),
        ],
        ids=[
            "negative-s", "nan-s", "s-below-tolerance", "negative-b", "nan-b",
            "inf-b", "inf-s", "scalar",
        ],
    )
    def test_curve_rejects_entries_outside_the_summary_interval(self, measure, s, b):
        # outside the interval ConfusionSummary accepts, AMS2's log1p and the
        # product b * f(s / b) would warn and give NaN, and a NaN s would give
        # NaN silently
        with pytest.raises(ValueError, match=r"in \[-1e-09, inf\)"):
            significance_curve(np.asarray(s), np.asarray(b), measure)
        with pytest.raises(ValueError):
            ConfusionSummary(s=float(np.ravel(s)[-1]), b=float(np.ravel(b)[-1]), p=10.0)

    @pytest.mark.parametrize("measure", [AMS2, AMS3])
    def test_curve_takes_entries_within_the_tolerance(self, measure):
        # -1e-9 is the summary's tolerance, so such entries score as before
        s, b = np.array([-1e-9, 0.0, 1.0]), np.array([1.0, -1e-9, 0.0])
        curve = significance_curve(s, b, measure)
        summary = ConfusionSummary(s=-1e-9, b=1.0, p=0.0)
        assert curve[0] == significance(summary, measure)
        assert curve[1] == 0.0 and curve[2] == math.inf


    @pytest.mark.parametrize("measure", [AMS2, AMS3], ids=["ams2", "ams3"])
    def test_curve_gives_zero_for_negative_signal_within_the_tolerance(self, measure):
        # each negative entry scores as s = 0 does, whatever its b, while the
        # positive entry keeps its bytes
        s = np.array([-1e-9, -1e-10, -1e-10, -0.0, 2.0, -1e-10])
        b = np.array([1e-12, 1e-12, 1e6, 1.0, 8.0, 0.0])
        curve = significance_curve(s, b, measure)
        expected = np.array([0.0, 0.0, 0.0, 0.0, significance_curve(2.0, 8.0, measure), 0.0])
        assert curve.tobytes() == expected.tobytes()


def _reference_significance(summary, measure):
    """significance() as the scalar formula on Python floats, for comparison
    with the same formula evaluated through significance_curve."""
    if summary.s <= 0.0:  # 0, or within the summary's tolerance of 0: scored as 0
        return 0.0
    if summary.b <= 0.0:
        raise DegenerateInputError("no background weight selected")
    return float(measure.h(summary.b * np.asarray(measure.f(summary.s / summary.b))))


def _outcome(evaluate, summary, measure):
    try:
        return float.hex(evaluate(summary, measure))
    except DegenerateInputError:
        return "degenerate"


# exact zeros and values within the summary's -1e-9 tolerance of zero; a
# positive background stays above 1e-3, so s / b cannot overflow
_SIGNAL = st.one_of(st.sampled_from([0.0, -0.0, -1e-9, -5e-10, 5e-10]), st.floats(0.0, 1e6))
_BACKGROUND = st.one_of(st.sampled_from([0.0, -0.0, -5e-10]), st.floats(1e-3, 1e7))


class TestSignificanceOnePath:
    @settings(
        max_examples=500,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        s=_SIGNAL,
        background=_BACKGROUND,
        b_reg=st.sampled_from([0.0, 10.0]),
        measure=st.sampled_from([AMS2, AMS3]),
    )
    @example(s=0.0, background=0.0, b_reg=0.0, measure=AMS2)
    @example(s=-1e-9, background=0.0, b_reg=0.0, measure=AMS3)
    @example(s=-5e-10, background=2.0, b_reg=0.0, measure=AMS2)
    @example(s=3.0, background=0.0, b_reg=0.0, measure=AMS2)
    @example(s=3.0, background=-5e-10, b_reg=0.0, measure=AMS3)
    def test_bitwise_equal_to_scalar_formula(self, s, background, b_reg, measure):
        assume(s + background >= -1e-9)  # the summary's own tolerance on n = s + b
        summary = ConfusionSummary.from_counts(
            s=s, background=background, p=max(s, 0.0), b_reg=b_reg
        )
        assert _outcome(significance, summary, measure) == _outcome(
            _reference_significance, summary, measure
        )


class TestDualRisk:
    def test_hand_value_quadratic(self):
        summary = make_summary(s=3.0, b=2.0, p=3.0)
        assert dual_risk(summary, 1.5, AMS3) == -2.25

    def test_zero_dual_gives_zero(self):
        summary = make_summary(s=7.0, b=11.0, p=9.0)
        for measure in (AMS2, AMS3):
            assert dual_risk(summary, 0.0, measure) == 0.0

    def test_hand_value_poisson(self):
        summary = make_summary(s=1.0, b=1.0, p=1.0)
        np.testing.assert_allclose(
            dual_risk(summary, LN_2, AMS2), ONE_MINUS_2LN2, rtol=1e-14
        )

    def test_vectorized_over_u(self):
        summary = make_summary(s=5.0, b=3.0, p=8.0)
        u = np.linspace(0.0, 4.0, 17)
        vec = dual_risk(summary, u, AMS2)
        for i, ui in enumerate(u):
            assert vec[i] == dual_risk(summary, float(ui), AMS2)

    def test_convexity_in_u(self):
        # random chords must lie above the function, 1e-12 slack
        rng = np.random.default_rng(42)
        for measure in (AMS2, AMS3):
            for _ in range(300):
                summary = make_summary(
                    s=rng.uniform(0.0, 10.0),
                    b=rng.uniform(0.1, 10.0),
                    p=10.0,
                )
                u1, u2 = np.sort(rng.uniform(0.0, 3.0, 2))
                lam = rng.uniform(0.0, 1.0)
                mid = dual_risk(summary, lam * u1 + (1 - lam) * u2, measure)
                chord = lam * dual_risk(summary, u1, measure) + (1 - lam) * dual_risk(
                    summary, u2, measure
                )
                assert mid <= chord + 1e-12


# measures whose conjugate returns a float32 array, a Python float for any
# input, or a list (a Python float for 0-d input)
_ODD_CONJUGATES = {
    "float32": replace(AMS3, f_conjugate=lambda u: np.asarray(0.5 * u * u, dtype=np.float32)),
    "python-float": replace(AMS3, f_conjugate=lambda u: 0.375),
    "list": replace(AMS3, f_conjugate=lambda u: (0.5 * np.asarray(u) ** 2).tolist()),
}

_RISK_POINTS = {
    "0-d-zero": 0.0,
    "0-d-float": 1.5,
    "0-d-u-max": U_MAX,
    "0-d-numpy-scalar": np.float64(0.004),
    "0-d-array": np.array(1e-3),
    "grid-block-first": _grid_block(0, _GRID_BLOCK, GRID_POINTS),
    "grid-block-middle": _grid_block(40 * _GRID_BLOCK, 41 * _GRID_BLOCK, GRID_POINTS),
    "grid-block-last": _grid_block(GRID_POINTS - 1000, GRID_POINTS, GRID_POINTS),
    "2-d": np.random.default_rng(3).uniform(0.0, U_MAX, (64, 128)),
}


class TestDualRiskContract:
    """``dual_risk`` adds into its linear term's array; it must still give
    the written-out expression's bits, as a float64 of ``u``'s shape."""

    @staticmethod
    def _assert_same(got, want, u):
        assert type(got) is type(want)
        if np.ndim(u) == 0:
            assert type(got) is float
        else:
            assert got.dtype == np.float64 and got.shape == np.shape(u)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("u", list(_RISK_POINTS.values()), ids=list(_RISK_POINTS))
    @pytest.mark.parametrize("b_reg", [0.0, 10.0])
    @pytest.mark.parametrize("measure", [AMS2, AMS3], ids=["ams2", "ams3"])
    def test_bits_of_the_written_out_expression(self, measure, b_reg, u):
        for s, background, p in [(3.0, 7.0, 5.0), (120.0, 4.5e4, 300.0), (0.0, 2.0, 1.0)]:
            summary = ConfusionSummary.from_counts(s=s, background=background, p=p, b_reg=b_reg)
            self._assert_same(
                dual_risk(summary, u, measure), _written_out_risk(summary, u, measure), u
            )

    @pytest.mark.parametrize("u", list(_RISK_POINTS.values()), ids=list(_RISK_POINTS))
    @pytest.mark.parametrize("kind", list(_ODD_CONJUGATES))
    def test_odd_conjugate_gives_float64_of_u_shape(self, kind, u):
        measure = _ODD_CONJUGATES[kind]
        summary = ConfusionSummary.from_counts(s=3.0, background=7.0, p=5.0, b_reg=10.0)
        want = _written_out_risk(summary, u, measure)
        self._assert_same(dual_risk(summary, u, measure), want, u)
        if kind == "float32" and np.ndim(u):
            # the conjugate term alone is float32: a risk built in its array
            # would be float32 too
            assert np.asarray(summary.b * measure.f_conjugate(u)).dtype == np.float32


class TestOptimalU:
    def test_equal_counts_poisson(self):
        summary = make_summary(s=4.0, b=4.0)
        np.testing.assert_allclose(optimal_u(summary, AMS2), LN_2, rtol=1e-15)

    def test_quadratic_is_ratio(self):
        summary = make_summary(s=3.0, b=2.0)
        assert optimal_u(summary, AMS3) == 1.5

    def test_poisson_frozen_oracle(self):
        summary = make_summary(s=100.0, b=400.0)
        np.testing.assert_allclose(optimal_u(summary, AMS2), LN_125, rtol=1e-15)

    def test_zero_signal_returns_floor(self):
        summary = make_summary(s=0.0, b=5.0, p=2.0)
        assert optimal_u(summary, AMS2) == U_MIN

    def test_degenerate_error(self):
        summary = make_summary(s=0.0, b=0.0, p=1.0)
        with pytest.raises(DegenerateInputError):
            optimal_u(summary, AMS2)

    @pytest.mark.parametrize("measure", [AMS2, AMS3])
    def test_infinite_derivative_is_degenerate(self, measure):
        summary = ConfusionSummary.from_counts(s=1e6, background=1e-309, p=1e6)
        with pytest.raises(DegenerateInputError, match="infinite"):
            optimal_u(summary, measure)

    def test_clamped_to_ceiling(self):
        summary = make_summary(s=1e4, b=1e-4, p=1e4)
        assert optimal_u(summary, AMS3) == U_MAX

    def test_duality_identity(self):
        # risk at the closed-form optimum equals -significance^2 / 2
        rng = np.random.default_rng(0)
        s = rng.uniform(0.0, 1e4, 200)
        b = rng.uniform(0.0, 1e6, 200)
        b_reg = rng.choice([0.0, 10.0], 200)
        for measure in (AMS2, AMS3):
            for si, bi, ri in zip(s, b, b_reg):
                summary = ConfusionSummary.from_counts(
                    s=si, background=bi, p=si, b_reg=ri
                )
                u_star = optimal_u(summary, measure)
                assert U_MIN < u_star < U_MAX  # seed chosen so no clamp binds
                target = -significance(summary, measure) ** 2 / 2.0
                np.testing.assert_allclose(
                    dual_risk(summary, u_star, measure), target, rtol=1e-9
                )

    def test_duality_identity_frozen_point(self):
        summary = make_summary(s=100.0, b=400.0)
        np.testing.assert_allclose(
            dual_risk(summary, optimal_u(summary, AMS2), AMS2),
            RISK_AT_OPT_100_400,
            rtol=1e-13,
        )

    def test_grid_agreement_small(self):
        # coarse grid sanity check; the full 2e6-point sweep lives in the
        # acceptance suite
        rng = np.random.default_rng(42)
        grid = np.linspace(0.0, 20.0, 200001)
        step = grid[1] - grid[0]
        for measure in (AMS2, AMS3):
            for _ in range(10):
                summary = make_summary(
                    s=rng.uniform(1.0, 1e3), b=rng.uniform(1.0, 1e4)
                )
                values = dual_risk(summary, grid, measure)
                best = grid[int(np.argmin(values))]
                assert abs(optimal_u(summary, measure) - best) <= step


class TestDualHelpers:
    def test_clamp(self):
        assert clamp_dual(0.0) == U_MIN
        assert clamp_dual(1e9) == U_MAX
        assert clamp_dual(0.5) == 0.5
        with pytest.raises(ValueError):
            clamp_dual(math.nan)

    def test_validate(self):
        assert validate_dual(0.5) == 0.5
        with pytest.raises(ValueError):
            validate_dual(0.0)
        with pytest.raises(ValueError):
            validate_dual(math.inf)


class TestCustomMeasure:
    def test_reregistering_builtin_triple_passes(self):
        measure = custom_measure(
            f=AMS2.f,
            f_conjugate=AMS2.f_conjugate,
            f_prime=AMS2.f_prime,
            h=AMS2.h,
            name="poisson-copy",
        )
        summary = make_summary(s=100.0, b=400.0)
        np.testing.assert_allclose(
            significance(summary, measure), AMS2_100_400, rtol=1e-12
        )

    def test_inconsistent_derivative_rejected(self):
        with pytest.raises(ValueError):
            custom_measure(
                f=AMS3.f,
                f_conjugate=AMS3.f_conjugate,
                f_prime=lambda t: np.asarray(t) * 1.01,  # 1% off
                h=AMS3.h,
            )

    def test_nonzero_origin_rejected(self):
        with pytest.raises(ValueError):
            custom_measure(
                f=lambda t: np.asarray(t) ** 2 / 2 + 1.0,
                f_conjugate=AMS3.f_conjugate,
                f_prime=AMS3.f_prime,
                h=AMS3.h,
            )

    @pytest.mark.parametrize(
        "f,f_conjugate,f_prime",
        [
            (AMS2.f, lambda u: math.nan, AMS2.f_prime),
            (AMS2.f, lambda u: 0.0 if u == 0.0 else math.nan, AMS2.f_prime),
            (lambda t: math.nan, AMS2.f_conjugate, lambda t: math.nan),
            (AMS2.f, AMS2.f_conjugate, lambda t: math.nan),
            (lambda t: 0.0 if t == 0.0 else math.nan, AMS2.f_conjugate, AMS2.f_prime),
        ],
        ids=["conjugate", "conjugate-off-origin", "f-and-f-prime", "f-prime", "f-off-origin"],
    )
    def test_nan_rejected(self, f, f_conjugate, f_prime):
        with pytest.raises(ValueError):
            custom_measure(f=f, f_conjugate=f_conjugate, f_prime=f_prime, h=AMS2.h)
