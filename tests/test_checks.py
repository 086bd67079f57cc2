"""Tests for the built-in verification suites."""

import collections
import itertools
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from amscascade import checks
from amscascade.checks import (
    CheckResult,
    check_duality,
    check_fenchel_young,
    check_gradient,
    check_grid_optimum,
    check_threshold_scan,
    perturbed_conjugate_measure,
    run_all_checks,
)
from amscascade.data import WeightedDataset
from amscascade.errors import ConfigError
from amscascade.significance import AMS2, AMS3

SUITES = [
    check_fenchel_young,
    check_duality,
    check_grid_optimum,
    check_gradient,
    check_threshold_scan,
]


class TestSuites:
    def test_all_pass_at_reduced_scale(self):
        results = run_all_checks(seed=3, instances=25)
        assert [r.name for r in results] == [
            "fenchel-young",
            "grid-optimum",
            "duality-identity",
            "gradient-fd",
            "threshold-scan",
        ]
        for result in results:
            assert result.passed, f"{result.name}: {result.detail}"
            assert isinstance(result.passed, bool)
            assert isinstance(result.worst, float)
            assert result.detail == ""

    def test_instances_below_one_is_config_error(self):
        for instances in (0, -2):
            with pytest.raises(ConfigError, match="instances"):
                run_all_checks(instances=instances)

    @pytest.mark.parametrize("suite", SUITES, ids=lambda suite: suite.__name__)
    def test_no_instances_is_config_error(self, suite):
        with pytest.raises(ConfigError, match=": instances must be an integer >= 1, got 0$"):
            suite(seed=1, instances=0)

    @pytest.mark.parametrize("suite", SUITES, ids=lambda suite: suite.__name__)
    def test_negative_instances_is_config_error(self, suite):
        with pytest.raises(ConfigError, match=": instances must be an integer >= 1, got -1$"):
            suite(seed=1, instances=-1)

    @pytest.mark.parametrize("grid_points", [1, math.nan])
    def test_one_grid_point_is_config_error(self, grid_points):
        with pytest.raises(ConfigError, match="^grid-optimum: grid_points must be an integer >= 2"):
            check_grid_optimum(seed=1, instances=1, grid_points=grid_points)

    def test_no_grid_points_is_config_error(self):
        with pytest.raises(ConfigError, match="^grid-optimum: grid_points must be an integer >= 2"):
            check_grid_optimum(seed=1, instances=1, grid_points=0)

    @pytest.mark.parametrize("n_events", [1, 0, math.nan])
    def test_threshold_scan_one_event_is_config_error(self, n_events):
        with pytest.raises(ConfigError, match="^threshold-scan: n_events must be an integer >= 2"):
            check_threshold_scan(seed=1, instances=1, n_events=n_events)

    @pytest.mark.parametrize("n_events", [0, -3, math.nan])
    def test_gradient_no_events_is_config_error(self, n_events):
        with pytest.raises(ConfigError, match="^gradient-fd: n_events must be an integer >= 1"):
            check_gradient(seed=1, instances=1, n_events=n_events)

    @pytest.mark.parametrize(
        "suite, prefix, size",
        [
            (check_fenchel_young, "fenchel-young", "instances"),
            (check_duality, "duality-identity", "instances"),
            (check_grid_optimum, "grid-optimum", "instances"),
            (check_grid_optimum, "grid-optimum", "grid_points"),
            (check_gradient, "gradient-fd", "instances"),
            (check_gradient, "gradient-fd", "n_events"),
            (check_threshold_scan, "threshold-scan", "instances"),
            (check_threshold_scan, "threshold-scan", "n_events"),
        ],
        ids=lambda value: None if callable(value) else value,
    )
    def test_fractional_size_is_config_error(self, suite, prefix, size):
        message = f"^{prefix}: {size} must be an integer >= [12], got 2.5$"
        with pytest.raises(ConfigError, match=message):
            suite(seed=1, **{size: 2.5})

    @pytest.mark.parametrize(
        "suite, prefix",
        [
            (check_fenchel_young, "fenchel-young"),
            (check_duality, "duality-identity"),
            (check_grid_optimum, "grid-optimum"),
            (check_gradient, "gradient-fd"),
            (check_threshold_scan, "threshold-scan"),
        ],
        ids=lambda value: None if callable(value) else value,
    )
    @pytest.mark.parametrize("seed", [-1, 1.5, math.nan, True, "3", None])
    def test_seed_outside_the_integer_rule_is_config_error(self, suite, prefix, seed):
        with pytest.raises(ConfigError, match=f"^{prefix}: seed must be an integer >= 0, got "):
            suite(seed=seed, instances=1)

    def test_numpy_integer_seed(self):
        assert check_duality(seed=np.uint8(4), instances=3) == check_duality(seed=4, instances=3)

    def test_numpy_integer_sizes(self):
        three = np.int64(3)
        assert check_fenchel_young(seed=1, instances=three).instances == 2 * 3
        assert check_duality(seed=1, instances=three).instances == 2 * 3
        assert check_grid_optimum(seed=1, instances=np.int32(1), grid_points=np.int64(1000)).passed
        assert check_gradient(seed=1, instances=three, n_events=three).instances == 3
        assert check_threshold_scan(seed=1, instances=three, n_events=np.int16(20)).passed

    def test_deterministic(self):
        assert run_all_checks(seed=11, instances=10) == run_all_checks(
            seed=11, instances=10
        )

    def test_individual_suites(self):
        assert check_fenchel_young(seed=1, instances=50).passed
        assert check_duality(seed=1, instances=30).passed
        assert check_grid_optimum(seed=1, instances=5).passed
        assert check_gradient(seed=1, instances=10).passed
        assert check_threshold_scan(seed=1, instances=5, n_events=200).passed


class TestFaultInjection:
    def test_broken_conjugate_caught_by_fenchel_young(self):
        results = run_all_checks(seed=0, instances=20, inject_fault=True)
        by_name = {r.name: r for r in results}
        faulted = by_name["fenchel-young"]
        assert not faulted.passed
        assert faulted.worst > 1e-9
        assert faulted.detail  # failing instance reported for reproduction
        for name in ("grid-optimum", "duality-identity", "gradient-fd", "threshold-scan"):
            assert by_name[name].passed

    def test_original_measure_untouched(self):
        broken = perturbed_conjugate_measure(AMS2, offset=1e-3)
        assert broken.f_conjugate(0.0) == 1e-3
        assert AMS2.f_conjugate(0.0) == 0.0
        assert broken.name == "ams2-faulted"

    def test_offset_visible_in_gap(self):
        broken = perturbed_conjugate_measure(AMS2, offset=1e-3)
        from amscascade.significance import fenchel_young_gap

        # gap picks up a * offset
        gap = fenchel_young_gap(broken, 2.0, 1.0)
        np.testing.assert_allclose(gap, 2e-3, rtol=1e-9)


def _nan_conjugate(u):
    return np.full(np.shape(u), np.nan)[()]


# a closed-form optimum off by 10%, which the grid suite must report
_BAD_PRIME = replace(AMS2, f_prime=lambda t: 1.1 * np.asarray(AMS2.f_prime(t)), name="ams2-bad")


class TestFailureReports:
    """A failing suite reports its worst instance; NaN errors fail."""

    NAN_MEASURE = replace(AMS2, f_conjugate=_nan_conjugate, name="nan-conjugate")

    @pytest.mark.parametrize("suite", [check_fenchel_young, check_duality])
    def test_nan_conjugate_fails(self, suite):
        result = suite(seed=1, instances=5, measures=(AMS3, self.NAN_MEASURE))
        assert not result.passed
        assert math.isnan(result.worst)
        assert result.instances == 10
        assert result.detail.startswith("measure=nan-conjugate ")
        assert result.detail.endswith("=nan")

    # The CheckResults below were recorded before the suites shared one
    # verdict rule; a failing suite must still report them byte for byte.
    def test_fenchel_young_report(self):
        broken = perturbed_conjugate_measure(AMS2)
        result = check_fenchel_young(seed=5, instances=30, measures=(AMS3, broken))
        assert result == CheckResult(
            "fenchel-young", False, 60, 9.91677133154348,
            "measure=ams2-faulted a=9916.771331543468 c=553.2060063960429 gap=9.917e+00",
        )

    def test_duality_report(self):
        broken = perturbed_conjugate_measure(AMS2)
        result = check_duality(seed=5, instances=30, measures=(AMS3, broken))
        assert result == CheckResult(
            "duality-identity", False, 60, 187755.5884361151,
            "measure=ams2-faulted s=0.0537674746690112 background=510.94707886645836 "
            "b_reg=10.0 rel=1.878e+05",
        )

    def test_grid_optimum_report(self):
        result = check_grid_optimum(
            seed=5, instances=3, measures=(AMS3, _BAD_PRIME), grid_points=20001
        )
        assert result == CheckResult(
            "grid-optimum", False, 6, 0.010064499886037206,
            "measure=ams2-bad s=6767.216828958829 background=60812.10493092648 b_reg=0.0 "
            "closed=0.1160644998860372 grid=0.106",
        )

    def test_gradient_report(self, monkeypatch):
        exact = checks.surrogate_gradient

        def off_at_entry_7(costs, labels, scores):
            scale = np.where(np.arange(labels.size) == 7, 1.001, 1.0)
            return exact(costs, labels, scores) * scale

        monkeypatch.setattr(checks, "surrogate_gradient", off_at_entry_7)
        assert check_gradient(seed=5, instances=6) == CheckResult(
            "gradient-fd", False, 6, 0.0009990120948396566, "instance=3 rel=9.990e-04"
        )

    def test_threshold_scan_report(self, monkeypatch):
        exact = checks.select_threshold
        calls = itertools.count(1)

        def nothing_selected_every_third_call(scores, dataset, measure, b_reg=0.0):
            cut = exact(scores, dataset, measure, b_reg=b_reg)
            return float(scores.max()) if next(calls) % 3 == 0 else cut

        monkeypatch.setattr(checks, "select_threshold", nothing_selected_every_third_call)
        assert check_threshold_scan(seed=5, instances=9, n_events=200) == CheckResult(
            "threshold-scan", False, 9, 3.0,
            "instance=2 measure=ams2 b_reg=0.0 fast=2.46690278881854 brute=-inf",
        )


_RISK_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)
# the risks of one to four instances over one grid of 1 to 50 points
_RISK_ROWS = st.integers(1, 50).flatmap(
    lambda n: st.lists(st.lists(_RISK_VALUES, min_size=n, max_size=n), min_size=1, max_size=4)
)


class TestGridBlocks:
    """The grid suite scans its grid in blocks of ``_GRID_BLOCK`` points."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_RISK_ROWS, st.integers(1, 60))
    # NaN first in a later block; NaN in the first block; all NaN
    @example([[1.0, 0.0, -2.0, math.nan, -math.inf, math.nan]], 2)
    @example([[0.0, math.nan, -math.inf, math.nan]], 2)
    @example([[math.nan] * 5], 2)
    # ties across a block boundary; -0.0 against 0.0, both ways round
    @example([[3.0, 1.0, 1.0, 2.0, 1.0]], 2)
    @example([[1.0, 0.0, -0.0, 0.0]], 2)
    @example([[1.0, -0.0, 0.0, -0.0]], 2)
    # all +inf; -inf in two blocks; +inf before the only finite value
    @example([[math.inf] * 3], 2)
    @example([[math.inf, -math.inf, 1.0, -math.inf]], 3)
    @example([[math.inf, math.inf, 5.0]], 2)
    # a short last block; a grid shorter than one block
    @example([[2.0, 1.0, 3.0, 0.5, 0.7]], 3)
    @example([[2.0, 1.0, 0.5]], 10)
    # instances whose first NaN falls in different blocks, or nowhere; one
    # stops in the first block while the others go on
    @example([[1.0, math.nan, 0.0, 2.0], [0.0, 1.0, 2.0, math.nan], [3.0, 2.0, 1.0, 0.0]], 2)
    @example([[math.nan, 1.0, 2.0], [1.0, 2.0, math.nan], [2.0, math.nan, 1.0]], 1)
    @example([[0.0, 1.0, math.nan, -1.0, math.nan], [math.nan] * 5, [1.0, -math.inf] * 2 + [0.0]], 2)
    # every instance stops before the grid ends
    @example([[math.nan, 0.0, 1.0, 2.0], [0.0, math.nan, -1.0, 2.0]], 2)
    def test_block_rule_is_argmin_of_the_whole_array(self, rows, block):
        risks = np.array(rows)
        grid = np.arange(risks.shape[1], dtype=float)
        blocks = [[] for _ in rows]

        def risk_of(summary, u, measure):
            blocks[summary].append(u)
            return risks[summary, u.astype(np.intp)]

        def grid_block(start, stop, grid_points):
            # point k is k, so a block's points index the risks
            assert grid_points == grid.size
            return grid[start:stop]

        with mock.patch.object(checks, "dual_risk", risk_of), mock.patch.object(
            checks, "_GRID_BLOCK", block
        ), mock.patch.object(checks, "_grid_block", grid_block):
            got = checks._grid_argmins(list(range(len(rows))), grid.size, AMS2)
        assert got == [int(np.argmin(r)) for r in risks]
        for r, k, scanned_blocks in zip(risks, got, blocks):
            # consecutive blocks of at most `block` points from the start of
            # the grid, up to the end or to the block of the first NaN
            scanned = np.concatenate(scanned_blocks)
            assert scanned.tobytes() == grid[: scanned.size].tobytes()
            sizes = [b.size for b in scanned_blocks]
            assert all(size == block for size in sizes[:-1]) and 1 <= sizes[-1] <= block
            stop = (k // block + 1) * block if math.isnan(r[k]) else grid.size
            assert scanned.size == min(stop, grid.size)

    @pytest.mark.parametrize(
        "block, grid_points",
        [(4096, 20001), (checks._GRID_BLOCK, checks.GRID_POINTS), (4096, 2), (4096, 3)],
    )
    def test_blocks_cover_each_instance_grid_once(self, monkeypatch, block, grid_points):
        exact = checks.dual_risk
        grid = np.linspace(0.0, checks.U_MAX, grid_points)
        # id(summary) -> (summary, the points of each of its blocks so far);
        # each block is held to its slice of the grid as it is scanned, so
        # that no instance's copy of the grid is kept
        by_summary = {}

        def spy(summary, u, measure):
            sizes = by_summary.setdefault(id(summary), (summary, []))[1]
            start = sum(sizes)
            assert u.tobytes() == grid[start : start + u.size].tobytes()
            sizes.append(u.size)
            return exact(summary, u, measure)

        monkeypatch.setattr(checks, "_GRID_BLOCK", block)
        monkeypatch.setattr(checks, "dual_risk", spy)
        assert check_grid_optimum(seed=2, instances=3, grid_points=grid_points).passed
        instances = [sizes for _, sizes in by_summary.values()]
        assert len(instances) == 6  # 3 instances under each of two measures
        full, rest = divmod(grid_points, block)
        for sizes in instances:
            assert sizes == [block] * full + [rest] * (rest > 0)
            assert sum(sizes) == grid.size
        if grid_points == 20001:
            assert instances[0] == [4096] * 4 + [20001 - 4 * 4096]

    @pytest.mark.parametrize("grid_points", [2, 3, 20001, checks.GRID_POINTS])
    def test_reported_point_is_the_linspace_point(self, monkeypatch, grid_points):
        # with optimal_u at 0 an instance's error is its grid point itself
        grid = np.linspace(0.0, checks.U_MAX, grid_points)
        monkeypatch.setattr(checks, "optimal_u", lambda summary, measure: 0.0)
        for k in (0, grid_points // 2, grid_points - 1):
            monkeypatch.setattr(
                checks, "_grid_argmins", lambda summaries, n, measure, k=k: [k] * len(summaries)
            )
            result = check_grid_optimum(
                seed=2, instances=1, measures=(AMS2,), grid_points=grid_points
            )
            assert result.worst.hex() == float(grid[k]).hex()
        assert result.worst == checks.U_MAX

    def test_grid_memory_budget(self):
        # one block's points and risks at a time: the whole grid alone is
        # 16 MB, and each dual_risk temporary of a block 64 KiB
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = check_grid_optimum()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.passed
        assert peak - start <= 2 * 1024 * 1024

    @pytest.mark.parametrize(
        "block, grid_points", [(4096, 20001), (checks._GRID_BLOCK, checks.GRID_POINTS)]
    )
    def test_conjugate_once_per_block_and_dual_risk_once_per_instance_block(
        self, monkeypatch, block, grid_points
    ):
        exact = checks.dual_risk
        conjugate_calls, risk_calls = collections.Counter(), collections.Counter()

        def counted(measure):
            def conjugate(u):
                conjugate_calls[measure.name] += 1
                return measure.f_conjugate(u)

            return replace(measure, f_conjugate=conjugate)

        def spy(summary, u, measure):
            risk_calls[measure.name] += 1
            return exact(summary, u, measure)

        monkeypatch.setattr(checks, "_GRID_BLOCK", block)
        monkeypatch.setattr(checks, "dual_risk", spy)
        measures = (counted(AMS2), counted(AMS3))
        assert check_grid_optimum(
            seed=2, instances=3, measures=measures, grid_points=grid_points
        ).passed
        blocks = -(-grid_points // block)
        assert conjugate_calls == {"ams2": blocks, "ams3": blocks}
        assert risk_calls == {"ams2": 3 * blocks, "ams3": 3 * blocks}

    @pytest.mark.parametrize("block", [1000, checks._GRID_BLOCK])
    @pytest.mark.parametrize(
        "measures", [(AMS2, AMS3), (AMS3, _BAD_PRIME)], ids=["built-in", "bad-prime"]
    )
    def test_blocks_give_the_whole_grid_result(self, monkeypatch, measures, block):
        def run():
            return check_grid_optimum(
                seed=5, instances=3, measures=measures, grid_points=20001
            )

        monkeypatch.setattr(checks, "_GRID_BLOCK", 20001)
        whole = run()
        monkeypatch.setattr(checks, "_GRID_BLOCK", block)
        assert run() == whole
        assert whole.passed == (measures[1] is not _BAD_PRIME)


def _scalar_loop_threshold(scores, dataset, measure, b_reg):
    """The oracle as a scalar loop: the formula on Python floats at every cut.

    Kept as the reference for the oracle that scores all cuts in one
    ``significance_curve`` call; the strict ``>`` keeps the first maximum.
    """
    sorted_desc = np.sort(scores)[::-1]
    candidates = [sorted_desc[0]]
    for k in range(1, scores.size):
        if sorted_desc[k - 1] > sorted_desc[k]:
            candidates.append(sorted_desc[k])
    candidates.append(-math.inf)
    best_sig, best_cut = -1.0, None
    for cut in candidates:
        selected = scores > cut
        s = float(dataset.weights[selected & (dataset.labels == 1)].sum())
        b = float(dataset.weights[selected & (dataset.labels == -1)].sum()) + b_reg
        if s == 0.0:
            sig = 0.0
        elif b <= 0.0:
            sig = math.inf
        else:
            sig = float(measure.h(b * np.asarray(measure.f(s / b))))
        if sig > best_sig:
            best_sig, best_cut = sig, cut
    return best_cut


@st.composite
def _oracle_instances(draw):
    n = draw(st.integers(1, 60))
    if draw(st.booleans()):  # heavy ties: a handful of rounded scores
        scores = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        scores = np.asarray(scores, dtype=float) / 4.0
    else:
        scores = np.asarray(
            draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)), dtype=float
        ).round(draw(st.integers(0, 3)))
    labels = np.asarray(draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)))
    if draw(st.booleans()):  # a lone signal event on top: b = 0 there when b_reg = 0
        top = int(np.argmax(scores))
        scores[top] = scores.max() + 1.0
        labels[top] = 1
    weights = draw(st.lists(st.floats(0.05, 2.0), min_size=n, max_size=n))
    return scores, labels, weights


class TestThresholdOracleDifferential:
    @settings(
        max_examples=300,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        _oracle_instances(),
        st.sampled_from([0.0, 10.0]),
        st.sampled_from([AMS2, AMS3]),
    )
    @example((np.array([0.5]), np.array([1]), [1.0]), 0.0, AMS2)
    @example((np.array([0.5]), np.array([-1]), [1.0]), 0.0, AMS3)
    @example((np.array([0.5, 0.5]), np.array([1, -1]), [1.0, 0.5]), 10.0, AMS2)
    @example((np.array([1.0, 0.0]), np.array([1, -1]), [0.3, 2.0]), 0.0, AMS3)
    def test_same_cut_as_scalar_loop(self, instance, b_reg, measure):
        scores, labels, weights = instance
        dataset = WeightedDataset(
            features=np.zeros((scores.size, 1)),
            labels=labels,
            weights=weights,
            event_ids=np.arange(scores.size),
            column_names=("x0",),
        )
        vectorised = checks._brute_force_threshold(scores, dataset, measure, b_reg)
        reference = _scalar_loop_threshold(scores, dataset, measure, b_reg)
        assert vectorised == reference
        assert type(vectorised) is type(reference)

    @pytest.mark.parametrize("shape", ["spread", "ties", "lone-top", "signal-low"])
    @pytest.mark.parametrize("n", [61, 1000, 1001, 4096, 4097, 5000])
    def test_blocks_of_cuts_give_the_scalar_loop_cut(self, n, shape):
        # sizes past one block of cuts: a partial last block, a block of one
        # cut from 4,097 events on; "signal-low" puts the best cut in the
        # last block, where selecting everything wins
        rng = np.random.default_rng(n)
        scores = rng.standard_normal(n)
        labels = rng.choice([-1, 1], n)
        if shape == "ties":  # a few hundred distinct scores
            scores = np.round(scores * 50.0) / 50.0
        if shape == "lone-top":
            scores = np.round(scores * 4.0) / 4.0
            top = int(np.argmax(scores))
            scores[top] = scores.max() + 1.0
            labels[top] = 1
        if shape == "signal-low":
            labels = np.where(scores < 1.5, 1, -1)
        dataset = WeightedDataset(
            features=np.zeros((n, 1)),
            labels=labels,
            weights=rng.uniform(0.05, 2.0, n),
            event_ids=np.arange(n),
            column_names=("x0",),
        )
        for measure, b_reg in ((AMS2, 0.0), (AMS3, 10.0)):
            vectorised = checks._brute_force_threshold(scores, dataset, measure, b_reg)
            reference = _scalar_loop_threshold(scores, dataset, measure, b_reg)
            assert vectorised == reference
            assert type(vectorised) is type(reference)
