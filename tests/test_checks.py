"""Tests for the built-in verification suites."""

import math
from dataclasses import replace

import numpy as np
import pytest

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
        with pytest.raises(ConfigError, match="no instances"):
            suite(seed=1, instances=0)

    @pytest.mark.parametrize("suite", SUITES, ids=lambda suite: suite.__name__)
    def test_negative_instances_is_config_error(self, suite):
        with pytest.raises(ConfigError, match="no instances"):
            suite(seed=1, instances=-1)

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
        bad_prime = replace(
            AMS2, f_prime=lambda t: 1.1 * np.asarray(AMS2.f_prime(t)), name="ams2-bad"
        )
        result = check_grid_optimum(
            seed=5, instances=3, measures=(AMS3, bad_prime), grid_points=20001
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
