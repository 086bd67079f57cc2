"""Tests for the built-in verification suites."""

import numpy as np
import pytest

from amscascade.checks import (
    check_duality,
    check_fenchel_young,
    check_gradient,
    check_grid_optimum,
    check_threshold_scan,
    perturbed_conjugate_measure,
    run_all_checks,
)
from amscascade.errors import ConfigError
from amscascade.significance import AMS2


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
