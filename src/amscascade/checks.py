"""Built-in verification suites.

Each suite re-derives a quantity along an independent path (dense grids,
finite differences, quadratic-time scans) and compares it against the
closed-form implementation over seeded random instances. The CLI surfaces
these as the `check` subcommand; the fault-injection hook exists so the
harness itself can be shown to catch a broken conjugate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cascade import derive_seed, select_threshold
from .data import WeightedDataset
from .errors import ConfigError
from .learner import surrogate_gradient, surrogate_loss
from .significance import (
    AMS2,
    AMS3,
    U_MAX,
    ConfusionSummary,
    dual_risk,
    fenchel_young_gap,
    optimal_u,
    significance,
    significance_curve,
)

FY_TOLERANCE = 1e-9
DUALITY_RTOL = 1e-9
GRADIENT_RTOL = 1e-6
GRID_POINTS = 2_000_000


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification suite."""

    name: str
    passed: bool
    instances: int
    worst: float
    detail: str = ""


def perturbed_conjugate_measure(measure, offset=1e-3):
    """Copy of `measure` whose conjugate is shifted by a constant.

    Test hook: a wrong conjugate must be caught by the Fenchel-Young suite.
    """
    broken = measure.f_conjugate
    return replace(
        measure,
        f_conjugate=lambda u, _f=broken: _f(u) + offset,
        name=measure.name + "-faulted",
    )


def _verdict(name, errors, tolerance, describe):
    """Result of a suite from its per-instance errors, in draw order.

    The worst error is the first maximum; a NaN error is the maximum and
    fails. ``describe(k)`` details instance k, called only on failure.
    """
    if not errors:
        raise ConfigError(f"{name}: no instances to check")
    k = int(np.argmax(errors))
    worst = float(errors[k])
    passed = bool(worst <= tolerance)
    return CheckResult(name, passed, len(errors), worst, "" if passed else describe(k))


def check_fenchel_young(seed=0, instances=1000, measures=(AMS2, AMS3)):
    """Conjugacy identity: the linearization gap vanishes at u = f'(c/a).

    Ranges keep both sides of the identity small enough that float
    cancellation stays well under the 1e-9 budget.
    """
    if instances < 1:
        raise ConfigError("fenchel-young: no instances to check")
    rng = np.random.default_rng(seed)
    cases, gaps = [], []
    for measure in measures:
        a = rng.uniform(0.5, 1e4, instances)
        c = rng.uniform(1e-6, 1e3, instances)
        for i in range(instances):
            cases.append((measure.name, float(a[i]), float(c[i])))
            gaps.append(float(abs(fenchel_young_gap(measure, a[i], c[i]))))
    template = "measure={} a={!r} c={!r} gap={:.3e}"
    return _verdict(
        "fenchel-young", gaps, FY_TOLERANCE, lambda k: template.format(*cases[k], gaps[k])
    )


def check_duality(seed=0, instances=200, measures=(AMS2, AMS3)):
    """Risk at the closed-form optimum equals -significance^2/2.

    Draws keep s/b inside the open dual domain for every seed so the
    comparison never touches the clamp boundaries.
    """
    rng = np.random.default_rng(seed)
    cases, rels = [], []
    for measure in measures:
        for _ in range(instances):
            ratio = float(10.0 ** rng.uniform(-4.0, 1.0))
            b_reg = float(rng.choice([0.0, 10.0]))
            background = float(10.0 ** rng.uniform(1.0, 6.0))
            s = ratio * (background + b_reg)
            p = s * (1.0 + rng.uniform(0.0, 1.0))
            summary = ConfusionSummary.from_counts(
                s=s, background=background, p=p, b_reg=b_reg
            )
            sig = significance(summary, measure)
            target = -0.5 * sig * sig
            risk = dual_risk(summary, optimal_u(summary, measure), measure)
            cases.append((measure.name, s, background, b_reg))
            rels.append(abs(risk - target) / abs(target))
    template = "measure={} s={!r} background={!r} b_reg={!r} rel={:.3e}"
    return _verdict(
        "duality-identity", rels, DUALITY_RTOL, lambda k: template.format(*cases[k], rels[k])
    )


# Points per dual_risk call in the grid-optimum scan.  dual_risk makes
# several float64 temporaries the size of its input.  At 2**13 points
# (64 KiB) each stays in L2 and under glibc's 128 KiB mmap threshold, which
# the benchmark pins, so the heap hands the same memory back block after
# block.  At 2**14 points or more every temporary is a fresh mmap whose pages
# fault in on each call: 2**14- and 2**16-point blocks were slower than one
# whole-grid call, and 2**12 and 12,288 slower than 2**13.
_GRID_BLOCK = 2**13


def _grid_argmin(summary, grid, measure):
    """``np.argmin(dual_risk(summary, grid, measure))``, one block at a time.

    The first minimum wins across blocks (strict ``<``), and as in
    ``np.argmin`` the first NaN wins over everything: the scan stops at the
    first block whose minimum is NaN.
    """
    best, best_risk = 0, math.inf
    for start in range(0, grid.size, _GRID_BLOCK):
        risk = dual_risk(summary, grid[start : start + _GRID_BLOCK], measure)
        k = int(np.argmin(risk))
        if math.isnan(risk[k]):
            return start + k
        if risk[k] < best_risk:
            best, best_risk = start + k, risk[k]
    return best


def check_grid_optimum(
    seed=0, instances=100, measures=(AMS2, AMS3), grid_points=GRID_POINTS
):
    """Closed-form optimal_u against argmin over a dense dual grid."""
    if not grid_points >= 2:
        raise ConfigError(f"grid-optimum: need at least 2 grid points, got {grid_points!r}")
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, U_MAX, grid_points)
    step = U_MAX / (grid_points - 1)
    cases, diffs = [], []
    for measure in measures:
        for _ in range(instances):
            s = float(rng.uniform(1.0, 1e4))
            background = float(rng.uniform(10.0, 1e6))
            b_reg = float(rng.choice([0.0, 10.0]))
            p = s * (1.0 + rng.uniform(0.0, 1.0))
            summary = ConfusionSummary.from_counts(
                s=s, background=background, p=p, b_reg=b_reg
            )
            closed = optimal_u(summary, measure)
            gridded = float(grid[_grid_argmin(summary, grid, measure)])
            cases.append((measure.name, s, background, b_reg, closed, gridded))
            diffs.append(abs(closed - gridded))
    template = "measure={} s={!r} background={!r} b_reg={!r} closed={!r} grid={!r}"
    tolerance = step * (1.0 + 1e-9) + 1e-12
    return _verdict("grid-optimum", diffs, tolerance, lambda k: template.format(*cases[k]))


def check_gradient(seed=0, instances=100, n_events=50):
    """Analytic surrogate gradient against central finite differences.

    Scores are kept in [-2, 2] so no gradient entry underflows; that keeps
    the finite-difference roundoff floor far below the relative tolerance.
    """
    if not n_events >= 1:
        raise ConfigError(f"gradient-fd: need at least 1 event, got {n_events!r}")
    rng = np.random.default_rng(seed)
    eps = 1e-5
    rels = []
    for _ in range(instances):
        labels = rng.choice([-1.0, 1.0], n_events)
        costs = rng.uniform(0.1, 5.0, n_events)
        scores = rng.uniform(-2.0, 2.0, n_events)
        grad = surrogate_gradient(costs, labels, scores)
        fd = np.empty(n_events)
        for j in range(n_events):
            bumped = scores.copy()
            bumped[j] = scores[j] + eps
            hi = surrogate_loss(costs, labels, bumped)
            bumped[j] = scores[j] - eps
            lo = surrogate_loss(costs, labels, bumped)
            fd[j] = (hi - lo) / (2.0 * eps)
        rels.append(float(np.max(np.abs(fd - grad) / np.maximum(np.abs(grad), 1e-300))))
    return _verdict(
        "gradient-fd", rels, GRADIENT_RTOL, lambda k: f"instance={k} rel={rels[k]:.3e}"
    )


def _brute_force_threshold(scores, dataset, measure, b_reg):
    """Quadratic-time reference: recompute the summary at every cut.

    The masked (s, b) sums at every cut are the oracle's independent path;
    ``significance_curve`` scores them, the same formula ``select_threshold``
    applies to its cumulative sums. The first maximum wins.
    """
    sorted_desc = np.sort(scores)[::-1]
    candidates = [sorted_desc[0]]
    for k in range(1, scores.size):
        if sorted_desc[k - 1] > sorted_desc[k]:
            candidates.append(sorted_desc[k])
    candidates.append(-math.inf)
    signal_mask = dataset.labels == 1
    s = np.empty(len(candidates))
    b = np.empty(len(candidates))
    for i, cut in enumerate(candidates):
        selected = scores > cut
        s[i] = dataset.weights[selected & signal_mask].sum()
        b[i] = dataset.weights[selected & ~signal_mask].sum() + b_reg
    return candidates[int(np.argmax(significance_curve(s, b, measure)))]


def check_threshold_scan(seed=0, instances=50, n_events=1000):
    """Incremental threshold scan against the O(n^2) brute-force oracle."""
    if instances < 1:
        raise ConfigError("threshold-scan: no instances to check")
    if not n_events >= 2:
        # one event of each class
        raise ConfigError(f"threshold-scan: need at least 2 events, got {n_events!r}")
    rng = np.random.default_rng(seed)
    mismatches = 0
    detail = ""
    for k in range(instances):
        labels = rng.choice([-1, 1], n_events)
        if not (np.any(labels == 1) and np.any(labels == -1)):
            labels[0], labels[1] = 1, -1
        dataset = WeightedDataset(
            features=np.zeros((n_events, 1)),
            labels=labels,
            weights=rng.uniform(0.05, 2.0, n_events),
            event_ids=np.arange(n_events),
            column_names=("x0",),
        )
        scores = rng.standard_normal(n_events)
        measure = AMS2 if k % 2 == 0 else AMS3
        b_reg = 10.0 if k % 4 < 2 else 0.0
        fast = select_threshold(scores, dataset, measure, b_reg=b_reg)
        brute = _brute_force_threshold(scores, dataset, measure, b_reg)
        if fast != brute:
            mismatches += 1
            if not detail:
                detail = (
                    f"instance={k} measure={measure.name} b_reg={b_reg!r} "
                    f"fast={fast!r} brute={brute!r}"
                )
    return CheckResult(
        name="threshold-scan",
        passed=mismatches == 0,
        instances=instances,
        worst=float(mismatches),
        detail=detail,
    )


# caps the cheap suites' loops; fenchel-young draws its instances up front
MAX_INSTANCES = 1_000_000


def run_all_checks(seed=0, instances=None, inject_fault=False):
    """Run every suite with seeds derived from one master seed.

    `instances` overrides the per-pair counts of the cheap suites; the grid
    and brute-force suites cap at their defaults to bound runtime. With
    `inject_fault` the Fenchel-Young suite runs against a measure whose
    conjugate is off by 1e-3 and must report failure.  An `instances`
    outside [1, MAX_INSTANCES] is a ConfigError.
    """
    if instances is not None and not 1 <= instances <= MAX_INSTANCES:
        raise ConfigError(f"instances must be in [1, {MAX_INSTANCES}], got {instances!r}")
    fy_n = 1000 if instances is None else instances
    dual_n = 200 if instances is None else instances
    grad_n = 100 if instances is None else min(instances, 100)
    grid_n = 100 if instances is None else min(instances, 100)
    scan_n = 50 if instances is None else min(instances, 50)

    fy_measures = (AMS2, AMS3)
    if inject_fault:
        fy_measures = (perturbed_conjugate_measure(AMS2), AMS3)

    return [
        check_fenchel_young(derive_seed(seed, 1), fy_n, measures=fy_measures),
        check_grid_optimum(derive_seed(seed, 2), grid_n),
        check_duality(derive_seed(seed, 3), dual_n),
        check_gradient(derive_seed(seed, 4), grad_n),
        check_threshold_scan(derive_seed(seed, 5), scan_n),
    ]
