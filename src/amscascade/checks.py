"""Built-in verification suites.

Each suite re-derives a quantity along an independent path (dense grids,
finite differences, quadratic-time scans) and compares it against the
closed-form implementation over seeded random instances. The CLI surfaces
these as the `check` subcommand; the fault-injection hook exists so the
harness itself can be shown to catch a broken conjugate.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, replace

import numpy as np

from .cascade import derive_seed, select_threshold
from .data import WeightedDataset
from .errors import ConfigError, _choice, _integer
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

__all__ = ["CheckResult", "run_all_checks"]

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
    instances = _integer("fenchel-young: instances", instances, 1)
    rng = np.random.default_rng(_integer("fenchel-young: seed", seed, least=0))
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
    instances = _integer("duality-identity: instances", instances, 1)
    rng = np.random.default_rng(_integer("duality-identity: seed", seed, least=0))
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


# Points per dual_risk call in the grid-optimum scan.  dual_risk makes two
# float64 temporaries the size of its input: its linear term, which it
# returns, and the conjugate term it adds into it.  At 2**13 points
# (64 KiB) each stays in L2 and under glibc's 128 KiB mmap threshold, which
# the benchmark pins, so the heap hands the same memory back block after
# block.  At 2**14 points or more every temporary is a fresh mmap whose pages
# fault in on each call: 2**14- and 2**16-point blocks were slower than one
# whole-grid call, and 2**12 and 12,288 slower than 2**13.
_GRID_BLOCK = 2**13


def _grid_block(start, stop, grid_points):
    """Points ``start:stop`` of ``np.linspace(0.0, U_MAX, grid_points)``.

    Built by linspace's own formula, ``k * step`` with the last point set to
    ``U_MAX``, so the scan holds one block of the grid at a time and never
    the whole grid.
    """
    block = np.arange(start, stop, dtype=float)
    block *= U_MAX / (grid_points - 1)
    if stop == grid_points:
        block[-1] = U_MAX
    return block


def _grid_argmins(summaries, grid_points, measure):
    """``np.argmin(dual_risk(summary, grid, measure))`` for each summary.

    The grid is ``np.linspace(0.0, U_MAX, grid_points)``, built and scanned
    one block at a time, and each block for every summary before the next,
    so ``f*`` is evaluated once per block: each summary's ``dual_risk`` call
    gets a copy of ``measure`` whose conjugate returns the block's values
    when handed that same block.  Per summary the first minimum wins across
    blocks (strict ``<``), and as in ``np.argmin`` the first NaN wins over
    everything: a summary's scan stops at the first block whose minimum is
    NaN.
    """
    best = [0] * len(summaries)
    best_risk = [math.inf] * len(summaries)
    live = range(len(summaries))
    conjugate = measure.f_conjugate
    for start in range(0, grid_points, _GRID_BLOCK):
        if not live:
            break
        block = _grid_block(start, min(start + _GRID_BLOCK, grid_points), grid_points)
        conj = conjugate(block)
        known = replace(
            measure,
            f_conjugate=lambda v, _b=block, _c=conj: _c if v is _b else conjugate(v),
        )
        scanning = []
        for i in live:
            risk = dual_risk(summaries[i], block, known)
            k = int(risk.argmin())
            low = risk[k]
            if math.isnan(low):
                best[i] = start + k
                continue
            scanning.append(i)
            if low < best_risk[i]:
                best[i], best_risk[i] = start + k, low
        live = scanning
    return best


def check_grid_optimum(
    seed=0, instances=100, measures=(AMS2, AMS3), grid_points=GRID_POINTS
):
    """Closed-form optimal_u against argmin over a dense dual grid."""
    instances = _integer("grid-optimum: instances", instances, 1)
    grid_points = _integer("grid-optimum: grid_points", grid_points, 2)
    rng = np.random.default_rng(_integer("grid-optimum: seed", seed, least=0))
    step = U_MAX / (grid_points - 1)
    cases, diffs = [], []
    for measure in measures:
        drawn, summaries = [], []
        for _ in range(instances):
            s = float(rng.uniform(1.0, 1e4))
            background = float(rng.uniform(10.0, 1e6))
            b_reg = float(rng.choice([0.0, 10.0]))
            p = s * (1.0 + rng.uniform(0.0, 1.0))
            drawn.append((s, background, b_reg))
            summaries.append(
                ConfusionSummary.from_counts(s=s, background=background, p=p, b_reg=b_reg)
            )
        for (s, background, b_reg), summary, k in zip(
            drawn, summaries, _grid_argmins(summaries, grid_points, measure)
        ):
            closed = optimal_u(summary, measure)
            gridded = float(_grid_block(k, k + 1, grid_points)[0])
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
    instances = _integer("gradient-fd: instances", instances, 1)
    n_events = _integer("gradient-fd: n_events", n_events, 1)
    rng = np.random.default_rng(_integer("gradient-fd: seed", seed, least=0))
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


# Cells (cuts x events) per 0/1 mask in the threshold oracle.  At 4,096
# cells (32 KiB of float64) the mask and its temporaries stay in L2 and under
# the 128 KiB mmap threshold the benchmark pins, as at _GRID_BLOCK; masks of
# 2**11 cells and of 2**13 to 2**16 were slower.  Past 4,096 events a block
# holds one cut.
_CUT_BLOCK_CELLS = 2**12


def _brute_force_threshold(scores, dataset, measure, b_reg):
    """Quadratic-time reference: recompute the summary at every cut.

    The masked (s, b) sums at every cut are the oracle's independent path:
    each block of cuts gets them from one product of its 0/1 selection mask
    with the events' weights split into a signal and a background column.
    ``significance_curve`` scores them, the same formula ``select_threshold``
    applies to its cumulative sums. The first maximum wins.
    """
    sorted_desc = np.sort(scores)[::-1]
    drops = np.flatnonzero(sorted_desc[:-1] > sorted_desc[1:]) + 1
    cuts = np.concatenate((sorted_desc[:1], sorted_desc[drops], [-math.inf]))
    signal = dataset.labels == 1
    by_class = np.where(np.column_stack((signal, ~signal)), dataset.weights[:, None], 0.0)
    sums = np.empty((cuts.size, 2))
    step = max(1, _CUT_BLOCK_CELLS // scores.size)
    for start in range(0, cuts.size, step):
        block = cuts[start : start + step, None]
        np.matmul((scores > block).astype(float), by_class, out=sums[start : start + step])
    k = int(np.argmax(significance_curve(sums[:, 0], sums[:, 1] + b_reg, measure)))
    # selecting everything is the plain float -inf, as in select_threshold
    return cuts[k] if k < cuts.size - 1 else -math.inf


def check_threshold_scan(seed=0, instances=50, n_events=1000):
    """Incremental threshold scan against the O(n^2) brute-force oracle."""
    instances = _integer("threshold-scan: instances", instances, 1)
    # one event of each class
    n_events = _integer("threshold-scan: n_events", n_events, 2)
    rng = np.random.default_rng(_integer("threshold-scan: seed", seed, least=0))
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

    `instances` overrides the per-pair counts of the cheap suites; the
    grid, gradient and brute-force suites cap at their defaults to bound
    runtime. With `inject_fault` the Fenchel-Young suite runs against a
    measure whose conjugate is off by 1e-3 and must report failure.  An
    `instances` that is not an integer in [1, MAX_INSTANCES] is a
    ConfigError.
    """
    if instances is not None:
        instances = _integer("instances", instances)
        if not 1 <= instances <= MAX_INSTANCES:
            raise ConfigError(f"instances must be in [1, {MAX_INSTANCES}], got {instances!r}")
    fy_measures = (AMS2, AMS3)
    if _choice("inject_fault", inject_fault, (False, True)):
        fy_measures = (perturbed_conjugate_measure(AMS2), AMS3)
    # (suite, whether `instances` caps at its default size), built per call
    # so that a suite replaced on this module is the one that runs
    suites = (
        (functools.partial(check_fenchel_young, measures=fy_measures), False),
        (check_grid_optimum, True),
        (check_duality, False),
        (check_gradient, True),
        (check_threshold_scan, True),
    )
    results = []
    for key, (suite, capped) in enumerate(suites, start=1):
        n = inspect.signature(suite).parameters["instances"].default
        if instances is not None:
            n = min(instances, n) if capped else instances
        results.append(suite(derive_seed(seed, key), n))
    return results
