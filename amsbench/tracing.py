"""Spans and exact work counters for the traced benchmark run.

A wrapper replaces a name that a calling module imported from a layer (for
example ``amscascade.cascade.train`` or ``amscascade.cli.load_csv``), so each
span marks one call across a layer boundary.  Nothing inside ``src/`` is
edited: the wrappers are installed on module attributes after import and
removed again by ``Tracer.uninstall``.  Untraced runs never install them.

Spans are kept in memory (name, start, end, parent) until the run ends.
Counters are computed from call arguments and return values; the one that
needs real work (routing training rows through fitted trees to count the
rows a split search scanned) is deferred to ``finish_pass`` so that it does
not land inside any span.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

import amscascade.cascade as _cascade
import amscascade.checks as _checks
import amscascade.cli as _cli

# bytes the dual_risk kernel must move per grid point at minimum: one float64
# read of u and one float64 write of the risk (a computed figure, not measured)
DUAL_RISK_BYTES_PER_POINT = 16


def _rows(data) -> int:
    return int(np.shape(data.features if hasattr(data, "features") else data)[0])


def unit_of(metric: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if metric.endswith(("_ms_p50", "_ms_p98")):
        return "ms"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes_computed"):
        return "bytes"
    if metric in ("cascade.useful_round_ratio", "trace_overhead"):
        return "ratio"
    return "count"


class Tracer:
    """Collects spans and counters for the passes of one traced run."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._deferred: list[tuple[np.ndarray, object, int]] = []
        self.pass_counts: list[dict[str, float]] = []
        # spans before the first pass belong to set-up
        self.first_pass_span: int | None = None

    # -- installing wrappers -------------------------------------------------

    def wrap(self, module, attr: str, span: str, count=None) -> None:
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append((span, 0.0, 0.0, parent))
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (span, start, end, parent)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def install(self, bench_module) -> None:
        """Wrap every layer boundary the four workloads cross."""
        w = self.wrap
        # the benchmark's own calls into the program
        w(bench_module, "run_cascade_fresh", "cascade.run", _count_cascade)
        w(bench_module, "run_cascade_warmstart", "cascade.run", _count_cascade)
        w(bench_module, "cli_main", "cli.main")
        w(bench_module, "synthesize", "data.synthesize")
        w(bench_module, "split", "data.split")
        # cascade -> learner, significance
        w(_cascade, "make_cost_vector", "learner.make_cost_vector")
        w(_cascade, "train", "learner.train", _count_train)
        w(_cascade, "boost_one_round", "learner.boost_one_round", _count_boost)
        w(_cascade, "classify", "learner.predict", _count_predict)
        w(_cascade, "predict_scores", "learner.predict", _count_predict)
        w(_cascade, "confusion_summary", "significance.confusion_summary")
        w(_cascade, "optimal_u", "significance.optimal_u")
        w(_cascade, "significance_curve", "significance.significance_curve")
        # checks -> cascade, significance, and the suites themselves
        w(_checks, "select_threshold", "cascade.select_threshold")
        w(_checks, "dual_risk", "significance.dual_risk", _count_dual_risk)
        w(_checks, "optimal_u", "significance.optimal_u")
        for suite in ("fenchel_young", "grid_optimum", "duality", "gradient", "threshold_scan"):
            w(_checks, "check_" + suite, "checks." + suite)
        # cli -> every layer
        w(_cli, "run_all_checks", "checks.run_all")
        w(_cli, "run_cascade", "cascade.run", _count_cascade)
        w(_cli, "write_trace_csv", "cascade.write_trace_csv")
        w(_cli, "parse_cascade_config", "cascade.parse_config")
        w(_cli, "load_csv", "data.load_csv", _count_load_csv)
        w(_cli, "split", "data.split")
        w(_cli, "synthesize", "data.synthesize")
        w(_cli, "write_submission", "data.write_submission")
        w(_cli, "classify", "learner.predict", _count_predict)
        w(_cli, "predict_scores", "learner.predict", _count_predict)
        w(_cli, "save_model", "learner.save_model")
        w(_cli, "load_model", "learner.load_model")
        w(_cli, "confusion_summary", "significance.confusion_summary")
        w(_cli, "significance_curve", "significance.significance_curve")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- passes -------------------------------------------------------------

    def start_pass(self) -> None:
        self.counts = defaultdict(float)
        self._deferred = []
        if self.first_pass_span is None:
            self.first_pass_span = len(self.spans)

    def finish_pass(self) -> None:
        """Run the deferred counters and keep this pass's counts."""
        for features, tree, depth_limit in self._deferred:
            self.counts["learner.split_rows_scanned"] += _split_rows_scanned(
                features, tree, depth_limit
            )
        self._deferred = []
        self.pass_counts.append(dict(self.counts))

    # -- deriving per-layer metrics -------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-pass means of span times and counters, by metric name.

        Set-up spans count only towards ``data.synthesize_s``, which is
        reported per set-up rather than per pass.
        """
        n_passes = max(len(self.pass_counts), 1)
        first = len(self.spans) if self.first_pass_span is None else self.first_pass_span
        setup_total: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans[:first]:
            setup_total[name] += end - start
        spans = self.spans[first:]
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(spans, start=first):
            total[name] += end - start
            self_time[name] += (end - start) - child_time[i]
        boost_ms = [
            1e3 * (end - start) for name, start, end, _ in spans
            if name == "learner.boost_one_round"
        ]
        counts: dict[str, float] = defaultdict(float)
        for pc in self.pass_counts:
            for key, value in pc.items():
                counts[key] += value

        def per_pass(x):
            return x / n_passes

        fit_s = total["learner.train"] + total["learner.boost_one_round"]
        rows_scanned = per_pass(counts["learner.split_rows_scanned"])
        rows_parsed = per_pass(counts["data.rows_parsed"])
        points = per_pass(counts["significance.dual_risk_points"])
        rounds = counts["cascade.rounds"]
        out = {
            "learner.train_s": per_pass(total["learner.train"]),
            "learner.train_calls": per_pass(counts["learner.train_calls"]),
            "learner.trees_fitted": per_pass(counts["learner.trees_fitted"]),
            "learner.internal_nodes": per_pass(counts["learner.internal_nodes"]),
            "learner.split_rows_scanned": rows_scanned,
            "learner.split_rows_per_s": rows_scanned / per_pass(fit_s) if fit_s > 0 else 0.0,
            "learner.boost_one_round_s": per_pass(total["learner.boost_one_round"]),
            "learner.boost_one_round_ms_p50": _percentile(boost_ms, 50),
            "learner.boost_one_round_ms_p98": _percentile(boost_ms, 98),
            "learner.predict_s": per_pass(total["learner.predict"]),
            "learner.tree_evals": per_pass(counts["learner.tree_evals"]),
            "learner.tree_row_evals": per_pass(counts["learner.tree_row_evals"]),
            "learner.make_cost_vector_s": per_pass(total["learner.make_cost_vector"]),
            "learner.save_model_s": per_pass(total["learner.save_model"]),
            "learner.load_model_s": per_pass(total["learner.load_model"]),
            "data.load_csv_s": per_pass(total["data.load_csv"]),
            "data.rows_parsed": rows_parsed,
            "data.load_csv_rows_per_s": (
                rows_parsed / per_pass(total["data.load_csv"]) if total["data.load_csv"] > 0 else 0.0
            ),
            "data.write_submission_s": per_pass(total["data.write_submission"]),
            "data.split_s": per_pass(total["data.split"]),
            "data.synthesize_s": setup_total["data.synthesize"],
            "significance.confusion_summary_s": per_pass(total["significance.confusion_summary"]),
            "significance.confusion_summary_calls": per_pass(
                _span_count(spans, "significance.confusion_summary")
            ),
            "significance.dual_risk_s": per_pass(total["significance.dual_risk"]),
            "significance.dual_risk_points": points,
            "significance.dual_risk_points_per_s": (
                points / per_pass(total["significance.dual_risk"])
                if total["significance.dual_risk"] > 0 else 0.0
            ),
            "significance.dual_risk_bytes_computed": points * DUAL_RISK_BYTES_PER_POINT,
            "significance.significance_curve_s": per_pass(total["significance.significance_curve"]),
            "significance.optimal_u_calls": per_pass(_span_count(spans, "significance.optimal_u")),
            "cascade.run_s": per_pass(total["cascade.run"]),
            "cascade.self_s": per_pass(self_time["cascade.run"]),
            "cascade.rounds": per_pass(rounds),
            "cascade.useful_round_ratio": (
                counts["cascade.chosen_round_fresh"] / counts["cascade.rounds_fresh"]
                if counts["cascade.rounds_fresh"] > 0 else 0.0
            ),
            "cascade.select_threshold_s": per_pass(total["cascade.select_threshold"]),
            "cascade.select_threshold_calls": per_pass(
                _span_count(spans, "cascade.select_threshold")
            ),
            "checks.grid_optimum_s": per_pass(total["checks.grid_optimum"]),
            "checks.threshold_scan_s": per_pass(total["checks.threshold_scan"]),
            "checks.fenchel_young_s": per_pass(total["checks.fenchel_young"]),
            "checks.duality_s": per_pass(total["checks.duality"]),
            "checks.gradient_s": per_pass(total["checks.gradient"]),
            "cli.main_s": per_pass(total["cli.main"]),
            "cli.self_s": per_pass(self_time["cli.main"]),
        }
        return out

    def counters_repeat(self) -> bool:
        """True when every traced pass produced the same exact counts."""
        return all(pc == self.pass_counts[0] for pc in self.pass_counts)


def _span_count(spans, name: str) -> int:
    return sum(1 for span in spans if span[0] == name)


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values), q))


# -- counters: (tracer, args, kwargs, result) -> None ---------------------------


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_new_trees(tracer: Tracer, dataset, config, trees) -> None:
    if config.subsample != 1.0:
        raise ValueError("split_rows_scanned is exact only without row subsampling")
    for tree in trees:
        tracer.counts["learner.trees_fitted"] += 1
        tracer.counts["learner.internal_nodes"] += int(np.count_nonzero(tree.feature >= 0))
        tracer._deferred.append((dataset.features, tree, config.depth))


def _count_train(tracer: Tracer, args, kwargs, model) -> None:
    dataset = _arg(args, kwargs, 0, "dataset")
    config = _arg(args, kwargs, 2, "config")
    tracer.counts["learner.train_calls"] += 1
    if config.kind == "logistic":
        return
    # train() predicts each new tree once on the training rows
    tracer.counts["learner.tree_evals"] += config.rounds
    tracer.counts["learner.tree_row_evals"] += config.rounds * dataset.n
    _count_new_trees(tracer, dataset, config, model.trees)


def _count_boost(tracer: Tracer, args, kwargs, model) -> None:
    prior = _arg(args, kwargs, 0, "model")
    dataset = _arg(args, kwargs, 1, "dataset")
    config = _arg(args, kwargs, 3, "config")
    # boost_one_round() re-predicts every prior tree to rebuild the scores
    tracer.counts["learner.tree_evals"] += prior.n_trees
    tracer.counts["learner.tree_row_evals"] += prior.n_trees * dataset.n
    _count_new_trees(tracer, dataset, config, model.trees[prior.n_trees:])


def _count_predict(tracer: Tracer, args, kwargs, _result) -> None:
    model = _arg(args, kwargs, 0, "model")
    data = _arg(args, kwargs, 1, "data")
    tracer.counts["learner.tree_evals"] += model.n_trees
    tracer.counts["learner.tree_row_evals"] += model.n_trees * _rows(data)


def _count_dual_risk(tracer: Tracer, args, kwargs, _result) -> None:
    tracer.counts["significance.dual_risk_points"] += int(np.size(_arg(args, kwargs, 1, "u")))


def _count_load_csv(tracer: Tracer, _args, _kwargs, dataset) -> None:
    tracer.counts["data.rows_parsed"] += dataset.n


def _count_cascade(tracer: Tracer, _args, _kwargs, result) -> None:
    _, trace = result
    tracer.counts["cascade.rounds"] += len(trace.records)
    if trace.variant == "fresh":
        tracer.counts["cascade.rounds_fresh"] += len(trace.records)
        tracer.counts["cascade.chosen_round_fresh"] += trace.chosen_round


def _split_rows_scanned(features: np.ndarray, tree, depth_limit: int) -> int:
    """Rows x features over every node where ``_build_tree`` searched a split.

    ``_build_tree`` searches a node when it is shallower than the depth limit
    and holds at least two rows; the node becomes a leaf when no split
    qualifies.  Routing the training rows through the fitted tree recovers
    each node's rows and depth exactly.
    """
    d = features.shape[1]
    scanned = 0
    stack = [(0, np.arange(features.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        if depth < depth_limit and idx.size >= 2:
            scanned += idx.size * d
        if tree.feature[node] < 0:
            continue
        col = features[idx, tree.feature[node]]
        go_left = np.where(np.isnan(col), tree.missing_left[node], col < tree.threshold[node])
        stack.append((int(tree.left[node]), idx[go_left], depth + 1))
        stack.append((int(tree.right[node]), idx[~go_left], depth + 1))
    return scanned
