"""Cost-sensitive base learners for the cascade.

The 0-1 weighted classification error that the cascade wants minimized is
non-differentiable, so training optimizes a cost-weighted logistic
surrogate instead and ``weighted_error`` stays the reported metric.  Two
learner families are provided: gradient-boosted regression trees (depth-1
stumps or depth-k trees, with exact greedy split search and warm-start
support) and a weighted logistic baseline fit by Newton iterations.

Asymmetric class costs enter as per-example multipliers on the surrogate,
never by resampling, so training is deterministic given a seed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np
from scipy.special import expit

from .data import WeightedDataset, _freeze_field
from .errors import ConfigError, DataError, TrainingError
from .significance import SignificanceMeasure, validate_dual

__all__ = [
    "CostVector",
    "LearnerConfig",
    "Tree",
    "Model",
    "make_cost_vector",
    "weighted_error",
    "surrogate_loss",
    "surrogate_gradient",
    "surrogate_hessian",
    "train",
    "boost_one_round",
    "empty_model",
    "predict_scores",
    "classify",
    "hard_labels",
    "save_model",
    "load_model",
]

_LEARNER_KINDS = ("stump-boost", "tree-boost", "logistic")
_BOOSTING_KINDS = ("stump-boost", "tree-boost")


@dataclass(frozen=True)
class CostVector:
    """Per-example misclassification costs generated by one dual weight."""

    costs: np.ndarray
    round_dual: float

    def __post_init__(self) -> None:
        costs = _freeze_field(self, "costs", float)
        if costs.ndim != 1:
            raise ValueError("costs must be 1-D")
        if not np.all(costs >= 0.0):
            raise ValueError("costs must be nonnegative")
        # an infinite cost, or finite costs whose total overflows
        if not np.isfinite(costs.sum()):
            raise ValueError("costs must be finite, with a finite total")
        if not np.any(costs > 0.0):
            raise ValueError("at least one cost must be positive")

    @property
    def n(self) -> int:
        return self.costs.shape[0]


@dataclass(frozen=True)
class LearnerConfig:
    """Base-learner hyperparameters.

    learning_rate 0 is allowed (it freezes scores, useful for structural
    tests); subsample < 1 row-samples each boosting round without
    replacement.
    """

    kind: str = "tree-boost"
    rounds: int = 50
    learning_rate: float = 0.1
    max_depth: int = 3
    min_child_weight: float = 1.0
    seed: int = 0
    subsample: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _LEARNER_KINDS:
            raise ConfigError(
                f"learner kind must be one of {_LEARNER_KINDS}, got {self.kind!r}"
            )
        if not isinstance(self.rounds, int) or self.rounds < 1:
            raise ConfigError(f"rounds must be an integer >= 1, got {self.rounds!r}")
        if not 0.0 <= self.learning_rate <= 1.0:
            raise ConfigError(
                f"learning_rate must lie in [0, 1], got {self.learning_rate!r}"
            )
        if not isinstance(self.max_depth, int) or self.max_depth < 1:
            raise ConfigError(f"max_depth must be an integer >= 1, got {self.max_depth!r}")
        if not (math.isfinite(self.min_child_weight) and self.min_child_weight >= 0.0):
            raise ConfigError(
                f"min_child_weight must be finite and >= 0, got {self.min_child_weight!r}"
            )
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not 0.0 < self.subsample <= 1.0:
            raise ConfigError(f"subsample must lie in (0, 1], got {self.subsample!r}")

    @property
    def depth(self) -> int:
        return 1 if self.kind == "stump-boost" else self.max_depth


def _goes_left(col: np.ndarray, threshold, missing_left) -> np.ndarray:
    """The routing rule: x < threshold goes left, NaN follows missing_left.

    Element-wise over broadcast arrays; NaN compares false to any threshold.
    """
    return (col < threshold) | (np.isnan(col) & missing_left)


def _leaf_row(value: float) -> tuple:
    return (-1, math.nan, -1, -1, True, value)


@dataclass(frozen=True)
class Tree:
    """One regression tree as flat node arrays.

    Internal nodes carry (feature, threshold, left, right, missing_left);
    leaves have feature -1 and carry value.  Routing: x < threshold goes
    left, x >= threshold goes right, NaN follows missing_left.  Thresholds
    are realized feature values (the smallest value of the right child), so
    the partition is exact in floating point.

    The six arrays are 1-D, non-empty and of one length, and every split
    node's children follow it and lie inside the tree, so every walk from
    the root ends on a leaf; anything else raises ValueError.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    missing_left: np.ndarray
    value: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (
            ("feature", np.int64),
            ("threshold", float),
            ("left", np.int64),
            ("right", np.int64),
            ("missing_left", bool),
            ("value", float),
        ):
            arr = _freeze_field(self, name, dtype)
            if arr.shape != self.feature.shape:
                raise ValueError(
                    f"tree arrays must have one shape: feature has {self.feature.shape}, "
                    f"{name} {arr.shape}"
                )
        if self.feature.ndim != 1 or self.feature.size == 0:
            raise ValueError(f"tree arrays must be 1-D and non-empty, got {self.feature.shape}")
        split = np.flatnonzero(self.feature >= 0)
        for child in (self.left[split], self.right[split]):
            outside = (child <= split) | (child >= self.n_nodes)
            if outside.any():
                raise ValueError(f"node {split[outside][0]} has a child outside the tree")

    @classmethod
    def _from_rows(cls, rows: list[tuple]) -> "Tree":
        # rows are (feature, threshold, left, right, missing_left, value) in
        # preorder, the field order above; leaves come from _leaf_row
        return cls(*(zip(*rows) if rows else [()] * 6))

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    def predict(self, features: np.ndarray) -> np.ndarray:
        """This tree's output on each row of ``features``.

        ``features`` must be a matrix with a column for every split feature.
        """
        table = _NodeTable((self,))
        needed = table.n_columns
        features = _feature_matrix(features, needed, math.inf, f"tree ({needed} columns or more)")
        return _tree_outputs(table, features)[0]


class _NodeTable:
    """Trees' nodes laid end to end, the layout ``_tree_outputs`` walks.

    Child indices are shifted by each tree's offset and leaves route to
    themselves and read column 0, so a (tree, row) pair that reached a leaf
    stays there.  ``left_value`` and ``right_value`` hold the value of each
    node's children (a leaf's own value), ``depth`` is the number of levels
    of the deepest tree and ``n_columns`` the number of columns the splits
    read.  Built from the trees alone, so a model can keep its table for
    every call.
    """

    def __init__(self, trees: Sequence[Tree]):
        sizes = np.fromiter((tree.n_nodes for tree in trees), np.int64, len(trees))
        self.roots = np.cumsum(sizes) - sizes
        feature = np.concatenate([tree.feature for tree in trees])
        split = np.flatnonzero(feature >= 0)
        shift = np.repeat(self.roots, sizes)[split]
        self.left = np.arange(feature.size)
        self.right = self.left.copy()
        self.left[split] = np.concatenate([tree.left for tree in trees])[split] + shift
        self.right[split] = np.concatenate([tree.right for tree in trees])[split] + shift
        self.feature = np.zeros_like(feature)
        self.feature[split] = feature[split]
        self.n_columns = int(feature.max()) + 1
        self.threshold = np.concatenate([tree.threshold for tree in trees])
        self.missing_left = np.concatenate([tree.missing_left for tree in trees])
        value = np.concatenate([tree.value for tree in trees])
        self.left_value = value[self.left]
        self.right_value = value[self.right]
        # levels as node masks: a loaded tree may reach one node from two parents
        self.depth = 0
        level = np.zeros(feature.size, dtype=bool)
        level[self.roots] = True
        while True:
            parents = np.flatnonzero(level & (feature >= 0))
            if parents.size == 0:
                break
            level[:] = False
            level[self.left[parents]] = True
            level[self.right[parents]] = True
            self.depth += 1

    def extended(self, tree: Tree) -> "_NodeTable":
        """The table of this table's trees followed by ``tree``.

        Equal to a build from all the trees, at the cost of a one-tree build
        and a copy.
        """
        grown, offset = _NodeTable((tree,)), self.left.size
        for name in ("roots", "left", "right"):
            setattr(grown, name, getattr(grown, name) + offset)
        for name in (
            "roots", "left", "right", "feature", "threshold", "missing_left",
            "left_value", "right_value",
        ):
            setattr(grown, name, np.concatenate([getattr(self, name), getattr(grown, name)]))
        grown.depth = max(self.depth, grown.depth)
        grown.n_columns = max(self.n_columns, grown.n_columns)
        return grown


# (tree, row) pairs walked per block of rows by _tree_outputs: each of its
# temporary arrays takes at most 256 KB, which keeps a block in cache
_BLOCK_CELLS = 1 << 15


def _tree_outputs(table: _NodeTable, features: np.ndarray) -> np.ndarray:
    """The ``(trees, rows)`` outputs of every tree of ``table`` on every row.

    Every (tree, row) pair moves down one level per step, routed by the
    node it is at, so only reached nodes are evaluated: the first step
    reads whole rows of the transposed block at the roots, later steps
    gather each pair's cell by flat index, and the last step reads the
    children's values instead of the children.
    """
    n_trees, n_rows = table.roots.size, features.shape[0]
    out = np.empty((n_trees, n_rows))
    roots = table.roots[:, None]
    step = max(1, _BLOCK_CELLS // n_trees)
    for start in range(0, n_rows, step):
        columns = np.ascontiguousarray(features[start:start + step].T)
        n = columns.shape[1]
        node, go_left = roots, False
        if table.depth:
            go_left = _goes_left(
                columns[table.feature[table.roots]],
                table.threshold[roots],
                table.missing_left[roots],
            )
        cells, rows = columns.ravel(), np.arange(n)
        for _ in range(1, table.depth):
            node = np.where(go_left, table.left[node], table.right[node])
            go_left = _goes_left(
                cells[table.feature[node] * n + rows],
                table.threshold[node],
                table.missing_left[node],
            )
        out[:, start:start + n] = np.where(
            go_left, table.left_value[node], table.right_value[node]
        )
    return out


@dataclass(frozen=True)
class Model:
    """A trained scorer plus its decision threshold.

    classify() returns +1 exactly when the margin score exceeds
    ``threshold``.  Boosted models score as base_score plus the ordered sum
    of tree outputs; the trees tuple only ever grows under warm-start
    boosting.  Logistic models score as base_score + x @ coefficients after
    median imputation of missing values, and hold one coefficient and one
    imputation value per feature.  An n_features that is negative or not
    an integer (numpy integers are stored as int), logistic vectors of
    another length, and either vector on a boosted model raise ValueError.
    """

    kind: str
    n_features: int
    base_score: float
    threshold: float = 0.0
    trees: tuple[Tree, ...] = ()
    coefficients: Optional[np.ndarray] = None
    impute_values: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.kind not in _LEARNER_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not isinstance(self.n_features, numbers.Integral):
            raise ValueError(f"feature count must be an integer, got {self.n_features!r}")
        object.__setattr__(self, "n_features", int(self.n_features))
        if self.n_features < 0:
            raise ValueError(f"negative feature count {self.n_features}")
        for name in ("coefficients", "impute_values"):
            arr = getattr(self, name)
            if arr is not None:
                if self.kind in _BOOSTING_KINDS:
                    # save_model writes no vectors for a boosted model
                    raise ValueError(f"a {self.kind} model takes no {name}")
                arr = _freeze_field(self, name, float)
            if self.kind == "logistic" and np.shape(arr) != (self.n_features,):
                raise ValueError(f"{name} must have shape ({self.n_features},), "
                                 f"got {np.shape(arr)}")

    def with_threshold(self, threshold: float) -> "Model":
        return replace(self, threshold=threshold)

    @cached_property
    def _node_table(self) -> _NodeTable:
        # built on first use and kept: it depends only on the immutable
        # trees, and the cascade scores one model several times.  Not a
        # field, so ==, repr, replace() and with_threshold() ignore it
        return _NodeTable(self.trees)

    @property
    def n_trees(self) -> int:
        return len(self.trees)


def make_cost_vector(
    dataset: WeightedDataset, u: float, measure: SignificanceMeasure
) -> CostVector:
    """Per-example costs for one round: signal w*u, background w*f*(u).

    Costs that overflow, one by one or in total, or that all underflow to
    0, raise TrainingError.
    """
    validate_dual(u)
    background_rate = float(measure.f_conjugate(u))
    with np.errstate(over="ignore"):
        costs = np.where(
            dataset.labels == 1, dataset.weights * u, dataset.weights * background_rate
        )
        total = costs.sum()
    if not (np.isfinite(total) and total > 0.0):
        fault = "all underflow to 0" if total == 0.0 else "overflow"
        raise TrainingError(
            f"example costs {fault} at u = {u!r} (background cost rate "
            f"{background_rate!r}, largest weight {float(dataset.weights.max())!r})"
        )
    return CostVector(costs=costs, round_dual=u)


def weighted_error(
    dataset: WeightedDataset, costs: CostVector, predictions: np.ndarray
) -> float:
    """Total cost of the misclassified examples."""
    preds = np.asarray(predictions)
    if preds.shape != dataset.labels.shape:
        raise ValueError(
            f"predictions shape {preds.shape} does not match dataset ({dataset.n},)"
        )
    if costs.n != dataset.n:
        raise ValueError("cost vector length does not match dataset")
    return float(costs.costs[preds != dataset.labels].sum())


def surrogate_loss(costs: np.ndarray, labels: np.ndarray, scores: np.ndarray) -> float:
    """Cost-weighted logistic loss sum c_i * ln(1 + exp(-y_i F_i))."""
    margin = labels * scores
    return float(np.sum(costs * np.logaddexp(0.0, -margin)))


def surrogate_gradient(
    costs: np.ndarray, labels: np.ndarray, scores: np.ndarray
) -> np.ndarray:
    """d loss / d scores: -c * y * sigmoid(-y F)."""
    return -costs * labels * expit(-labels * scores)


def surrogate_hessian(
    costs: np.ndarray, labels: np.ndarray, scores: np.ndarray
) -> np.ndarray:
    """Diagonal second derivative: c * sigmoid(-yF) * sigmoid(yF)."""
    margin = labels * scores
    return costs * expit(-margin) * expit(margin)


def _safe_ratio(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Element-wise g * g / h where h > 0, else 0."""
    return np.divide(g * g, h, out=np.zeros_like(h), where=h > 0.0)


def _build_tree(
    features: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    costs: np.ndarray,
    learning_rate: float,
    max_depth: int,
    min_child_weight: float,
    root_rows: Sequence[np.ndarray],
) -> Tree:
    # root_rows[j] lists the rows where feature j is present, sorted by
    # (value, row index).  A split filters every such list into its children
    # through one row-membership mask; the filter keeps the order, so each
    # node sees exactly the sequence a stable argsort of its own ascending
    # rows would give, and every cumulative sum runs in the same order.
    n = features.shape[0]
    columns = np.ascontiguousarray(features.T)
    missing_cells = np.isnan(columns)
    in_left = np.empty(n, dtype=bool)  # the splitting node's left rows
    rows: list[tuple] = []

    def leaf_value(idx: np.ndarray) -> float:
        G = float(g[idx].sum())
        H = float(h[idx].sum())
        return -learning_rate * G / H if H > 0.0 else 0.0

    def best_split(idx: np.ndarray, sorted_rows: Sequence[np.ndarray]):
        # returns (feature, threshold, missing_left) or None.  Each feature's
        # candidates form a (boundary, missing side) grid, column 0 sending the
        # missing rows left; ties go to the first candidate in scan order:
        # feature index ascending, threshold ascending, missing-to-left before
        # missing-to-right
        parent = _safe_ratio(g[idx].sum(), h[idx].sum())
        best = None
        best_gain = 0.0
        for j, sorted_idx in enumerate(sorted_rows):
            if sorted_idx.size < 2:
                continue
            v = columns[j][sorted_idx]
            boundaries = np.flatnonzero(v[1:] > v[:-1]) + 1
            if boundaries.size == 0:
                continue
            missing = idx[missing_cells[j][idx]]
            grid = np.empty((6, boundaries.size, 2))
            for left, right, values in zip(grid[::2], grid[1::2], (g, h, costs)):
                cum = np.cumsum(values[sorted_idx])
                miss = float(values[missing].sum())
                below, above = left[:, 1], right[:, 0]
                np.take(cum, boundaries - 1, out=below)
                np.subtract(cum[-1], below, out=above)
                np.add(below, miss, out=left[:, 0])
                np.add(above, miss, out=right[:, 1])
            GL, GR, HL, HR, CL, CR = grid
            gain = (_safe_ratio(GL, HL) + _safe_ratio(GR, HR)) - parent
            # the skip rules negated: a NaN cost or gain compares false, so it
            # is not skipped
            keep = ~((CL < min_child_weight) | (CR < min_child_weight) | (gain <= 0.0))
            if not keep.any():
                continue
            gain, keep = gain.ravel(), keep.ravel()
            first = int(np.argmax(keep))
            if best is None and np.isnan(gain[first]):
                # a NaN gain taken first is final: no gain compares greater
                return j, float(v[boundaries[first // 2]]), first % 2 == 0
            # kept gains are > 0 or NaN, so 0 marks a candidate never taken
            score = np.where(keep & ~np.isnan(gain), gain, 0.0)
            i = int(np.argmax(score))
            if score[i] > best_gain:
                best_gain = score[i]
                best = (j, float(v[boundaries[i // 2]]), i % 2 == 0)
        return best

    def build(
        idx: np.ndarray, sorted_rows: Optional[Sequence[np.ndarray]], depth: int
    ) -> None:
        split = None if depth >= max_depth or idx.size < 2 else best_split(idx, sorted_rows)
        if split is None:
            rows.append(_leaf_row(leaf_value(idx)))
            return
        j, cut, miss_left = split
        go_left = _goes_left(columns[j][idx], cut, miss_left)
        # children at the depth limit search no split, so need no lists; the
        # lists live along one root-to-node path, at most max_depth x d x n
        # entries
        left_rows = right_rows = None
        if depth + 1 < max_depth:
            in_left[idx] = go_left
            left_rows, right_rows = [], []
            for sorted_idx in sorted_rows:
                side = in_left[sorted_idx]
                left_rows.append(sorted_idx[side])
                right_rows.append(sorted_idx[~side])
        node = len(rows)
        rows.append(None)  # filled in once the left subtree's size is known
        build(idx[go_left], left_rows, depth + 1)
        rows[node] = (j, cut, node + 1, len(rows), miss_left, 0.0)
        build(idx[~go_left], right_rows, depth + 1)

    build(np.arange(n), root_rows, 0)
    return Tree._from_rows(rows)


def _check_training_inputs(dataset: WeightedDataset, costs: CostVector) -> None:
    if dataset.n == 0:
        raise TrainingError("cannot train on an empty dataset")
    if costs.n != dataset.n:
        raise ValueError("cost vector length does not match dataset")
    if not (np.any(dataset.labels == 1) and np.any(dataset.labels == -1)):
        raise TrainingError("training requires both classes present")


def _base_score(costs: np.ndarray, labels: np.ndarray) -> float:
    pos = float(costs[labels == 1].sum())
    neg = float(costs[labels == -1].sum())
    if pos <= 0.0 or neg <= 0.0:
        return 0.0
    ratio = pos / neg
    # where the ratio under- or overflows, the difference of the logs is finite
    return math.log(ratio) if 0.0 < ratio < math.inf else math.log(pos) - math.log(neg)


def _round_rng(seed: int, round_index: int) -> np.random.Generator:
    # one independent stream per boosting round so warm starts replay
    # train() exactly regardless of how rounds are interleaved
    return np.random.default_rng([seed, round_index])


def _fit_round(
    dataset: WeightedDataset,
    cost_arr: np.ndarray,
    scores: np.ndarray,
    config: LearnerConfig,
    round_index: int,
) -> Tree:
    features, root_rows = dataset.features, dataset._column_order
    g = surrogate_gradient(cost_arr, dataset.labels, scores)
    h = surrogate_hessian(cost_arr, dataset.labels, scores)
    n = dataset.n
    if config.subsample < 1.0:
        rng = _round_rng(config.seed, round_index)
        m = max(1, int(round(config.subsample * n)))
        rows = np.sort(rng.permutation(n)[:m])
        # renumber each sorted list to subsample positions, dropping the rows
        # not sampled; rows ascend, so the order stays (value, row index)
        position = np.full(n, -1)
        position[rows] = np.arange(m)
        root_rows = [kept[kept >= 0] for kept in (position[r] for r in root_rows)]
        features, g, h, cost_arr = features[rows], g[rows], h[rows], cost_arr[rows]
    return _build_tree(
        features,
        g,
        h,
        cost_arr,
        config.learning_rate,
        config.depth,
        config.min_child_weight,
        root_rows,
    )


def train(dataset: WeightedDataset, costs: CostVector, config: LearnerConfig) -> Model:
    """Fit a model minimizing the cost-weighted logistic surrogate.

    Boosting kinds run ``config.rounds`` rounds of Newton-step regression
    trees; the logistic kind ignores rounds and fits by damped Newton
    iterations.  Deterministic given ``config.seed``.
    """
    _check_training_inputs(dataset, costs)
    if config.kind == "logistic":
        return _train_logistic(dataset, costs)
    base = _base_score(costs.costs, dataset.labels)
    model = Model(kind=config.kind, n_features=dataset.d, base_score=base)
    scores = np.full(dataset.n, base, dtype=float)
    for _ in range(config.rounds):
        model, tree = _grow(model, dataset, costs, scores, config)
        scores = scores + tree.predict(dataset.features)
    return model


def _grow(
    model: Model,
    dataset: WeightedDataset,
    costs: CostVector,
    scores: np.ndarray,
    config: LearnerConfig,
) -> tuple[Model, Tree]:
    """``model`` grown by one tree fit at ``scores``, and that tree.

    The grown model extends its predecessor's node table only when the
    predecessor already holds one; otherwise it builds its own on first use.
    """
    tree = _fit_round(dataset, costs.costs, scores, config, model.n_trees)
    grown = replace(model, trees=model.trees + (tree,))
    if "_node_table" in vars(model):
        grown.__dict__["_node_table"] = model._node_table.extended(tree)
    return grown, tree


def boost_one_round(
    model: Model, dataset: WeightedDataset, costs: CostVector, config: LearnerConfig
) -> Model:
    """Append exactly one tree fit to the current surrogate gradient.

    Prior trees are untouched, so k calls starting from an empty model
    reproduce train(rounds=k) bit-exactly for equal seeds.
    """
    if model.kind not in _BOOSTING_KINDS:
        raise TrainingError(f"model kind {model.kind!r} does not support boosting")
    if model.kind != config.kind:
        raise TrainingError(
            f"learner kind mismatch: model is {model.kind!r}, config is {config.kind!r}"
        )
    _check_training_inputs(dataset, costs)
    # predict_scores builds or reuses the node table that _grow extends
    return _grow(model, dataset, costs, predict_scores(model, dataset), config)[0]


def empty_model(kind: str, n_features: int, base_score: float = 0.0) -> Model:
    """A treeless boosting model, the warm-start zero point."""
    if kind not in _BOOSTING_KINDS:
        raise ValueError(f"empty_model requires a boosting kind, got {kind!r}")
    return Model(kind=kind, n_features=n_features, base_score=base_score)


def _weighted_median(col: np.ndarray, order: np.ndarray, weights: np.ndarray) -> float:
    """The weighted median of ``col``'s present values.

    ``order`` lists the present rows sorted by (value, row index); with no
    positive weight among them it is the plain median.
    """
    cum = np.cumsum(weights[order])
    if cum[-1] <= 0.0:
        return float(np.median(col[order]))
    pos = np.searchsorted(cum, 0.5 * cum[-1])
    return float(col[order[min(pos, order.size - 1)]])


def _impute(features: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A copy of ``features`` with each NaN in column j replaced by values[j]."""
    return np.where(np.isnan(features), values, features)


def _design_matrix(features: np.ndarray, impute: np.ndarray) -> np.ndarray:
    """``[1, features]`` with each NaN in column j replaced by impute[j].

    Written in place, without the imputed copy of ``features`` that
    ``_impute`` would make.
    """
    design = np.empty((features.shape[0], features.shape[1] + 1))
    design[:, 0] = 1.0
    np.copyto(design[:, 1:], features)
    np.copyto(design[:, 1:], impute, where=np.isnan(features))
    return design


def _train_logistic(dataset: WeightedDataset, costs: CostVector) -> Model:
    impute = np.zeros(dataset.d)
    for j, order in enumerate(dataset._column_order):
        if order.size:
            impute[j] = _weighted_median(dataset.features[:, j], order, costs.costs)
    y = dataset.labels.astype(float)
    c = costs.costs
    design = _design_matrix(dataset.features, impute)
    beta = np.zeros(design.shape[1])
    ridge = 1e-8 * np.eye(design.shape[1])
    for _ in range(100):
        f = design @ beta
        grad = design.T @ surrogate_gradient(c, y, f)
        hess = (design * surrogate_hessian(c, y, f)[:, None]).T @ design
        step = np.linalg.solve(hess + ridge, grad)
        beta = beta - step
        if float(np.max(np.abs(step))) < 1e-10:
            break
    return Model(
        kind="logistic",
        n_features=dataset.d,
        base_score=float(beta[0]),
        threshold=0.0,
        coefficients=beta[1:],
        impute_values=impute,
    )


def _feature_matrix(
    data: Union[WeightedDataset, np.ndarray], fewest: int, most: float, owner: str
) -> np.ndarray:
    """``data``'s features, checked to be a matrix of ``fewest`` to ``most`` columns."""
    features = data.features if isinstance(data, WeightedDataset) else np.asarray(data, dtype=float)
    if features.ndim != 2 or not fewest <= features.shape[1] <= most:
        raise DataError(f"feature matrix shape {features.shape} does not match {owner}")
    return features


def predict_scores(model: Model, data: Union[WeightedDataset, np.ndarray]) -> np.ndarray:
    """Margin scores: base_score plus the ordered sum of tree outputs."""
    n_features = model.n_features
    features = _feature_matrix(data, n_features, n_features, f"model ({n_features} features)")
    if model.kind == "logistic":
        return model.base_score + _impute(features, model.impute_values) @ model.coefficients
    scores = np.full(features.shape[0], model.base_score, dtype=float)
    if model.trees:
        table = model._node_table
        if table.n_columns > n_features:
            raise DataError(f"model ({n_features} features) splits on column {table.n_columns - 1}")
        for out in _tree_outputs(table, features):
            scores += out
    return scores


def classify(model: Model, data: Union[WeightedDataset, np.ndarray]) -> np.ndarray:
    """Hard labels of the model's scores at its threshold."""
    return hard_labels(predict_scores(model, data), model.threshold)


def hard_labels(scores: np.ndarray, threshold: float) -> np.ndarray:
    """+1 where the score strictly exceeds the threshold, else -1 (int64)."""
    return np.where(scores > threshold, 1, -1).astype(np.int64)


_FORMAT_HEADER = "amscascade model format 1"


def save_model(model: Model, path: str) -> None:
    """Serialize to the versioned text format; exact float round-trip."""
    lines = [
        _FORMAT_HEADER,
        f"kind {model.kind}",
        f"features {model.n_features}",
        f"base_score {model.base_score!r}",
        f"threshold {model.threshold!r}",
    ]
    if model.kind == "logistic":
        lines.append(f"coefficients {model.n_features}")
        for j in range(model.n_features):
            lines.append(f"c {j} {float(model.coefficients[j])!r}")
        lines.append(f"impute {model.n_features}")
        for j in range(model.n_features):
            lines.append(f"i {j} {float(model.impute_values[j])!r}")
    else:
        lines.append(f"trees {model.n_trees}")
        for t, tree in enumerate(model.trees):
            lines.append(f"tree {t} nodes {tree.n_nodes}")
            for k in range(tree.n_nodes):
                if tree.feature[k] < 0:
                    lines.append(f"node {k} leaf {float(tree.value[k])!r}")
                else:
                    side = "left" if tree.missing_left[k] else "right"
                    lines.append(
                        f"node {k} split {int(tree.feature[k])} "
                        f"{float(tree.threshold[k])!r} "
                        f"{int(tree.left[k])} {int(tree.right[k])} {side}"
                    )
    lines.append("end")
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


class _LineReader:
    def __init__(self, lines: list[str]):
        self.lines = lines
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise DataError("model file truncated")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect(self, prefix: str) -> list[str]:
        line = self.next()
        parts = line.split()
        if not line.startswith(prefix + " ") and line != prefix:
            raise DataError(f"model file: expected {prefix!r}, got {line!r}")
        return parts

    def indexed(self, prefix: str, position: int) -> list[str]:
        # trees, nodes and vector entries are numbered by their position
        parts = self.expect(prefix)
        if int(parts[1]) != position:
            raise DataError(
                f"model file: expected {prefix} {position}, got {' '.join(parts)!r}"
            )
        return parts


def load_model(path: str) -> Model:
    """Parse a model saved by save_model.

    An unreadable file or a malformed field raises DataError.
    """
    try:
        with open(path, "r") as handle:
            lines = [line.rstrip("\n") for line in handle]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read model {path!r}: {exc}") from None
    try:
        return _parse_model(_LineReader(lines), path)
    except (ValueError, IndexError) as exc:
        # int()/float() on a bad field, a short line, an out-of-range index,
        # a tree that Tree rejects
        raise DataError(f"model file {path!r}: malformed field ({exc})") from None


def _parse_vector(reader: _LineReader, header: str, prefix: str) -> np.ndarray:
    # Model checks the count against the feature count
    count = int(reader.expect(header)[1])
    if count < 0:
        raise DataError(f"model file: negative {header} count {count}")
    return np.array([float(reader.indexed(prefix, j)[2]) for j in range(count)])


def _parse_tree(reader: _LineReader, position: int, n_features: int) -> Tree:
    n_nodes = int(reader.indexed("tree", position)[3])
    rows = []
    for k in range(n_nodes):
        parts = reader.indexed("node", k)
        if parts[2] == "leaf":
            rows.append(_leaf_row(float(parts[3])))
        elif parts[2] == "split":
            j, left, right = int(parts[3]), int(parts[5]), int(parts[6])
            if not 0 <= j < n_features:
                raise DataError(f"model file: node {k} splits on feature {j} of {n_features}")
            if parts[7] not in ("left", "right"):
                raise DataError(f"model file: node {k} sends missing values to {parts[7]!r}")
            rows.append((j, float(parts[4]), left, right, parts[7] == "left", 0.0))
        else:
            raise DataError(f"model file: bad node line {parts!r}")
    return Tree._from_rows(rows)


def _parse_model(reader: _LineReader, path: str) -> Model:
    if reader.next() != _FORMAT_HEADER:
        raise DataError(f"{path!r} is not a model file (bad header)")
    kind = reader.expect("kind")[1]
    n_features = int(reader.expect("features")[1])
    base_score = float(reader.expect("base_score")[1])
    threshold = float(reader.expect("threshold")[1])
    trees: tuple[Tree, ...] = ()
    coefficients = impute = None
    if kind == "logistic":
        coefficients = _parse_vector(reader, "coefficients", "c")
        impute = _parse_vector(reader, "impute", "i")
    else:
        n_trees = int(reader.expect("trees")[1])
        if n_trees < 0:
            raise DataError(f"model file: negative tree count {n_trees}")
        trees = tuple(_parse_tree(reader, t, n_features) for t in range(n_trees))
    if reader.expect("end") != ["end"]:
        raise DataError("model file: missing end marker")
    return Model(
        kind=kind,
        n_features=n_features,
        base_score=base_score,
        threshold=threshold,
        trees=trees,
        coefficients=coefficients,
        impute_values=impute,
    )
