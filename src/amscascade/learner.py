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
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np
from scipy.special import expit

from .data import WeightedDataset, _fields_equal, _freeze_field, _frozen
from .errors import (
    ConfigError, DataError, TrainingError, _array, _choice, _integer, _labels, _open, _real,
)
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
    "save_model",
    "load_model",
]

_LEARNER_KINDS = ("stump-boost", "tree-boost", "logistic")
_BOOSTING_KINDS = ("stump-boost", "tree-boost")

# A split gain squares a node's gradient sum G, and |G| <= the cost total,
# so this bound keeps G * G <= 1e300 finite; past it, gains turn inf - inf.
_MAX_COST_TOTAL = 1e150


@dataclass(frozen=True)
class CostVector:
    """Per-example misclassification costs generated by one dual weight."""

    costs: np.ndarray
    round_dual: float

    __eq__ = _fields_equal

    def __post_init__(self) -> None:
        costs = _freeze_field(self, "costs", float)
        if costs.ndim != 1:
            raise ValueError("costs must be 1-D")
        if not np.all(costs >= 0.0):
            raise ValueError("costs must be nonnegative")
        # an infinite cost, a total past the bound, or no positive cost
        total = float(costs.sum())
        if not 0.0 < total <= _MAX_COST_TOTAL:
            raise ValueError(f"cost total must lie in (0, {_MAX_COST_TOTAL:g}], got {total!r}")
        object.__setattr__(self, "round_dual", validate_dual(self.round_dual))

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
        object.__setattr__(self, "kind", _choice("learner kind", self.kind, _LEARNER_KINDS))
        for name, least in (("rounds", 1), ("max_depth", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), least))
        for name, low, high, opened in (
            ("learning_rate", 0.0, 1.0, {}),
            ("min_child_weight", 0.0, math.inf, {"open_high": True}),
            ("subsample", 0.0, 1.0, {"open_low": True}),
        ):
            object.__setattr__(self, name, _real(name, getattr(self, name), low, high, **opened))

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

    The six arrays are 1-D, non-empty and of one length, a leaf's feature and
    children are -1, and every split node's children follow it and lie inside
    the tree, so every walk from the root ends on a leaf; anything else raises
    ValueError.  The cells no walk reads, which a model file leaves out, are
    stored as load_model reads them back: a leaf's threshold NaN and missing
    side left, a split's value 0.  ``width`` (not a field) is one past the
    largest split feature.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    missing_left: np.ndarray
    value: np.ndarray

    __eq__ = _fields_equal

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
        leaf = self.feature < 0
        odd = leaf & ((self.feature != -1) | (self.left != -1) | (self.right != -1))
        if odd.any():
            raise ValueError(f"node {np.argmax(odd)} is no leaf: its feature or a child is not -1")
        object.__setattr__(self, "width", int(self.feature.max()) + 1)
        # the cells no walk reads, as load_model gives them, so a tree reloads equal
        for name, cells in (("threshold", np.where(leaf, math.nan, self.threshold)),
                            ("missing_left", self.missing_left | leaf),
                            ("value", np.where(leaf, self.value, 0.0))):
            object.__setattr__(self, name, _frozen(cells))
        split = np.flatnonzero(~leaf)
        # a NaN cut compares false, so it would send every present row right
        nan_cut = np.isnan(self.threshold[split])
        if nan_cut.any():
            raise ValueError(f"split node {split[nan_cut][0]} has a NaN threshold")
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
        features = _feature_matrix(features, self.width, math.inf,
                                   f"tree ({self.width} columns or more)")
        out = np.empty(features.shape[0])
        for rows, block in _tree_blocks(_NodeTable((self,)), features):
            out[rows] = block[0]
        return out


class _NodeTable:
    """Trees' nodes laid end to end, the layout ``_tree_blocks`` walks.

    Each node's children are stored as a pair, at ``2 * node + go_left``:
    ``child`` holds the child, shifted by its tree's offset, and
    ``child_value`` the child's value.  A leaf's pair holds the leaf itself
    and its own value, and a leaf reads column 0, so a (tree, row) pair that
    reached a leaf stays there.  ``depth`` is the number of levels of the
    deepest tree.  Built from the trees alone, so a model can keep its
    table for every call.
    """

    def __init__(self, trees: Sequence[Tree]):
        sizes = np.fromiter((tree.n_nodes for tree in trees), np.int64, len(trees))
        self.roots = np.cumsum(sizes) - sizes
        feature = np.concatenate([tree.feature for tree in trees])
        split = np.flatnonzero(feature >= 0)
        shift = np.repeat(self.roots, sizes)[split]
        # row `node` holds the children at 2 * node (right) and 2 * node + 1 (left)
        pairs = np.repeat(np.arange(feature.size)[:, None], 2, axis=1)
        pairs[split, 0] = np.concatenate([tree.right for tree in trees])[split] + shift
        pairs[split, 1] = np.concatenate([tree.left for tree in trees])[split] + shift
        self.child = pairs.ravel()
        self.feature = np.zeros_like(feature)
        self.feature[split] = feature[split]
        self.threshold = np.concatenate([tree.threshold for tree in trees])
        self.missing_left = np.concatenate([tree.missing_left for tree in trees])
        self.child_value = np.concatenate([tree.value for tree in trees])[self.child]
        # levels as node masks: a loaded tree may reach one node from two parents
        self.depth = 0
        level = np.zeros(feature.size, dtype=bool)
        level[self.roots] = True
        while True:
            parents = np.flatnonzero(level & (feature >= 0))
            if parents.size == 0:
                break
            level[:] = False
            level[pairs[parents]] = True
            self.depth += 1

    def extended(self, tree: Tree) -> "_NodeTable":
        """The table of this table's trees followed by ``tree``.

        Equal to a build from all the trees, at the cost of a one-tree build
        and a copy.
        """
        grown, offset = _NodeTable((tree,)), self.feature.size
        for name in ("roots", "child"):
            setattr(grown, name, getattr(grown, name) + offset)
        for name in ("roots", "child", "feature", "threshold", "missing_left", "child_value"):
            setattr(grown, name, np.concatenate([getattr(self, name), getattr(grown, name)]))
        grown.depth = max(self.depth, grown.depth)
        return grown


# (tree, row) pairs per block of _tree_blocks, so each of a block's
# temporaries takes at most 32 KiB.  Under a 128 KiB mmap threshold, which
# also fixes glibc's trim threshold at 128 KiB, a float array of 128 KiB or
# more is a fresh mmap, and a heap top of 128 KiB freed at the end of a call
# is handed back to the OS; either way its pages fault in again on the next
# call.  One _walk call per block, whose temporaries die when it returns,
# keeps a call's heap well under that.
_BLOCK_CELLS = 1 << 12
# fewest rows of a row block that does not hold every row, so inner loops stay long
_BLOCK_ROWS = 1 << 7


def _tree_blocks(table: _NodeTable, features: np.ndarray):
    """The outputs of ``table``'s trees on ``features``, block by block.

    Yields ``(rows, block)``: ``block`` is a C-contiguous (trees, rows)
    array of consecutive trees' outputs on the rows of the slice ``rows``.
    Rows are cut into blocks of one size (the last may be shorter): as few
    as hold every tree within ``_BLOCK_CELLS`` pairs, but no more than keep
    ``_BLOCK_ROWS`` rows in each.  A row block's trees are cut into blocks
    of at most ``_BLOCK_CELLS`` pairs (one tree at least), yielded in
    ascending order.
    """
    (n_rows, n_cols), n_trees = features.shape, table.roots.size
    n_blocks = max(1, min(-(-n_rows // max(1, _BLOCK_CELLS // n_trees)), n_rows // _BLOCK_ROWS))
    row_step = max(1, -(-n_rows // n_blocks))
    tree_step = max(1, _BLOCK_CELLS // row_step)
    # each tree's root, and the column and threshold it splits at, read
    # once per call instead of once per block
    roots = table.roots[:, None]
    columns, thresholds = table.feature.take(table.roots), table.threshold.take(roots)
    for start in range(0, n_rows, row_step):
        rows = slice(start, start + row_step)
        block_rows = features[rows]
        offsets = np.arange(block_rows.shape[0]) * n_cols
        has_nan = bool(np.isnan(block_rows).any())
        for first in range(0, n_trees, tree_step):
            trees = slice(first, first + tree_step)
            yield rows, _walk(table, roots[trees], columns[trees], thresholds[trees], block_rows,
                              offsets, has_nan)


def _walk(table: _NodeTable, node: np.ndarray, column: np.ndarray, threshold: np.ndarray,
          block_rows: np.ndarray, offsets: np.ndarray, has_nan: bool) -> np.ndarray:
    """The (trees, rows) outputs of the trees rooted at the column ``node``
    on the rows of the C-contiguous ``block_rows``, whose row r starts at
    ``offsets[r]`` of its ravel; ``column`` and ``threshold`` are the roots'.

    Every (tree, row) pair moves down one level per step, routed by the
    node it is at, so only reached nodes are evaluated; the last step reads
    the children's values instead of the children.  At the first step every
    pair is at its tree's root, so each tree reads one column for all rows:
    one row of the block's transposed view, gathered by fancy indexing
    (``take`` would first copy the view into C order).  Deeper steps gather
    cells through a (trees, rows) cell index.  The routing rule's NaN term
    is all False where no cell is NaN, so it is added only when ``has_nan``.
    """
    if not table.depth:
        # every tree is one leaf, which reads its own value
        return table.child_value.take(np.repeat(2 * node, offsets.size, axis=1))
    cells = block_rows.ravel()
    x = block_rows.T[column]
    pair = np.empty(x.shape, dtype=np.int64)  # each pair's 2 * node + go_left
    for level in range(table.depth):
        if level:
            node = table.child.take(pair)
            x = cells.take(table.feature.take(node) + offsets)
            threshold = table.threshold.take(node)
        if has_nan:
            np.add(2 * node, _goes_left(x, threshold, table.missing_left.take(node)), out=pair)
        else:
            np.less(x, threshold, out=pair)  # go_left, as 0 or 1
            pair += 2 * node
    return table.child_value.take(pair)


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
    another length, either vector on a boosted model, trees on a logistic
    model, a tree whose splits read a column past n_features, and trees
    other than a tuple or list of Tree (stored as a tuple) raise ValueError.
    """

    kind: str
    n_features: int
    base_score: float
    threshold: float = 0.0
    trees: tuple[Tree, ...] = ()
    coefficients: Optional[np.ndarray] = None
    impute_values: Optional[np.ndarray] = None

    __eq__ = _fields_equal

    def __post_init__(self) -> None:
        kind = _choice("model kind", self.kind, _LEARNER_KINDS, ValueError)
        object.__setattr__(self, "kind", kind)
        n_features = _integer("feature count", self.n_features, error=ValueError)
        object.__setattr__(self, "n_features", n_features)
        if self.n_features < 0:
            raise ValueError(f"negative feature count {self.n_features}")
        base = _real("base_score", self.base_score, open_low=True, open_high=True, error=ValueError)
        object.__setattr__(self, "base_score", base)
        # -inf is select_threshold's cut that selects everything
        object.__setattr__(self, "threshold", _real("threshold", self.threshold, error=ValueError))
        for name in ("coefficients", "impute_values"):
            arr = getattr(self, name)
            if arr is not None:
                if self.kind != "logistic":
                    # save_model writes no vectors for a boosted model
                    raise ValueError(f"a {self.kind} model takes no {name}")
                arr = _freeze_field(self, name, float)
            if self.kind == "logistic" and np.shape(arr) != (self.n_features,):
                raise ValueError(f"{name} must have shape ({self.n_features},), "
                                 f"got {np.shape(arr)}")
        if not isinstance(self.trees, (tuple, list)):
            raise ValueError(f"trees must be a tuple of Tree, got {type(self.trees).__name__}")
        object.__setattr__(self, "trees", tuple(self.trees))
        for t, tree in enumerate(self.trees):
            if not isinstance(tree, Tree):
                raise ValueError(f"trees must hold only Tree objects, got {type(tree).__name__}")
            if tree.width > n_features:
                raise ValueError(f"tree {t} splits on column {tree.width - 1} "
                                 f"of a {n_features}-feature model")
        if self.trees and self.kind == "logistic":
            # save_model writes no trees for a logistic model
            raise ValueError("a logistic model takes no trees")

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

    Costs whose total passes _MAX_COST_TOTAL (an overflow included), or
    that all underflow to 0, raise TrainingError.
    """
    validate_dual(u)
    background_rate = float(measure.f_conjugate(u))
    with np.errstate(over="ignore"):
        costs = np.where(
            dataset.labels == 1, dataset.weights * u, dataset.weights * background_rate
        )
        total = costs.sum()
    if not 0.0 < total <= _MAX_COST_TOTAL:
        fault = "all underflow to 0" if total == 0.0 else f"exceed a total of {_MAX_COST_TOTAL:g}"
        raise TrainingError(
            f"example costs {fault} at u = {u!r} (background cost rate "
            f"{background_rate!r}, largest weight {float(dataset.weights.max())!r})"
        )
    return CostVector(costs=costs, round_dual=u)


def weighted_error(
    dataset: WeightedDataset, costs: CostVector, predictions: np.ndarray
) -> float:
    """Total cost of the misclassified examples."""
    preds = _labels("predictions", predictions)
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


# (feature, row) entries per batch of _build_tree's split search, so each
# float temporary of a batch takes at most 64 KiB, or 128 KiB with its two
# missing sides.  A batch holds its sorted values, one cumulative sum and
# the six child sums, gains and masks of its candidates at once; past the
# 128 KiB trim threshold (see _BLOCK_CELLS) the heap top they grow is handed
# back when they are freed and faults in again at the next batch.
# Fresh-lift's cascade in one process, 9 interleaved passes per budget
# (2-CPU sandbox, numpy 2.4), median time and minor page faults: 2^12
# 1.01 s, 965 faults; 2^13 0.92 s, 823; 2^14 0.96 s, 56,609; 2^15 0.98 s,
# 57,915.  2^14 scans the root's 5 features of 2,800 rows in one batch but
# faults ~370 more pages per tree; 2^13 scans them as 2 + 2 + 1 and every
# deeper node in one.
_SPLIT_CELLS = 1 << 13


def _safe_ratio(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Element-wise g * g / h where h > 0, else 0."""
    return np.divide(g * g, h, out=np.zeros_like(h), where=h > 0.0)


def _split_gains(GL, GR, HL, HR, parent, guard: bool) -> np.ndarray:
    """The gains of one batch's candidates from their children's sums.

    Without ``guard`` every HL and HR must be > 0, where the plain divide
    gives the bits ``_safe_ratio`` would.
    """
    if guard:
        return (_safe_ratio(GL, HL) + _safe_ratio(GR, HR)) - parent
    return (GL * GL / HL + GR * GR / HR) - parent


def _build_tree(
    features: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    costs: np.ndarray,
    learning_rate: float,
    max_depth: int,
    min_child_weight: float,
    root_order: np.ndarray,
    scores: np.ndarray,
    sample: Optional[np.ndarray] = None,
) -> Tree:
    """The tree fit on the rows ``sample`` marks (all if None).

    Every row is routed to its leaf, whose value is added to the row's entry
    of ``scores`` in place, so ``scores`` gains ``tree.predict(features)``.
    """
    # root_order is a (features, rows) block: row j lists the sampled rows
    # sorted by feature j's value and then row index, the rows where it is
    # NaN last, in ascending order, as a stable argsort puts them.  A split
    # filters the block into its children through one row-membership mask;
    # the filter keeps each row's order, so every node's block is exactly
    # the stable argsort of its own ascending rows, and every cumulative sum
    # runs in one order.
    n, d = features.shape
    columns = np.ascontiguousarray(features.T)
    offsets = (np.arange(d) * n)[:, None]  # row j of columns.ravel()
    in_left = np.empty(n, dtype=bool)  # the splitting node's left rows
    rows: list[tuple] = []
    # The min_child_weight rule cannot fire where every row's cost clears it
    # by more than rounding can take away, and then no cost sum is built.
    # Take c_min the least cost, total their sum and u = eps / 2; where the
    # test below holds, every cost is > min_child_weight >= 0.  A prefix sum
    # of such costs never decreases in floating point, so a left child's
    # CL >= c_min.  A right child's CR = fl(T - B) is at least
    # (c_min - n u (1 + 2 n u) total)(1 - u): each of the at most n additions
    # from the prefix B to the node's total T rounds by at most u times a
    # partial sum <= (1 + 2 n u) total.  The margin of 4 n eps total keeps
    # that above min_child_weight, the rounding of the test included.  A
    # missing side adds a sum >= 0 to either child.  The test is one > so
    # that a NaN or inf cost, or an overflowing margin, keeps the rule.
    c_min, total = costs.min(), costs.sum()
    cost_rule = not c_min - min_child_weight > 4 * n * np.finfo(float).eps * total

    def leaf_value(idx: np.ndarray) -> float:
        G = float(g[idx].sum())
        H = float(h[idx].sum())
        return -learning_rate * G / H if H > 0.0 else 0.0

    def best_split(idx: np.ndarray, block: np.ndarray):
        # returns (feature, threshold, missing_left) or None.  Features are
        # scanned in batches: slices of the node's block of at most
        # _SPLIT_CELLS entries (one feature at least).  NaN sorts last and
        # compares false, so boundary[f, p], a cut between v[f, p] and
        # v[f, p + 1], lies between present values only.  A batch misses rows
        # exactly where some last value is NaN; there a feature's present
        # total is its cumulative sum at its last present position, its
        # missing sum is the sum of its NaN tail, and both missing sides are
        # built.  Where no row is missing, the missing-to-right side would
        # add 0.0 to the same sums, which only turns -0.0 into 0.0, so its
        # gain ties, it is never first, and it is not built; there, where at
        # least half of the positions are cuts, every position's sums are
        # taken as views and boundary zeroes the non-cuts' scores.  Elsewhere
        # the cuts alone are gathered with one boolean index (past a last
        # present position a right child's hessian sum is <= 0, and an
        # unguarded divide would warn).  Either way the candidates, with a
        # last axis of missing sides, ravel in scan order: feature index
        # ascending, threshold ascending, missing-to-left before
        # missing-to-right; ties go to the first
        h_node = h[idx]
        h_total = h_node.sum()
        parent = _safe_ratio(g[idx].sum(), h_total)
        # No child's hessian sum can be <= 0 where the node's hessians clear
        # the margin below; then the gains need no h > 0 guard.  This is the
        # cost rule's argument with the floor at 0: with h_min > 0, a prefix
        # sum of positive terms never decreases in floating point, so
        # HL >= h_min; HR = fl(T - B) is at least
        # (h_min - L u (1 + 2 L u) h_total)(1 - u), with u = eps / 2 and
        # L = idx.size, which is > 0 under the margin; a missing side adds a
        # sum >= 0.  Where the margin underflows, every sum is subnormal and
        # exact.  The test is one > so that a NaN, inf or zero hessian keeps
        # the guard.
        guard = not h_node.min() > 4 * idx.size * np.finfo(float).eps * h_total
        best = None
        best_gain = 0.0
        step = max(1, _SPLIT_CELLS // idx.size)
        for start in range(0, d, step):
            order = block[start:start + step]
            v = columns.take(order + offsets[start:start + step])
            boundary = v[:, 1:] > v[:, :-1]
            counts = np.count_nonzero(boundary, axis=1)
            cuts = int(counts.sum())
            if cuts == 0:
                continue
            sides = 2 if np.isnan(v[:, -1]).any() else 1
            masked = sides == 1 and 2 * cuts >= boundary.size
            if sides == 2:
                last = np.count_nonzero(v == v, axis=1) - 1  # each last present position
            sums = []
            for values in (g, h, costs) if cost_rule else (g, h):
                vals = values[order]
                cum = np.cumsum(vals, axis=1)
                if masked:
                    below = cum[:, :-1]
                    above = cum[:, -1:] - below
                else:
                    below = cum[:, :-1][boundary]
                    present = cum[np.arange(len(cum)), last] if sides == 2 else cum[:, -1]
                    above = np.repeat(present, counts) - below
                if sides == 2:
                    miss = np.repeat([tail[p + 1:].sum() for tail, p in zip(vals, last)], counts)
                    below = np.stack([below + miss, below], axis=-1)
                    above = np.stack([above, above + miss], axis=-1)
                sums += [below, above]
            GL, GR, HL, HR, *cost_sums = sums
            # a candidate's score is its gain where the skip rules keep it,
            # else 0: kept gains are > 0 or NaN, which np.maximum passes on,
            # and a NaN cost sum compares false, so it skips nothing
            score = np.maximum(_split_gains(GL, GR, HL, HR, parent, guard), 0.0)
            if cost_rule:
                CL, CR = cost_sums
                score[(CL < min_child_weight) | (CR < min_child_weight)] = 0.0
            if masked:
                score[~boundary] = 0.0
            score = score.ravel()

            def candidate(i: int) -> tuple:
                at, side = divmod(i, sides)
                if not masked:
                    at = int(np.flatnonzero(boundary)[at])
                f, p = divmod(at, boundary.shape[1])
                return start + f, float(v[f, p + 1]), side == 0

            # the first best, or the first kept NaN where there is one
            i = int(np.argmax(score))
            if np.isnan(score[i]):
                # a NaN gain before any other kept candidate of the node (a
                # score != 0) is final, as no gain compares greater; after
                # one, it is never taken
                if best is None and i == int(np.argmax(score != 0.0)):
                    return candidate(i)
                score[np.isnan(score)] = 0.0
                i = int(np.argmax(score))
            if score[i] > best_gain:
                best_gain = score[i]
                best = candidate(i)
        return best

    # build calls itself through its closure, a reference cycle, so this
    # call's columns, g, h, in_left and node blocks stay alive after it
    # returns, until the cyclic GC runs.  That is kept on purpose: breaking
    # the cycle (build = None after the root call) cut fresh-lift's traced
    # peak from 6.6 to 1.4 MiB and its peak RSS from 64.1 to 59.0 MB, but
    # raised minor page faults from about 3k to about 42k per pass (the
    # freed heap top is presumably trimmed and faulted in again) and wall
    # time from 0.34 to 0.42 s, slower in 8 of 8 pairs.
    def build(every: np.ndarray, block: Optional[np.ndarray], depth: int) -> None:
        idx = every if sample is None else every[sample[every]]
        split = None if depth >= max_depth or idx.size < 2 else best_split(idx, block)
        if split is None:
            value = leaf_value(idx)
            rows.append(_leaf_row(value))
            scores[every] += value
            return
        j, cut, miss_left = split
        go_left = _goes_left(columns[j][every], cut, miss_left)
        # children at the depth limit search no split, so need no block; the
        # blocks live along one root-to-node path, at most max_depth x d x n
        # entries
        left = right = None
        if depth + 1 < max_depth:
            in_left[every] = go_left
            flat = block.ravel()
            side = in_left.take(flat)
            left = flat.compress(side).reshape(d, -1)
            right = flat.compress(~side).reshape(d, -1)
        node = len(rows)
        rows.append(None)  # filled in once the left subtree's size is known
        build(every[go_left], left, depth + 1)
        rows[node] = (j, cut, node + 1, len(rows), miss_left, 0.0)
        build(every[~go_left], right, depth + 1)

    build(np.arange(n), root_order, 0)
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
    """The round's tree fit at ``scores``, whose output it adds to them."""
    g = surrogate_gradient(cost_arr, dataset.labels, scores)
    h = surrogate_hessian(cost_arr, dataset.labels, scores)
    order, sample = dataset._column_order, None
    if config.subsample < 1.0:
        rng = _round_rng(config.seed, round_index)
        m = max(1, int(round(config.subsample * dataset.n)))
        sample = np.zeros(dataset.n, dtype=bool)
        sample[rng.permutation(dataset.n)[:m]] = True
        # the filter keeps each row's order, its NaN tail last
        flat = order.ravel()
        order = flat.compress(sample.take(flat)).reshape(dataset.d, m)
    return _build_tree(
        dataset.features,
        g,
        h,
        cost_arr,
        config.learning_rate,
        config.depth,
        config.min_child_weight,
        order,
        scores,
        sample,
    )


def train(dataset: WeightedDataset, costs: CostVector, config: LearnerConfig) -> Model:
    """Fit a model minimizing the cost-weighted logistic surrogate.

    Boosting kinds run ``config.rounds`` rounds of Newton-step regression
    trees, whose grower adds each tree's output to the running training
    scores; the logistic kind ignores rounds and fits by damped Newton
    iterations.  Deterministic given ``config.seed``.
    """
    _check_training_inputs(dataset, costs)
    if config.kind == "logistic":
        return _train_logistic(dataset, costs)
    base = _base_score(costs.costs, dataset.labels)
    scores = np.full(dataset.n, base, dtype=float)
    trees = []
    for round_index in range(config.rounds):
        # the round's grower adds the new tree's output to scores
        trees.append(_fit_round(dataset, costs.costs, scores, config, round_index))
    return Model(kind=config.kind, n_features=dataset.d, base_score=base, trees=trees)


def boost_one_round(
    model: Model, dataset: WeightedDataset, costs: CostVector, config: LearnerConfig
) -> Model:
    """Append exactly one tree fit to the current surrogate gradient.

    Prior trees are untouched, and the new tree is fit as train() fits its
    round ``model.n_trees``.  So for equal costs and config, k calls on
    train(rounds=j) give train(rounds=j + k) bit-exactly.  From a treeless
    model they give train(rounds=k) only if it carries train()'s base score
    for those costs; empty_model's default base score, 0.0, is not that.
    """
    _choice("boosted model kind", model.kind, _BOOSTING_KINDS, TrainingError)
    if model.kind != config.kind:
        raise TrainingError(
            f"learner kind mismatch: model is {model.kind!r}, config is {config.kind!r}"
        )
    _check_training_inputs(dataset, costs)
    tree = _fit_round(dataset, costs.costs, predict_scores(model, dataset), config, model.n_trees)
    grown = replace(model, trees=model.trees + (tree,))
    # predict_scores built or reused the model's table, if it has trees; the
    # grown model extends it instead of laying out every tree again
    if "_node_table" in vars(model):
        grown.__dict__["_node_table"] = model._node_table.extended(tree)
    return grown


def empty_model(kind: str, n_features: int, base_score: float = 0.0) -> Model:
    """A treeless boosting model that scores ``base_score`` everywhere."""
    kind = _choice("empty_model kind", kind, _BOOSTING_KINDS, ValueError)
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
    for j, (order, k) in enumerate(zip(dataset._column_order, dataset._present_counts)):
        if k:
            impute[j] = _weighted_median(dataset.features[:, j], order[:k], costs.costs)
    y = dataset.labels.astype(float)
    c = costs.costs
    design = _design_matrix(dataset.features, impute)
    beta = np.zeros(design.shape[1])
    ridge = 1e-8 * np.eye(design.shape[1])
    for _ in range(100):
        try:
            with np.errstate(over="raise", invalid="raise"):
                f = design @ beta
                grad = design.T @ surrogate_gradient(c, y, f)
                hess = (design * surrogate_hessian(c, y, f)[:, None]).T @ design
                step = np.linalg.solve(hess + ridge, grad)
                beta = beta - step
        except np.linalg.LinAlgError:
            raise TrainingError(
                "logistic Newton step failed: the Hessian is singular at these weights"
            ) from None
        except FloatingPointError:
            raise TrainingError(
                "logistic Newton step failed: it overflows at these features and weights"
            ) from None
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
    if isinstance(data, WeightedDataset):
        data = data.features
    features = _array("features", data, float, DataError)
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
        for rows, block in _tree_blocks(model._node_table, features):
            # each row's sum stays base + t1 + t2 + ...: np.add.reduce adds
            # the rows of a C-contiguous block of two or more columns in
            # order, but sums a single column pairwise
            block[0] += scores[rows]
            if block.shape[1] > 1:
                np.add.reduce(block, axis=0, out=scores[rows])
            else:
                for out in block[1:]:
                    block[0] += out
                scores[rows] = block[0]
    return scores


def classify(model: Model, data: Union[WeightedDataset, np.ndarray]) -> np.ndarray:
    """Hard labels of the model's scores at its threshold."""
    return hard_labels(predict_scores(model, data), model.threshold)


def hard_labels(scores: np.ndarray, threshold: float) -> np.ndarray:
    """+1 where the score strictly exceeds the threshold, else -1 (int64)."""
    return np.where(scores > threshold, 1, -1).astype(np.int64)


_FORMAT_HEADER = "amscascade model format 1"
# a logistic model's vector blocks, as save_model writes and load_model
# reads them: (header keyword, entry keyword, Model field)
_VECTOR_BLOCKS = (("coefficients", "c", "coefficients"), ("impute", "i", "impute_values"))


def save_model(model: Model, path: str) -> None:
    """Serialize to the versioned text format; exact float round-trip.
    A path that cannot be written raises ConfigError."""
    lines = [
        _FORMAT_HEADER,
        f"kind {model.kind}",
        f"features {model.n_features}",
        f"base_score {model.base_score!r}",
        f"threshold {model.threshold!r}",
    ]
    if model.kind == "logistic":
        for header, prefix, name in _VECTOR_BLOCKS:
            vector = getattr(model, name)
            lines.append(f"{header} {model.n_features}")
            lines += (f"{prefix} {j} {float(vector[j])!r}" for j in range(model.n_features))
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
    with _open(path, "w", ConfigError) as handle:
        handle.write("\n".join(lines) + "\n")


def load_model(path: str) -> Model:
    """Parse a model saved by save_model.

    An unreadable file or a malformed field raises DataError.
    """
    with _open(path, "r", DataError) as handle:
        lines = [line.rstrip("\r\n") for line in handle]
    if lines[:1] != [_FORMAT_HEADER]:
        raise DataError(f"{path!r} is not a model file (bad header)" if lines
                        else "model file truncated")
    rest = iter(lines[1:])

    def fields(prefix: str, size: Optional[int] = None,
               position: Optional[int] = None) -> list[str]:
        # the next line's fields, no more than the `size` save_model writes
        # (a shorter line fails on its missing field); trees, nodes and
        # vector entries are numbered by their position
        line = next(rest, None)
        if line is None:
            raise DataError("model file truncated")
        parts = line.split()
        if not line.startswith(prefix + " ") and line != prefix:
            raise DataError(f"model file: expected {prefix!r}, got {line!r}")
        if position is not None and int(parts[1]) != position:
            raise DataError(f"model file: expected {prefix} {position}, got {' '.join(parts)!r}")
        if size is not None and len(parts) > size:
            raise DataError(f"model file: expected {size} fields, got {line!r}")
        return parts

    def count(prefix: str, noun: str) -> int:
        # Model checks a vector's count against the feature count
        n = int(fields(prefix, 2)[1])
        if n < 0:
            raise DataError(f"model file: negative {noun} count {n}")
        return n

    def node(k: int) -> tuple:
        # a leaf line has 4 fields, a split line 8
        parts = fields("node", position=k)
        if parts[2] == "leaf" and len(parts) <= 4:
            return _leaf_row(float(parts[3]))
        if parts[2] != "split" or len(parts) > 8:
            raise DataError(f"model file: bad node line {parts!r}")
        # Tree reads a negative feature as a leaf, which this line is not
        j = int(parts[3])
        if j < 0:
            raise DataError(f"model file: node {k} splits on feature {j}")
        if parts[7] not in ("left", "right"):
            raise DataError(f"model file: node {k} sends missing values to {parts[7]!r}")
        return (j, float(parts[4]), int(parts[5]), int(parts[6]), parts[7] == "left", 0.0)

    try:
        kind = fields("kind", 2)[1]
        n_features = int(fields("features", 2)[1])
        base_score = float(fields("base_score", 2)[1])
        threshold = float(fields("threshold", 2)[1])
        trees, vectors = [], {}
        if kind == "logistic":
            for header, prefix, name in _VECTOR_BLOCKS:
                entries = range(count(header, header))
                vectors[name] = np.array([float(fields(prefix, 3, j)[2]) for j in entries])
        else:
            for t in range(count("trees", "tree")):
                parts = fields("tree", 4, t)
                if parts[2] != "nodes":
                    raise DataError(f"model file: expected tree {t} nodes, got {' '.join(parts)!r}")
                n_nodes = int(parts[3])
                trees.append(Tree._from_rows([node(k) for k in range(n_nodes)]))
        if fields("end") != ["end"]:
            raise DataError("model file: missing end marker")
        extra = next(rest, None)
        if extra is not None:
            raise DataError(f"model file: line after end marker: {extra!r}")
        return Model(kind, n_features, base_score, threshold, trees, **vectors)
    except (ValueError, IndexError) as exc:
        # int()/float() on a bad field, a short line, an out-of-range index,
        # a tree that Tree rejects
        raise DataError(f"model file {path!r}: malformed field ({exc})") from None
