"""Weighted dataset loading, synthesis, splitting, and submission files.

Datasets carry per-example importance weights that encode expected event
counts, so any subsetting operation that should preserve significance
estimates must rescale weights class by class; ``split`` does this when
asked.  Missing feature values are represented as NaN in memory and as the
literal -999.0 in CSV files.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, _array, _choice, _integer, _labels, _open, _real

__all__ = [
    "MISSING_VALUE",
    "WeightedDataset",
    "CsvSchema",
    "SplitSpec",
    "SynthConfig",
    "load_csv",
    "write_csv",
    "split",
    "synthesize",
    "default_synth_config",
    "write_submission",
    "read_submission",
]

# sentinel used by the CSV interchange format for absent feature values
MISSING_VALUE = -999.0


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _freeze_field(record, name: str, dtype, error=ValueError) -> np.ndarray:
    """Set field ``name`` of the frozen dataclass ``record`` to its value as
    a read-only array by ``errors._array``, which raises ``error``; an array
    that already is one is frozen, not copied."""
    arr = _frozen(_array(name, getattr(record, name), dtype, error))
    object.__setattr__(record, name, arr)
    return arr


def _sorted_rows(features: np.ndarray) -> np.ndarray:
    """Each column's stable argsort, as one read-only (d, n) int64 block.

    Row j is ``np.argsort(features[:, j], kind="stable")`` byte for byte:
    the rows where column j is present, sorted by (value, row index), then
    the rows where it is NaN, in ascending row order.  numpy's default
    argsort (a SIMD quicksort where the CPU has one) orders the present
    values; each run of equal values (``==``, so -0.0 ties 0.0) is then put
    back into ascending row order by one integer sort of ``run * n + row``,
    which keeps the runs in place.  ``run * n + row`` stays below ``n**2``,
    so int64 holds it for any n below 3e9.  The repair works in place, on
    the block's row, and a column with NaN gathers its present rows' order
    straight into that row (argsort itself takes no output array): each
    new array of a column costs as much in page faults as its arithmetic.
    """
    n, d = features.shape
    order = np.empty((d, n), dtype=np.int64)
    for j, col in enumerate(features.T):
        values = np.ascontiguousarray(col)
        missing = np.isnan(values)
        if missing.any():  # numpy's argsort takes a scalar path on NaN
            present = np.flatnonzero(~missing)
            # every index is in range; "clip" writes to out, "raise" buffers it
            rows = np.take(present, np.argsort(values[present]), out=order[j, :present.size],
                           mode="clip")
            order[j, rows.size:] = np.flatnonzero(missing)
        else:
            rows = order[j]
            rows[:] = np.argsort(values)
        values = values[rows]
        step = values[1:] != values[:-1]
        if not step.all():
            base = np.empty_like(rows)
            base[0] = 0
            np.cumsum(step, out=base[1:])
            base *= n
            rows += base
            rows.sort()
            rows -= base
    return _frozen(order)


def _has_duplicates(ids: np.ndarray) -> bool:
    """Whether the 1-D array ``ids`` holds some value twice: one sort and a
    comparison of neighbours."""
    ids = np.sort(ids)
    return bool((ids[1:] == ids[:-1]).any())


def _names(what: str, value, error) -> tuple[str, ...]:
    """``value`` as a tuple of str: the rule for a sequence of column names.

    A string (a sequence of its characters) or a non-sequence, or an entry
    other than a str, raises ``error`` with a one-line message.
    """
    if isinstance(value, str) or not isinstance(value, Sequence):
        raise error(f"{what} must be a sequence of str, got {type(value).__name__}")
    for name in value:
        if not isinstance(name, str):
            raise error(f"{what} must be str, got {type(name).__name__}")
    return tuple(value)


@dataclass(frozen=True)
class WeightedDataset:
    """Immutable weighted binary-classification dataset.

    Attributes:
        features: (n, d) float array; NaN marks a missing value.
        labels: (n,) int array with values in {-1, +1}.
        weights: (n,) positive float array with a finite total.
        event_ids: (n,) unique int array.
        column_names: d feature-column names, a sequence of str held as a tuple.
    """

    features: np.ndarray
    labels: np.ndarray
    weights: np.ndarray
    event_ids: np.ndarray
    column_names: tuple[str, ...]

    def __post_init__(self) -> None:
        features = _freeze_field(self, "features", float, DataError)
        labels = _frozen(_labels("labels", self.labels, DataError))
        object.__setattr__(self, "labels", labels)
        weights = _freeze_field(self, "weights", float, DataError)
        event_ids = _freeze_field(self, "event_ids", np.int64, DataError)
        names = _names("column names", self.column_names, DataError)
        object.__setattr__(self, "column_names", names)
        n = features.shape[0] if features.ndim == 2 else -1
        if features.ndim != 2:
            raise DataError("features must be a 2-D array")
        if features.shape[1] != len(self.column_names):
            raise DataError(
                f"{features.shape[1]} feature columns but "
                f"{len(self.column_names)} column names"
            )
        for name, arr in (
            ("labels", labels),
            ("weights", weights),
            ("event_ids", event_ids),
        ):
            if arr.shape != (n,):
                raise DataError(f"{name} must have shape ({n},), got {arr.shape}")
        if not np.all(weights > 0.0):
            raise DataError("all weights must be strictly positive")
        with np.errstate(over="ignore"):  # a total past the float range is inf
            total = float(weights.sum())
        _real("weight total", total, 0.0, open_high=True, error=DataError)
        if _has_duplicates(event_ids):
            raise DataError("event ids must be unique")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @cached_property
    def _column_order(self) -> np.ndarray:
        # sorted on first use and kept: the learners read it in every tree
        # and every cascade round, and rounds change only the costs, never
        # the features.  Not a field, so ==, repr and replace() ignore it
        return _sorted_rows(self.features)

    @cached_property
    def _present_counts(self) -> np.ndarray:
        # each column's count of present values, the length of its row of
        # _column_order before the NaN tail; counted on first use and kept,
        # as the logistic learner reads it in every cascade round
        return _frozen(self.n - np.count_nonzero(np.isnan(self.features), axis=0))

    @property
    def signal_total(self) -> float:
        return float(self.weights[self.labels == 1].sum())

    @property
    def background_total(self) -> float:
        return float(self.weights[self.labels == -1].sum())

    def take(self, indices: np.ndarray, weights: Optional[np.ndarray] = None) -> "WeightedDataset":
        """Row subset (optionally with replacement weights), new dataset."""
        # array indexing copies; the constructor freezes what it keeps, so copy caller weights
        return WeightedDataset(
            features=self.features[indices],
            labels=self.labels[indices],
            weights=self.weights[indices] if weights is None else np.array(weights),
            event_ids=self.event_ids[indices],
            column_names=self.column_names,
        )


@dataclass(frozen=True)
class CsvSchema:
    """Column-role mapping for the CSV interchange format.

    The three role names are str; ``feature_columns`` is None or a sequence
    of str other than a string, held as a tuple.  Anything else raises
    ConfigError.
    """

    id_column: str = "EventId"
    weight_column: str = "Weight"
    label_column: str = "Label"
    feature_columns: Optional[tuple[str, ...]] = None  # None: all other columns

    def __post_init__(self) -> None:
        for role in ("id_column", "weight_column", "label_column"):
            name = getattr(self, role)
            if not isinstance(name, str):
                raise ConfigError(f"{role} must be str, got {type(name).__name__}")
        if self.feature_columns is not None:
            names = _names("feature_columns", self.feature_columns, ConfigError)
            object.__setattr__(self, "feature_columns", names)


@dataclass(frozen=True)
class SplitSpec:
    """Parameters of a stratified train/validation split."""

    validation_fraction: float
    seed: int
    renormalize: bool = True

    def __post_init__(self) -> None:
        fraction = _real("validation_fraction", self.validation_fraction, 0.0, 1.0,
                         open_low=True, open_high=True)
        object.__setattr__(self, "validation_fraction", fraction)
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0))
        flag = _choice("renormalize", self.renormalize, (False, True))
        object.__setattr__(self, "renormalize", flag)


# synthesize holds a few copies of its (n_signal + n_background) x d matrix,
# so this many float64 values is 400 MB a copy
SYNTH_MAX_VALUES = 50_000_000
# class totals this far inside float64's range keep s**2, b * e**U_MAX and
# every weight sum finite
SYNTH_MAX_TOTAL = 1e100


@dataclass(frozen=True)
class SynthConfig:
    """Two-Gaussian synthetic dataset parameters.

    Classes are unit-covariance Gaussians in d dimensions whose means are
    ``separation`` apart along the first axis.  Per-class weights are
    constant and sum to the configured class totals.  The feature matrix may
    hold at most SYNTH_MAX_VALUES values, and each total is at most
    SYNTH_MAX_TOTAL; both are checked before anything is allocated.
    """

    d: int = 5
    n_signal: int = 2000
    n_background: int = 2000
    separation: float = 2.0
    signal_total: float = 691.0
    background_total: float = 410999.0

    def __post_init__(self) -> None:
        for name in ("d", "n_signal", "n_background"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), 1))
        values = (self.n_signal + self.n_background) * self.d
        if values > SYNTH_MAX_VALUES:
            raise ConfigError(
                f"(n_signal + n_background) * d = {values} feature values exceeds "
                f"the limit of {SYNTH_MAX_VALUES}"
            )
        for name, low, high, opened in (
            ("separation", 0.0, math.inf, {"open_high": True}),
            ("signal_total", 0.0, SYNTH_MAX_TOTAL, {"open_low": True}),
            ("background_total", 0.0, SYNTH_MAX_TOTAL, {"open_low": True}),
        ):
            object.__setattr__(self, name, _real(name, getattr(self, name), low, high, **opened))


def default_synth_config() -> SynthConfig:
    """Desk-scale stand-in for the challenge data (weight totals included)."""
    return SynthConfig()


def _parse_float(text: str, line_no: int, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DataError(
            f"line {line_no}: cannot parse {column}={text!r} as a number"
        ) from None


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _parse_int64(text: str, line_no: int, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise DataError(f"line {line_no}: cannot parse {what} {text!r}") from None
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise DataError(f"line {line_no}: {what} {value} does not fit in 64 bits")
    return value


def _csv_rows(handle):
    """The rows of a CSV file; a malformed row is a DataError."""
    reader = csv.reader(handle)
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"line {reader.line_num}: {exc}") from None


def load_csv(path: str, schema: CsvSchema = CsvSchema()) -> WeightedDataset:
    """Parse a weighted dataset from CSV.

    Labels must be exactly 's' (mapped to +1) or 'b' (mapped to -1).  A
    feature cell equal to -999.0 becomes NaN; a literal NaN cell, a
    weight that is not finite and > 0, an event id outside the 64-bit range,
    a malformed CSV row and text that does not decode raise DataError.  Row
    order is preserved.  Line numbers in error messages count the header as
    line 1.

    A plain file (see ``_load_csv_columns``) is read column-wise in one
    streaming pass; any other file, and every rejected one, goes to the
    row parser, so both the accepted set and the messages are the row
    parser's.  A path that cannot be opened raises the same DataError from
    either parser.
    """
    dataset = _load_csv_columns(path, schema)
    return dataset if dataset is not None else _load_csv_rows(path, schema)


# a header the csv module splits exactly at its commas: printable ASCII
# without the quote character, ending in a line feed
_PLAIN_HEADER = re.compile(rb'[ !#-~]*\n')
# body bytes whose numbers np.loadtxt reads as float() and int() do: no
# whitespace, '_', quotes, '#', '\r' or nan/inf spellings
_PLAIN_BODY_BYTES = b"0123456789.eE+-,\nsb"


def _plain_lines(handle, field_limit: int):
    """The body lines of ``handle``; ValueError at the first one that is not plain.

    An empty line (which np.loadtxt skips and the row parser rejects) and a
    line long enough to hold a field over the csv module's limit are not
    plain either.
    """
    for line in handle:
        if line == b"\n" or len(line) > field_limit or line.translate(None, _PLAIN_BODY_BYTES):
            raise ValueError("not a plain line")
        yield line


def _load_csv_columns(path: str, schema: CsvSchema) -> Optional[WeightedDataset]:
    """``load_csv`` by one np.loadtxt pass, or None where the row parser must decide.

    It returns a dataset only when the row parser would return the same
    bytes: a plain header naming distinct id, weight, label and feature
    columns, and a body of plain lines whose cells parse with the dtype of
    their column and pass the row parser's checks.  The lines stream from
    the file, so no decoded copy of the whole text is held.  A path that
    cannot be opened raises the row parser's DataError.
    """
    with _open(path, "rb", DataError) as handle:
        header_line = handle.readline()
        if not _PLAIN_HEADER.fullmatch(header_line):
            return None
        header = header_line[:-1].decode("ascii").split(",")
        try:
            positions, feature_names = _header_columns(header, schema, path)
        except DataError:
            return None
        roles = (schema.id_column, schema.weight_column, schema.label_column)
        # one parse type per column, so a column read in two roles, or as
        # two features, is left to the row parser.  Labels get two
        # characters so that 'sb' is not cut to 's', and unread columns one,
        # which any cell fits.
        kinds = dict.fromkeys(feature_names, "f8")
        kinds.update(zip(roles, ("i8", "f8", "U2")))
        if len(kinds) != len(roles) + len(feature_names):
            return None
        # each record holds its feature cells first, in feature order, so
        # that one (n, d) view covers them all; the other cells follow
        offsets = {name: 8 * j for j, name in enumerate(feature_names)}
        end = 8 * len(feature_names)
        for name in header:
            if name not in offsets:
                offsets[name] = end
                end += np.dtype(kinds.get(name, "U1")).itemsize
        dtype = np.dtype({
            "names": [f"c{i}" for i in range(len(header))],
            "formats": [kinds.get(name, "U1") for name in header],
            "offsets": [offsets[name] for name in header],
            "itemsize": end,
        })
        with warnings.catch_warnings():
            # e.g. numpy < 2 reads an int64 cell '1.0' with a DeprecationWarning,
            # and an empty body with a UserWarning
            warnings.simplefilter("error")
            try:
                table = np.loadtxt(
                    _plain_lines(handle, csv.field_size_limit()),
                    dtype=dtype, delimiter=",", comments=None, ndmin=1,
                )
            except (ValueError, Warning):
                return None

    def column(name: str) -> np.ndarray:
        return table[f"c{positions[name]}"]

    weights = column(schema.weight_column)
    labels = column(schema.label_column)
    if not (
        table.size
        and np.all((weights > 0.0) & (weights < math.inf))
        and np.all((labels == "s") | (labels == "b"))
    ):
        return None
    cells = np.dtype({"names": ["f"], "formats": [("f8", (len(feature_names),))],
                      "itemsize": dtype.itemsize})
    features = table.view(cells)["f"].copy()  # the (n, d) feature view, copied once
    if np.isnan(features).any():
        return None
    labels = np.where(labels == "s", 1, -1)
    return _dataset(features, labels, weights, column(schema.id_column), feature_names)


def _dataset(features, labels, weights, event_ids, column_names) -> WeightedDataset:
    """Both parsers' last step: a dataset with each -999.0 feature decoded to NaN."""
    features[features == MISSING_VALUE] = np.nan
    return WeightedDataset(features, labels, weights, event_ids, column_names)


def _header_columns(header: list[str], schema: CsvSchema, path: str) -> tuple[dict, tuple]:
    """Each column's position in ``header`` and the feature columns, or a DataError."""
    positions = {name: i for i, name in enumerate(header)}
    if len(positions) != len(header):
        raise DataError(f"{path!r} has duplicate column names")
    for role, name in (
        ("id", schema.id_column),
        ("weight", schema.weight_column),
        ("label", schema.label_column),
    ):
        if name not in positions:
            raise DataError(f"{path!r} is missing the {role} column {name!r}")
    if schema.feature_columns is None:
        reserved = {schema.id_column, schema.weight_column, schema.label_column}
        feature_names = tuple(c for c in header if c not in reserved)
    else:
        feature_names = tuple(schema.feature_columns)
        for name in feature_names:
            if name not in positions:
                raise DataError(f"{path!r} is missing the feature column {name!r}")
    if not feature_names:
        raise DataError(f"{path!r} has no feature columns")
    return positions, feature_names


def _load_csv_rows(path: str, schema: CsvSchema = CsvSchema()) -> WeightedDataset:
    """``load_csv`` one row at a time: the reference parser, and the only
    source of its DataError messages but ``_open``'s."""
    with _open(path, "r", DataError) as handle:
        reader = _csv_rows(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path!r} is empty; expected a header row") from None
        positions, feature_names = _header_columns(header, schema, path)

        id_pos = positions[schema.id_column]
        w_pos = positions[schema.weight_column]
        y_pos = positions[schema.label_column]
        f_pos = [positions[name] for name in feature_names]

        ids: list[int] = []
        weights: list[float] = []
        labels: list[int] = []
        rows: list[list[float]] = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(
                    f"line {line_no}: expected {len(header)} fields, got {len(row)}"
                )
            ids.append(_parse_int64(row[id_pos], line_no, "event id"))
            w = _parse_float(row[w_pos], line_no, schema.weight_column)
            if not 0.0 < w < math.inf:
                raise DataError(f"line {line_no}: weight must be finite and > 0, got {w!r}")
            weights.append(w)
            label_text = row[y_pos]
            if label_text == "s":
                labels.append(1)
            elif label_text == "b":
                labels.append(-1)
            else:
                raise DataError(
                    f"line {line_no}: label must be 's' or 'b', got {label_text!r}"
                )
            values = [
                _parse_float(row[pos], line_no, feature_names[j])
                for j, pos in enumerate(f_pos)
            ]
            # one shared object per sentinel keeps the row lists small
            rows.append([MISSING_VALUE if v == MISSING_VALUE else v for v in values])

    if not rows:
        raise DataError(f"{path!r} contains no data rows")
    features = np.asarray(rows, dtype=float)
    nan_rows = np.flatnonzero(np.isnan(features).any(axis=1))
    if nan_rows.size:
        raise DataError(
            f"line {nan_rows[0] + 2}: NaN feature value; "
            f"write a missing value as {MISSING_VALUE!r}"
        )
    return _dataset(features, labels, weights, ids, feature_names)


def _format_number(x: float) -> str:
    # shortest decimal that round-trips, without float noise in files
    return repr(float(x))


def write_csv(dataset: WeightedDataset, path: str, schema: CsvSchema = CsvSchema()) -> None:
    """Write a dataset in the CSV interchange format (NaN becomes -999.0); a
    path that cannot be written raises ConfigError."""
    feature_names = dataset.column_names
    with _open(path, "w", ConfigError) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            [schema.id_column, *feature_names, schema.weight_column, schema.label_column]
        )
        for i in range(dataset.n):
            row = [str(int(dataset.event_ids[i]))]
            for v in dataset.features[i]:
                row.append(_format_number(MISSING_VALUE if math.isnan(v) else v))
            row.append(_format_number(dataset.weights[i]))
            row.append("s" if dataset.labels[i] == 1 else "b")
            writer.writerow(row)


def split(dataset: WeightedDataset, spec: SplitSpec) -> tuple[WeightedDataset, WeightedDataset]:
    """Stratified train/validation split, deterministic in ``spec.seed``.

    Both classes appear on both sides (the per-class validation count is
    clamped to [1, class size - 1]).  With ``renormalize`` set, each side's
    weights are scaled per class so its class totals match the full
    dataset's, keeping significance estimates unbiased.  Each part keeps the
    dataset's rows in their original order, so the dataset's features are
    the two parts' rows put back where ``np.isin(dataset.event_ids,
    validation.event_ids)`` is False and True.
    """
    labels = dataset.labels
    rng = np.random.default_rng(spec.seed)
    val_mask = np.zeros(dataset.n, dtype=bool)
    for cls in (1, -1):
        idx = np.flatnonzero(labels == cls)
        if idx.size < 2:
            raise DataError(
                f"need at least 2 examples of class {cls:+d} to split, got {idx.size}"
            )
        n_val = int(round(spec.validation_fraction * idx.size))
        n_val = min(max(n_val, 1), idx.size - 1)
        chosen = rng.permutation(idx)[:n_val]
        val_mask[chosen] = True

    full_totals = {1: dataset.signal_total, -1: dataset.background_total}
    parts = []
    for mask in (~val_mask, val_mask):
        indices = np.flatnonzero(mask)
        part_weights = dataset.weights[indices]
        if spec.renormalize:
            part_labels = labels[indices]
            for cls in (1, -1):
                cls_mask = part_labels == cls
                part_total = part_weights[cls_mask].sum()
                part_weights[cls_mask] *= full_totals[cls] / part_total
        parts.append(dataset.take(indices, weights=part_weights))
    return parts[0], parts[1]


def synthesize(config: SynthConfig, seed: int) -> WeightedDataset:
    """Generate the two-Gaussian synthetic dataset, deterministic in seed."""
    rng = np.random.default_rng(_integer("seed", seed, 0))
    half = config.separation / 2.0
    mean_s = np.zeros(config.d)
    mean_s[0] = half
    mean_b = np.zeros(config.d)
    mean_b[0] = -half
    x_s = rng.standard_normal((config.n_signal, config.d)) + mean_s
    x_b = rng.standard_normal((config.n_background, config.d)) + mean_b
    features = np.vstack([x_s, x_b])
    labels = np.concatenate(
        [np.ones(config.n_signal, dtype=np.int64), -np.ones(config.n_background, dtype=np.int64)]
    )
    weights = np.concatenate(
        [
            np.full(config.n_signal, config.signal_total / config.n_signal),
            np.full(config.n_background, config.background_total / config.n_background),
        ]
    )
    order = rng.permutation(features.shape[0])
    return WeightedDataset(
        features=features[order],
        labels=labels[order],
        weights=weights[order],
        event_ids=np.arange(features.shape[0], dtype=np.int64),
        column_names=tuple(f"x{j}" for j in range(config.d)),
    )


def _submission_order(event_ids: np.ndarray, scores: np.ndarray) -> np.ndarray:
    # ascending score; equal scores resolved by lower event id first
    return np.lexsort((event_ids, scores))


def write_submission(
    path: str,
    event_ids: Sequence[int],
    scores: Sequence[float],
    selected: Sequence[int],
) -> None:
    """Write the ranked selection file: EventId,RankOrder,Class.

    RankOrder runs 1..n by ascending score with ties broken toward the
    lower event id; Class is 's' for selected (+1) events, else 'b'.  Bad
    inputs raise DataError, and a path that cannot be written ConfigError.
    """
    ids = _array("event_ids", event_ids, np.int64, DataError)
    sc = _array("scores", scores, float, DataError)
    sel = _labels("selected", selected, DataError)
    if not (ids.shape == sc.shape == sel.shape) or ids.ndim != 1:
        raise DataError("event_ids, scores, and selected must be equal-length 1-D")
    if _has_duplicates(ids):
        raise DataError("duplicate event ids in submission")
    if not np.all(np.isfinite(sc)):
        raise DataError("submission scores must be finite")
    ranks = np.empty(ids.size, dtype=np.int64)
    ranks[_submission_order(ids, sc)] = np.arange(1, ids.size + 1)
    classes = np.where(sel == 1, "s", "b").tolist()
    with _open(path, "w", ConfigError) as handle:
        handle.write("EventId,RankOrder,Class\n")
        handle.writelines(
            f"{i},{r},{c}\n" for i, r, c in zip(ids.tolist(), ranks.tolist(), classes)
        )


def read_submission(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse a submission file back into (event_ids, ranks, selected).

    A file that cannot be opened or decoded, a bad header, a malformed row,
    an ``EventId`` or ``RankOrder`` that is not a 64-bit integer and a class
    other than 's' or 'b' raise DataError.
    """
    with _open(path, "r", DataError) as handle:
        reader = _csv_rows(handle)
        header = next(reader, None)
        if header != ["EventId", "RankOrder", "Class"]:
            raise DataError(f"{path!r} is not a submission file (bad header)")
        ids, ranks, sel = [], [], []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise DataError(f"line {line_no}: expected 3 fields, got {len(row)}")
            ids.append(_parse_int64(row[0], line_no, "EventId"))
            ranks.append(_parse_int64(row[1], line_no, "RankOrder"))
            if row[2] not in ("s", "b"):
                raise DataError(f"line {line_no}: class must be 's' or 'b'")
            sel.append(1 if row[2] == "s" else -1)
    return (
        np.asarray(ids, dtype=np.int64),
        np.asarray(ranks, dtype=np.int64),
        np.asarray(sel, dtype=np.int64),
    )
