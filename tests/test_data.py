"""Tests for dataset loading, synthesis, splitting, and submission files."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from amscascade.data import (
    CsvSchema,
    SplitSpec,
    SynthConfig,
    WeightedDataset,
    default_synth_config,
    load_csv,
    read_submission,
    split,
    synthesize,
    write_csv,
    write_submission,
)
from amscascade.data import _sorted_rows
from amscascade.errors import ConfigError, DataError


def tiny_dataset():
    return WeightedDataset(
        features=np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]),
        labels=np.array([1, -1, 1, -1]),
        weights=np.array([2.0, 3.0, 1.0, 5.0]),
        event_ids=np.array([10, 11, 12, 13]),
        column_names=("a", "b"),
    )


CSV_TEXT = """EventId,a,b,Weight,Label
100,1.5,2.5,1.0,s
101,-999.0,0.25,2.0,b
"""


# where a repeated id falls once the ids are sorted, to an index of the
# sorted unique ids that is repeated
DUPLICATES = {"first": 0, "middle": 49_999, "last": -1}


def _ids_with_duplicate(where, n=100_000):
    """n shuffled ids, spanning int64, in which exactly one value occurs twice."""
    rng = np.random.default_rng(11)
    middle = np.unique(rng.integers(-(2**40), 2**40, 2 * n))[: n - 3]
    distinct = np.concatenate(([-(2**63)], middle, [2**63 - 1]))
    return rng.permutation(np.append(distinct, distinct[DUPLICATES[where]]))


class TestWeightedDataset:
    def test_totals(self):
        data = tiny_dataset()
        assert data.signal_total == 3.0
        assert data.background_total == 8.0
        assert data.n == 4
        assert data.d == 2

    def test_arrays_are_read_only(self):
        data = tiny_dataset()
        with pytest.raises(ValueError):
            data.weights[0] = 9.0
        with pytest.raises(ValueError):
            data.features[0, 0] = 9.0

    def test_invariants_enforced(self):
        good = tiny_dataset()
        with pytest.raises(DataError):
            WeightedDataset(
                features=good.features,
                labels=np.array([1, -1, 2, -1]),
                weights=good.weights,
                event_ids=good.event_ids,
                column_names=good.column_names,
            )
        with pytest.raises(DataError):
            WeightedDataset(
                features=good.features,
                labels=good.labels,
                weights=np.array([2.0, 0.0, 1.0, 5.0]),
                event_ids=good.event_ids,
                column_names=good.column_names,
            )
        with pytest.raises(DataError):
            WeightedDataset(
                features=good.features,
                labels=good.labels,
                weights=good.weights,
                event_ids=np.array([10, 10, 12, 13]),
                column_names=good.column_names,
            )
        with pytest.raises(DataError):
            WeightedDataset(
                features=good.features,
                labels=good.labels,
                weights=good.weights,
                event_ids=good.event_ids,
                column_names=("a",),
            )

    @pytest.mark.parametrize(
        "weights",
        [[math.inf, 1.0, 1.0, 1.0], [1e308, 1.0, 1e308, 1.0], [1.7e308] * 4],
        ids=["inf", "two-overflow", "all-overflow"],
    )
    def test_weight_total_past_the_float_range_rejected(self, weights):
        good = tiny_dataset()
        with pytest.raises(DataError) as caught:
            WeightedDataset(good.features, good.labels, np.array(weights), good.event_ids,
                            good.column_names)
        assert str(caught.value) == "weight total must be a real number in [0, inf), got inf"

    def test_weight_total_near_the_float_limit_accepted(self):
        good = tiny_dataset()
        data = WeightedDataset(good.features, good.labels, np.full(4, 4e307), good.event_ids,
                               good.column_names)
        assert data.signal_total == 8e307 and data.background_total == 8e307

    @pytest.mark.parametrize("where", sorted(DUPLICATES))
    def test_one_duplicate_in_many_ids_rejected(self, where):
        ids = _ids_with_duplicate(where)
        labels = np.where(np.arange(ids.size) % 2 == 0, 1, -1)
        with pytest.raises(DataError, match="^event ids must be unique$"):
            WeightedDataset(np.zeros((ids.size, 1)), labels, np.ones(ids.size), ids, ("x",))
        data = WeightedDataset(
            np.zeros((ids.size - 1, 1)), labels[1:], np.ones(ids.size - 1), np.unique(ids), ("x",)
        )
        with pytest.raises(DataError, match="^event ids must be unique$"):
            data.take(np.append(np.arange(data.n), DUPLICATES[where] % data.n))

    def test_uint64_ids_above_int64_are_rejected(self, tmp_path):
        good = tiny_dataset()

        def with_ids(ids):
            return WeightedDataset(
                features=good.features[:2],
                labels=good.labels[:2],
                weights=good.weights[:2],
                event_ids=ids,
                column_names=good.column_names,
            )

        with pytest.raises(DataError, match="event_ids must fit in int64, got 18446744073709551615"):
            with_ids(np.array([2**64 - 1, 0], dtype=np.uint64))
        with pytest.raises(DataError, match="event_ids must fit in int64, got 9223372036854775808"):
            with_ids(np.array([0, 2**63], dtype=np.uint64))
        ids = with_ids(np.array([2**63 - 1, 0], dtype=np.uint64)).event_ids
        assert ids.dtype == np.int64 and ids.tolist() == [2**63 - 1, 0]
        ids = with_ids(np.array([-(2**63), 2**63 - 1], dtype=np.int64)).event_ids
        assert ids.tolist() == [-(2**63), 2**63 - 1]
        path = str(tmp_path / "sub.csv")
        with pytest.raises(DataError, match="event_ids must fit in int64"):
            write_submission(path, np.array([2**64 - 1], dtype=np.uint64), [0.5], [1])
        with pytest.raises(DataError, match="selected must fit in int64"):
            write_submission(path, [1], [0.5], np.array([2**64 - 1], dtype=np.uint64))


def _dataset_of(features):
    n, d = features.shape
    return WeightedDataset(
        features=features,
        labels=np.where(np.arange(n) % 2 == 0, 1, -1),
        weights=np.ones(n),
        event_ids=np.arange(n),
        column_names=tuple(f"f{j}" for j in range(d)),
    )


# a small pool of cells makes ties, signed zeros and NaN frequent
CELLS = st.sampled_from([math.nan, -0.0, 0.0, 1.0, -2.5, math.inf]) | st.floats()


def _assert_stable_order(features):
    """The dataset's column order is one (d, n) int64 block whose rows are
    each column's stable argsort, the oracle, NaN rows last."""
    order = _dataset_of(features)._column_order
    assert order.shape == features.shape[::-1] and order.dtype == np.int64
    for col, rows in zip(features.T, order):
        np.testing.assert_array_equal(rows, np.argsort(col, kind="stable"))
        # independently: the present prefix is sorted by (value, row index),
        # -0.0 tying 0.0, and the NaN rows follow in ascending order
        present = rows[:np.count_nonzero(~np.isnan(col))]
        v = col[present]
        assert np.all((v[:-1] < v[1:]) | ((v[:-1] == v[1:]) & (present[:-1] < present[1:])))
        np.testing.assert_array_equal(rows[present.size:], np.flatnonzero(np.isnan(col)))


# column makers, rng and length to column, for columns past the SIMD sorts' thresholds
LONG_COLUMNS = {
    "random-6-decimals": lambda rng, n: np.round(rng.standard_normal(n), 6),
    "4-valued": lambda rng, n: rng.integers(0, 4, n) * 1.5,
    "constant": lambda rng, n: np.full(n, 2.5),
    "presorted": lambda rng, n: np.sort(np.round(rng.standard_normal(n), 2)),
    "reversed": lambda rng, n: -np.sort(np.round(rng.standard_normal(n), 2)),
    "signed-zeros": lambda rng, n: rng.choice([-0.0, 0.0, 1.0, -math.inf, math.inf], n),
    "nan": lambda rng, n: np.where(rng.random(n) < 0.3, math.nan, rng.integers(-3, 4, n) / 2.0),
    "nan-and-inf": lambda rng, n: rng.choice([math.nan, -math.inf, -0.0, 0.0, 1.5, math.inf], n),
    "all-nan": lambda rng, n: np.full(n, math.nan),
}


@st.composite
def feature_matrices(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 4))
    features = np.array(draw(st.lists(CELLS, min_size=n * d, max_size=n * d))).reshape(n, d)
    if draw(st.booleans()):
        features[:, draw(st.integers(0, d - 1))] = math.nan
    return features


class TestColumnOrder:
    """The per-column sorted rows that both learners share."""

    @settings(
        max_examples=200,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(feature_matrices())
    def test_order_is_each_columns_stable_argsort(self, features):
        _assert_stable_order(features)

    @pytest.mark.parametrize("n", [1000, 4099])
    @pytest.mark.parametrize("kind", sorted(LONG_COLUMNS))
    def test_long_columns_match_the_stable_argsort(self, kind, n):
        # long enough for numpy's SIMD argsort, whose order of equal values
        # differs from the stable sort's until the ties are repaired
        rng = np.random.default_rng(n)
        _assert_stable_order(np.stack([LONG_COLUMNS[kind](rng, n) for _ in range(3)], axis=1))

    def test_all_nan_and_one_row_columns(self):
        order = _sorted_rows(np.array([[math.nan, -0.0, 3.0]]))
        assert order.tolist() == [[0], [0], [0]]
        order = _sorted_rows(np.array([[math.nan, 1.0], [math.nan, math.nan], [math.nan, 0.0]]))
        assert order.tolist() == [[0, 1, 2], [2, 0, 1]]

    def test_cached_read_only_and_not_a_field(self):
        data = _dataset_of(np.array([[1.0, math.nan], [-0.0, 2.0], [0.0, 2.0]]))
        twin = replace(data)
        text = repr(data)
        order = data._column_order
        assert data._column_order is order
        assert not order.flags.writeable
        with pytest.raises(ValueError):
            order[0, 0] = 2
        assert order.tolist() == [[1, 2, 0], [1, 2, 0]]
        assert "_column_order" not in {f.name for f in fields(data)}
        counts = data._present_counts
        assert data._present_counts is counts and not counts.flags.writeable
        assert counts.tolist() == [3, 2]
        assert "_present_counts" not in {f.name for f in fields(data)}
        assert repr(data) == text == repr(twin)
        assert data == twin
        # copies compute their own order, on first use
        assert "_column_order" not in vars(twin)
        assert "_column_order" not in vars(data.take(np.arange(2)))
        assert "_present_counts" not in vars(twin)


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text(CSV_TEXT)
        data = load_csv(str(path))
        assert data.n == 2
        assert data.column_names == ("a", "b")
        assert list(data.labels) == [1, -1]
        assert list(data.event_ids) == [100, 101]
        assert data.signal_total == 1.0
        # -999.0 is the missing marker
        assert math.isnan(data.features[1, 0])
        assert data.features[1, 1] == 0.25

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("EventId,a,Label\n1,2.0,s\n")
        with pytest.raises(DataError, match="weight column"):
            load_csv(str(path))

    def test_nonpositive_weight_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        for weight in ("0.0", "-1.0", "inf", "nan"):
            path.write_text(f"EventId,a,Weight,Label\n1,2.0,1.0,s\n2,3.0,{weight},b\n")
            with pytest.raises(DataError, match="line 3"):
                load_csv(str(path))

    def test_weight_total_past_the_float_range_rejected(self, tmp_path):
        # each cell passes the per-row check; the dataset refuses the total
        path = tmp_path / "big.csv"
        path.write_text("EventId,a,Weight,Label\n1,2.0,1.7e308,s\n2,3.0,1.7e308,b\n")
        with pytest.raises(DataError, match=r"^weight total must be a real number in \[0, inf\), "
                           r"got inf$"):
            load_csv(str(path))

    def test_unparseable_numeric_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        # only -999.0 marks a missing value; a literal NaN cell is an error
        for cell in ("oops", "nan", "NaN"):
            path.write_text(f"EventId,a,Weight,Label\n1,-999.0,1.0,s\n2,{cell},1.0,b\n")
            with pytest.raises(DataError, match="line 3"):
                load_csv(str(path))

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("EventId,a,Weight,Label\n1,2.0,1.0,signal\n")
        with pytest.raises(DataError, match="'s' or 'b'"):
            load_csv(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(str(tmp_path / "absent.csv"))

    def test_explicit_feature_subset(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text(CSV_TEXT)
        data = load_csv(str(path), CsvSchema(feature_columns=("b",)))
        assert data.column_names == ("b",)
        assert data.features.shape == (2, 1)

    def test_round_trip_is_content_stable(self, tmp_path):
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        first.write_text(CSV_TEXT)
        data = load_csv(str(first))
        write_csv(data, str(second))
        again = load_csv(str(second))
        np.testing.assert_array_equal(again.labels, data.labels)
        np.testing.assert_array_equal(again.event_ids, data.event_ids)
        np.testing.assert_array_equal(again.weights, data.weights)
        np.testing.assert_array_equal(again.features, data.features)
        # a second write produces identical bytes
        third = tmp_path / "three.csv"
        write_csv(again, str(third))
        assert second.read_bytes() == third.read_bytes()


class TestCsvSchema:
    def test_names_are_held_as_given_and_feature_lists_as_tuples(self):
        schema = CsvSchema("id", "w", "y", ["b", "a"])
        assert schema == CsvSchema("id", "w", "y", ("b", "a"))
        assert type(schema.feature_columns) is tuple
        assert CsvSchema().feature_columns is None

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"feature_columns": "x0"}, "feature_columns must be a sequence of str, got str"),
            ({"feature_columns": 3}, "feature_columns must be a sequence of str, got int"),
            ({"feature_columns": np.array(["x0"])},
             "feature_columns must be a sequence of str, got ndarray"),
            ({"feature_columns": ("x0", 1)}, "feature_columns must be str, got int"),
            ({"feature_columns": b"x0"}, "feature_columns must be str, got int"),
            ({"id_column": None}, "id_column must be str, got NoneType"),
            ({"weight_column": 1}, "weight_column must be str, got int"),
            ({"label_column": ("Label",)}, "label_column must be str, got tuple"),
        ],
        ids=["string-features", "int-features", "array-features", "int-feature",
             "bytes-features", "none-id", "int-weight", "tuple-label"],
    )
    def test_refused_value_is_config_error(self, fields, message):
        with pytest.raises(ConfigError) as caught:
            CsvSchema(**fields)
        assert str(caught.value) == message

    def test_string_feature_columns_no_longer_load_its_characters(self, tmp_path):
        # a string was read as the columns of its characters, x and 0
        path = tmp_path / "toy.csv"
        path.write_text("EventId,x,0,x0,Weight,Label\n1,1.0,2.0,3.0,1.0,s\n2,4.0,5.0,6.0,1.0,b\n")
        assert load_csv(str(path), CsvSchema(feature_columns=("x0",))).features.tolist() == [
            [3.0], [6.0]
        ]
        with pytest.raises(ConfigError, match="got str$"):
            load_csv(str(path), CsvSchema(feature_columns="x0"))


class TestSplit:
    def test_partition_disjoint_exhaustive(self):
        data = synthesize(SynthConfig(n_signal=50, n_background=70), seed=3)
        train, val = split(data, SplitSpec(validation_fraction=0.3, seed=9))
        ids = np.concatenate([train.event_ids, val.event_ids])
        assert np.array_equal(np.sort(ids), np.sort(data.event_ids))
        assert np.intersect1d(train.event_ids, val.event_ids).size == 0

    def test_renormalization_preserves_class_totals(self):
        data = synthesize(
            SynthConfig(n_signal=40, n_background=60, signal_total=100.0, background_total=200.0),
            seed=5,
        )
        train, val = split(data, SplitSpec(validation_fraction=0.5, seed=1))
        for part in (train, val):
            np.testing.assert_allclose(part.signal_total, 100.0, rtol=1e-9)
            np.testing.assert_allclose(part.background_total, 200.0, rtol=1e-9)

    def test_without_renormalization_totals_split(self):
        data = synthesize(SynthConfig(n_signal=40, n_background=60), seed=5)
        train, val = split(
            data, SplitSpec(validation_fraction=0.5, seed=1, renormalize=False)
        )
        np.testing.assert_allclose(
            train.signal_total + val.signal_total, data.signal_total, rtol=1e-12
        )

    def test_deterministic(self):
        data = synthesize(SynthConfig(n_signal=30, n_background=30), seed=2)
        spec = SplitSpec(validation_fraction=0.4, seed=77)
        t1, v1 = split(data, spec)
        t2, v2 = split(data, spec)
        np.testing.assert_array_equal(t1.event_ids, t2.event_ids)
        np.testing.assert_array_equal(v1.event_ids, v2.event_ids)

    def test_both_classes_on_both_sides_extreme_fraction(self):
        data = synthesize(SynthConfig(n_signal=2, n_background=2), seed=1)
        train, val = split(data, SplitSpec(validation_fraction=0.99, seed=4))
        for part in (train, val):
            assert np.any(part.labels == 1)
            assert np.any(part.labels == -1)

    @pytest.mark.parametrize("renormalize", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_parts_rejoin_in_the_dataset_order(self, seed, renormalize):
        # each part keeps the dataset's rows in order, so the np.isin mask
        # of the validation ids puts every cell back, NaN and -0.0 included
        rng = np.random.default_rng(seed)
        base = synthesize(SynthConfig(n_signal=37, n_background=64, d=4), seed=seed)
        features = base.features.copy()
        features[rng.random(features.shape) < 0.25] = np.nan
        features[rng.random(features.shape) < 0.05] = -0.0
        # ids neither sorted nor dense, so the mask cannot lean on their order
        ids = rng.permutation(base.n) * 13 - 500
        data = WeightedDataset(features, base.labels, base.weights, ids, base.column_names)
        train, val = split(
            data, SplitSpec(validation_fraction=0.3, seed=seed + 5, renormalize=renormalize)
        )
        in_val = np.isin(data.event_ids, val.event_ids)
        assert np.array_equal(data.event_ids[in_val], val.event_ids)
        assert np.array_equal(data.event_ids[~in_val], train.event_ids)
        rejoined = np.empty_like(data.features)
        rejoined[~in_val] = train.features
        rejoined[in_val] = val.features
        assert rejoined.tobytes() == data.features.tobytes()
        # renormalize rescales the parts' weights, so only then do they differ
        for name in ("labels",) if renormalize else ("labels", "weights"):
            joined = np.empty_like(getattr(data, name))
            joined[~in_val] = getattr(train, name)
            joined[in_val] = getattr(val, name)
            assert joined.tobytes() == getattr(data, name).tobytes()

    def test_too_few_examples(self):
        data = WeightedDataset(
            features=np.array([[0.0], [1.0], [2.0]]),
            labels=np.array([1, -1, -1]),
            weights=np.ones(3),
            event_ids=np.arange(3),
            column_names=("x",),
        )
        with pytest.raises(DataError):
            split(data, SplitSpec(validation_fraction=0.5, seed=0))

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            SplitSpec(validation_fraction=1.0, seed=0)
        with pytest.raises(ConfigError):
            SplitSpec(validation_fraction=0.0, seed=0)


class TestSynthesize:
    def test_per_class_weights_from_totals(self):
        config = SynthConfig(
            n_signal=1000, n_background=1000, signal_total=691.0, background_total=410999.0
        )
        data = synthesize(config, seed=0)
        sig_w = np.unique(data.weights[data.labels == 1])
        bg_w = np.unique(data.weights[data.labels == -1])
        np.testing.assert_allclose(sig_w, [0.691], rtol=1e-15)
        np.testing.assert_allclose(bg_w, [410.999], rtol=1e-15)

    def test_deterministic(self):
        config = default_synth_config()
        a = synthesize(config, seed=11)
        b = synthesize(config, seed=11)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.weights, b.weights)
        c = synthesize(config, seed=12)
        assert not np.array_equal(a.features, c.features)

    def test_mean_separation(self):
        config = SynthConfig(n_signal=20000, n_background=20000, separation=2.0)
        data = synthesize(config, seed=6)
        mu_s = data.features[data.labels == 1].mean(axis=0)
        mu_b = data.features[data.labels == -1].mean(axis=0)
        gap = float(np.linalg.norm(mu_s - mu_b))
        assert abs(gap - 2.0) < 0.05

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SynthConfig(n_signal=0)
        with pytest.raises(ConfigError):
            SynthConfig(signal_total=-1.0)
        with pytest.raises(ConfigError):
            SynthConfig(d=0)
        with pytest.raises(ConfigError):
            SynthConfig(separation=-0.1)
        for key in ("d", "n_signal", "n_background"):
            for value in (2.5, 10.0):
                with pytest.raises(ConfigError, match="integer"):
                    SynthConfig(**{key: value})
        for value in (math.nan, math.inf):
            with pytest.raises(ConfigError):
                SynthConfig(separation=value)
            with pytest.raises(ConfigError):
                SynthConfig(signal_total=value)
            with pytest.raises(ConfigError):
                SynthConfig(background_total=value)


class TestSubmission:
    def test_rank_by_ascending_score(self, tmp_path):
        path = tmp_path / "sub.csv"
        write_submission(
            str(path), [7, 8, 9], [0.1, 0.9, 0.5], [-1, 1, 1]
        )
        ids, ranks, sel = read_submission(str(path))
        np.testing.assert_array_equal(ids, [7, 8, 9])
        np.testing.assert_array_equal(ranks, [1, 3, 2])
        np.testing.assert_array_equal(sel, [-1, 1, 1])

    def test_ties_break_to_lower_event_id(self, tmp_path):
        path = tmp_path / "sub.csv"
        write_submission(str(path), [20, 10, 30], [0.5, 0.5, 0.5], [1, 1, 1])
        ids, ranks, _ = read_submission(str(path))
        by_id = dict(zip(ids.tolist(), ranks.tolist()))
        assert by_id[10] == 1 and by_id[20] == 2 and by_id[30] == 3

    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "sub.csv"
        write_submission(str(path), [1, 2], [0.25, 0.125], [1, -1])
        assert path.read_bytes() == b"EventId,RankOrder,Class\n1,2,s\n2,1,b\n"

    def test_missing_file_is_data_error(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(DataError, match="absent.csv"):
            read_submission(str(path))

    @pytest.mark.parametrize(
        "row,column",
        [("x,1,s", "EventId"), ("1.5,1,s", "EventId"), ("1,one,s", "RankOrder"),
         ("1,,b", "RankOrder"), (f"{2**63},1,s", "EventId"), (f"1,{-(2**63) - 1},b", "RankOrder")],
    )
    def test_bad_integer_cell_names_line(self, tmp_path, row, column):
        path = tmp_path / "sub.csv"
        path.write_text(f"EventId,RankOrder,Class\n2,1,b\n{row}\n")
        with pytest.raises(DataError, match=f"line 3: .*{column}"):
            read_submission(str(path))

    def test_undecodable_file_is_data_error(self, tmp_path):
        path = tmp_path / "sub.csv"
        path.write_bytes(b"EventId,RankOrder,Class\n1,1,\xff\n")
        with pytest.raises(DataError, match="decode"):
            read_submission(str(path))

    def test_duplicate_ids_rejected(self, tmp_path):
        with pytest.raises(DataError):
            write_submission(str(tmp_path / "s.csv"), [1, 1], [0.1, 0.2], [1, -1])

    @pytest.mark.parametrize("where", sorted(DUPLICATES))
    def test_one_duplicate_in_many_ids_rejected(self, tmp_path, where):
        ids = _ids_with_duplicate(where)
        path = tmp_path / "s.csv"
        with pytest.raises(DataError, match="^duplicate event ids in submission$"):
            write_submission(str(path), ids, np.zeros(ids.size), np.ones(ids.size, dtype=int))
        assert not path.exists()
        write_submission(str(path), np.unique(ids), np.zeros(ids.size - 1), np.ones(ids.size - 1))

    def test_round_trip_ranks(self, tmp_path):
        rng = np.random.default_rng(42)
        ids = rng.permutation(500) + 1000
        scores = rng.standard_normal(500)
        sel = rng.choice([-1, 1], 500)
        path = tmp_path / "sub.csv"
        write_submission(str(path), ids, scores, sel)
        back_ids, back_ranks, back_sel = read_submission(str(path))
        np.testing.assert_array_equal(back_ids, ids)
        np.testing.assert_array_equal(back_sel, sel)
        # ranks agree with an independent argsort
        order = np.lexsort((ids, scores))
        expect = np.empty(500, dtype=int)
        expect[order] = np.arange(1, 501)
        np.testing.assert_array_equal(back_ranks, expect)
