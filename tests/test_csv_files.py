"""Property tests for the dataset and submission CSV formats: damaged
files fail loudly.

Arbitrary bytes, and a valid file with one cell replaced, either load or
raise a package error; no other exception escapes ``load_csv`` or
``read_submission``.  ``load_csv``'s column-wise fast path and the row
parser it falls back to agree byte for byte, or raise the same message.
The runs are derandomized with fixed example counts, so the suite is
deterministic.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from amscascade.data import (
    CsvSchema,
    SynthConfig,
    WeightedDataset,
    _load_csv_rows,
    load_csv,
    read_submission,
    synthesize,
    write_csv,
    write_submission,
)
from amscascade.errors import AmsCascadeError, DataError

PROPERTY_SETTINGS = settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# cells that reach the parser's range and consistency checks, besides
# arbitrary text
CELLS = st.one_of(
    st.sampled_from(
        ["", "0", "1", "-1", "-999.0", "-999", "1e400", "-1e400", "nan", "inf",
         "-0.0", "0.0", "x", "s", "b", "S", " 1", "1_0", "9" * 30, "-" + "9" * 19,
         "1" * 5000, "1" * 140_000,
         "EventId", "Weight", "Label", '"', "a,b", "\x00", "\n"]
    ),
    st.text(max_size=8),
)


def _valid_csv():
    data = synthesize(
        SynthConfig(d=2, n_signal=3, n_background=3, signal_total=3.0, background_total=9.0),
        seed=0,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        write_csv(data, path)
        with open(path, "rb") as handle:
            return handle.read().decode()


VALID = _valid_csv()


def _load_bytes(data):
    """load_csv on a file holding ``data``; None when it is rejected.

    Only the package's own errors may escape, and an accepted dataset has
    the shapes and values its checks promise.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "wb") as handle:
            handle.write(data)
        try:
            dataset = load_csv(path)
        except AmsCascadeError:
            return None
    assert dataset.n >= 1 and dataset.d >= 1
    assert np.all(np.isin(dataset.labels, (-1, 1)))
    assert np.all(np.isfinite(dataset.weights) & (dataset.weights > 0.0))
    return dataset


def test_valid_file_loads():
    dataset = _load_bytes(VALID.encode())
    assert dataset is not None and dataset.n == 6 and dataset.d == 2


@PROPERTY_SETTINGS
@given(st.one_of(st.binary(max_size=200), st.text(max_size=200).map(str.encode)))
def test_arbitrary_bytes_fail_as_package_errors(data):
    _load_bytes(data)


@pytest.mark.parametrize("column", range(len(VALID.splitlines()[0].split(","))))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_one_replaced_cell_fails_as_package_error(column, data):
    lines = VALID.splitlines()
    # hypothesis favours small integers, so the line comes from the low
    # digits of a wide draw to spread over the whole file
    k = data.draw(st.integers(0, 2**16), label="line") % len(lines)
    cells = lines[k].split(",")
    cells[column] = data.draw(CELLS, label="new cell")
    lines[k] = ",".join(cells)
    _load_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogatepass"))


# the bytes the fast path reads, including the delimiter and the line end,
# so that generated lines also gain or lose fields and lines
PLAIN_ALPHABET = "0123456789.eE+-,\nsb"
PLAIN_CELLS = st.one_of(
    st.sampled_from(
        ["+5", "007", "-0", "1.", ".5", "1e5", "1E+5", "1e", "-e", "1.0", "sb", "ss", "bs",
         "9223372036854775807", "9223372036854775808", "-9223372036854775809", "-999"]
    ),
    st.text(alphabet=PLAIN_ALPHABET, max_size=8),
)


def _as_bytes(result):
    if not isinstance(result, WeightedDataset):
        return result
    arrays = (result.features, result.labels, result.weights, result.event_ids)
    return result.column_names, [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def _assert_parsers_agree(path, schema=CsvSchema()):
    """load_csv and the row parser give byte-identical datasets or the same
    DataError message; returns the row parser's dataset or message."""
    results = []
    for parse in (load_csv, _load_csv_rows):
        try:
            results.append(parse(path, schema))
        except DataError as exc:
            results.append(str(exc))
    fast, rows = results
    assert _as_bytes(fast) == _as_bytes(rows)
    return rows


def _parsers_agree_on_bytes(data, schema=CsvSchema()):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "wb") as handle:
            handle.write(data)
        return _assert_parsers_agree(path, schema)


@PROPERTY_SETTINGS
@given(
    data=st.data(),
    schema=st.sampled_from([CsvSchema(), CsvSchema(feature_columns=("x1",))]),
)
def test_fast_path_matches_row_parser_on_replaced_cells(data, schema):
    lines = VALID.splitlines()
    for _ in range(data.draw(st.integers(1, 4), label="replacements")):
        k = data.draw(st.integers(0, 2**16), label="line") % len(lines)
        cells = lines[k].split(",")
        column = data.draw(st.integers(0, len(cells) - 1), label="column")
        cells[column] = data.draw(st.one_of(CELLS, PLAIN_CELLS), label="new cell")
        lines[k] = ",".join(cells)
    _parsers_agree_on_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogatepass"), schema)


HEADER = "EventId,x0,Weight,Label\n"


@PROPERTY_SETTINGS
@given(st.text(alphabet=PLAIN_ALPHABET, max_size=200))
def test_fast_path_matches_row_parser_on_plain_bodies(body):
    _parsers_agree_on_bytes((HEADER + body).encode())


# id: (file text, whether the row parser loads it[, schema])
NAMED_CASES = {
    # a one-character label field would cut both of these to 's'
    "label-sb": (HEADER + "1,0.5,1.0,sb\n", False),
    "label-sbx": (HEADER + "1,0.5,1.0,sbx\n", False),
    # np.loadtxt skips empty lines; the row parser rejects them
    "empty-line-inside": (HEADER + "1,0.5,1.0,s\n\n2,0.5,1.0,b\n", False),
    "empty-line-at-end": (HEADER + "1,0.5,1.0,s\n2,0.5,1.0,b\n\n", False),
    "signed-and-zero-padded-ids": (HEADER + "+5,0.5,1.0,s\n007,0.5,1.0,b\n", True),
    "id-overflows-int64": (HEADER + "9223372036854775808,0.5,1.0,s\n", False),
    "infinite-weight": (HEADER + "1,0.5,1e400,s\n", False),
    "infinite-feature": (HEADER + "1,1e400,1.0,s\n2,-999,1.0,b\n", True),
    "crlf": (HEADER.replace("\n", "\r\n") + "1,0.5,1.0,s\r\n", True),
    "no-final-line-feed": (HEADER + "1,0.5,1.0,s\n2,0.25,2.0,b", True),
    "no-data-rows": (HEADER, False),
    "over-field-limit": (HEADER + "1,1" + "0" * 140_000 + ",1.0,s\n", False),
    "quoted-header": ('"EventId",x0,Weight,Label\n1,0.5,1.0,s\n', True),
    "duplicate-column": ("EventId,x0,x0,Weight,Label\n1,0.5,0.5,1.0,s\n", False),
    "duplicate-id": (HEADER + "1,0.5,1.0,s\n1,0.5,1.0,b\n", False),
    # a quoted cell that the csv module continues onto the next line
    "quote-spans-lines": (
        'EventId,x0,u,Weight,Label\n1,0.5,"a,1.0,s\n2,0.5,b",1.0,b\n',
        True,
        CsvSchema(feature_columns=("x0",)),
    ),
    "label-as-feature": (HEADER + "1,0.5,1.0,s\n", False, CsvSchema(feature_columns=("Label",))),
    "id-as-feature": (HEADER + "+5,0.5,1.0,s\n", True, CsvSchema(feature_columns=("EventId",))),
    # the fast path stores a record's feature cells together, so a column
    # read as two features is left to the row parser
    "repeated-feature": (HEADER + "1,0.5,1.0,s\n", True, CsvSchema(feature_columns=("x0", "x0"))),
    "interleaved-features": (
        "x1,Label,u,EventId,x0,Weight\n0.5,s,77,1,-999,2.0\n0.25,b,8,2,1.5,1.0\n",
        True,
        CsvSchema(feature_columns=("x0", "x1")),
    ),
}


@pytest.mark.parametrize("case", NAMED_CASES)
def test_fast_path_matches_row_parser_on_named_cases(tmp_path, case):
    text, loads, *schema = NAMED_CASES[case]
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    result = _assert_parsers_agree(str(path), *schema)
    assert isinstance(result, WeightedDataset) == loads


def test_fast_path_matches_row_parser_on_missing_path(tmp_path):
    message = _assert_parsers_agree(str(tmp_path / "absent.csv"))
    assert message.startswith("cannot open")


@pytest.mark.parametrize("name", ["absent.csv", "."], ids=["missing", "directory"])
def test_unopenable_path_raises_without_the_row_parser(tmp_path, monkeypatch, name):
    path = str(tmp_path / name)
    with pytest.raises(DataError) as expected:
        _load_csv_rows(path)
    calls = []
    monkeypatch.setattr("amscascade.data._load_csv_rows", lambda *args: calls.append(args))
    with pytest.raises(DataError) as raised:
        load_csv(path)
    assert str(raised.value) == str(expected.value) and not calls


@pytest.mark.parametrize(
    "schema", [CsvSchema(), CsvSchema(feature_columns=("x2", "x0"))], ids=["all", "subset"]
)
def test_plain_files_take_the_fast_path(tmp_path, monkeypatch, schema):
    """write_csv output loads without the row parser, missing values included."""
    dataset = synthesize(SynthConfig(d=3, n_signal=20, n_background=30), seed=4)
    features = dataset.features.copy()
    features[::3, 1] = np.nan
    features[1, 0] = np.nan
    dataset = WeightedDataset(
        features, dataset.labels, dataset.weights, dataset.event_ids, dataset.column_names
    )
    path = str(tmp_path / "data.csv")
    write_csv(dataset, path)
    expected = _load_csv_rows(path, schema)

    def no_row_parser(*_args):
        raise AssertionError("the row parser ran")

    monkeypatch.setattr("amscascade.data._load_csv_rows", no_row_parser)
    assert _as_bytes(load_csv(path, schema)) == _as_bytes(expected)
    assert np.isnan(expected.features).any()


def _valid_submission():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sub.csv")
        write_submission(path, [7, 8, 9, 10], [0.5, 0.25, 0.75, 0.0], [1, -1, 1, -1])
        with open(path, "rb") as handle:
            return handle.read().decode()


VALID_SUBMISSION = _valid_submission()


def _read_submission_bytes(data):
    """read_submission on a file holding ``data``; None when it is rejected."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sub.csv")
        with open(path, "wb") as handle:
            handle.write(data)
        try:
            ids, ranks, selected = read_submission(path)
        except AmsCascadeError:
            return None
    assert ids.shape == ranks.shape == selected.shape
    assert ids.dtype == ranks.dtype == np.int64
    assert np.all(np.isin(selected, (-1, 1)))
    return ids, ranks, selected


def test_valid_submission_reads():
    ids, ranks, selected = _read_submission_bytes(VALID_SUBMISSION.encode())
    assert ids.tolist() == [7, 8, 9, 10] and ranks.tolist() == [3, 2, 4, 1]
    assert selected.tolist() == [1, -1, 1, -1]


@PROPERTY_SETTINGS
@given(
    st.one_of(
        st.binary(max_size=200),
        st.text(max_size=200).map(lambda text: ("EventId,RankOrder,Class\n" + text).encode(
            "utf-8", "surrogatepass"
        )),
    )
)
def test_arbitrary_submission_bytes_fail_as_package_errors(data):
    _read_submission_bytes(data)


@pytest.mark.parametrize("column", range(3))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_submission_one_replaced_cell_fails_as_package_error(column, data):
    lines = VALID_SUBMISSION.splitlines()
    k = data.draw(st.integers(0, 2**16), label="line") % len(lines)
    cells = lines[k].split(",")
    cells[column] = data.draw(CELLS, label="new cell")
    lines[k] = ",".join(cells)
    _read_submission_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogatepass"))
