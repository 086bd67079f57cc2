"""Property tests for the dataset and submission CSV formats: damaged
files fail loudly.

Arbitrary bytes, and a valid file with one cell replaced, either load or
raise a package error; no other exception escapes ``load_csv`` or
``read_submission``.  The runs are derandomized with fixed example counts,
so the suite is deterministic.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from amscascade.data import (
    SynthConfig,
    load_csv,
    read_submission,
    synthesize,
    write_csv,
    write_submission,
)
from amscascade.errors import AmsCascadeError

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
