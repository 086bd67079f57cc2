"""Property tests for the model file format: exact round trips, and loud
failures on damaged files.

The runs are derandomized with fixed example counts, so the suite is
deterministic.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from amscascade.errors import AmsCascadeError, DataError
from amscascade.learner import Model, Tree, _leaf_row, load_model, predict_scores, save_model

PROPERTY_SETTINGS = settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

finite = st.floats(allow_nan=False, allow_infinity=False)
# thresholds and scores may be infinite: save_model writes repr(), which
# float() reads back for every float but NaN's sign and payload
extended = st.floats(allow_nan=False)

# a tree shape: a leaf value, or (feature, threshold, missing_left, left, right)
tree_shapes = st.recursive(
    finite,
    lambda sub: st.tuples(st.integers(0, 3), finite, st.booleans(), sub, sub),
    max_leaves=6,
)


def _tree(shape, n_features):
    rows = []

    def add(node):
        if not isinstance(node, tuple):
            rows.append(_leaf_row(node))
            return
        feature, threshold, missing_left, left, right = node
        k = len(rows)
        rows.append(None)
        add(left)
        rows[k] = (feature % n_features, threshold, k + 1, len(rows), missing_left, 0.0)
        add(right)

    add(shape)
    return Tree._from_rows(rows)


@st.composite
def boosted_models(draw):
    n_features = draw(st.integers(1, 4))
    shapes = draw(st.lists(tree_shapes, max_size=4))
    return Model(
        kind=draw(st.sampled_from(["stump-boost", "tree-boost"])),
        n_features=n_features,
        base_score=draw(finite),
        threshold=draw(extended),
        trees=tuple(_tree(shape, n_features) for shape in shapes),
    )


@st.composite
def logistic_models(draw):
    n_features = draw(st.integers(1, 4))
    vector = st.lists(finite, min_size=n_features, max_size=n_features)
    return Model(
        kind="logistic",
        n_features=n_features,
        base_score=draw(finite),
        threshold=draw(extended),
        coefficients=np.array(draw(vector)),
        impute_values=np.array(draw(vector)),
    )


models = st.one_of(boosted_models(), logistic_models())

# fields that reach the parser's range and consistency checks, besides
# arbitrary text
FIELDS = st.one_of(
    st.sampled_from(
        ["", "0", "1", "2", "-1", "-3", "7", "99", "1e400", "nan", "inf", "-0.0",
         "x", "left", "right", "lfet", "leaf", "split", "tree", "node", "end"]
    ),
    st.text(max_size=8),
)


def _model_bytes(model):
    arrays = [model.coefficients, model.impute_values]
    for tree in model.trees:
        arrays += [tree.feature, tree.threshold, tree.left, tree.right,
                   tree.missing_left, tree.value]
    scalars = np.array([model.base_score, model.threshold])
    return (
        model.kind,
        model.n_features,
        scalars.tobytes(),
        [None if a is None else a.tobytes() for a in arrays],
    )


def _saved_text(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.txt")
        save_model(model, path)
        with open(path, "rb") as handle:
            return handle.read()


def _load_bytes(data):
    """load_model on a file holding ``data``; None when it is rejected.

    Only the package's own errors may escape load_model, and a model it
    accepts must also score rows of its feature count.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.txt")
        with open(path, "wb") as handle:
            handle.write(data)
        try:
            model = load_model(path)
        except AmsCascadeError:
            return None
    if 0 <= model.n_features <= 8:
        rows = np.array([[0.0] * model.n_features, [np.nan] * model.n_features])
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                predict_scores(model, rows)
        except AmsCascadeError:
            pass
    return model


@PROPERTY_SETTINGS
@given(models)
def test_save_load_round_trip_is_exact(model):
    text = _saved_text(model)
    back = _load_bytes(text)
    assert back is not None
    assert _model_bytes(back) == _model_bytes(model)
    assert _saved_text(back) == text


@PROPERTY_SETTINGS
@given(st.one_of(st.binary(max_size=200), st.text(max_size=200).map(str.encode)))
def test_arbitrary_bytes_fail_as_package_errors(data):
    _load_bytes(data)


@PROPERTY_SETTINGS
@given(models, st.data())
def test_one_mutated_line_fails_as_package_error(model, data):
    lines = _saved_text(model).decode().splitlines()
    # a line past the header, and a value field past the line's keyword;
    # hypothesis favours small integers, so positions come from the low
    # digits of a wide draw to spread over the whole file
    k = 1 + data.draw(st.integers(0, 2**16), label="line") % (len(lines) - 1)
    fields = lines[k].split()
    if len(fields) > 1 and data.draw(st.booleans(), label="replace a value"):
        i = 1 + data.draw(st.integers(0, 2**16), label="field") % (len(fields) - 1)
        fields[i] = data.draw(FIELDS, label="new value")
        lines[k] = " ".join(fields)
    else:
        lines[k] = data.draw(st.text(max_size=40), label="new line")
    _load_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogatepass"))


@pytest.mark.parametrize(
    "line, bad",
    [
        ("base_score 0.25", "base_score nan"),
        ("base_score 0.25", "base_score inf"),
        ("threshold -inf", "threshold nan"),
        ("node 0 split 0 0.5 1 2 left", "node 0 split 0 nan 1 2 left"),
    ],
)
def test_nan_cuts_and_scores_are_data_errors(tmp_path, line, bad):
    # a NaN cut would send every present row right; -inf is the cut that
    # selects everything and loads back as it is
    tree = Tree._from_rows([(0, 0.5, 1, 2, True, 0.0), _leaf_row(1.0), _leaf_row(2.0)])
    model = Model("tree-boost", 1, 0.25, threshold=-np.inf, trees=(tree,))
    text = _saved_text(model).decode()
    assert _model_bytes(_load_bytes(text.encode())) == _model_bytes(model)
    path = tmp_path / "model.txt"
    path.write_text(text.replace(line, bad))
    with pytest.raises(DataError) as caught:
        load_model(str(path))
    assert "\n" not in str(caught.value)


_TREE_FILE = (
    "amscascade model format 1\nkind tree-boost\nfeatures 2\nbase_score 0.25\n"
    "threshold 0.0\ntrees 1\ntree 0 nodes 3\nnode 0 split 1 0.5 1 2 left\n"
    "node 1 leaf 1.0\nnode 2 leaf 2.0\nend\n"
)
_LOGISTIC_FILE = (
    "amscascade model format 1\nkind logistic\nfeatures 2\nbase_score 0.25\n"
    "threshold 0.0\ncoefficients 2\nc 0 1.5\nc 1 -0.5\nimpute 2\ni 0 0.0\ni 1 3.0\nend\n"
)


@pytest.mark.parametrize(
    "text, old, new, message",
    [
        (_TREE_FILE, "end\n", "", "model file truncated"),
        (_TREE_FILE, _TREE_FILE, "", "model file truncated"),
        (_TREE_FILE, "format 1", "format 2", "{path!r} is not a model file (bad header)"),
        (_TREE_FILE, "features 2", "feature 2",
         "model file: expected 'features', got 'feature 2'"),
        (_TREE_FILE, "node 2 leaf", "node 3 leaf",
         "model file: expected node 2, got 'node 3 leaf 2.0'"),
        (_LOGISTIC_FILE, "c 1 -0.5", "c 0 -0.5", "model file: expected c 1, got 'c 0 -0.5'"),
        (_TREE_FILE, "trees 1", "trees -1", "model file: negative tree count -1"),
        (_LOGISTIC_FILE, "coefficients 2", "coefficients -1",
         "model file: negative coefficients count -1"),
        (_LOGISTIC_FILE, "impute 2", "impute -2", "model file: negative impute count -2"),
        (_TREE_FILE, "node 1 leaf", "node 1 stem",
         "model file: bad node line ['node', '1', 'stem', '1.0']"),
        (_TREE_FILE, "split 1 0.5", "split 2 0.5", "model file: node 0 splits on feature 2 of 2"),
        (_TREE_FILE, "1 2 left", "1 2 up", "model file: node 0 sends missing values to 'up'"),
        (_TREE_FILE, "end", "end now", "model file: missing end marker"),
        (_TREE_FILE, "base_score 0.25", "base_score x",
         "model file {path!r}: malformed field (could not convert string to float: 'x')"),
        (_LOGISTIC_FILE, "kind logistic", "kind",
         "model file {path!r}: malformed field (list index out of range)"),
        (_TREE_FILE, "kind tree-boost", "kind tree-boost extra",
         "model file: expected 2 fields, got 'kind tree-boost extra'"),
        (_TREE_FILE, "features 2", "features 2 3",
         "model file: expected 2 fields, got 'features 2 3'"),
        (_TREE_FILE, "base_score 0.25", "base_score 0.25 junk",
         "model file: expected 2 fields, got 'base_score 0.25 junk'"),
        (_TREE_FILE, "trees 1", "trees 1 x", "model file: expected 2 fields, got 'trees 1 x'"),
        (_LOGISTIC_FILE, "c 1 -0.5", "c 1 -0.5 x",
         "model file: expected 3 fields, got 'c 1 -0.5 x'"),
        (_TREE_FILE, "tree 0 nodes 3", "tree 0 nodes 3 y",
         "model file: expected 4 fields, got 'tree 0 nodes 3 y'"),
        (_TREE_FILE, "tree 0 nodes", "tree 0 leaves",
         "model file: expected tree 0 nodes, got 'tree 0 leaves 3'"),
        (_TREE_FILE, "node 1 leaf 1.0", "node 1 leaf 1.0 z",
         "model file: bad node line ['node', '1', 'leaf', '1.0', 'z']"),
        (_TREE_FILE, "1 2 left", "1 2 left z",
         "model file: bad node line ['node', '0', 'split', '1', '0.5', '1', '2', 'left', 'z']"),
        (_TREE_FILE, "end\n", "end\nend\n", "model file: line after end marker: 'end'"),
        (_LOGISTIC_FILE, "end\n", "end\n\n", "model file: line after end marker: ''"),
    ],
    ids=[
        "truncated", "empty", "bad-header", "expected-keyword", "expected-node-position",
        "expected-entry-position", "negative-trees", "negative-coefficients",
        "negative-impute", "bad-node-line", "feature-out-of-range", "missing-side",
        "missing-end-marker", "malformed-float", "malformed-short-line",
        "extra-kind-field", "extra-features-field", "extra-base-score-field",
        "extra-trees-field", "extra-entry-field", "extra-tree-field", "tree-without-nodes",
        "extra-leaf-field", "extra-split-field", "line-after-end", "blank-line-after-end",
    ],
)
def test_each_damaged_file_gets_its_message(tmp_path, text, old, new, message):
    path = tmp_path / "model.txt"
    path.write_text(text)
    load_model(str(path))  # the undamaged file loads
    assert old in text
    path.write_text(text.replace(old, new, 1))
    with pytest.raises(DataError) as caught:
        load_model(str(path))
    assert str(caught.value) == message.format(path=str(path))


@pytest.mark.parametrize("text", [_TREE_FILE, _LOGISTIC_FILE], ids=["tree", "logistic"])
def test_crlf_file_loads_as_its_lf_twin(tmp_path, text):
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    assert _model_bytes(load_model(str(crlf))) == _model_bytes(load_model(str(lf)))


@pytest.mark.parametrize(
    "case, message", [("missing", "cannot open"), ("directory", "cannot open"),
                      ("undecodable", "cannot decode")],
)
def test_unreadable_file_is_one_data_error_naming_it(tmp_path, case, message):
    path = tmp_path / "model.txt"
    if case == "directory":
        path.mkdir()
    elif case == "undecodable":
        path.write_bytes(_TREE_FILE.encode().replace(b"kind", b"\xff\xfekind"))
    with pytest.raises(DataError) as caught:
        load_model(str(path))
    text = str(caught.value)
    assert text.startswith(f"{message} {str(path)!r}") and "\n" not in text


_STUMP = Tree._from_rows([(0, 0.5, 1, 2, False, 0.0), _leaf_row(-1.0), _leaf_row(2.5)])
_SAVED_MODELS = {
    "tree-boost": Model("tree-boost", 2, 0.25, 0.0, (_tree((1, 0.5, True, 1.0, 2.0), 2), _STUMP)),
    "stump-boost": Model("stump-boost", 1, -0.5, 1.5, (_STUMP, _STUMP)),
    "logistic": Model("logistic", 2, 0.1, -0.25, coefficients=np.array([1.5, -0.5]),
                      impute_values=np.array([0.0, 3.0])),
    "treeless": Model("tree-boost", 3, 0.75, -np.inf),
}


@pytest.mark.parametrize("kind", sorted(_SAVED_MODELS))
def test_saved_models_round_trip_byte_for_byte(tmp_path, kind):
    # the reader takes every line save_model writes, field counts included
    model = _SAVED_MODELS[kind]
    path = tmp_path / "model.txt"
    save_model(model, str(path))
    text = path.read_bytes()
    back = load_model(str(path))
    assert _model_bytes(back) == _model_bytes(model)
    save_model(back, str(path))
    assert path.read_bytes() == text
