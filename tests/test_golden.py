"""Golden outputs: sha256 digests of model, trace and CLI bytes.

The determinism tests elsewhere compare two runs in one process; these pin
the bytes across commits, so a refactor that shifts any random stream (the
fresh round seeds, the rerun key 7919, the CLI synth/split keys 101 and
102, learner row subsampling, the check-suite keys 1-4) or any float in a
trace fails here.  The threshold-scan suite (key 5) prints only its
mismatch count, which no stream changes.  Only tree and stump learners are
used: the logistic learner goes through a BLAS solve whose last bits may
depend on the BLAS build.
"""

import hashlib

import numpy as np
import pytest

from amscascade import cli
from amscascade.cascade import (
    CascadeConfig,
    rerun_cascade,
    run_cascade_fresh,
    run_cascade_warmstart,
    write_trace_csv,
)
from amscascade.data import SplitSpec, SynthConfig, WeightedDataset, split, synthesize
from amscascade.learner import CostVector, LearnerConfig, Tree, save_model, train

SYNTH = "n_signal=150,n_background=150,separation=2.0,signal_total=120,background_total=350"

EXPECTED = {
    "fresh": {
        "model": "07945ee7a389dcec2ed2b53602a4c11c4abc7ec3e68e3c85a07759f1ece5c35f",
        "trace": "70cf5072c9ca5825cb0643638cab80430fe1607890275a08e33d68f762452d5b",
    },
    "warmstart": {
        "model": "dd371552159754d8d088e5f40f39815b0828c31678e68a34b173e5cb10fe9c78",
        "trace": "1f385c3c810441ba26ff013bc55305c0df3685f0e0fef301bfe5c78ac610d013",
    },
    "rerun": {
        "model0": "a76255f39de1c93846cf9d401f13bad7afcc222f915d0980a6dbc200e3720fdb",
        "trace0": "28a1f231401a522421dddb1cc301fd21047faabd44839a9177a639368fd7b93d",
        "model1": "08f72e5556ce77066f1402f14f047abfa560f16b7b0e60366411b591a3f41159",
        "trace1": "92c31a4836fc8583ea6d04af772beddebb7fc59bd8551cf0af74d5683326fde5",
        "model2": "898b16765ad36a445b2f9a525dd63a924870027f5855b7f5d1b414a197150ce3",
        "trace2": "52fb7253e09786853d868bd73ea8564fd84247d26d79686f867cde5ca2ccc5c7",
    },
    "cli-cascade": {
        "model.txt": "5a39fd76f79934e7ffe89cf610bed4a67d1fea47811a278277becd8a1939173a",
        "trace.csv": "989badf53e4fb84146ea665fddbfca7f932bd08a8429c723739322d4f943675c",
        "run_manifest.json": "6f1d23471a758d24a6002601ecfd9b4ac3e09acc20f0f3adb8a25dd163b9011b",
        "sub.csv": "90c0fdc2f13fe5ea481761b47582ea67896112aa862784e8afa7a51056395c65",
        "stdout": "caa1a9d8da52401485bfc88e743c15da155cdbe2fc59c70980d3329ad3d0bc37",
    },
    "cli-check": {
        "stdout": "db348dbd7169684e0a0be374da79e3bee34a2d658cdf704f34b8e91596a9dcc3",
    },
    "missing": {
        "tree-boost": "c4e51b0714f62f8e873fd315686e20158e526cf8143b332485e2f91bb8df853d",
        "stump-boost": "d96f9e77a494e146985db4db8c25860095db90928d46aad37acd7cc62fae4b1b",
    },
    "deep-fresh": {
        "model": "ead3203c4fc9b9c33df1d7e65a910ecc32aa8456180595d87cd7840397eca3e4",
        "trace": "24637a8a61866cf4baf592868c371b4dd00cdf0123893b86626e1de70c4014bf",
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def small_split(seed):
    # a local copy: golden inputs must not move with other tests' helpers
    data = synthesize(
        SynthConfig(
            d=3, n_signal=150, n_background=150, separation=2.0,
            signal_total=120.0, background_total=350.0,
        ),
        seed=seed,
    )
    return split(data, SplitSpec(validation_fraction=0.5, seed=seed + 1))


def run_digests(model, trace, tmp_path, suffix=""):
    model_path = tmp_path / f"model{suffix}.txt"
    trace_path = tmp_path / f"trace{suffix}.csv"
    save_model(model, str(model_path))
    write_trace_csv(trace, str(trace_path))
    return {
        f"model{suffix}": sha256(model_path.read_bytes()),
        f"trace{suffix}": sha256(trace_path.read_bytes()),
    }


FRESH = CascadeConfig(
    T=4,
    extra_rounds_after_stall=0,  # the stall stop shapes the bytes
    b_reg=10.0,
    seed=3,
    learner=LearnerConfig(
        kind="tree-boost", rounds=4, learning_rate=0.3, max_depth=2, subsample=0.8
    ),
)


def test_fresh_run_bytes(tmp_path):
    train_ds, val_ds = small_split(seed=21)
    model, trace = run_cascade_fresh(train_ds, val_ds, FRESH)
    assert run_digests(model, trace, tmp_path) == EXPECTED["fresh"]


def test_warmstart_run_bytes(tmp_path):
    train_ds, val_ds = small_split(seed=22)
    config = CascadeConfig(
        variant="warmstart",
        T=12,
        b_reg=10.0,
        seed=4,
        learner=LearnerConfig(kind="stump-boost", learning_rate=0.2, subsample=0.8),
    )
    model, trace = run_cascade_warmstart(train_ds, val_ds, config)
    assert run_digests(model, trace, tmp_path) == EXPECTED["warmstart"]


def test_rerun_bytes(tmp_path):
    train_ds, val_ds = small_split(seed=23)
    results = rerun_cascade(train_ds, val_ds, FRESH, repeats=3)
    digests = {}
    for r, (model, trace) in enumerate(results):
        digests.update(run_digests(model, trace, tmp_path, suffix=str(r)))
    assert digests == EXPECTED["rerun"]


def test_cli_cascade_bytes(tmp_path, monkeypatch, capsys):
    # relative paths keep the manifest's recorded outputs independent of tmp_path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fast.cfg").write_text(
        "T = 3\nlearner.rounds = 6\nlearner.kind = tree-boost\nlearner.max_depth = 2\n"
        "learner.subsample = 0.8\n"
    )
    argv = [
        "cascade", "--synth", SYNTH, "--seed", "9", "--out-dir", "run",
        "--config", "fast.cfg", "--submission", "run/sub.csv",
    ]
    assert cli.main(argv) == 0
    digests = {
        name: sha256((tmp_path / "run" / name).read_bytes())
        for name in ("model.txt", "trace.csv", "run_manifest.json", "sub.csv")
    }
    digests["stdout"] = sha256(capsys.readouterr().out.encode())
    assert digests == EXPECTED["cli-cascade"]


def test_cli_check_bytes(capsys):
    assert cli.main(["check", "--seed", "5", "--instances", "3"]) == 0
    assert {"stdout": sha256(capsys.readouterr().out.encode())} == EXPECTED["cli-check"]


def with_missing_cells(seed):
    # NaN in two of four columns, so splits send missing rows either way
    data = synthesize(
        SynthConfig(
            d=4, n_signal=150, n_background=150, separation=2.0,
            signal_total=120.0, background_total=350.0,
        ),
        seed=seed,
    )
    rng = np.random.default_rng(seed + 1)
    features = data.features.copy()
    features[rng.random(data.n) < 0.3, 0] = np.nan
    features[rng.random(data.n) < 0.5, 2] = np.nan
    return WeightedDataset(
        features=features,
        labels=data.labels,
        weights=data.weights,
        event_ids=data.event_ids,
        column_names=data.column_names,
    )


@pytest.mark.parametrize(
    "config",
    [
        LearnerConfig(kind="tree-boost", rounds=8, learning_rate=0.3, max_depth=3),
        LearnerConfig(kind="stump-boost", rounds=12, learning_rate=0.3, subsample=0.8, seed=6),
    ],
    ids=lambda c: c.kind,
)
def test_missing_value_tree_bytes(tmp_path, config):
    data = with_missing_cells(seed=24)
    model = train(data, CostVector(costs=data.weights, round_dual=1.0), config)
    path = tmp_path / "model.txt"
    save_model(model, str(path))
    text = path.read_text()
    # both missing-value sides are taken, so both routing paths are pinned
    assert " left\n" in text and " right\n" in text
    assert sha256(path.read_bytes()) == EXPECTED["missing"][config.kind]


def tree_depth(tree: Tree, node: int = 0) -> int:
    if tree.feature[node] < 0:
        return 0
    return 1 + max(tree_depth(tree, int(tree.left[node])), tree_depth(tree, int(tree.right[node])))


def test_deep_fresh_run_bytes(tmp_path):
    # depth-4 trees on subsampled rows with NaN cells: the grower's row
    # partitions reach three levels below the root
    train_ds, val_ds = split(
        with_missing_cells(seed=25), SplitSpec(validation_fraction=0.5, seed=26)
    )
    config = CascadeConfig(
        T=3,
        extra_rounds_after_stall=0,
        b_reg=10.0,
        seed=5,
        learner=LearnerConfig(
            kind="tree-boost", rounds=6, learning_rate=0.3, max_depth=4, subsample=0.8
        ),
    )
    model, trace = run_cascade_fresh(train_ds, val_ds, config)
    assert max(tree_depth(tree) for tree in model.trees) == 4
    sides = {bool(side) for tree in model.trees for side in tree.missing_left[tree.feature >= 0]}
    assert sides == {True, False}
    assert run_digests(model, trace, tmp_path) == EXPECTED["deep-fresh"]
