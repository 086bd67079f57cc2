"""End-to-end tests for the command-line interface."""

import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amscascade import cli
from amscascade.checks import MAX_INSTANCES
from amscascade.data import (
    SplitSpec,
    SynthConfig,
    WeightedDataset,
    read_submission,
    split,
    synthesize,
    write_csv,
)
from amscascade.learner import (
    Model,
    Tree,
    _leaf_row,
    empty_model,
    make_cost_vector,
    predict_scores,
    save_model,
)
from amscascade.significance import AMS2

SYNTH = "n_signal=150,n_background=150,separation=2.0,signal_total=120,background_total=350"


def run_cli(argv):
    return cli.main(argv)


def _write_subnormal_csv(path):
    """100 signal events of weight 1 and 100 background events of 1e-320:
    f'(s / b) is infinite, so the dual ceils at U_MAX."""
    lines = ["EventId,x0,Weight,Label"]
    for i in range(200):
        signal = i < 100
        weight = "1" if signal else "1e-320"
        lines.append(f"{i},{(i * 7) % 11 + 5 * signal},{weight},{'s' if signal else 'b'}")
    path.write_text("\n".join(lines) + "\n")
    return path


def write_quick_config(path, extra=""):
    path.write_text("T = 3\nlearner.rounds = 8\nlearner.kind = stump-boost\n" + extra)


class TestCascadeCommand:
    def test_synth_run_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        config = tmp_path / "fast.cfg"
        write_quick_config(config)
        code = run_cli(
            [
                "cascade",
                "--synth",
                SYNTH,
                "--seed",
                "7",
                "--out-dir",
                str(out),
                "--config",
                str(config),
                "--submission",
                str(out / "sub.csv"),
            ]
        )
        assert code == 0
        assert (out / "run_manifest.json").exists()
        assert (out / "model.txt").exists()
        assert (out / "trace.csv").exists()
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("RESULT command=cascade status=ok ")
        fields = dict(part.split("=", 1) for part in lines[-1].split()[1:])
        assert fields["variant"] == "fresh"
        trace_rows = (out / "trace.csv").read_text().splitlines()
        assert len(trace_rows) - 1 == int(fields["rounds"]) <= 3
        ids, ranks, _ = read_submission(str(out / "sub.csv"))
        assert sorted(ranks.tolist()) == list(range(1, len(ids) + 1))

    def test_deterministic_reruns_byte_identical(self, tmp_path, capsys):
        out = tmp_path / "run"
        config = tmp_path / "fast.cfg"
        write_quick_config(config)
        argv = [
            "cascade",
            "--synth",
            SYNTH,
            "--seed",
            "3",
            "--out-dir",
            str(out),
            "--config",
            str(config),
            "--submission",
            str(out / "sub.csv"),
        ]
        assert run_cli(argv) == 0
        first = {
            name: (out / name).read_bytes()
            for name in ("trace.csv", "model.txt", "run_manifest.json", "sub.csv")
        }
        assert run_cli(argv) == 0
        capsys.readouterr()
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob, name

    def test_flags_beat_config_file(self, tmp_path, capsys):
        config = tmp_path / "c.cfg"
        config.write_text(
            "T = 9\nmeasure = ams3\nlearner.rounds = 6\nlearner.kind = stump-boost\n"
        )
        code = run_cli(
            [
                "cascade",
                "--synth",
                SYNTH,
                "--T",
                "2",
                "--seed",
                "1",
                "--out-dir",
                str(tmp_path / "o"),
                "--config",
                str(config),
            ]
        )
        assert code == 0
        last = capsys.readouterr().out.splitlines()[-1]
        fields = dict(part.split("=", 1) for part in last.split()[1:])
        assert fields["measure"] == "ams3"  # config file still applies
        assert int(fields["rounds"]) <= 2  # explicit flag wins over T = 9

    def test_missing_config_exits_1_without_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli(
            [
                "cascade",
                "--synth",
                SYNTH,
                "--config",
                str(tmp_path / "absent.cfg"),
                "--out-dir",
                str(out),
            ]
        )
        assert code == 1
        assert not out.exists()
        assert "config error" in capsys.readouterr().err

    def test_learner_seed_in_config_exits_1(self, tmp_path, capsys):
        config = tmp_path / "c.cfg"
        config.write_text("learner.seed = 1\n")
        out = tmp_path / "run"
        code = run_cli(
            ["cascade", "--synth", SYNTH, "--config", str(config), "--out-dir", str(out)]
        )
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().err == (
            "config error: config line 1: unknown key 'learner.seed'\n"
        )

    def test_dataset_flag_conflicts(self, tmp_path, capsys):
        assert run_cli(["cascade", "--synth", "default", "--data", "x.csv"]) == 1
        assert run_cli(["cascade"]) == 1
        assert run_cli(["cascade", "--data", str(tmp_path / "missing.csv")]) == 2
        assert run_cli(["cascade", "--synth", SYNTH, "--unknown-flag"]) == 1
        assert run_cli(["cascade", "--synth", "d=oops"]) == 1
        capsys.readouterr()

    def test_failed_run_leaves_manifest(self, tmp_path, capsys):
        # constant all-background classifier: every round selects nothing,
        # the cascade aborts, but the manifest must already be on disk
        data = tmp_path / "tiny.csv"
        data.write_text(
            "EventId,x0,Weight,Label\n"
            "0,1.0,1e-06,s\n"
            "1,2.0,1e-06,s\n"
            "2,1.5,100.0,b\n"
            "3,2.5,100.0,b\n"
        )
        config = tmp_path / "c.cfg"
        config.write_text(
            "T = 2\nu0 = 1e-05\nlearner.rounds = 1\nlearner.min_child_weight = 1e9\n"
        )
        out = tmp_path / "run"
        code = run_cli(
            [
                "cascade",
                "--data",
                str(data),
                "--config",
                str(config),
                "--out-dir",
                str(out),
            ]
        )
        assert code == 3
        manifest = json.loads((out / "run_manifest.json").read_text())
        digest = hashlib.sha256(data.read_bytes()).hexdigest()
        assert manifest["dataset"]["content_hash"] == digest
        assert not (out / "model.txt").exists()
        assert "cascade error" in capsys.readouterr().err

    def test_cost_overflow_exits_3(self, tmp_path, capsys):
        # one background weight of 1e300 times f*(20) ~ 4.9e8 overflows
        lines = ["EventId,x0,Weight,Label"]
        for i in range(20):
            weight = "1e300" if i == 1 else "1.0"
            lines.append(f"{i},{i % 5 * 0.5},{weight},{'s' if i % 2 == 0 else 'b'}")
        data = tmp_path / "heavy.csv"
        data.write_text("\n".join(lines) + "\n")
        code = run_cli(
            ["cascade", "--data", str(data), "--u0", "20", "--out-dir", str(tmp_path / "run")]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("cascade error:") and err.count("\n") == 1
        assert "u = 20.0" in err

    @pytest.mark.parametrize("u0", [[], ["--u0", "1.0"]], ids=["default-u0", "u0-1"])
    def test_subnormal_background_ceils_the_dual(self, tmp_path, capsys, u0):
        data = _write_subnormal_csv(tmp_path / "subnormal.csv")
        out = tmp_path / "run"
        argv = ["cascade", "--data", str(data), "--b-reg", "0", "--T", "2", "--out-dir", str(out)]
        # the class cost ratio at u = U_MAX overflows; the scores stay finite
        argv += ["--submission", str(tmp_path / "s.csv")]
        assert run_cli(argv + u0) == 0
        captured = capsys.readouterr()
        # every tree of these runs is a single leaf, which the run reports in
        # one line, and nothing else goes to stderr
        assert captured.err.startswith("warning: no tree of the model splits; ")
        assert captured.err.count("\n") == 1
        assert captured.out.splitlines()[-1].startswith("RESULT command=cascade status=ok ")
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        assert [row.split(",")[-1] for row in rows] == ["20.0", "20.0"]

    @pytest.mark.parametrize(
        "synth,flags",
        [
            # signal costs ~1e-302 against background costs ~1e98: the ratio
            # of the class totals underflows to 0, whose log was a traceback
            (
                "n_signal=50,n_background=50,d=2,signal_total=1e-300,background_total=1e100",
                ["--T", "1", "--u0", "1"],
            ),
            # subnormal weights: at round 2's u = U_MIN every cost is 0
            (
                "n_signal=16,n_background=9,d=1,signal_total=1e-320,background_total=1e-320",
                ["--T", "2", "--variant", "warmstart", "--u0", "1"],
            ),
        ],
        ids=["cost-ratio-underflow", "costs-underflow"],
    )
    def test_underflowing_costs_exit_3(self, tmp_path, capsys, synth, flags):
        argv = ["cascade", "--synth", synth, *flags, "--out-dir", str(tmp_path)]
        assert run_cli(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("cascade error:") and err.count("\n") == 1

    def test_manifest_contents(self, tmp_path, capsys):
        out = tmp_path / "run"
        config = tmp_path / "fast.cfg"
        write_quick_config(config)
        run_cli(
            [
                "cascade",
                "--synth",
                SYNTH,
                "--seed",
                "11",
                "--b-reg",
                "10",
                "--out-dir",
                str(out),
                "--config",
                str(config),
            ]
        )
        capsys.readouterr()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["seed"] == 11
        assert manifest["config"]["T"] == 3
        assert manifest["config"]["b_reg"] == 10.0
        assert manifest["config"]["learner"]["rounds"] == 8
        assert manifest["dataset"]["rows"] == 300
        np.testing.assert_allclose(manifest["dataset"]["signal_weight_total"], 120.0)
        np.testing.assert_allclose(manifest["dataset"]["background_weight_total"], 350.0)
        assert len(manifest["dataset"]["content_hash"]) == 64
        assert manifest["outputs"]["model"].endswith("model.txt")
        assert "tool_version" in manifest


def _write_csv_with_missing_cells(path):
    """A 300-event CSV whose features are -999.0 in about a fifth of the cells."""
    dataset = synthesize(SynthConfig(n_signal=120, n_background=180, d=4), seed=3)
    features = dataset.features.copy()
    features[np.random.default_rng(4).random(features.shape) < 0.2] = np.nan
    write_csv(
        WeightedDataset(features, dataset.labels, dataset.weights,
                        dataset.event_ids * 7 + 11, dataset.column_names),
        str(path),
    )
    return path


class TestLoadedTableReleased:
    """cascade holds the loaded table only until it is split and fingerprinted."""

    @pytest.mark.parametrize("source", ["data", "synth"])
    def test_dead_when_training_starts(self, tmp_path, capsys, monkeypatch, source):
        refs = {}

        def kept(original):
            def loader(*args, **kwargs):
                result = original(*args, **kwargs)
                refs["dataset"] = weakref.ref(result)
                return result

            return loader

        def run_cascade(train_ds, val_ds, config):
            refs["loaded_alive"] = refs["dataset"]() is not None
            refs["train"], refs["val"] = weakref.ref(train_ds), weakref.ref(val_ds)
            return original_run_cascade(train_ds, val_ds, config)

        def predict(model, data):
            refs["parts_alive"] = [refs[k]() is not None for k in ("train", "val")]
            return predict_scores(model, data)

        original_run_cascade = cli.run_cascade
        monkeypatch.setattr(cli, "load_csv", kept(cli.load_csv))
        monkeypatch.setattr(cli, "synthesize", kept(cli.synthesize))
        monkeypatch.setattr(cli, "run_cascade", run_cascade)
        monkeypatch.setattr(cli, "predict_scores", predict)
        if source == "data":
            config = tmp_path / "logistic.cfg"
            config.write_text("T = 2\nlearner.kind = logistic\n")
            dataset = ["--data", str(_write_csv_with_missing_cells(tmp_path / "events.csv"))]
        else:
            config = tmp_path / "fast.cfg"
            write_quick_config(config)
            dataset = ["--synth", SYNTH]
        argv = ["cascade", *dataset, "--config", str(config), "--out-dir", str(tmp_path / "run"),
                "--submission", str(tmp_path / "s.csv")]
        assert run_cli(argv) == 0
        capsys.readouterr()
        assert refs["loaded_alive"] is False
        # and the parts, the training part's column order with them, are
        # released before the rebuilt matrix is scored
        assert refs["parts_alive"] == [False, False]


class TestTreesThatNeverSplit:
    """A boosted model whose trees are all single leaves is named on stderr."""

    def test_leaf_only_model_prints_one_line(self, tmp_path, capsys):
        # the default synthetic totals cost about 1.74 in all, so no split
        # gives both children the default min_child_weight of 1.0
        out = tmp_path / "run"
        argv = ["cascade", "--synth", "n_signal=2000,n_background=2000", "--T", "3",
                "--out-dir", str(out)]
        assert run_cli(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "variant fresh, measure ams2, 3 rounds, chose round 1",
            "train significance 1.07753",
            "validation significance 1.07753",
            f"model written to {out / 'model.txt'}",
            f"trace written to {out / 'trace.csv'}",
            "RESULT command=cascade status=ok variant=fresh measure=ams2 rounds=3 "
            "chosen_round=1 train_sig=1.07753 val_sig=1.07753",
        ]
        model = (out / "model.txt").read_text()
        assert model.count(" leaf ") == 50 and " split " not in model
        # the chosen round's costs, rebuilt from its dual in trace.csv
        u_prev = float((out / "trace.csv").read_text().splitlines()[1].split(",")[1])
        dataset = synthesize(
            SynthConfig(n_signal=2000, n_background=2000), cli.derive_seed(0, 101)
        )
        train_ds, _ = split(dataset, SplitSpec(0.3, seed=cli.derive_seed(0, 102)))
        total = float(make_cost_vector(train_ds, u_prev, AMS2).costs.sum())
        assert captured.err == (
            "warning: no tree of the model splits; learner.min_child_weight = 1 against "
            f"a cost total of {total:.6g} in round 1 (each child of a split needs a cost "
            "sum of at least min_child_weight)\n"
        )

    def test_min_child_weight_zero_names_no_positive_gain(self, tmp_path, capsys):
        # the class cost ratio at u = U_MAX overflows and saturates every
        # gradient, so no tree splits though min_child_weight rules none out
        data = _write_subnormal_csv(tmp_path / "subnormal.csv")
        argv = ["cascade", "--data", str(data), "--b-reg", "0", "--T", "2"]
        runs = {}
        for name, extra in (("default", ""), ("zero", "learner.min_child_weight = 0\n")):
            config = tmp_path / f"{name}.cfg"
            config.write_text(extra)
            out = tmp_path / name
            assert run_cli(argv + ["--config", str(config), "--out-dir", str(out)]) == 0
            runs[name] = capsys.readouterr()
            model = (out / "model.txt").read_text()
            assert " leaf " in model and " split " not in model
        default, zero = runs["default"], runs["zero"]
        manifest = json.loads((tmp_path / "zero" / "run_manifest.json").read_text())
        assert manifest["config"]["learner"]["min_child_weight"] == 0.0
        assert zero.err == (
            "warning: no tree of the model splits; no split had a positive gain in round 1 "
            "(learner.min_child_weight = 0 rules none out)\n"
        )
        # a cost total of 2000 leaves room for splits with 1 on each side, so
        # min_child_weight is not named as the cause
        assert default.err == (
            "warning: no tree of the model splits; no split had a positive gain in round 1 "
            "with a cost sum of at least learner.min_child_weight = 1 on each side "
            "(cost total 2000)\n"
        )
        # stdout, the RESULT line among it, is the default run's but for the paths
        assert zero.out.replace(str(tmp_path / "zero"), "OUT") == default.out.replace(
            str(tmp_path / "default"), "OUT"
        )
        assert zero.out.splitlines()[-1].startswith("RESULT command=cascade status=ok ")

    def test_model_with_split_and_single_leaf_trees_prints_nothing(self, tmp_path, capsys):
        # a 30% subsample's cost sums fall below 7.6 in some boosting rounds
        # only, so some trees of the returned model split and others do not
        config = tmp_path / "mixed.cfg"
        write_quick_config(
            config, "learner.rounds = 20\nlearner.min_child_weight = 7.6\nlearner.subsample = 0.3\n"
        )
        out = tmp_path / "run"
        argv = ["cascade", "--synth", SYNTH, "--out-dir", str(out), "--config", str(config)]
        assert run_cli(argv) == 0
        assert capsys.readouterr().err == ""
        nodes = re.findall(r"^tree \d+ nodes (\d+)$", (out / "model.txt").read_text(), re.M)
        assert "1" in nodes and "3" in nodes

    def test_library_run_prints_nothing(self, capsys):
        # the leaf-only synthetic case, through the library: every tree is
        # a single leaf, and run_cascade says nothing about it
        dataset = synthesize(SynthConfig(n_signal=2000, n_background=2000), cli.derive_seed(0, 101))
        train_ds, val_ds = split(dataset, SplitSpec(0.3, seed=cli.derive_seed(0, 102)))
        model, trace = cli.run_cascade(train_ds, val_ds, cli.CascadeConfig(T=3))
        assert len(trace.records) == 3
        assert model.trees and all(tree.n_nodes == 1 for tree in model.trees)
        assert capsys.readouterr() == ("", "")

    def test_model_whose_trees_split_prints_nothing(self, tmp_path, capsys):
        config = tmp_path / "fast.cfg"
        write_quick_config(config)
        out = tmp_path / "run"
        argv = ["cascade", "--synth", SYNTH, "--out-dir", str(out), "--config", str(config)]
        assert run_cli(argv) == 0
        assert capsys.readouterr().err == ""
        assert " split " in (out / "model.txt").read_text()

    def test_logistic_model_prints_nothing(self, tmp_path, capsys):
        config = tmp_path / "logistic.cfg"
        config.write_text("T = 2\nlearner.kind = logistic\n")
        out = tmp_path / "run"
        argv = ["cascade", "--synth", SYNTH, "--out-dir", str(out), "--config", str(config)]
        assert run_cli(argv) == 0
        assert capsys.readouterr().err == ""
        assert "kind logistic" in (out / "model.txt").read_text()


class TestEvalCommand:
    def test_summary_mode_known_value(self, capsys):
        code = run_cli(["eval", "--summary", "100,400", "--b-reg", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "AMS2 = 4.81077" in out
        assert "AMS3 = 5" in out
        assert out.splitlines()[-1] == (
            "RESULT command=eval status=ok s=100 b=400 ams2=4.81077 ams3=5"
        )

    def test_summary_mode_overflow_prints_no_warning(self, capsys):
        # b * f(s / b) overflows: the values print as inf, stderr stays empty
        assert run_cli(["eval", "--summary", "1e308,1e300"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-1].endswith("ams2=inf ams3=inf")

    def test_summary_mode_default_b_reg(self, capsys):
        assert run_cli(["eval", "--summary", "100,400"]) == 0
        assert "b = 410" in capsys.readouterr().out

    def test_bad_summary_spec(self, capsys):
        assert run_cli(["eval", "--summary", "100"]) == 1
        assert run_cli(["eval", "--summary", "a,b"]) == 1
        assert run_cli(["eval", "--summary", "-1,4"]) == 1
        capsys.readouterr()

    def test_model_selecting_nothing(self, tmp_path, capsys):
        model = empty_model("tree-boost", n_features=5, base_score=-1.0)
        path = tmp_path / "reject_all.txt"
        save_model(model, str(path))
        code = run_cli(
            ["eval", "--model", str(path), "--synth", "default", "--b-reg", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "s = 0" in out
        assert "b = 10" in out
        assert "AMS2 = 0" in out
        assert "AMS3 = 0" in out

    def test_data_run_computes_no_hash(self, tmp_path, capsys, monkeypatch):
        # the content hash is the cascade manifest's; eval writes no manifest
        def no_hash(*_args):
            raise AssertionError("eval hashed its input")

        monkeypatch.setattr(cli.hashlib, "sha256", no_hash)
        data = tmp_path / "data.csv"
        write_csv(synthesize(SynthConfig(n_signal=20, n_background=20), seed=0), str(data))
        model = tmp_path / "model.txt"
        save_model(empty_model("tree-boost", n_features=5, base_score=0.5), str(model))
        assert run_cli(["eval", "--model", str(model), "--data", str(data)]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("RESULT command=eval")

    def test_feature_dimension_mismatch_exits_2(self, tmp_path, capsys):
        model = empty_model("tree-boost", n_features=3)
        path = tmp_path / "m.txt"
        save_model(model, str(path))
        code = run_cli(["eval", "--model", str(path), "--synth", "default"])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "node",
        [
            "node x leaf",
            "node 0 split 0 0.5 7 8 left",
            # node lines numbered other than by position
            "node -1 leaf 0.5",
            "node 0 split 0 0.5 1 2 left\nnode -1 leaf 0.5\nnode -2 leaf 0.25",
            "node 0 split 0 0.5 1 2 left\nnode 2 leaf 0.25\nnode 1 leaf 0.5",
            "node 0 split 0 0.5 1 2 left\nnode 1 leaf 0.5\nnode 1 leaf 0.25",
            # the synthetic data, like the model, has 5 features
            "node 0 split 5 0.5 1 2 left\nnode 1 leaf 0.5\nnode 2 leaf 0.25",
            "node 0 split -1 0.5 1 2 left\nnode 1 leaf 0.5\nnode 2 leaf 0.25",
            pytest.param("", id="no-nodes"),
            pytest.param(
                "node 0 split 0 0.5 1 2 lfet\nnode 1 leaf 0.5\nnode 2 leaf 0.25",
                id="bad-missing-side",
            ),
        ],
    )
    def test_corrupt_model_exits_2(self, tmp_path, capsys, node):
        path = tmp_path / "m.txt"
        save_model(empty_model("tree-boost", n_features=5), str(path))
        lines = node.splitlines()
        block = "".join(line + "\n" for line in lines)
        text = path.read_text().replace(
            "trees 0\n", f"trees 1\ntree 0 nodes {len(lines)}\n{block}"
        )
        path.write_text(text)
        assert run_cli(["eval", "--model", str(path), "--synth", "default"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1

    @pytest.mark.parametrize("trees", ["-3", "-1"], ids=["negative-trees", "minus-one-trees"])
    def test_negative_tree_count_exits_2(self, tmp_path, capsys, trees):
        path = tmp_path / "m.txt"
        save_model(empty_model("tree-boost", n_features=5), str(path))
        path.write_text(path.read_text().replace("trees 0\n", f"trees {trees}\n"))
        assert run_cli(["eval", "--model", str(path), "--synth", "default"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "trees",
        ["trees 0\n", "trees 1\ntree 0 nodes 1\nnode 0 leaf 0.5\n"],
        ids=["negative-features", "negative-features-with-tree"],
    )
    def test_negative_feature_count_exits_2(self, tmp_path, capsys, trees):
        path = tmp_path / "m.txt"
        save_model(empty_model("tree-boost", n_features=5), str(path))
        text = path.read_text().replace("features 5\n", "features -5\n")
        path.write_text(text.replace("trees 0\n", trees))
        assert run_cli(["eval", "--model", str(path), "--synth", "default"]) == 2
        err = capsys.readouterr().err
        # the model file itself is named, not a later shape mismatch
        assert err.startswith("data error: model file") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "edits",
        [
            [("coefficients 5\n", "coefficients 4\n"), ("c 4 4.0\n", "")],
            [("impute 5\n", "impute 4\n"), ("i 4 0.0\n", "")],
            [("c 1 1.0\n", "c 0 1.0\n")],
        ],
        ids=["short-coefficients", "short-impute", "repeated-entry"],
    )
    def test_corrupt_logistic_model_exits_2(self, tmp_path, capsys, edits):
        model = Model(
            kind="logistic",
            n_features=5,
            base_score=0.0,
            coefficients=np.arange(5.0),
            impute_values=np.zeros(5),
        )
        path = tmp_path / "m.txt"
        save_model(model, str(path))
        text = path.read_text()
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        path.write_text(text)
        assert run_cli(["eval", "--model", str(path), "--synth", "default"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "old, new",
        [
            ("kind tree-boost\n", "kind tree-boost extra\n"),
            ("features 5\n", "features 5 2 3\n"),
            ("base_score 0.0\n", "base_score 0.0 junk\n"),
            ("trees 1\n", "trees 1 x\n"),
            ("tree 0 nodes 1\n", "tree 0 leaves 1\n"),
            ("node 0 leaf 1.0\n", "node 0 leaf 1.0 z\n"),
            ("end\n", "end\nend\n"),
        ],
        ids=["kind", "features", "base-score", "trees", "tree-word", "node", "after-end"],
    )
    def test_model_line_save_model_never_writes_exits_2(self, tmp_path, capsys, old, new):
        tree = Tree._from_rows([_leaf_row(1.0)])
        path = tmp_path / "m.txt"
        save_model(Model("tree-boost", 5, 0.0, trees=(tree,)), str(path))
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        assert run_cli(["eval", "--model", str(path), "--synth", "default"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: model file") and err.count("\n") == 1

    def test_missing_model_exits_2(self, tmp_path, capsys):
        code = run_cli(["eval", "--model", str(tmp_path / "absent.txt"), "--synth", "default"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1

    @pytest.mark.parametrize("source", ["synth-tree", "csv-logistic"])
    def test_scores_each_file_once(self, tmp_path, capsys, monkeypatch, source):
        # the labels, the summary and the submission all come from one
        # scoring, and cascade's, of the matrix it rebuilt from the split
        # parts, writes eval's bytes
        calls = []

        def counted(model, data):
            calls.append(data)
            return predict_scores(model, data)

        monkeypatch.setattr(cli, "predict_scores", counted)
        monkeypatch.setattr(cli, "classify", None)
        config = tmp_path / "fast.cfg"
        if source == "synth-tree":
            write_quick_config(config)
            dataset = ["--synth", SYNTH]
        else:
            config.write_text("T = 2\nlearner.kind = logistic\n")
            _write_csv_with_missing_cells(tmp_path / "events.csv")
            dataset = ["--data", str(tmp_path / "events.csv")]
        out = tmp_path / "run"
        cascade = ["cascade", *dataset, "--config", str(config), "--out-dir", str(out)]
        assert run_cli([*cascade, "--submission", str(tmp_path / "c.csv")]) == 0
        model = str(out / "model.txt")
        assert run_cli(
            ["eval", "--model", model, *dataset, "--submission", str(tmp_path / "e.csv")]
        ) == 0
        assert len(calls) == 2
        assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "e.csv").read_bytes()
        capsys.readouterr()

    def test_model_required(self, capsys):
        assert run_cli(["eval", "--synth", "default"]) == 1
        capsys.readouterr()

    def test_roundtrip_with_cascade_model(self, tmp_path, capsys):
        out = tmp_path / "run"
        config = tmp_path / "fast.cfg"
        write_quick_config(config)
        run_cli(
            [
                "cascade",
                "--synth",
                SYNTH,
                "--seed",
                "5",
                "--out-dir",
                str(out),
                "--config",
                str(config),
            ]
        )
        code = run_cli(
            [
                "eval",
                "--model",
                str(out / "model.txt"),
                "--synth",
                SYNTH,
                "--seed",
                "5",
                "--submission",
                str(out / "sub.csv"),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert (out / "sub.csv").exists()
        last = text.splitlines()[-1]
        assert last.startswith("RESULT command=eval status=ok ")


class TestCheckCommand:
    def test_pass_run(self, capsys):
        code = run_cli(["check", "--seed", "7", "--instances", "10"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert sum(1 for line in out if ": PASS" in line) == 5
        assert out[-1] == "RESULT command=check status=ok suites=5 failed=0"

    def test_deterministic_reports(self, capsys):
        run_cli(["check", "--seed", "7", "--instances", "10"])
        first = capsys.readouterr().out
        run_cli(["check", "--seed", "7", "--instances", "10"])
        assert capsys.readouterr().out == first

    def test_inject_fault_exits_4(self, capsys):
        code = run_cli(["check", "--seed", "0", "--instances", "10", "--inject-fault"])
        assert code == 4
        out = capsys.readouterr().out.splitlines()
        assert any(line.startswith("fenchel-young: FAIL") for line in out)
        assert out[-1] == "RESULT command=check status=fail suites=5 failed=1"


# (config file lines, argv); CONFIG and MODEL stand for paths under tmp_path
_QUICK_SYNTH = "n_signal=100,n_background=100"


def _cascade(*flags, synth=_QUICK_SYNTH):
    return ["cascade", "--synth", synth, "--config", "CONFIG", *flags]


BAD_NUMERIC_INPUTS = {
    "b-reg-nan-config": ("b_reg = nan\n", _cascade()),
    "b-reg-inf-config": ("b_reg = inf\n", _cascade()),
    "u0-inf-config": ("u0 = inf\n", _cascade()),
    "unknown-measure-config": ("measure = foo\n", _cascade()),
    "min-child-weight-nan-config": ("learner.min_child_weight = nan\n", _cascade()),
    "min-child-weight-inf-config": ("learner.min_child_weight = inf\n", _cascade()),
    "b-reg-nan-flag": ("", _cascade("--b-reg", "nan")),
    "u0-inf-flag": ("", _cascade("--u0", "inf")),
    "synth-separation-nan": ("", _cascade(synth=_QUICK_SYNTH + ",separation=nan")),
    "synth-signal-total-inf": ("", _cascade(synth=_QUICK_SYNTH + ",signal_total=inf")),
    "synth-background-total-nan": ("", _cascade(synth=_QUICK_SYNTH + ",background_total=nan")),
    "synth-d-not-int": ("", _cascade(synth=_QUICK_SYNTH + ",d=oops")),
    "synth-separation-not-float": ("", _cascade(synth=_QUICK_SYNTH + ",separation=x")),
    "check-instances-negative": ("", ["check", "--instances", "-2"]),
    "check-instances-zero": ("", ["check", "--instances", "0"]),
    # sizes and totals past the documented limits fail before any allocation
    "synth-n-signal-huge": ("", ["cascade", "--synth", "n_signal=100000000000"]),
    "synth-d-huge": ("", ["cascade", "--synth", "d=100000000"]),
    "check-instances-huge": ("", ["check", "--instances", "100000000000000000000"]),
    "synth-totals-huge": (
        "", ["cascade", "--synth", "background_total=1e308,signal_total=1e308"]
    ),
    "check-seed-negative": ("", ["check", "--seed", "-3", "--instances", "1"]),
    "eval-summary-nan": ("", ["eval", "--summary", "nan,5"]),
    "eval-summary-inf": ("", ["eval", "--summary", "5,inf"]),
    "eval-summary-overflow": ("", ["eval", "--summary", "1e308,1e308"]),
    "eval-b-reg-nan": ("", ["eval", "--summary", "5,5", "--b-reg", "nan"]),
    "eval-b-reg-negative": ("", ["eval", "--summary", "5,5", "--b-reg", "-1"]),
    "eval-seed-negative": (
        "", ["eval", "--model", "MODEL", "--synth", _QUICK_SYNTH, "--seed", "-1"]
    ),
    "eval-summary-seed-negative": ("", ["eval", "--summary", "10,100", "--seed", "-5"]),
}


class TestNumericInputErrors:
    @pytest.mark.parametrize("case", list(BAD_NUMERIC_INPUTS), ids=list(BAD_NUMERIC_INPUTS))
    def test_exits_1_with_one_line(self, tmp_path, capsys, case):
        lines, argv = BAD_NUMERIC_INPUTS[case]
        config = tmp_path / "run.cfg"
        write_quick_config(config, lines)
        model = tmp_path / "model.txt"
        save_model(empty_model("tree-boost", n_features=5, base_score=-1.0), str(model))
        out = tmp_path / "run"
        paths = {"CONFIG": str(config), "MODEL": str(model)}
        argv = [paths.get(arg, arg) for arg in argv]
        if argv[0] == "cascade":
            argv += ["--out-dir", str(out)]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert "RESULT" not in captured.out
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: "), err
        assert not out.exists()

    def test_synth_value_error_names_key_and_type(self, tmp_path, capsys):
        argv = ["cascade", "--synth", "d=oops", "--out-dir", str(tmp_path / "run")]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err == "config error: config key 'd': cannot parse 'oops' as int\n"

    @pytest.mark.parametrize("command", ["cascade", "eval"])
    def test_weight_total_past_the_float_range_exits_2(self, tmp_path, capsys, command):
        # six weights of 1.7e308 are each finite, but their total is not:
        # cascade used to warn twice and blame the weights' sign, eval to
        # raise a bare ValueError.  Warnings are errors here
        lines = ["EventId,x0,Weight,Label"]
        for i in range(12):
            lines.append(f"{i},{i * 0.5},{'1.7e308' if i < 6 else '1.0'},{'sb'[i % 2]}")
        data = tmp_path / "big.csv"
        data.write_text("\n".join(lines) + "\n")
        model = tmp_path / "model.txt"
        save_model(empty_model("tree-boost", n_features=1), str(model))
        out = tmp_path / "run"
        argv = {
            "cascade": ["cascade", "--data", str(data), "--out-dir", str(out)],
            "eval": ["eval", "--model", str(model), "--data", str(data)],
        }[command]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert "RESULT" not in captured.out
        assert captured.err.splitlines() == [
            "data error: weight total must be a real number in [0, inf), got inf"
        ]
        assert not out.exists()


class TestTrainingErrors:
    def test_singular_logistic_newton_step_exits_3(self, tmp_path, capsys):
        # one constant feature under weights 3e16 to 8e22: the logistic
        # Newton system is singular on the first step
        n = 10
        data = tmp_path / "data.csv"
        write_csv(
            WeightedDataset(
                features=np.ones((n, 1)),
                labels=np.array([1, -1] * (n // 2)),
                weights=np.geomspace(3e16, 8e22, n),
                event_ids=np.arange(n),
                column_names=("x0",),
            ),
            str(data),
        )
        config = tmp_path / "logistic.cfg"
        config.write_text("learner.kind = logistic\n")
        argv = ["cascade", "--data", str(data), "--config", str(config)]
        assert run_cli(argv + ["--out-dir", str(tmp_path / "run")]) == 3
        captured = capsys.readouterr()
        assert "RESULT" not in captured.out
        err = captured.err.splitlines()
        assert err == [
            "cascade error: logistic Newton step failed: the Hessian is singular at these weights"
        ]


    def test_cost_total_past_the_bound_exits_3(self, tmp_path, capsys):
        # finite costs near 1e300 used to overflow the split gain's G * G,
        # warn on stderr and exit 0 with a significance near 1e150
        lines = ["EventId,x0,Weight,Label"]
        for i in range(12):
            lines.append(f"{i},{i},{'1e299' if i % 2 else '1e300'},{'s' if i % 2 else 'b'}")
        data = tmp_path / "w.csv"
        data.write_text("\n".join(lines) + "\n")
        argv = ["cascade", "--data", str(data), "--T", "2", "--out-dir", str(tmp_path / "run")]
        assert run_cli(argv) == 3
        captured = capsys.readouterr()
        assert "RESULT" not in captured.out
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "cascade error: example costs exceed a total of 1e+150 at u = "
        ), err

    def test_logistic_newton_overflow_exits_3(self, tmp_path, capsys):
        # features near 1e300 under weights near 1e20 used to overflow the
        # logistic Newton step's matmul: a warning, then a NaN base_score
        # that Model rejected with a traceback.  Warnings are errors here
        cells, weights = ["1e300", "-1e300", "3e299", "-2e299"], ["1e20", "5e19", "1"]
        lines = ["EventId,x0,Weight,Label"]
        for i in range(12):
            lines.append(f"{i},{cells[i % 4]},{weights[i % 3]},{'s' if i % 2 else 'b'}")
        data = tmp_path / "d.csv"
        data.write_text("\n".join(lines) + "\n")
        config = tmp_path / "logistic.cfg"
        config.write_text("learner.kind = logistic\n")
        argv = ["cascade", "--data", str(data), "--config", str(config), "--T", "2"]
        assert run_cli(argv + ["--out-dir", str(tmp_path / "run")]) == 3
        captured = capsys.readouterr()
        assert "RESULT" not in captured.out
        assert captured.err.splitlines() == [
            "cascade error: logistic Newton step failed: it overflows at these features and weights"
        ]


# argv whose output paths or config file are unusable; the placeholders
# name files and directories under tmp_path
BAD_PATH_INPUTS = {
    "out-dir-is-file": ["cascade", "--synth", _QUICK_SYNTH, "--out-dir", "{file}"],
    "out-dir-under-file": ["cascade", "--synth", _QUICK_SYNTH, "--out-dir", "{file}/sub"],
    "cascade-submission-in-missing-dir": [
        "cascade", "--synth", _QUICK_SYNTH, "--out-dir", "{out}",
        "--submission", "{missing}/s.csv",
    ],
    "submission-is-directory": [
        "cascade", "--synth", _QUICK_SYNTH, "--out-dir", "{out}", "--submission", "{dir}",
    ],
    "eval-submission-in-missing-dir": [
        "eval", "--model", "{model}", "--synth", _QUICK_SYNTH,
        "--submission", "{missing}/s.csv",
    ],
    # summary mode reads and writes no file, so a dataset, model or
    # submission flag beside --summary is a mistake
    "eval-summary-with-model": ["eval", "--summary", "10,100", "--model", "{model}"],
    "eval-summary-with-data": ["eval", "--summary", "10,100", "--data", "{missing}/d.csv"],
    "eval-summary-with-synth": ["eval", "--summary", "10,100", "--synth", _QUICK_SYNTH],
    "eval-summary-with-submission": [
        "eval", "--summary", "10,100", "--submission", "{dir}/s.csv",
    ],
    "eval-summary-with-all": [
        "eval", "--summary", "10,100", "--model", "{missing}/m.txt",
        "--data", "{missing}/d.csv", "--submission", "{dir}/s.csv",
    ],
    "undecodable-config": [
        "cascade", "--synth", _QUICK_SYNTH, "--config", "{undecodable}", "--out-dir", "{out}",
    ],
    "config-is-directory": [
        "cascade", "--synth", _QUICK_SYNTH, "--config", "{dir}", "--out-dir", "{out}",
    ],
    # names over 255 bytes pass the check, and fail before any file is
    # written: --out-dir when it is created, eval's submission when opened
    "out-dir-name-too-long": [
        "cascade", "--synth", _QUICK_SYNTH, "--T", "1", "--out-dir", "{dir}/" + "x" * 300,
    ],
    "eval-submission-name-too-long": [
        "eval", "--model", "{model}", "--synth", _QUICK_SYNTH,
        "--submission", "{dir}/" + "x" * 300 + ".csv",
    ],
    # every file a command writes is checked before the first one is: a
    # directory in the way of the manifest, model or trace, and an empty path
    "manifest-path-is-directory": [
        "cascade", "--synth", _QUICK_SYNTH, "--T", "1", "--out-dir", "{manifest_taken}",
    ],
    "model-path-is-directory": [
        "cascade", "--synth", _QUICK_SYNTH, "--T", "1", "--out-dir", "{model_taken}",
    ],
    "trace-path-is-directory": [
        "cascade", "--synth", _QUICK_SYNTH, "--T", "1", "--out-dir", "{trace_taken}",
    ],
    "out-dir-empty": ["cascade", "--synth", _QUICK_SYNTH, "--T", "1", "--out-dir", ""],
    "cascade-submission-empty": [
        "cascade", "--synth", _QUICK_SYNTH, "--T", "1", "--out-dir", "{out}", "--submission", "",
    ],
    "eval-submission-empty": [
        "eval", "--model", "{model}", "--synth", _QUICK_SYNTH, "--submission", "",
    ],
    # an output whose real path is another output's or an input's would
    # replace that file
    "cascade-submission-is-the-model": [
        "cascade", "--synth", _QUICK_SYNTH, "--T", "1", "--out-dir", "{dir}",
        "--submission", "{dir}/model.txt",
    ],
    "cascade-submission-is-the-data": [
        "cascade", "--data", "{data}", "--T", "1", "--out-dir", "{out}", "--submission", "{data}",
    ],
    "cascade-trace-is-the-config": [
        "cascade", "--synth", _QUICK_SYNTH, "--config", "{config_run}/trace.csv",
        "--out-dir", "{config_run}",
    ],
    "eval-submission-is-the-data": [
        "eval", "--model", "{model}", "--data", "{data}", "--submission", "{data}",
    ],
    "eval-submission-links-to-the-data": [
        "eval", "--model", "{model}", "--data", "{data}", "--submission", "{data_link}",
    ],
    "eval-submission-is-the-model-by-a-relative-path": [
        "eval", "--model", "{model}", "--synth", _QUICK_SYNTH, "--submission", "model.txt",
    ],
}

# --out-dir placeholders holding a directory where the cascade writes a file
_TAKEN = {
    "manifest_taken": "run_manifest.json", "model_taken": "model.txt", "trace_taken": "trace.csv",
}


def _tree(root):
    """Every path under ``root``, with the bytes of each file."""
    return {path: path.is_file() and path.read_bytes() for path in root.rglob("*")}


class TestPathInputErrors:
    @pytest.mark.parametrize("case", list(BAD_PATH_INPUTS), ids=list(BAD_PATH_INPUTS))
    def test_exits_1_with_one_line_and_writes_nothing(self, tmp_path, monkeypatch, capsys, case):
        # an empty path names the working directory, so it must be one whose
        # contents the test sees
        monkeypatch.chdir(tmp_path)
        paths = {
            "dir": tmp_path,
            "file": tmp_path / "file.txt",
            "model": tmp_path / "model.txt",
            "undecodable": tmp_path / "utf16.cfg",
            "out": tmp_path / "run",
            "missing": tmp_path / "missing",
            "data": tmp_path / "events.csv",
            "data_link": tmp_path / "link.csv",
            "config_run": tmp_path / "config_run",
        }
        for key, name in _TAKEN.items():
            paths[key] = tmp_path / key
            (paths[key] / name).mkdir(parents=True)
        paths["file"].write_text("not a directory\n")
        write_csv(synthesize(SynthConfig(n_signal=20, n_background=20), seed=0), str(paths["data"]))
        paths["data_link"].symlink_to(paths["data"])
        paths["config_run"].mkdir()
        (paths["config_run"] / "trace.csv").write_text("T = 1\n")
        paths["undecodable"].write_bytes(b"\xff\xfeT = 3\n")
        save_model(empty_model("tree-boost", n_features=5, base_score=-1.0), str(paths["model"]))
        before = _tree(tmp_path)
        argv = [arg.format(**paths) for arg in BAD_PATH_INPUTS[case]]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert "RESULT" not in captured.out
        assert "Traceback" not in captured.err
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: "), err
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("case", ["dev-full", "name-too-long"])
    def test_failed_write_keeps_the_files_before_it(self, tmp_path, capsys, case):
        # both submissions pass the output check; /dev/full takes the open
        # and fails when the buffer is flushed, the long name fails to open
        if case == "dev-full" and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        submission = "/dev/full" if case == "dev-full" else str(tmp_path / ("x" * 300 + ".csv"))
        out = tmp_path / "run"
        argv = ["cascade", "--synth", "n_signal=200,n_background=200", "--T", "1",
                "--out-dir", str(out), "--submission", submission]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        verb = "write" if case == "dev-full" else "open"
        err = captured.err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith(f"config error: cannot {verb} {submission!r}: "), err
        assert sorted(path.name for path in out.iterdir()) == [
            "model.txt", "run_manifest.json", "trace.csv"
        ]

    @pytest.mark.parametrize(
        "case, message", [("missing", "cannot open"), ("directory", "cannot open"),
                          ("undecodable", "cannot decode")],
    )
    def test_unreadable_config_is_one_line_naming_it(self, tmp_path, capsys, case, message):
        config = tmp_path / "c.cfg"
        if case == "directory":
            config.mkdir()
        elif case == "undecodable":
            config.write_bytes(b"\xff\xfeT = 3\n")
        out = tmp_path / "run"
        argv = ["cascade", "--synth", _QUICK_SYNTH, "--config", str(config), "--out-dir", str(out)]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {message} {str(config)!r}")
        assert not out.exists()

    def test_crlf_config_loads_as_its_lf_twin(self, tmp_path, capsys):
        text = "T = 2\n# rounds\nlearner.rounds = 4\nlearner.kind = stump-boost\n"
        runs = {}
        for name, newline in (("lf", "\n"), ("crlf", "\r\n")):
            config = tmp_path / f"{name}.cfg"
            config.write_bytes(text.replace("\n", newline).encode())
            out = tmp_path / name
            argv = ["cascade", "--synth", SYNTH, "--config", str(config), "--out-dir", str(out)]
            assert run_cli(argv) == 0
            manifest = json.loads((out / "run_manifest.json").read_text())
            runs[name] = manifest["config"], (out / "model.txt").read_bytes()
        capsys.readouterr()
        assert runs["crlf"] == runs["lf"]
        assert runs["lf"][0]["T"] == 2 and runs["lf"][0]["learner"]["rounds"] == 4


def _run_python(*args):
    # pytest's pythonpath setting does not reach the child interpreter
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = _run_python("-m", "amscascade.cli", "eval", "--summary", "100,400", "--b-reg", "0")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1].endswith("ams2=4.81077 ams3=5")

    def test_import_leaves_out_scipy_stats(self):
        # scipy.stats costs about a second of start-up; it is a test oracle only
        proc = _run_python(
            "-c",
            "import sys, amscascade, amscascade.cli; sys.exit('scipy.stats' in sys.modules)",
        )
        assert proc.returncode == 0, proc.stderr

    def test_console_script_target_runs(self, capsys):
        # the [project.scripts] entry that `pip install` turns into a command;
        # a regex, since Python 3.10 has no tomllib
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml")) as handle:
            match = re.search(r'^amscascade = "([\w.]+):(\w+)"$', handle.read(), re.MULTILINE)
        assert match, "no amscascade console script in pyproject.toml"
        main = getattr(importlib.import_module(match.group(1)), match.group(2))
        assert main(["check", "--instances", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("RESULT command=check status=ok")

    def test_help_does_not_throw_config_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(["--help"])
        assert info.value.code == 0
        capsys.readouterr()


# -- argv fuzzing -------------------------------------------------------------
# Placeholders in braces name the files made by ``fuzz_paths``.  Every draw
# that would do real work stays tiny: --synth sizes are at most 50 events and
# 3 features or are rejected by validation, --T is at most 2, and --instances
# is at most 2 or is rejected.


@st.composite
def _mostly(draw, usual, rare):
    """A draw from ``usual``, or about one time in eight from ``rare``."""
    # a middle value, as hypothesis favours the bounds of a range
    return draw(rare) if draw(st.integers(0, 7)) == 3 else draw(usual)


_NUMBERS = _mostly(
    st.sampled_from(["0", "1", "2", "0.3", "0.5", "10", "1e-320", "1e-300", "1e300", "1e308"]),
    st.sampled_from(["-1", "-1e308", "1e400", "inf", "-inf", "nan", "abc", ""]),
)
_BAD_INTS = st.sampled_from(["abc", "1.5", "nan", "", "0x10"])
_SEEDS = _mostly(st.integers(0, 10**30).map(str), st.integers(-3, -1).map(str) | _BAD_INTS)
_SIZES = _mostly(st.integers(1, 50), st.integers(-2, 0) | st.integers(10**8, 10**30))
_DATA_PATHS = _mostly(
    st.sampled_from(["{csv}", "{subnormal_csv}"]),
    st.sampled_from(["{bad_csv}", "{empty}", "{dir}", "{missing}", "{file}/x"]),
)
_MODEL_PATHS = _mostly(
    st.just("{model}"),
    st.sampled_from(["{model5}", "{bad_model}", "{empty}", "{dir}", "{missing}"]),
)
_CONFIG_PATHS = _mostly(
    st.just("{config}"),
    st.sampled_from(
        ["{bad_config}", "{logistic_warm_config}", "{undecodable}", "{dir}", "{missing}"]
    ),
)
# a name over 255 bytes, NAME_MAX on Linux and macOS, passes the output
# check and fails only when it is written (or, as --out-dir, created)
_LONG_NAME = "{dir}/" + "x" * 300
_OUT_DIRS = _mostly(
    st.just("{out}"),
    st.sampled_from(["{file}", "{file}/sub", "{missing}/a/b", "{taken}", "", _LONG_NAME]),
)
_SUBMISSIONS = _mostly(
    st.just("{dir}/s.csv"),
    st.sampled_from(["{dir}", "{missing}/s.csv", "{file}/s.csv", "", _LONG_NAME + ".csv"]),
)


@st.composite
def _synth_specs(draw):
    items = [
        f"n_signal={draw(_SIZES)}",
        f"n_background={draw(_SIZES)}",
        f"d={draw(_mostly(st.integers(1, 3), st.integers(-1, 0) | st.integers(10**8, 10**20)))}",
    ]
    for key in draw(st.lists(
        st.sampled_from(["separation", "signal_total", "background_total"]), max_size=3
    )):
        items.append(f"{key}={draw(_NUMBERS)}")
    items += draw(_mostly(st.just([]), st.sampled_from([["foo"], ["x=1"], ["d=abc"], ["="]])))
    return ",".join(draw(st.permutations(items)))


def _flags(draw, grammar):
    """Each (flag, value strategy) pair of ``grammar`` present or not."""
    argv = []
    for flag, values in grammar:
        if draw(st.booleans()):
            argv += [flag] if values is None else [flag, draw(values)]
    return argv


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(["cascade", "eval", "check"]))
    grammar = [("--seed", _SEEDS)]
    if command == "check":
        instances = _mostly(
            st.integers(1, 2).map(str),
            st.integers(-3, 0).map(str) | st.integers(MAX_INSTANCES + 1, 10**30).map(str)
            | _BAD_INTS,
        )
        argv = ["check", "--instances", draw(instances)]
        grammar.append(("--inject-fault", None))
    else:
        argv = [command]
        # rarely both sources or neither, which the CLI rejects
        source = draw(_mostly(
            st.sampled_from(["--data", "--synth"]), st.sampled_from(["both", "neither"])
        ))
        if source in ("--data", "both"):
            argv += ["--data", draw(_DATA_PATHS)]
        if source in ("--synth", "both"):
            argv += ["--synth", draw(_synth_specs())]
        grammar.append(("--b-reg", _NUMBERS))
    if command == "cascade":
        argv += ["--T", draw(_mostly(st.integers(1, 2), st.integers(-(2**70), 0)).map(str))]
        grammar += [
            ("--measure", _mostly(st.sampled_from(["ams2", "ams3"]), st.just("ams4"))),
            ("--variant", _mostly(st.sampled_from(["fresh", "warmstart"]), st.just("loop"))),
            ("--u0", _NUMBERS),
            ("--val-frac", _NUMBERS),
            ("--out-dir", _OUT_DIRS),
            ("--submission", _SUBMISSIONS),
            ("--config", _CONFIG_PATHS),
        ]
    if command == "eval":
        summary = _mostly(
            st.tuples(_NUMBERS, _NUMBERS).map(",".join), st.sampled_from(["1", "1,2,3", "a,b"])
        )
        mode = draw(_mostly(st.sampled_from(["--model", "--summary"]), st.just("neither")))
        if mode != "neither":
            argv += [mode, draw(_MODEL_PATHS if mode == "--model" else summary)]
        grammar.append(("--submission", _SUBMISSIONS))
    argv += _flags(draw, grammar)
    # a stray token: an unknown flag or a flag left without its value
    return argv + draw(_mostly(st.just([]), st.sampled_from([["--bogus"], ["--seed"], ["x"]])))


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {name: root / name for name in (
        "csv", "subnormal_csv", "bad_csv", "empty", "dir", "missing", "file", "model",
        "model5", "bad_model", "config", "bad_config", "logistic_warm_config",
        "undecodable", "out", "cwd", "taken",
    )}
    rows = ["EventId,x0,x1,Weight,Label"]
    rows += [f"{i},{i % 7},{(i * 3) % 5},{1 + i % 3},{'s' if i % 3 == 0 else 'b'}"
             for i in range(30)]
    paths["csv"].write_text("\n".join(rows) + "\n")
    rows = ["EventId,x0,x1,Weight,Label"]
    rows += [f"{i},{i % 7 + 3 * (i < 20)},{i % 5},{'1' if i < 20 else '1e-320'},"
             f"{'s' if i < 20 else 'b'}" for i in range(40)]
    paths["subnormal_csv"].write_text("\n".join(rows) + "\n")
    paths["bad_csv"].write_text("EventId,x0,Weight,Label\n0,1.0,abc,s\n")
    paths["empty"].write_text("")
    paths["dir"].mkdir()
    paths["cwd"].mkdir()
    (paths["taken"] / "trace.csv").mkdir(parents=True)
    paths["file"].write_text("not a directory\n")
    save_model(empty_model("tree-boost", n_features=2, base_score=-1.0), str(paths["model"]))
    save_model(empty_model("tree-boost", n_features=5, base_score=0.5), str(paths["model5"]))
    paths["bad_model"].write_text("amscascade-model 1\nkind tree-boost\nfeatures x\n")
    write_quick_config(paths["config"], "learner.rounds = 2\nT = 2\n")
    paths["bad_config"].write_text("T = x\n")
    paths["logistic_warm_config"].write_text(
        "variant = warmstart\nlearner.kind = logistic\nmeasure = ams3\n"
    )
    paths["undecodable"].write_bytes(b"\xff\xfeT = 3\n")
    return {name: str(path) for name, path in paths.items()}


def _main(argv, cwd):
    """``cli.main`` run in ``cwd`` (the default --out-dir), with its output."""
    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(previous)
    return code, out.getvalue(), err.getvalue()


class TestArgvFuzz:
    @settings(derandomize=True, max_examples=500, deadline=None, database=None)
    @given(argv=_argvs())
    # output paths refused only by the check before any file is written: an
    # empty --submission, and an --out-dir whose trace.csv is a directory
    @example(argv=["cascade", "--data", "{csv}", "--T", "1", "--submission", ""])
    @example(argv=["cascade", "--data", "{csv}", "--T", "1", "--out-dir", "{taken}"])
    # and output paths that pass that check but cannot be written
    @example(argv=["cascade", "--data", "{csv}", "--T", "1", "--submission", _LONG_NAME + ".csv"])
    @example(argv=["cascade", "--data", "{csv}", "--T", "1", "--out-dir", _LONG_NAME])
    @example(argv=["eval", "--data", "{csv}", "--model", "{model}",
                   "--submission", _LONG_NAME + ".csv"])
    def test_documented_exit_and_one_line(self, fuzz_paths, argv):
        argv = [arg.format(**fuzz_paths) for arg in argv]
        # a traceback here would be an exception out of main
        code, out, err = _main(argv, fuzz_paths["cwd"])
        assert code in range(5), (argv, code)
        assert "Traceback" not in err
        assert len(err.splitlines()) <= 1, (argv, err)
        if code == 0:
            assert out.splitlines()[-1].startswith("RESULT "), (argv, out)
