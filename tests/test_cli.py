"""End-to-end tests for the command-line interface."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from amscascade import cli
from amscascade.data import read_submission
from amscascade.learner import Model, empty_model, save_model

SYNTH = "n_signal=150,n_background=150,separation=2.0,signal_total=120,background_total=350"


def run_cli(argv):
    return cli.main(argv)


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
        assert (out / "run_manifest.json").exists()
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

    def test_missing_model_exits_2(self, tmp_path, capsys):
        code = run_cli(["eval", "--model", str(tmp_path / "absent.txt"), "--synth", "default"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1

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
    "check-instances-negative": ("", ["check", "--instances", "-2"]),
    "check-instances-zero": ("", ["check", "--instances", "0"]),
    "check-seed-negative": ("", ["check", "--seed", "-3", "--instances", "1"]),
    "eval-summary-nan": ("", ["eval", "--summary", "nan,5"]),
    "eval-summary-inf": ("", ["eval", "--summary", "5,inf"]),
    "eval-summary-overflow": ("", ["eval", "--summary", "1e308,1e308"]),
    "eval-b-reg-nan": ("", ["eval", "--summary", "5,5", "--b-reg", "nan"]),
    "eval-b-reg-negative": ("", ["eval", "--summary", "5,5", "--b-reg", "-1"]),
    "eval-seed-negative": (
        "", ["eval", "--model", "MODEL", "--synth", _QUICK_SYNTH, "--seed", "-1"]
    ),
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
    "undecodable-config": [
        "cascade", "--synth", _QUICK_SYNTH, "--config", "{undecodable}", "--out-dir", "{out}",
    ],
}


def _tree(root):
    """Every path under ``root``, with the bytes of each file."""
    return {path: path.is_file() and path.read_bytes() for path in root.rglob("*")}


class TestPathInputErrors:
    @pytest.mark.parametrize("case", list(BAD_PATH_INPUTS), ids=list(BAD_PATH_INPUTS))
    def test_exits_1_with_one_line_and_writes_nothing(self, tmp_path, capsys, case):
        paths = {
            "dir": tmp_path,
            "file": tmp_path / "file.txt",
            "model": tmp_path / "model.txt",
            "undecodable": tmp_path / "utf16.cfg",
            "out": tmp_path / "run",
            "missing": tmp_path / "missing",
        }
        paths["file"].write_text("not a directory\n")
        paths["undecodable"].write_bytes(b"\xff\xfeT = 3\n")
        save_model(empty_model("tree-boost", n_features=5, base_score=-1.0), str(paths["model"]))
        before = _tree(tmp_path)
        argv = [arg.format(**paths) for arg in BAD_PATH_INPUTS[case]]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert "RESULT" not in captured.out
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: "), err
        assert _tree(tmp_path) == before


class TestEntryPoint:
    def test_module_invocation(self):
        # pytest's pythonpath setting does not reach the child interpreter
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "amscascade.cli", "eval", "--summary", "100,400",
             "--b-reg", "0"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1].endswith("ams2=4.81077 ams3=5")

    def test_help_does_not_throw_config_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(["--help"])
        assert info.value.code == 0
        capsys.readouterr()
