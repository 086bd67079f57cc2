"""tools/benchpair.py on a throwaway git repository whose amsbench/run.py is a stub."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools",
                    "benchpair.py")

# a stand-in for amsbench/run.py: its k-th run prints the k-th of VALUES as
# wall_s (and twice it as the measured seconds), and logs its side and argv
STUB = '''\
import json, os, sys
SIDE, VALUES, CORRECT, NUMPY, LOG = {side!r}, {values!r}, {correct!r}, {numpy!r}, {log!r}
counter = os.path.join(os.path.dirname(os.path.abspath(__file__)), "count.txt")
k = int(open(counter).read()) if os.path.exists(counter) else 0
open(counter, "w").write(str(k + 1))
with open(LOG, "a") as handle:
    handle.write(json.dumps([SIDE, sys.argv[1:]]) + "\\n")
print("environment: " + json.dumps({{"numpy": NUMPY, "commit": SIDE, "nproc": 2}}))
print("report: " + json.dumps({{"wall_s_measured": {{"median": 2 * VALUES[k]}}}}))
print(json.dumps({{"correct": CORRECT[k], "attempted": 1, "failed": 0,
                  "metrics": {{"wall_s": {{"value": VALUES[k], "unit": "s"}}}}}}))
'''


def _load_tool():
    spec = importlib.util.spec_from_file_location("benchpair", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.invalid",
         "-c", "commit.gpgsign=false", *args],
        cwd=repo, check=True, capture_output=True,
    )


def _write_stub(repo, **params):
    (repo / "amsbench" / "run.py").write_text(STUB.format(**params))


@pytest.fixture
def repo(tmp_path):
    """A git repo whose committed stub is the base: wall_s 1.0 on every run."""
    repo = tmp_path / "repo"
    (repo / "tools").mkdir(parents=True)
    (repo / "amsbench").mkdir()
    shutil.copy(TOOL, repo / "tools" / "benchpair.py")
    (repo / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [{"name": "wall_s", "better": "lower"}]})
    )
    log = str(tmp_path / "log.jsonl")
    _write_stub(repo, side="base", values=[1.0] * 20, correct=[True] * 20, numpy="2.0", log=log)
    (repo / ".gitignore").write_text("count.txt\nBENCH_*.json\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-qm", "base")
    return repo


def _run(repo, pairs):
    return subprocess.run(
        [sys.executable, str(repo / "tools" / "benchpair.py"), "--base", "HEAD",
         "--workload", "cli-csv", "--seed", "3", "--pairs", str(pairs), "--seconds", "0.5"],
        capture_output=True, text=True, timeout=120,
    )


def test_summary_and_sign_test(repo, tmp_path):
    # against the base's 1.0: lower in 5 pairs, higher in 1, one tie
    values = [0.9, 0.8, 1.1, 0.9, 1.0, 0.7, 0.95]
    log = str(tmp_path / "log.jsonl")
    _write_stub(repo, side="change", values=values, correct=[True] * 7, numpy="2.0", log=log)
    done = _run(repo, 7)
    assert done.returncode == 0, done.stderr
    # odd pairs run the change first; every run gets the same flags
    runs = [json.loads(line) for line in (tmp_path / "log.jsonl").read_text().splitlines()]
    sides = [side for side, _ in runs]
    assert sides == ["change", "base", "base", "change"] * 3 + ["change", "base"]
    assert {tuple(argv) for _, argv in runs} == {
        ("--workload", "cli-csv", "--seed", "3", "--seconds", "0.5", "--trace", "0")
    }
    (path,) = repo.glob("BENCH_*.json")
    out = json.loads(path.read_text())
    assert path.name == f"BENCH_cli-csv-{out['revisions']['base']['commit'][:7]}.json"
    wall = out["summary"]["wall_s"]
    assert (wall["better_in"], wall["worse_in"], wall["pairs"]) == (5, 1, 7)
    # two-sided exact sign test over the 6 untied pairs: 2 * (C(6,0) + C(6,1)) / 2**6
    assert wall["sign_test_p"] == 14 / 64 == 0.21875
    assert wall["base"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert wall["change"]["median"] == 0.9 and wall["gated"] is True
    measured = out["summary"]["wall_s_measured"]
    assert measured["change"]["median"] == 1.8 and measured["gated"] is False
    assert len(out["runs"]) == 14 and out["environment"] == {"numpy": "2.0", "nproc": 2}
    assert [run["result"]["metrics"]["wall_s"]["value"] for run in out["runs"]
            if run["side"] == "change"] == values
    assert out["revisions"]["change"]["dirty"] is True
    assert out["revisions"]["base"]["commit"] == out["revisions"]["change"]["commit"]
    assert "lower in 5 of 7 (worse in 1), sign test p = 0.2188" in done.stdout


def test_refuses_a_run_that_is_not_correct(repo, tmp_path):
    _write_stub(repo, side="change", values=[0.5] * 4, correct=[True, True, False, True],
                numpy="2.0", log=str(tmp_path / "log.jsonl"))
    done = _run(repo, 4)
    assert done.returncode == 1
    assert "refused" in done.stderr and '"correct": false' in done.stderr
    assert not list(repo.glob("BENCH_*.json"))


def test_refuses_environments_that_differ(repo, tmp_path):
    _write_stub(repo, side="change", values=[0.5] * 4, correct=[True] * 4, numpy="1.24",
                log=str(tmp_path / "log.jsonl"))
    done = _run(repo, 2)
    assert done.returncode == 1
    assert "environment lines differ in numpy" in done.stderr
    assert not list(repo.glob("BENCH_*.json"))


@pytest.mark.parametrize(
    "wins,losses,p",
    [(0, 0, 1.0), (1, 0, 1.0), (5, 5, 1.0), (10, 0, 2 / 1024), (0, 10, 2 / 1024),
     (9, 1, 22 / 1024), (8, 2, 112 / 1024)],
)
def test_sign_test_values(wins, losses, p):
    # 2 * sum(C(n, i), i <= min(wins, losses)) / 2**n, capped at 1
    assert _load_tool().sign_test(wins, losses) == p
