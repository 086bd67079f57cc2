#!/usr/bin/env python3
"""Paired benchmark runs of this checkout against a base revision.

Run from anywhere inside the checkout:

    python3 tools/benchpair.py --base REV --workload W --seed S --pairs N --seconds T

The base revision is unpacked with ``git archive`` into a temporary
directory.  Each run is one tree's own ``amsbench/run.py --trace 0`` in a
subprocess, so this script re-implements no gate, calibration or workload;
the change is the checkout's working tree.  Runs alternate: pair k (counted
from 1) runs the change first when k is odd, the base first otherwise.

For each metric of the runs' result objects it reports both sides' median
and quartiles, in how many pairs the change was better and worse (ties
count for neither), and an exact two-sided sign-test p-value over the
untied pairs.  The measured seconds of the ``report:`` lines, before
calibration scaling, are summarised beside them.  It writes
``BENCH_<tag>.json`` at the checkout's root with the environment, both
revisions, every run's lines and the summary, where ``<tag>`` is the
workload and the base's short commit id.  It writes nothing and exits 1
when a run fails or prints ``"correct": false``, or when two runs'
``environment:`` lines differ in a field other than ``commit``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the report: line's seconds before calibration scaling; summarised, not gated
MEASURED = ("wall_s_measured", "setup_s_measured")


class Refused(Exception):
    """A run whose outcome no summary may be written from."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="every run's --seed")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="every run's --seconds")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def unpack(commit: str, dest: str) -> None:
    """Write the tree of ``commit`` into ``dest``, as ``git archive`` gives it."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def run_once(tree: str, side: str, args) -> dict:
    """One ``amsbench/run.py`` of ``tree``: its environment, report and result objects."""
    cmd = [
        sys.executable, os.path.join(tree, "amsbench", "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", "0",
    ]
    done = subprocess.run(
        cmd, cwd=tree, capture_output=True, text=True, timeout=600 + 4 * args.seconds
    )
    lines = done.stdout.splitlines()
    record = {"side": side, "environment": None, "report": None, "result": None}
    for line in lines:
        for key in ("environment", "report"):
            if line.startswith(key + ": "):
                record[key] = json.loads(line[len(key) + 2:])
    try:
        record["result"] = json.loads(lines[-1])
    except (IndexError, ValueError):
        pass
    if done.returncode != 0 or not isinstance(record["result"], dict):
        raise Refused(f"{side} run exited {done.returncode} without a result line: "
                      f"{done.stderr.strip()[-500:]}")
    if record["result"].get("correct") is not True:
        raise Refused(f"{side} run printed \"correct\": false: {lines[-1]}")
    if record["environment"] is None:
        raise Refused(f"{side} run printed no environment line")
    return record


def same_environment(runs: list[dict]) -> dict:
    """The runs' common environment without ``commit``; Refused if two differ."""
    first = {k: v for k, v in runs[0]["environment"].items() if k != "commit"}
    for run in runs[1:]:
        env = {k: v for k, v in run["environment"].items() if k != "commit"}
        if env != first:
            fields = sorted(k for k in env.keys() | first.keys() if env.get(k) != first.get(k))
            raise Refused(f"environment lines differ in {', '.join(fields)}")
    return first


def quartiles(values: list[float]) -> dict:
    """Median and quartiles by ``amsbench/run.py``'s own rule."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3}


def sign_test(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of ``wins`` against ``losses`` (ties dropped)."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def compare(base: list[float], change: list[float], better: str) -> dict:
    """One metric's summary over pairs ``zip(base, change)``."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    return {
        "better": better,
        "base": quartiles(base),
        "change": quartiles(change),
        "better_in": wins,
        "worse_in": losses,
        "pairs": len(base),
        "sign_test_p": sign_test(wins, losses),
    }


def summarise(pairs: list[dict]) -> dict:
    """Each result metric, then each measured-seconds median, over the pairs."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            directions = {m["name"]: m["better"] for m in json.load(handle)["end_to_end"]}
    except (OSError, ValueError, KeyError):
        directions = {}

    def series(read):
        return [read(pair["base"]) for pair in pairs], [read(pair["change"]) for pair in pairs]

    summary = {}
    for name in pairs[0]["base"]["result"]["metrics"]:
        base, change = series(lambda run: run["result"]["metrics"][name]["value"])
        summary[name] = {**compare(base, change, directions.get(name, "lower")),
                         "gated": name in directions}
    for name in MEASURED:
        if all((run["report"] or {}).get(name) for pair in pairs for run in pair.values()):
            base, change = series(lambda run: run["report"][name]["median"])
            summary[name] = {**compare(base, change, "lower"), "gated": False}
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    base_commit = git("rev-parse", "--verify", args.base + "^{commit}")
    change = {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    tag = f"{args.workload}-{base_commit[:7]}"
    pairs = []
    try:
        with tempfile.TemporaryDirectory(prefix="benchpair-") as base_tree:
            unpack(base_commit, base_tree)
            trees = {"base": base_tree, "change": ROOT}
            for k in range(1, args.pairs + 1):
                order = ("change", "base") if k % 2 else ("base", "change")
                pair = {side: run_once(trees[side], side, args) for side in order}
                pairs.append(pair)
                environment = same_environment([run for pair in pairs for run in pair.values()])
                print(f"pair {k}: " + ", ".join(
                    f"{side} {json.dumps(pair[side]['result']['metrics'])}" for side in order
                ), flush=True)
    except Refused as exc:
        print(f"benchpair: refused, nothing written: {exc}", file=sys.stderr)
        return 1
    summary = summarise(pairs)
    out = {
        "tag": tag,
        "command": ["tools/benchpair.py", *(sys.argv[1:] if argv is None else argv)],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "environment": environment,
        "harness": {"python": platform.python_version(), "platform": platform.platform()},
        "revisions": {"base": {"rev": args.base, "commit": base_commit}, "change": change},
        "runs": [
            {"pair": k, "order": i + 1, **run}
            for k, pair in enumerate(pairs, start=1) for i, run in enumerate(pair.values())
        ],
        "summary": summary,
    }
    path = os.path.join(ROOT, f"BENCH_{tag}.json")
    with open(path, "w") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for name, s in summary.items():
        print(f"{name}: base {s['base']['median']:.6g} [{s['base']['q1']:.6g}, "
              f"{s['base']['q3']:.6g}] -> change {s['change']['median']:.6g} "
              f"[{s['change']['q1']:.6g}, {s['change']['q3']:.6g}], {s['better']} in "
              f"{s['better_in']} of {s['pairs']} (worse in {s['worse_in']}), "
              f"sign test p = {s['sign_test_p']:.4g}")
    print(f"written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
