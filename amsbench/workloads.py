"""The four benchmark workloads: inputs from a seed, one timed pass, checks.

Each workload is a closed loop with one caller: the next pass starts when
the previous one has finished, and every pass in a run sees the same inputs.
``setup`` builds the inputs from the seed (the program receives only those);
``run_pass`` times the call into the program and then checks its outputs
outside the timed region.

The names the passes call (``run_cascade_fresh``, ``cli_main``, ...) are
module attributes so that the traced run can wrap them here, in the calling
module's namespace.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import re
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from amscascade.cascade import (
    CascadeConfig,
    monotonicity_audit,
    run_cascade_fresh,
    run_cascade_warmstart,
    write_trace_csv,
)
from amscascade.cli import main as cli_main
from amscascade.data import SplitSpec, SynthConfig, default_synth_config, split, synthesize
from amscascade.learner import LearnerConfig, classify, save_model

DEFAULT_SEED = 0
B_REG = 10.0  # the regularizer every workload runs with (the CLI default)


@dataclass
class Outcome:
    """What one pass produced: output digests, its AMS2 (None for the check
    suite, which trains no model) and the checks it failed."""

    digests: dict[str, str]
    val_ams2: Optional[float]
    problems: list[str] = field(default_factory=list)


def sha256_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def ams2(s: float, b: float) -> float:
    """AMS2 of a selection, b including the regularizer (benchmark's own copy)."""
    if s <= 0.0:
        return 0.0
    return math.sqrt(2.0 * ((s + b) * math.log1p(s / b) - s))


def _cascade_outcome(model, trace, workdir: str, val_ds, val_ams2: float) -> Outcome:
    """Digests and checks of a cascade pass; ``model`` scored ``val_ams2``."""
    model_path = os.path.join(workdir, "model.txt")
    trace_path = os.path.join(workdir, "trace.csv")
    save_model(model, model_path)
    write_trace_csv(trace, trace_path)
    problems = []
    # the improvement guarantee holds when each dual is the optimum of the
    # round's training summary; held-out duals void its premise
    if trace.validation_source == "training":
        audit = monotonicity_audit(trace)
        if not audit.ok:
            problems.append(f"monotonicity audit found {len(audit.violations)} violations")
    # recompute the model's validation AMS2 along an independent path
    selected = classify(model, val_ds) == 1
    signal = val_ds.labels == 1
    recomputed = ams2(
        float(val_ds.weights[selected & signal].sum()),
        float(val_ds.weights[selected & ~signal].sum()) + B_REG,
    )
    if not math.isclose(recomputed, val_ams2, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"validation AMS2 {val_ams2!r} != recomputed {recomputed!r}")
    return Outcome(
        digests={"model": sha256_file(model_path), "trace": sha256_file(trace_path)},
        val_ams2=val_ams2,
        problems=problems,
    )


# -- fresh-lift: criterion 05's configuration, one seed per pass ---------------


class FreshLift:
    name = "fresh-lift"

    def setup(self, seed: int, workdir: str, smoke: bool):
        synth = SynthConfig(n_signal=200, n_background=200) if smoke else default_synth_config()
        data = synthesize(synth, seed=seed)
        train_ds, val_ds = split(data, SplitSpec(0.3, seed=seed + 1000))
        config = CascadeConfig(
            T=2 if smoke else 6,
            b_reg=B_REG,
            seed=seed,
            learner=LearnerConfig(
                kind="tree-boost",
                rounds=3 if smoke else 25,
                learning_rate=0.3,
                max_depth=3,
                min_child_weight=1e-4,
            ),
        )
        return train_ds, val_ds, config

    def run_pass(self, inputs, workdir: str):
        train_ds, val_ds, config = inputs
        start = time.perf_counter()
        model, trace = run_cascade_fresh(train_ds, val_ds, config)
        wall = time.perf_counter() - start
        chosen = trace.records[trace.chosen_round - 1]
        return wall, _cascade_outcome(model, trace, workdir, val_ds, chosen.val_sig)


# -- warm-long: criterion 09's warm-start configuration ---------------------------


class WarmLong:
    name = "warm-long"

    @staticmethod
    def rounds(smoke: bool) -> int:
        return 20 if smoke else 500

    def setup(self, seed: int, workdir: str, smoke: bool):
        synth = SynthConfig(
            d=5, n_signal=150, n_background=150, separation=2.0,
            signal_total=120.0, background_total=350.0,
        )
        data = synthesize(synth, seed=seed)
        train_ds, val_ds = split(data, SplitSpec(0.5, seed=seed + 1))
        config = CascadeConfig(
            variant="warmstart",
            T=self.rounds(smoke),
            b_reg=B_REG,
            seed=seed,
            learner=LearnerConfig(kind="stump-boost", learning_rate=0.2),
        )
        return train_ds, val_ds, config

    def run_pass(self, inputs, workdir: str):
        train_ds, val_ds, config = inputs
        start = time.perf_counter()
        model, trace = run_cascade_warmstart(train_ds, val_ds, config)
        wall = time.perf_counter() - start
        outcome = _cascade_outcome(model, trace, workdir, val_ds, trace.records[-1].val_sig)
        if model.n_trees != config.T or len(trace.records) != config.T:
            outcome.problems.append(f"expected {config.T} trees and rounds")
        return wall, outcome


def warm_tree_evals(T: int) -> int:
    """Closed-form Tree.predict count of a warm-start run of T rounds.

    Round 1 trains one tree (1); round t > 1 re-predicts t - 1 prior trees
    inside boost_one_round; every round classifies train and validation
    with t trees.
    """
    return 1 + T * (T - 1) // 2 + T * (T + 1)


# -- check-suite: the five verification suites --------------------------------------


_RESULT = re.compile(r"^RESULT (.*)$", re.MULTILINE)


def parse_result(stdout: str) -> dict[str, str]:
    """Key-value pairs of the last RESULT line; empty when there is none."""
    lines = _RESULT.findall(stdout)
    if not lines:
        return {}
    return dict(item.split("=", 1) for item in lines[-1].split() if "=" in item)


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


def _float_field(result: dict[str, str], key: str, problems: list[str]) -> float:
    try:
        return float(result[key])
    except (KeyError, ValueError):
        problems.append(f"RESULT line lacks a numeric {key}")
        return math.nan


class CheckSuite:
    name = "check-suite"

    def setup(self, seed: int, workdir: str, smoke: bool):
        argv = ["check", "--seed", str(seed)]
        return argv + ["--instances", "3"] if smoke else argv

    def run_pass(self, argv, workdir: str):
        start = time.perf_counter()
        code, out = run_cli(argv)
        wall = time.perf_counter() - start
        problems = []
        result = parse_result(out)
        if code != 0 or result.get("failed") != "0":
            problems.append(f"check exited {code} with RESULT {result}")
        digests = {"stdout": hashlib.sha256(out.encode()).hexdigest()}
        return wall, Outcome(digests, None, problems)


def check_suite_dual_risk_points(smoke: bool) -> int:
    """Closed-form dual_risk grid points of one `check` run.

    The grid suite evaluates 2,000,000 points for each of its instances
    and both measures; the duality suite adds one scalar point for each of
    its instances and both measures.
    """
    grid_instances, dual_instances = (3, 3) if smoke else (100, 200)
    return 2 * grid_instances * 2_000_000 + 2 * dual_instances


# -- cli-csv: cascade and eval through the CLI on a HiggsML-shaped CSV ---------------


N_FEATURES = 30
# per-column class separation; fixed, so only the sample depends on the seed
SHIFT = np.linspace(0.0, 0.3, N_FEATURES)
MISSING = -999.0
CSV_CHUNK = 10_000
# columns that are -999.0 (missing) together, as the jet columns are in HiggsML
MISSING_BLOCK = (4, 5, 6, 12, 23, 24, 25, 26, 27, 28)
MISSING_RATE = 0.4
SIGNAL_RATE = 1.0 / 3.0


class CliCsv:
    name = "cli-csv"

    def setup(self, seed: int, workdir: str, smoke: bool):
        n = 2_000 if smoke else 100_000
        rng = np.random.default_rng([seed, 17])
        labels = np.where(rng.random(n) < SIGNAL_RATE, 1, -1)
        # unit-covariance classes, signal SHIFT/2 above background on each column
        features = rng.standard_normal((n, N_FEATURES)) + np.outer(labels, SHIFT / 2.0)
        # missingness does not depend on the label
        missing = rng.random(n) < MISSING_RATE
        features[np.ix_(missing, MISSING_BLOCK)] = MISSING
        weights = np.where(
            labels == 1, rng.uniform(0.5e-3, 1.5e-3, n), rng.uniform(0.5, 1.5, n)
        )

        data_path = os.path.join(workdir, "events.csv")
        table = np.column_stack([100_000 + np.arange(n), features, weights])
        fmt = ["%d"] + ["%.6f"] * N_FEATURES + ["%.9g"]
        header = ",".join(["EventId", *(f"F{j:02d}" for j in range(N_FEATURES)), "Weight", "Label"])
        with open(data_path, "w", newline="") as handle:
            handle.write(header + "\n")
            for start in range(0, n, CSV_CHUNK):
                text = io.StringIO()
                np.savetxt(text, table[start:start + CSV_CHUNK], fmt=fmt, delimiter=",")
                chunk_labels = labels[start:start + CSV_CHUNK]
                handle.writelines(
                    f"{line},{'s' if label == 1 else 'b'}\n"
                    for line, label in zip(text.getvalue().splitlines(), chunk_labels)
                )
        config_path = os.path.join(workdir, "cascade.cfg")
        with open(config_path, "w") as handle:
            handle.write(f"learner.kind = logistic\nT = 4\nseed = {seed}\n")
        out_dir = os.path.join(workdir, "out")
        paths = {
            "data": data_path,
            "model": os.path.join(out_dir, "model.txt"),
            "trace": os.path.join(out_dir, "trace.csv"),
            "manifest": os.path.join(out_dir, "run_manifest.json"),
            "submission_cascade": os.path.join(workdir, "submission_cascade.csv"),
            "submission_eval": os.path.join(workdir, "submission_eval.csv"),
        }
        cascade_argv = [
            "cascade", "--data", data_path, "--config", config_path,
            "--out-dir", out_dir, "--submission", paths["submission_cascade"],
        ]
        eval_argv = [
            "eval", "--model", paths["model"], "--data", data_path,
            "--submission", paths["submission_eval"],
        ]
        return cascade_argv, eval_argv, paths

    def run_pass(self, inputs, workdir: str):
        cascade_argv, eval_argv, paths = inputs
        start = time.perf_counter()
        cascade_code, cascade_out = run_cli(cascade_argv)
        eval_code, eval_out = run_cli(eval_argv)
        wall = time.perf_counter() - start
        problems = []
        for command, code, out in (("cascade", cascade_code, cascade_out), ("eval", eval_code, eval_out)):
            if code != 0 or parse_result(out).get("status") != "ok":
                problems.append(f"{command} exited {code} without an ok RESULT line")
        value = _float_field(parse_result(eval_out), "ams2", problems)
        digests = {
            name: sha256_file(path) for name, path in paths.items() if name != "data"
        }
        return wall, Outcome(digests, value, problems)


WORKLOADS = {w.name: w for w in (FreshLift(), WarmLong(), CheckSuite(), CliCsv())}
