"""Self-tests of the benchmark, and the recorder of its expected digests.

    python3 amsbench/selftest.py           # smoke runs + fault injection
    python3 amsbench/selftest.py --record  # rewrite expected_digests.json

The smoke runs start ``run.py`` on small inputs of every workload, untraced
and traced, and check that every metric named in BENCHMARK.json is printed
with its unit, that nothing fails, and that the exact counters repeat
between two traced runs.  The fault checks wrap a program function from
the benchmark side and require the correctness gate to fail the pass.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

workloads = None  # imported by main() once the environment is pinned

EXACT_COUNTERS = (
    "learner.tree_evals",
    "learner.tree_row_evals",
    "learner.split_rows_scanned",
    "data.rows_parsed",
    "significance.dual_risk_points",
)


def fail(message: str) -> None:
    sys.exit(f"selftest FAILED: {message}")


def workdir(name: str) -> str:
    # the same directory run.py uses: the cli-csv manifest records its paths
    path = run.workdir_for(name)
    os.makedirs(path, exist_ok=True)
    return path


def record() -> None:
    """Digests of every workload's outputs on the default seed, both sizes."""
    recorded = {}
    for size, smoke in (("smoke", True), ("full", False)):
        recorded[size] = {}
        for name, workload in workloads.WORKLOADS.items():
            wd = workdir(name)
            inputs = workload.setup(workloads.DEFAULT_SEED, wd, smoke)
            digests = [workload.run_pass(inputs, wd)[1].digests for _ in range(2)]
            if digests[0] != digests[1]:
                fail(f"{name} ({size}) is not deterministic: {digests}")
            recorded[size][name] = digests[0]
            print(f"recorded {size} {name}", flush=True)
    path = os.path.join(run.BENCH_DIR, "expected_digests.json")
    with open(path, "w") as handle:
        json.dump(recorded, handle, indent=2, sort_keys=True)
        handle.write("\n")


def smoke_run(name: str, trace: int) -> dict:
    cmd = [
        sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload", name,
        "--seed", str(workloads.DEFAULT_SEED), "--seconds", "0", "--trace", str(trace), "--smoke",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=False)
    if done.returncode != 0:
        fail(f"{name} trace={trace} exited {done.returncode}: {done.stderr.strip()}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{name}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{name} trace={trace}: {result} / {done.stderr.strip()}")
    return result


def check_smoke_runs() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for name in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            metrics = smoke_run(name, trace)["metrics"]
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {metric: entry["unit"] for metric, entry in metrics.items()}
            if got != want:
                fail(f"{name} trace={trace}: metrics/units {got} != {want}")
        again = smoke_run(name, 1)["metrics"]
        for counter in EXACT_COUNTERS:
            if again[counter]["value"] != metrics[counter]["value"]:
                fail(f"{name}: {counter} did not repeat between two runs")
        print(f"ok smoke {name}", flush=True)


def expect_failure(name: str, module, attr: str, make_fault) -> None:
    """One smoke pass with ``module.attr`` replaced by a faulty wrapper must fail."""
    workload = workloads.WORKLOADS[name]
    wd = workdir(name)
    expected = run.expected_digests(name, workloads.DEFAULT_SEED, True, workloads.DEFAULT_SEED)
    inputs = workload.setup(workloads.DEFAULT_SEED, wd, True)
    original = getattr(module, attr)
    setattr(module, attr, make_fault(original))
    try:
        passes = run.run_passes(workload, inputs, wd, 0, expected, run.calibration_s())
    finally:
        setattr(module, attr, original)
    if passes.failed != passes.attempted:
        fail(f"fault in {module.__name__}.{attr} was not caught on {name}")
    print(f"ok fault {module.__name__}.{attr} caught on {name}", flush=True)


def check_faults() -> None:
    import amscascade.cascade
    import amscascade.checks
    import amscascade.cli
    from amscascade.learner import CostVector

    def perturbed_costs(original):
        # costs off by one part in 1e9: no oracle notices, only the bytes can
        def fault(dataset, u, measure):
            costs = original(dataset, u, measure)
            return CostVector(costs=costs.costs * (1.0 + 1e-9), round_dual=costs.round_dual)
        return fault

    def rewritten_digit(original):
        # the model file still parses, but its last digit is off by one
        def fault(model, path):
            original(model, path)
            with open(path, "rb") as handle:
                data = bytearray(handle.read())
            last = max(i for i, byte in enumerate(data) if chr(byte).isdigit())
            data[last] = ord("0") + (data[last] - ord("0") + 1) % 10
            with open(path, "wb") as handle:
                handle.write(data)
        return fault

    def shifted_gap(original):
        return lambda measure, a, c: original(measure, a, c) + 1e-3

    expect_failure("fresh-lift", amscascade.cascade, "make_cost_vector", perturbed_costs)
    expect_failure("cli-csv", amscascade.cli, "save_model", rewritten_digit)
    expect_failure("check-suite", amscascade.checks, "fenchel_young_gap", shifted_gap)


def main() -> int:
    global workloads
    run.pin_environment()
    os.chdir(run.ROOT)
    workloads = run.import_program()
    try:
        if "--record" in sys.argv[1:]:
            record()
        else:
            check_faults()
            check_smoke_runs()
            print("selftest passed")
    finally:
        for name in workloads.WORKLOADS:
            shutil.rmtree(run.workdir_for(name), ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
