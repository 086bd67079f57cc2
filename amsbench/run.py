"""amscascade benchmark runner.

Run from the root of a checkout:

    python3 amsbench/run.py --workload fresh-lift --seed 0 --seconds 20 --trace 0

One process runs one workload with one single-threaded caller (a closed
loop): passes repeat on the same seeded inputs until ``--seconds`` have
elapsed, at least once.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Human-readable detail (environment, quartiles, raw AMS2, fail rate) goes to
the lines before it.  The program is imported from ``src/`` of the checkout;
without it the runner exits 1 and prints no result.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Optional  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = ".amsbench_work"  # relative to the checkout root, so manifests are stable
THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
PINNED_ENV = {
    **{var: str(THREADS) for var in THREAD_VARS},
    # a fixed mmap threshold stops glibc from moving large arrays onto the
    # heap after the first free, which made peak RSS jump by ~50 MB at random
    "MALLOC_MMAP_THRESHOLD_": "131072",
}
SETUP_SAMPLES = 3  # this process's set-up plus two fresh child processes
# calibration loop size, and its time at the reference speed (a 2-CPU Xeon
# VM in a fast phase); times are reported at that speed
CALIBRATION_REPS = 48
REF_CALIBRATION_S = 0.5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for the self-tests")
    # internal: time one set-up in a fresh process, in its own work directory
    parser.add_argument("--setup-only", type=int, metavar="INDEX", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_environment() -> None:
    """Re-execute this process under PINNED_ENV unless it already runs there.

    BLAS reads its thread count and glibc its malloc settings when the
    process starts, so setting them afterwards would not take effect.
    """
    if any(os.environ.get(var) != value for var, value in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENV})


def import_program():
    """Import the checkout's program (and this benchmark's workloads)."""
    if not os.path.isfile(os.path.join(SRC, "amscascade", "__init__.py")):
        sys.exit(f"amsbench: no program at {SRC}/amscascade; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import amscascade

    if os.path.dirname(os.path.abspath(amscascade.__file__)) != os.path.join(SRC, "amscascade"):
        sys.exit(f"amsbench: imported amscascade from {amscascade.__file__}, not {SRC}")
    import workloads

    return workloads


def environment(workloads) -> dict:
    import numpy
    import scipy

    import amscascade

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "blas_threads": THREADS,
        "malloc_mmap_threshold": PINNED_ENV["MALLOC_MMAP_THRESHOLD_"],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "amscascade": amscascade.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def expected_digests(workload: str, seed: int, smoke: bool, default_seed: int):
    if seed != default_seed:
        return None
    with open(os.path.join(BENCH_DIR, "expected_digests.json")) as handle:
        return json.load(handle)["smoke" if smoke else "full"][workload]


def workdir_for(workload: str, setup_index=None) -> str:
    suffix = "" if setup_index is None else f"-setup{setup_index}"
    return os.path.join(WORK_ROOT, workload + suffix)


def calibration_s() -> float:
    """Seconds for a fixed mix of interpreter loops and small numpy calls.

    The loop is benchmark code and does not change with the program.  On a
    shared machine the speed a process gets drifts by up to ~1.6x within
    minutes, and this loop drifts with it, so ``seconds * REF_CALIBRATION_S /
    calibration_s()`` is a time at one reference speed.
    """
    import numpy as np

    start = time.perf_counter()
    a = np.random.default_rng(0).standard_normal(300)
    for _ in range(CALIBRATION_REPS):
        total = 0
        for i in range(100_000):
            total += i * i % 7
        for _ in range(700):
            a = np.sort(a)[::-1] + 0.0
    return time.perf_counter() - start


def at_reference(seconds: float, calibration: float) -> float:
    return seconds * REF_CALIBRATION_S / calibration


def child_setup(args, index: int) -> tuple[float, float]:
    """(set-up seconds, calibration seconds) of a fresh process doing the same set-up."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--setup-only", str(index),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
    ]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed: {done.stderr.strip()}")
    setup_s, calibration = done.stdout.split()[-2:]
    return float(setup_s), float(calibration)


@dataclass
class Passes:
    """What a closed loop of passes measured."""

    raw: list[float] = field(default_factory=list)  # seconds per pass, as measured
    scaled: list[float] = field(default_factory=list)  # the same at reference speed
    calibrations: list[float] = field(default_factory=list)
    val_ams2: Optional[float] = None  # of the first completed pass
    failed: int = 0
    attempted: int = 0


def run_passes(workload, inputs, workdir, seconds, expected, calibration, tracer=None) -> Passes:
    """Closed loop: pass after pass until ``seconds`` have elapsed (at least one).

    ``calibration`` is a calibration time taken just before the first pass;
    another follows each pass, and a pass is scaled by the mean of the two
    around it.  A pass fails if it raises (its time counts up to the raise),
    fails a check, differs from the first pass's bytes, or, on the default
    seed, from the recorded digests.
    """
    out = Passes(calibrations=[calibration])
    first = None
    start = time.perf_counter()
    while out.attempted == 0 or time.perf_counter() - start < seconds:
        out.attempted += 1
        gc.collect()  # every pass starts from the same heap, outside the timing
        if tracer is not None:
            tracer.start_pass()
        pass_start = time.perf_counter()
        try:
            wall, outcome = workload.run_pass(inputs, workdir)
        except Exception as exc:  # any exception is a failed pass, not a crash
            print(f"pass {out.attempted} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            wall, outcome = time.perf_counter() - pass_start, None
        out.calibrations.append(calibration_s())
        out.raw.append(wall)
        out.scaled.append(at_reference(wall, statistics.mean(out.calibrations[-2:])))
        if outcome is None:
            out.failed += 1
            continue
        if tracer is not None:
            tracer.finish_pass()
        if out.attempted == 1:
            out.val_ams2 = outcome.val_ams2
        problems = list(outcome.problems)
        first = first or outcome.digests
        if outcome.digests != first:
            problems.append("outputs differ from the first pass of this run")
        if expected is not None and outcome.digests != expected:
            problems.append(f"outputs differ from the recorded digests: {outcome.digests}")
        if problems:
            out.failed += 1
            print(f"pass {out.attempted} failed: {'; '.join(problems)}", file=sys.stderr)
    return out


def spread(values, unit):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "unit": unit}


def report(passes: Passes, setups: list[tuple[float, float]]) -> dict:
    """The untraced run's detail: spreads, raw seconds, fail rate and AMS2."""
    return {
        "wall_s": spread(passes.scaled, "s"),
        "wall_s_measured": spread(passes.raw, "s"),
        "setup_s": spread([at_reference(*pair) for pair in setups], "s"),
        "setup_s_measured": spread([raw for raw, _ in setups], "s"),
        "calibration_s": spread(passes.calibrations + [c for _, c in setups], "s"),
        "fail_rate": {"value": passes.failed / passes.attempted, "unit": "ratio",
                      "failed": passes.failed, "attempted": passes.attempted},
        "val_ams2": {"value": passes.val_ams2, "unit": "AMS2"},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"amsbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    workdir = workdir_for(args.workload, args.setup_only)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        inputs = workload.setup(args.seed, workdir, args.smoke)
        setup = (time.perf_counter() - PROCESS_T0, calibration_s())
        if args.setup_only is not None:
            print(f"{setup[0]!r} {setup[1]!r}")
            return 0
        return measure(args, workloads, workload, workdir, inputs, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workloads, workload, workdir, inputs, setup) -> int:
    print("environment: " + json.dumps(environment(workloads), sort_keys=True))
    expected = expected_digests(args.workload, args.seed, args.smoke, workloads.DEFAULT_SEED)
    seconds = args.seconds / 2 if args.trace else args.seconds
    passes = run_passes(workload, inputs, workdir, seconds, expected, setup[1])
    failed, attempted = passes.failed, passes.attempted

    if args.trace:
        from tracing import Tracer, unit_of

        tracer = Tracer()
        tracer.install(workloads)
        try:
            traced_inputs = workload.setup(args.seed, workdir, args.smoke)
            traced = run_passes(
                workload, traced_inputs, workdir, seconds, expected, calibration_s(), tracer
            )
        finally:
            tracer.uninstall()
        failed += traced.failed
        attempted += traced.attempted
        layer = tracer.layer_metrics()
        layer["trace_overhead"] = (
            statistics.median(traced.scaled) / statistics.median(passes.scaled) - 1.0
        )
        problems = self_check(args, workloads, tracer, layer)
        for problem in problems:
            print(f"counter self-check failed: {problem}", file=sys.stderr)
        correct = failed == 0 and not problems
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in layer.items()}
        for name, value in layer.items():
            print(f"{name} = {value!r} {unit_of(name)}")
    else:
        setups = [setup] + [child_setup(args, i) for i in range(1, SETUP_SAMPLES)]
        correct = failed == 0
        metrics = {
            "setup_s": {"value": statistics.median(at_reference(*p) for p in setups), "unit": "s"},
            "wall_s": {"value": statistics.median(passes.scaled), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        print("report: " + json.dumps(report(passes, setups)))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def self_check(args, workloads, tracer, layer) -> list[str]:
    """Exact counters must repeat between passes and match closed forms."""
    problems = []
    if not tracer.counters_repeat():
        problems.append("exact counters differ between traced passes")
    if args.workload == "warm-long":
        want = workloads.warm_tree_evals(workloads.WarmLong.rounds(args.smoke))
        if layer["learner.tree_evals"] != want:
            problems.append(f"learner.tree_evals {layer['learner.tree_evals']} != {want}")
    if args.workload == "check-suite":
        want = workloads.check_suite_dual_risk_points(args.smoke)
        if layer["significance.dual_risk_points"] != want:
            problems.append(f"significance.dual_risk_points {layer['significance.dual_risk_points']} != {want}")
    return problems


if __name__ == "__main__":
    pin_environment()
    sys.exit(main())
