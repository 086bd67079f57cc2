"""Command-line surface: cascade runs, model evaluation, verification.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 training or
cascade error, 4 verification failure. Every command is deterministic given
its flags and seed, and no command mutates its input files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from . import __version__
from .cascade import (
    _VARIANTS,
    CascadeConfig,
    _parse_value,
    derive_seed,
    parse_cascade_config,
    run_cascade,
    write_trace_csv,
)
from .checks import run_all_checks
from .data import (
    SplitSpec,
    SynthConfig,
    load_csv,
    split,
    synthesize,
    write_submission,
)
from .errors import AmsCascadeError, ConfigError, DataError, _integer, _open, _real
# classify is not called here, but amsbench's tracer wraps it by this name
from .learner import (  # noqa: F401
    classify,
    hard_labels,
    load_model,
    make_cost_vector,
    predict_scores,
    save_model,
)
from .significance import (
    _BUILTINS,
    AMS2,
    AMS3,
    ConfusionSummary,
    confusion_summary,
    resolve_measure,
    significance_curve,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_CASCADE = 3
EXIT_CHECK = 4

# the CLI speaks the challenge's file format, so it defaults to the
# challenge's regularizer; the library default stays 0
CLI_B_REG = 10.0
DEFAULT_VAL_FRAC = 0.3

# --synth keys and their types (those of SynthConfig's defaults)
_SYNTH_KEYS = {f.name: type(f.default) for f in fields(SynthConfig)}


class _Parser(argparse.ArgumentParser):
    """argparse that reports flag problems as ConfigError (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _Parser(prog="amscascade", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dataset_flags(p):
        p.add_argument("--data", help="dataset CSV (EventId, features, Weight, Label)")
        p.add_argument(
            "--synth",
            help="synthetic dataset: 'default' or comma-separated key=value "
            "pairs (d, n_signal, n_background, separation, signal_total, "
            "background_total)",
        )
        p.add_argument("--seed", type=int, help="master seed (default 0)")
        p.add_argument(
            "--b-reg", type=float, dest="b_reg", help="background regularizer (default 10)"
        )

    run = sub.add_parser("cascade", help="run a significance cascade")
    add_dataset_flags(run)
    run.add_argument("--measure", choices=tuple(_BUILTINS))
    run.add_argument("--variant", choices=_VARIANTS)
    run.add_argument("--T", type=int, help="maximum cascade rounds")
    run.add_argument("--u0", type=float, help="initial dual weight")
    run.add_argument(
        "--val-frac", type=float, dest="val_frac", help="validation fraction (default 0.3)"
    )
    run.add_argument("--out-dir", dest="out_dir", default=".", help="output directory")
    run.add_argument("--submission", help="also write a ranked selection file")
    run.add_argument("--config", help="config file; explicit flags still win")

    ev = sub.add_parser("eval", help="evaluate a saved model on a dataset")
    add_dataset_flags(ev)
    ev.add_argument("--model", help="model file written by the cascade command")
    ev.add_argument(
        "--summary",
        help="summary-only mode: 's,b' evaluates significance of a "
        "hand-built confusion summary instead of a model",
    )
    ev.add_argument("--submission", help="also write a ranked selection file")

    chk = sub.add_parser("check", help="run the built-in verification suites")
    chk.add_argument("--seed", type=int, help="master seed (default 0)")
    chk.add_argument(
        "--instances",
        type=int,
        help="instances per suite; the grid-optimum, gradient-fd and "
        "threshold-scan suites cap it at their default sizes",
    )
    chk.add_argument(
        "--inject-fault",
        action="store_true",
        dest="inject_fault",
        help="test hook: perturb a conjugate by 1e-3 and confirm the "
        "Fenchel-Young suite catches it",
    )
    return parser


def _parse_synth_spec(spec):
    if spec == "default":
        return SynthConfig()
    params = {}
    for part in spec.split(","):
        if "=" not in part:
            raise ConfigError(f"bad synth spec item {part!r}, expected key=value")
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in _SYNTH_KEYS:
            raise ConfigError(f"unknown synth key {key!r}")
        params[key] = _parse_value(value.strip(), _SYNTH_KEYS[key], key)
    return SynthConfig(**params)


def _load_dataset(args, seed):
    """Resolve --data / --synth into a dataset."""
    if args.data is not None and args.synth is not None:
        raise ConfigError("--data and --synth are mutually exclusive")
    if args.data is not None:
        return load_csv(args.data)
    if args.synth is not None:
        return synthesize(_parse_synth_spec(args.synth), derive_seed(seed, 101))
    raise ConfigError("one of --data or --synth is required")


def _dataset_fingerprint(args, dataset):
    """The manifest's dataset record; its hash streams the --data file or the --synth arrays."""
    digest = hashlib.sha256()
    if args.data is not None:
        with _open(args.data, "rb", DataError) as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
    else:
        for array in (dataset.features, dataset.labels, dataset.weights, dataset.event_ids):
            digest.update(array.tobytes())
    return {
        "rows": dataset.n,
        "signal_weight_total": dataset.signal_total,
        "background_weight_total": dataset.background_total,
        "content_hash": digest.hexdigest(),
    }


def _resolve_cascade_config(args):
    base = CascadeConfig(b_reg=CLI_B_REG)
    if args.config is not None:
        with _open(args.config, "r", ConfigError) as handle:
            base = parse_cascade_config(handle.read(), base=base)
    overrides = {}
    for key in ("measure", "variant", "T", "u0", "b_reg", "seed"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    return replace(base, **overrides) if overrides else base


def _check_output_paths(out_dir, outputs, inputs):
    """Reject output paths that cannot be written, before any file is written.

    ``out_dir`` (None for eval) may be missing, but not empty, and its
    nearest existing ancestor must be a directory. Each path in ``outputs``
    (None for a file not asked for) must be non-empty, not a directory, and
    in an existing directory or in ``out_dir``; nor may its real path be
    that of an earlier output or of a file in ``inputs`` (flag -> path,
    None for a flag not given), which writing it would replace.
    """
    if out_dir is not None:
        if not out_dir:
            raise ConfigError("--out-dir '': not a directory")
        probe = os.path.abspath(out_dir)
        while not os.path.exists(probe):
            probe = os.path.dirname(probe)
        if not os.path.isdir(probe):
            raise ConfigError(f"--out-dir {out_dir!r}: {probe!r} is not a directory")
    # real path -> the flag or file that names it
    named = {os.path.realpath(path): f"{flag} {path!r}" for flag, path in inputs.items() if path}
    for name, path in outputs.items():
        if path is None:
            continue
        flag = "--submission" if name == "submission" else f"{name} file"
        label = f"{flag} {path!r}"
        parent = os.path.dirname(os.path.abspath(path))
        in_out_dir = out_dir is not None and parent == os.path.abspath(out_dir)
        if not path or os.path.isdir(path) or not (os.path.isdir(parent) or in_out_dir):
            raise ConfigError(f"{label}: not a file in an existing directory")
        real = os.path.realpath(path)
        if real in named:
            raise ConfigError(f"{label}: the same file as {named[real]}")
        named[real] = label


def _write_manifest(path, config, fingerprint, val_frac, outputs):
    """Write the run's JSON record; a path that cannot be written raises ConfigError."""
    manifest = {
        "tool_version": __version__,
        "config": asdict(config),
        "validation_fraction": val_frac,
        "dataset": fingerprint,
        "seed": config.seed,
        "outputs": outputs,
    }
    with _open(path, "w", ConfigError) as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def cmd_cascade(args):
    config = _resolve_cascade_config(args)
    val_frac = DEFAULT_VAL_FRAC if args.val_frac is None else args.val_frac
    manifest_path = os.path.join(args.out_dir, "run_manifest.json")
    model_path = os.path.join(args.out_dir, "model.txt")
    trace_path = os.path.join(args.out_dir, "trace.csv")
    outputs = {
        "manifest": manifest_path,
        "model": model_path,
        "trace": trace_path,
        "submission": args.submission,
    }
    _check_output_paths(args.out_dir, outputs, {"--data": args.data, "--config": args.config})
    dataset = _load_dataset(args, config.seed)
    train_ds, val_ds = split(
        dataset, SplitSpec(validation_fraction=val_frac, seed=derive_seed(config.seed, 102))
    )

    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out-dir {args.out_dir!r}: {exc}") from None
    # manifest first, so a failed run still leaves an auditable record
    _write_manifest(manifest_path, config, _dataset_fingerprint(args, dataset), val_frac, outputs)
    # the two parts hold every feature cell, so training does not also hold
    # the loaded table; only its ids are read again, by --submission
    event_ids = dataset.event_ids
    del dataset

    model, trace = run_cascade(train_ds, val_ds, config)
    save_model(model, model_path)
    write_trace_csv(trace, trace_path)
    chosen = trace.records[trace.chosen_round - 1]
    warning = _leaf_only_warning(model, trace, config, train_ds)
    if args.submission is not None:
        features = _rejoined_features(event_ids, train_ds, val_ds)
        del train_ds, val_ds  # and the training part's cached column order
        scores = predict_scores(model, features)
        write_submission(args.submission, event_ids, scores, hard_labels(scores, model.threshold))

    print(f"variant {trace.variant}, measure {trace.measure_kind}, "
          f"{len(trace.records)} rounds, chose round {trace.chosen_round}")
    print(f"train significance {chosen.train_sig:.6g}")
    print(f"validation significance {chosen.val_sig:.6g}")
    print(f"model written to {model_path}")
    print(f"trace written to {trace_path}")
    if args.submission is not None:
        print(f"submission written to {args.submission}")
    print(
        f"RESULT command=cascade status=ok variant={trace.variant} "
        f"measure={trace.measure_kind} rounds={len(trace.records)} "
        f"chosen_round={trace.chosen_round} train_sig={chosen.train_sig:.6g} "
        f"val_sig={chosen.val_sig:.6g}"
    )
    if warning is not None:
        print(warning, file=sys.stderr)
    return EXIT_OK


def _rejoined_features(event_ids, train_ds, val_ds):
    """The split dataset's feature matrix, rebuilt in its row order from the two parts.

    ``split`` keeps each part's rows in the dataset's order, and event ids
    are unique, so the validation rows are where the ids are the validation
    part's, and every cell lands back where it was read.
    """
    in_val = np.isin(event_ids, val_ds.event_ids)
    features = np.empty((event_ids.size, train_ds.d))
    features[~in_val] = train_ds.features
    features[in_val] = val_ds.features
    return features


def _leaf_only_warning(model, trace, config, train_ds):
    """The stderr line for a boosted model whose trees are all single leaves, else None.

    The outputs are valid, so the run still exits 0.  min_child_weight is in
    summed cost, whose total does not grow with the row count (about 1.74 at
    the default synthetic class totals); it is named as the cause only where
    it is over half the chosen round's total, so no split can meet it.
    """
    if not model.trees or any(tree.n_nodes > 1 for tree in model.trees):
        return None
    limit = config.learner.min_child_weight
    if limit == 0:
        return (
            f"warning: no tree of the model splits; no split had a positive gain in round "
            f"{trace.chosen_round} (learner.min_child_weight = 0 rules none out)"
        )
    chosen = trace.records[trace.chosen_round - 1]
    costs = make_cost_vector(train_ds, chosen.u_prev, resolve_measure(config.measure))
    total = float(costs.costs.sum())
    if 2 * limit > total:
        return (
            f"warning: no tree of the model splits; learner.min_child_weight = "
            f"{limit:.6g} against a cost total of {total:.6g} in round "
            f"{trace.chosen_round} (each child of a split needs a cost sum of at "
            f"least min_child_weight)"
        )
    return (
        f"warning: no tree of the model splits; no split had a positive gain in round "
        f"{trace.chosen_round} with a cost sum of at least learner.min_child_weight = "
        f"{limit:.6g} on each side (cost total {total:.6g})"
    )


def _parse_summary_spec(spec, b_reg):
    parts = spec.split(",")
    if len(parts) != 2:
        raise ConfigError(f"bad summary spec {spec!r}, expected 's,b'")
    try:
        s = float(parts[0])
        background = float(parts[1])
    except ValueError:
        raise ConfigError(f"bad summary spec {spec!r}, expected numbers") from None
    if s < 0 or background < 0:
        raise ConfigError("summary counts must be nonnegative")
    try:
        return ConfusionSummary.from_counts(s=s, background=background, p=s, b_reg=b_reg)
    except ValueError as exc:
        raise ConfigError(f"bad summary spec {spec!r}: {exc}") from None


def _master_seed(args):
    return 0 if args.seed is None else _integer("--seed", args.seed, 0)


def cmd_eval(args):
    b_reg = _real("--b-reg", CLI_B_REG if args.b_reg is None else args.b_reg, 0.0, open_high=True)
    seed = _master_seed(args)
    if args.summary is not None:
        given = {"--model": args.model, "--data": args.data, "--synth": args.synth,
                 "--submission": args.submission}
        unused = ", ".join(flag for flag, value in given.items() if value is not None)
        if unused:
            raise ConfigError(f"--summary cannot be combined with {unused}")
        summary = _parse_summary_spec(args.summary, b_reg)
    else:
        if args.model is None:
            raise ConfigError("eval requires --model (or --summary)")
        _check_output_paths(
            None, {"submission": args.submission}, {"--model": args.model, "--data": args.data}
        )
        model = load_model(args.model)
        dataset = _load_dataset(args, seed)
        scores = predict_scores(model, dataset)
        predictions = hard_labels(scores, model.threshold)
        summary = confusion_summary(dataset, predictions, b_reg)
        if args.submission is not None:
            write_submission(args.submission, dataset.event_ids, scores, predictions)

    ams2 = float(significance_curve(summary.s, summary.b, AMS2))
    ams3 = float(significance_curve(summary.s, summary.b, AMS3))
    print(f"selected signal weight s = {summary.s:.6g}")
    print(f"selected background weight b = {summary.b:.6g} (includes b_reg {b_reg:.6g})")
    print(f"AMS2 = {ams2:.6g}")
    print(f"AMS3 = {ams3:.6g}")
    if args.submission is not None:
        print(f"submission written to {args.submission}")
    print(
        f"RESULT command=eval status=ok s={summary.s:.6g} b={summary.b:.6g} "
        f"ams2={ams2:.6g} ams3={ams3:.6g}"
    )
    return EXIT_OK


def cmd_check(args):
    results = run_all_checks(
        seed=_master_seed(args), instances=args.instances, inject_fault=args.inject_fault
    )
    failed = 0
    for result in results:
        if result.passed:
            print(f"{result.name}: PASS instances={result.instances} "
                  f"worst={result.worst:.6g}")
        else:
            failed += 1
            print(f"{result.name}: FAIL instances={result.instances} "
                  f"worst={result.worst:.6g} [{result.detail}]")
    status = "ok" if failed == 0 else "fail"
    print(f"RESULT command=check status={status} suites={len(results)} failed={failed}")
    return EXIT_OK if failed == 0 else EXIT_CHECK


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        handler = {"cascade": cmd_cascade, "eval": cmd_eval, "check": cmd_check}
        return handler[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except AmsCascadeError as exc:
        print(f"cascade error: {exc}", file=sys.stderr)
        return EXIT_CASCADE


if __name__ == "__main__":
    sys.exit(main())
