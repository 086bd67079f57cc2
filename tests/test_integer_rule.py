"""One integer rule for every scalar count and seed the package takes, one
real rule for every scalar real, and the exact-cast rule for its int64
arrays.

A scalar integer site accepts Python and numpy integers at or above its
bound and holds them as ``int``.  It answers anything else (``bool``,
floats, NaN, infinities, strings, None) with the package's own one-line
error, never with a TypeError or numpy's ValueError.  A scalar real site
accepts Python and numpy reals inside its interval and holds them as
``float``; ``bool``, NaN, strings, None and reals outside the interval get
the site's one-line error, which names the interval.  An int64 array field
holds exactly the values it was given, or its record raises the error class
of its other checks: no fraction, NaN or infinity is truncated.
"""

import argparse
import ast
import functools
import math
import numbers
import os
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import amscascade
from amscascade import (
    AMS2,
    U_MIN,
    CascadeConfig,
    ConfigError,
    ConfusionSummary,
    CostVector,
    DataError,
    LearnerConfig,
    Model,
    SplitSpec,
    SynthConfig,
    Tree,
    WeightedDataset,
    confusion_summary,
    default_u0,
    fenchel_young_gap,
    read_submission,
    rerun_cascade,
    run_all_checks,
    select_threshold,
    split,
    synthesize,
    write_submission,
)
from amscascade import cascade, checks, cli
from amscascade.cascade import derive_seed
from amscascade.significance import U_MAX, clamp_dual, validate_dual

_TINY = SynthConfig(d=1, n_signal=2, n_background=2)


class _Reached(Exception):
    """Ends a call once it is past a site's checks; carries what the site holds."""


def _stop(local=None):
    """A stub that raises _Reached with its caller's variable ``local``."""

    def stub(*args, **kwargs):
        raise _Reached(None if local is None else sys._getframe(1).f_locals[local])

    return stub


def _suite_size(suite, size):
    # every suite seeds its generator right after checking its sizes
    def call(value):
        rng = SimpleNamespace(default_rng=_stop(size))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(checks, "np", SimpleNamespace(random=rng))
            getattr(checks, suite)(seed=0, **{size: value})

    return call


def _rerun(size, **sizes):
    # the first cascade run ends the call
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cascade, "run_cascade", _stop(size))
        rerun_cascade(None, None, CascadeConfig(), **sizes)


_SUITES = ("fenchel_young", "grid_optimum", "duality", "gradient", "threshold_scan")


def _all_checks(local, **kwargs):
    # the suites are stubs that keep their signatures, so run_all_checks
    # stops at its first suite call
    with pytest.MonkeyPatch.context() as patch:
        for name in _SUITES:
            suite = getattr(checks, "check_" + name)
            patch.setattr(checks, suite.__name__, functools.wraps(suite)(_stop(local)))
        run_all_checks(**kwargs)


def _split_seed(value):
    spec = SplitSpec(0.5, seed=value)
    split(synthesize(_TINY, 0), spec)
    return spec.seed


def _synthesize(value):
    synthesize(_TINY, value)


def _derive_seed(value):
    derive_seed(value)


def _derive_key(value):
    derive_seed(0, value)


# site -> (call returning the int the site holds, or None; least valid value)
_SITES = {
    "CascadeConfig.T": (lambda v: CascadeConfig(T=v).T, 1),
    "CascadeConfig.extra_rounds_after_stall": (
        lambda v: CascadeConfig(extra_rounds_after_stall=v).extra_rounds_after_stall, 0
    ),
    "CascadeConfig.seed": (lambda v: CascadeConfig(seed=v).seed, 0),
    "LearnerConfig.rounds": (lambda v: LearnerConfig(rounds=v).rounds, 1),
    "LearnerConfig.max_depth": (lambda v: LearnerConfig(max_depth=v).max_depth, 1),
    "LearnerConfig.seed": (lambda v: LearnerConfig(seed=v).seed, 0),
    "SynthConfig.d": (lambda v: SynthConfig(d=v).d, 1),
    "SynthConfig.n_signal": (lambda v: SynthConfig(n_signal=v).n_signal, 1),
    "SynthConfig.n_background": (lambda v: SynthConfig(n_background=v).n_background, 1),
    "Model.n_features": (lambda v: Model("stump-boost", v, 0.0).n_features, 0),
    "SplitSpec.seed": (_split_seed, 0),
    "synthesize.seed": (_synthesize, 0),
    "derive_seed.seed": (_derive_seed, 0),
    "derive_seed.key": (_derive_key, 0),
    "rerun_cascade.repeats": (lambda v: _rerun("repeats", repeats=v), 1),
    "rerun_cascade.top_k": (lambda v: _rerun("top_k", repeats=1, top_k=v), 1),
    "run_all_checks.instances": (lambda v: _all_checks("instances", instances=v), 1),
    "run_all_checks.seed": (lambda v: _all_checks(None, seed=v), 0),
    "cli --seed": (lambda v: cli._master_seed(argparse.Namespace(seed=v)), 0),
    "check_fenchel_young.instances": (_suite_size("check_fenchel_young", "instances"), 1),
    "check_duality.instances": (_suite_size("check_duality", "instances"), 1),
    "check_grid_optimum.instances": (_suite_size("check_grid_optimum", "instances"), 1),
    "check_grid_optimum.grid_points": (_suite_size("check_grid_optimum", "grid_points"), 2),
    "check_gradient.instances": (_suite_size("check_gradient", "instances"), 1),
    "check_gradient.n_events": (_suite_size("check_gradient", "n_events"), 1),
    "check_threshold_scan.instances": (_suite_size("check_threshold_scan", "instances"), 1),
    "check_threshold_scan.n_events": (_suite_size("check_threshold_scan", "n_events"), 2),
}

_NUMPY_INTEGERS = st.sampled_from(
    [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
).flatmap(lambda t: st.integers(int(np.iinfo(t).min), int(np.iinfo(t).max)).map(t))

_SCALARS = st.one_of(
    st.integers(-3, 3),  # both sides of every bound: 0, 1 and 2
    st.integers(-(2**80), 2**80),
    _NUMPY_INTEGERS,
    st.booleans(),
    st.sampled_from([np.True_, np.False_]),
    st.integers(-3, 3).map(float),
    st.floats(),
    st.sampled_from([1.5, math.nan, math.inf, -math.inf, 2**70, "3", None]),
)

# sites where None asks for the default: every rerun, each suite's default
# size, master seed 0
_NONE_IS_DEFAULT = {"rerun_cascade.top_k", "run_all_checks.instances", "cli --seed"}

# no site may refuse a valid integer this small; larger ones may meet a
# site's own size limit (SynthConfig's value count, MAX_INSTANCES)
_SMALL = 1000


@settings(max_examples=1500, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(_SITES)), _SCALARS)
@example("CascadeConfig.seed", np.int64(3))
@example("LearnerConfig.rounds", np.int64(5))
@example("SynthConfig.d", np.int64(2))
@example("CascadeConfig.T", True)
@example("SplitSpec.seed", -1)
@example("SplitSpec.seed", 1.5)
@example("synthesize.seed", -1)
@example("derive_seed.seed", 1.5)
@example("rerun_cascade.repeats", 1.5)
@example("run_all_checks.instances", True)
def test_every_scalar_site_takes_integers_only(site, value):
    call, least = _SITES[site]
    error = ValueError if site == "Model.n_features" else ConfigError
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    valid = integer and value >= least or (value is None and site in _NONE_IS_DEFAULT)
    try:
        held = call(value)
    except _Reached as reached:
        held = reached.args[0]
    except error as exc:
        message = str(exc)
        assert "\n" not in message
        if error is ValueError:
            assert "feature count" in message
        assert not (valid and value <= _SMALL), f"{site} refused {value!r}: {message}"
        return
    assert valid, f"{site} accepted {value!r}"
    if held is not None and value is not None:
        assert type(held) is int and held == value


# the package exports a function of the module's name
significance_module = sys.modules["amscascade.significance"]


def _past_check(module, local, call):
    # the site's first numpy call after its check ends the call
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "np", SimpleNamespace(asarray=_stop(local)))
        call()


def _eval_b_reg(value):
    # cmd_eval reads the master seed right after checking --b-reg
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_master_seed", _stop("b_reg"))
        cli.cmd_eval(argparse.Namespace(b_reg=value))


def _clamped(value):
    u = clamp_dual(value)
    assert u == min(max(float(value), U_MIN), U_MAX)


_TOTALS = SimpleNamespace(signal_total=1.0, background_total=1.0)
_EVENTS = SimpleNamespace(labels=[], weights=[])


# site -> (call returning the float the site holds, or None where it keeps
# none; its interval, as the message names it; its error class)
_REAL_SITES = {
    "CascadeConfig.u0": (lambda v: CascadeConfig(u0=v).u0, "(0, inf)", ConfigError),
    "CascadeConfig.b_reg": (lambda v: CascadeConfig(b_reg=v).b_reg, "[0, inf)", ConfigError),
    "LearnerConfig.learning_rate": (
        lambda v: LearnerConfig(learning_rate=v).learning_rate, "[0, 1]", ConfigError
    ),
    "LearnerConfig.min_child_weight": (
        lambda v: LearnerConfig(min_child_weight=v).min_child_weight, "[0, inf)", ConfigError
    ),
    "LearnerConfig.subsample": (
        lambda v: LearnerConfig(subsample=v).subsample, "(0, 1]", ConfigError
    ),
    "SplitSpec.validation_fraction": (
        lambda v: SplitSpec(v, seed=0).validation_fraction, "(0, 1)", ConfigError
    ),
    "SynthConfig.separation": (
        lambda v: SynthConfig(separation=v).separation, "[0, inf)", ConfigError
    ),
    "SynthConfig.signal_total": (
        lambda v: SynthConfig(signal_total=v).signal_total, "(0, 1e+100]", ConfigError
    ),
    "SynthConfig.background_total": (
        lambda v: SynthConfig(background_total=v).background_total, "(0, 1e+100]", ConfigError
    ),
    "cli --b-reg": (_eval_b_reg, "[0, inf)", ConfigError),
    "clamp_dual": (_clamped, "(-inf, inf)", ValueError),
    "validate_dual": (validate_dual, "[1e-06, inf)", ValueError),
    "select_threshold.b_reg": (
        lambda v: _past_check(cascade, "b_reg", lambda: select_threshold([], None, AMS2, v)),
        "[0, inf)",
        ValueError,
    ),
    "confusion_summary.b_reg": (
        lambda v: _past_check(
            significance_module, "b_reg", lambda: confusion_summary(_EVENTS, [], v)
        ),
        "[0, inf)",
        ValueError,
    ),
    "default_u0.b_reg": (
        lambda v: default_u0(_TOTALS, v, SimpleNamespace(f_prime=_stop("b_reg"))),
        "[0, inf)",
        ValueError,
    ),
    "fenchel_young_gap.a": (
        lambda v: fenchel_young_gap(SimpleNamespace(f_prime=_stop("a")), v, 1.0),
        "(0, inf)",
        ValueError,
    ),
    "fenchel_young_gap.c": (
        lambda v: fenchel_young_gap(SimpleNamespace(f_prime=_stop("c")), 1.0, v),
        "[0, inf)",
        ValueError,
    ),
    # ConfusionSummary checks its counts but keeps them as given, so these
    # calls return None; the derived s_tilde = p - s and n = s + b stay in
    # range
    "ConfusionSummary.s": (lambda v: ConfusionSummary(v, 0.0, v) and None, "[-1e-09, inf)",
                           ValueError),
    "ConfusionSummary.b": (lambda v: ConfusionSummary(0.0, v, 0.0) and None, "[-1e-09, inf)",
                           ValueError),
    "ConfusionSummary.p": (lambda v: ConfusionSummary(0.0, 0.0, v) and None, "[-1e-09, inf)",
                           ValueError),
    "Model.base_score": (
        lambda v: Model("stump-boost", 1, v).base_score, "(-inf, inf)", ValueError
    ),
    "Model.threshold": (
        lambda v: Model("stump-boost", 1, 0.0, threshold=v).threshold, "[-inf, inf]", ValueError
    ),
    "CostVector.round_dual": (
        lambda v: CostVector(np.ones(2), v).round_dual, "[1e-06, inf)", ValueError
    ),
}

# sites where None asks for the default: no initial dual, CLI_B_REG
_NONE_IS_REAL_DEFAULT = {"CascadeConfig.u0", "cli --b-reg"}


def _interval(text):
    """(low, high, open_low, open_high) of an interval written "[0, 1)"."""
    low, high = text[1:-1].split(", ")
    return float(low), float(high), text[0] == "(", text[-1] == ")"


def _inside(value, text):
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        x = float(value)
    except OverflowError:
        return False
    low, high, open_low, open_high = _interval(text)
    above = x > low or (x == low and not open_low)
    below = x < high or (x == high and not open_high)
    return above and below


def _reals_around(text):
    """Each bound, the floats on both sides of it and a unit away, and any
    float, as Python and numpy scalars; then the values no site takes."""
    points = []
    for bound in _interval(text)[:2]:
        points += [bound, np.nextafter(bound, -math.inf), np.nextafter(bound, math.inf),
                   bound - 1.0, bound + 1.0]
    reals = st.one_of(st.sampled_from([float(x) for x in points]), st.floats())
    largest = float(np.finfo(np.float32).max)
    singles = [float(x) for x in points if not abs(x) < math.inf or abs(x) <= largest]
    return st.one_of(
        reals,
        reals.map(np.float64),
        st.one_of(st.sampled_from(singles), st.floats(width=32)).map(np.float32),
        st.integers(-3, 3),
        st.integers(-3, 3).map(np.int64),
        st.sampled_from([math.nan, math.inf, -math.inf, True, False, np.True_, "1", None,
                         10**400]),
    )


@settings(max_examples=1500, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(sorted(_REAL_SITES)).flatmap(
        lambda site: st.tuples(st.just(site), _reals_around(_REAL_SITES[site][1]))
    )
)
@example(("fenchel_young_gap.a", math.nan))
@example(("default_u0.b_reg", math.nan))
@example(("CascadeConfig.b_reg", True))
@example(("LearnerConfig.subsample", True))
@example(("Model.base_score", "x"))
@example(("Model.threshold", math.nan))
@example(("Model.threshold", -math.inf))
@example(("CostVector.round_dual", "x"))
@example(("SynthConfig.signal_total", None))
@example(("validate_dual", np.float32(1e-6)))
def test_every_real_site_takes_reals_in_its_interval(case):
    site, value = case
    call, interval, error = _REAL_SITES[site]
    valid = _inside(value, interval) or (value is None and site in _NONE_IS_REAL_DEFAULT)
    try:
        held = call(value)
    except _Reached as reached:
        held = reached.args[0]
    except error as exc:
        message = str(exc)
        assert "\n" not in message
        assert f" must be a real number in {interval}, got " in message
        assert not valid, f"{site} refused {value!r}: {message}"
        return
    assert valid, f"{site} accepted {value!r}"
    if held is not None and value is not None:
        assert type(held) is float and held == float(value)


def test_only_errors_decides_what_is_finite():
    """Outside errors.py nothing calls math.isfinite: a scalar goes through
    errors._real."""
    offenders = []
    for path in sorted(Path(amscascade.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "isfinite"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "math"
                or isinstance(node.func, ast.Name) and node.func.id == "isfinite"
            )
        ]
    assert offenders == []


def _tree(feature=0, left=1, right=2):
    return Tree(
        feature=[feature, -1, -1], threshold=[0.5, 0.0, 0.0], left=[left, -1, -1],
        right=[right, -1, -1], missing_left=[True, False, False], value=[0.0, 1.0, 2.0],
    )


def _dataset(labels=(1, -1), event_ids=(0, 7)):
    return WeightedDataset(np.zeros((2, 1)), list(labels), [1.0, 1.0], list(event_ids), ("x",))


def _submission(event_ids=(0, 7), selected=(1, -1)):
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "submission.csv")
        write_submission(path, list(event_ids), [0.1, 0.2], list(selected))
        return read_submission(path)


# site -> (call returning the int64 value held for the first element, error class)
_ARRAY_SITES = {
    "Tree.feature": (lambda v: _tree(feature=v).feature[0], ValueError),
    "Tree.left": (lambda v: _tree(left=v).left[0], ValueError),
    "Tree.right": (lambda v: _tree(right=v).right[0], ValueError),
    "WeightedDataset.labels": (lambda v: _dataset(labels=(v, -1)).labels[0], DataError),
    "WeightedDataset.event_ids": (lambda v: _dataset(event_ids=(v, 7)).event_ids[0], DataError),
    "write_submission.event_ids": (lambda v: _submission(event_ids=(v, 7))[0][0], DataError),
    "write_submission.selected": (lambda v: _submission(selected=(v, -1))[2][0], DataError),
}

_ELEMENTS = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-3, 3).map(float),
    st.floats(),
    st.sampled_from([0.5, 0.7, 1.2, 2.9, -0.5, math.nan, math.inf, -math.inf]),
    st.sampled_from([2.0**63, -(2.0**63), 2**70, "1"]),
)


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(_ARRAY_SITES)), _ELEMENTS)
@example("Tree.feature", 0.7)
@example("Tree.left", 1.2)
@example("Tree.right", 2.9)
@example("WeightedDataset.event_ids", 0.5)
@example("write_submission.event_ids", 1.5)
def test_int64_arrays_hold_exactly_what_they_were_given(site, value):
    call, error = _ARRAY_SITES[site]
    try:
        held = call(value)
    except error as exc:
        assert "\n" not in str(exc)
        return
    assert not isinstance(value, str) and held == value, f"{site} holds {held!r} for {value!r}"
