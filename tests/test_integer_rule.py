"""One integer rule for every scalar count and seed the package takes, one
real rule for every scalar real, one exact-cast rule for every array, and
one rule for every named choice and flag.

A scalar integer site accepts Python and numpy integers at or above its
bound and holds them as ``int``.  It answers anything else (``bool``,
floats, NaN, infinities, strings, None) with the package's own one-line
error, never with a TypeError or numpy's ValueError.  A scalar real site
accepts Python and numpy reals inside its interval and holds them as
``float``; ``bool``, NaN, strings, None and reals outside the interval get
the site's one-line error, which names the interval.  An array site holds
(or computes from) exactly the values it was given, or raises the error
class of its other checks in one line: no fraction, NaN or infinity is
truncated to an integer, no imaginary part dropped and no string parsed.
A choice site holds the option its value equals, as a plain ``str`` or
``bool``; a flag takes only a Python or numpy bool, a named choice only a
string, and anything else gets the site's one-line error.
"""

import argparse
import ast
import functools
import math
import numbers
import os
import re
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
    AMS3,
    U_MIN,
    CascadeConfig,
    ConfigError,
    ConfusionSummary,
    CostVector,
    DataError,
    Ensemble,
    LearnerConfig,
    Model,
    SplitSpec,
    SynthConfig,
    TrainingError,
    Tree,
    WeightedDataset,
    boost_one_round,
    confusion_summary,
    custom_measure,
    default_u0,
    empty_model,
    ensemble_average,
    fenchel_young_gap,
    format_cascade_config,
    parse_cascade_config,
    predict_scores,
    read_submission,
    rerun_cascade,
    resolve_measure,
    run_all_checks,
    select_threshold,
    split,
    synthesize,
    weighted_error,
    write_submission,
)
from amscascade import cascade, checks, cli, learner
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


def _past_check(module, local, call, after):
    # the site's first call after its check, the function ``after`` of
    # ``module`` (errors._array, say), ends the call
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, after, _stop(local))
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
        lambda v: _past_check(
            cascade, "b_reg", lambda: select_threshold([], None, AMS2, v), "_array"
        ),
        "[0, inf)",
        ValueError,
    ),
    "confusion_summary.b_reg": (
        lambda v: _past_check(
            significance_module, "b_reg", lambda: confusion_summary(_EVENTS, [], v), "_labels"
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


def test_only_errors_reads_an_array_kind():
    """Outside errors.py no code reads ``.dtype.kind``: an array goes through
    errors._array or errors._labels."""
    offenders = []
    for path in sorted(Path(amscascade.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr == "kind"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "dtype"
        ]
    assert offenders == []


def _tree(**columns):
    # a root split on feature 0 at 0.5, NaN going left, and two leaves
    fields = dict(feature=[0, -1, -1], threshold=[0.5, 0.0, 0.0], left=[1, -1, -1],
                  right=[2, -1, -1], missing_left=[True, False, False], value=[0.0, 1.0, 2.0])
    return Tree(**(fields | columns))


def _dataset(**columns):
    # event 0 is signal, event 7 background, each of weight 1
    fields = dict(features=np.zeros((2, 1)), labels=[1, -1], weights=[1.0, 1.0],
                  event_ids=[0, 7], column_names=("x",))
    return WeightedDataset(**(fields | columns))


def _submission(**columns):
    fields = dict(event_ids=[0, 7], scores=[0.1, 0.2], selected=[1, -1])
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "submission.csv")
        write_submission(path, **(fields | columns))
        return read_submission(path)


def _logistic(**vectors):
    fields = dict(coefficients=[1.0], impute_values=[0.0])
    return Model("logistic", 1, 0.0, **(fields | vectors))


# site -> (call(v, box) with v the first entry of the column box makes,
# returning what the site holds or computes from it; the array rule, float,
# np.int64, bool or "labels"; the site's error class; what the call returns
# for an accepted v, as a function of v cast to the rule's dtype)
_ARRAY_SITES = {
    "WeightedDataset.features": (
        lambda v, box: _dataset(features=box([[v], [0.0]])).features[0, 0], float, DataError
    ),
    "WeightedDataset.labels": (
        lambda v, box: _dataset(labels=box([v, -1])).labels[0], "labels", DataError
    ),
    "WeightedDataset.weights": (
        lambda v, box: _dataset(weights=box([v, 1.0])).weights[0], float, DataError
    ),
    "WeightedDataset.event_ids": (
        lambda v, box: _dataset(event_ids=box([v, 7])).event_ids[0], np.int64, DataError
    ),
    "CostVector.costs": (
        lambda v, box: CostVector(box([v, 1.0]), 1.0).costs[0], float, ValueError
    ),
    "Tree.feature": (lambda v, box: _tree(feature=box([v, -1, -1])).feature[0], np.int64,
                     ValueError),
    "Tree.threshold": (lambda v, box: _tree(threshold=box([v, 0.0, 0.0])).threshold[0], float,
                       ValueError),
    "Tree.left": (lambda v, box: _tree(left=box([v, -1, -1])).left[0], np.int64, ValueError),
    "Tree.right": (lambda v, box: _tree(right=box([v, -1, -1])).right[0], np.int64, ValueError),
    "Tree.missing_left": (
        lambda v, box: _tree(missing_left=box([v, False, False])).missing_left[0], bool,
        ValueError,
    ),
    "Tree.value": (lambda v, box: _tree(value=box([v, 1.0, 2.0])).value[0], float, ValueError),
    "Model.coefficients": (
        lambda v, box: _logistic(coefficients=box([v])).coefficients[0], float, ValueError
    ),
    "Model.impute_values": (
        lambda v, box: _logistic(impute_values=box([v])).impute_values[0], float, ValueError
    ),
    "predict_scores.features": (
        lambda v, box: predict_scores(_logistic(), box([[v]]))[0], float, DataError,
        lambda x: 0.0 if math.isnan(x) else x,
    ),
    "Tree.predict.features": (
        lambda v, box: _tree().predict(box([[v]]))[0], float, DataError,
        lambda x: 1.0 if x < 0.5 or math.isnan(x) else 2.0,
    ),
    "write_submission.event_ids": (
        lambda v, box: _submission(event_ids=box([v, 7]))[0][0], np.int64, DataError
    ),
    "write_submission.scores": (
        lambda v, box: _submission(scores=box([v, 0.2]))[1][0], float, DataError,
        lambda x: 1 if x <= 0.2 else 2,  # event 0's rank; a tie goes to the lower id
    ),
    "write_submission.selected": (
        lambda v, box: _submission(selected=box([v, -1]))[2][0], "labels", DataError
    ),
    "select_threshold.scores": (
        lambda v, box: select_threshold(box([v, 0.0]), _dataset(), AMS2), float, ValueError,
        lambda x: 0.0 if x > 0.0 else -math.inf,  # select the signal alone when it ranks first
    ),
    "confusion_summary.predictions": (
        lambda v, box: confusion_summary(_dataset(), box([v, -1])).s, "labels", ValueError,
        lambda x: 1.0 if x == 1 else 0.0,
    ),
    "weighted_error.predictions": (
        lambda v, box: weighted_error(_dataset(), CostVector([1.0, 2.0], 1.0), box([v, -1])),
        "labels", ValueError,
        lambda x: 0.0 if x == 1 else 1.0,
    ),
}

_ELEMENTS = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([np.int64(-1), np.uint64(2**63), np.uint8(1), True, False]),
    st.integers(-3, 3).map(float),
    st.floats(),
    st.sampled_from([0.5, 0.7, 1.2, 2.9, -0.5, math.nan, math.inf, -math.inf]),
    st.sampled_from([2.0**63, -(2.0**63), 2**70, 10**400]),
    st.complex_numbers(max_magnitude=3.0),
    st.sampled_from([1 + 5j, 1 + 0j, np.complex128(1j), "1", "a", "", None, object()]),
)


def _objects(items):
    return np.array(items, dtype=object)


def _same(a, b):
    return a == b or (a != a and b != b)


@settings(max_examples=2000, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(_ARRAY_SITES)), _ELEMENTS, st.sampled_from([list, _objects]))
@example("Tree.feature", 0.7, list)
@example("Tree.left", 1.2, list)
@example("Tree.right", 2.9, list)
@example("WeightedDataset.event_ids", 0.5, list)
@example("write_submission.event_ids", 1.5, list)
@example("WeightedDataset.features", 1 + 5j, list)
@example("CostVector.costs", 1 + 1j, list)
@example("select_threshold.scores", 1 + 1j, list)
@example("Tree.value", "1", list)
@example("weighted_error.predictions", 0.0, list)
@example("write_submission.scores", None, list)
@example("WeightedDataset.labels", 1, _objects)
def test_every_array_site_holds_exactly_what_it_was_given(site, value, box):
    call, dtype, error, *returns = _ARRAY_SITES[site]
    expect = returns[0] if returns else (lambda x: x)
    try:
        held = call(value, box)
    except error as exc:
        assert "\n" not in str(exc)
        return
    assert box is list and isinstance(value, numbers.Real), f"{site} accepted {value!r}"
    x = float(value) if dtype is float else value
    assert _same(held, expect(x)), f"{site} holds {held!r} for {value!r}"


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: _dataset(features=np.array([[1 + 5j], [2]])), DataError),
        (lambda: CostVector(np.array([1 + 1j, 2]), 1.0), ValueError),
        (lambda: predict_scores(empty_model("stump-boost", 2), np.array([[1j, 1j]])), DataError),
        (lambda: select_threshold(np.arange(2) * (1 + 1j), _dataset(), "ams2"), ValueError),
    ],
    ids=["WeightedDataset.features", "CostVector.costs", "predict_scores", "select_threshold"],
)
def test_complex_input_is_refused_not_cast_to_its_real_part(call, error):
    with pytest.raises(error, match=r"must be real numbers, got an array of complex128$"):
        call()


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: _dataset(features=[["1"], ["2"]]), DataError),
        (lambda: _dataset(weights=["1", "1"]), DataError),
        (lambda: _dataset().take([0, 1], ["1", "1"]), DataError),
        (lambda: predict_scores(empty_model("stump-boost", 1), [["1"]]), DataError),
        (lambda: _tree().predict([["1"]]), DataError),
        (lambda: _submission(scores=["0.1", "0.2"]), DataError),
        (lambda: CostVector(["1", "2"], 1.0), ValueError),
        (lambda: _tree(value=["0", "1", "2"]), ValueError),
        (lambda: _logistic(coefficients=["1"]), ValueError),
    ],
    ids=["WeightedDataset.features", "WeightedDataset.weights", "take.weights", "predict_scores",
         "Tree.predict", "write_submission.scores", "CostVector.costs", "Tree.value",
         "Model.coefficients"],
)
def test_strings_get_the_sites_own_error(call, error):
    with pytest.raises(error, match=r"must be real numbers, got an array of <U\d$"):
        call()


def test_a_ragged_sequence_gets_the_sites_own_error():
    with pytest.raises(DataError, match=r"^features must be real numbers, got a ragged sequence$"):
        _dataset(features=[[1.0], [2.0, 3.0]])


@pytest.mark.parametrize(
    "predictions, message",
    [
        (np.zeros(2), "must take values in {-1, +1}, got 0"),
        (np.array(["a", "a"]), "must be integers, got an array of <U1"),
    ],
)
def test_weighted_error_takes_only_plus_or_minus_one(predictions, message):
    costs = CostVector([1.0, 2.0], 1.0)
    with pytest.raises(ValueError, match=re.escape("predictions " + message) + "$"):
        weighted_error(_dataset(), costs, predictions)


_MODEL = empty_model("stump-boost", 1)


@pytest.mark.parametrize(
    "call, shown",
    [
        (lambda: Ensemble((_MODEL,), (True,)), "True"),
        (lambda: Ensemble((_MODEL,), ("1",)), "'1'"),
        (lambda: Ensemble((_MODEL,), (math.nan,)), "nan"),
        (lambda: ensemble_average([_MODEL], ["1"]), "'1'"),
        (lambda: ensemble_average([_MODEL], [True]), "True"),
        (lambda: ensemble_average([_MODEL], [None]), "None"),
        (lambda: ensemble_average([_MODEL, _MODEL], [math.inf, 1.0]), "inf"),
        (lambda: ensemble_average([_MODEL], [-1.0]), "-1.0"),
    ],
    ids=["Ensemble-bool", "Ensemble-str", "Ensemble-nan", "average-str", "average-bool",
         "average-None", "average-inf", "average-negative"],
)
def test_mixing_weights_take_the_real_rule(call, shown):
    message = f"mixing weight must be a real number in [0, inf), got {shown}"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        call()


def test_mixing_weights_are_held_as_floats():
    weights = Ensemble((_MODEL,), (np.float64(1.0),)).weights
    assert weights == (1.0,) and type(weights[0]) is float
    assert ensemble_average([_MODEL, _MODEL], [np.int64(1), 3]).weights == (0.25, 0.75)


@pytest.mark.parametrize(
    "counts, name",
    [((1.0, 1.0, 1.0, "x"), "b_reg"), ((1.0, "x", 1.0), "background"),
     ((1.0, None, 1.0), "background"), ((1.0, 1.0, 1.0, -1.0), "b_reg")],
    ids=["b_reg-str", "background-str", "background-None", "b_reg-negative"],
)
def test_from_counts_checks_before_it_adds(counts, name):
    message = f"{name} must be a real number in [-1e-09, inf), got "
    with pytest.raises(ValueError, match=re.escape(message)):
        ConfusionSummary.from_counts(*counts)


def _injected(value):
    # True where the Fenchel-Young suite is handed the perturbed measure
    try:
        _all_checks("fy_measures", inject_fault=value)
    except _Reached as reached:
        return reached.args[0][0] is not AMS2


_KINDS = ("stump-boost", "tree-boost", "logistic")
_BOOSTING = _KINDS[:2]
_MEASURES = ("ams2", "ams3")
_FLAG = (False, True)

# site -> (call returning the option the site holds, or None where it keeps
# none; its options; its error class)
_CHOICE_SITES = {
    "CascadeConfig.variant": (lambda v: CascadeConfig(variant=v).variant, ("fresh", "warmstart"),
                              ConfigError),
    "CascadeConfig.validation_source": (
        lambda v: CascadeConfig(validation_source=v).validation_source, ("held-out", "training"),
        ConfigError,
    ),
    "CascadeConfig.update_duals": (lambda v: CascadeConfig(update_duals=v).update_duals, _FLAG,
                                   ConfigError),
    "CascadeConfig.measure": (lambda v: CascadeConfig(measure=v).measure, _MEASURES,
                              ConfigError),
    "LearnerConfig.kind": (lambda v: LearnerConfig(kind=v).kind, _KINDS, ConfigError),
    "SplitSpec.renormalize": (lambda v: SplitSpec(0.5, 0, renormalize=v).renormalize, _FLAG,
                              ConfigError),
    "run_all_checks.inject_fault": (_injected, _FLAG, ConfigError),
    # the feature count is checked right after the kind
    "Model.kind": (
        lambda v: _past_check(learner, "kind", lambda: Model(v, 1, 0.0), "_integer"),
        _KINDS,
        ValueError,
    ),
    "empty_model.kind": (lambda v: empty_model(v, 1).kind, _BOOSTING, ValueError),
    # a stand-in model and config of kind v pass the mismatch check
    "boost_one_round.kind": (
        lambda v: _past_check(
            learner, None,
            lambda: boost_one_round(SimpleNamespace(kind=v), None, None, SimpleNamespace(kind=v)),
            "_check_training_inputs",
        ),
        _BOOSTING,
        TrainingError,
    ),
    "resolve_measure": (lambda v: resolve_measure(v).name, _MEASURES, ValueError),
}

# sites where None asks for the default: the variant's own summary
_NONE_IS_CHOICE_DEFAULT = {"CascadeConfig.validation_source"}
# sites that take a measure name in any case; CascadeConfig keeps the case
_ANY_CASE = {"CascadeConfig.measure", "resolve_measure"}


def _choices_for(options):
    """Each option, as given and as numpy scalars, a case variant of each
    name, and the values no site takes."""
    names = [o for o in options if isinstance(o, str)]
    return st.one_of(
        st.sampled_from(options),
        st.sampled_from(options).map(np.str_ if names else np.bool_),
        st.sampled_from(names + ["x"]).map(str.upper),
        st.sampled_from(names + ["x"]).map(str.title),
        st.sampled_from([0, 1, np.int64(1), 1.0, "true", "True", "", "fresh", "ams2",
                         "logistic", None, [True], list(options), tuple(options)]),
    )


def _option(site, value):
    """The option a site holds for ``value``, or None if it takes none."""
    options = _CHOICE_SITES[site][1]
    if isinstance(options[0], bool):
        return bool(value) if isinstance(value, (bool, np.bool_)) else None
    if not isinstance(value, str):
        return None
    key = value.lower() if site in _ANY_CASE else value
    if key not in options:
        return None
    # CascadeConfig keeps a measure name in the case it was given
    return str(value) if site == "CascadeConfig.measure" else str(key)


@settings(max_examples=1500, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from(sorted(_CHOICE_SITES)).flatmap(
        lambda site: st.tuples(st.just(site), _choices_for(_CHOICE_SITES[site][1]))
    )
)
@example(("CascadeConfig.update_duals", "no"))
@example(("CascadeConfig.update_duals", None))
@example(("CascadeConfig.update_duals", np.False_))
@example(("SplitSpec.renormalize", None))
@example(("run_all_checks.inject_fault", "no"))
@example(("run_all_checks.inject_fault", np.True_))
@example(("CascadeConfig.measure", 3))
@example(("CascadeConfig.measure", np.str_("AMS3")))
@example(("CascadeConfig.variant", np.str_("warmstart")))
@example(("LearnerConfig.kind", "Logistic"))
def test_every_choice_site_holds_one_of_its_options(case):
    site, value = case
    call, options, error = _CHOICE_SITES[site]
    option = _option(site, value)
    default = value is None and site in _NONE_IS_CHOICE_DEFAULT
    try:
        held = call(value)
    except _Reached as reached:
        held = reached.args[0]
    except error as exc:
        message = str(exc)
        assert "\n" not in message
        assert f" must be one of {options}, got " in message
        assert option is None and not default, f"{site} refused {value!r}: {message}"
        return
    assert option is not None or default, f"{site} accepted {value!r}"
    if held is not None:
        assert type(held) is type(option) and held == option


# the tuples each choice takes its options from, and the measures' table
_OPTION_TUPLES = {"_VARIANTS", "_VALIDATION_SOURCES", "_LEARNER_KINDS", "_BOOSTING_KINDS",
                  "_BUILTINS"}


def test_only_errors_tests_membership_of_a_choice():
    """Outside errors.py no ``in`` or ``not in`` test reads an option tuple
    or a built-in measure name: a choice goes through errors._choice."""
    offenders = []
    for path in sorted(Path(amscascade.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            for op, right in zip(node.ops, node.comparators):
                if not isinstance(op, (ast.In, ast.NotIn)):
                    continue
                if any(
                    isinstance(n, ast.Name) and n.id in _OPTION_TUPLES
                    or isinstance(n, ast.Constant) and n.value in _MEASURES
                    for n in ast.walk(right)
                ):
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _cascade_flag(dest):
    commands = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return next(a for a in commands.choices["cascade"]._actions if a.dest == dest)


def test_cli_choices_are_the_librarys_tuples():
    assert _cascade_flag("variant").choices is cascade._VARIANTS
    assert _cascade_flag("measure").choices == tuple(significance_module._BUILTINS)
    assert cli.main(["cascade", "--synth", "default", "--variant", "loop"]) == cli.EXIT_CONFIG


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: CascadeConfig(update_duals="no"),
         "update_duals must be one of (False, True), got 'no'"),
        (lambda: CascadeConfig(update_duals=None),
         "update_duals must be one of (False, True), got None"),
        (lambda: SplitSpec(0.3, 0, renormalize=None),
         "renormalize must be one of (False, True), got None"),
        (lambda: run_all_checks(instances=1, inject_fault="no"),
         "inject_fault must be one of (False, True), got 'no'"),
        (lambda: CascadeConfig(measure=3), "measure must be one of ('ams2', 'ams3'), got 3"),
        (lambda: CascadeConfig(learner="tree-boost"),
         "learner must be a LearnerConfig, got str"),
    ],
    ids=["update_duals-str", "update_duals-None", "renormalize-None", "inject_fault-str",
         "measure-int", "learner-str"],
)
def test_a_config_record_refuses_what_its_run_would_misread(call, message):
    with pytest.raises(ConfigError, match=re.escape(message) + "$"):
        call()


def test_model_trees_are_a_tuple_of_trees():
    tree = _tree()
    model = Model("stump-boost", 1, 0.0, trees=[tree])
    assert type(model.trees) is tuple and model.trees == (tree,)
    # a warm round appends to the stored tuple
    config = LearnerConfig(kind="stump-boost")
    grown = boost_one_round(model, _dataset(), CostVector([1.0, 1.0], 1.0), config)
    assert grown.trees[0] is tree and grown.n_trees == 2
    with pytest.raises(ValueError, match="^trees must hold only Tree objects, got str$"):
        Model("stump-boost", 1, 0.0, trees=("x",))
    with pytest.raises(ValueError, match="^trees must be a tuple of Tree, got Tree$"):
        Model("stump-boost", 1, 0.0, trees=tree)
    with pytest.raises(ValueError, match="^a logistic model takes no trees$"):
        _logistic(trees=(tree,))


@pytest.mark.parametrize(
    "names, message",
    [
        ("x", "column names must be a sequence of str, got str"),
        (None, "column names must be a sequence of str, got NoneType"),
        ((1,), "column names must be str, got int"),
    ],
    ids=["str", "None", "int"],
)
def test_column_names_are_a_sequence_of_str(names, message):
    with pytest.raises(DataError, match=re.escape(message) + "$"):
        _dataset(column_names=names)


@pytest.mark.parametrize(
    "events, message",
    [
        (SimpleNamespace(labels=[0, 5], weights=[1.0, 2.0]),
         "labels must take values in {-1, +1}, got 0"),
        (SimpleNamespace(labels=[1, -1], weights=["1", "2"]),
         "weights must be real numbers, got an array of <U1"),
        (SimpleNamespace(labels=[1, -1], weights=[1 + 1j, 2.0]),
         "weights must be real numbers, got an array of complex128"),
        (SimpleNamespace(labels=[1, -1], weights=[1.0]),
         "weights shape (1,) does not match labels (2,)"),
    ],
    ids=["labels", "weights-str", "weights-complex", "weights-shape"],
)
def test_confusion_summary_checks_its_datasets_arrays(events, message):
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        confusion_summary(events, [1, -1])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: CascadeConfig(T=np.array([[1], [2]])),
         "T must be an integer >= 1, got array([[1], [2]])"),
        (lambda: SplitSpec(np.array([[0.1], [0.2]]), seed=0),
         "validation_fraction must be a real number in (0, 1), got array([[0.1], [0.2]])"),
        (lambda: CascadeConfig(variant=np.array([["fresh"], ["warmstart"]])),
         "variant must be one of ('fresh', 'warmstart'), got "
         "array([['fresh'], ['warmstart']], dtype='<U9')"),
    ],
    ids=["integer", "real", "choice"],
)
def test_a_refused_value_is_shown_on_one_line(call, message):
    """A value whose repr spans lines, such as a 2-D array, is shown on one."""
    with pytest.raises(ConfigError, match=re.escape(message) + "$"):
        call()


def test_format_cascade_config_refuses_a_custom_measure():
    measure = custom_measure(AMS3.f, AMS3.f_conjugate, AMS3.f_prime, AMS3.h)
    with pytest.raises(ConfigError, match="^custom measure 'custom' has no config-file form$"):
        format_cascade_config(CascadeConfig(measure=measure))
    # a built-in instance still round-trips, as its name
    config = CascadeConfig(measure=AMS3)
    assert parse_cascade_config(format_cascade_config(config)).measure == "ams3"
