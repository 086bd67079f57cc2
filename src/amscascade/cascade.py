"""The weighted classification cascade and its supporting tooling.

Each cascade round alternates two steps: train a cost-sensitive classifier
under the current dual weight u, then move u to the closed-form minimizer
of the dual risk for that classifier's confusion summary.  Because the
dual risk at fixed u is (up to constants) a weighted classification error,
any round that strictly reduces that error is guaranteed to strictly
increase the training significance; ``monotonicity_audit`` checks this
chain on recorded traces.

One round loop, ``run_cascade``, serves both variants; they differ only in
the classification step.  The fresh variant trains a new model every
round, watches validation significance for a stall, runs a fixed number of
extra rounds afterwards (never past T), and returns the best round's
model.  The warm-start variant grows one persistent boosted model by a
single tree per round and always runs the full budget.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .data import WeightedDataset
from .errors import (
    CascadeError,
    ConfigError,
    DegenerateInputError,
    _array,
    _choice,
    _integer,
    _open,
    _real,
)
from .learner import (
    LearnerConfig,
    Model,
    boost_one_round,
    classify,
    make_cost_vector,
    predict_scores,
    train,
    weighted_error,
)
from .significance import (
    _BUILTINS,
    U_MAX,
    U_MIN,
    ConfusionSummary,
    SignificanceMeasure,
    clamp_dual,
    confusion_summary,
    optimal_u,
    resolve_measure,
    significance_curve,
)

__all__ = [
    "CascadeConfig",
    "RoundRecord",
    "CascadeTrace",
    "AuditReport",
    "Ensemble",
    "default_u0",
    "run_cascade",
    "run_cascade_fresh",
    "run_cascade_warmstart",
    "rerun_cascade",
    "monotonicity_audit",
    "ensemble_average",
    "ensemble_scores",
    "select_threshold",
    "write_trace_csv",
    "parse_cascade_config",
    "format_cascade_config",
]

_VARIANTS = ("fresh", "warmstart")
_VALIDATION_SOURCES = ("held-out", "training")


@dataclass(frozen=True)
class CascadeConfig:
    """Full specification of one cascade run.

    ``u0 = None`` means "use the dual optimum of the constant all-positive
    classifier on the training set", a natural first linearization.
    ``validation_source`` chooses which dataset's confusion summary drives
    the dual updates; None picks the variant's default (held-out for
    fresh, training for warmstart).  ``update_duals = False`` freezes u at
    u0 for the whole run, which reduces the warm-start variant to plain
    cost-weighted boosting.
    """

    measure: Union[str, SignificanceMeasure] = "ams2"
    u0: Optional[float] = None
    T: int = 10
    variant: str = "fresh"
    extra_rounds_after_stall: int = 10
    b_reg: float = 0.0
    learner: LearnerConfig = LearnerConfig()
    seed: int = 0
    validation_source: Optional[str] = None
    update_duals: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.measure, SignificanceMeasure):
            try:
                resolve_measure(self.measure)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            # a name is kept as given, in its case, but as a plain str
            object.__setattr__(self, "measure", str(self.measure))
        if self.u0 is not None:
            object.__setattr__(self, "u0", _real("u0", self.u0, 0.0, open_low=True, open_high=True))
        for name, least in (("T", 1), ("extra_rounds_after_stall", 0), ("seed", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), least))
        object.__setattr__(self, "variant", _choice("variant", self.variant, _VARIANTS))
        object.__setattr__(self, "b_reg", _real("b_reg", self.b_reg, 0.0, open_high=True))
        if not isinstance(self.learner, LearnerConfig):
            raise ConfigError(f"learner must be a LearnerConfig, got {type(self.learner).__name__}")
        if self.validation_source is not None:
            source = _choice("validation_source", self.validation_source, _VALIDATION_SOURCES)
            object.__setattr__(self, "validation_source", source)
        flag = _choice("update_duals", self.update_duals, (False, True))
        object.__setattr__(self, "update_duals", flag)

    @property
    def effective_validation_source(self) -> str:
        if self.validation_source is not None:
            return self.validation_source
        return "held-out" if self.variant == "fresh" else "training"


@dataclass(frozen=True)
class RoundRecord:
    """One cascade round: the dual it ran under and what it achieved."""

    round_index: int  # 1-based
    u_prev: float
    weighted_err: float  # training weighted error of this round's model under u_prev
    train_sig: float
    val_sig: float
    u_next: float
    train_summary: ConfusionSummary
    val_summary: ConfusionSummary


@dataclass(frozen=True)
class CascadeTrace:
    """Complete record of a cascade run."""

    records: tuple[RoundRecord, ...]
    chosen_round: int  # 1-based index of the returned model's round
    variant: str
    validation_source: str
    measure_kind: str
    stall_round: Optional[int] = None  # first round whose val sig failed to increase


@dataclass(frozen=True)
class AuditReport:
    """Result of checking conditional monotonicity on a trace.

    For every consecutive round pair where the new model strictly reduced
    the training weighted error under the incumbent dual weight, training
    significance must strictly increase.  ``violations`` lists pairs where
    it instead dropped by more than the 1e-9 slack.
    """

    pairs_checked: int
    pairs_conditional: int
    violations: tuple[tuple[int, float, float], ...]  # (round t, sig_t, sig_{t+1})

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class Ensemble:
    """Rank-averaged model mixture."""

    models: tuple[Model, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.models:
            raise ValueError("ensemble requires at least one model")
        if len(self.weights) != len(self.models):
            raise ValueError("one mixing weight per model required")
        weights = tuple(
            _real("mixing weight", w, 0.0, open_high=True, error=ValueError) for w in self.weights
        )
        object.__setattr__(self, "weights", weights)
        if not abs(sum(weights) - 1.0) <= 1e-12:
            raise ValueError("mixing weights must sum to 1")


def default_u0(
    train_data: WeightedDataset, b_reg: float, measure: SignificanceMeasure
) -> float:
    """Dual optimum of the constant all-positive classifier: the round
    update ``_next_dual`` of the training summary that selects every event.
    """
    b_reg = _real("b_reg", b_reg, 0.0, open_high=True, error=ValueError)
    signal = train_data.signal_total
    summary = ConfusionSummary.from_counts(signal, train_data.background_total, signal, b_reg)
    if summary.b <= 0.0:
        raise CascadeError("training set has no background weight and b_reg = 0")
    return _next_dual(summary, measure)


def _next_dual(summary: ConfusionSummary, measure: SignificanceMeasure) -> float:
    try:
        return optimal_u(summary, measure)
    except DegenerateInputError:
        # b = 0, or f'(s / b) is infinite: floor the dual when nothing was
        # selected and ceil it otherwise, instead of aborting the run
        return U_MIN if summary.s == 0.0 else U_MAX


def derive_seed(seed: int, *keys: int) -> int:
    """The package's one seed derivation: word 0 of ``SeedSequence([seed, *keys])``.

    A seed or key that is not an integer >= 0 is a ConfigError.
    """
    words = [_integer("seed", seed, 0), *(_integer("seed key", key, 0) for key in keys)]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


def run_cascade(
    train_data: WeightedDataset,
    validation: WeightedDataset,
    config: CascadeConfig,
) -> tuple[Model, CascadeTrace]:
    """Run the cascade variant named by ``config.variant``.

    Every round costs the training set under the incumbent dual weight,
    takes the variant's classification step (see the module docstring),
    then moves the dual to the closed-form optimum of the designated
    summary.  With ``update_duals`` off the warm-start variant is exactly
    plain cost-weighted boosting for T rounds (same seed, same scores bit
    for bit).
    """
    fresh = config.variant == "fresh"
    if not fresh and config.learner.kind == "logistic":
        raise ConfigError("the warm-start variant requires a boosting learner kind")
    measure = resolve_measure(config.measure)
    source = config.effective_validation_source
    u = clamp_dual(config.u0) if config.u0 is not None else default_u0(
        train_data, config.b_reg, measure
    )

    warm_config = replace(config.learner, seed=config.seed)
    records: list[RoundRecord] = []
    models: list[Model] = []
    stall_round: Optional[int] = None
    stop_after = config.T

    for t in range(1, config.T + 1):
        costs = make_cost_vector(train_data, u, measure)
        if fresh:
            model = train(
                train_data, costs, replace(config.learner, seed=derive_seed(config.seed, t))
            )
        elif t == 1:
            model = train(train_data, costs, replace(warm_config, rounds=1))
        else:
            model = boost_one_round(model, train_data, costs, warm_config)

        train_preds = classify(model, train_data)
        val_preds = classify(model, validation)
        train_summary = confusion_summary(train_data, train_preds, config.b_reg)
        val_summary = confusion_summary(validation, val_preds, config.b_reg)
        designated = train_summary if source == "training" else val_summary

        # lenient: a zero-background selection ranks rounds as +inf, not an error
        train_sig = float(significance_curve(train_summary.s, train_summary.b, measure))
        val_sig = float(significance_curve(val_summary.s, val_summary.b, measure))
        u_next = _next_dual(designated, measure) if config.update_duals else u

        records.append(
            RoundRecord(
                round_index=t,
                u_prev=u,
                weighted_err=weighted_error(train_data, costs, train_preds),
                train_sig=train_sig,
                val_sig=val_sig,
                u_next=u_next,
                train_summary=train_summary,
                val_summary=val_summary,
            )
        )
        if fresh:
            models.append(model)
            if stall_round is None and t > 1 and val_sig <= records[-2].val_sig:
                stall_round = t
                stop_after = min(config.T, t + config.extra_rounds_after_stall)
            if t >= stop_after:
                break
        u = u_next

    val_sigs = [r.val_sig for r in records]
    if max(val_sigs) <= 0.0:
        raise CascadeError(
            "every round selected zero validation signal; no usable model"
        )
    if fresh:
        chosen_round = int(np.argmax(val_sigs)) + 1  # first maximum on ties
        model = models[chosen_round - 1]
    else:
        chosen_round = config.T
    trace = CascadeTrace(
        records=tuple(records),
        chosen_round=chosen_round,
        variant=config.variant,
        validation_source=source,
        measure_kind=measure.name,
        stall_round=stall_round,
    )
    return model, trace


def run_cascade_fresh(
    train_data: WeightedDataset,
    validation: WeightedDataset,
    config: CascadeConfig,
) -> tuple[Model, CascadeTrace]:
    """``run_cascade`` for a config whose variant is 'fresh'."""
    if config.variant != "fresh":
        raise ConfigError(f"run_cascade_fresh requires variant 'fresh', got {config.variant!r}")
    return run_cascade(train_data, validation, config)


def run_cascade_warmstart(
    train_data: WeightedDataset,
    validation: WeightedDataset,
    config: CascadeConfig,
) -> tuple[Model, CascadeTrace]:
    """``run_cascade`` for a config whose variant is 'warmstart'."""
    if config.variant != "warmstart":
        raise ConfigError(
            f"run_cascade_warmstart requires variant 'warmstart', got {config.variant!r}"
        )
    return run_cascade(train_data, validation, config)


def rerun_cascade(
    train_data: WeightedDataset,
    validation: WeightedDataset,
    config: CascadeConfig,
    repeats: int,
    top_k: Optional[int] = None,
) -> list[tuple[Model, CascadeTrace]]:
    """Run the cascade ``repeats`` times under derived seeds.

    Results come back sorted by best validation significance, best first,
    truncated to ``top_k`` when given.  Rerun r uses a seed derived from
    (config.seed, r), so the whole batch is reproducible from one seed.
    """
    repeats = _integer("repeats", repeats, 1)
    if top_k is not None:
        top_k = _integer("top_k", top_k, 1)
    results = []
    for r in range(repeats):
        run_config = replace(config, seed=derive_seed(config.seed, 7919, r))
        results.append(run_cascade(train_data, validation, run_config))
    results.sort(key=lambda pair: -max(rec.val_sig for rec in pair[1].records))
    return results[:top_k]


def _werr_from_summary(summary: ConfusionSummary, u: float, measure: SignificanceMeasure) -> float:
    # weighted error of a classifier under dual u, reconstructed from its
    # confusion summary: false positives cost w f*(u), false negatives w u
    return summary.raw_background * float(measure.f_conjugate(u)) + summary.s_tilde * u


def monotonicity_audit(
    trace: CascadeTrace, measure: Optional[SignificanceMeasure] = None
) -> AuditReport:
    """Check the cascade's conditional improvement guarantee on a trace.

    For rounds t and t+1: if the round-(t+1) model has strictly smaller
    training weighted error than the round-t model when both are costed at
    u_t, the round-(t+1) training significance must strictly exceed round
    t's.  Drops larger than 1e-9 are violations.
    """
    if measure is None:
        measure = resolve_measure(trace.measure_kind)
    violations = []
    conditional = 0
    records = trace.records
    for prev, new in zip(records, records[1:]):
        u_t = prev.u_next
        err_prev = _werr_from_summary(prev.train_summary, u_t, measure)
        err_new = _werr_from_summary(new.train_summary, u_t, measure)
        if err_new < err_prev:
            conditional += 1
            if new.train_sig <= prev.train_sig - 1e-9:
                violations.append((prev.round_index, prev.train_sig, new.train_sig))
    return AuditReport(
        pairs_checked=max(len(records) - 1, 0),
        pairs_conditional=conditional,
        violations=tuple(violations),
    )


def _rank_normalize(scores: np.ndarray) -> np.ndarray:
    """Zero-based average ranks over n - 1; any NaN makes every entry NaN.

    Each run of equal sorted values (``-0.0 == 0.0``) shares the mean of its
    zero-based positions ``(start + end - 1) / 2``, an exact half-integer,
    so the result matches ``(rankdata(scores) - 1) / (n - 1)`` bit for bit.
    """
    n = scores.shape[0]
    if n == 1:
        return np.array([0.5])
    if np.isnan(scores).any():
        return np.full(n, np.nan)
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], n]
    ranks = np.empty(n)
    ranks[order] = np.repeat((starts + ends - 1) / 2.0, ends - starts)
    return ranks / (n - 1.0)


def ensemble_average(
    models: Sequence[Model], weights: Optional[Sequence[float]] = None
) -> Ensemble:
    """Mix models with normalized nonnegative weights (uniform by default)."""
    if len(models) == 0:
        raise ValueError("ensemble_average requires at least one model")
    if weights is None:
        weights = [1.0] * len(models)
    raw = [_real("mixing weight", w, 0.0, open_high=True, error=ValueError) for w in weights]
    total = sum(raw)
    if total <= 0.0:
        raise ValueError("mixing weights must have positive sum")
    return Ensemble(models=tuple(models), weights=tuple(w / total for w in raw))


def ensemble_scores(
    ensemble: Ensemble, data: Union[WeightedDataset, np.ndarray]
) -> np.ndarray:
    """Weighted mean of per-model rank-normalized scores.

    Members' raw score scales are incommensurable, so each model's scores
    are first mapped to average ranks scaled into [0, 1].
    """
    out = None
    for model, weight in zip(ensemble.models, ensemble.weights):
        contribution = weight * _rank_normalize(predict_scores(model, data))
        out = contribution if out is None else out + contribution
    return out


def select_threshold(
    scores: np.ndarray,
    dataset: WeightedDataset,
    measure: Union[str, SignificanceMeasure],
    b_reg: float = 0.0,
) -> float:
    """Significance-maximizing decision cut for given margin scores.

    Scans every realizable selection (descending score order, cutting only
    where the score strictly drops) with an incremental summary, and
    returns a threshold such that ``score > threshold`` reproduces the best
    selection.  Ties prefer fewer selected events.  Selecting nothing
    returns the maximum score; selecting everything returns -inf.
    """
    measure = resolve_measure(measure)
    b_reg = _real("b_reg", b_reg, 0.0, open_high=True, error=ValueError)
    scores = _array("scores", scores, float)
    if scores.shape != (dataset.n,):
        raise ValueError(f"scores shape {scores.shape} does not match dataset ({dataset.n},)")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if dataset.n == 0:
        raise ValueError("dataset is empty")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    labels = dataset.labels[order]
    weights = dataset.weights[order]

    signal_cum = np.cumsum(np.where(labels == 1, weights, 0.0))
    background_cum = np.cumsum(np.where(labels == -1, weights, 0.0))

    # k = number selected; realizable k are 0, n, and strict-drop boundaries
    interior = np.flatnonzero(sorted_scores[:-1] > sorted_scores[1:]) + 1
    ks = np.concatenate([[0], interior, [dataset.n]])
    s = np.where(ks > 0, signal_cum[ks - 1], 0.0)
    b = np.where(ks > 0, background_cum[ks - 1], 0.0) + b_reg
    sig = significance_curve(s, b, measure)

    best = int(np.argmax(sig))  # first max wins: fewest selected on ties
    k = int(ks[best])
    if k == 0:
        return float(sorted_scores[0])
    if k == dataset.n:
        return -math.inf
    return float(sorted_scores[k])


def write_trace_csv(trace: CascadeTrace, path: str) -> None:
    """One row per round, full-precision floats, LF line endings; a path
    that cannot be written raises ConfigError."""
    with _open(path, "w", ConfigError) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["round", "u_prev", "weighted_error", "train_sig", "val_sig", "u_next"])
        for r in trace.records:
            writer.writerow(
                [
                    str(r.round_index),
                    repr(r.u_prev),
                    repr(r.weighted_err),
                    repr(r.train_sig),
                    repr(r.val_sig),
                    repr(r.u_next),
                ]
            )


_CASCADE_KEYS = {
    "measure": str,
    "u0": float,
    "T": int,
    "variant": str,
    "extra_rounds_after_stall": int,
    "b_reg": float,
    "seed": int,
    "update_duals": bool,
    "validation_source": str,
}
# no learner seed: run_cascade derives each round's learner seed from `seed`
_LEARNER_KEYS = {
    "kind": str,
    "rounds": int,
    "learning_rate": float,
    "max_depth": int,
    "min_child_weight": float,
    "subsample": float,
}


def _parse_value(raw: str, target, key: str):
    if target is bool:
        if raw in ("true", "on", "1", "yes"):
            return True
        if raw in ("false", "off", "0", "no"):
            return False
        raise ConfigError(f"config key {key!r}: expected a boolean, got {raw!r}")
    try:
        return target(raw)
    except ValueError:
        raise ConfigError(
            f"config key {key!r}: cannot parse {raw!r} as {target.__name__}"
        ) from None


def parse_cascade_config(text: str, base: Optional[CascadeConfig] = None) -> CascadeConfig:
    """Parse the flat key-value config format.

    One ``key = value`` pair per line; ``#`` starts a comment; learner
    fields use the ``learner.`` prefix.  Unknown keys are errors.
    """
    cascade_fields: dict = {}
    learner_fields: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {line_no}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key.startswith("learner."):
            sub = key[len("learner.") :]
            if sub not in _LEARNER_KEYS:
                raise ConfigError(f"config line {line_no}: unknown key {key!r}")
            learner_fields[sub] = _parse_value(raw, _LEARNER_KEYS[sub], key)
        elif key in _CASCADE_KEYS:
            cascade_fields[key] = _parse_value(raw, _CASCADE_KEYS[key], key)
        else:
            raise ConfigError(f"config line {line_no}: unknown key {key!r}")
    config = base if base is not None else CascadeConfig()
    if learner_fields:
        cascade_fields["learner"] = replace(config.learner, **learner_fields)
    return replace(config, **cascade_fields)


def format_cascade_config(config: CascadeConfig) -> str:
    """Render a config in the same flat key-value format parse reads, in table order.

    A custom measure has no name that parse reads back, so it is a ConfigError.
    """
    tables = (("", config, _CASCADE_KEYS), ("learner.", config.learner, _LEARNER_KEYS))
    lines = []
    for prefix, fields, keys in tables:
        for key, target in keys.items():
            value = getattr(fields, key)
            if value is None:
                continue
            if isinstance(value, SignificanceMeasure):
                if not any(value == builtin for builtin in _BUILTINS.values()):
                    raise ConfigError(f"custom measure {value.name!r} has no config-file form")
                value = value.name
            elif target is bool:
                value = "true" if value else "false"
            elif target is float:
                value = repr(value)
            lines.append(f"{prefix}{key} = {value}")
    return "\n".join(lines) + "\n"
