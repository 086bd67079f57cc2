"""The package's public names, the fields of its value types and the
CLI's flags, pinned.

A new export, config knob, stored field or flag must show up here as an
edit to the pin, so that adding one is a visible decision.
"""

import argparse
import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import amscascade
from amscascade import cli

PUBLIC_NAMES = (
    "AMS2", "AMS3", "AmsCascadeError", "AuditReport", "CascadeConfig", "CascadeError",
    "CascadeTrace", "CheckResult", "ConfigError", "ConfusionSummary", "CostVector",
    "CsvSchema", "DataError", "DegenerateInputError", "Ensemble", "LearnerConfig",
    "MISSING_VALUE", "Model", "RoundRecord", "SignificanceMeasure", "SplitSpec",
    "SynthConfig", "TrainingError", "Tree", "U_MAX", "U_MIN", "WeightedDataset",
    "boost_one_round", "classify", "confusion_summary", "custom_measure",
    "default_synth_config", "default_u0", "dual_risk", "empty_model", "ensemble_average",
    "ensemble_scores", "fenchel_young_gap", "format_cascade_config", "load_csv",
    "load_model", "make_cost_vector", "monotonicity_audit", "optimal_u",
    "parse_cascade_config", "predict_scores", "read_submission", "rerun_cascade",
    "resolve_measure", "run_all_checks", "run_cascade", "run_cascade_fresh",
    "run_cascade_warmstart", "save_model", "select_threshold", "significance",
    "significance_curve", "split", "surrogate_gradient", "surrogate_hessian",
    "surrogate_loss", "synthesize", "train", "weighted_error", "write_csv",
    "write_submission", "write_trace_csv",
)

FIELDS = {
    "CascadeConfig": (
        "measure", "u0", "T", "variant", "extra_rounds_after_stall", "b_reg", "learner",
        "seed", "validation_source", "update_duals",
    ),
    "LearnerConfig": (
        "kind", "rounds", "learning_rate", "max_depth", "min_child_weight", "seed",
        "subsample",
    ),
    "SynthConfig": (
        "d", "n_signal", "n_background", "separation", "signal_total", "background_total",
    ),
    "SplitSpec": ("validation_fraction", "seed", "renormalize"),
    "CsvSchema": ("id_column", "weight_column", "label_column", "feature_columns"),
    "ConfusionSummary": ("s", "b", "p", "b_reg"),
    "SignificanceMeasure": ("f", "f_conjugate", "f_prime", "h", "name"),
    "Ensemble": ("models", "weights"),
    "CostVector": ("costs", "round_dual"),
    "Model": (
        "kind", "n_features", "base_score", "threshold", "trees", "coefficients",
        "impute_values",
    ),
    "Tree": ("feature", "threshold", "left", "right", "missing_left", "value"),
}

CLI_FLAGS = {
    "cascade": (
        "-h", "--help", "--data", "--synth", "--seed", "--b-reg", "--measure", "--variant",
        "--T", "--u0", "--val-frac", "--out-dir", "--submission", "--config",
    ),
    "eval": (
        "-h", "--help", "--data", "--synth", "--seed", "--b-reg", "--model", "--summary",
        "--submission",
    ),
    "check": ("-h", "--help", "--seed", "--instances", "--inject-fault"),
}


# the modules whose __all__ lists the package re-exports; import_module, as
# the package attribute `significance` is the function of that name
MODULES = {
    name: importlib.import_module(f"amscascade.{name}")
    for name in ("cascade", "checks", "data", "errors", "learner", "significance")
}


def _option_strings(parser):
    return tuple(option for action in parser._actions for option in action.option_strings)


def _top_level_definitions(module):
    """The names a module's own source binds at top level, imports aside."""
    tree = ast.parse(Path(module.__file__).read_text(), filename=module.__file__)
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(target.id for target in targets if isinstance(target, ast.Name))
    return names


def test_public_names():
    assert tuple(amscascade.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(amscascade, name), name


@pytest.mark.parametrize("module", list(MODULES))
def test_module_exports_are_public_and_its_own(module):
    module = MODULES[module]
    assert "__all__" in vars(module)
    defined = _top_level_definitions(module)
    for name in module.__all__:
        assert name in PUBLIC_NAMES, name
        assert name in defined, name
        assert getattr(amscascade, name) is getattr(module, name), name


def test_modules_export_the_public_names_once():
    exports = [name for module in MODULES.values() for name in module.__all__]
    assert sorted(exports) == list(PUBLIC_NAMES)


def test_package_init_spells_no_public_name():
    """The package restates no export: no string in __init__.py, and no name
    it imports from a module (``from . import`` names submodules), is a
    public name."""
    path = Path(amscascade.__file__)
    spelled = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Constant):
            spelled.append(node.value)
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            spelled += [alias.name for alias in node.names]
    assert [word for word in spelled if word in PUBLIC_NAMES] == []


@pytest.mark.parametrize("name", list(FIELDS))
def test_dataclass_fields(name):
    fields = dataclasses.fields(getattr(amscascade, name))
    assert tuple(field.name for field in fields) == FIELDS[name]


def test_custom_measure_parameters():
    parameters = inspect.signature(amscascade.custom_measure).parameters
    assert tuple(parameters) == ("f", "f_conjugate", "f_prime", "h", "name")


def test_cli_flags():
    parser = cli.build_parser()
    assert _option_strings(parser) == ("-h", "--help")
    commands = next(
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    )
    flags = {name: _option_strings(sub) for name, sub in commands.choices.items()}
    assert flags == CLI_FLAGS


def _decides_integers(node):
    """``numbers.Integral`` (or a bare ``Integral``), or ``isinstance(x, int)``
    with ``int`` alone or in a tuple."""
    if isinstance(node, ast.Attribute) and node.attr == "Integral":
        return True
    if isinstance(node, ast.Name) and node.id == "Integral":
        return True
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
    ):
        return False
    kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
    return any(isinstance(kind, ast.Name) and kind.id == "int" for kind in kinds)


def test_integer_rule_has_one_home():
    """Only errors._integer decides what counts as an integer."""
    offenders = []
    for path in sorted(Path(amscascade.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        home = set()
        if path.name == "errors.py":
            rule = next(
                node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_integer"
            )
            home = {id(node) for node in ast.walk(rule)}
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if id(node) not in home and _decides_integers(node)
        ]
    assert offenders == []
