import ast
import inspect
import typing
from pathlib import Path

import pytest

import equimax

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "equimax"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}

# bench/tracing.py wraps these two by name (setattr on the module), so their
# one reference outside tests/ is a string; ROADMAP item 3 deletes them once
# the tracer reads library-owned stats instead.
TRACER_ONLY = {"svd", "loss_value"}


def _loaded_names(source: str) -> set[str]:
    """Names a file reads, bare or as ``<equimax module>.name``; imports alone do not count."""
    tree = ast.parse(source)
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "equimax":
                    modules.add(alias.asname or "equimax")
        elif isinstance(node, ast.ImportFrom) and (node.module == "equimax" or node.level and not node.module):
            modules.update(alias.asname or alias.name for alias in node.names if alias.name in MODULES)
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            loaded.add(node.attr)
    return loaded


def test_every_public_name_has_a_caller_outside_tests():
    files = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    loaded = set().union(*(_loaded_names(path.read_text()) for path in files))
    assert sorted(set(equimax.__all__) - loaded - TRACER_ONLY) == []
    # an exemption that gains a caller is no longer needed
    assert not TRACER_ONLY & loaded


# The guard of the number rule: every int and float parameter of a public callable, read from its
# signature and type hints, refuses a boolean, a string and None with a ValueError whose message
# starts with the parameter's name, and a seed refuses -1.  A budget below 1 stays a BudgetError.
RESULT_TYPES = {"AscentResult", "GradOutput", "SurfaceGrid", "TheoremReport", "ToyUdaResult"}
P2 = equimax.EXAMPLES_4X2["P2"]
# one valid call, by keyword, per public callable that has an int or float parameter
VALID_CALLS = {
    "AscentConfig": {},
    "LossConfig": {"kind": "nsm"},
    "ToyUdaConfig": {},
    "balanced_sizes": {"n_rows": 3, "n_cols": 2},
    "cws": {"P": P2, "r": 0.5},
    "enumerate_size_compositions": {"total": 3, "parts": 2, "budget": 10},
    "is_one_hot_rows": {"P": P2, "tol": 0.1},
    "maximize": {"loss_cfg": equimax.LossConfig("ms"), "n_rows": 2, "n_cols": 2,
                 "cfg": equimax.AscentConfig(inits=2, steps=2)},
    "ns": {"P": P2, "r": 0.5, "alpha": 1.0, "epsilon": 0.0},
    "one_hot_matrix": {"labels": [0, 1], "n_cols": 2},
    "surface": {"loss_cfg": equimax.LossConfig("ms"), "grid": 3},
    # the statements run their default ascent, at the seed given, so a bad seed reaches AscentConfig
    "verify_all": {"n_rows": 2, "n_cols": 2, "trials": 10},
    "verify_theorem_1": {"n_rows": 2, "n_cols": 2},
    "verify_theorem_2": {"n_rows": 2, "n_cols": 2, "r": 0.5, "trials": 10},
    "verify_theorem_3": {"n_rows": 2, "n_cols": 2, "r": 0.5},
    "verify_theorem_4_5": {"n_rows": 2, "n_cols": 2, "alpha": 1.0, "epsilon": 0.0},
    "verify_theorem_6": {"n_rows": 2, "n_cols": 2, "r": 0.5, "alpha": 1.0, "epsilon": 1e-6},
}


def _number_parameters(func) -> list[str]:
    hints = typing.get_type_hints(func)
    return [name for name in inspect.signature(func).parameters if hints.get(name) in (int, float)]


WITH_NUMBERS = {
    name for name in equimax.__all__
    if name not in RESULT_TYPES and callable(getattr(equimax, name)) and _number_parameters(getattr(equimax, name))
}


def test_every_number_parameter_has_a_listed_call():
    assert sorted(WITH_NUMBERS - set(VALID_CALLS)) == []
    # a listed call for a callable without such parameters is stale
    assert sorted(set(VALID_CALLS) - WITH_NUMBERS) == []


@pytest.mark.parametrize(
    "name, param, value",
    [
        (name, param, value)
        for name in sorted(VALID_CALLS)
        for param in _number_parameters(getattr(equimax, name))
        for value in (True, "1", None) + ((-1,) if param == "seed" else ())
    ],
)
def test_number_parameter_takes_the_number_rule(name, param, value):
    # before, a grid, tol, n_cols, total or parts, or statement 2's and 6's shape, ended in a
    # TypeError, and a total of True was read as 1
    call = getattr(equimax, name)
    with pytest.raises(ValueError, match=f"^{param} "):
        call(**{**VALID_CALLS[name], param: value})
