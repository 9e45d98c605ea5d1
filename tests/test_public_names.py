import ast
from pathlib import Path

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
