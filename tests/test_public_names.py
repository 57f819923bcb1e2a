"""Every name the package exports has a caller or a place in the README."""

import ast
import functools
import re
from pathlib import Path

import pytest

import probevolume

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "probevolume"


def _code_uses(path: Path) -> set[str]:
    """Names a module refers to: names it imports from another module, names
    it calls, attributes of the names it imports (``calib.fit_through_origin``,
    not ``crop.sample``) and string constants (the benchmark's tracer names
    its targets in them)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            uses.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            uses.add(node.func.id)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in imported:
            uses.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            uses.add(node.value)
    return uses


def _readme_uses() -> set[str]:
    """Names the README's code shows: ``pv.name`` or an inline span that
    starts with the name, such as `vmr(d, t, dist)`."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return set(re.findall(r"(?:\bpv\.|`)([A-Za-z_]\w*)", text))


@functools.cache
def _callers() -> set[str]:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    return _readme_uses().union(*(_code_uses(p) for p in files))


@pytest.mark.parametrize("name", probevolume.__all__)
def test_exported_name_has_a_caller(name):
    assert name in _callers(), f"{name} is exported, but no module, benchmark or README uses it"
