"""Declared dependencies cover what the package imports.

``pyproject.toml`` is what ``pip install`` (and therefore CI) reads; a
third-party module imported anywhere under ``src/repro`` but missing
from ``[project] dependencies`` makes ``import repro`` fail on a clean
install even though it passes on a developer machine that happens to
have the module.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.skipif(
    not hasattr(sys, "stdlib_module_names"),
    reason="needs sys.stdlib_module_names (Python >= 3.10)",
)


def _declared_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.S | re.M)
    assert block is not None, "pyproject.toml declares no dependencies"
    names = re.findall(r'"\s*([A-Za-z0-9_.\-]+)', block.group(1))
    return {name.lower().replace("-", "_") for name in names}


def _third_party_imports():
    found = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top and top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, path.relative_to(ROOT).as_posix())
    return found


def test_imports_are_declared():
    declared = _declared_dependencies()
    imported = _third_party_imports()
    assert imported, "found no third-party imports; the scan is broken"
    undeclared = {
        module: where
        for module, where in sorted(imported.items())
        if module.lower() not in declared
    }
    assert undeclared == {}, (
        f"imported but not declared in pyproject.toml: {undeclared}"
    )
