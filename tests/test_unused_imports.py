"""Every module-level import in the package modules, scripts and tests is used.

The package root (__init__.py) is left out: its imports are its exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    [p for p in (ROOT / "src" / "hpnarm").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "scripts").glob("*.py"))
    + list((ROOT / "tests").glob("*.py"))
)


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that nothing else in it reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = "import os\nimport sys\nfrom math import pi, tau\nprint(sys.argv, tau)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: pi"]
