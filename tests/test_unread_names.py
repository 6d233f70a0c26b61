"""Every module-level name and class member of the package is read somewhere.

The names are the module-level functions, classes and constants; the members
are the methods, properties and annotated fields of the module-level classes.
A name or member counts as read where a name or attribute of its spelling is
loaded in any module under src, scripts, tests or perfbench, its own module
included. Left out: ``__all__``, the click commands their decorator registers,
and dunder members, which Python itself calls.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "hpnarm").glob("*.py"))
READERS = sorted(p for d in ("src", "scripts", "tests", "perfbench")
                 for p in (ROOT / d).rglob("*.py"))


def _registers(decorator: ast.expr) -> bool:
    """Whether a decorator is ``<group>.command(...)`` or ``<group>.group(...)``."""
    func = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(func, ast.Attribute) and func.attr in ("command", "group")


def defined_names(source: str) -> dict[str, int]:
    """The module's top-level functions, classes and assigned names, each with its line."""
    names = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not any(_registers(d) for d in node.decorator_list):
                names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                        names.setdefault(n.id, node.lineno)
    names.pop("__all__", None)
    return names


def class_members(source: str) -> dict[str, int]:
    """The methods, properties and annotated fields of the module's classes, each with its line.

    Keyed ``Class.member``; dunders are left out.
    """
    members = {}
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = item.name
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                name = item.target.id
            else:
                continue
            if not (name.startswith("__") and name.endswith("__")):
                members[f"{node.name}.{name}"] = item.lineno
    return members


def read_names(source: str) -> set[str]:
    """Every name loaded and every attribute spelled in a module."""
    read = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute):
            read.add(n.attr)
    return read


def unread_names(source: str, readers: list[str]) -> list[str]:
    """The module-level names and class members of ``source`` that no reader loads."""
    read = set().union(*map(read_names, readers))
    defined = {**defined_names(source), **class_members(source)}
    return [f"line {line}: {name}" for name, line in sorted(defined.items(), key=lambda d: d[1])
            if name.rpartition(".")[2] not in read]


@pytest.fixture(scope="module")
def reader_sources():
    return [p.read_text(encoding="utf-8") for p in READERS]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unread_module_level_name(path, reader_sources):
    assert unread_names(path.read_text(encoding="utf-8"), reader_sources) == []


def test_unread_name_is_reported():
    source = ("_WORD_BITS = 64\nLIMIT = 3\nLIMIT.flags = 0\n"
              "def used():\n    return LIMIT\n"
              "class Spare:\n    pass\n"
              "@main.command()\ndef cmd():\n    pass\n"
              "__all__ = ['used', 'Spare']\n")
    assert unread_names(source, [source, "used()\n"]) == ["line 1: _WORD_BITS", "line 6: Spare"]


def test_unread_member_is_reported():
    source = ("class Result:\n    kept: int\n    spare: int = 0\n    label = 'x'\n"
              "    def __post_init__(self):\n        pass\n"
              "    @property\n    def total(self):\n        return self.kept\n"
              "    def unused(self):\n        pass\n")
    reader = "r = Result(1)\nr.total\n"
    assert unread_names(source, [source, reader]) == ["line 3: Result.spare",
                                                      "line 10: Result.unused"]
