"""The benchmark harness in perfbench/layers.py calls the package with keywords; each must bind.

A call that passes a keyword the package dropped fails only when the slow
benchmark runs. This reads every ``mods["<layer>"].<fn>(...)`` call in the
harness source and binds its arguments to the function's signature.
"""

import ast
import importlib
import inspect
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def harness_calls():
    """(layer, function, positional count, keywords) of each mods["..."].fn(...) call."""
    calls = []
    for node in ast.walk(ast.parse(LAYERS.read_text())):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        target = node.func.value
        if (isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name)
                and target.value.id == "mods" and isinstance(target.slice, ast.Constant)):
            keywords = [k.arg for k in node.keywords]
            assert None not in keywords, "a **mapping hides which keywords are passed"
            assert not any(isinstance(a, ast.Starred) for a in node.args)
            calls.append((target.slice.value, node.func.attr, len(node.args), keywords))
    return calls


def test_every_harness_call_binds_to_its_function():
    calls = harness_calls()
    # The keyword-carrying calls that motivated this check are still read.
    assert ("pretrain", "pretrain") in {c[:2] for c in calls}
    assert ("evalrun", "evaluate") in {c[:2] for c in calls}
    unbound = []
    for layer, name, n_args, keywords in calls:
        fn = getattr(importlib.import_module(f"hpnarm.{layer}"), name)
        try:
            inspect.signature(fn).bind_partial(*[None] * n_args, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"hpnarm.{layer}.{name}: {exc}")
    assert unbound == []
