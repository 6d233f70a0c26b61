"""The benchmark harness reaches the package by name; each name it uses must resolve.

A call that passes a keyword the package dropped, or an attribute the
package renamed, fails only when the slow benchmark runs. This reads the
harness source and checks three kinds of use:

- every ``mods["<layer>"].<fn>(...)`` call in perfbench/layers.py binds its
  arguments to the function's signature;
- every attribute perfbench/run.py reads on a ``mods["<layer>"]`` module,
  directly or through a local bound to it, exists on that module;
- every attribute a hook in perfbench/spans.py reads on the object it is
  handed exists on that object's class (a dataclass field counts).
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = PERFBENCH / "layers.py"
RUN = PERFBENCH / "run.py"
SPANS = PERFBENCH / "spans.py"

# The class of the object each hook reads attributes on: the span's result,
# or, for select_action, the table it is given.
HOOK_CLASSES = {
    "qtable.load": ("qtable", "QTable"),
    "qtable.augment": ("qtable", "QTable"),
    "qtable.select_action": ("qtable", "QTable"),
    "episode.run_episode": ("episode", "EpisodeLog"),
    "pretrain.build_goal_bank": ("pretrain", "GoalBank"),
}


def layer_of(node):
    """The layer name of a ``mods["<layer>"]`` or ``<x>.mods["<layer>"]`` subscript, else None."""
    if not (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)):
        return None
    mods = node.value
    if (isinstance(mods, ast.Name) and mods.id == "mods") or (
            isinstance(mods, ast.Attribute) and mods.attr == "mods"):
        return node.slice.value
    return None


def harness_calls():
    """(layer, function, positional count, keywords) of each mods["..."].fn(...) call."""
    calls = []
    for node in ast.walk(ast.parse(LAYERS.read_text())):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        layer = layer_of(node.func.value)
        if layer is not None:
            keywords = [k.arg for k in node.keywords]
            assert None not in keywords, "a **mapping hides which keywords are passed"
            assert not any(isinstance(a, ast.Starred) for a in node.args)
            calls.append((layer, node.func.attr, len(node.args), keywords))
    return calls


def assigned_pairs(node):
    """(target, value) pairs of an assignment, a tuple assignment taken element by element."""
    for target in node.targets:
        if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
            yield from zip(target.elts, node.value.elts)
        else:
            yield target, node.value


def module_reads(path):
    """(layer, attribute) of every attribute read on a layer module in ``path``.

    A module is a ``mods["<layer>"]`` subscript or a name a function binds
    to one.
    """
    reads = set()
    for fn in ast.walk(ast.parse(path.read_text())):
        if not isinstance(fn, ast.FunctionDef):
            continue
        bound = {target.id: layer_of(value)
                 for node in ast.walk(fn) if isinstance(node, ast.Assign)
                 for target, value in assigned_pairs(node)
                 if isinstance(target, ast.Name) and layer_of(value) is not None}
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute):
                value = node.value
                layer = layer_of(value) or (bound.get(value.id)
                                            if isinstance(value, ast.Name) else None)
                if layer is not None:
                    reads.add((layer, node.attr))
    return reads


def hook_reads():
    """(span name, attribute) of every attribute a hook reads on its result or on args[0]."""
    tree = ast.parse(SPANS.read_text())
    hooks = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["HOOKS"])
    span_of = {v.id: k.value for k, v in zip(hooks.keys, hooks.values)}
    reads = set()
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name in span_of):
            continue
        # The names the hook holds its object under: result, and any bound to args[0].
        names = {"result"} | {
            target.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
            for target, value in assigned_pairs(node)
            if isinstance(target, ast.Name) and ast.unparse(value) == "args[0]"}
        for node in ast.walk(fn):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in names):
                reads.add((span_of[fn.name], node.attr))
    return reads


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


def test_every_module_attribute_the_run_reads_exists():
    reads = module_reads(RUN)
    # Read both directly and through locals bound to the module.
    assert {("qtable", "load"), ("qtable", "augment"), ("qtable", "save"),
            ("qtable", "FLAG_TRAINED"), ("evalrun", "write_report_csvs")} <= reads
    missing = [f"hpnarm.{layer}.{attr}" for layer, attr in sorted(reads)
               if not hasattr(importlib.import_module(f"hpnarm.{layer}"), attr)]
    assert missing == []


def test_every_attribute_a_hook_reads_exists():
    reads = hook_reads()
    assert {("qtable.load", "dense"), ("qtable.select_action", "flags"),
            ("pretrain.build_goal_bank", "samples_used"),
            ("pretrain.build_goal_bank", "goal_count"),
            ("episode.run_episode", "steps_taken"), ("episode.run_episode", "success")} <= reads
    undeclared = sorted({span for span, _ in reads} - set(HOOK_CLASSES))
    assert undeclared == [], "name the class these hooks read in HOOK_CLASSES"
    missing = []
    for span, attr in sorted(reads):
        layer, cls_name = HOOK_CLASSES[span]
        cls = getattr(importlib.import_module(f"hpnarm.{layer}"), cls_name)
        fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else ()
        if attr not in fields and not hasattr(cls, attr):
            missing.append(f"hpnarm.{layer}.{cls_name}.{attr}")
    assert missing == []
