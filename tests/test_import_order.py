"""Every package module imports when it is the first one loaded, and loads nothing heavy.

The package root imports its submodules in one fixed order, so an import
cycle between two submodules can pass unseen until some caller loads the
other one first. Here each submodule is loaded under an empty package shell,
with no package module in sys.modules, and then the package root itself.

A cold import of the package and the layer modules the benchmark loads is
also the set-up time of every benchmark run, so it must not pull in a
module only some command needs: the thread pool, YAML, the CLI or scipy.
"""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hpnarm"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

FIRST_IMPORTS = """
import importlib, os, sys, types

src, modules = sys.argv[1], sys.argv[2:]
sys.path.insert(0, src)
for name in modules + [None]:
    for loaded in [m for m in sys.modules if m.partition(".")[0] == "hpnarm"]:
        del sys.modules[loaded]
    if name is None:
        importlib.import_module("hpnarm")
        continue
    shell = types.ModuleType("hpnarm")
    shell.__path__ = [os.path.join(src, "hpnarm")]
    sys.modules["hpnarm"] = shell
    importlib.import_module(f"hpnarm.{name}")
    print(name)
"""


def test_each_module_imports_first():
    assert "state" in MODULES and "kinematics" in MODULES
    proc = subprocess.run([sys.executable, "-c", FIRST_IMPORTS, str(PACKAGE.parent), *MODULES],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == MODULES


COLD_IMPORT = """
import importlib, sys

sys.path.insert(0, sys.argv[1])
importlib.import_module("hpnarm")
for name in sys.argv[2:]:
    importlib.import_module(f"hpnarm.{name}")
print(sorted(m for m in sys.modules if m.partition(".")[0] == "hpnarm"))
print([m for m in ("concurrent.futures", "yaml", "click", "scipy") if m in sys.modules])
"""


def benchmark_layers():
    """perfbench/layers.py's LAYERS: the package modules the benchmark imports."""
    for node in ast.parse((ROOT / "perfbench" / "layers.py").read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return list(ast.literal_eval(node.value))
    raise AssertionError("perfbench/layers.py defines no LAYERS")


def test_a_cold_import_loads_no_pool_yaml_cli_or_scipy():
    layers = benchmark_layers()
    assert len(layers) == 7 and set(layers) <= set(MODULES)
    proc = subprocess.run([sys.executable, "-c", COLD_IMPORT, str(PACKAGE.parent), *layers],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded, heavy = proc.stdout.splitlines()
    assert all(f"'hpnarm.{name}'" in loaded for name in layers), loaded
    assert heavy == "[]"
