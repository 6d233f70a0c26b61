"""Every package module imports when it is the first one loaded.

The package root imports its submodules in one fixed order, so an import
cycle between two submodules can pass unseen until some caller loads the
other one first. Here each submodule is loaded under an empty package shell,
with no package module in sys.modules, and then the package root itself.
"""

import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hpnarm"
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
