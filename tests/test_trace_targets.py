"""The benchmark tracer in perfbench/spans.py wraps functions by name; each must exist.

A traced benchmark run fails when a name it lists is renamed or deleted, and
only the slow perfbench runs would notice. This reads the list and resolves
every entry the way the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    missing = []
    for layer, attr in spans.TRACED:
        module = importlib.import_module(f"hpnarm.{layer}")
        if "." in attr:
            # A method is wrapped on the class that defines it, read from its __dict__.
            cls_name, method = attr.split(".")
            target = vars(getattr(module, cls_name, object)).get(method)
        else:
            target = getattr(module, attr, None)
        if not callable(target):
            missing.append(f"hpnarm.{layer}.{attr}")
    assert missing == []
