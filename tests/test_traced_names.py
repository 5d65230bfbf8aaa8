"""Every function the benchmark's traced run wraps by name still exists.

``perfbench/spans.py`` binds tlsbath functions by (module, name); a
deleted or renamed one breaks only the traced run, so it is checked here.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve():
    spans = _spans()
    missing = [
        f"tlsbath.{mod_name}.{fn_name}"
        for mod_name, fn_name in spans.TARGETS
        if not hasattr(importlib.import_module(f"tlsbath.{mod_name}"), fn_name)
    ]
    assert not missing


def test_solve_split_names_are_targets():
    spans = _spans()
    names = {f"{mod_name}.{fn_name}" for mod_name, fn_name in spans.TARGETS}
    assert spans.SOLVE in names
    assert set(spans.SOLVE_PARENTS) <= names
