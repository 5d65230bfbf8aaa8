"""Every function the benchmark's traced run wraps by name still exists.

``perfbench/spans.py`` binds tlsbath functions by (module, name); a
deleted or renamed one breaks only the traced run, so it is checked here.
"""

import importlib
import importlib.util
import subprocess
import sys
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


# `import tlsbath` alone, in a fresh interpreter, must bring in every module
# the tracer patches: a module loaded lazily on first use would be missing
# from sys.modules when `Tracer.install` reads it.
_FRESH = """
import sys
sys.path.insert(0, {perfbench!r})
import tlsbath
import spans
print([m for m, _ in spans.TARGETS if "tlsbath." + m not in sys.modules])
original = tlsbath.sweeps.run_scenario
tracer = spans.Tracer()
tracer.install()
print(tlsbath.sweeps.run_scenario is not original)
tracer.uninstall()
print(tlsbath.sweeps.run_scenario is original)
"""


def test_package_import_registers_traced_modules():
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH.format(perfbench=str(SPANS.parent))],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["[]", "True", "True"]


def test_liouvillian_note_reads_a_real_liouvillian():
    """The traced run counts the Fock dimension and the Liouvillian side
    from what `build_liouvillian` returns, so a change of its type shows
    here rather than as a failed `--trace 1` run."""
    from tlsbath.bath import BathEnvironment, TlsParams
    from tlsbath.oracle import HilbertSpec, build_liouvillian
    from tlsbath.rates import ModeParams

    tls = (TlsParams(1.0, 1e-4, 0.0, 7e-5 + 0j, 0.0, (1e-6,)),)
    spec = HilbertSpec(8, ModeParams(detuning=0.0, gamma0=1e-5), tls, BathEnvironment())
    counters = {}
    _spans()._note_liouvillian(counters, (spec,), build_liouvillian(spec))
    assert counters == {"fock_dim_max": 8, "liouvillian_side_max": 256}
