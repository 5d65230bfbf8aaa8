"""In-memory spans around tlsbath's public functions, for the traced run.

Each traced function is replaced, at every name a tlsbath module binds it
to (``tlsbath.sweeps.single_mode_rates``, ``tlsbath.dynamics.expm_apply``
and so on), by a wrapper that records a span: name, start, end, parent
span and whether it returned.  Self time is a span's duration minus the
time its child spans cover.  Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) pairs, by layer.
TARGETS = (
    ("linalg", "solve_linear"),
    ("linalg", "eigenvalues"),
    ("linalg", "expm_apply"),
    ("linalg", "null_vector"),
    ("bath", "correlator_integral"),
    ("bath", "build_psd_table"),
    ("rates", "assemble_rates"),
    ("rates", "single_mode_rates"),
    ("dynamics", "stability"),
    ("dynamics", "build_moment_system"),
    ("dynamics", "steady_state"),
    ("dynamics", "coherence_g1"),
    ("oracle", "build_liouvillian"),
    ("oracle", "steady_state_autogrow"),
    ("oracle", "bloch_correlator_numeric"),
    ("sweeps", "run_scenario"),
    ("sweeps", "render_csv"),
    ("config", "load_config"),
)

# solve_linear's self time is split by the span that called it, so a bath
# resolvent solve is told apart from a dynamics solve.
SOLVE = "linalg.solve_linear"
SOLVE_PARENTS = ("bath.correlator_integral", "dynamics.steady_state", "dynamics.coherence_g1")

AUTOGROW = "oracle.steady_state_autogrow"
LIOUVILLIAN = "oracle.build_liouvillian"
RENDER = "sweeps.render_csv"


def _note_liouvillian(counters, args, result) -> None:
    spec = args[0]
    counters["fock_dim_max"] = max(counters.get("fock_dim_max", 0), spec.fock_dim)
    side = result.shape[0]
    counters["liouvillian_side_max"] = max(counters.get("liouvillian_side_max", 0), side)


def _note_render(counters, args, result) -> None:
    counters["render_bytes"] = counters.get("render_bytes", 0) + len(result.encode())


# Counts taken where the work happens, from a traced call's arguments
# and result.
NOTES = {LIOUVILLIAN: _note_liouvillian, RENDER: _note_render}


class Tracer:
    """Installs span-recording wrappers; ``take`` hands over what they saw."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, returned)
        self.counters = {}
        self._stack = []
        self._patches = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, returned)
            if note is not None:
                note(counters, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "tlsbath" or n.startswith("tlsbath."))]
        for mod_name, fn_name in TARGETS:
            original = getattr(sys.modules[f"tlsbath.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def take(self) -> tuple[list, dict]:
        spans, counters = list(self.spans), dict(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, counters


def layer_names() -> list:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for mod_name, fn_name in TARGETS:
        out += [(f"{mod_name}.{fn_name}.calls", "count"), (f"{mod_name}.{fn_name}.self_s", "s")]
    for parent in SOLVE_PARENTS:
        out += [(f"{SOLVE}.in.{parent}.calls", "count"), (f"{SOLVE}.in.{parent}.self_s", "s")]
    out += [
        ("oracle.autogrow.solves_per_state", "ratio"),
        ("oracle.fock_dim_max", "count"),
        ("oracle.liouvillian_mb_max", "MB-computed"),
        ("sweeps.render_csv.bytes", "B"),
    ]
    return out


def summarize(spans, counters) -> dict:
    """Per-layer metrics of one traced pass, by name (see ``layer_names``)."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {name: 0.0 for name, _ in layer_names()}
    autogrow_ok = solves = 0
    for index, (name, start, end, parent, returned) in enumerate(spans):
        own = end - start - covered[index]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own
        parent_name = spans[parent][0] if parent >= 0 else ""
        if name == SOLVE and parent_name in SOLVE_PARENTS:
            out[f"{SOLVE}.in.{parent_name}.calls"] += 1
            out[f"{SOLVE}.in.{parent_name}.self_s"] += own
        if name == AUTOGROW and returned:
            autogrow_ok += 1
        if name == LIOUVILLIAN and parent_name == AUTOGROW:
            solves += 1
    out["oracle.autogrow.solves_per_state"] = solves / autogrow_ok if autogrow_ok else 0.0
    out["oracle.fock_dim_max"] = counters.get("fock_dim_max", 0)
    side = counters.get("liouvillian_side_max", 0)
    out["oracle.liouvillian_mb_max"] = 16.0 * side * side / 1e6  # complex128, computed
    out["sweeps.render_csv.bytes"] = counters.get("render_bytes", 0)
    return out
