"""Benchmark workloads: tasks generated from a seed, and one pass over them.

A task is one call chain a user of tlsbath would run: a scenario resolved
from ``--set``-style overrides, swept and rendered to CSV in memory, or
one correlator-quadrature component checked against the resolvent PSD.
Long sweeps are cut into consecutive segments of their grid, one task
each.  Each task counts a fixed number of operations (grid rows, tau
samples, oracle rows, quadrature components), which is what
``attempted`` and ``failed`` count.

Inputs depend only on the workload name, the seed and the size, so the
same seed gives the same tasks.  The program sees only the generated
overrides and parameters.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

WORKLOADS = ("map", "dynamics", "oracle")
DEFAULT_SEED = 0

# "full" is the benchmark, "small" the self-test, "warmup" the single
# point every process runs before it is timed.  Sweeps are cut into
# segments of ``*_segment`` points (see ``Task``).
SIZES = {
    "full": {"map_side": 100, "map_segment": 2, "sweep_points": 2000,
             "sweep_segment": 100, "tau_samples": 40000, "tau_segment": 1000,
             "quad_draws": 50, "ratios": (0.1, 0.03, 0.01)},
    "small": {"map_side": 8, "map_segment": 2, "sweep_points": 40,
              "sweep_segment": 20, "tau_samples": 300, "tau_segment": 100,
              "quad_draws": 2, "ratios": (0.1, 0.03, 0.01)},
    "warmup": {"map_side": 2, "map_segment": 2, "sweep_points": 2,
               "sweep_segment": 2, "tau_samples": 2, "tau_segment": 2,
               "quad_draws": 0, "ratios": (0.01,)},
}

# The exact oracle may not grow past this Hilbert dimension.  One
# dimension-64 steady state (Fock 32 x one TLS) took 74 s and 2.2 GB;
# dimension 128 (bath.N = 2 under a raised cap) ran out of memory.  A
# Fock escalation therefore surfaces as a DimensionCapError, which the
# benchmark counts as a failed operation.
ORACLE_DIM_CAP = 32

# Axis jitter: both ends of a sweep range move by one log-uniform factor.
JITTER = 1.25


@dataclass(frozen=True)
class Task:
    """One timed segment of a pass.

    A sweep is run as consecutive segments of its grid, each a scenario
    call of its own, so that every segment is short and can be timed on
    its own; see ``run.py`` for why.
    """

    label: str
    kind: str  # "scenario" or "quadrature"
    ops: int
    scenario: str = ""
    overrides: tuple = ()
    params: tuple = ()  # quadrature draw, see _quadrature_tasks


@dataclass
class TaskResult:
    task: Task
    columns: tuple = ()
    rows: list = None  # None when the task raised
    error: str = ""
    seconds: float = 0.0
    calibration: float = 0.0  # mean calibration time around the task, if any


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _grid(start: float, stop: float, count: int, scale: str) -> list:
    if scale == "log":
        return [start * (stop / start) ** (i / (count - 1)) for i in range(count)]
    return [start + (stop - start) * i / (count - 1) for i in range(count)]


def _segments(section: str, variable: str, start: float, stop: float,
              count: int, segment: int, scale: str = "log") -> list:
    """(points, overrides) of consecutive ``segment``-point pieces of an axis."""
    grid = _grid(start, stop, count, scale)
    return [
        (len(piece), (f"{section}.variable={variable}", f"{section}.start={piece[0]!r}",
                      f"{section}.stop={piece[-1]!r}", f"{section}.count={len(piece)}",
                      f"{section}.scale={scale}"))
        for piece in (grid[k:k + segment] for k in range(0, count, segment))
    ]


def _map_tasks(rng, size) -> list:
    side, seg = size["map_side"], size["map_segment"]
    f1 = _log_uniform(rng, 1 / JITTER, JITTER)
    f2 = _log_uniform(rng, 1 / JITTER, JITTER)
    ((_, gamma_axis),) = _segments("sweep2", "gamma_0", 1e-9 * f2, 1e-5 * f2, side, side)
    return [
        Task(f"stability-map-{k:03d}", "scenario", n * side, "stability-map",
             ("mode.Delta_0=0.0",) + drives + gamma_axis)
        for k, (n, drives) in enumerate(
            _segments("sweep", "Omega_B", 1e-6 * f1, 1e-3 * f1, side, seg))
    ]


def _dynamics_tasks(rng, size) -> list:
    f = _log_uniform(rng, 1 / JITTER, JITTER)
    sweeps = _segments("sweep", "Omega_B", 1e-6 * f, 1e-3 * f,
                       size["sweep_points"], size["sweep_segment"])
    drive = _log_uniform(rng, 3e-5, 1.4e-4)
    taus = _segments("sweep", "tau", 0.0, 4e7, size["tau_samples"],
                     size["tau_segment"], "linear")
    tasks = []
    for scenario in ("steady-state", "squeezing"):
        tasks += [Task(f"{scenario}-{k:03d}", "scenario", n, scenario, ov)
                  for k, (n, ov) in enumerate(sweeps)]
    tasks += [Task(f"coherence-{k:03d}", "scenario", n, "coherence",
                   (f"bath.Omega_B={drive!r}",) + ov)
              for k, (n, ov) in enumerate(taus)]
    return tasks


def _quadrature_tasks(rng, draws: int) -> list:
    # The parameter distribution of acceptance criterion 11.
    tasks = []
    for k in range(draws):
        kappa1 = 10.0 ** rng.uniform(-5.0, -3.0)
        kappa2 = rng.choice([0.0, 10.0 ** rng.uniform(-6.0, -4.0)])
        temperature = rng.choice([0.0, 10.0 ** rng.uniform(-2.0, -0.5)])
        phase = rng.uniform(0.0, 2.0 * math.pi)
        drive = 10.0 ** rng.uniform(-5.0, -3.0) * complex(
            math.cos(phase), math.sin(phase)
        )
        delta_b = rng.uniform(-3.0, 3.0) * kappa1
        coupling = 10.0 ** rng.uniform(-8.0, -5.0)
        detuning_per_kt = rng.uniform(-5.0, 5.0)
        n_tls = float(10 ** rng.randrange(0, 6))
        for alpha in (+1, -1):
            for beta in (+1, -1):
                params = (kappa1, kappa2, temperature, drive, delta_b,
                          coupling, detuning_per_kt, n_tls, alpha, beta)
                tasks.append(Task(
                    f"quadrature-{k}{'+' if alpha > 0 else '-'}"
                    f"{'+' if beta > 0 else '-'}",
                    "quadrature", 1, params=params,
                ))
    return tasks


def _oracle_tasks(rng, size) -> list:
    drive = _log_uniform(rng, 3e-5, 1.4e-4)
    base = ("bath.N=1", f"bath.Omega_B={drive!r}",
            f"oracle.dim_cap={ORACLE_DIM_CAP}")
    tasks = [
        Task(f"oracle-validate-{ratio!r}", "scenario", 1, "oracle-validate",
             base + (f"oracle.ratios={ratio!r}",))
        for ratio in size["ratios"]
    ]
    return tasks + _quadrature_tasks(rng, size["quad_draws"])


_MAKERS = {"map": _map_tasks, "dynamics": _dynamics_tasks, "oracle": _oracle_tasks}


def make_tasks(workload: str, seed: int, size: str = "full") -> list:
    """The tasks of one workload; identical for identical arguments."""
    rng = random.Random(f"{workload}:{seed}")
    return _MAKERS[workload](rng, SIZES[size])


def _run_scenario(task: Task):
    import tlsbath.config
    import tlsbath.sweeps

    cfg = tlsbath.config.load_config(overrides=task.overrides)
    result = tlsbath.sweeps.run_scenario(task.scenario, cfg)
    tlsbath.sweeps.render_csv(result)
    return result.columns, list(result.rows)


def _run_quadrature(task: Task):
    import numpy as np
    import tlsbath.bath
    import tlsbath.oracle

    (kappa1, kappa2, temperature, drive, delta_b, coupling,
     detuning_per_kt, n_tls, alpha, beta) = task.params
    env = tlsbath.bath.BathEnvironment(temperature=temperature)
    p = tlsbath.bath.TlsParams(
        omega_B=1.0, kappa1=kappa1, kappa2=kappa2, Omega_B=drive,
        Delta_B=delta_b, couplings=(coupling,),
    )
    detuning = detuning_per_kt * tlsbath.bath.transverse_rate(p, env)
    via_resolvent = tlsbath.bath.psd(
        [p], env, np.array([detuning]), alpha, beta, 0, 0, counts=[n_tls]
    )
    integral = tlsbath.oracle.bloch_correlator_numeric(p, env, alpha, beta, detuning)
    via_quadrature = n_tls * coupling * coupling * integral  # real coupling
    return ("psd_re", "psd_im", "quadrature_re", "quadrature_im"), [(
        float(via_resolvent.real), float(via_resolvent.imag),
        float(via_quadrature.real), float(via_quadrature.imag),
    )]


_RUNNERS = {"scenario": _run_scenario, "quadrature": _run_quadrature}


def run_pass(tasks, calibrate=None) -> list:
    """Run every task once; a typed error from tlsbath fails its task only.

    tlsbath's typed errors (configuration, singular or unstable systems,
    dimension cap, Hermiticity) all derive from ValueError or
    ArithmeticError.  Anything else is a defect and propagates.

    ``calibrate``, if given, is timed before the first task and after
    each one; a task's ``calibration`` is the mean of the two around it.
    """
    results = []
    before = calibrate() if calibrate else 0.0
    for task in tasks:
        start = time.perf_counter()
        try:
            columns, rows = _RUNNERS[task.kind](task)
        except (ValueError, ArithmeticError) as exc:
            result = TaskResult(task, error=f"{type(exc).__name__}: {exc}")
        else:
            result = TaskResult(task, columns, rows)
        result.seconds = time.perf_counter() - start
        if calibrate:
            after = calibrate()
            result.calibration = 0.5 * (before + after)
            before = after
        results.append(result)
    return results
