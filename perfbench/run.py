"""Benchmark of tlsbath: end-to-end and per-layer timings of three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload map --seed 0 --seconds 20 --trace 0

Workloads (inputs generated from ``--seed``, see ``workloads.py``):

- ``map``: ``stability-map`` on a 100x100 resonant grid, CSV rendered in
  memory.  Rate assembly does most of the work and the oracle is never
  called, so it is the control for oracle changes.
- ``dynamics``: ``steady-state`` and ``squeezing`` sweeps of 2000 points
  and one ``coherence`` trace of 40000 linear tau samples.  Most time goes
  to the moment solve and the ``expm`` path.
- ``oracle``: ``oracle-validate`` at ``bath.N = 1`` with the Hilbert
  dimension capped at 32, plus 50 draws x 4 components of the correlator
  quadrature of acceptance criterion 11.  The exact oracle does nearly all
  the work.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
fresh processes of importing tlsbath, resolving the config and running one
warm-up point, each scaled to the reference host speed by a pure-Python
loop timed before and after it), ``wall_s`` (time of one pass at a fixed reference speed
of the host: the pass is cut into short segments, a fixed numpy
calibration kernel is timed around each, and each segment's median ratio
to it over the run, summed and scaled, cancels the slowdowns other
tenants of a shared host cause; see ``worker.normalized_pass``) and
``peak_rss_mb`` (peak resident memory of the process that ran the
passes).  ``--trace 1``
prints the per-layer metrics instead: calls and self time of each wrapped
tlsbath function per pass, a few counters, the tracing overhead and the
share of failed operations.  Every run checks the outputs of every pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The package is
imported from ``src/`` next to this directory; without it the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # the benchmark leaves nothing in the checkout

from spans import layer_names  # noqa: E402
from worker import pin_threads  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5  # fresh processes timed for setup_s, the run worker included
RUN_LIMIT_S = 175.0  # a run must end within 180 s

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB"))
PER_LAYER = tuple(layer_names()) + (
    ("trace.overhead_frac", "ratio"),
    ("ops_failed_frac", "ratio"),
)


class WorkerError(RuntimeError):
    pass


def _worker(args: list, deadline: float) -> dict:
    env = dict(os.environ)
    pin_threads(env)
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # identical set-up cost on every run
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker {args} ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {args} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed), "--size", size]
    setups = [
        _worker(["--mode", "setup", "--seconds", "0"] + common, deadline)["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    report = _worker(
        ["--mode", "run", "--seconds", repr(seconds), "--trace", str(int(trace))] + common,
        deadline,
    )
    setups.append(report["setup_s"])
    units = dict(PER_LAYER if trace else END_TO_END)
    if trace:
        values = dict(report["layers"])
        values["trace.overhead_frac"] = report["traced_wall_s"] / report["wall_s"] - 1.0
        values["ops_failed_frac"] = report["failed"] / report["attempted"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": report["wall_s"],
            "peak_rss_mb": report["peak_rss_mib"],
        }
    details = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "setup_samples_s": setups,
        "pass_walls_s": report["pass_walls"],
        "traced_pass_walls_s": report["traced_pass_walls"],
        "failures": report["messages"],
    }
    print(json.dumps({"environment": report["environment"]}))
    print(json.dumps({"details": details}))
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="'small' runs reduced inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tlsbath" / "__init__.py").is_file():
        print(f"no tlsbath sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
