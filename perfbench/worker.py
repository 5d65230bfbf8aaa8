"""One benchmark process: set tlsbath up, then time passes of a workload.

``--mode setup`` stops after set-up and reports its time; ``--mode run``
goes on to time passes until ``--seconds`` have gone by, checks every
pass's outputs, and reports pass times, peak memory and, with
``--trace 1``, per-layer metrics from alternating traced passes.  The
report is one JSON object on the last line of standard output.
``run.py`` starts this script; it is not meant to be run by hand.
"""

import os
import sys
import time


def spin_calibration() -> float:
    """Median time of five runs of a fixed pure-Python loop.

    Set-up is mostly the interpreter importing modules, so a pure-Python
    loop, timed before and after it, tells how fast the host ran it.
    """
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        times.append(time.perf_counter() - t0)
    return sorted(times)[2]


_SPIN_BEFORE = spin_calibration()
_STARTED = time.perf_counter()  # before numpy, scipy or tlsbath load

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_threads(environ) -> None:
    """Run BLAS and OpenMP on one thread; call before numpy is imported.

    On a 2-core host a second OpenBLAS thread made the oracle pass 1.5x
    slower (8.0-8.7 s against 5.3-5.6 s) while it spun on the other core,
    and its spinning slowed whatever else ran there.
    """
    for var in THREAD_VARS:
        environ[var] = "1"


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "machine": platform.machine(),
    }


# Reference times of the calibration kernels: their typical times,
# single-threaded, on the 2-vCPU Xeon KVM guest the benchmark was tuned on.
CALIBRATION_REF_S = 1.5e-3
SPIN_REF_S = 2.0e-3


def make_calibration():
    """A fixed numpy kernel that times how fast the host runs right now.

    150 solves of one 5x5 complex system: small-array numpy calls, like
    the bulk of tlsbath's work.  It calls nothing of tlsbath, so a change
    to the package cannot change it.
    """
    import numpy as np

    a = np.eye(5, dtype=complex) * 3.0 + 0.1
    b = np.ones(5, dtype=complex)

    def calibrate() -> float:
        t0 = time.perf_counter()
        for _ in range(150):
            np.linalg.solve(a, b)
        return time.perf_counter() - t0

    return calibrate


def normalized_pass(segments) -> float:
    """Pass time at the reference host speed.

    ``segments`` holds, per pass, one ``(seconds, calibration)`` pair per
    task.  On a shared host other tenants slow the CPU by up to 1.5x, in
    stretches from under a second to minutes, so raw times of the same
    pass differ by that much between runs.  A task's time divided by the
    calibration kernel's time around it cancels the host's speed; the
    median over a run's passes of that ratio, summed over the tasks and
    scaled by ``CALIBRATION_REF_S``, is the pass time in seconds at the
    reference speed.  Measured on map, seed 0: four 30 s runs gave raw
    fastest-segment sums of 3.9-4.6 s and normalized sums within 2.5 %.
    """
    if not segments:
        return 0.0
    return CALIBRATION_REF_S * sum(
        statistics.median(seconds / calibration for seconds, calibration in pairs)
        for pairs in zip(*segments)
    )


def _load_reference(workload: str, seed: int, size: str):
    import workloads

    if size != "full" or seed != workloads.DEFAULT_SEED:
        return None
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)[workload]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full")
    args = parser.parse_args(argv)

    pin_threads(os.environ)
    sys.path.insert(0, str(SRC))
    import tlsbath

    if Path(tlsbath.__file__).resolve().parent != (SRC / "tlsbath").resolve():
        print(f"tlsbath was imported from {tlsbath.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks
    import spans
    import workloads

    calibrate = make_calibration()
    workloads.run_pass(workloads.make_tasks(args.workload, args.seed, "warmup"), calibrate)
    tasks = workloads.make_tasks(args.workload, args.seed, args.size)
    setup_raw_s = time.perf_counter() - _STARTED
    # Set-up time at the reference host speed, as for wall_s.
    setup_s = setup_raw_s * SPIN_REF_S / (0.5 * (_SPIN_BEFORE + spin_calibration()))
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    reference = _load_reference(args.workload, args.seed, args.size)
    tracer = spans.Tracer()
    walls = {False: [], True: []}  # whole-pass times
    segments = {False: [], True: []}  # per pass, each task's (time, calibration)
    layers = []
    attempted = failed = 0
    messages = []
    traced = False
    start = time.perf_counter()
    while True:
        gc.collect()
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            results = workloads.run_pass(tasks, calibrate)
        finally:
            wall = time.perf_counter() - t0
            tracer.uninstall()
        walls[traced].append(wall)
        segments[traced].append([(r.seconds, r.calibration) for r in results])
        if traced:
            layers.append(spans.summarize(*tracer.take()))
        a, f, msgs = checks.check_pass(results, reference)
        attempted += a
        failed += f
        messages += msgs
        both = not args.trace or (walls[True] and walls[False])
        if both and time.perf_counter() - start >= args.seconds:
            break
        traced = bool(args.trace) and not traced

    report = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "wall_s": normalized_pass(segments[False]),
        "traced_wall_s": normalized_pass(segments[True]),
        "pass_walls": walls[False],
        "traced_pass_walls": walls[True],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "messages": messages[:20],
        "environment": environment(),
    }
    if layers:
        report["layers"] = {name: statistics.median(d[name] for d in layers)
                            for name in layers[0]}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
