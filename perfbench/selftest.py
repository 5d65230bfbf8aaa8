"""Self-test of the benchmark, on reduced inputs (about a minute).

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that BENCHMARK.json names the metrics the benchmark prints,
that every workload emits each of them with its unit in both modes and
passes its correctness checks, that the checker flags deliberately
corrupted outputs, and that the benchmark fails cleanly without the
package sources.
"""

import copy
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from worker import SRC, pin_threads  # noqa: E402

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        FAILURES.append(what)


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def test_benchmark_json() -> None:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads match workloads.WORKLOADS")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        expect(declared == list(table), f"BENCHMARK.json {key} names and units match run.py")


def test_emits_metrics() -> None:
    for workload in workloads.WORKLOADS:
        for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            code, lines = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                                 "--trace", str(trace), "--size", "small")
            what = f"{workload} --trace {trace}"
            if code != 0 or not lines:
                expect(False, f"{what}: exit code {code}")
                continue
            result = json.loads(lines[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{what}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{what}: outputs pass their checks ({result['failed']} of "
                   f"{result['attempted']} failed)")
            metrics = result["metrics"]
            expect(list(metrics) == [name for name, _ in table], f"{what}: every metric emitted")
            expect(all(metrics[n]["unit"] == u and math.isfinite(metrics[n]["value"])
                       for n, u in table if n in metrics),
                   f"{what}: every metric has its unit and a finite value")
            expect(any("environment" in json.loads(line) for line in lines[:-1]),
                   f"{what}: environment recorded")


def _failed(results, reference=None) -> int:
    return checks.check_pass(results, reference)[1]


def _replace_row(result, index, **changes):
    row = list(result.rows[index])
    for column, value in changes.items():
        row[result.columns.index(column)] = value
    result.rows[index] = tuple(row)


def test_checker_flags_corruption() -> None:
    runs = {w: workloads.run_pass(workloads.make_tasks(w, 7, "small"))
            for w in workloads.WORKLOADS}
    for w, results in runs.items():
        expect(_failed(results) == 0, f"{w}: clean small outputs pass")

    bad = copy.deepcopy(runs["map"])
    row = bad[0].rows[3]
    _replace_row(bad[0], 3, stable=1 - row[bad[0].columns.index("stable")])
    expect(_failed(bad) == 1, "map: one flipped verdict is one failed row")

    bad = copy.deepcopy(runs["map"])
    del bad[0].rows[-1]
    expect(_failed(bad) == 1, "map: one missing row is one failed row")

    bad = copy.deepcopy(runs["dynamics"])
    coherence = next(r for r in bad if r.task.scenario == "coherence")
    _replace_row(coherence, 5, g1_re=1.1)
    expect(_failed(bad) == 1, "dynamics: one g1 value above 1 is flagged")

    bad = copy.deepcopy(runs["dynamics"])
    coherence = next(r for r in bad if r.task.scenario == "coherence")
    _replace_row(coherence, 0, g1_re=0.999)
    expect(_failed(bad) == 1, "dynamics: g1(0) != 1 is flagged")

    bad = copy.deepcopy(runs["dynamics"])
    squeezing = next(r for r in bad if r.task.scenario == "squeezing")
    _replace_row(squeezing, 2, det_sigma=0.2)
    expect(_failed(bad) == 1, "dynamics: a Heisenberg violation is flagged")

    bad = copy.deepcopy(runs["oracle"])
    small = next(r for r in bad if r.task.label.endswith("-0.01"))
    _replace_row(small, 0, occupation_rel_err=0.5)
    expect(_failed(bad) >= 1, "oracle: a 50% deviation at ratio 0.01 is flagged")

    bad = copy.deepcopy(runs["oracle"])
    quad = next(r for r in bad if r.task.kind == "quadrature")
    quad.rows[0] = (quad.rows[0][0] + 1e-6,) + tuple(quad.rows[0][1:])
    expect(_failed(bad) == 1, "oracle: a quadrature off by 1e-6 is flagged")

    bad = copy.deepcopy(runs["oracle"])
    bad[0].rows, bad[0].error = None, "DimensionCapError: simulated"
    expect(_failed(bad) == 1, "oracle: a typed error fails its operation")

    for w, results in runs.items():
        reference = json.loads(json.dumps(
            {r.task.label: checks.reference_entry(r) for r in results}))
        expect(_failed(results, reference) == 0, f"{w}: outputs match their own reference")
        bad = copy.deepcopy(results)
        target = bad[0]
        i = next(k for k, v in enumerate(target.rows[0]) if isinstance(v, float) and v != 0.0)
        row = list(target.rows[0])
        row[i] *= 1.0 + 1e-7
        target.rows[0] = tuple(row)
        expect(_failed(bad, reference) == 1, f"{w}: a float off by 1e-7 relative is flagged")
        ok = copy.deepcopy(results)
        row = list(ok[0].rows[0])
        row[i] *= 1.0 + 1e-11
        ok[0].rows[0] = tuple(row)
        expect(_failed(ok, reference) == 0, f"{w}: a float off by 1e-11 relative is accepted")

    bad = copy.deepcopy(runs["map"])
    reference = json.loads(json.dumps({r.task.label: checks.reference_entry(r) for r in bad}))
    last = len(bad[0].rows) - 2  # not a sampled row: caught by the signature
    row = bad[0].rows[last]
    s, c = bad[0].columns.index("stable"), bad[0].columns.index("stable_criterion")
    _replace_row(bad[0], last, stable=1 - row[s], stable_criterion=1 - row[c])
    expect(_failed(bad, reference) == 1, "map: a consistent but changed verdict fails the reference")


def test_fails_without_sources() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = _bench("--workload", "map", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=tmp)
    expect(code != 0 and not any('"metrics"' in line for line in lines),
           f"without src/ the benchmark exits {code} and prints no result")


def main() -> int:
    os.chdir(ROOT)
    pin_threads(os.environ)
    sys.path.insert(0, str(SRC))
    test_benchmark_json()
    test_checker_flags_corruption()
    test_fails_without_sources()
    test_emits_metrics()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
