"""Regenerate ``reference.json``: outputs of every workload at the default seed.

Run from the root of a checkout::

    python3 perfbench/make_reference.py

Only rerun it when a change is meant to alter outputs beyond the
tolerances in ``checks.py``; the benchmark compares every default-seed
run against this file.
"""

import json
import os
import sys
from pathlib import Path

from worker import SRC, pin_threads

HERE = Path(__file__).resolve().parent


def main() -> int:
    pin_threads(os.environ)
    sys.path.insert(0, str(SRC))
    import checks
    import workloads

    reference = {}
    for name in workloads.WORKLOADS:
        results = workloads.run_pass(workloads.make_tasks(name, workloads.DEFAULT_SEED))
        _, failed, messages = checks.check_pass(results)
        if failed:
            print(f"{name}: outputs fail their checks: {messages}", file=sys.stderr)
            return 1
        reference[name] = {r.task.label: checks.reference_entry(r) for r in results}
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
