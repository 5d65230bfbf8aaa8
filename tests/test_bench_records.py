"""Every committed ``BENCH_*.json`` speed record is complete and cited.

A speed claim counts only if a committed record backs it and CHANGES.md
cites that record by file name (ROADMAP, aim 1).
"""

import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = ("parent_commit", "change", "claim", "method", "environment", "host", "runs")


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_is_complete_and_cited(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["label"] == path.stem.removeprefix("BENCH_")
    assert [key for key in KEYS if key not in record] == []
    assert re.fullmatch(r"[0-9a-f]{7,40}", record["parent_commit"])
    assert path.name in (ROOT / "CHANGES.md").read_text(encoding="utf-8")
