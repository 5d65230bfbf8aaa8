"""Smoke test of the runnable demos: each one's ``main()`` runs in-process,
with its output directory pointed at a temporary one, and writes CSV
files that parse."""

import csv
import importlib.util
import pathlib

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

# the CSV files each demo writes
WRITES = {
    "driving_response": ("driving_vs_detuning.csv", "driving_vs_drive.csv"),
    "oracle_crosscheck": ("oracle_n1.csv", "oracle_n2.csv"),
    "rate_spectra": (
        "decay_rate_10x.csv",
        "decay_rate_30x.csv",
        "freq_shift_10x.csv",
        "freq_shift_30x.csv",
    ),
    "stability_and_squeezing": ("stability_map.csv", "squeezing_vs_drive.csv"),
    "steady_state_and_coherence": ("steady_state_vs_drive.csv", "coherence_g1_thermal.csv"),
}


def test_every_demo_is_covered():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(WRITES)


@pytest.mark.parametrize("name", sorted(WRITES))
def test_demo_writes_parseable_csv(name, tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.OUT = str(tmp_path)
    demo.main()
    assert capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(WRITES[name])
    for filename in WRITES[name]:
        lines = (tmp_path / filename).read_text(encoding="utf-8").splitlines()
        # the "#" metadata lines lead, then a header and at least one row
        start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert start > 0, filename
        header, *rows = list(csv.reader(lines[start:]))
        assert header and rows, filename
        assert all(len(row) == len(header) for row in rows), filename
