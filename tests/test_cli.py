"""Command-line behavior: parsing, output routing, exit codes."""

import json
import subprocess
import sys

import pytest

import tlsbath.cli as cli
import tlsbath.validation as validation
from tlsbath.validation import CriterionResult, ValidationReport


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_missing_command_is_config_error(capsys):
    code, _, err = _run(capsys)
    assert code == cli.EXIT_CONFIG
    assert "config error" in err


def test_unknown_scenario_is_config_error(capsys):
    code, _, err = _run(capsys, "sweep", "lineshape")
    assert code == cli.EXIT_CONFIG
    assert "config error" in err


def test_rates_stdout_report(capsys):
    code, out, _ = _run(capsys, "rates", "--set", "bath.Omega_B=1e-4")
    assert code == 0
    report = dict(
        line.split(" = ") for line in out.strip().splitlines() if " = " in line
    )
    assert float(report["kappa_t"]) == pytest.approx(5e-5)
    assert float(report["saturation"]) == pytest.approx(2.0, rel=1e-12)
    assert float(report["gamma"]) > 0


def test_rates_json_to_stdout(capsys):
    code, out, _ = _run(capsys, "rates", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["scenario"] == "rates"
    assert len(doc["rows"]) == 1


def test_sweep_csv_file_output(tmp_path, capsys):
    out = tmp_path / "driving.csv"
    code, text, _ = _run(
        capsys,
        "sweep",
        "driving",
        "--set",
        "sweep.count=3",
        "--set",
        "bath.Omega_B=2e-5",
        "--out",
        str(out),
    )
    assert code == 0
    assert f"wrote {out} (3 rows)" in text
    lines = out.read_text(encoding="utf-8").splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header.startswith("Omega_B,")


def test_scenario_alias_matches_sweep_spelling(tmp_path, capsys):
    args = ["--set", "sweep.count=3", "--set", "bath.Omega_B=2e-5"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    code_a, _, _ = _run(capsys, "steady-state", *args, "--out", str(a))
    code_b, _, _ = _run(capsys, "sweep", "steady-state", *args, "--out", str(b))
    assert code_a == code_b == 0
    strip = lambda p: [
        l
        for l in p.read_text(encoding="utf-8").splitlines()
        if not l.startswith("# generated")
    ]
    assert strip(a) == strip(b)


def test_config_file_plus_override(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[sweep]\ncount = 3\n[bath]\nOmega_B = 1e-5\n", encoding="utf-8"
    )
    out = tmp_path / "g.json"
    code, _, _ = _run(
        capsys,
        "sweep",
        "gamma-rate",
        "--config",
        str(ini),
        "--set",
        "bath.Omega_B=3e-5",
        "--format",
        "json",
        "--out",
        str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["config"]["bath.Omega_B"] == "3e-05+0.0j"
    assert len(doc["rows"]) == 3


def test_missing_config_file_exit_code(capsys):
    code, _, err = _run(capsys, "rates", "--config", "/nonexistent/file.ini")
    assert code == cli.EXIT_CONFIG
    assert "config error" in err


def test_bad_value_exit_code(capsys):
    code, _, err = _run(capsys, "rates", "--set", "bath.kappa_1=-1")
    assert code == cli.EXIT_CONFIG
    assert "bath.kappa_1" in err


_TAU = ["--set", "sweep.variable=tau", "--set", "sweep.start=0", "--set", "sweep.stop=10",
        "--set", "sweep.scale=linear", "--set", "sweep.count=3"]


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["rates", "--set", "bath.Delta_B=2"], "bath.Delta_B"),
        (["rates", "--set", "mode.Delta_0=-3"], "mode.Delta_0"),
        (["sweep", "driving", "--set", "sweep.variable=Delta_B", "--set", "sweep.start=0.5",
          "--set", "sweep.stop=1.5", "--set", "sweep.scale=linear", "--set", "sweep.count=5"],
         "mode frequency"),
        (["coherence", *_TAU], "unoccupied mode"),
        (["sweep", "driving", "--jobs", "0"], "--jobs"),
        (["steady-state", "--jobs", "-3"], "--jobs"),
    ],
    ids=["drive-frequency", "mode-frequency", "Delta_B-sweep", "undriven-coherence",
         "jobs-zero", "jobs-negative"],
)
def test_library_parameter_errors_are_config_errors(capsys, argv, fragment):
    code, _, err = _run(capsys, *argv)
    assert code == cli.EXIT_CONFIG
    assert err.startswith("config error:")
    assert fragment in err
    assert "Traceback" not in err


def test_marginally_stable_steady_state_exits_zero(capsys):
    """max Re(lambda) = -1.2e-11 here: the large drive entries of the full
    drift once tripped the pivot check, and the centred occupation lost
    its digits to cancellation; the closed form does neither."""
    code, out, _ = _run(
        capsys, "steady-state", "--format", "json",
        "--set", "mode.gamma_0=3e-8",
        "--set", "sweep.start=0.00022241987215950321",
        "--set", "sweep.stop=0.0002224198721595033",
        "--set", "sweep.count=2",
    )
    assert code == 0
    doc = json.loads(out)
    stable = doc["columns"].index("stable")
    assert [row[stable] for row in doc["rows"]] == [1, 1]
    # 50-digit solve of the same drift; forming <s+ s> - |<s>|^2 at an
    # occupation of 3e14 gave 596.56 and 596.0
    centred = doc["columns"].index("centered_occupation")
    for row in doc["rows"]:
        assert row[centred] == pytest.approx(609.1496, rel=1e-6)


def test_numerical_failure_exit_code(capsys):
    code, _, err = _run(
        capsys,
        "oracle-validate",
        "--set",
        "bath.N=2",
        "--set",
        "bath.Omega_B=3e-4",
        "--set",
        "oracle.dim_cap=32",
        "--set",
        "oracle.ratios=0.2",
    )
    assert code == cli.EXIT_NUMERICAL
    assert "numerical failure" in err


def test_validate_all_reports_failure_exit(monkeypatch, capsys):
    fail = CriterionResult(
        number=1,
        name="zero-drive-collapse",
        status="fail",
        measured="measured deviation 1.0",
        tolerance="< 1e-14",
        runtime=0.01,
        budget=1.0,
    )
    monkeypatch.setattr(
        validation, "validate_all", lambda cfg=None: ValidationReport((fail,))
    )
    monkeypatch.setattr(cli, "validate_all", validation.validate_all)
    code, out, err = _run(capsys, "validate-all")
    assert code == cli.EXIT_VALIDATION
    assert "[FAIL] 01" in out
    assert "validation failures present" in err


def test_validate_all_success_path(monkeypatch, tmp_path, capsys):
    ok = CriterionResult(
        number=2,
        name="weak-drive-rates",
        status="pass",
        measured="max rel dev 1e-7",
        tolerance="rel < 1e-4",
        runtime=0.02,
        budget=5.0,
    )
    monkeypatch.setattr(cli, "validate_all", lambda cfg=None: ValidationReport((ok,)))
    out = tmp_path / "report.csv"
    code, text, _ = _run(capsys, "validate-all", "--out", str(out))
    assert code == 0
    assert "[PASS] 02" in text
    assert "all criteria passed" in text
    body = out.read_text(encoding="utf-8")
    assert "weak-drive-rates" in body


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tlsbath.cli", "--version"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("tlsbath ")
