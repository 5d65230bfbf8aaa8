"""Command-line behavior: parsing, output routing, exit codes."""

import contextlib
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tlsbath.cli as cli
import tlsbath.validation as validation
from tlsbath.config import SweepAxis
from tlsbath.dynamics import HEISENBERG_ATOL
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
    assert float(report["saturation"]) == pytest.approx(2.0, rel=1e-12, abs=0)
    assert float(report["gamma"]) > 0


def test_rates_json_to_stdout(capsys):
    code, out, _ = _run(capsys, "rates", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["scenario"] == "rates"
    assert len(doc["rows"]) == 1


def test_rates_csv_to_stdout(capsys):
    """An explicit --format csv writes the one-row CSV table, not the
    `name = value` report that a run without --format prints."""
    code, out, _ = _run(capsys, "rates", "--format", "csv", "--set", "bath.Omega_B=1e-4")
    assert code == 0
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(lines) == 2 and lines[0].startswith("kappa_t,saturation,")
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(row["saturation"]) == pytest.approx(2.0, rel=1e-12, abs=0)


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


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "driving", "--set", "sweep.count=2", "--out", "{path}"],
        ["rates", "--set", "output.path={path}"],
        ["validate-all", "--out", "{path}"],
    ],
)
def test_unwritable_output_path_is_config_error(monkeypatch, tmp_path, capsys, argv):
    """An output path in a missing directory exits 1 with one line that
    names the path."""
    ok = CriterionResult(2, "weak-drive-rates", "pass", "max rel dev 1e-7", "rel < 1e-4", 0.02)
    monkeypatch.setattr(validation, "validate_all", lambda cfg=None: ValidationReport((ok,)))
    path = tmp_path / "missing" / "x.csv"
    code, _, err = _run(capsys, *(a.format(path=path) for a in argv))
    assert code == cli.EXIT_CONFIG
    assert len(err.splitlines()) == 1
    assert err.startswith(f"config error: output file {path}: ")


def _never_called(*args, **kwargs):
    raise AssertionError("the run started before its output path was checked")


@pytest.mark.parametrize(
    "argv, module, name",
    [
        (["validate-all", "--out", "{path}"], validation, "validate_all"),
        (["sweep", "driving", "--set", "output.path={path}"], cli, "run_scenario"),
    ],
    ids=["validate-all", "sweep"],
)
@pytest.mark.parametrize("where", ["missing/x.csv", "file/x.csv", "directory"])
def test_unwritable_output_path_fails_before_the_run(
    monkeypatch, tmp_path, capsys, argv, module, name, where
):
    """Under a missing directory, under a file, or a directory itself."""
    monkeypatch.setattr(module, name, _never_called)
    (tmp_path / "file").write_text("")
    (tmp_path / "directory").mkdir()
    path = tmp_path / where
    code, out, err = _run(capsys, *(a.format(path=path) for a in argv))
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err.startswith(f"config error: output file {path}: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("existing", [True, False], ids=["existing-file", "new-file"])
def test_output_path_check_neither_creates_nor_truncates(monkeypatch, tmp_path, capsys, existing):
    """A run that fails after the check leaves its output path as it was."""
    path = tmp_path / "x.csv"
    if existing:
        path.write_text("kept\n")

    def fail(*args):
        raise ArithmeticError("stubbed failure")

    monkeypatch.setattr(cli, "run_scenario", fail)
    code, _, _ = _run(capsys, "sweep", "driving", "--out", str(path))
    assert code == cli.EXIT_NUMERICAL
    if existing:
        assert path.read_text() == "kept\n"
    else:
        assert not path.exists()


def test_grid_too_large_for_memory_is_config_error(monkeypatch, capsys):
    """A grid that does not fit in memory exits 1 with one line.  The
    allocation is stubbed: on a host that overcommits, a real one can
    succeed and then exhaust memory."""
    message = "Unable to allocate 72.8 TiB for an array with shape (10000000000000,)"

    def grid(self):
        raise MemoryError(message)

    monkeypatch.setattr(SweepAxis, "grid", grid)
    code, out, err = _run(capsys, "sweep", "driving", "--set", "sweep.count=1e13")
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err == f"config error: out of memory: {message}\n"


_TAU = ["--set", "sweep.variable=tau", "--set", "sweep.start=0", "--set", "sweep.stop=10",
        "--set", "sweep.scale=linear", "--set", "sweep.count=3"]


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["rates", "--set", "bath.Delta_B=2"], "bath.Delta_B"),
        (["rates", "--set", "mode.Delta_0=-3"], "mode.Delta_0"),
        (["sweep", "driving", "--set", "sweep.variable=Delta_B", "--set", "sweep.start=0.5",
          "--set", "sweep.stop=1.5", "--set", "sweep.scale=linear", "--set", "sweep.count=5"],
         "bath.Delta_B"),
        (["stability-map", "--set", "sweep2.variable=Delta_0", "--set", "sweep2.start=-2",
          "--set", "sweep2.stop=0", "--set", "sweep2.scale=linear", "--set", "sweep2.count=3"],
         "mode.Delta_0"),
        (["coherence", *_TAU], "unoccupied mode"),
        (["sweep", "driving", "--jobs", "0"], "--jobs"),
        (["steady-state", "--jobs", "-3"], "--jobs"),
    ],
    ids=["drive-frequency", "mode-frequency", "Delta_B-sweep", "Delta_0-sweep",
         "undriven-coherence", "jobs-zero", "jobs-negative"],
)
def test_library_parameter_errors_are_config_errors(capsys, argv, fragment):
    code, _, err = _run(capsys, *argv)
    assert code == cli.EXIT_CONFIG
    assert len(err.splitlines()) == 1
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
        assert row[centred] == pytest.approx(609.1496, rel=1e-6, abs=0)


def test_steady_state_inside_stability_margin_exits_zero(capsys):
    """max Re(lambda) = +3.6e-13 at the first drive: the drift is unstable
    by a hair.  The row is written unstable and the sweep goes on."""
    code, out, _ = _run(
        capsys, "steady-state", "--format", "json",
        "--set", "mode.gamma_0=3e-8",
        "--set", "sweep.start=8.515588354431853e-05",
        "--set", "sweep.stop=8.6e-05",
        "--set", "sweep.count=2",
        "--set", "sweep.scale=linear",
    )
    assert code == 0
    doc = json.loads(out)
    first = dict(zip(doc["columns"], doc["rows"][0]))
    assert first["stable"] == 0
    assert first["occupation"] == "unstable"


def test_margin_point_is_unstable_in_every_scenario(capsys):
    """One predicate decides stability: at max Re(lambda) = +3.6e-13 the
    map cell, the steady-state and squeezing rows and the g1 trace all
    read unstable."""
    point = ["--set", "mode.gamma_0=3e-8", "--format", "json"]
    drive = ["--set", "sweep.start=8.515588354431853e-05", "--set", "sweep.stop=8.6e-05",
             "--set", "sweep.count=2", "--set", "sweep.scale=linear"]
    grid2 = ["--set", "sweep2.variable=Delta_0", "--set", "sweep2.start=0",
             "--set", "sweep2.stop=1e-6", "--set", "sweep2.scale=linear"]
    runs = (
        ("stability-map", [*drive, *grid2, "--set", "sweep2.count=2"], "stable", 0),
        ("steady-state", drive, "stable", 0),
        ("squeezing", drive, "xi", "unstable"),
        ("coherence", [*_TAU, "--set", "bath.Omega_B=8.515588354431853e-05"], "g1_abs",
         "unstable"),
    )
    for scenario, argv, column, verdict in runs:
        code, out, _ = _run(capsys, scenario, *point, *argv)
        assert code == 0
        doc = json.loads(out)
        assert dict(zip(doc["columns"], doc["rows"][0]))[column] == verdict


def _cells(out):
    """(column, text) of every value printed: `rates` prints `name = value`
    lines, the scenarios a CSV table under '#' metadata lines."""
    lines = [line for line in out.strip().splitlines() if not line.startswith("#")]
    if " = " in lines[0]:
        return [tuple(line.split(" = ")) for line in lines]
    header = lines[0].split(",")
    return [cell for line in lines[1:] for cell in zip(header, line.split(","))]


def _assert_clean_exit(code, out, err):
    """Exit 0, 1 or 2 without a traceback.  At exit 0 stderr is empty and no
    value is NaN, and only xi may be infinite; otherwise stderr holds one
    `numerical failure:` or `config error:` line."""
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL)
    if code != cli.EXIT_OK:
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert lines[0].startswith(("numerical failure:", "config error:")), err
        return
    assert err == ""
    for column, text in _cells(out):
        if text == "unstable":
            continue
        value = float(text)
        assert not math.isnan(value), (column, out)
        assert math.isfinite(value) or column.startswith("xi"), (column, out)


_TAU_DRIVEN = [*_TAU, "--set", "bath.Omega_B=7e-5"]


@pytest.mark.parametrize(
    "argv",
    [
        ["steady-state", "--set", "bath.G=1e60"],
        ["squeezing", "--set", "bath.G=-1e50"],
        ["coherence", *_TAU_DRIVEN, "--set", "bath.G=1e70"],
        ["steady-state", "--set", "bath.N=1e160"],
        ["squeezing", "--set", "bath.N=1e120"],
        ["coherence", *_TAU_DRIVEN, "--set", "bath.N=1e140"],
        ["coherence", *_TAU_DRIVEN, "--set", "bath.G=1e-170"],
        ["steady-state", "--set", "sweep.variable=gamma_0", "--set", "bath.Omega_B=1e151"],
    ],
    ids=["steady-G", "squeezing-G", "coherence-G", "steady-N", "squeezing-N", "coherence-N",
         "coherence-subnormal-occupation", "steady-strong-drive"],
)
def test_extreme_rates_give_finite_rows(capsys, argv):
    """Rates up to about 1e150, a subnormal occupation, and a drive whose
    saturation parameter overflows: every row is finite at exit 0."""
    code, out, err = _run(capsys, *argv, "--set", "sweep.count=3")
    assert code == cli.EXIT_OK
    _assert_clean_exit(code, out, err)
    assert all(math.isfinite(float(text)) for _, text in _cells(out) if text != "unstable")


def _rates_report(out):
    return {k: float(v) for k, v in (line.split(" = ") for line in out.strip().splitlines())}


def test_rates_far_detuned_mode_are_zero(capsys):
    """A detuning of 1e300 would overflow the product u v, which the
    closed form never forms."""
    code, out, _ = _run(capsys, "rates", "--set", "mode.Delta_0=1e300")
    assert code == 0
    report = _rates_report(out)
    for name in ("g_re", "g_im", "Gamma_re", "Gamma_im", "gamma_plus", "gamma_minus"):
        assert report[name] == 0.0
    assert abs(report["delta"]) < 1e-300


def test_rates_strong_drive_needs_no_pivot_check(capsys):
    """A drive of 1e149 is well posed: the spectral table needs no pivot
    or determinant guard at any drive."""
    code, out, _ = _run(capsys, "rates", "--set", "bath.Omega_B=1e149")
    assert code == 0
    assert all(math.isfinite(v) for v in _rates_report(out).values())


@pytest.mark.parametrize(
    "override, quantity",
    [
        ("bath.G=1e200", "spectral-density table"),
        ("bath.Omega_B=1e150", "saturation"),
        ("bath.Omega_B=1e160", "saturation"),
    ],
)
def test_rates_overflow_is_numerical_failure(capsys, override, quantity):
    code, out, err = _run(capsys, "rates", "--set", override)
    assert code == cli.EXIT_NUMERICAL
    assert err.startswith("numerical failure:") and quantity in err
    assert out == "" and "Traceback" not in err


def test_overflowing_dipole_drive_prints_one_line(capsys):
    """G = N = 1e200 overflows the stationary dipole drive as well as the
    table; the drive is evaluated without floating-point warnings, so the
    finiteness check reports alone."""
    code, out, err = _run(capsys, "rates", "--set", "bath.G=1e200", "--set", "bath.N=1e200")
    assert code == cli.EXIT_NUMERICAL
    assert err == "numerical failure: spectral-density table is not finite\n"
    assert out == ""


@pytest.mark.parametrize(
    "override", ["bath.kappa_2=1e160", "environment.temperature=1e160", "bath.kappa_1=1e-300"]
)
def test_rates_report_finite_where_squared_rates_are_not(capsys, override):
    """kappa_t^2 overflows at kappa_t = 1e156 or 2e160 and underflows to 0
    at 5e-301, which once gave an unnamed range error or a division by
    zero; in the power-of-two unit the saturation parameter is 0."""
    code, out, err = _run(capsys, "rates", "--set", override)
    assert code == cli.EXIT_OK
    _assert_clean_exit(code, out, err)
    assert _rates_report(out)["saturation"] == 0.0


@pytest.mark.parametrize("temperature", ["1e-3", "1e-5", "1e-300"])
def test_low_temperature_exits_zero(capsys, temperature):
    """Below T = omega_B / 709.78 the thermal occupation underflows to 0
    instead of overflowing 1/expm1: every scenario runs."""
    runs = (
        ["rates"],
        ["steady-state", "--set", "sweep.count=3"],
        ["squeezing", "--set", "sweep.count=3"],
        ["stability-map", "--set", "sweep.count=3", "--set", "sweep2.count=3"],
        ["oracle-validate", "--set", "bath.N=1", "--set", "bath.Omega_B=7.1e-5",
         "--set", "oracle.ratios=0.03"],
    )
    for argv in runs:
        code, out, err = _run(capsys, *argv, "--set", f"environment.temperature={temperature}")
        assert code == cli.EXIT_OK, (argv, err)
        _assert_clean_exit(code, out, err)


_EXTREME_KEYS = (
    "bath.G", "bath.Omega_B", "mode.Delta_0", "bath.kappa_1", "bath.kappa_2",
    "environment.temperature", "bath.N", "mode.gamma_0", "mode.Omega_0", "bath.Delta_B",
)

# Every scenario but oracle-validate, which an exact solve per draw would
# make too slow, on a small grid.
_EXTREME_RUNS = (
    ["rates"],
    *(["sweep", name, "--set", "sweep.count=2"]
      for name in ("driving", "gamma-rate", "squeeze-rate", "decay-rate", "freq-shift")),
    ["steady-state", "--set", "sweep.count=2"],
    ["squeezing", "--set", "sweep.count=2"],
    ["stability-map", "--set", "sweep.count=2", "--set", "sweep2.count=2"],
    _TAU_DRIVEN,
)


@settings(max_examples=150)
@given(
    key=st.sampled_from(_EXTREME_KEYS),
    exponent=st.floats(-300.0, 300.0),
    sign=st.sampled_from((1.0, -1.0)),
)
def test_extreme_single_override_exits_cleanly(key, exponent, sign):
    """One extreme --set gives exit 0, 1 or 2 without a traceback in every
    scenario, with the stderr and output contract of `_assert_clean_exit`."""
    value = sign * 10.0**exponent
    for argv in _EXTREME_RUNS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--set", f"{key}={value!r}"])
        _assert_clean_exit(code, out.getvalue(), err.getvalue())


@settings(max_examples=100)
@given(
    keys=st.lists(st.sampled_from(_EXTREME_KEYS), min_size=2, max_size=2, unique=True),
    exponents=st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0)),
    signs=st.tuples(st.sampled_from((1.0, -1.0)), st.sampled_from((1.0, -1.0))),
)
@example(keys=["bath.G", "bath.N"], exponents=(200.0, 200.0), signs=(1.0, 1.0))
def test_extreme_override_pairs_exit_cleanly(keys, exponents, signs):
    """Two extreme --set keys at once keep the contract of one."""
    sets = []
    for key, exponent, sign in zip(keys, exponents, signs):
        sets += ["--set", f"{key}={sign * 10.0**exponent!r}"]
    for argv in _EXTREME_RUNS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + sets)
        _assert_clean_exit(code, out.getvalue(), err.getvalue())


# oracle-validate at one TLS, one ratio and a small Hilbert space, so that
# an exact solve per draw stays fast.
_ORACLE_RUN = (
    "oracle-validate", "--set", "bath.N=1", "--set", "bath.Omega_B=7.1e-5",
    "--set", "oracle.ratios=0.03", "--set", "oracle.fock_start=2",
    "--set", "oracle.dim_cap=16",
)


@settings(max_examples=150)
@given(
    key=st.sampled_from(_EXTREME_KEYS),
    exponent=st.floats(-300.0, 300.0),
    sign=st.sampled_from((1.0, -1.0)),
)
def test_extreme_override_of_oracle_validate_exits_cleanly(key, exponent, sign):
    """The exact oracle keeps the contract of `_assert_clean_exit` under one
    extreme --set."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*_ORACLE_RUN, "--set", f"{key}={sign * 10.0**exponent!r}"])
    _assert_clean_exit(code, out.getvalue(), err.getvalue())


@settings(max_examples=150)
@given(
    keys=st.lists(st.sampled_from(_EXTREME_KEYS), min_size=2, max_size=2, unique=True),
    exponents=st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0)),
    signs=st.tuples(st.sampled_from((1.0, -1.0)), st.sampled_from((1.0, -1.0))),
)
def test_extreme_override_pairs_of_oracle_validate_exit_cleanly(keys, exponents, signs):
    """Two extreme --set keys at once keep the exact oracle's contract of one."""
    sets = []
    for key, exponent, sign in zip(keys, exponents, signs):
        sets += ["--set", f"{key}={sign * 10.0**exponent!r}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*_ORACLE_RUN, *sets])
    _assert_clean_exit(code, out.getvalue(), err.getvalue())


@pytest.mark.parametrize(
    "override", ["bath.kappa_2=1e123", "mode.Delta_0=1.99523347570821e+157"]
)
def test_overflowing_kernel_estimate_prints_one_line(capsys, override):
    """A trace-row system whose condition estimate overflows to NaN or inf
    is a numerical failure on one stderr line: the estimator's
    floating-point warnings once reached stderr ahead of it."""
    code, out, err = _run(
        capsys, "oracle-validate", "--set", "bath.N=1", "--set", "bath.Omega_B=7.1e-5",
        "--set", "oracle.ratios=0.03", "--set", override,
    )
    assert code == cli.EXIT_NUMERICAL
    assert len(err.splitlines()) == 1 and err.startswith("numerical failure:"), err
    assert out == ""


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


def test_cancelled_variances_exit_two_or_keep_the_heisenberg_bound(capsys):
    """At kappa_1 = 1e-20 the variances are differences of moments near
    1e16, which once printed var_x = 0, det sigma = 0 and xi = inf with
    squeezed = 1.  The run now stops with a numerical failure, or every row
    keeps det sigma >= 1/4 and no squeezed row has an infinite xi."""
    code, out, err = _run(capsys, "squeezing", "--format", "json", "--set", "bath.kappa_1=1e-20")
    if code == cli.EXIT_NUMERICAL:
        assert "lost its digits" in err
        return
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    for row in (dict(zip(doc["columns"], row)) for row in doc["rows"]):
        assert row["det_sigma"] >= 0.25 - HEISENBERG_ATOL
        assert not (row["squeezed"] == 1 and math.isinf(row["xi"]))


def test_starting_size_over_dimension_cap_is_reported_as_such(capsys):
    """Fock 8 with three TLS never fits a cap of 32, so no leak was
    measured and none is claimed."""
    code, _, err = _run(
        capsys, "oracle-validate", "--set", "bath.N=3", "--set", "bath.Omega_B=7e-5",
        "--set", "oracle.dim_cap=32",
    )
    assert code == cli.EXIT_NUMERICAL
    assert "total dimension 64 exceeds cap 32" in err
    assert "leak" not in err


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
    code, out, err = _run(capsys, "validate-all")
    assert code == cli.EXIT_VALIDATION
    assert "[FAIL] 01" in out
    assert "validation failures present" in err


def test_validate_all_dimension_cap_skip_exits_validation(capsys):
    code, out, err = _run(capsys, "validate-all", "--set", "oracle.dim_cap=16")
    assert code == cli.EXIT_VALIDATION
    assert "[SKIP] 10 oracle-equivalence: dimension cap:" in out
    assert out.count("[PASS]") == 11
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
    monkeypatch.setattr(validation, "validate_all", lambda cfg=None: ValidationReport((ok,)))
    out = tmp_path / "report.csv"
    code, text, _ = _run(capsys, "validate-all", "--out", str(out))
    assert code == 0
    assert "[PASS] 02" in text
    assert "all criteria passed" in text
    body = out.read_text(encoding="utf-8")
    assert "weak-drive-rates" in body


def test_validate_all_honours_output_path(monkeypatch, tmp_path, capsys):
    """`output.path` writes the table as `--out` does; without a path no
    table follows the report on stdout."""
    ok = CriterionResult(
        number=2,
        name="weak-drive-rates",
        status="pass",
        measured="max rel dev 1e-7",
        tolerance="rel < 1e-4",
        runtime=0.02,
    )
    monkeypatch.setattr(validation, "validate_all", lambda cfg=None: ValidationReport((ok,)))
    out = tmp_path / "report.json"
    code, text, _ = _run(
        capsys, "validate-all", "--set", f"output.path={out}", "--set", "output.format=json"
    )
    assert code == 0
    assert f"wrote {out}" in text
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["scenario"] == "validate-all"
    assert payload["rows"][0][:3] == [2, "weak-drive-rates", "pass"]
    code, text, _ = _run(capsys, "validate-all")
    assert code == 0
    assert "number,name,status" not in text and "wrote" not in text


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tlsbath.cli", "--version"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("tlsbath ")


_SCIPY_BOUNDARY = """
import sys
import numpy as np
import tlsbath
from tlsbath.bath import BathEnvironment, TlsParams
from tlsbath.config import load_config
from tlsbath.oracle import bloch_correlator_numeric
from tlsbath.sweeps import render_csv, run_scenario
from tlsbath.validation import validate_all

def run(name, *overrides):
    result = run_scenario(name, load_config(overrides=overrides))
    render_csv(result)
    return result

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

run("steady-state", "sweep.count=3")
run("stability-map", "sweep.count=3", "sweep2.count=3")
run("coherence", "bath.Omega_B=7e-5", "sweep.variable=tau", "sweep.start=0",
    "sweep.stop=10", "sweep.scale=linear", "sweep.count=3")
print(scipy_modules())
print(len(run("oracle-validate", "bath.N=1", "oracle.dim_cap=32", "bath.Omega_B=7.1e-5",
              "oracle.ratios=0.03").rows))
p = TlsParams(1.0, 1e-4, 2e-5, 8e-5 * np.exp(0.4j), 3e-5, (1e-8,))
print(np.isfinite(bloch_correlator_numeric(p, BathEnvironment(temperature=0.1), 1, -1, 2e-5)))
print(scipy_modules())
print(validate_all().all_passed)
print(scipy_modules())
"""


# `import tlsbath` and a rendered CSV scenario leave out the acceptance
# suite, the command line and the parsers only an INI file or JSON output
# needs; each loads when its first caller runs.
_LAZY_BOUNDARY = """
import sys
import tlsbath
from tlsbath.config import load_config
from tlsbath.sweeps import render_csv, render_json, run_scenario

LAZY = ("tlsbath.validation", "tlsbath.cli", "configparser", "json")
result = run_scenario("steady-state", load_config(overrides=["sweep.count=3"]))
render_csv(result)
print([m for m in LAZY if m in sys.modules])
print(render_json(result).startswith("{"))
print(load_config(path=sys.argv[1]).n_tls)
import tlsbath.validation
print(tlsbath.validation.validate_all().all_passed)
"""


def test_package_import_leaves_out_unused_modules(tmp_path):
    ini = tmp_path / "bath.ini"
    ini.write_text("[bath]\nN = 7\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_BOUNDARY, str(ini)],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "True", "7.0", "True"]


def test_package_loads_no_scipy():
    """No SciPy module, not even the top-level package, is loaded by
    importing tlsbath, by the rate and moment scenarios, by an
    ``oracle-validate`` row (block-LU steady state), by the correlator
    quadrature (NumPy 4x4 resolvent solve) or by the whole acceptance suite."""
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_BOUNDARY],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "1", "True", "[]", "True", "[]"]
