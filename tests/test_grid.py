"""A grid is evaluated in one batched pass: each of its rows equals the
evaluation of that one point, and a guard that fails names the point."""

import cmath
import csv
import dataclasses
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tlsbath.bath import BathEnvironment, TlsParams
from tlsbath.cli import _rates_result
from tlsbath.config import resolve
from tlsbath.dynamics import (
    UnstableSystemError,
    build_moment_system,
    drift_matrix,
    stability,
    steady_state,
)
from tlsbath.rates import ModeParams, single_mode_rates
from tlsbath.sweeps import UNSTABLE, rates_at, render_csv, render_json, run_scenario

_CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


def _checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", _CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CANCELLATION_COLUMNS = _checks().CANCELLATION_COLUMNS
CANCELLATION_RTOL = _checks().CANCELLATION_RTOL
VERDICTS = {"stable", "stable_criterion", "squeezed"}

SCENARIOS = ("driving", "decay-rate", "steady-state", "squeezing", "stability-map")
VARIABLES = ("Omega_B", "Delta_B", "Delta_0", "gamma_0")


def _log(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


def _complex(lo, hi):
    return st.builds(lambda r, phi: r * cmath.exp(1j * phi), _log(lo, hi), st.floats(0.0, 6.283))


def _axis(draw, variable, kappa1, count):
    if variable == "Omega_B":
        lo, hi, scale = draw(_log(-6.0, -4.5)), draw(_log(-4.2, -3.0)), "log"
    elif variable == "gamma_0":
        lo, hi, scale = draw(_log(-11.0, -9.0)), draw(_log(-7.0, -5.0)), "log"
    else:
        lo = draw(st.floats(-5.0, -0.5)) * kappa1
        hi, scale = draw(st.floats(0.5, 5.0)) * kappa1, "linear"
    return {"variable": variable, "start": repr(lo), "stop": repr(hi),
            "count": str(count), "scale": scale}


@st.composite
def _runs(draw):
    """A scenario on a random config: complex G and Omega_B, both
    detunings, dephasing and temperature nonzero, over each sweep variable."""
    scenario = draw(st.sampled_from(SCENARIOS))
    kappa1 = draw(_log(-5.0, -3.0))
    raw = {
        "bath": {
            "G": repr(draw(_complex(-8.5, -7.5))),
            "Omega_B": repr(draw(_complex(-6.0, -3.5))),
            "kappa_1": repr(kappa1),
            "kappa_2": repr(draw(_log(-6.0, -4.0))),
            "Delta_B": repr(draw(st.floats(-2.0, 2.0)) * kappa1),
        },
        "mode": {
            "Delta_0": repr(draw(st.floats(-3.0, 3.0)) * kappa1),
            "gamma_0": repr(draw(_log(-10.0, -6.0))),
        },
        "environment": {"temperature": repr(draw(_log(-2.0, -0.5)))},
    }
    first = draw(st.sampled_from(VARIABLES))
    raw["sweep"] = _axis(draw, first, kappa1, 5)
    if scenario == "stability-map":
        second = draw(st.sampled_from([v for v in VARIABLES if v != first]))
        raw["sweep2"] = _axis(draw, second, kappa1, 3)
    return scenario, resolve(raw)


def _one_point(scenario, point) -> tuple:
    """The scenario's columns at one point, from one-point calls."""
    r = rates_at(point)
    if scenario == "driving":
        return (r.Omega_prime.real, r.Omega_prime.imag, abs(r.Omega_prime))
    if scenario == "decay-rate":
        return (r.gamma, r.gamma_plus, r.gamma_minus)
    ms = build_moment_system(r, point.gamma_0)
    if scenario == "stability-map":
        rep = stability(ms)
        return (int(rep.stable), int(rep.criterion), rep.max_real_part)
    try:
        rep = steady_state(ms)
    except UnstableSystemError:
        return (UNSTABLE,) * 7 + (0,) if scenario == "steady-state" else (UNSTABLE,) * 5 + (0,)
    if scenario == "steady-state":
        return (rep.occupation, rep.amplitude.real, rep.amplitude.imag, rep.pair_amplitude.real,
                rep.pair_amplitude.imag, rep.xi, rep.centered_occupation, 1)
    xi0 = steady_state(build_moment_system(dataclasses.replace(r, g=0j), point.gamma_0)).xi
    return (rep.xi, xi0, rep.var_x, rep.var_p, rep.det_sigma, int(rep.squeezed))


# On and around the stability margin: +3.6e-13 at the first drive.
_MARGIN = {"mode": {"gamma_0": "3e-8"}, "sweep": {"start": "8.515588354431853e-05",
                                                  "stop": "8.6e-05", "count": "4",
                                                  "scale": "linear"}}


@settings(max_examples=120)
@given(run=_runs())
@example(run=("steady-state", resolve(_MARGIN)))
@example(run=("squeezing", resolve(_MARGIN)))
@example(run=("stability-map", resolve(_MARGIN)))
def test_grid_rows_equal_one_point_evaluation(run):
    """Verdicts and sentinels exactly, floats to 1e-12 relative (the
    cancellation columns to the benchmark's 1e-4)."""
    scenario, cfg = run
    res = run_scenario(scenario, cfg)
    axes = (cfg.sweep, cfg.sweep2) if scenario == "stability-map" else (cfg.sweep,)
    grids = [axis.grid() for axis in axes]
    points = [(a, b) for a in grids[0] for b in grids[1]] if len(axes) == 2 else grids[0][:, None]
    assert len(res.rows) == len(points)
    for row, values in zip(res.rows, points):
        assert row[: len(axes)] == tuple(float(v) for v in values)
        at = {a.variable: complex(v) if a.variable == "Omega_B" else float(v)
              for a, v in zip(axes, values)}
        want = _one_point(scenario, cfg.replace(**at))
        for column, got, expected in zip(res.columns[len(axes):], row[len(axes):], want):
            if isinstance(expected, str) or column in VERDICTS:
                assert got == expected, (column, got, expected)
                continue
            rtol = CANCELLATION_RTOL if column in CANCELLATION_COLUMNS else 1e-12
            assert type(got) is float
            assert math.isclose(got, expected, rel_tol=rtol, abs_tol=0.0), (column, got, expected)


def _parsed(field: str):
    # what a reader of the CSV gets back: an int, a float, or the sentinel
    for kind in (int, float):
        try:
            return kind(field)
        except ValueError:
            pass
    return field


def _same(got, expected) -> bool:
    # exact: same type, and floats to the bit (signed zero and NaN included)
    if type(got) is not type(expected):
        return False
    return repr(got) == repr(expected) if isinstance(got, float) else got == expected


@st.composite
def _traces(draw):
    """The coherence trace or the rates report on a random config: resonant
    with a real drive, where g1 is real and ``g1_abs`` repeats ``g1_re``
    bit for bit, or with a detuned mode and complex G and Omega_B, where
    g1 is complex."""
    kappa1 = draw(_log(-4.5, -3.5))
    raw = {
        "bath": {"kappa_1": repr(kappa1), "Omega_B": repr(draw(_log(-5.0, -3.5)))},
        "mode": {"gamma_0": repr(draw(_log(-8.0, -6.0)))},
        "environment": {"temperature": repr(draw(st.sampled_from((0.0, 0.05))))},
        "sweep": {"variable": "tau", "start": "0", "stop": repr(draw(_log(5.0, 8.0))),
                  "count": str(draw(st.integers(2, 8))), "scale": "linear"},
    }
    if draw(st.booleans()):
        raw["bath"]["G"] = repr(draw(_complex(-8.5, -7.5)))
        raw["bath"]["Omega_B"] = repr(draw(_complex(-5.0, -3.5)))
        raw["mode"]["Delta_0"] = repr(draw(st.floats(0.1, 3.0)) * kappa1)
    return draw(st.sampled_from(("coherence", "rates"))), resolve(raw)


def _assert_round_trip(res):
    # the CSV and the JSON of a result both parse back to its rows
    lines = [line for line in render_csv(res).splitlines() if not line.startswith("#")]
    assert lines[0] == ",".join(res.columns)
    from_csv = [tuple(map(_parsed, fields)) for fields in csv.reader(lines[1:])]
    doc = json.loads(render_json(res))
    assert doc["columns"] == list(res.columns)
    assert doc["config"] == dict(res.meta)
    from_json = [tuple(row) for row in doc["rows"]]
    for parsed in (from_csv, from_json):
        assert len(parsed) == len(res.rows)
        for got, expected in zip(parsed, res.rows):
            assert len(got) == len(expected)
            assert all(_same(a, b) for a, b in zip(got, expected)), (got, expected)


# A resonant trace, and one at the margin drive, where every g1 cell is
# the sentinel.
_TAU = {"variable": "tau", "start": "0", "stop": "4e7", "count": "5", "scale": "linear"}
_RESONANT_TRACE = {"bath": {"Omega_B": "7.1e-5"}, "sweep": _TAU}
_MARGIN_TRACE = {"mode": _MARGIN["mode"], "bath": {"Omega_B": _MARGIN["sweep"]["start"]},
                 "sweep": _TAU}


@settings(max_examples=120)
@given(run=_runs(), trace=_traces())
@example(run=("steady-state", resolve(_MARGIN)), trace=("coherence", resolve(_RESONANT_TRACE)))
@example(run=("squeezing", resolve(_MARGIN)), trace=("coherence", resolve(_MARGIN_TRACE)))
def test_csv_and_json_round_trip(run, trace):
    """Both renderings of a random grid scenario, and of a coherence trace
    or rates report, parse back to its rows exactly: floats by ``float()``,
    ints, and the ``unstable`` sentinel."""
    for scenario, cfg in (run, trace):
        res = _rates_result(cfg) if scenario == "rates" else run_scenario(scenario, cfg)
        _assert_round_trip(res)


def test_oracle_validate_table_round_trips():
    cfg = resolve({"bath": {"N": "1", "Omega_B": "7.1e-5"}, "oracle": {"ratios": "0.03"}})
    res = run_scenario("oracle-validate", cfg)
    assert res.rows[0][0] == 0.03 and isinstance(res.rows[0][1], int)
    _assert_round_trip(res)


ENV0 = BathEnvironment(temperature=0.0)
MODE = ModeParams(detuning=0.0, gamma0=1e-7)


def test_overflowing_grid_point_is_named():
    """One drive of a grid overflows the resolvent: the typed error names
    that point's index, and the same point alone raises the same error."""
    drives = np.array([1e-5, 7e-5, 1e306, 2e-5])
    tls = TlsParams(1.0, 1e-4, 0.0, drives, 0.0, (1e-8,))
    named = r"resolvent overflows at \|Omega_B\| = 1e\+306 \(grid index 2\)"
    with pytest.raises(OverflowError, match=named):
        single_mode_rates(MODE, [tls], ENV0, counts=[1e5])
    point = dataclasses.replace(tls, Omega_B=1e306)
    with pytest.raises(OverflowError, match=r"resolvent overflows at \|Omega_B\| = 1e\+306$"):
        single_mode_rates(MODE, [point], ENV0, counts=[1e5])


def test_overflowing_sweep_row_is_named():
    """The same through a scenario: the failing drive's row is named."""
    cfg = resolve({"sweep": {"start": "1e-6", "stop": "1e306", "count": "3"}})
    with pytest.raises(OverflowError, match=r"\(grid index 2\)"):
        run_scenario("driving", cfg)


def test_unstable_grid_point_is_named():
    """steady_state over a grid raises at its first unstable point and
    names it; restricted to the stable points it evaluates the rest."""
    cfg = resolve({"mode": {"gamma_0": "3e-8"}})
    drives = np.array([3e-5, 8.6e-5, 3e-4])
    ms = build_moment_system(rates_at(cfg.replace(Omega_B=drives.astype(complex))), cfg.gamma_0)
    stable = stability(ms).stable
    assert stable.tolist() == [True, False, True]
    with pytest.raises(UnstableSystemError, match=r"\(grid index 1\)"):
        steady_state(ms)
    rep = steady_state(ms, where=stable)
    for k in (0, 2):
        one = steady_state(build_moment_system(rates_at(cfg.replace(Omega_B=complex(drives[k]))),
                                               cfg.gamma_0))
        assert rep.occupation[k] == one.occupation
        assert rep.xi[k] == one.xi


def test_grid_points_round_as_single_points():
    """Rates, steady states and drift matrices over a (drive x mode
    detuning) grid, the drift also along a gamma_0 axis, equal the
    one-point calls bit for bit: one code path, not a twin."""
    env = BathEnvironment(temperature=0.05)
    drives = np.array([2e-5 + 1e-5j, 7e-5 - 3e-5j, 3e-4j])[:, None]
    detunings = np.array([-4e-5, 0.0, 1e-5, 6e-5])
    tls = TlsParams(1.0, 1e-4, 2e-6, drives, 1e-5, (1e-8 - 4e-9j,))
    grid = single_mode_rates(ModeParams(detunings, 1e-7), [tls], env, counts=[1e5])
    ms = build_moment_system(grid, 1e-8)  # one point unstable
    stable = stability(ms).stable
    assert 0 < stable.sum() < stable.size
    rep = steady_state(ms, where=stable)
    gammas = np.array([1e-8, 3e-7])
    drift, inhom = drift_matrix(build_moment_system(grid, gammas[:, None, None]))
    assert drift.shape == (2, 3, 4, 5, 5) and inhom.shape == (2, 3, 4, 5)
    for i, j in np.ndindex(3, 4):
        point = TlsParams(1.0, 1e-4, 2e-6, complex(drives[i, 0]), 1e-5, (1e-8 - 4e-9j,))
        one = single_mode_rates(ModeParams(float(detunings[j]), 1e-7), [point], env, counts=[1e5])
        for field in dataclasses.fields(one):
            assert np.broadcast_to(getattr(grid, field.name), (3, 4))[i, j] == getattr(one, field.name)
        one_ms = build_moment_system(one, 1e-8)
        assert stable[i, j] == stability(one_ms).stable
        if stable[i, j]:
            one_rep = steady_state(one_ms)
            assert np.array_equal(rep.moments[i, j], one_rep.moments)
            assert rep.xi[i, j] == one_rep.xi and rep.det_sigma[i, j] == one_rep.det_sigma
        for k, gamma0 in enumerate(gammas.tolist()):
            one_drift, one_inhom = drift_matrix(build_moment_system(one, gamma0))
            assert drift[k, i, j].tobytes() == one_drift.tobytes()
            assert inhom[k, i, j].tobytes() == one_inhom.tobytes()
