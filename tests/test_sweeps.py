"""Scenario sweeps: rows, rendering, determinism, rates shared across gamma_0."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tlsbath.sweeps as sweeps
from tlsbath.config import ConfigError, resolve
from tlsbath.dynamics import build_moment_system, stability
from tlsbath.rates import low_drive_limits, single_mode_rates
from tlsbath.sweeps import (
    SCENARIOS,
    UNSTABLE,
    rates_at,
    render_csv,
    render_json,
    run_scenario,
    write_result,
)

KAPPA_T = 5e-5  # baseline kappa_1 = 1e-4, kappa_2 = 0, T = 0


def _cfg(**sections):
    raw = {k: {kk: str(vv) for kk, vv in v.items()} for k, v in sections.items()}
    return resolve(raw)


def _small_sweep(**extra):
    base = {
        "bath": {"Omega_B": "2e-5"},
        "sweep": {"start": "1e-6", "stop": "1e-4", "count": "4"},
    }
    base.update(extra)
    return _cfg(**base)


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError, match="unknown scenario"):
        run_scenario("resonance", _small_sweep())


def test_tau_only_valid_for_coherence():
    cfg = _small_sweep(
        sweep={"variable": "tau", "start": "1e2", "stop": "1e6", "count": "4"}
    )
    with pytest.raises(ConfigError, match="tau only applies"):
        run_scenario("driving", cfg)
    cfg2 = _small_sweep()
    with pytest.raises(ConfigError, match="coherence scenario sweeps tau"):
        run_scenario("coherence", cfg2)


@pytest.mark.parametrize(
    "name", [s for s in SCENARIOS if s not in ("coherence", "oracle-validate", "stability-map")]
)
def test_sweep_shapes(name):
    cfg = _small_sweep()
    res = run_scenario(name, cfg)
    assert res.scenario == name
    assert len(res.rows) == 4
    assert res.columns[0] == "Omega_B"
    grid = cfg.sweep.grid()
    assert res.column("Omega_B") == [float(v) for v in grid]
    for row in res.rows:
        assert len(row) == len(res.columns)


def test_driving_response_peaks_on_bath_resonance():
    """Weak-drive response vs TLS detuning: one interior maximum, at zero."""
    cfg = _cfg(
        bath={"Omega_B": repr(1e-2 * KAPPA_T)},
        sweep={
            "variable": "Delta_B",
            "start": repr(-10 * KAPPA_T),
            "stop": repr(10 * KAPPA_T),
            "count": "41",
            "scale": "linear",
        },
    )
    res = run_scenario("driving", cfg)
    mag = np.array(res.column("Omega_prime_abs"))
    grid = np.array(res.column("Delta_B"))
    peak = int(np.argmax(mag))
    assert abs(grid[peak]) < 1e-12
    interior_maxima = np.flatnonzero(
        (mag[1:-1] > mag[:-2]) & (mag[1:-1] > mag[2:])
    )
    assert len(interior_maxima) == 1


def test_decay_rate_sweep_matches_weak_drive_closed_form():
    """With the bath undriven the swept rate is the weak-drive Lorentzian."""
    cfg = _cfg(
        sweep={
            "variable": "Delta_0",
            "start": "-2e-4",
            "stop": "2e-4",
            "count": "9",
            "scale": "linear",
        },
    )
    assert cfg.Omega_B == 0j
    res = run_scenario("decay-rate", cfg)
    for d0, gamma, gp in zip(
        res.column("Delta_0"), res.column("gamma"), res.column("gamma_plus")
    ):
        want, _ = low_drive_limits(cfg.n_tls, cfg.G, KAPPA_T, d0)
        assert gamma == pytest.approx(want, rel=1e-12, abs=0)
        assert gp == 0.0  # no thermal or drive-induced up-conversion


def test_freq_shift_sweep_matches_weak_drive_closed_form():
    cfg = _cfg(
        sweep={
            "variable": "Delta_0",
            "start": "-2e-4",
            "stop": "2e-4",
            "count": "9",
            "scale": "linear",
        },
    )
    res = run_scenario("freq-shift", cfg)
    for d0, delta in zip(res.column("Delta_0"), res.column("delta")):
        _, want = low_drive_limits(cfg.n_tls, cfg.G, KAPPA_T, d0)
        assert delta == pytest.approx(want, rel=1e-12, abs=1e-30)


def test_steady_state_marks_unstable_rows():
    cfg = _cfg(
        mode={"Delta_0": "2.5e-4", "gamma_0": "1e-9"},
        sweep={"start": "1e-6", "stop": "1e-3", "count": "7"},
    )
    res = run_scenario("steady-state", cfg)
    verdicts = res.column("stable")
    assert set(verdicts) == {0, 1}
    for row, ok in zip(res.rows, verdicts):
        body = row[1:-1]
        if ok:
            assert all(isinstance(v, float) for v in body)
        else:
            assert body == (UNSTABLE,) * 7


def test_rows_inside_stability_margin_are_unstable():
    """At this drive max Re(lambda) = +3.6e-13: the drift is unstable by a
    hair, and has no fixed point.  Each scenario writes that row as
    unstable and goes on."""
    margin = {"mode": {"gamma_0": "3e-8"}, "bath": {"Omega_B": "8.515588354431853e-05"}}
    point = _cfg(**margin)
    report = stability(build_moment_system(rates_at(point), point.gamma_0))
    assert not report.stable and report.max_real_part > 0
    grid = {"start": "8.515588354431853e-05", "stop": "8.6e-05", "count": "2", "scale": "linear"}
    steady = run_scenario("steady-state", _cfg(mode=margin["mode"], sweep=grid))
    assert steady.rows[0][1:] == (UNSTABLE,) * 7 + (0,)
    squeezing = run_scenario("squeezing", _cfg(mode=margin["mode"], sweep=grid))
    assert squeezing.rows[0][1:] == (UNSTABLE,) * 5 + (0,)
    taus = {"variable": "tau", "start": "0", "stop": "10", "count": "3", "scale": "linear"}
    coherence = run_scenario("coherence", _cfg(**margin, sweep=taus))
    assert all(row[1:] == (UNSTABLE,) * 3 for row in coherence.rows)


def test_squeezing_pair_pumping_contrast():
    """Removing pair pumping from the comparison column must not win:
    xi_no_pair_pumping stays at or above the full xi for a red-detuned
    cooling configuration."""
    cfg = _cfg(
        mode={"Delta_0": "-2.5e-4"},
        bath={"Omega_B": "5e-4"},
        sweep={"start": "1e-4", "stop": "1e-3", "count": "5"},
    )
    res = run_scenario("squeezing", cfg)
    for row in res.rows:
        assert UNSTABLE not in row
    xi = np.array(res.column("xi"))
    xi_ref = np.array(res.column("xi_no_pair_pumping"))
    assert np.all(xi_ref >= xi - 1e-12)
    for v, x, p in zip(
        res.column("var_x"), res.column("var_p"), res.column("det_sigma")
    ):
        assert p <= v * x + 1e-15  # det includes the (negative) cross term


def test_coherence_rows_from_zero_lag():
    cfg = _cfg(
        bath={"Omega_B": "7.1e-5"},
        sweep={
            "variable": "tau",
            "start": "0",
            "stop": "2e7",
            "count": "12",
            "scale": "linear",
        },
    )
    res = run_scenario("coherence", cfg)
    assert res.columns == ("tau", "g1_re", "g1_im", "g1_abs")
    assert res.rows[0][0] == 0.0
    assert res.rows[0][3] == pytest.approx(1.0, abs=1e-12)
    mags = res.column("g1_abs")
    assert all(m <= 1 + 1e-12 for m in mags)
    assert mags[-1] < mags[0]


def test_coherence_log_grid_skips_zero_lag_normalization():
    cfg = _cfg(
        bath={"Omega_B": "7.1e-5"},
        sweep={
            "variable": "tau",
            "start": "1e4",
            "stop": "1e8",
            "count": "9",
            "scale": "log",
        },
    )
    res = run_scenario("coherence", cfg)
    assert res.rows[0][0] == pytest.approx(1e4)
    # normalization is still against tau = 0, so nothing reads exactly 1
    assert all(m < 1.0 for m in res.column("g1_abs"))


@settings(max_examples=5)
@given(k=st.integers(1, 10))
def test_coherence_rows_independent_of_grid_start(k):
    """g1 at one lag never depends on the other grid points: rows of a grid
    starting at its k-th lag equal those of the grid starting at zero."""
    def rows(start, count):
        return run_scenario("coherence", _cfg(
            bath={"Omega_B": "7.1e-5"},
            sweep={"variable": "tau", "start": repr(start), "stop": "2e7",
                   "count": str(count), "scale": "linear"},
        )).rows

    full = rows(0.0, 11)
    assert rows(full[k][0], 11 - k) == full[k:]


def test_stability_map_covers_grid():
    cfg = _cfg(
        mode={"Delta_0": "2.5e-4"},
        sweep={"start": "1e-6", "stop": "1e-3", "count": "3"},
        sweep2={"variable": "gamma_0", "start": "1e-9", "stop": "1e-5", "count": "4"},
    )
    res = run_scenario("stability-map", cfg)
    assert res.columns == (
        "Omega_B",
        "gamma_0",
        "stable",
        "stable_criterion",
        "max_real_part",
    )
    assert len(res.rows) == 12
    pairs = {(row[0], row[1]) for row in res.rows}
    assert len(pairs) == 12
    for row in res.rows:
        assert row[2] in (0, 1)
        assert row[3] in (0, 1)
        assert row[2] == (row[4] < 0)
    # higher intrinsic damping can only stabilize
    by_drive = {}
    for row in res.rows:
        by_drive.setdefault(row[0], []).append((row[1], row[2]))
    for entries in by_drive.values():
        entries.sort()
        verdicts = [v for _, v in entries]
        assert verdicts == sorted(verdicts)


def test_stability_map_rejects_degenerate_axes():
    cfg = _cfg(sweep2={"variable": "Omega_B", "start": "1e-6", "stop": "1e-3"})
    with pytest.raises(ConfigError, match="must differ"):
        run_scenario("stability-map", cfg)
    cfg2 = _cfg(
        sweep={"variable": "tau", "start": "1", "stop": "10", "count": "3"}
    )
    with pytest.raises(ConfigError, match="not a stability-map axis"):
        run_scenario("stability-map", cfg2)


def test_oracle_scenario_guards():
    with pytest.raises(ConfigError, match="bath.N"):
        run_scenario("oracle-validate", _cfg(bath={"Omega_B": "1e-4"}))
    with pytest.raises(ConfigError, match="bath.Omega_B"):
        run_scenario("oracle-validate", _cfg(bath={"N": "1"}))


def test_oracle_scenario_single_tls_agreement():
    cfg = _cfg(
        bath={"N": "1", "Omega_B": "7.1e-5"},
        oracle={"ratios": "0.03"},
    )
    res = run_scenario("oracle-validate", cfg)
    assert len(res.rows) == 1
    row = dict(zip(res.columns, res.rows[0]))
    assert row["coupling_ratio"] == 0.03
    assert row["fock_dim"] >= 8
    assert row["occupation_rel_err"] < 0.05
    assert row["amplitude_rel_err"] < 0.05
    assert row["occupation_exact"] > 0


@pytest.mark.parametrize(
    "delta_0, delta_b", [(1e-8, 0.0), (1e-4, -1e16)], ids=["criterion-8-line", "far-bath"]
)
def test_rates_carry_the_configured_detuning_exactly(delta_0, delta_b):
    """The mode detuning reaches the rates unchanged.  Rebuilt from the
    absolute frequencies as (1 - Delta_B + Delta_0) - (1 - Delta_B), it read
    9.99999993922529e-09 and 0.0 at these points."""
    cfg = _cfg(mode={"Delta_0": delta_0}, bath={"Delta_B": delta_b})
    assert rates_at(cfg).detuning == cfg.Delta_0


def test_oracle_point_agrees_at_finite_temperature():
    """The exact solver's mode bath is at zero temperature, as in the
    effective theory, so the two agree within criterion 10's 5 % gate at
    T > 0 too.  A thermal mode bath in the exact solver alone read an
    occupation error of 0.92 here."""
    cfg = _cfg(bath={"N": "1", "Omega_B": "7e-5"}, environment={"temperature": "0.5"})
    row = sweeps.oracle_point(cfg, 0.01)
    assert max(row[4], row[9], row[14]) < 0.05


_OMEGA_AXIS = {"variable": "Omega_B", "start": "1e-6", "stop": "1e-3", "count": "3"}
_GAMMA_AXIS = {"variable": "gamma_0", "start": "1e-9", "stop": "1e-5", "count": "4"}


@pytest.mark.parametrize(
    "scenario, axes, points, rows",
    [
        ("stability-map", {"sweep": _OMEGA_AXIS, "sweep2": _GAMMA_AXIS}, 3, 12),
        ("stability-map", {"sweep": _GAMMA_AXIS, "sweep2": _OMEGA_AXIS}, 3, 12),
        ("steady-state", {"sweep": _GAMMA_AXIS, "bath": {"Omega_B": "7e-5"}}, 1, 4),
    ],
    ids=["omega-by-gamma", "gamma-by-omega", "steady-state-over-gamma"],
)
def test_rates_assembled_once_per_rate_point(monkeypatch, scenario, axes, points, rows):
    """gamma_0 never enters the rates: a grid takes one single_mode_rates
    call, over one point per value of its other axis, whichever axis order
    it has."""
    calls = []

    def counting(*args, **kwargs):
        rates = single_mode_rates(*args, **kwargs)
        calls.append(np.size(rates.g))
        return rates

    monkeypatch.setattr(sweeps, "single_mode_rates", counting)
    res = run_scenario(scenario, _cfg(**axes))
    assert calls == [points]
    assert len(res.rows) == rows


@pytest.mark.parametrize(
    "axes",
    [(_OMEGA_AXIS, _GAMMA_AXIS), (_GAMMA_AXIS, _OMEGA_AXIS)],
    ids=["omega-by-gamma", "gamma-by-omega"],
)
def test_stability_map_rows_match_per_cell_evaluation(axes):
    """Rows from rates shared across gamma_0 equal those of a cell-by-cell
    evaluation that assembles the rates at every point."""
    first, second = axes
    cfg = _cfg(sweep=first, sweep2=second)
    expected = []
    for v1 in cfg.sweep.grid():
        for v2 in cfg.sweep2.grid():
            point = cfg.replace(**{
                var: complex(v) if var == "Omega_B" else float(v)
                for var, v in ((first["variable"], v1), (second["variable"], v2))
            })
            rep = stability(build_moment_system(rates_at(point), point.gamma_0))
            expected.append(
                (float(v1), float(v2), int(rep.stable), int(rep.criterion), rep.max_real_part)
            )
    assert run_scenario("stability-map", cfg).rows == tuple(expected)


def test_csv_deterministic_up_to_timestamp():
    cfg = _small_sweep()
    a = render_csv(run_scenario("driving", cfg)).splitlines()
    b = render_csv(run_scenario("driving", cfg)).splitlines()
    assert len(a) == len(b)
    for la, lb in zip(a, b):
        if la.startswith("# generated"):
            assert lb.startswith("# generated")
            continue
        assert la == lb


def test_csv_layout():
    cfg = _small_sweep()
    text = render_csv(run_scenario("driving", cfg))
    lines = text.splitlines()
    assert lines[0].startswith("# tlsbath ")
    assert lines[1] == "# scenario driving"
    meta = [l for l in lines if l.startswith("# ") and " = " in l]
    assert any(l.startswith("# bath.Omega_B = ") for l in meta)
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "Omega_B,Omega_prime_re,Omega_prime_im,Omega_prime_abs"
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 4
    # floats round-trip exactly through the rendered text
    first = float(data[0].split(",")[0])
    assert first == 1e-6


def test_json_round_trip():
    cfg = _small_sweep()
    res = run_scenario("driving", cfg)
    doc = json.loads(render_json(res))
    assert doc["scenario"] == "driving"
    assert doc["columns"] == list(res.columns)
    assert doc["config"]["bath.Omega_B"] == "2e-05+0.0j"
    got = [tuple(row) for row in doc["rows"]]
    assert got == list(res.rows)


def test_write_result_both_formats(tmp_path):
    cfg = _small_sweep()
    res = run_scenario("driving", cfg)
    p_csv = tmp_path / "out.csv"
    p_json = tmp_path / "out.json"
    write_result(res, str(p_csv), "csv")
    write_result(res, str(p_json), "json")
    assert p_csv.read_text(encoding="utf-8") == render_csv(res)
    json.loads(p_json.read_text(encoding="utf-8"))
