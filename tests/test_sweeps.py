"""Scenario sweeps: rows, rendering, determinism, rates shared across gamma_0."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tlsbath
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


def _column(res, name) -> list:
    # one column of the table, one entry per row
    k = res.columns.index(name)
    return [row[k] for row in res.rows]


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
    assert _column(res, "Omega_B") == [float(v) for v in grid]
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
    mag = np.array(_column(res, "Omega_prime_abs"))
    grid = np.array(_column(res, "Delta_B"))
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
        _column(res, "Delta_0"), _column(res, "gamma"), _column(res, "gamma_plus")
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
    for d0, delta in zip(_column(res, "Delta_0"), _column(res, "delta")):
        _, want = low_drive_limits(cfg.n_tls, cfg.G, KAPPA_T, d0)
        assert delta == pytest.approx(want, rel=1e-12, abs=1e-30)


def test_steady_state_marks_unstable_rows():
    cfg = _cfg(
        mode={"Delta_0": "2.5e-4", "gamma_0": "1e-9"},
        sweep={"start": "1e-6", "stop": "1e-3", "count": "7"},
    )
    res = run_scenario("steady-state", cfg)
    verdicts = _column(res, "stable")
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
    xi = np.array(_column(res, "xi"))
    xi_ref = np.array(_column(res, "xi_no_pair_pumping"))
    assert np.all(xi_ref >= xi - 1e-12)
    for v, x, p in zip(
        _column(res, "var_x"), _column(res, "var_p"), _column(res, "det_sigma")
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
    mags = _column(res, "g1_abs")
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
    assert all(m < 1.0 for m in _column(res, "g1_abs"))


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


def test_oracle_scenario_leaves_the_global_rng_alone():
    cfg = _cfg(bath={"N": "1", "Omega_B": "7.1e-5"}, oracle={"ratios": "0.03", "dim_cap": "32"})
    np.random.seed(20261019)
    before = np.random.get_state()
    run_scenario("oracle-validate", cfg)
    after = np.random.get_state()
    assert np.array_equal(before[1], after[1])
    assert before[2:] == after[2:]


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


_EDGE_VALUES = (-0.0, 0.0, float("inf"), float("-inf"), float("nan"), 5e-324,
                1.7976931348623157e308, -2.5e-310, 0.1, 1e16, 1e-7, 0, 1, -7, 10**30,
                UNSTABLE)


@pytest.mark.parametrize(
    "rows",
    [tuple((v,) for v in _EDGE_VALUES), (_EDGE_VALUES * 3, _EDGE_VALUES[::-1] * 3), ()],
    ids=["one-column", "wide", "empty"],
)
def test_csv_rows_match_the_join_formula(rows):
    """Each data line is the old per-row ``",".join(map(str, row))``, kept
    here as the reference: signed zeros, infinities, NaN, the subnormal and
    largest floats, ints and the sentinel render as ``str`` renders them."""
    width = len(rows[0]) if rows else 3
    res = sweeps.SweepResult.from_rows("edge", tuple(f"c{k}" for k in range(width)), rows, ())
    lines = render_csv(res).splitlines()
    header = lines.index(",".join(res.columns))
    assert lines[header + 1:] == [",".join(map(str, row)) for row in rows]


def _mesh(n, m):
    # a 2-D grid as a sweep holds it: both axes on the open mesh, a
    # rate-only column on the first axis, and full-size float, int and
    # sentinel columns
    x, y = np.ix_(np.linspace(-1.0, 1.0, n), np.geomspace(1e-9, 1e-5, m))
    full = np.sin(7.0 * x) * y
    stable = full > 0
    filled = np.full(full.shape, UNSTABLE, dtype=object)
    filled[stable] = full[stable].tolist()
    return (x, y, x**2, full, stable.astype(int), filled)


def _twins(kind):
    # an earlier float column, and a later one equal to it or nearly so;
    # only the identical pair holds a NaN, which == would never match
    base = np.array([0.5, -0.0, 1e-300, 3.0, -2.0, np.nan if kind == "identical" else 7.0])
    twin = base.copy()
    if kind == "signed-zero":
        twin[1] = 0.0  # equal to -0.0 under ==, but renders differently
    elif kind == "nan":
        twin[3] = np.nan
    return (base, np.arange(6), twin, -base)


@pytest.mark.parametrize(
    "data",
    [
        _mesh(3, 4),
        _mesh(3, 1),
        _mesh(1, 4),
        _twins("identical"),
        _twins("signed-zero"),
        _twins("nan"),
        (np.linspace(0.0, 1.0, 4), np.array(UNSTABLE, dtype=object)),
        (np.zeros(0), np.zeros(0, dtype=int), np.zeros(0, dtype=object)),
    ],
    ids=["mesh", "mesh-one-column", "mesh-one-row", "twin", "twin-but-signed-zero",
         "twin-but-nan", "sentinel-scalar", "empty"],
)
def test_column_wise_rendering_matches_the_join_formula(data):
    """Columns held at their own shapes render, line for line, as the old
    per-row ``",".join(map(str, row))`` of the rows they expand to: broadcast
    axes, a float column bit for bit equal to an earlier one, and ones equal
    to it but for a signed zero or a NaN."""
    res = sweeps.SweepResult("edge", tuple(f"c{k}" for k in range(len(data))), data, ())
    lines = render_csv(res).splitlines()
    header = lines.index(",".join(res.columns))
    assert lines[header + 1:] == [",".join(map(str, row)) for row in res.rows]


def _nan_with_payload(payload):
    return np.array([0x7FF8000000000000 | payload], dtype=np.int64).view(np.float64)[0]


@pytest.mark.parametrize(
    "value",
    [0.0, -0.0, _nan_with_payload(0), _nan_with_payload(0xBEEF), -_nan_with_payload(1), 2.5],
    ids=["zero", "negative-zero", "nan", "nan-payload", "negative-nan-payload", "float"],
)
@pytest.mark.parametrize("shape", [(), (4,), (3, 1), (3, 4)], ids=["0d", "axis", "mesh-column", "full"])
def test_constant_float_columns_render_as_per_cell_str(value, shape):
    """A float64 column whose entries all have the same bits is formatted
    once and broadcast: every line is the per-row ``",".join(map(str,
    row))``, for signed zeros and NaNs with a payload too, next to an
    equal-valued column of other bits that must not share its strings."""
    x, y = np.ix_(np.linspace(0.0, 1.0, 3), np.arange(4.0))
    const = np.full(shape, value)
    other = np.full((3, 4), 0.0 if np.signbit(value) else -0.0)
    res = sweeps.SweepResult("edge", ("x", "y", "c", "other"), (x, y, const, other), ())
    lines = render_csv(res).splitlines()
    header = lines.index(",".join(res.columns))
    assert lines[header + 1:] == [",".join(map(str, row)) for row in res.rows]
    assert {line.split(",")[2] for line in lines[header + 1:]} == {str(float(value))}


def test_equal_values_of_other_bits_are_not_a_constant_column():
    """0.0 and -0.0 compare equal, and a NaN never does: a column mixing
    them is formatted cell by cell, as its bits differ."""
    zeros = np.array([0.0, -0.0, 0.0, -0.0])
    nans = np.array([np.nan, _nan_with_payload(7), np.nan, np.nan])
    res = sweeps.SweepResult("edge", ("zeros", "nans"), (zeros, nans), ())
    lines = render_csv(res).splitlines()
    assert lines[-4:] == ["0.0,nan", "-0.0,nan", "0.0,nan", "-0.0,nan"]


def test_repeated_columns_are_keyed_on_dtype_shape_and_bytes():
    """A column reuses an earlier one's scalars only where dtype, own shape
    and bytes all match: an int64 0 and a float64 +0.0 share their bytes
    but render 0 and 0.0; equal bytes at own shapes (2, 1) and (1, 2) each
    broadcast along their own axis; and a bit-equal column, a Fortran-order
    copy included, shares the earlier one's list object."""
    res = sweeps.SweepResult("edge", ("i", "f"), (np.zeros(3, dtype=np.int64), np.zeros(3)), ())
    assert render_csv(res).splitlines()[-3:] == ["0,0.0"] * 3
    assert [tuple(map(type, row)) for row in res.rows] == [(int, float)] * 3

    down, across = np.array([[1.0], [2.0]]), np.array([[1.0, 2.0]])
    res = sweeps.SweepResult("edge", ("down", "across"), (down, across), ())
    assert res.rows == ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (2.0, 2.0))
    assert render_csv(res).splitlines()[-4:] == ["1.0,1.0", "1.0,2.0", "2.0,1.0", "2.0,2.0"]

    column = np.array([[0.5, -0.0], [np.nan, 3.0]])
    data = (column, column.copy(), np.asfortranarray(column), column + 0.0)
    res = sweeps.SweepResult("edge", ("a", "b", "c", "d"), data, ())
    values = [v for v, _ in res._scalars]
    assert values[0] is values[1] is values[2] and values[3] is not values[0]
    assert all(row[0] is row[1] is row[2] for row in res.rows)


def test_columns_whose_byte_hashes_collide_are_told_apart_by_their_bits(monkeypatch):
    """The byte hash only finds candidates: with every hash equal, columns
    of other bits still keep their own entries and equal ones share one."""
    monkeypatch.setattr(sweeps, "hash", lambda _: 0, raising=False)
    zeros, column = np.array([0.0, -0.0]), np.array([0.5, np.nan])
    data = (zeros, -zeros, column, column.copy(), zeros + 0.0)
    res = sweeps.SweepResult("edge", tuple("abcde"), data, ())
    assert render_csv(res).splitlines()[-2:] == ["0.0,-0.0,0.5,0.5,0.0", "-0.0,0.0,nan,nan,0.0"]
    values = [v for v, _ in res._scalars]
    assert values[2] is values[3] and len({id(v) for v in values}) == 4


def test_rows_expand_the_columns_in_c_order():
    x, y = np.ix_(np.array([1.0, 2.0]), np.array([10.0, 20.0, 30.0]))
    data = (x, y, x * y, np.arange(6).reshape(2, 3))
    res = sweeps.SweepResult("grid", ("x", "y", "xy", "k"), data, ())
    assert res.shape == (2, 3)
    assert res.rows == (
        (1.0, 10.0, 10.0, 0), (1.0, 20.0, 20.0, 1), (1.0, 30.0, 30.0, 2),
        (2.0, 10.0, 20.0, 3), (2.0, 20.0, 40.0, 4), (2.0, 30.0, 60.0, 5),
    )
    assert [type(v) for v in res.rows[0]] == [float, float, float, int]
    assert _column(res, "x") == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]


_RESONANT_TAU = {"variable": "tau", "start": "0", "stop": "2e7", "count": "12", "scale": "linear"}


def test_real_trace_shares_its_twin_and_constant_scalars():
    """On resonance with a real drive g1 is real and positive: ``g1_abs``
    is ``g1_re``'s list, entry for entry the same objects, and every
    ``g1_im`` entry is one 0.0."""
    res = run_scenario("coherence", _cfg(bath={"Omega_B": "7.1e-5"}, sweep=_RESONANT_TAU))
    assert all(row[1] is row[3] for row in res.rows)
    assert len({id(row[2]) for row in res.rows}) == 1
    assert res.rows[0][2] == 0.0


def test_stability_map_holds_one_object_per_axis_value():
    cfg = _cfg(
        sweep={"variable": "Omega_B", "start": "1e-6", "stop": "1e-3", "count": "5"},
        sweep2={"variable": "gamma_0", "start": "1e-9", "stop": "1e-5", "count": "4"},
    )
    res = run_scenario("stability-map", cfg)
    for k, count in ((0, 5), (1, 4)):
        assert len({id(row[k]) for row in res.rows}) == len({row[k] for row in res.rows}) == count


def _bits(v):
    # a scalar's type and bits: -0.0 and 0.0, and NaN payloads, differ
    return type(v), struct.pack("<d", v) if isinstance(v, float) else v


_POOL = (0.0, -0.0, float(_nan_with_payload(0)), float(_nan_with_payload(0xBEEF)),
         float(-_nan_with_payload(1)), 5e-324, 1.5, -2.0, float("inf"))


@st.composite
def _bit_tables(draw):
    """Columns over a drawn table shape, each at a shape broadcastable to
    it: drawn from signed zeros, NaNs of several payloads and the
    subnormal whose bits are the int 1, constants, bit-equal copies of an
    earlier column, copies with one sign bit flipped, and small ints."""
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=2)))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("drawn", "constant", "twin", "flipped", "int")))
        if kind in ("twin", "flipped") and columns:
            col = draw(st.sampled_from(columns)).copy()
            if kind == "flipped" and col.size:
                col.flat[0] = -col.flat[0]
            columns.append(col)
            continue
        own = tuple(draw(st.sampled_from((1, n))) for n in shape)[draw(st.integers(0, len(shape))):]
        size = math.prod(own)
        if kind == "constant":
            columns.append(np.full(own, draw(st.sampled_from(_POOL))))
        elif kind == "int":
            ints = draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
            columns.append(np.array(ints, dtype=np.int64).reshape(own))
        else:
            floats = draw(st.lists(st.sampled_from(_POOL), min_size=size, max_size=size))
            columns.append(np.array(floats, dtype=np.float64).reshape(own))
    return tuple(columns)


@given(data=_bit_tables())
def test_rows_share_scalars_only_where_bits_are_equal(data):
    """``rows`` is the per-column ``broadcast_to(...).tolist()`` table bit
    for bit; every entry of a column broadcast from one own-shape entry is
    one object, and two entries are one object only where their bits are
    equal."""
    res = sweeps.SweepResult("edge", tuple(f"c{k}" for k in range(len(data))), data, ())
    expected = list(zip(*(np.broadcast_to(c, res.shape).reshape(-1).tolist() for c in data)))
    assert [tuple(map(_bits, row)) for row in res.rows] == [
        tuple(map(_bits, row)) for row in expected
    ]
    for k, c in enumerate(data):
        own = np.broadcast_to(np.arange(c.size).reshape(c.shape), res.shape).reshape(-1)
        first = {}
        for i, row in zip(own.tolist(), res.rows):
            assert first.setdefault(i, row[k]) is row[k]
    seen = {}
    for row in res.rows:
        for v in row:
            assert seen.setdefault(id(v), _bits(v)) == _bits(v)


def _json_with_row_lists(res):
    # render_json as it was written before: each row copied to a list
    return json.dumps({
        "artifact": "tlsbath",
        "version": tlsbath.__version__,
        "scenario": res.scenario,
        "generated": res.generated,
        "config": dict(res.meta),
        "columns": list(res.columns),
        "rows": [list(row) for row in res.rows],
    }, indent=2) + "\n"


def test_json_encodes_row_tuples_as_the_row_lists():
    trace = run_scenario("coherence", _cfg(bath={"Omega_B": "7.1e-5"}, sweep=_RESONANT_TAU))
    grid = run_scenario("steady-state", _cfg(
        mode={"Delta_0": "2.5e-4", "gamma_0": "1e-9"},
        sweep={"start": "1e-6", "stop": "1e-3", "count": "7"},
    ))
    assert {row[-1] for row in grid.rows} == {0, 1}
    for res in (trace, grid):
        assert render_json(res) == _json_with_row_lists(res)


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
