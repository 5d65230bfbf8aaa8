"""Configuration grammar, defaults, overrides, validation messages."""

import struct

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from tlsbath.config import (
    ConfigError,
    SWEEP_VARIABLES,
    SweepAxis,
    _canonical,
    _parse_complex,
    load_config,
    resolve,
    resolved_items,
)


def test_empty_config_resolves_to_baseline():
    cfg = resolve({})
    assert cfg.temperature == 0.0
    assert cfg.G == 1e-8 + 0j
    assert cfg.n_tls == 1e5
    assert cfg.kappa_1 == 1e-4
    assert cfg.kappa_2 == 0.0
    assert cfg.gamma_0 == 1e-7
    assert cfg.Delta_0 == 0.0
    assert cfg.Omega_B == 0j
    assert cfg.out_format == "csv"
    assert cfg.out_path == ""
    assert cfg.sweep.variable == "Omega_B"
    assert cfg.oracle_ratios == (0.1, 0.03, 0.01)


def test_drive_frame_properties():
    """Both detunings reach the physics unchanged: no absolute frequency
    is rebuilt from them."""
    cfg = resolve({"bath": {"Delta_B": "2e-5"}, "mode": {"Delta_0": "-1e-5"}})
    p = cfg.tls_params()
    assert p.omega_B == 1.0 and p.Delta_B == 2e-5
    assert cfg.mode_params().detuning == -1e-5
    assert not hasattr(cfg, "omega_d") and not hasattr(cfg, "omega_0")


def test_ini_parsing_and_case_insensitive_keys(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        """
        [Bath]
        omega_b = 3e-5+1e-5j
        N = 2e4

        [SWEEP]
        Variable = Delta_B
        start = -1e-4
        stop = 1e-4
        scale = linear
        """,
        encoding="utf-8",
    )
    cfg = load_config(ini)
    assert cfg.Omega_B == 3e-5 + 1e-5j
    assert cfg.n_tls == 2e4
    assert cfg.sweep.variable == "Delta_B"
    assert cfg.sweep.scale == "linear"
    # untouched sections keep defaults
    assert cfg.kappa_1 == 1e-4


def test_set_overrides_win_over_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[bath]\nOmega_B = 1e-5\n", encoding="utf-8")
    cfg = load_config(path, overrides=["bath.Omega_B=2e-5", "mode.gamma_0 = 5e-8"])
    assert cfg.Omega_B == 2e-5 + 0j
    assert cfg.gamma_0 == 5e-8


# keys that accept any value drawn below, each on its own
_FREE_KEYS = (
    ("mode", "Delta_0"),
    ("mode", "gamma_0"),
    ("mode", "Omega_0"),
    ("bath", "N"),
    ("bath", "G"),
    ("bath", "kappa_1"),
    ("bath", "kappa_2"),
    ("bath", "Omega_B"),
    ("bath", "Delta_B"),
    ("environment", "temperature"),
    ("oracle", "gamma_0"),
)


def _any_case(name):
    flips = st.lists(st.booleans(), min_size=len(name), max_size=len(name))
    return flips.map(lambda f: "".join(c.swapcase() if x else c for c, x in zip(name, f)))


# (section, key, section as written, key as written, value)
_ENTRY = st.sampled_from(_FREE_KEYS).flatmap(
    lambda sk: st.tuples(
        st.just(sk[0]),
        st.just(sk[1]),
        _any_case(sk[0]),
        _any_case(sk[1]),
        st.sampled_from(("1e-9", "2e-6", "3e-5", "4e-4")),
    )
)


@given(file=st.lists(_ENTRY, max_size=6), sets=st.lists(_ENTRY, max_size=8))
# an override once replaced the whole file section of another case, and
# bath.N=2, bath.n=3, bath.N=4 once resolved to N = 3
@example(
    file=[("bath", "kappa_1", "Bath", "kappa_1", "2e-4"), ("bath", "N", "Bath", "N", "2e4")],
    sets=[("bath", "Omega_B", "bath", "Omega_B", "1e-5")],
)
@example(
    file=[],
    sets=[("bath", "N", "bath", w, v) for w, v in (("N", "2"), ("n", "3"), ("N", "4"))],
)
def test_each_key_resolves_to_the_last_value_given(tmp_path_factory, file, sets):
    """File entries, then `--set` entries in order, with sections and keys
    in any letter case: every key ends at the last value given for it."""
    sections = {}  # one header per section, one line per key, as INI allows
    for section, key, written_section, written_key, value in file:
        header, lines = sections.setdefault(section, (written_section, {}))
        lines[key] = (written_key, value)
    path = None
    if sections:
        path = tmp_path_factory.mktemp("fold") / "run.ini"
        path.write_text(
            "".join(
                f"[{header}]\n" + "".join(f"{k} = {v}\n" for k, v in lines.values())
                for header, lines in sections.values()
            ),
            encoding="utf-8",
        )
    want = {s: {k: v for k, (_, v) in lines.items()} for s, (_, lines) in sections.items()}
    for section, key, _, _, value in sets:
        want.setdefault(section, {})[key] = value
    overrides = [f"{s}.{k}={v}" for _, _, s, k, v in sets]
    assert load_config(path, overrides) == resolve(want)


def test_default_section_is_unknown_not_dropped(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[DEFAULT]\nkappa_1 = 2e-4\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="DEFAULT: unknown section"):
        load_config(path)


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="config file"):
        load_config(tmp_path / "absent.ini")


def test_bad_override_shapes():
    with pytest.raises(ConfigError, match="expected section.key=value"):
        load_config(None, overrides=["bath.Omega_B"])
    with pytest.raises(ConfigError, match="section.key"):
        load_config(None, overrides=["OmegaB=1"])


@pytest.mark.parametrize(
    "raw,fragment",
    [
        ({"ocean": {"x": "1"}}, "ocean: unknown section"),
        ({"bath": {"Q": "1"}}, "bath.Q: unknown key"),
        ({"bath": {"kappa_1": "-1e-4"}}, "bath.kappa_1: must be > 0"),
        ({"bath": {"kappa_2": "-1"}}, "bath.kappa_2: must be >= 0"),
        ({"bath": {"N": "0"}}, "bath.N: must be > 0"),
        ({"mode": {"gamma_0": "-2"}}, "mode.gamma_0: must be >= 0"),
        ({"mode": {"gamma_0": "wild"}}, "cannot parse 'wild' as a real number"),
        ({"mode": {"Omega_0": "1+jj"}}, "cannot parse"),
        ({"mode": {"Delta_0": "inf"}}, "must be finite"),
        ({"environment": {"temperature": "-0.1"}}, "must be >= 0"),
        ({"sweep": {"count": "1"}}, "sweep.count: need at least 2 points"),
        ({"sweep": {"count": "2.5"}}, "expected an integer"),
        ({"sweep": {"start": "2e-3"}}, "must be < sweep.stop"),
        (
            {"sweep": {"start": "-1", "stop": "1"}},
            "log scale requires start > 0",
        ),
        ({"sweep": {"scale": "cubic"}}, "'cubic' not in"),
        ({"sweep": {"variable": "phase"}}, "'phase' not in"),
        ({"sweep2": {"count": "1"}}, "sweep2.count"),
        ({"output": {"format": "yaml"}}, "'yaml' not in"),
        ({"oracle": {"fock_start": "1"}}, "oracle.fock_start: must be >= 2"),
        ({"oracle": {"dim_cap": "10"}}, "oracle.dim_cap"),
        ({"oracle": {"gamma_0": "0"}}, "oracle.gamma_0: must be > 0"),
        ({"oracle": {"ratios": " , "}}, "need at least one ratio"),
        ({"oracle": {"ratios": "0.1, -0.5"}}, "ratios must be > 0"),
    ],
)
def test_validation_messages(raw, fragment):
    with pytest.raises(ConfigError, match=fragment.replace("(", "\\(")):
        resolve(raw)


@pytest.mark.parametrize(
    "raw,fragment",
    [
        # of two bad keys, the earlier one in grammar order
        ({"mode": {"Omega_0": "x"}, "bath": {"N": "0"}}, "mode.Omega_0: cannot parse"),
        ({"oracle": {"gamma_0": "0"}, "sweep": {"count": "2.5"}}, "sweep.count: expected"),
        # a bad key before the checks that relate keys
        (
            {"bath": {"Delta_B": "2"}, "environment": {"temperature": "-1"}},
            "environment.temperature: must be >= 0",
        ),
        ({"sweep": {"start": "2e-3"}, "output": {"format": "yaml"}}, "output.format"),
        ({"oracle": {"dim_cap": "10", "gamma_0": "0"}}, "oracle.gamma_0: must be > 0"),
        # and those checks in turn: the drive frame, the sweep ranges, the cap
        ({"bath": {"Delta_B": "2"}, "sweep": {"count": "1"}}, "bath.Delta_B: drive frequency"),
        ({"sweep2": {"count": "1"}, "oracle": {"dim_cap": "10"}}, "sweep2.count: need"),
    ],
)
def test_the_first_error_in_grammar_order_is_reported(raw, fragment):
    with pytest.raises(ConfigError, match=fragment):
        resolve(raw)


def test_sweep_grid_endpoints():
    cfg = resolve(
        {"sweep": {"start": "1e-6", "stop": "1e-2", "count": "5", "scale": "log"}}
    )
    grid = cfg.sweep.grid()
    assert grid[0] == pytest.approx(1e-6, rel=1e-15, abs=0)
    assert grid[-1] == pytest.approx(1e-2, rel=1e-15, abs=0)
    assert len(grid) == 5
    assert np.allclose(np.diff(np.log(grid)), np.log(10), rtol=1e-12)

    lin = resolve(
        {"sweep": {"start": "-2", "stop": "2", "count": "5", "scale": "linear"}}
    ).sweep.grid()
    assert np.allclose(lin, [-2, -1, 0, 1, 2])


@given(
    start=st.floats(-320.0, 300.0).map(lambda e: 10.0**e),
    ratio=st.floats(0.0, 50.0).map(lambda e: 10.0**e),
    count=st.integers(2, 3000),
)
@example(start=1e300, ratio=np.finfo(float).max / 1e300, count=3)
@example(start=5e-324, ratio=2.0, count=2)
def test_log_grid_is_geomspace_bit_for_bit(start, ratio, count):
    """The log grid is ``np.geomspace`` bit for bit over the positive
    range, subnormal starts and an end at the largest float included,
    where the last power overflows before the end is set."""
    stop = start * ratio
    assume(start < stop < np.inf)
    # both overflow alike at the largest float, before the end is set
    with np.errstate(over="ignore"):
        grid = SweepAxis("Omega_B", start, stop, count, "log").grid()
        want = np.geomspace(start, stop, count)
    assert grid.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_sweep_variable_choices_are_exactly_the_contract():
    assert SWEEP_VARIABLES == ("Omega_B", "Delta_B", "Delta_0", "gamma_0", "tau")


def test_integer_counts_accept_scientific_notation():
    cfg = resolve({"sweep": {"count": "1e2"}})
    assert cfg.sweep.count == 100


def test_resolved_items_deterministic_and_complete():
    cfg = resolve({"bath": {"G": "1e-8-2e-9j"}})
    items = resolved_items(cfg)
    again = resolved_items(resolve({"bath": {"G": "1e-8-2e-9j"}}))
    assert items == again
    keys = [k for k, _ in items]
    assert keys == sorted(keys, key=keys.index)  # stable documented order
    mapping = dict(items)
    assert mapping["bath.G"] == "1e-08-2e-09j"
    assert mapping["sweep.count"] == "100"
    # every scalar the physics consumes is present
    for needed in ("mode.Delta_0", "bath.Omega_B", "environment.temperature"):
        assert needed in mapping


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(value=st.builds(complex, _FINITE, _FINITE))
@example(value=complex(-0.0, -0.0))
@example(value=complex(0.0, -0.0))
@example(value=complex(-0.0, 0.0))
@example(value=complex(5e-324, -5e-324))
def test_canonical_complex_parses_back_bit_for_bit(value):
    """The metadata string of a complex value parses back to that value
    to the bit, the sign of a zero imaginary part included."""
    back = _parse_complex(_canonical(value), "mode.Omega_0")
    assert struct.pack("<2d", back.real, back.imag) == struct.pack(
        "<2d", value.real, value.imag
    )


def test_signed_zero_drive_keeps_its_signs_in_the_metadata():
    cfg = resolve({"mode": {"Omega_0": "-0.0-0.0j"}})
    assert dict(resolved_items(cfg))["mode.Omega_0"] == "-0.0-0.0j"


def test_resolved_items_of_a_non_default_config():
    """The metadata of one config that moves every key off its default:
    a complex G with a negative imaginary part, a linear sweep, a
    non-default sweep2 and three custom ratios.  ``[output]`` is not
    listed."""
    cfg = resolve(
        {
            "mode": {"Delta_0": "-2e-5", "gamma_0": "5e-8", "Omega_0": "1e-9+2e-9j"},
            "bath": {
                "N": "2.5e4",
                "G": "3e-8-4e-9j",
                "kappa_1": "2e-4",
                "kappa_2": "1e-5",
                "Omega_B": "7.1e-5",
                "Delta_B": "1e-5",
            },
            "environment": {"temperature": "0.05"},
            "sweep": {
                "variable": "Delta_B",
                "start": "-5e-4",
                "stop": "5e-4",
                "count": "11",
                "scale": "linear",
            },
            "sweep2": {
                "variable": "Delta_0",
                "start": "1e-8",
                "stop": "1e-4",
                "count": "1e1",
                "scale": "log",
            },
            "output": {"path": "out.csv", "format": "json"},
            "oracle": {
                "fock_start": "4",
                "dim_cap": "48",
                "gamma_0": "2e-6",
                "ratios": "0.2 0.05, 0.005",
            },
        }
    )
    assert resolved_items(cfg) == [
        ("mode.Delta_0", "-2e-05"),
        ("mode.gamma_0", "5e-08"),
        ("mode.Omega_0", "1e-09+2e-09j"),
        ("bath.N", "25000.0"),
        ("bath.G", "3e-08-4e-09j"),
        ("bath.kappa_1", "0.0002"),
        ("bath.kappa_2", "1e-05"),
        ("bath.Omega_B", "7.1e-05+0.0j"),
        ("bath.Delta_B", "1e-05"),
        ("environment.temperature", "0.05"),
        ("sweep.variable", "Delta_B"),
        ("sweep.start", "-0.0005"),
        ("sweep.stop", "0.0005"),
        ("sweep.count", "11"),
        ("sweep.scale", "linear"),
        ("sweep2.variable", "Delta_0"),
        ("sweep2.start", "1e-08"),
        ("sweep2.stop", "0.0001"),
        ("sweep2.count", "10"),
        ("sweep2.scale", "log"),
        ("oracle.fock_start", "4"),
        ("oracle.dim_cap", "48"),
        ("oracle.gamma_0", "2e-06"),
        ("oracle.ratios", "0.2 0.05 0.005"),
    ]


def test_replace_produces_new_validated_view():
    cfg = resolve({})
    cfg2 = cfg.replace(Omega_B=1e-4 + 0j, Delta_B=1e-5)
    assert cfg2.Omega_B == 1e-4 + 0j
    assert cfg.Omega_B == 0j  # original untouched
    assert cfg2.tls_params().Delta_B == 1e-5
