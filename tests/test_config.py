"""Configuration grammar, defaults, overrides, validation messages."""

import numpy as np
import pytest

from tlsbath.config import (
    ConfigError,
    SWEEP_VARIABLES,
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


def test_sweep_grid_endpoints():
    cfg = resolve(
        {"sweep": {"start": "1e-6", "stop": "1e-2", "count": "5", "scale": "log"}}
    )
    grid = cfg.sweep.grid()
    assert grid[0] == pytest.approx(1e-6, rel=1e-15)
    assert grid[-1] == pytest.approx(1e-2, rel=1e-15)
    assert len(grid) == 5
    assert np.allclose(np.diff(np.log(grid)), np.log(10), rtol=1e-12)

    lin = resolve(
        {"sweep": {"start": "-2", "stop": "2", "count": "5", "scale": "linear"}}
    ).sweep.grid()
    assert np.allclose(lin, [-2, -1, 0, 1, 2])


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


def test_replace_produces_new_validated_view():
    cfg = resolve({})
    cfg2 = cfg.replace(Omega_B=1e-4 + 0j, Delta_B=1e-5)
    assert cfg2.Omega_B == 1e-4 + 0j
    assert cfg.Omega_B == 0j  # original untouched
    assert cfg2.tls_params().Delta_B == 1e-5
