"""Structured configuration for sweeps and the command line.

The on-disk format is INI text parsed with :mod:`configparser`.  Every
key has a default, so an empty file (or no file at all) resolves to the
baseline parameter set used throughout: temperature 0, coupling
G = 1e-8, N = 1e5 two-level systems, kappa_1 = 1e-4, kappa_2 = 0,
gamma_0 = 1e-7, all rates in units of the TLS frequency (omega_B = 1).

Grammar::

    [mode]
    Delta_0 = 0.0        # mode detuning from the drive, omega_0 - omega_d
    gamma_0 = 1e-7       # bare mode energy decay rate
    Omega_0 = 0.0        # direct mode drive amplitude (complex allowed)

    [bath]
    N = 1e5              # number of identical TLS
    G = 1e-8             # mode-TLS coupling (complex allowed)
    kappa_1 = 1e-4       # TLS energy decay rate
    kappa_2 = 0.0        # TLS pure-dephasing rate
    Omega_B = 0.0        # TLS drive amplitude (complex allowed)
    Delta_B = 0.0        # TLS detuning from the drive, omega_B - omega_d

    [environment]
    temperature = 0.0

    [sweep]
    variable = Omega_B   # one of Omega_B, Delta_B, Delta_0, gamma_0, tau
    start = 1e-6
    stop = 1e-3
    count = 100
    scale = log          # or linear

    [sweep2]             # optional second axis (stability-map)
    variable = gamma_0
    ...

    [output]
    path =               # empty means stdout
    format = csv         # or json

    [oracle]
    fock_start = 8
    dim_cap = 64
    gamma_0 = 3e-6       # mode decay used for the oracle comparison
    ratios = 0.1, 0.03, 0.01   # coupling-to-linewidth ratios G/kappa_t

Complex values use Python syntax ("1e-4", "1e-4+5e-5j").  `--set
section.key=value` overrides parse identically to file values.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .bath import BathEnvironment, TlsParams
from .rates import ModeParams

SWEEP_VARIABLES = ("Omega_B", "Delta_B", "Delta_0", "gamma_0", "tau")
SCALES = ("linear", "log")
FORMATS = ("csv", "json")


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


# Defaults for every recognized key, as grammar strings.  Resolution
# never consults anything else, so a config is reproducible from the
# resolved key set alone.
DEFAULTS = {
    "mode": {"Delta_0": "0.0", "gamma_0": "1e-7", "Omega_0": "0.0"},
    "bath": {
        "N": "1e5",
        "G": "1e-8",
        "kappa_1": "1e-4",
        "kappa_2": "0.0",
        "Omega_B": "0.0",
        "Delta_B": "0.0",
    },
    "environment": {"temperature": "0.0"},
    "sweep": {
        "variable": "Omega_B",
        "start": "1e-6",
        "stop": "1e-3",
        "count": "100",
        "scale": "log",
    },
    "sweep2": {
        "variable": "gamma_0",
        "start": "1e-9",
        "stop": "1e-5",
        "count": "100",
        "scale": "log",
    },
    "output": {"path": "", "format": "csv"},
    "oracle": {
        "fock_start": "8",
        "dim_cap": "64",
        "gamma_0": "3e-6",
        "ratios": "0.1, 0.03, 0.01",
    },
}


def _parse_float(raw, field):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{field}: cannot parse {raw!r} as a real number") from None
    if not math.isfinite(value):
        raise ConfigError(f"{field}: value must be finite, got {raw!r}")
    return value


def _parse_complex(raw, field):
    try:
        value = complex(raw.replace(" ", ""))
    except ValueError:
        raise ConfigError(f"{field}: cannot parse {raw!r} as a complex number") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ConfigError(f"{field}: value must be finite, got {raw!r}")
    return value


def _parse_int(raw, field):
    try:
        # accept "1e2" style counts, but only if integral
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{field}: cannot parse {raw!r} as an integer") from None
    if not math.isfinite(value) or value != int(value):
        raise ConfigError(f"{field}: expected an integer, got {raw!r}")
    return int(value)


def _parse_choice(raw, field, choices):
    value = raw.strip()
    if value not in choices:
        raise ConfigError(f"{field}: {value!r} not in {choices}")
    return value


@dataclass(frozen=True)
class SweepAxis:
    """One sweep dimension: a named variable and its sample grid."""

    variable: str
    start: float
    stop: float
    count: int
    scale: str

    def grid(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved parameter set for any scenario run.

    Everything is in the frame rotating at the drive frequency omega_d:
    Delta_B = omega_B - omega_d and Delta_0 = omega_0 - omega_d, with
    omega_B = 1.  The mode and the rates see only these detunings; the
    absolute frequencies enter only the input checks that both are
    positive.
    """

    Delta_0: float
    gamma_0: float
    Omega_0: complex
    n_tls: float
    G: complex
    kappa_1: float
    kappa_2: float
    Omega_B: complex
    Delta_B: float
    temperature: float
    sweep: SweepAxis
    sweep2: SweepAxis
    out_path: str
    out_format: str
    oracle_fock_start: int
    oracle_dim_cap: int
    oracle_gamma_0: float
    oracle_ratios: tuple

    def tls_params(self) -> TlsParams:
        return TlsParams(
            omega_B=1.0,
            kappa1=self.kappa_1,
            kappa2=self.kappa_2,
            Omega_B=self.Omega_B,
            Delta_B=self.Delta_B,
            couplings=(self.G,),
        )

    def mode_params(self) -> ModeParams:
        return ModeParams(
            detuning=self.Delta_0, gamma0=self.gamma_0, Omega=self.Omega_0
        )

    def environment(self) -> BathEnvironment:
        return BathEnvironment(temperature=self.temperature)

    def replace(self, **changes) -> "ScenarioConfig":
        return dataclasses.replace(self, **changes)


def _validate_axis(section, values) -> SweepAxis:
    variable = _parse_choice(values["variable"], f"{section}.variable", SWEEP_VARIABLES)
    start = _parse_float(values["start"], f"{section}.start")
    stop = _parse_float(values["stop"], f"{section}.stop")
    count = _parse_int(values["count"], f"{section}.count")
    scale = _parse_choice(values["scale"], f"{section}.scale", SCALES)
    if count < 2:
        raise ConfigError(f"{section}.count: need at least 2 points, got {count}")
    if not start < stop:
        raise ConfigError(f"{section}.start: must be < {section}.stop ({start} vs {stop})")
    if scale == "log" and start <= 0:
        raise ConfigError(f"{section}.start: log scale requires start > 0, got {start}")
    return SweepAxis(variable, start, stop, count, scale)


def check_frame(delta_b: float, delta_0: float) -> None:
    """Both absolute frequencies positive: the drive's, omega_d = 1 -
    Delta_B, and the mode's, omega_d + Delta_0.  Both fall as Delta_B
    grows and the mode's as Delta_0 falls, so a sweep grid is checked at
    its largest Delta_B and smallest Delta_0."""
    if 1.0 - delta_b <= 0:
        raise ConfigError(
            f"bath.Delta_B: drive frequency omega_d = 1 - Delta_B must be > 0, "
            f"got {1.0 - delta_b}"
        )
    if 1.0 - delta_b + delta_0 <= 0:
        raise ConfigError(
            f"mode.Delta_0: mode frequency omega_d + Delta_0 must be > 0, "
            f"got {1.0 - delta_b + delta_0}"
        )


def resolve(raw: dict) -> ScenarioConfig:
    """Merge ``raw`` {section: {key: string}} over defaults and validate."""
    merged = {s: dict(kv) for s, kv in DEFAULTS.items()}
    for section, entries in raw.items():
        if section not in merged:
            raise ConfigError(f"{section}: unknown section")
        for key, value in entries.items():
            if key not in merged[section]:
                raise ConfigError(f"{section}.{key}: unknown key")
            merged[section][key] = value

    m, b, e = merged["mode"], merged["bath"], merged["environment"]
    gamma_0 = _parse_float(m["gamma_0"], "mode.gamma_0")
    if gamma_0 < 0:
        raise ConfigError(f"mode.gamma_0: must be >= 0, got {gamma_0}")
    n_tls = _parse_float(b["N"], "bath.N")
    if n_tls <= 0:
        raise ConfigError(f"bath.N: must be > 0, got {n_tls}")
    kappa_1 = _parse_float(b["kappa_1"], "bath.kappa_1")
    if kappa_1 <= 0:
        raise ConfigError(f"bath.kappa_1: must be > 0, got {kappa_1}")
    kappa_2 = _parse_float(b["kappa_2"], "bath.kappa_2")
    if kappa_2 < 0:
        raise ConfigError(f"bath.kappa_2: must be >= 0, got {kappa_2}")
    delta_b = _parse_float(b["Delta_B"], "bath.Delta_B")
    delta_0 = _parse_float(m["Delta_0"], "mode.Delta_0")
    check_frame(delta_b, delta_0)
    temperature = _parse_float(e["temperature"], "environment.temperature")
    if temperature < 0:
        raise ConfigError(f"environment.temperature: must be >= 0, got {temperature}")

    o = merged["oracle"]
    fock_start = _parse_int(o["fock_start"], "oracle.fock_start")
    if fock_start < 2:
        raise ConfigError(f"oracle.fock_start: must be >= 2, got {fock_start}")
    dim_cap = _parse_int(o["dim_cap"], "oracle.dim_cap")
    if dim_cap < 2 * fock_start:
        raise ConfigError(
            f"oracle.dim_cap: must allow at least fock_start x one TLS "
            f"({2 * fock_start}), got {dim_cap}"
        )
    oracle_gamma_0 = _parse_float(o["gamma_0"], "oracle.gamma_0")
    if oracle_gamma_0 <= 0:
        raise ConfigError(f"oracle.gamma_0: must be > 0, got {oracle_gamma_0}")
    ratio_parts = [p for p in o["ratios"].replace(",", " ").split() if p]
    if not ratio_parts:
        raise ConfigError("oracle.ratios: need at least one ratio")
    ratios = tuple(_parse_float(p, "oracle.ratios") for p in ratio_parts)
    if any(r <= 0 for r in ratios):
        raise ConfigError(f"oracle.ratios: ratios must be > 0, got {ratios}")

    out = merged["output"]
    return ScenarioConfig(
        Delta_0=delta_0,
        gamma_0=gamma_0,
        Omega_0=_parse_complex(m["Omega_0"], "mode.Omega_0"),
        n_tls=n_tls,
        G=_parse_complex(b["G"], "bath.G"),
        kappa_1=kappa_1,
        kappa_2=kappa_2,
        Omega_B=_parse_complex(b["Omega_B"], "bath.Omega_B"),
        Delta_B=delta_b,
        temperature=temperature,
        sweep=_validate_axis("sweep", merged["sweep"]),
        sweep2=_validate_axis("sweep2", merged["sweep2"]),
        out_path=out["path"].strip(),
        out_format=_parse_choice(out["format"], "output.format", FORMATS),
        oracle_fock_start=fock_start,
        oracle_dim_cap=dim_cap,
        oracle_gamma_0=oracle_gamma_0,
        oracle_ratios=ratios,
    )


def _read_ini(text: str) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from None
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _canonical_sections(raw: dict) -> dict:
    """configparser lowercases nothing by default for sections but does
    for keys unless optionxform is identity; normalize against the
    known grammar case-insensitively so `omega_b` and `Omega_B` match."""
    lookup = {
        s.lower(): (s, {k.lower(): k for k in kv}) for s, kv in DEFAULTS.items()
    }
    out = {}
    for section, entries in raw.items():
        sec = lookup.get(section.lower())
        if sec is None:
            raise ConfigError(f"{section}: unknown section")
        name, keymap = sec
        fixed = {}
        for key, value in entries.items():
            canon = keymap.get(key.lower())
            if canon is None:
                raise ConfigError(f"{name}.{key}: unknown key")
            fixed[canon] = value
        out[name] = fixed
    return out


def apply_overrides(raw: dict, overrides) -> dict:
    """Fold `--set section.key=value` strings into a raw mapping."""
    out = {s: dict(kv) for s, kv in raw.items()}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected section.key=value")
        path, _, value = item.partition("=")
        if "." not in path:
            raise ConfigError(f"--set {item!r}: key must be section.key")
        section, _, key = path.strip().partition(".")
        out.setdefault(section, {})[key.strip()] = value.strip()
    return out


def load_config(path=None, overrides=()) -> ScenarioConfig:
    """Load an INI file (optional) plus overrides into a resolved config."""
    raw = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = _read_ini(fh.read())
        except OSError as exc:
            raise ConfigError(f"config file {path}: {exc.strerror or exc}") from None
    raw = apply_overrides(raw, overrides)
    return resolve(_canonical_sections(raw))


def resolved_items(cfg: ScenarioConfig):
    """Flat ordered (dotted key, canonical string) pairs for metadata."""

    def cpx(z):
        return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}j"

    items = [
        ("mode.Delta_0", repr(cfg.Delta_0)),
        ("mode.gamma_0", repr(cfg.gamma_0)),
        ("mode.Omega_0", cpx(cfg.Omega_0)),
        ("bath.N", repr(cfg.n_tls)),
        ("bath.G", cpx(cfg.G)),
        ("bath.kappa_1", repr(cfg.kappa_1)),
        ("bath.kappa_2", repr(cfg.kappa_2)),
        ("bath.Omega_B", cpx(cfg.Omega_B)),
        ("bath.Delta_B", repr(cfg.Delta_B)),
        ("environment.temperature", repr(cfg.temperature)),
        ("sweep.variable", cfg.sweep.variable),
        ("sweep.start", repr(cfg.sweep.start)),
        ("sweep.stop", repr(cfg.sweep.stop)),
        ("sweep.count", str(cfg.sweep.count)),
        ("sweep.scale", cfg.sweep.scale),
        ("sweep2.variable", cfg.sweep2.variable),
        ("sweep2.start", repr(cfg.sweep2.start)),
        ("sweep2.stop", repr(cfg.sweep2.stop)),
        ("sweep2.count", str(cfg.sweep2.count)),
        ("sweep2.scale", cfg.sweep2.scale),
        ("oracle.fock_start", str(cfg.oracle_fock_start)),
        ("oracle.dim_cap", str(cfg.oracle_dim_cap)),
        ("oracle.gamma_0", repr(cfg.oracle_gamma_0)),
        ("oracle.ratios", " ".join(repr(r) for r in cfg.oracle_ratios)),
    ]
    return items
