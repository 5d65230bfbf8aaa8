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

    [sweep2]             # second axis, stability-map only
    variable = gamma_0
    start = 1e-9
    stop = 1e-5
    count = 100
    scale = log

    [output]
    path =               # empty means stdout
    format = csv         # or json

    [oracle]
    fock_start = 8
    dim_cap = 64
    gamma_0 = 3e-6       # mode decay used for the oracle comparison
    ratios = 0.1, 0.03, 0.01   # coupling-to-linewidth ratios G/kappa_t

Sections and keys match case-insensitively; `[DEFAULT]` is an unknown
section like any other name outside the grammar.  A comment runs from `;` or
`#` to the end of its line; inside a line it must follow whitespace, so
`out#1.csv` is a value.  Complex values use Python syntax ("1e-4",
"1e-4+5e-5j").  The file is read first, in file order, then each `--set
section.key=value` override in command-line order, with the same
parsers; the last value given for a key wins, whatever its case.
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
# lowercased section -> (section, {lowercased key -> key})
_GRAMMAR = {s.lower(): (s, {k.lower(): k for k in kv}) for s, kv in DEFAULTS.items()}


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
    """Fold ``raw`` {section: {key: string}} over the defaults and validate."""
    return _resolve([(s, k, v) for s, kv in raw.items() for k, v in kv.items()])


def _resolve(entries) -> ScenarioConfig:
    """Write ``(section, key, value)`` entries over the defaults in order,
    under the grammar's names (sections and keys match case-insensitively,
    so the last value of a key wins whatever its case), then validate."""
    merged = {s: dict(kv) for s, kv in DEFAULTS.items()}
    for section, key, value in entries:
        found = _GRAMMAR.get(section.lower())
        if found is None:
            raise ConfigError(f"{section}: unknown section")
        name, keys = found
        if key.lower() not in keys:
            raise ConfigError(f"{name}.{key}: unknown key")
        merged[name][keys[key.lower()]] = value

    def get(field, parse=_parse_float, op=None, low=0):
        section, key = field.split(".")
        value = parse(merged[section][key], field)
        if op is not None and not (value > low if op == ">" else value >= low):
            raise ConfigError(f"{field}: must be {op} {low}, got {value}")
        return value

    gamma_0 = get("mode.gamma_0", op=">=")
    n_tls = get("bath.N", op=">")
    kappa_1 = get("bath.kappa_1", op=">")
    kappa_2 = get("bath.kappa_2", op=">=")
    delta_b = get("bath.Delta_B")
    delta_0 = get("mode.Delta_0")
    check_frame(delta_b, delta_0)
    temperature = get("environment.temperature", op=">=")
    fock_start = get("oracle.fock_start", _parse_int, ">=", 2)
    dim_cap = get("oracle.dim_cap", _parse_int)
    if dim_cap < 2 * fock_start:
        raise ConfigError(
            f"oracle.dim_cap: must allow at least fock_start x one TLS "
            f"({2 * fock_start}), got {dim_cap}"
        )
    oracle_gamma_0 = get("oracle.gamma_0", op=">")
    ratio_parts = merged["oracle"]["ratios"].replace(",", " ").split()
    if not ratio_parts:
        raise ConfigError("oracle.ratios: need at least one ratio")
    ratios = tuple(_parse_float(p, "oracle.ratios") for p in ratio_parts)
    if any(r <= 0 for r in ratios):
        raise ConfigError(f"oracle.ratios: ratios must be > 0, got {ratios}")

    out = merged["output"]
    return ScenarioConfig(
        Delta_0=delta_0,
        gamma_0=gamma_0,
        Omega_0=get("mode.Omega_0", _parse_complex),
        n_tls=n_tls,
        G=get("bath.G", _parse_complex),
        kappa_1=kappa_1,
        kappa_2=kappa_2,
        Omega_B=get("bath.Omega_B", _parse_complex),
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


def _read_ini(text: str) -> list:
    """The ``(section, key, value)`` entries of INI text, in file order.
    No section is configparser's shared default section, so a
    ``[DEFAULT]`` header is an unknown section like any other."""
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=(";", "#"), default_section=""
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from None
    return [(s, k, v) for s in parser.sections() for k, v in parser.items(s)]


def _set_entry(item: str) -> tuple:
    """The ``(section, key, value)`` entry of one `--set section.key=value`."""
    if "=" not in item:
        raise ConfigError(f"--set {item!r}: expected section.key=value")
    path, _, value = item.partition("=")
    if "." not in path:
        raise ConfigError(f"--set {item!r}: key must be section.key")
    section, _, key = path.strip().partition(".")
    return section, key.strip(), value.strip()


def load_config(path=None, overrides=()) -> ScenarioConfig:
    """Load an INI file (optional), then each override in order, into a
    resolved config."""
    entries = []
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entries = _read_ini(fh.read())
        except OSError as exc:
            raise ConfigError(f"config file {path}: {exc.strerror or exc}") from None
    return _resolve(entries + [_set_entry(item) for item in overrides])


# ScenarioConfig fields whose names differ from their keys; the keys of
# a sweep section are the fields of its SweepAxis.
_FIELDS = {"bath.N": "n_tls", **{f"oracle.{k}": f"oracle_{k}" for k in DEFAULTS["oracle"]}}


def _canonical(value) -> str:
    if isinstance(value, complex):
        # the sign of the imaginary part, that of a zero included, so that
        # the string parses back to the same value
        sign = "-" if math.copysign(1.0, value.imag) < 0 else "+"
        return f"{value.real!r}{sign}{abs(value.imag)!r}j"
    if isinstance(value, tuple):
        return " ".join(repr(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def resolved_items(cfg: ScenarioConfig):
    """Flat (dotted key, canonical string) pairs for metadata, in grammar
    order; ``[output]`` says where a result goes, not what it is, and is
    left out."""
    items = []
    for section, keys in DEFAULTS.items():
        if section == "output":
            continue
        owner = getattr(cfg, section) if section.startswith("sweep") else cfg
        for key in keys:
            field = _FIELDS.get(f"{section}.{key}", key)
            items.append((f"{section}.{key}", _canonical(getattr(owner, field))))
    return items
