"""Structured configuration for sweeps and the command line.

The on-disk format is INI text parsed with :mod:`configparser`.  Every
key has a default, so an empty file (or no file at all) resolves to the
baseline parameter set used throughout: temperature 0, coupling
G = 1e-8, N = 1e5 two-level systems, kappa_1 = 1e-4, kappa_2 = 0,
gamma_0 = 1e-7, all rates in units of the TLS frequency (omega_B = 1).
The keys, their defaults and their checks are the rows of ``_KEYS``;
the README's INI block lists them with comments.

Sections and keys match case-insensitively; `[DEFAULT]` is an unknown
section like any other name outside the grammar.  A comment runs from `;` or
`#` to the end of its line; inside a line it must follow whitespace, so
`out#1.csv` is a value.  Complex values use Python syntax ("1e-4",
"1e-4+5e-5j").  The file is read first, in file order, then each `--set
section.key=value` override in command-line order, with the same
parsers; the last value given for a key wins, whatever its case.  Of
several errors, the first one met is reported: an unknown section or key,
then a key that fails its parser or bound, in grammar order, then the
checks that relate keys (the drive frame, the sweep ranges, the oracle's
dimension cap).
"""

from __future__ import annotations

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


def _choice(choices):
    def parse(raw, field):
        value = raw.strip()
        if value not in choices:
            raise ConfigError(f"{field}: {value!r} not in {choices}")
        return value

    return parse


def _parse_ratios(raw, field):
    parts = raw.replace(",", " ").split()
    if not parts:
        raise ConfigError(f"{field}: need at least one ratio")
    ratios = tuple(_parse_float(p, field) for p in parts)
    if any(r <= 0 for r in ratios):
        raise ConfigError(f"{field}: ratios must be > 0, got {ratios}")
    return ratios


# The sections whose keys are the fields of a SweepAxis.
_AXES = ("sweep", "sweep2")
# One row per key, in grammar order: section, key, default as a grammar
# string, the field it fills (of the SweepAxis in a sweep section, else
# of ScenarioConfig), parser, and a bound (op, low) or None.  Resolution
# never consults anything else, so a config is reproducible from the
# resolved key set alone.
_KEYS = (
    ("mode", "Delta_0", "0.0", "Delta_0", _parse_float, None),
    ("mode", "gamma_0", "1e-7", "gamma_0", _parse_float, (">=", 0)),
    ("mode", "Omega_0", "0.0", "Omega_0", _parse_complex, None),
    ("bath", "N", "1e5", "n_tls", _parse_float, (">", 0)),
    ("bath", "G", "1e-8", "G", _parse_complex, None),
    ("bath", "kappa_1", "1e-4", "kappa_1", _parse_float, (">", 0)),
    ("bath", "kappa_2", "0.0", "kappa_2", _parse_float, (">=", 0)),
    ("bath", "Omega_B", "0.0", "Omega_B", _parse_complex, None),
    ("bath", "Delta_B", "0.0", "Delta_B", _parse_float, None),
    ("environment", "temperature", "0.0", "temperature", _parse_float, (">=", 0)),
    ("sweep", "variable", "Omega_B", "variable", _choice(SWEEP_VARIABLES), None),
    ("sweep", "start", "1e-6", "start", _parse_float, None),
    ("sweep", "stop", "1e-3", "stop", _parse_float, None),
    ("sweep", "count", "100", "count", _parse_int, None),
    ("sweep", "scale", "log", "scale", _choice(SCALES), None),
    ("sweep2", "variable", "gamma_0", "variable", _choice(SWEEP_VARIABLES), None),
    ("sweep2", "start", "1e-9", "start", _parse_float, None),
    ("sweep2", "stop", "1e-5", "stop", _parse_float, None),
    ("sweep2", "count", "100", "count", _parse_int, None),
    ("sweep2", "scale", "log", "scale", _choice(SCALES), None),
    ("output", "path", "", "out_path", lambda raw, field: raw.strip(), None),
    ("output", "format", "csv", "out_format", _choice(FORMATS), None),
    ("oracle", "fock_start", "8", "oracle_fock_start", _parse_int, (">=", 2)),
    ("oracle", "dim_cap", "64", "oracle_dim_cap", _parse_int, None),
    ("oracle", "gamma_0", "3e-6", "oracle_gamma_0", _parse_float, (">", 0)),
    ("oracle", "ratios", "0.1, 0.03, 0.01", "oracle_ratios", _parse_ratios, None),
)
DEFAULTS = {}  # section -> {key -> default}, in grammar order
for _row in _KEYS:
    DEFAULTS.setdefault(_row[0], {})[_row[1]] = _row[2]
# lowercased section -> (section, {lowercased key -> key})
_GRAMMAR = {s.lower(): (s, {k.lower(): k for k in kv}) for s, kv in DEFAULTS.items()}


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
    so the last value of a key wins whatever its case), then check each key
    in grammar order, then the checks that relate keys."""
    given = {}  # dotted key -> the last value given
    for section, key, value in entries:
        found = _GRAMMAR.get(section.lower())
        if found is None:
            raise ConfigError(f"{section}: unknown section")
        name, keys = found
        if key.lower() not in keys:
            raise ConfigError(f"{name}.{key}: unknown key")
        given[f"{name}.{keys[key.lower()]}"] = value

    fields, axes = {}, {s: {} for s in _AXES}
    for section, key, default, field, parse, bound in _KEYS:
        name = f"{section}.{key}"
        value = parse(given.get(name, default), name)
        if bound is not None:
            op, low = bound
            if not (value > low if op == ">" else value >= low):
                raise ConfigError(f"{name}: must be {op} {low}, got {value}")
        axes.get(section, fields)[field] = value

    check_frame(fields["Delta_B"], fields["Delta_0"])
    for section, values in axes.items():
        axis = fields[section] = SweepAxis(**values)
        if axis.count < 2:
            raise ConfigError(f"{section}.count: need at least 2 points, got {axis.count}")
        if not axis.start < axis.stop:
            raise ConfigError(
                f"{section}.start: must be < {section}.stop ({axis.start} vs {axis.stop})"
            )
        if axis.scale == "log" and axis.start <= 0:
            raise ConfigError(f"{section}.start: log scale requires start > 0, got {axis.start}")
    fock_start, dim_cap = fields["oracle_fock_start"], fields["oracle_dim_cap"]
    if dim_cap < 2 * fock_start:
        raise ConfigError(
            f"oracle.dim_cap: must allow at least fock_start x one TLS "
            f"({2 * fock_start}), got {dim_cap}"
        )
    return ScenarioConfig(**fields)


def _read_ini(text: str) -> list:
    """The ``(section, key, value)`` entries of INI text, in file order.
    No section is configparser's shared default section, so a
    ``[DEFAULT]`` header is an unknown section like any other."""
    import configparser  # only an INI file needs it

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
    return [
        (f"{s}.{k}", _canonical(getattr(getattr(cfg, s) if s in _AXES else cfg, field)))
        for s, k, _, field, _, _ in _KEYS
        if s != "output"
    ]
