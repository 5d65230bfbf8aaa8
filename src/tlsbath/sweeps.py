"""Parameter sweeps behind the command line, with CSV/JSON emission.

Each scenario maps a resolved :class:`~tlsbath.config.ScenarioConfig`
to a table of rows.  Output is deterministic: identical configs yield
byte-identical files except for the single timestamp metadata line.
Complex columns are split into `_re`/`_im` pairs; grid points whose
steady state does not exist carry the string sentinel ``unstable``
instead of numbers.

Every scenario runs in one serial loop over its grid.  The mode decay
rate gamma_0 never enters the rates, so a grid's rates are assembled
once per combination of its other swept values: once per drive on the
default (Omega_B x gamma_0) stability map, once in all for a sweep of
gamma_0.

Scenario semantics:

- ``driving``        sweep of the effective drive on the mode.
- ``gamma-rate``     sweep of the pair-production rate (complex).
- ``squeeze-rate``   sweep of the squeezing rate (complex).
- ``decay-rate``     sweep of the net decay rate and its up/down parts.
- ``freq-shift``     sweep of the TLS-induced frequency shift.
- ``steady-state``   sweep of stationary moments and squeezing.
- ``coherence``      g1(tau) on the sweep grid (variable must be tau).
- ``stability-map``  2-D grid over [sweep] x [sweep2], verdict columns.
- ``squeezing``      sweep of xi, with the pair-pumping-free variant.
- ``oracle-validate``  per-ratio effective vs exact moments at small N;
  the coupling is set per row to ratio * kappa_t, overriding bath.G,
  and bath.N must be an integer the exact solver can hold (1 to 3).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .bath import transverse_rate
from .config import ConfigError, ScenarioConfig, resolved_items
from .dynamics import (
    UnstableSystemError,
    build_moment_system,
    coherence_g1,
    stability,
    steady_state,
)
from .oracle import steady_state_autogrow, mode_moments
from .rates import single_mode_rates

SCENARIOS = (
    "driving",
    "gamma-rate",
    "squeeze-rate",
    "decay-rate",
    "freq-shift",
    "steady-state",
    "coherence",
    "stability-map",
    "squeezing",
    "oracle-validate",
)

UNSTABLE = "unstable"


def _timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass(frozen=True)
class SweepResult:
    """One scenario run: metadata, column names, and value rows."""

    scenario: str
    columns: tuple
    rows: tuple
    meta: tuple  # (key, value) pairs of the resolved config
    # UTC timestamp, the only nondeterministic field
    generated: str = dataclasses.field(default_factory=_timestamp)

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def rates_at(cfg: ScenarioConfig):
    """Single-mode rates of the bath and mode a resolved config describes."""
    return single_mode_rates(
        cfg.mode_params(),
        [cfg.tls_params()],
        cfg.environment(),
        counts=[cfg.n_tls],
    )


def _split(z: complex) -> tuple:
    return (z.real, z.imag, abs(z))


def _steady_state_cols(r, gamma_0: float) -> tuple:
    ms = build_moment_system(r, gamma_0)
    try:
        rep = steady_state(ms)
    except UnstableSystemError:
        return (UNSTABLE,) * 7 + (0,)
    return (
        rep.occupation,
        rep.amplitude.real,
        rep.amplitude.imag,
        rep.pair_amplitude.real,
        rep.pair_amplitude.imag,
        rep.xi,
        rep.centered_occupation,
        1,
    )


def _squeezing_cols(r, gamma_0: float) -> tuple:
    ms = build_moment_system(r, gamma_0)
    try:
        rep = steady_state(ms)
    except UnstableSystemError:
        return (UNSTABLE,) * 5 + (0,)
    # pair pumping switched off: stable too, as gamma > 0 and Re sigma = 0 without g
    ms0 = build_moment_system(dataclasses.replace(r, g=0j), gamma_0)
    xi0 = steady_state(ms0).xi
    return (rep.xi, xi0, rep.var_x, rep.var_p, rep.det_sigma, int(rep.squeezed))


def _stability_cols(r, gamma_0: float) -> tuple:
    rep = stability(build_moment_system(r, gamma_0))
    return (int(rep.stable), int(rep.criterion), rep.max_real_part)


# Grid scenarios: their columns after the swept values, and how a row
# reads them off the point's rates and mode decay rate.
_GRID_SCENARIOS = {
    "driving": (
        ("Omega_prime_re", "Omega_prime_im", "Omega_prime_abs"),
        lambda r, _: _split(r.Omega_prime),
    ),
    "gamma-rate": (("Gamma_re", "Gamma_im", "Gamma_abs"), lambda r, _: _split(r.Gamma)),
    "squeeze-rate": (("g_re", "g_im", "g_abs"), lambda r, _: _split(r.g)),
    "decay-rate": (
        ("gamma", "gamma_plus", "gamma_minus"),
        lambda r, _: (r.gamma, r.gamma_plus, r.gamma_minus),
    ),
    "freq-shift": (("delta",), lambda r, _: (r.delta,)),
    "steady-state": (
        (
            "occupation",
            "amplitude_re",
            "amplitude_im",
            "pair_re",
            "pair_im",
            "xi",
            "centered_occupation",
            "stable",
        ),
        _steady_state_cols,
    ),
    "squeezing": (
        ("xi", "xi_no_pair_pumping", "var_x", "var_p", "det_sigma", "squeezed"),
        _squeezing_cols,
    ),
    "stability-map": (("stable", "stable_criterion", "max_real_part"), _stability_cols),
}


def _grid_rows(cfg: ScenarioConfig, axes, read) -> list:
    """One row per point of the product grid of ``axes``: the swept values,
    then ``read(rates, gamma_0)`` at that point.

    gamma_0 enters only the moment system, so the rates are keyed by the
    other swept values and assembled once per key.
    """
    variables = [axis.variable for axis in axes]
    rates = {}
    rows = []
    for values in itertools.product(*(axis.grid() for axis in axes)):
        at = dict(zip(variables, values))
        key = tuple(v for var, v in at.items() if var != "gamma_0")
        if key not in rates:
            point = {var: complex(v) if var == "Omega_B" else float(v) for var, v in at.items()}
            rates[key] = rates_at(cfg.replace(**point))
        gamma_0 = float(at.get("gamma_0", cfg.gamma_0))
        rows.append(_normalize_row(values + read(rates[key], gamma_0)))
    return rows


def _normalize_row(row) -> tuple:
    # plain Python scalars only, so JSON and CSV render identically
    out = []
    for v in row:
        if isinstance(v, str):
            out.append(v)
        elif isinstance(v, (bool, int, np.integer)):
            out.append(int(v))
        else:
            out.append(float(v))
    return tuple(out)


def run_scenario(name: str, cfg: ScenarioConfig) -> SweepResult:
    """Evaluate one scenario on its sweep grid."""
    if name not in SCENARIOS:
        raise ConfigError(f"scenario: unknown scenario {name!r}; choose from {SCENARIOS}")
    meta = tuple(resolved_items(cfg))

    if name == "coherence":
        if cfg.sweep.variable != "tau":
            raise ConfigError("sweep.variable: the coherence scenario sweeps tau")
        rows = _coherence_rows(cfg)
        cols = ("tau", "g1_re", "g1_im", "g1_abs")
        return SweepResult(name, cols, tuple(rows), meta)

    if name == "oracle-validate":
        rows = _oracle_rows(cfg)
        cols = (
            "coupling_ratio",
            "fock_dim",
            "occupation_eff",
            "occupation_exact",
            "occupation_rel_err",
            "amplitude_eff_re",
            "amplitude_eff_im",
            "amplitude_exact_re",
            "amplitude_exact_im",
            "amplitude_rel_err",
            "pair_eff_re",
            "pair_eff_im",
            "pair_exact_re",
            "pair_exact_im",
            "pair_rel_err",
        )
        return SweepResult(name, cols, tuple(rows), meta)

    axes = (cfg.sweep,)
    if name == "stability-map":
        if cfg.sweep.variable == cfg.sweep2.variable:
            raise ConfigError("sweep2.variable: must differ from sweep.variable")
        if "tau" in (cfg.sweep.variable, cfg.sweep2.variable):
            raise ConfigError("sweep.variable: tau is not a stability-map axis")
        axes = (cfg.sweep, cfg.sweep2)
    elif cfg.sweep.variable == "tau":
        raise ConfigError("sweep.variable: tau only applies to the coherence scenario")
    cols, read = _GRID_SCENARIOS[name]
    rows = _grid_rows(cfg, axes, read)
    return SweepResult(name, tuple(a.variable for a in axes) + cols, tuple(rows), meta)


def _coherence_rows(cfg: ScenarioConfig) -> list:
    rates = rates_at(cfg)
    ms = build_moment_system(rates, cfg.gamma_0)
    try:
        rep = steady_state(ms)
    except UnstableSystemError:
        return [(float(t),) + (UNSTABLE,) * 3 for t in cfg.sweep.grid()]
    series = coherence_g1(ms, rep, cfg.sweep.grid())
    return [
        _normalize_row((float(t), v.real, v.imag, abs(v)))
        for t, v in zip(series.tau, series.values)
    ]


def oracle_point(cfg: ScenarioConfig, ratio: float) -> tuple:
    """Effective-model and exact moments at one coupling ratio (one row)."""
    n = int(round(cfg.n_tls))
    tls = cfg.tls_params()
    env = cfg.environment()
    kt = transverse_rate(tls, env)
    coupling = ratio * kt
    tls = dataclasses.replace(tls, couplings=(coupling,))
    mode = dataclasses.replace(cfg.mode_params(), gamma0=cfg.oracle_gamma_0)

    rates = single_mode_rates(mode, [tls], env, counts=[n])
    rep = steady_state(build_moment_system(rates, mode.gamma0))

    rho, spec = steady_state_autogrow(
        mode,
        (tls,) * n,
        env,
        fock_start=cfg.oracle_fock_start,
        dim_cap=cfg.oracle_dim_cap,
    )
    occ_x, amp_x, pair_x = mode_moments(rho, spec)

    def rel(a, b):
        return abs(a - b) / max(abs(b), 1e-300)

    return (
        ratio,
        spec.fock_dim,
        rep.occupation,
        occ_x.real,
        rel(rep.occupation, occ_x.real),
        rep.amplitude.real,
        rep.amplitude.imag,
        amp_x.real,
        amp_x.imag,
        rel(rep.amplitude, amp_x),
        rep.pair_amplitude.real,
        rep.pair_amplitude.imag,
        pair_x.real,
        pair_x.imag,
        rel(rep.pair_amplitude, pair_x),
    )


def _oracle_rows(cfg: ScenarioConfig) -> list:
    n = cfg.n_tls
    if n != int(n) or not 1 <= int(n) <= 3:
        raise ConfigError(
            f"bath.N: the oracle comparison holds 1 to 3 TLS exactly, got {n}; "
            f"set bath.N accordingly"
        )
    if cfg.Omega_B == 0:
        raise ConfigError("bath.Omega_B: the oracle comparison needs a driven bath")
    return [_normalize_row(oracle_point(cfg, ratio)) for ratio in cfg.oracle_ratios]


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def render_csv(result: SweepResult) -> str:
    """Comma-separated text: '#' metadata, header row, then data rows."""
    lines = [
        f"# tlsbath {__version__}",
        f"# scenario {result.scenario}",
        f"# generated {result.generated}",
    ]
    lines += [f"# {key} = {value}" for key, value in result.meta]
    lines.append(",".join(result.columns))
    for row in result.rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def render_json(result: SweepResult) -> str:
    payload = {
        "artifact": "tlsbath",
        "version": __version__,
        "scenario": result.scenario,
        "generated": result.generated,
        "config": {key: value for key, value in result.meta},
        "columns": list(result.columns),
        "rows": [list(row) for row in result.rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def write_result(result: SweepResult, path=None, fmt: str = "csv") -> None:
    """Render ``result`` as CSV or JSON into ``path``, or to stdout without one."""
    text = render_csv(result) if fmt == "csv" else render_json(result)
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
