"""Parameter sweeps behind the command line, with CSV/JSON emission.

Each scenario maps a resolved :class:`~tlsbath.config.ScenarioConfig`
to a table of rows.  Output is deterministic: identical configs yield
byte-identical files except for the single timestamp metadata line.
Complex columns are split into `_re`/`_im` pairs; grid points whose
steady state does not exist carry the string sentinel ``unstable``
instead of numbers.

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
import functools
import json
import sys
from concurrent.futures import ProcessPoolExecutor
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


def _apply_value(cfg: ScenarioConfig, variable: str, value: float) -> ScenarioConfig:
    return cfg.replace(**{variable: complex(value) if variable == "Omega_B" else float(value)})


def rates_at(cfg: ScenarioConfig):
    """Single-mode rates of the bath and mode a resolved config describes."""
    return single_mode_rates(
        cfg.mode_params(),
        [cfg.tls_params()],
        cfg.environment(),
        cfg.omega_d,
        counts=[cfg.n_tls],
    )


def _split(z: complex) -> tuple:
    return (z.real, z.imag, abs(z))


def _steady_state_cols(point: ScenarioConfig, r) -> tuple:
    ms = build_moment_system(r, point.gamma_0, point.Delta_0)
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


def _squeezing_cols(point: ScenarioConfig, r) -> tuple:
    ms = build_moment_system(r, point.gamma_0, point.Delta_0)
    try:
        rep = steady_state(ms)
    except UnstableSystemError:
        return (UNSTABLE,) * 5 + (0,)
    # variant with the pair-pumping rate switched off
    ms0 = build_moment_system(dataclasses.replace(r, g=0j), point.gamma_0, point.Delta_0)
    try:
        xi0 = steady_state(ms0).xi
    except UnstableSystemError:
        xi0 = UNSTABLE
    return (rep.xi, xi0, rep.var_x, rep.var_p, rep.det_sigma, int(rep.squeezed))


# One-axis scenarios: their columns after the swept value, and how a row
# reads them off the point's config and rates.
_SWEEP_SCENARIOS = {
    "driving": (
        ("Omega_prime_re", "Omega_prime_im", "Omega_prime_abs"),
        lambda point, r: _split(r.Omega_prime),
    ),
    "gamma-rate": (("Gamma_re", "Gamma_im", "Gamma_abs"), lambda point, r: _split(r.Gamma)),
    "squeeze-rate": (("g_re", "g_im", "g_abs"), lambda point, r: _split(r.g)),
    "decay-rate": (
        ("gamma", "gamma_plus", "gamma_minus"),
        lambda point, r: (r.gamma, r.gamma_plus, r.gamma_minus),
    ),
    "freq-shift": (("delta",), lambda point, r: (r.delta,)),
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
}


def _sweep_row(name: str, cfg: ScenarioConfig, value: float) -> tuple:
    # looked up by name, so worker processes receive a picklable partial
    _, read = _SWEEP_SCENARIOS[name]
    point = _apply_value(cfg, cfg.sweep.variable, value)
    return (value,) + read(point, rates_at(point))


def _row_stability(cfg: ScenarioConfig, values: tuple) -> tuple:
    v1, v2 = values
    point = _apply_value(cfg, cfg.sweep.variable, v1)
    point = _apply_value(point, cfg.sweep2.variable, v2)
    ms = build_moment_system(rates_at(point), point.gamma_0, point.Delta_0)
    rep = stability(ms)
    return (v1, v2, int(rep.stable), int(rep.criterion), rep.max_real_part)


def _map_points(func, points, jobs: int) -> list:
    if jobs <= 1 or len(points) < 2:
        rows = [func(p) for p in points]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunk = max(1, len(points) // (4 * jobs))
            rows = list(pool.map(func, points, chunksize=chunk))
    return [_normalize_row(row) for row in rows]


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


def run_scenario(name: str, cfg: ScenarioConfig, jobs: int = 1) -> SweepResult:
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
        rows = _oracle_rows(cfg, jobs)
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

    if name == "stability-map":
        if cfg.sweep.variable == cfg.sweep2.variable:
            raise ConfigError("sweep2.variable: must differ from sweep.variable")
        if "tau" in (cfg.sweep.variable, cfg.sweep2.variable):
            raise ConfigError("sweep.variable: tau is not a stability-map axis")
        points = [
            (v1, v2) for v1 in cfg.sweep.grid() for v2 in cfg.sweep2.grid()
        ]
        func = functools.partial(_row_stability, cfg)
        rows = _map_points(func, points, jobs)
        cols = (
            cfg.sweep.variable,
            cfg.sweep2.variable,
            "stable",
            "stable_criterion",
            "max_real_part",
        )
        return SweepResult(name, cols, tuple(rows), meta)

    if cfg.sweep.variable == "tau":
        raise ConfigError("sweep.variable: tau only applies to the coherence scenario")
    func = functools.partial(_sweep_row, name, cfg)
    rows = _map_points(func, list(cfg.sweep.grid()), jobs)
    cols = (cfg.sweep.variable,) + _SWEEP_SCENARIOS[name][0]
    return SweepResult(name, cols, tuple(rows), meta)


def _coherence_rows(cfg: ScenarioConfig) -> list:
    rates = rates_at(cfg)
    ms = build_moment_system(rates, cfg.gamma_0, cfg.Delta_0)
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

    rates = single_mode_rates(mode, [tls], env, cfg.omega_d, counts=[n])
    ms = build_moment_system(rates, mode.gamma0, cfg.Delta_0)
    rep = steady_state(ms)

    rho, spec = steady_state_autogrow(
        mode,
        (tls,) * n,
        env,
        cfg.omega_d,
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


def _oracle_rows(cfg: ScenarioConfig, jobs: int) -> list:
    n = cfg.n_tls
    if n != int(n) or not 1 <= int(n) <= 3:
        raise ConfigError(
            f"bath.N: the oracle comparison holds 1 to 3 TLS exactly, got {n}; "
            f"set bath.N accordingly"
        )
    if cfg.Omega_B == 0:
        raise ConfigError("bath.Omega_B: the oracle comparison needs a driven bath")
    func = functools.partial(oracle_point, cfg)
    return _map_points(func, list(cfg.oracle_ratios), jobs)


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
