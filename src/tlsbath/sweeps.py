"""Parameter sweeps behind the command line, with CSV/JSON emission.

Each scenario maps a resolved :class:`~tlsbath.config.ScenarioConfig`
to a table of rows.  Output is deterministic: identical configs yield
byte-identical files except for the single timestamp metadata line.
Complex columns are split into `_re`/`_im` pairs; grid points whose
steady state does not exist carry the string sentinel ``unstable``
instead of numbers.

A grid scenario evaluates its whole grid in one batched pass: the
swept values enter the config as arrays over an open mesh of the axes,
one ``rates_at`` call gives the rates at every point, and each column is
one array expression over all rows.  The mode decay rate gamma_0 never
enters the rates, so its axis is left out of the rate call: the rates
are assembled once per combination of the other swept values, once per
drive on the default (Omega_B x gamma_0) stability map, once in all for
a sweep of gamma_0.  The moment layer broadcasts those rates against the
gamma_0 axis itself.  The table stays column-wise, each column at the
shape it was computed at, until it is rendered: CSV formats each column
at its own shape, from the one list of plain Python scalars per
distinct column that ``rows`` shares: a swept value is one object and
one string, and a float column bit for bit equal to an earlier one
reuses its list.

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
import errno
import functools
import math
import os
import re
import stat
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .bath import _abs, transverse_rate
from .config import ConfigError, ScenarioConfig, check_frame, resolved_items
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
_SPECIAL = re.compile('[,"\r\n]')  # what a CSV cell must be quoted for


def _timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass(frozen=True, eq=False)  # arrays have no single truth value
class SweepResult:
    """One scenario run: metadata, column names, and the table column-wise.

    ``data`` holds one array per column, each at the shape it was computed
    at and broadcastable to the table's ``shape``.  On a grid the swept
    values lie on their own axes of the open mesh, the rate-only columns
    on the mesh of the rate axes, and the moment columns at full size.
    Row k is entry k of every column broadcast to ``shape`` and flattened
    in C order; ``rows`` is that table as a tuple of tuples of plain
    Python scalars (str, int, float).  It shares with ``render_csv`` one
    scalar list per distinct column, converted once at the column's own
    shape, so a broadcast column's rows share its objects.
    """

    scenario: str
    columns: tuple
    data: tuple  # one ndarray per column
    meta: tuple  # (key, value) pairs of the resolved config
    # UTC timestamp, the only nondeterministic field
    generated: str = dataclasses.field(default_factory=_timestamp)

    @classmethod
    def from_rows(cls, scenario: str, columns, rows, meta) -> "SweepResult":
        """A table given row by row: each column becomes the object array
        of its entries, so ``rows`` gives back the same scalars."""
        table = np.array(rows, dtype=object).reshape(len(rows), len(columns))
        return cls(scenario, tuple(columns), tuple(table.T), meta)

    @property
    def shape(self) -> tuple:
        return np.broadcast_shapes(*(c.shape for c in self.data))

    @functools.cached_property
    def _scalars(self) -> tuple:
        # (plain scalars in C order, own shape) of each column: a numeric one
        # with the dtype, shape and bits of an earlier one, found by the hash
        # of its bytes, reuses its entry, and one whose entries all have the
        # same bits is a single scalar; bits keep -0.0, 0.0 and NaN payloads apart
        out, seen = [], {}  # seen: (dtype, shape, hash of bytes) -> [(bits view, entry)]
        for c in self.data:
            if c.dtype == object:
                out.append((c.reshape(-1).tolist(), c.shape))
                continue
            bits = c.view(np.int64) if c.dtype == np.float64 else c
            alike = seen.setdefault((c.dtype, c.shape, hash(c.tobytes())), [])
            if (entry := next((e for b, e in alike if np.array_equal(b, bits)), None)) is None:
                constant = bits.size and (bits == bits.flat[0]).all()
                entry = ([c.flat[0].item()], ()) if constant else (c.reshape(-1).tolist(), c.shape)
                alike.append((bits, entry))
            out.append(entry)
        return tuple(out)

    @functools.cached_property
    def rows(self) -> tuple:
        shape = self.shape
        return tuple(zip(*(_broadcast(v, own, shape) for v, own in self._scalars)))


def _broadcast(values: list, own: tuple, shape: tuple) -> list:
    # the entries of shape ``own`` broadcast to one per row: the same objects
    if own == shape:
        return values
    if len(values) == 1:
        return values * math.prod(shape)
    table = np.array(values, dtype=object).reshape(own)
    return np.broadcast_to(table, shape).reshape(-1).tolist()


def rates_at(cfg: ScenarioConfig):
    """Single-mode rates of the bath and mode a resolved config describes.

    Fields of ``cfg`` that hold arrays (``Omega_B``, ``Delta_B``,
    ``Delta_0``) give the rates over their broadcast grid, in one call.
    """
    return single_mode_rates(
        cfg.mode_params(),
        [cfg.tls_params()],
        cfg.environment(),
        counts=[cfg.n_tls],
    )


def _filled(stable, values, sentinel=UNSTABLE) -> np.ndarray:
    # ``values`` at the stable points, the sentinel elsewhere (if any)
    if stable.all():
        return values
    out = np.full(stable.shape, sentinel, dtype=object)
    out[stable] = values[stable].tolist()
    return out


def _split(z) -> list:
    return [z.real, z.imag, _abs(z)]


def _steady_state_cols(r, gamma_0) -> list:
    ms = build_moment_system(r, gamma_0)
    stable = stability(ms).stable
    rep = steady_state(ms, where=stable)
    cols = (
        rep.occupation,
        rep.amplitude.real,
        rep.amplitude.imag,
        rep.pair_amplitude.real,
        rep.pair_amplitude.imag,
        rep.xi,
        rep.centered_occupation,
    )
    return [_filled(stable, c) for c in cols] + [stable.astype(int)]


def _squeezing_cols(r, gamma_0) -> list:
    ms = build_moment_system(r, gamma_0)
    stable = stability(ms).stable
    rep = steady_state(ms, where=stable)
    # pair pumping switched off: stable too, as gamma > 0 and Re sigma = 0 without g
    ms0 = build_moment_system(dataclasses.replace(r, g=np.zeros_like(r.g)), gamma_0)
    cols = (rep.xi, steady_state(ms0, where=stable).xi, rep.var_x, rep.var_p, rep.det_sigma)
    return [_filled(stable, c) for c in cols] + [_filled(stable, rep.squeezed.astype(int), 0)]


def _stability_cols(r, gamma_0) -> list:
    rep = stability(build_moment_system(r, gamma_0))
    return [rep.stable.astype(int), rep.criterion.astype(int), rep.max_real_part]


# Grid scenarios: their columns after the swept values, and how those are
# read off the rates and mode decay rates of all points at once.
_GRID_SCENARIOS = {
    "driving": (
        ("Omega_prime_re", "Omega_prime_im", "Omega_prime_abs"),
        lambda r, _: _split(r.Omega_prime),
    ),
    "gamma-rate": (("Gamma_re", "Gamma_im", "Gamma_abs"), lambda r, _: _split(r.Gamma)),
    "squeeze-rate": (("g_re", "g_im", "g_abs"), lambda r, _: _split(r.g)),
    "decay-rate": (
        ("gamma", "gamma_plus", "gamma_minus"),
        lambda r, _: [r.gamma, r.gamma_plus, r.gamma_minus],
    ),
    "freq-shift": (("delta",), lambda r, _: [r.delta]),
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


def _grid_columns(cfg: ScenarioConfig, axes, read) -> tuple:
    """The columns of the product grid of ``axes``: the swept values, then
    the columns ``read(rates, gamma_0)`` gives over all points at once.

    The axes form an open mesh, so one ``rates_at`` call over the swept
    values other than gamma_0, which enters only the moment system, gives
    the rates once per rate point.  ``read`` gets the rates and gamma_0 on
    that mesh, and the moment layer broadcasts them against each other;
    each column is kept at the shape it comes out at.
    """
    mesh = np.ix_(*(axis.grid() for axis in axes))
    point = {axis.variable: values for axis, values in zip(axes, mesh)}
    gamma_0 = point.pop("gamma_0", cfg.gamma_0)
    if "Omega_B" in point:
        point["Omega_B"] = point["Omega_B"].astype(complex)
    columns = list(mesh) + read(rates_at(cfg.replace(**point)), gamma_0)
    return tuple(np.asarray(c) for c in columns)


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
        cols = ("tau", "g1_re", "g1_im", "g1_abs")
        return SweepResult(name, cols, _coherence_columns(cfg), meta)

    if name == "oracle-validate":
        return SweepResult.from_rows(name, ORACLE_COLUMNS, _oracle_rows(cfg), meta)

    axes = (cfg.sweep,)
    if name == "stability-map":
        if cfg.sweep.variable == cfg.sweep2.variable:
            raise ConfigError("sweep2.variable: must differ from sweep.variable")
        if "tau" in (cfg.sweep.variable, cfg.sweep2.variable):
            raise ConfigError("sweep.variable: tau is not a stability-map axis")
        axes = (cfg.sweep, cfg.sweep2)
    elif cfg.sweep.variable == "tau":
        raise ConfigError("sweep.variable: tau only applies to the coherence scenario")
    # the drive frame holds on the whole grid where it holds at the largest
    # Delta_B and the smallest Delta_0 on it
    swept = {axis.variable: axis for axis in axes}
    check_frame(
        swept["Delta_B"].stop if "Delta_B" in swept else cfg.Delta_B,
        swept["Delta_0"].start if "Delta_0" in swept else cfg.Delta_0,
    )
    cols, read = _GRID_SCENARIOS[name]
    names = tuple(a.variable for a in axes) + cols
    return SweepResult(name, names, _grid_columns(cfg, axes, read), meta)


def _coherence_columns(cfg: ScenarioConfig) -> tuple:
    tau = cfg.sweep.grid()
    ms = build_moment_system(rates_at(cfg), cfg.gamma_0)
    try:
        rep = steady_state(ms)
    except UnstableSystemError:
        return (tau,) + (np.array(UNSTABLE, dtype=object),) * 3
    series = coherence_g1(ms, rep, tau)
    return (series.tau, *_split(series.values))


ORACLE_COLUMNS = (
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


def oracle_point(cfg: ScenarioConfig, ratio: float) -> tuple:
    """Effective-model and exact moments at one coupling ratio: one row
    of :data:`ORACLE_COLUMNS`."""
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


def _table_text(result: SweepResult) -> list:
    # the strings of each column, one per row, from each distinct scalar
    # list formatted (and, for text with a separator, quoted) once
    shape, text = result.shape, {}
    for c, (values, own) in zip(result.data, result._scalars):
        if id(values) not in text:
            cells = list(map(str, values))
            if c.dtype == object and _SPECIAL.search("".join(cells)):
                cells = ['"%s"' % v.replace('"', '""') if _SPECIAL.search(v) else v for v in cells]
            text[id(values)] = _broadcast(cells, own, shape)
    return [text[id(values)] for values, _ in result._scalars]


def render_csv(result: SweepResult) -> str:
    """Comma-separated text: '#' metadata, header row, then data rows.

    Each distinct scalar list of ``result`` (see :class:`SweepResult`) is
    formatted once, with ``str``, at its column's own shape, and its
    strings are broadcast to one per row: a swept value, a float column of
    one repeated bit pattern (``g1_im`` of a real trace), and ``g1_abs``
    where it repeats ``g1_re`` bit for bit are each formatted once.  A text
    cell holding a comma, a double quote or a line break (``validate-all``'s
    measured values) is quoted as RFC 4180 says.  Each line is the comma
    join of one row of strings.
    """
    lines = [
        f"# tlsbath {__version__}",
        f"# scenario {result.scenario}",
        f"# generated {result.generated}",
    ]
    lines += [f"# {key} = {value}" for key, value in result.meta]
    lines.append(",".join(result.columns))
    # the column strings are freed before the lines are joined
    lines += map(",".join, zip(*_table_text(result)))
    lines.append("")  # the final newline, without a copy of the text
    return "\n".join(lines)


def render_json(result: SweepResult) -> str:
    import json  # only JSON output needs it

    payload = {
        "artifact": "tlsbath",
        "version": __version__,
        "scenario": result.scenario,
        "generated": result.generated,
        "config": {key: value for key, value in result.meta},
        "columns": list(result.columns),
        "rows": result.rows,  # tuples encode as arrays
    }
    return json.dumps(payload, indent=2) + "\n"


def _unwritable(path, exc: OSError) -> ConfigError:
    return ConfigError(f"output file {path}: {exc.strerror or exc}")


def check_output_path(path) -> None:
    """Raise the :class:`ConfigError` that :func:`write_result` would for a
    ``path`` that cannot be opened for writing, before anything is
    computed, and without creating or truncating it: an existing file is
    opened for writing without either flag, and a new one needs a
    directory that exists and is writable.  A pipe, named or the
    ``/dev/fd/N`` of a process substitution, is left to the write, since
    opening one can wait for its reader."""
    if not path:
        return
    try:
        try:
            if not stat.S_ISFIFO(os.stat(path).st_mode):
                os.close(os.open(path, os.O_WRONLY))
        except FileNotFoundError:
            parent = os.path.dirname(path) or "."
            os.stat(parent)  # a missing directory raises here
            if not os.access(parent, os.W_OK | os.X_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES)) from None
    except OSError as exc:
        raise _unwritable(path, exc) from None


def write_result(result: SweepResult, path=None, fmt: str = "csv") -> None:
    """Render ``result`` as CSV or JSON into ``path``, or to stdout without
    one.  A path that cannot be written raises :class:`ConfigError`."""
    text = render_csv(result) if fmt == "csv" else render_json(result)
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _unwritable(path, exc) from None
