"""Driven, lossy two-level systems acting as a structured bath.

Each TLS is driven coherently near its transition and damped by its own
electromagnetic environment.  In the frame rotating at the drive frequency
its Bloch vector relaxes to a stationary point, and the two-time
fluctuations around that point are what the bosonic modes feel.  This
module provides the stationary Bloch state, the equal-time correlators of
the fluctuations, and the one-sided spectral densities, whose regression
integrals are the closed-form driven-TLS resolvent (Mollow, Phys. Rev.
188, 1969 (1969)): no linear system is solved.  One stationary state
fixes both fluctuation signs, so the correlators and the resolvent carry
the sign as their leading array axis, and each TLS costs one evaluation
of its Bloch statics and one of the resolvent.

The spectral densities of a bath coupled to M modes form one complex
array ``table[..., a, b, m, n]`` of shape ``(..., 2, 2, M, M)``: ``a``
and ``b`` are the positions of the fluctuation signs alpha and beta in
``SIGNS`` (0 for +1, raising; 1 for -1, lowering) and ``m``, ``n`` index
modes.  Every entry already carries the coupling weights, summed over the
bath.  The leading axes are a grid: TLS parameters and mode detunings may
be arrays, and one call evaluates every point of their broadcast shape,
with the same array operations as a single point (which has no grid
axes), so each grid point rounds as that point alone.

Units: hbar = k_B = 1 throughout; rates and frequencies share the same unit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TlsParams",
    "BathEnvironment",
    "bose_occupation",
    "transverse_rate",
    "saturation",
    "correlator_integral",
    "dipole_drive",
    "psd",
    "build_psd_table",
]

# Fluctuation signs in positional order.  The fluctuation vector used
# everywhere in this module is (raising, lowering, inversion), i.e.
# (sigma+~, sigma-~, sigmaz~), so its first two rows line up with SIGNS.
# Axes over signs hold +1 at index 0 and -1 at index 1; index them with
# ``SIGNS.index(sign)``, since a sign used as an index wraps silently.
SIGNS = (+1, -1)
# i times the signs, for the exponent s = i beta delta_m
_SIGNS_I = np.array(SIGNS) * 1j


def _finite(x) -> bool:
    # NaN fails too.  A scalar costs no NumPy call; a grid one reduction.
    return cmath.isfinite(x) if np.isscalar(x) else bool(np.isfinite(x).all())


@dataclass(frozen=True)
class TlsParams:
    """One two-level system of the bath, or a grid of them.

    ``kappa1``, ``kappa2``, ``Omega_B`` and ``Delta_B`` may be arrays that
    broadcast to one grid shape; every function of this module then
    carries that grid as its leading axes, element by element.  A grid is
    not hashable, and groups in a bath only with itself.

    Attributes
    ----------
    omega_B : float
        Transition frequency (sets the thermal occupation of its local bath).
    kappa1 : float or array
        Radiative relaxation rate.
    kappa2 : float or array
        Pure dephasing rate.
    Omega_B : complex or array
        Coherent drive amplitude in the rotating frame.
    Delta_B : float or array
        Detuning of the transition from the drive frequency.
    couplings : tuple[complex, ...]
        Jaynes-Cummings coupling to each bosonic mode, one entry per mode.
    """

    omega_B: float
    kappa1: float
    kappa2: float
    Omega_B: complex
    Delta_B: float
    couplings: tuple[complex, ...]

    def __post_init__(self):
        # Each check fails on NaN.  A grid is checked by its least entry,
        # capped by an ``initial`` that passes, so an empty grid passes.
        if not 0 < self.omega_B < math.inf:
            raise ValueError("TLS transition frequency must be positive and finite")
        if not (_finite(self.kappa1) and np.asarray(self.kappa1).min(initial=1) > 0):
            raise ValueError("TLS relaxation rate kappa1 must be positive and finite")
        if not (_finite(self.kappa2) and np.asarray(self.kappa2).min(initial=0) >= 0):
            raise ValueError("pure dephasing kappa2 must be nonnegative and finite")
        if not _finite(self.Delta_B):
            raise ValueError("TLS detuning Delta_B must be finite")
        drive = self.Omega_B
        drive = complex(drive) if np.isscalar(drive) else np.asarray(drive, dtype=complex)
        if not _finite(drive):
            raise ValueError("TLS drive Omega_B must be finite")
        object.__setattr__(self, "Omega_B", drive)
        couplings = tuple(map(complex, self.couplings))
        if not all(map(cmath.isfinite, couplings)):
            raise ValueError("TLS couplings must be finite")
        object.__setattr__(self, "couplings", couplings)

    @property
    def grid_shape(self) -> tuple:
        """Broadcast shape of the array-valued parameters; () for one TLS."""
        return np.broadcast(self.kappa1, self.kappa2, self.Omega_B, self.Delta_B).shape


@dataclass(frozen=True)
class BathEnvironment:
    """Thermal environment of the TLS, which sets their thermal occupation.

    The modes' own baths are at zero temperature.
    """

    temperature: float = 0.0

    def __post_init__(self):
        if not 0 <= self.temperature < math.inf:  # NaN fails too
            raise ValueError("temperature must be nonnegative and finite")


def bose_occupation(omega: float, temperature: float) -> float:
    """Thermal occupation of a harmonic environment mode.

    Exactly zero at zero temperature.
    """
    if not 0 < omega < math.inf:  # NaN fails each check
        raise ValueError("frequency must be positive and finite")
    if not 0 <= temperature < math.inf:
        raise ValueError("temperature must be nonnegative and finite")
    if temperature == 0.0:
        return 0.0
    x = omega / temperature
    # 1/expm1(x) overflows past x = 709.78; from 700 on it equals exp(-x)
    # to rounding, which underflows gradually to 0
    if x >= 700.0:
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def transverse_rate(p: TlsParams, env: BathEnvironment) -> float:
    """Decay rate of the TLS coherences (transverse Bloch components).

    Combines thermally enhanced relaxation with pure dephasing:
    ``kappa1/2 * (1 + 2 nbar) + 2 kappa2``.
    """
    nbar = bose_occupation(p.omega_B, env.temperature)
    return 0.5 * p.kappa1 * (1.0 + 2.0 * nbar) + 2.0 * p.kappa2


def _sq(x):
    # x^2 rounded as Python's float ** 2 (libm pow), so that a grid keeps
    # every bit of the one-point formula
    return np.float_power(x, 2)


def _abs(z):
    # |z| as Python's abs takes it, by hypot; NumPy's complex abs rounds
    # differently
    return np.hypot(z.real, z.imag)


def _complex(re, im):
    """The complex value with parts ``re`` and ``im``, exactly (``re + 1j
    * im`` is not, at an infinite part), where ``re`` has the full shape."""
    out = np.array(re, dtype=complex)
    out.imag = im
    return out[()]


def _first(bad) -> tuple:
    """Index of the first flagged point of a grid; () for a single point."""
    return tuple(int(i) for i in np.argwhere(bad)[0])


def _named(index) -> str:
    """The words an error message names a grid point by; none for a
    single point."""
    return f" (grid index {', '.join(map(str, index))})" if index else ""


def _statics(p: TlsParams, env: BathEnvironment):
    """``(kappa_t, nbar, unit, drive, |drive|^2, sigma+, sigma_z, s)``
    over the grid of ``p``, read by :func:`saturation`, :func:`dipole_drive`
    and the resolvent.  ``unit`` is the power of two that brings the
    largest of kappa_t, ``|Delta_B|`` and ``|Omega_B|`` into ``[1, 2)``:
    dividing by it rounds nothing.  ``drive`` is Omega_B in that unit.
    Everything is real arithmetic, which rounds a grid and a single TLS
    alike.  The caller holds the floating-point error state: an overflow
    leaves inf.

    ``sigma+`` and ``sigma_z`` are the stationary point of the driven,
    damped Bloch equations.  ``sigma+ = -Omega_B* (Delta_B - i kappa_t) /
    (2 [(kappa_t^2 + Delta_B^2) (1 + 2 nbar) + (kappa_t / kappa1)
    |Omega_B|^2])``, formed in ``unit``, never overflows.  ``sigma_z = -1 /
    (1 + 2 nbar + s)`` keeps the rounding that the weak-drive cancellation
    in ``(1 + sigma_z)/2 - |sigma+|^2`` passes on to the spectra; where
    ``s`` overflows it is -0."""
    kt = transverse_rate(p, env)
    nbar = bose_occupation(p.omega_B, env.temperature)
    ob = p.Omega_B
    unit = np.ldexp(0.5, np.frexp(np.maximum(np.maximum(kt, abs(p.Delta_B)), _abs(ob)))[1])
    k, d = kt / unit, p.Delta_B / unit
    dr, di = ob.real / unit, ob.imag / unit
    drive = _complex(dr, di)
    k2, d2, drive2 = _sq(np.array([k, d, np.hypot(dr, di)]))
    lorentz = k2 + d2
    # kt / kappa1 >= 1/2, so pump > 0 wherever lorentz underflows to 0,
    # and s is +inf there, as it is wherever it overflows
    pump = (kt / p.kappa1) * drive2
    s = pump / lorentz
    den = 2.0 * (lorentz * (1.0 + 2.0 * nbar) + pump)
    # -conj(drive) (d - i k) / den
    sigma_plus = _complex((di * k - dr * d) / den, (dr * k + di * d) / den)
    return kt, nbar, unit, drive, drive2, sigma_plus, -1.0 / (1.0 + 2.0 * nbar + s), s


def saturation(p: TlsParams, env: BathEnvironment):
    """Dimensionless saturation parameter of the driven transition.

    Zero without drive, unity at the knee where the drive starts to bleach
    the TLS response, large when the transition is fully saturated.
    Formed in the power-of-two unit of the Bloch statics, so it raises
    :class:`OverflowError` only when it exceeds the float range.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = _statics(p, env)[7]
    bad = ~np.isfinite(s)
    if bad.any():
        index = _first(bad)
        drive = abs(np.broadcast_to(p.Omega_B, bad.shape)[index])
        raise OverflowError(f"saturation overflows at |Omega_B| = {drive:g}{_named(index)}")
    return s


def same_time_correlators(sigma_plus, sigma_z) -> np.ndarray:
    """Equal-time correlators of the centered Bloch operators in the
    stationary state ``sigma_plus``, ``sigma_z``.

    Returns ``c[b, row] = <sigma~_row sigma~_beta>`` of shape ``(2, 3)``
    plus the grid shape of the state, sign first: ``b`` is the position in
    ``SIGNS`` of the fluctuation beta on the right (0 raising, 1 lowering)
    and ``row`` runs over (raising, lowering, inversion).  Obtained from
    the Pauli algebra with the stationary single-operator averages
    subtracted.
    """
    sp, sz = sigma_plus, sigma_z
    mean = np.array([sp, sp.conjugate(), sz], dtype=complex)
    # <sigma_vec sigma_beta>: the squares of sigma+ and sigma- vanish,
    # sigma+ sigma- = (1 + sz)/2, sigma- sigma+ = (1 - sz)/2, sz sigma+- = +-sigma+-
    raw = np.zeros((2,) + mean.shape, dtype=complex)
    raw[0, 1], raw[0, 2] = 0.5 * (1.0 - sz), sp
    raw[1, 0], raw[1, 2] = 0.5 * (1.0 + sz), -mean[1]
    return raw - mean * mean[:2, None]


def correlator_integral(p: TlsParams, env: BathEnvironment, delta_m) -> np.ndarray:
    """Half-line Laplace transform of the Bloch fluctuation correlators.

    ``x[b] = integral_0^inf dtau <sigma~_vec(tau) sigma~_beta(0)> exp(s tau)``,
    ``s = beta i delta_m``, solves ``(A + s) x = -c`` for the fluctuation
    drift ``A`` and the equal-time correlators ``c``, for both signs beta
    at once (``b`` its position in ``SIGNS``).  ``A`` couples each
    transverse row only to the inversion, which eliminates in closed form:
    with ``u, v = s - kappa_t +- i Delta_B``, ``w = s - kappa1 (1 + 2 nbar)``
    and ``P = Omega_B c1 + Omega_B* c2``::

        D  = w + |Omega_B|^2 / 2 * (1/u + 1/v)
        x3 = -(c3 + i Omega_B c1 / u - i Omega_B* c2 / v) / D
        x1 = -(c1 w + i Omega_B* c3 / 2 + Omega_B* P / (2 v)) / D / u
        x2 = -(c2 w - i Omega_B c3 / 2 + Omega_B P / (2 u)) / D / v

    D never vanishes: ``Re u = Re v = -kappa_t < 0`` makes ``Re(1/u)`` and
    ``Re(1/v)`` negative, and ``Re w < 0``, so ``Re D < 0`` for any
    ``kappa1 > 0``, which :class:`TlsParams` enforces.  Unlike the back
    substitution ``x1 = (i Omega_B* x3 / 2 - c1) / u``, nothing cancels at
    the TLS resonance, where ``|u|`` or ``|v|`` is only kappa_t; dividing by
    D, u and v in turn, never by their products, keeps ``|delta_m|`` up to
    1e300 finite.  Frequencies are in units of the power of two that brings
    kappa_t, ``|Delta_B|`` and ``|Omega_B|`` below 2 (rounding nothing), so
    D overflows, raising :class:`OverflowError`, only where ``|Omega_B| /
    kappa_t`` does; a NaN or infinite detuning raises :class:`ValueError`.

    The grid of ``p`` and the detunings broadcast together; ``x[b, row]``
    has shape ``(2, 3)`` plus that broadcast shape, sign first, rows as in
    :func:`same_time_correlators`.  A single TLS and detuning take the same
    array loops, so they round as one point of a grid.  Like the rest of
    the table, it runs under the caller's ``np.errstate``: inputs that
    give non-finite values warn before either error.
    """
    kt, nbar, unit, ob, ob2, sigma_plus, sigma_z, _ = _statics(p, env)
    delta_m = np.asarray(delta_m, dtype=float)
    # (sign, grid) arrays: the grid of p aligns with the last axes of delta_m
    grid = (1,) * (delta_m.ndim - unit.ndim) + unit.shape
    c = same_time_correlators(sigma_plus, sigma_z).reshape((2, 3) + grid)
    c1, c2, c3 = c[:, 0], c[:, 1], c[:, 2]
    oc = ob.conjugate()
    s = _SIGNS_I.reshape((2,) + (1,) * max(delta_m.ndim, unit.ndim)) * delta_m / unit
    decay, shift = s - kt / unit, 1j * p.Delta_B / unit
    u = decay + shift
    v = decay - shift
    w = s - p.kappa1 * (1.0 + 2.0 * nbar) / unit
    d = w + 0.5 * ob2 * (1.0 / u + 1.0 / v)
    if not np.isfinite(d).all():
        if not np.isfinite(delta_m).all():
            bad = delta_m[~np.isfinite(delta_m)].flat[0]
            raise ValueError(f"mode detuning delta_m must be finite, got {bad}")
        # the overflow is the TLS's: name its point on the grid of p
        bad = ~np.isfinite(d).all(axis=tuple(range(d.ndim - unit.ndim)))
        index = _first(bad)
        drive = abs(np.broadcast_to(p.Omega_B, bad.shape)[index])
        raise OverflowError(f"resolvent overflows at |Omega_B| = {drive:g}{_named(index)}")
    x = np.empty((2, 3) + d.shape[1:], dtype=complex)
    x[:, 2] = -(c3 + 1j * ob * c1 / u - 1j * oc * c2 / v) / d
    pump = ob * c1 + oc * c2
    x[:, 0] = -((c1 * w + 0.5j * oc * c3 + 0.5 * oc * pump / v) / d) / u
    x[:, 1] = -((c2 * w - 0.5j * ob * c3 + 0.5 * ob * pump / u) / d) / v
    return x / unit


def _grouped(tls_list, counts, n_modes: int):
    """Collapse repeated entries of one TLS into ``(params, weight)`` pairs.

    ``counts`` holds one positive real weight per entry of ``tls_list``
    (``None`` means 1 each); the rates are linear in it, so a fractional N
    is honoured, not truncated.  An N-fold ensemble then costs one
    closed-form evaluation.  Every TLS must carry
    exactly one coupling per mode, ``n_modes`` in all.
    """
    if counts is None:
        counts = [1.0] * len(tls_list)
    counts = [float(c) for c in counts]
    if len(counts) != len(tls_list) or not all(0 < c < math.inf for c in counts):
        raise ValueError("counts must hold one positive finite weight per TLS")
    # keyed by identity: a grid-valued TLS is not hashable
    params: dict[int, TlsParams] = {}
    weights: dict[int, float] = {}
    for p, c in zip(tls_list, counts):
        if len(p.couplings) != n_modes:
            raise ValueError("each TLS needs exactly one coupling per mode")
        params[id(p)] = p
        weights[id(p)] = weights.get(id(p), 0.0) + c
    return [(params[key], weight) for key, weight in weights.items()]


def dipole_drive(tls_list, env: BathEnvironment, n_modes: int, counts=None) -> np.ndarray:
    """First-order drive of the bath on each of ``n_modes`` modes,
    ``sum_i N_i G_im <sigma+_i>``: stationary dipoles times couplings,
    over the grid of the bath, modes last."""
    out = np.zeros(n_modes, dtype=complex)
    # an overflow leaves inf or NaN, with no warning, for the caller to raise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for p, weight in _grouped(tls_list, counts, n_modes):
            sigma_plus = _statics(p, env)[5]
            out = out + weight * np.array(p.couplings) * sigma_plus[..., None]
    return out


def psd(
    tls_list,
    env: BathEnvironment,
    detunings,
    alpha: int,
    beta: int,
    m: int,
    n: int,
    counts=None,
):
    """One spectral-density component ``Gamma_alphabeta^mn`` of the TLS
    dipole fluctuations: the entry of :func:`build_psd_table` at the
    positions of signs ``alpha``, ``beta`` and at modes ``m``, ``n``."""
    if alpha not in SIGNS or beta not in SIGNS:
        raise ValueError("alpha and beta must be +1 or -1")
    n_modes = len(np.atleast_1d(detunings))
    if not (0 <= m < n_modes and 0 <= n < n_modes):
        raise ValueError("mode indices out of range")
    table = build_psd_table(tls_list, env, detunings, counts=counts)
    return table[..., SIGNS.index(alpha), SIGNS.index(beta), m, n][()]


def build_psd_table(
    tls_list, env: BathEnvironment, detunings, counts=None
) -> np.ndarray:
    """All spectral-density components for a set of modes.

    ``detunings`` holds one entry per mode: a scalar, or an array over
    a grid that all array entries share.  Returns the complex array
    ``table[..., a, b, m, n]`` of shape ``(..., 2, 2, M, M)`` laid out as
    described in the module docstring, with the broadcast grid of the bath
    and the detunings leading.  Each TLS group takes one
    :func:`correlator_integral` call, over both exponent signs, all M
    detunings and the whole grid at once, from which every entry follows.
    """
    detunings = np.asarray(detunings, dtype=float)
    if detunings.ndim == 0:
        detunings = detunings[None]
    n_modes, det_grid = len(detunings), detunings.shape[1:]
    groups = _grouped(tls_list, counts, n_modes)
    # modes first, then every grid axis, so the mode axis never meets a
    # grid axis of the bath
    extra = max(len(p.grid_shape) for p, _ in groups) - len(det_grid)
    if extra > 0:
        detunings = detunings.reshape((n_modes,) + (1,) * extra + det_grid)
    table = np.zeros((2, 2, n_modes, n_modes), dtype=complex)
    # an overflow leaves inf or NaN, with no warning, for the caller to raise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for p, weight in groups:
            # couplings [a, n]: G for sign +1, conj(G) for sign -1
            cpl = np.array([p.couplings, [g.conjugate() for g in p.couplings]])
            # correlator integrals [b, row, m, ...], kept as [..., a, b, m]
            # over the raising and lowering rows
            integ = correlator_integral(p, env, detunings)[:, :2]
            integ = integ.transpose(tuple(range(3, integ.ndim)) + (1, 0, 2))
            # product order ((N G_n) G_m) I, as in the bath sum written out
            table = table + (
                (weight * cpl[:, None, None, :]) * cpl[None, :, :, None]
            ) * integ[..., None]
    return table
