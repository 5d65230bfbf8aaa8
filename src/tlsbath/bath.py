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
array ``table[a, b, m, n]`` of shape ``(2, 2, M, M)``: ``a`` and ``b``
are the positions of the fluctuation signs alpha and beta in ``SIGNS``
(0 for +1, raising; 1 for -1, lowering) and ``m``, ``n`` index modes.
Every entry already carries the coupling weights, summed over the bath.

Units: hbar = k_B = 1 throughout; rates and frequencies share the same unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TlsParams",
    "BathEnvironment",
    "BlochSteadyState",
    "bose_occupation",
    "transverse_rate",
    "saturation",
    "bloch_steady_state",
    "same_time_correlators",
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


@dataclass(frozen=True)
class TlsParams:
    """One two-level system of the bath.

    Attributes
    ----------
    omega_B : float
        Transition frequency (sets the thermal occupation of its local bath).
    kappa1 : float
        Radiative relaxation rate.
    kappa2 : float
        Pure dephasing rate.
    Omega_B : complex
        Coherent drive amplitude in the rotating frame.
    Delta_B : float
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
        if self.omega_B <= 0:
            raise ValueError("TLS transition frequency must be positive")
        if self.kappa1 <= 0:
            raise ValueError("TLS relaxation rate kappa1 must be positive")
        if self.kappa2 < 0:
            raise ValueError("pure dephasing kappa2 must be nonnegative")
        object.__setattr__(self, "Omega_B", complex(self.Omega_B))
        object.__setattr__(
            self, "couplings", tuple(complex(g) for g in self.couplings)
        )


@dataclass(frozen=True)
class BathEnvironment:
    """Thermal environment of the TLS, which sets their thermal occupation.

    The modes' own baths are at zero temperature.
    """

    temperature: float = 0.0

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be nonnegative")


@dataclass(frozen=True)
class BlochSteadyState:
    """Stationary Bloch vector of a single driven TLS."""

    sigma_plus: complex
    sigma_z: float


def bose_occupation(omega: float, temperature: float) -> float:
    """Thermal occupation of a harmonic environment mode.

    Exactly zero at zero temperature.
    """
    if omega <= 0:
        raise ValueError("frequency must be positive")
    if temperature < 0:
        raise ValueError("temperature must be nonnegative")
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


def _statics(p: TlsParams, env: BathEnvironment):
    """``(kappa_t, nbar, unit, BlochSteadyState, s)`` of one TLS, read by
    :func:`bloch_steady_state`, :func:`saturation` and the resolvent.
    ``unit`` is the power of two that brings the largest of kappa_t,
    ``|Delta_B|`` and ``|Omega_B|`` into ``[1, 2)``: dividing by it rounds
    nothing."""
    kt = transverse_rate(p, env)
    nbar = bose_occupation(p.omega_B, env.temperature)
    scale = math.ldexp(1.0, math.frexp(max(kt, abs(p.Delta_B), abs(p.Omega_B)))[1] - 1)
    k, d, drive = kt / scale, p.Delta_B / scale, p.Omega_B / scale
    lorentz = k**2 + d**2
    pump = (kt / p.kappa1) * abs(drive) ** 2
    sigma_plus = -drive.conjugate() * complex(d, -k) / (
        2.0 * (lorentz * (1.0 + 2.0 * nbar) + pump)
    )
    # lorentz underflows to 0 only where s overflows anyway
    s = pump / lorentz if lorentz else math.inf
    state = BlochSteadyState(sigma_plus=sigma_plus, sigma_z=-1.0 / (1.0 + 2.0 * nbar + s))
    return kt, nbar, scale, state, s


def saturation(p: TlsParams, env: BathEnvironment) -> float:
    """Dimensionless saturation parameter of the driven transition.

    Zero without drive, unity at the knee where the drive starts to bleach
    the TLS response, large when the transition is fully saturated.
    Formed in the power-of-two unit of :func:`bloch_steady_state`, so
    it raises :class:`OverflowError` only when it exceeds the float range.
    """
    s = _statics(p, env)[4]
    if not math.isfinite(s):
        raise OverflowError(f"saturation overflows at |Omega_B| = {abs(p.Omega_B):g}")
    return s


def bloch_steady_state(p: TlsParams, env: BathEnvironment) -> BlochSteadyState:
    """Stationary point of the driven, damped Bloch equations.

    ``sigma+ = -Omega_B* (Delta_B - i kappa_t) / (2 [(kappa_t^2 + Delta_B^2)
    (1 + 2 nbar) + (kappa_t / kappa1) |Omega_B|^2])``, in units of the power
    of two that brings the largest rate or drive into ``[1, 2)`` (rounding
    nothing), never overflows.  ``sigma_z = -1 / (1 + 2 nbar + s)`` keeps the
    rounding that the weak-drive cancellation in ``(1 + sigma_z)/2 -
    |sigma+|^2`` passes on to the spectra; where ``s`` overflows it is -0.
    """
    return _statics(p, env)[3]


def same_time_correlators(state: BlochSteadyState) -> np.ndarray:
    """Equal-time correlators of the centered Bloch operators.

    Returns ``c[b, row] = <sigma~_row sigma~_beta>`` of shape ``(2, 3)``,
    sign first: ``b`` is the position in ``SIGNS`` of the fluctuation beta
    on the right (0 raising, 1 lowering) and ``row`` runs over (raising,
    lowering, inversion).  Obtained from the Pauli algebra with the
    stationary single-operator averages subtracted.
    """
    sp, sz = state.sigma_plus, state.sigma_z
    mean = np.array([sp, np.conj(sp), sz], dtype=complex)
    # <sigma_vec sigma_beta>: the squares of sigma+ and sigma- vanish,
    # sigma+ sigma- = (1 + sz)/2, sigma- sigma+ = (1 - sz)/2, sz sigma+- = +-sigma+-
    raw = np.array(
        [[0.0, 0.5 * (1.0 - sz), sp], [0.5 * (1.0 + sz), 0.0, -mean[1]]], dtype=complex
    )
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
    kappa_t`` does.  Returns ``x[b, row]`` of shape ``(2, 3) +
    delta_m.shape``, sign first, rows as in :func:`same_time_correlators`.
    """
    kt, nbar, scale, state, _ = _statics(p, env)
    # each correlator a (sign, 1) column against the detunings along axis 1
    c1, c2, c3 = same_time_correlators(state).T[..., None]
    ob, oc = p.Omega_B / scale, p.Omega_B.conjugate() / scale
    delta_m = np.asarray(delta_m, dtype=float)
    # one array code path, so a scalar detuning rounds as its array entry
    s = np.array(SIGNS)[:, None] * 1j * delta_m.reshape(-1) / scale
    u = s - kt / scale + 1j * p.Delta_B / scale
    v = s - kt / scale - 1j * p.Delta_B / scale
    w = s - p.kappa1 * (1.0 + 2.0 * nbar) / scale
    d = w + 0.5 * abs(ob) ** 2 * (1.0 / u + 1.0 / v)
    if not np.isfinite(d).all():
        raise OverflowError(f"resolvent overflows at |Omega_B| = {abs(p.Omega_B):g}")
    x3 = -(c3 + 1j * ob * c1 / u - 1j * oc * c2 / v) / d
    pump = ob * c1 + oc * c2
    x1 = -((c1 * w + 0.5j * oc * c3 + 0.5 * oc * pump / v) / d) / u
    x2 = -((c2 * w - 0.5j * ob * c3 + 0.5 * ob * pump / u) / d) / v
    return np.stack([x1, x2, x3], axis=1).reshape((2, 3) + delta_m.shape) / scale


def _grouped(tls_list, counts, n_modes: int):
    """Collapse identical TLS into ``(params, weight)`` pairs.

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
    groups: dict[TlsParams, float] = {}
    for p, c in zip(tls_list, counts):
        if len(p.couplings) != n_modes:
            raise ValueError("each TLS needs exactly one coupling per mode")
        groups[p] = groups.get(p, 0.0) + c
    return list(groups.items())


def dipole_drive(tls_list, env: BathEnvironment, n_modes: int, counts=None) -> np.ndarray:
    """First-order drive of the bath on each of ``n_modes`` modes,
    ``sum_i N_i G_im <sigma+_i>``: stationary dipoles times couplings."""
    out = np.zeros(n_modes, dtype=complex)
    # an overflow leaves inf or NaN, with no warning, for the caller to raise
    with np.errstate(over="ignore", invalid="ignore"):
        for p, weight in _grouped(tls_list, counts, n_modes):
            out += weight * np.array(p.couplings) * bloch_steady_state(p, env).sigma_plus
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
) -> complex:
    """One spectral-density component ``Gamma_alphabeta^mn`` of the TLS
    dipole fluctuations: the entry of :func:`build_psd_table` at the
    positions of signs ``alpha``, ``beta`` and at modes ``m``, ``n``."""
    if alpha not in SIGNS or beta not in SIGNS:
        raise ValueError("alpha and beta must be +1 or -1")
    n_modes = np.atleast_1d(detunings).shape[0]
    if not (0 <= m < n_modes and 0 <= n < n_modes):
        raise ValueError("mode indices out of range")
    table = build_psd_table(tls_list, env, detunings, counts=counts)
    return complex(table[SIGNS.index(alpha), SIGNS.index(beta), m, n])


def build_psd_table(
    tls_list, env: BathEnvironment, detunings, counts=None
) -> np.ndarray:
    """All spectral-density components for a set of modes.

    Returns the complex array ``table[a, b, m, n]`` of shape
    ``(2, 2, M, M)`` laid out as described in the module docstring.  Each
    TLS group takes one :func:`correlator_integral` call, over both
    exponent signs and all M detunings at once, from which every entry
    follows.
    """
    detunings = np.atleast_1d(np.asarray(detunings, dtype=float))
    n_modes = len(detunings)
    table = np.zeros((2, 2, n_modes, n_modes), dtype=complex)
    # an overflow leaves inf or NaN, with no warning, for the caller to raise
    with np.errstate(over="ignore", invalid="ignore"):
        for p, weight in _grouped(tls_list, counts, n_modes):
            # couplings [a, n]: G for sign +1, conj(G) for sign -1
            cpl = np.array([p.couplings, [g.conjugate() for g in p.couplings]])
            # correlator integrals [b, row, m], kept as [a, b, m] over the
            # raising and lowering rows
            integ = correlator_integral(p, env, detunings).transpose(1, 0, 2)[:2]
            # product order ((N G_n) G_m) I, as in the bath sum written out
            table += (
                (weight * cpl[:, None, None, :]) * cpl[None, :, :, None]
            ) * integ[..., None]
    return table
