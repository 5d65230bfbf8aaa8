"""Gaussian dynamics of one bosonic mode under the TLS-induced rates.

The effective single-mode master equation is quadratic, so the first and
second moments close on themselves.  Everything here works on the moment
vector ``v = (<s+ s>, <s>, <s+>, <s^2>, <s+^2>)`` (that ordering is used
throughout): linear drift plus constant inhomogeneity.  The drift is
block-triangular: the amplitude block ``B`` on ``(<s>, <s+>)`` never sees
the second moments, and ``(B + gamma/2)^2 = sigma^2 I`` with the total
decay rate ``gamma`` and ``sigma = sqrt(4 |g|^2 - delta'^2)``.  The
spectrum is therefore exactly ``{-gamma/2 +- sigma, -gamma, -gamma +- 2
sigma}``: the mode is stable exactly when ``gamma/2 > Re sigma``, with
no margin, which is when a steady state exists.  Stability, the steady
state (closed-form amplitudes, and centred second moments that do not see
the drive) and the first-order coherence function (quantum regression
with a closed-form ``exp(B tau)``) follow from that block form, and
quadrature covariance and squeezing from the steady state.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .rates import SingleModeRates

__all__ = [
    "MomentSystem",
    "StabilityReport",
    "SteadyStateReport",
    "CoherenceSeries",
    "UnstableSystemError",
    "build_moment_system",
    "drift_matrix",
    "stability",
    "steady_state",
    "coherence_g1",
]

# Tolerances for the physicality checks on a steady state.
HEISENBERG_ATOL = 1e-9
OCCUPATION_ATOL = 1e-9


class UnstableSystemError(ArithmeticError):
    """Moment drift has a nondecaying direction; no steady state exists."""


@dataclass(frozen=True)
class MomentSystem:
    """Rates and mode parameters that fix the closed moment hierarchy."""

    rates: SingleModeRates
    gamma0: float
    delta_prime: float

    @property
    def gamma_total(self) -> float:
        return self.gamma0 + self.rates.gamma


@dataclass(frozen=True)
class StabilityReport:
    """Spectral verdict alongside the resonant closed-form criterion."""

    stable: bool
    criterion: bool
    max_real_part: float


@dataclass(frozen=True, eq=False)
class SteadyStateReport:
    """Stationary moments with derived quadrature properties."""

    moments: np.ndarray
    occupation: float
    amplitude: complex
    pair_amplitude: complex
    centered_occupation: float
    centered_pair: complex
    var_x: float
    var_p: float
    cov_xp: float
    det_sigma: float
    xi: float
    squeezed: bool
    heisenberg_ok: bool
    occupation_ok: bool


@dataclass(frozen=True, eq=False)
class CoherenceSeries:
    """First-order coherence ``g1`` sampled on a time grid."""

    tau: np.ndarray
    values: np.ndarray
    asymptote: complex


def build_moment_system(rates: SingleModeRates, gamma0: float) -> MomentSystem:
    """Moment system of one mode under the TLS-induced rates.

    The mode's detuning from the drive, ``rates.detuning``, plus the
    TLS-induced frequency shift is the total detuning ``delta'``.  The
    intrinsic mode bath enters only through its linewidth (zero-temperature
    form; the TLS-side thermal physics is already inside the rates).
    """
    if gamma0 < 0:
        raise ValueError("gamma0 must be nonnegative")
    return MomentSystem(
        rates=rates,
        gamma0=float(gamma0),
        delta_prime=float(rates.detuning + rates.delta),
    )


def drift_matrix(ms: MomentSystem) -> tuple[np.ndarray, np.ndarray]:
    """Drift matrix and inhomogeneity of the moment vector, ``dv/dt =
    drift @ v + inhom``: the generic form that numerical eigensolves and
    linear solves check the closed forms against."""
    om, g, gg = ms.rates.Omega_prime, ms.rates.g, ms.rates.Gamma
    dt = 1j * ms.delta_prime - 0.5 * ms.gamma_total  # complex frequency of <s+>
    dtc = np.conj(dt)
    drift = np.array(
        [
            [-ms.gamma_total, 1j * om, -1j * np.conj(om), 2j * g, -2j * np.conj(g)],
            [0.0, dtc, -2j * np.conj(g), 0.0, 0.0],
            [0.0, 2j * g, dt, 0.0, 0.0],
            [-4j * np.conj(g), -2j * np.conj(om), 0.0, 2.0 * dtc, 0.0],
            [4j * g, 0.0, 2j * om, 0.0, 2.0 * dt],
        ],
        dtype=complex,
    )
    inhom = np.array(
        [
            ms.rates.gamma_plus,
            -1j * np.conj(om),
            1j * om,
            -2j * np.conj(g) - np.conj(gg),
            2j * g - gg,
        ],
        dtype=complex,
    )
    return drift, inhom


def _amplitude_block(ms: MomentSystem) -> tuple:
    """``(s, gamma/2, 2|g|, sigma, D = gamma^2/4 - sigma^2)``, in units of
    the power of two ``s`` that brings the largest of ``gamma``, ``|g|``
    and ``|delta'|`` into ``[1, 2)``: that rounds nothing, so comparisons
    are those of the rates, and no square overflows.  Nothing cancels:
    ``sigma^2 = (2|g| - |delta'|)(2|g| + |delta'|)``, and ``D = (gamma/2 -
    sigma)(gamma/2 + sigma)`` for real ``sigma >= 0``, ``gamma^2/4 +
    |sigma|^2`` for imaginary ``sigma``.
    """
    gt, g, dp = ms.gamma_total, abs(ms.rates.g), abs(ms.delta_prime)
    s = math.ldexp(1.0, math.frexp(max(abs(gt), g, dp))[1] - 1)
    half, two_g, dp = 0.5 * gt / s, 2.0 * g / s, dp / s
    sigma_sq = (two_g - dp) * (two_g + dp)
    if sigma_sq >= 0.0:
        sigma = math.sqrt(sigma_sq)
        det = (half - sigma) * (half + sigma)
    else:
        sigma = 1j * math.sqrt(-sigma_sq)
        det = half * half - sigma_sq
    return s, half, two_g, sigma, det


def stability(ms: MomentSystem) -> StabilityReport:
    """Evaluate both stability tests, exactly and without a margin.

    ``stable`` is ``gamma/2 > Re sigma`` (so ``gamma > 0``): the drift
    spectrum, whose largest real part ``max_real_part`` is ``max(-gamma/2
    + Re sigma, -gamma + 2 Re sigma)``, is decaying at any detuning
    ``delta'``.  ``criterion`` is the resonant inequality ``gamma0 + gamma
    > 4 |g|``, the ``delta' = 0`` case of that condition.
    """
    s, half, two_g, sigma, _ = _amplitude_block(ms)
    growth = sigma.real - half
    return StabilityReport(
        stable=half > sigma.real,
        criterion=half > two_g,
        max_real_part=s * max(growth, 2.0 * growth),
    )


def steady_state(ms: MomentSystem) -> SteadyStateReport:
    """Stationary moments and the quadrature covariance they imply.

    Raises :class:`UnstableSystemError` exactly when :func:`stability`
    calls the drift unstable.  The report carries the centered covariance
    matrix data, the squeezing factor ``xi = 1 / sqrt(2 * min eig
    sigma)``, and physicality flags for the Heisenberg determinant bound
    and the centered occupation.

    Both blocks are eliminated in closed form.  With ``dt = i delta' -
    gamma/2`` and the amplitude-block determinant ``D = |dt|^2 - 4 |g|^2
    = gamma^2/4 - sigma^2``, positive on every stable drift, the amplitude
    is ``<s> = (i conj(Omega') dt + 2 conj(g) Omega') / D``.  The centred
    moments obey the second-moment drift without the drive, so they come
    out directly, never as a difference of the large moments::

        n_c = [gamma_+ |dt|^2 + 2 gamma |g|^2 - 2 Im(g conj(Gamma) dt)]
              / (gamma D)
        m_c = (2i conj(g) (2 n_c + 1) + conj(Gamma)) / (2 conj(dt))

    The covariance eigenvalues are ``n_c + 1/2 +- |m_c|``; their product
    ``det sigma = (n_c + 1/2)^2 - |m_c|^2`` is expanded in the same rates,
    so the smaller eigenvalue is ``det sigma`` over the larger one rather
    than a difference of two large numbers.  The frequencies are taken in
    the units of :func:`_amplitude_block`, so only a moment beyond the
    float range overflows, which raises :class:`OverflowError`.
    """
    verdict = stability(ms)
    if not verdict.stable:
        raise UnstableSystemError(
            f"drift spectrum reaches Re(lambda) = {verdict.max_real_part:.3e}"
        )
    s, half, _, _, det = _amplitude_block(ms)
    r, gt = ms.rates, ms.gamma_total
    g, om, gg = complex(r.g) / s, complex(r.Omega_prime) / s, complex(r.Gamma)
    dt = complex(-half, ms.delta_prime / s)
    dt2, g2 = dt.real**2 + dt.imag**2, g.real**2 + g.imag**2
    amp = (1j * om.conjugate() * dt + 2.0 * g.conjugate() * om) / det
    n_c = float(
        r.gamma_plus * dt2 + 2.0 * gt * g2 - 2.0 * (g * gg.conjugate() * dt).imag
    ) / (gt * det)
    gg /= s  # in units of s from here on
    m2 = (2j * g.conjugate() * (2.0 * n_c + 1.0) + gg.conjugate()) / (
        2.0 * dt.conjugate()
    )
    # products, not ** 2, so that an overflow reaches the check below
    occupation = n_c + abs(amp) * abs(amp)
    pair = m2 + amp * amp
    v = np.array(
        [occupation, amp, amp.conjugate(), pair, pair.conjugate()], dtype=complex
    )
    var_x = 0.5 + m2.real + n_c
    var_p = 0.5 - m2.real + n_c
    cov_xp = m2.imag
    n_sym = n_c + 0.5
    lam_max = n_sym + abs(m2)
    cross = 8.0 * n_sym * (g.conjugate() * gg).imag
    det_sigma = (4.0 * det * n_sym * n_sym + cross - abs(gg) * abs(gg)) / (4.0 * dt2)
    # a finite det sigma bounds n_c, and with it the variances
    named = (("occupation", occupation), ("pair amplitude", pair), ("det sigma", det_sigma))
    for name, value in named:
        if not cmath.isfinite(value):
            raise OverflowError(f"steady-state {name} is not finite")
    lam_min = det_sigma / lam_max
    xi = 1.0 / np.sqrt(2.0 * lam_min) if lam_min > 0 else np.inf
    return SteadyStateReport(
        moments=v,
        occupation=occupation,
        amplitude=amp,
        pair_amplitude=pair,
        centered_occupation=n_c,
        centered_pair=m2,
        var_x=var_x,
        var_p=var_p,
        cov_xp=cov_xp,
        det_sigma=det_sigma,
        xi=float(xi),
        squeezed=bool(xi > 1.0),
        heisenberg_ok=bool(det_sigma >= 0.25 - HEISENBERG_ATOL),
        occupation_ok=bool(n_c >= -OCCUPATION_ATOL),
    )


def default_tau_grid(gamma_total: float, points: int = 400) -> np.ndarray:
    """Logarithmic time grid from zero out to 20 total decay times."""
    if gamma_total <= 0:
        raise ValueError("gamma_total must be positive")
    if points < 2:
        raise ValueError("need at least two grid points")
    t_max = 20.0 / gamma_total
    grid = np.geomspace(1e-4 * t_max, t_max, points - 1)
    return np.concatenate(([0.0], grid))


def coherence_g1(
    ms: MomentSystem, report: SteadyStateReport, tau_grid=None
) -> CoherenceSeries:
    """Normalized first-order coherence of the stationary mode.

    Quantum regression: the lagged pair ``(<s+(0) s(tau)>, <s+(0) s+(tau)>)``
    relaxes under the amplitude block ``B`` to ``conj(<s>) (<s>, <s+>)``,
    starting from the stationary occupation and pair moment.  A deviation
    ``d`` propagates as ``e^(lam tau) [(1 + e^(-2 sigma tau))/2 d
    + tau phi(2 sigma tau) (B + gamma/2) d]`` with ``lam = -gamma/2 + sigma``
    and ``phi(x) = (1 - e^-x)/x``, finite at any lag and at ``sigma = 0``.
    Values are normalized to unity at zero lag; the asymptote is the
    coherent fraction ``|<s>|^2 / <s+ s>``.  Values beyond the float range
    raise :class:`OverflowError`.
    """
    occ, amp, pair = report.occupation, report.amplitude, report.pair_amplitude
    if occ <= 0:
        raise ValueError("coherence undefined for an unoccupied mode")
    if tau_grid is None:
        tau_grid = default_tau_grid(ms.gamma_total)
    tau_grid = np.asarray(tau_grid, dtype=float)
    if np.any(tau_grid < 0) or np.any(np.diff(tau_grid) <= 0):
        raise ValueError("tau grid must be nonnegative and increasing")
    # the pair over the occupation, divided as Python scalars: NumPy divides
    # a complex array by the reciprocal, which overflows at a subnormal one
    z_inf = ((amp.conjugate() * amp).real / occ, amp.conjugate() ** 2 / occ)
    dev0 = (1.0 - z_inf[0], pair.conjugate() / occ - z_inf[1])
    # first row of B + gamma/2, (-i delta', -2i conj(g)), applied to it
    shifted = -1j * ms.delta_prime * dev0[0] - 2j * np.conj(ms.rates.g) * dev0[1]
    s, _, _, sigma, _ = _amplitude_block(ms)
    sigma *= s
    x = 2.0 * sigma * tau_grid
    # tau phi(2 sigma tau) is tau to rounding while |x| < 2^-53, as at the
    # defective sigma = 0 and at a subnormal sigma, whose reciprocal overflows
    tau_phi = tau_grid if np.all(np.abs(x) < 2.0**-53) else -np.expm1(-x) / (2.0 * sigma)
    decay = np.exp((sigma - 0.5 * ms.gamma_total) * tau_grid)
    values = z_inf[0] + decay * (
        0.5 * (1.0 + np.exp(-x)) * dev0[0] + tau_phi * shifted
    )
    values[tau_grid == 0.0] = 1.0
    if not np.all(np.isfinite(values)):
        raise OverflowError("g1 is not finite on this tau grid")
    return CoherenceSeries(tau=tau_grid, values=values, asymptote=complex(z_inf[0]))
