"""Gaussian dynamics of one bosonic mode under the TLS-induced rates.

The effective single-mode master equation is quadratic, so the first and
second moments close on themselves.  Everything here works on the moment
vector ``v = (<s+ s>, <s>, <s+>, <s^2>, <s+^2>)`` (that ordering is used
throughout): linear drift plus constant inhomogeneity.  The drift is
block-triangular: the amplitude block ``B`` on ``(<s>, <s+>)`` never sees
the second moments, and ``(B + gamma/2)^2 = sigma^2 I`` with the total
decay rate ``gamma`` and ``sigma = sqrt(4 |g|^2 - delta'^2)``.  The
spectrum is therefore exactly ``{-gamma/2 +- sigma, -gamma, -gamma +- 2
sigma}``.  Stability, the steady state (closed-form amplitudes, and
centred second moments that do not see the drive) and the first-order
coherence function (quantum regression with a closed-form ``exp(B tau)``)
follow from that block form, and quadrature covariance and squeezing from
the steady state.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .linalg import SingularMatrixError
from .rates import SingleModeRates

__all__ = [
    "MomentSystem",
    "StabilityReport",
    "SteadyStateReport",
    "CoherenceSeries",
    "UnstableSystemError",
    "build_moment_system",
    "stability",
    "steady_state",
    "coherence_g1",
]

# Margin on the drift spectrum: stable means max Re(lambda) < EPS_STAB.
EPS_STAB = 1e-12

# Tolerances for the physicality checks on a steady state.
HEISENBERG_ATOL = 1e-9
OCCUPATION_ATOL = 1e-9


class UnstableSystemError(ArithmeticError):
    """Moment drift has a nondecaying direction; no steady state exists."""


@dataclass(frozen=True, eq=False)
class MomentSystem:
    """Drift and inhomogeneity of the closed moment hierarchy."""

    drift: np.ndarray
    inhom: np.ndarray
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


def build_moment_system(
    rates: SingleModeRates, gamma0: float, delta_0: float
) -> MomentSystem:
    """Drift matrix and inhomogeneity for the moment vector.

    ``delta_0`` is the bare mode detuning from the drive; the TLS-induced
    frequency shift is added on top.  The intrinsic mode bath enters only
    through its linewidth (zero-temperature form; the TLS-side thermal
    physics is already inside the rates).
    """
    if gamma0 < 0:
        raise ValueError("gamma0 must be nonnegative")
    dp = delta_0 + rates.delta
    gt = gamma0 + rates.gamma
    om = rates.Omega_prime
    g = rates.g
    gg = rates.Gamma
    dt = 1j * dp - 0.5 * gt  # complex frequency of <s+>
    dtc = np.conj(dt)
    drift = np.array(
        [
            [-gt, 1j * om, -1j * np.conj(om), 2j * g, -2j * np.conj(g)],
            [0.0, dtc, -2j * np.conj(g), 0.0, 0.0],
            [0.0, 2j * g, dt, 0.0, 0.0],
            [-4j * np.conj(g), -2j * np.conj(om), 0.0, 2.0 * dtc, 0.0],
            [4j * g, 0.0, 2j * om, 0.0, 2.0 * dt],
        ],
        dtype=complex,
    )
    inhom = np.array(
        [
            rates.gamma_plus,
            -1j * np.conj(om),
            1j * om,
            -2j * np.conj(g) - np.conj(gg),
            2j * g - gg,
        ],
        dtype=complex,
    )
    return MomentSystem(
        drift=drift,
        inhom=inhom,
        rates=rates,
        gamma0=float(gamma0),
        delta_prime=float(dp),
    )


def _sigma(ms: MomentSystem) -> complex:
    # Principal root, so Re(sigma) >= 0: (B + gamma/2)^2 = sigma^2 I.
    return cmath.sqrt(4.0 * abs(ms.rates.g) ** 2 - ms.delta_prime**2)


def stability(ms: MomentSystem) -> StabilityReport:
    """Evaluate both stability tests.

    ``stable`` is the verdict on the drift spectrum, whose largest real
    part is ``max(-gamma/2 + Re sigma, -gamma + 2 Re sigma)`` exactly, so
    the mode is stable exactly when ``gamma > 2 Re sigma`` at any detuning
    ``delta'``.  ``criterion`` is the closed-form inequality
    ``gamma0 + gamma >= 4 |g|`` carried with the same margin; it is the
    ``delta' = 0`` case of that condition.
    """
    re_sigma, gt = _sigma(ms).real, ms.gamma_total
    max_re = max(-0.5 * gt + re_sigma, -gt + 2.0 * re_sigma)
    stable = max_re < EPS_STAB
    criterion = gt - 4.0 * abs(ms.rates.g) > -2.0 * EPS_STAB
    return StabilityReport(
        stable=stable, criterion=criterion, max_real_part=max_re
    )


def steady_state(ms: MomentSystem) -> SteadyStateReport:
    """Stationary moments and the quadrature covariance they imply.

    Requires a stable drift (checked; raises
    :class:`UnstableSystemError` otherwise).  The report carries the
    centered covariance matrix data, the squeezing factor
    ``xi = 1 / sqrt(2 * min eig sigma)``, and physicality flags for the
    Heisenberg determinant bound and the centered occupation.

    Both blocks are eliminated in closed form.  With ``dt = i delta' -
    gamma/2`` and the amplitude-block determinant ``D = |dt|^2 - 4 |g|^2
    = gamma^2/4 - sigma^2``, the amplitude is ``<s> = (i conj(Omega') dt
    + 2 conj(g) Omega') / D``.  The centred moments obey the second-moment
    drift without the drive, so they come out directly, never as a
    difference of the large moments::

        n_c = [gamma_+ |dt|^2 + 2 gamma |g|^2 - 2 Im(g conj(Gamma) dt)]
              / (gamma D)
        m_c = (2i conj(g) (2 n_c + 1) + conj(Gamma)) / (2 conj(dt))

    The covariance eigenvalues are ``n_c + 1/2 +- |m_c|``; their product
    ``det sigma = (n_c + 1/2)^2 - |m_c|^2`` is expanded in the same rates,
    so the smaller eigenvalue is ``det sigma`` over the larger one rather
    than a difference of two large numbers.

    A drift the stability margin admits with ``D <= 0`` or ``gamma <= 0``
    has no unique fixed point and raises :class:`SingularMatrixError`.
    """
    verdict = stability(ms)
    if not verdict.stable:
        raise UnstableSystemError(
            f"drift spectrum reaches Re(lambda) = {verdict.max_real_part:.3e}"
        )
    r, gt = ms.rates, ms.gamma_total
    g, om, gg = complex(r.g), complex(r.Omega_prime), complex(r.Gamma)
    dt = complex(-0.5 * gt, ms.delta_prime)
    dt2, g2 = dt.real**2 + dt.imag**2, g.real**2 + g.imag**2
    det = dt2 - 4.0 * g2
    if not (gt > 0.0 and det > 0.0):
        raise SingularMatrixError(
            f"moment drift singular at the stability margin "
            f"(gamma {gt:.3e}, amplitude determinant {det:.3e})"
        )
    amp = (1j * om.conjugate() * dt + 2.0 * g.conjugate() * om) / det
    n_c = float(
        r.gamma_plus * dt2 + 2.0 * gt * g2 - 2.0 * (g * gg.conjugate() * dt).imag
    ) / (gt * det)
    m2 = (2j * g.conjugate() * (2.0 * n_c + 1.0) + gg.conjugate()) / (
        2.0 * dt.conjugate()
    )
    occupation = n_c + abs(amp) ** 2
    pair = m2 + amp**2
    v = np.array(
        [occupation, amp, amp.conjugate(), pair, pair.conjugate()], dtype=complex
    )
    var_x = 0.5 + m2.real + n_c
    var_p = 0.5 - m2.real + n_c
    cov_xp = m2.imag
    n_sym = n_c + 0.5
    lam_max = n_sym + abs(m2)
    det_sigma = (
        4.0 * det * n_sym**2 + 8.0 * n_sym * (g.conjugate() * gg).imag - abs(gg) ** 2
    ) / (4.0 * dt2)
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
    coherent fraction ``|<s>|^2 / <s+ s>``.
    """
    if report.occupation <= 0:
        raise ValueError("coherence undefined for an unoccupied mode")
    if tau_grid is None:
        tau_grid = default_tau_grid(ms.gamma_total)
    tau_grid = np.asarray(tau_grid, dtype=float)
    if np.any(tau_grid < 0) or np.any(np.diff(tau_grid) <= 0):
        raise ValueError("tau grid must be nonnegative and increasing")
    z0 = np.array(
        [report.occupation, np.conj(report.pair_amplitude)], dtype=complex
    )
    z_inf = np.conj(report.amplitude) * report.moments[1:3]
    dev0 = z0 - z_inf
    # first row of B + gamma/2: the sum cancels B's real diagonal exactly
    shifted = ms.drift[1, 1:3] + (0.5 * ms.gamma_total, 0.0)
    sigma = _sigma(ms)
    x = 2.0 * sigma * tau_grid
    # tau phi(2 sigma tau); the block is defective at sigma = 0
    tau_phi = tau_grid if sigma == 0 else -np.expm1(-x) / (2.0 * sigma)
    decay = np.exp((sigma - 0.5 * ms.gamma_total) * tau_grid)
    values = z_inf[0] + decay * (
        0.5 * (1.0 + np.exp(-x)) * dev0[0] + tau_phi * (shifted @ dev0)
    )
    values /= report.occupation
    values[tau_grid == 0.0] = 1.0
    asymptote = complex(z_inf[0] / report.occupation)
    return CoherenceSeries(tau=tau_grid, values=values, asymptote=asymptote)

