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
quadrature covariance and squeezing from the steady state.  The rates
and ``gamma0`` may be arrays over a grid: stability and the steady state
then cover every grid point in one call (``g1`` is one point's).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import _abs, _complex, _first, _named, _sq
from .rates import SingleModeRates

__all__ = [
    "MomentSystem",
    "StabilityReport",
    "SteadyStateReport",
    "CoherenceSeries",
    "UnstableSystemError",
    "PrecisionLossError",
    "build_moment_system",
    "drift_matrix",
    "stability",
    "steady_state",
    "coherence_g1",
]

# Tolerances for the physicality checks on a steady state.
HEISENBERG_ATOL = 1e-9
OCCUPATION_ATOL = 1e-9

# A variance or det sigma whose forward rounding bound exceeds this
# fraction of its value has lost its digits; the steady state then raises.
DIGITS_RTOL = 1e-2


class UnstableSystemError(ArithmeticError):
    """Moment drift has a nondecaying direction; no steady state exists."""


class PrecisionLossError(ArithmeticError):
    """A steady-state variance or det sigma is below its rounding error."""


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


def build_moment_system(rates: SingleModeRates, gamma0) -> MomentSystem:
    """Moment system of one mode under the TLS-induced rates.

    The mode's detuning from the drive, ``rates.detuning``, plus the
    TLS-induced frequency shift is the total detuning ``delta'``.  The
    intrinsic mode bath enters only through its linewidth (zero-temperature
    form; the TLS-side thermal physics is already inside the rates).  The
    rates and ``gamma0`` may be arrays that broadcast to a grid.
    """
    gamma0 = np.asarray(gamma0, dtype=float)
    if not (np.isfinite(gamma0).all() and (gamma0 >= 0).all()):
        raise ValueError("gamma0 must be nonnegative and finite")
    return MomentSystem(
        rates=rates,
        gamma0=gamma0[()],
        delta_prime=np.add(rates.detuning, rates.delta)[()],
    )


def drift_matrix(ms: MomentSystem) -> tuple[np.ndarray, np.ndarray]:
    """Drift matrix and inhomogeneity of the moment vector, ``dv/dt =
    drift @ v + inhom``: the generic form that numerical eigensolves and
    linear solves check the closed forms against.  Over the grid of ``ms``
    they are ``(..., 5, 5)`` and ``(..., 5)``, each point's as one point
    gives it."""
    om, g, gg = ms.rates.Omega_prime, ms.rates.g, ms.rates.Gamma
    dt = 1j * ms.delta_prime - 0.5 * ms.gamma_total  # complex frequency of <s+>
    dtc = np.conj(dt)
    # the entries of each point in row-major order, the inhomogeneity as a
    # sixth row, broadcast so that both cover the whole grid
    entries = np.broadcast_arrays(
        -ms.gamma_total, 1j * om, -1j * np.conj(om), 2j * g, -2j * np.conj(g),
        0.0, dtc, -2j * np.conj(g), 0.0, 0.0,
        0.0, 2j * g, dt, 0.0, 0.0,
        -4j * np.conj(g), -2j * np.conj(om), 0.0, 2.0 * dtc, 0.0,
        4j * g, 0.0, 2j * om, 0.0, 2.0 * dt,
        ms.rates.gamma_plus, -1j * np.conj(om), 1j * om, -2j * np.conj(g) - np.conj(gg), 2j * g - gg,
    )
    rows = np.stack(entries, axis=-1, dtype=complex).reshape(entries[0].shape + (6, 5))
    return rows[..., :5, :], rows[..., 5, :]


def _amplitude_block(ms: MomentSystem) -> tuple:
    """``(s, gamma/2, 2|g|, Re sigma, Im sigma, D = gamma^2/4 - sigma^2)``
    over the grid of ``ms``, in units of the power of two ``s`` that brings
    the largest of ``gamma``, ``|g|`` and ``|delta'|`` into ``[1, 2)``:
    that rounds nothing, so comparisons are those of the rates, and no
    square overflows.  ``sigma`` is real or imaginary.  Nothing cancels:
    ``sigma^2 = (2|g| - |delta'|)(2|g| + |delta'|)``, and ``D = (gamma/2 -
    sigma)(gamma/2 + sigma)`` for real ``sigma >= 0``, ``gamma^2/4 +
    |sigma|^2`` for imaginary ``sigma``.  Real arithmetic throughout.
    """
    gt, dp, g = ms.gamma_total, abs(ms.delta_prime), _abs(ms.rates.g)
    s = np.ldexp(0.5, np.frexp(np.maximum(np.maximum(abs(gt), g), dp))[1])
    half, two_g, dp = 0.5 * gt / s, 2.0 * g / s, dp / s
    sigma_sq = (two_g - dp) * (two_g + dp)
    real = sigma_sq >= 0.0
    root = np.sqrt(abs(sigma_sq))
    sigma_re = np.where(real, root, 0.0)
    det = np.where(real, (half - sigma_re) * (half + sigma_re), half * half - sigma_sq)
    return s, half, two_g, sigma_re, np.where(real, 0.0, root), det


def stability(ms: MomentSystem) -> StabilityReport:
    """Evaluate both stability tests, exactly and without a margin, at
    every point of the grid of ``ms``.

    ``stable`` is ``gamma/2 > Re sigma`` (so ``gamma > 0``): the drift
    spectrum, whose largest real part ``max_real_part`` is ``max(-gamma/2
    + Re sigma, -gamma + 2 Re sigma)``, is decaying at any detuning
    ``delta'``.  ``criterion`` is the resonant inequality ``gamma0 + gamma
    > 4 |g|``, the ``delta' = 0`` case of that condition.
    """
    return _stability(_amplitude_block(ms))


def _stability(block) -> StabilityReport:
    s, half, two_g, sigma_re, _, _ = block
    growth = sigma_re - half
    return StabilityReport(
        stable=half > sigma_re,
        criterion=half > two_g,
        max_real_part=s * np.maximum(growth, 2.0 * growth),
    )


def _mul(a, b) -> np.ndarray:
    """``a * b`` as Python multiplies complex numbers (a real factor taken
    as complex): four products, no fused multiply-add, so the steady state
    of a grid keeps every bit of the one-point formula."""
    return _complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def _over(z, x) -> np.ndarray:
    """``z / x`` for real ``x``, part by part, as Python divides a complex
    number by a float."""
    return _complex(z.real / x, z.imag / x)


def _div(a, b) -> np.ndarray:
    """``a / b`` as Python divides complex numbers: Smith's method, and
    never through the reciprocal, which overflows at a subnormal ``b``."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    wide = np.abs(br) >= np.abs(bi)
    ratio = np.where(wide, bi / br, br / bi)
    denom = np.where(wide, br + bi * ratio, br * ratio + bi)
    return _complex(
        np.where(wide, ar + ai * ratio, ar * ratio + ai) / denom,
        np.where(wide, ai - ar * ratio, ai * ratio - ar) / denom,
    )


def steady_state(ms: MomentSystem, where=True) -> SteadyStateReport:
    """Stationary moments and the quadrature covariance they imply, at
    every point of the grid of ``ms`` where ``where`` is true.

    Raises :class:`UnstableSystemError` exactly when :func:`stability`
    calls the drift unstable at such a point, and names the first one.
    As with a NumPy ufunc's ``where``, the report's entries at the other
    points are not checked and mean nothing: a sweep passes its stable
    points, so that an error names its point by the index in the whole
    grid.  The report carries the centered covariance
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
    float range overflows, which raises :class:`OverflowError`.  Complex
    products and quotients are formed part by part, as Python forms them,
    so a grid point rounds as a single point does.

    ``var_x = n_c + 1/2 + Re m_c`` and ``det sigma`` still cancel ``n_c``
    near a saturated, narrow bath, where ``n_c`` reaches 1e16.  Their
    forward rounding bounds are ``eps (n_c + |m_c|)`` and ``eps`` times
    the magnitudes ``det sigma`` sums, each plus what the rates carry in,
    ``eps max(gamma_+, gamma_-, |Gamma|) / gamma_total`` (times the larger
    covariance eigenvalue for ``det sigma``).  Where a bound exceeds
    ``DIGITS_RTOL`` of its quantity, :class:`PrecisionLossError` names the
    quantity, the bound and the point.
    """
    block = _amplitude_block(ms)
    verdict = _stability(block)
    unstable = ~verdict.stable & where
    if np.any(unstable):
        index = _first(unstable)
        raise UnstableSystemError(
            f"drift spectrum reaches Re(lambda) = {verdict.max_real_part[index]:.3e}"
            f"{_named(index)}"
        )
    s, half, _, _, _, det = block
    r, gt = ms.rates, ms.gamma_total
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g, om = _over(r.g, s), _over(r.Omega_prime, s)
        dt = _complex(-half, ms.delta_prime / s)
        dt2, g2 = _sq(dt.real) + _sq(dt.imag), _sq(g.real) + _sq(g.imag)
        amp = _over(_mul(_mul(1j, om.conjugate()), dt) + _mul(_mul(2.0, g.conjugate()), om), det)
        gg = r.Gamma
        n_c = (r.gamma_plus * dt2 + 2.0 * gt * g2 - 2.0 * _mul(_mul(g, gg.conjugate()), dt).imag) / (
            gt * det
        )
        gg = _over(gg, s)  # in units of s from here on
        m2 = _div(
            _mul(_mul(2j, g.conjugate()), 2.0 * n_c + 1.0) + gg.conjugate(),
            _mul(2.0, dt.conjugate()),
        )
        # products, not ** 2, so that an overflow reaches the check below
        occupation = n_c + _abs(amp) * _abs(amp)
        pair = m2 + _mul(amp, amp)
        n_sym = n_c + 0.5
        lam_max = n_sym + _abs(m2)
        cross = 8.0 * n_sym * _mul(g.conjugate(), gg).imag
        det_sigma = (4.0 * det * n_sym * n_sym + cross - _abs(gg) * _abs(gg)) / (4.0 * dt2)
        # a finite det sigma bounds n_c, and with it the variances
        named = (("occupation", occupation), ("pair amplitude", pair), ("det sigma", det_sigma))
        for name, value in named:
            bad = ~np.isfinite(value) & where
            if bad.any():
                raise OverflowError(f"steady-state {name} is not finite{_named(_first(bad))}")
        # forward rounding bounds: eps times the terms each sum cancels,
        # plus the rates' rounding carried in through gamma
        rates_in = np.maximum(np.maximum(r.gamma_plus, r.gamma_minus), _abs(r.Gamma)) / gt
        eps = np.finfo(float).eps
        var_err = eps * (abs(n_c) + _abs(m2) + rates_in)
        det_terms = (4.0 * det * n_sym * n_sym + abs(cross) + _abs(gg) * _abs(gg)) / (4.0 * dt2)
        det_err = eps * (det_terms + lam_max * rates_in)
        var_x, var_p = 0.5 + m2.real + n_c, 0.5 - m2.real + n_c
        bounded = (("var_x", var_x, var_err), ("var_p", var_p, var_err), ("det sigma", det_sigma, det_err))
        for name, value, bound in bounded:
            lost = ~(bound <= DIGITS_RTOL * abs(value)) & where
            if lost.any():
                index = _first(lost)
                raise PrecisionLossError(
                    f"steady-state {name} = {value[index]:.3e} has lost its digits: rounding"
                    f" bound {bound[index]:.3e} exceeds {DIGITS_RTOL:g} of it{_named(index)}"
                )
        lam_min = det_sigma / lam_max
        xi = np.where(lam_min > 0, 1.0 / np.sqrt(2.0 * lam_min), np.inf)[()]

    return SteadyStateReport(
        moments=np.stack([occupation, amp, amp.conjugate(), pair, pair.conjugate()], axis=-1),
        occupation=occupation,
        amplitude=amp,
        pair_amplitude=pair,
        centered_occupation=n_c,
        centered_pair=m2,
        var_x=var_x,
        var_p=var_p,
        cov_xp=m2.imag,
        det_sigma=det_sigma,
        xi=xi,
        squeezed=xi > 1.0,
        heisenberg_ok=det_sigma >= 0.25 - HEISENBERG_ATOL,
        occupation_ok=n_c >= -OCCUPATION_ATOL,
    )


def coherence_g1(ms: MomentSystem, report: SteadyStateReport, tau_grid) -> CoherenceSeries:
    """Normalized first-order coherence of the stationary mode, at one
    point, on the lags ``tau_grid``.

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
    occ = float(report.occupation)
    amp, pair = complex(report.amplitude), complex(report.pair_amplitude)
    if occ <= 0:
        raise ValueError("coherence undefined for an unoccupied mode")
    tau_grid = np.asarray(tau_grid, dtype=float)
    if np.any(tau_grid < 0) or np.any(np.diff(tau_grid) <= 0):
        raise ValueError("tau grid must be nonnegative and increasing")
    # the pair over the occupation, divided as Python scalars: NumPy divides
    # a complex array by the reciprocal, which overflows at a subnormal one
    z_inf = ((amp.conjugate() * amp).real / occ, amp.conjugate() ** 2 / occ)
    dev0 = (1.0 - z_inf[0], pair.conjugate() / occ - z_inf[1])
    # first row of B + gamma/2, (-i delta', -2i conj(g)), applied to it
    shifted = -1j * float(ms.delta_prime) * dev0[0] - 2j * np.conj(complex(ms.rates.g)) * dev0[1]
    s, _, _, sigma_re, sigma_im, _ = _amplitude_block(ms)
    sigma = float(s * sigma_re) if sigma_im == 0 else 1j * float(s * sigma_im)
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
