"""Effective master-equation rates induced on the modes by the TLS bath.

Adiabatic elimination of the driven TLS leaves each bosonic mode with a
coherent drive correction plus five families of second-order rates built
from the bath spectral densities: a frequency shift, a coherent
pair-creation (squeezing) amplitude, upward/downward incoherent rates, and
a dissipative pair amplitude.  This module assembles those rates for an
arbitrary set of modes, specializes them to one mode, and provides the
closed-form limiting expressions that serve as independent cross-checks
(they never call the assembly pipeline).  Everything is written in the
frame rotating at the TLS drive, so a mode enters only through its
detuning from that drive.  Mode detunings and TLS parameters may be
arrays over a grid, which then leads every rate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bath import BathEnvironment, _bath_terms, _finite, _first, _named

__all__ = [
    "ModeParams",
    "MasterEqRates",
    "SingleModeRates",
    "BelowThresholdError",
    "assemble_rates",
    "single_mode_rates",
    "resonant_closed_form",
    "low_drive_limits",
    "mollow_sideband",
    "optimal_detuning",
]

class BelowThresholdError(ValueError):
    """Drive too weak for the requested spectral feature to exist."""


@dataclass(frozen=True)
class ModeParams:
    """One bosonic mode: detuning from the drive (a scalar, or an array
    over a grid), intrinsic linewidth, direct drive."""

    detuning: float
    gamma0: float
    Omega: complex = 0.0

    def __post_init__(self):
        # each check fails on NaN
        if not _finite(self.detuning):
            raise ValueError("mode detuning must be finite")
        if not 0 <= self.gamma0 < math.inf:
            raise ValueError("intrinsic mode linewidth gamma0 must be nonnegative and finite")
        drive = complex(self.Omega)
        if not cmath.isfinite(drive):
            raise ValueError("mode drive Omega must be finite")
        object.__setattr__(self, "Omega", drive)


@dataclass(frozen=True, eq=False)
class MasterEqRates:
    """Full rate set for a multimode system, over a grid.

    Matrix entries are indexed ``[..., m, n]`` over modes, after the grid
    axes; ``delta`` and the incoherent rate matrices are Hermitian at
    every grid point, ``Omega_prime`` holds the TLS-corrected coherent
    drives ``[..., m]``, ``detunings`` the modes' own detunings from the
    drive.
    """

    detunings: tuple
    Omega_prime: np.ndarray
    delta: np.ndarray
    g: np.ndarray
    gamma_plus: np.ndarray
    gamma_minus: np.ndarray
    Gamma: np.ndarray


@dataclass(frozen=True)
class SingleModeRates:
    """Rates of the single-mode master equation (all per unit time): one
    point, or arrays that broadcast to a grid."""

    detuning: float
    Omega_prime: complex
    delta: float
    g: complex
    gamma_plus: float
    gamma_minus: float
    Gamma: complex

    @property
    def gamma(self) -> float:
        """Net TLS-induced decay rate (negative means amplification)."""
        return self.gamma_minus - self.gamma_plus


def _adjoint(mat: np.ndarray) -> np.ndarray:
    return mat.swapaxes(-1, -2).conj()


def _check_finite(value: np.ndarray, name: str, axes) -> None:
    if not np.isfinite(value).all():
        bad = ~np.isfinite(value).all(axis=axes)
        raise OverflowError(f"{name} is not finite{_named(_first(bad))}")


def assemble_rates(
    modes,
    tls_list,
    env: BathEnvironment,
    counts=None,
) -> MasterEqRates:
    """Assemble all second-order rates from the bath spectral densities.

    The spectral-density table, read with the first-order drive from one
    Bloch-statics evaluation per TLS group, forms the rate matrices.  The
    frequency-shift and incoherent-rate matrices are each a matrix plus
    its adjoint (times +-i/2 for the shift), which IEEE arithmetic keeps
    exactly Hermitian, with diagonals whose imaginary part is exactly 0;
    nothing checks it at run time.  A table or drive that overflowed
    raises :class:`OverflowError`.  Mode detunings
    and TLS parameters that are arrays broadcast to one grid, whose axes
    lead every rate; each check holds at every grid point, and an error
    names the first point that fails it.
    """
    modes = list(modes)
    detunings = tuple(m.detuning for m in modes)
    table, dipoles = _bath_terms(tls_list, env, detunings, counts)
    # the bare mode drives plus the stationary TLS dipoles, modes last
    bare = np.array([complex(m.Omega) for m in modes], dtype=complex)
    omega_prime = bare + dipoles
    _check_finite(table, "spectral-density table", (-4, -3, -2, -1))
    _check_finite(omega_prime, "effective drive", -1)
    # pm is the (alpha, beta) = (+1, -1) block, and so on (see bath.SIGNS)
    pp, pm, mp, mm = (table[..., a, b, :, :] for a in (0, 1) for b in (0, 1))

    shift = pm + mp
    delta = -0.5j * shift + 0.5j * _adjoint(shift)
    g = -0.5j * (pp - _adjoint(mm))
    gamma_plus = pm + _adjoint(pm)
    gamma_minus = mp + _adjoint(mp)
    big_gamma = pp + _adjoint(mm)

    return MasterEqRates(
        detunings=detunings,
        Omega_prime=omega_prime,
        delta=delta,
        g=g,
        gamma_plus=gamma_plus,
        gamma_minus=gamma_minus,
        Gamma=big_gamma,
    )


def single_mode_rates(
    mode: ModeParams,
    tls_list,
    env: BathEnvironment,
    counts=None,
) -> SingleModeRates:
    """Scalar rate set for a single mode, at one point or over a grid.

    Diagonal entries of the Hermitian matrices are exactly real (see
    :func:`assemble_rates`), so their real parts are taken.  The
    incoherent rates must come out nonnegative (they are diagonal
    dissipator weights).  Each check holds at every grid point.
    """
    rates = assemble_rates([mode], tls_list, env, counts=counts)
    gp = rates.gamma_plus[..., 0, 0].real
    gm = rates.gamma_minus[..., 0, 0].real
    tol = 1e-12 * np.maximum(np.maximum(np.abs(gp), np.abs(gm)), 1e-30)
    bad = (gp < -tol) | (gm < -tol)
    if bad.any():
        index = _first(bad)
        raise ArithmeticError(
            f"negative incoherent rate: gamma_plus={gp[index]:.3e}, "
            f"gamma_minus={gm[index]:.3e}{_named(index)}"
        )
    return SingleModeRates(
        detuning=rates.detunings[0],
        Omega_prime=rates.Omega_prime[..., 0][()],
        delta=rates.delta[..., 0, 0].real[()],
        g=rates.g[..., 0, 0][()],
        # -0.0 stays -0.0, as in max(gp, 0.0)
        gamma_plus=np.where(gp < 0.0, 0.0, gp)[()],
        gamma_minus=np.where(gm < 0.0, 0.0, gm)[()],
        Gamma=rates.Gamma[..., 0, 0][()],
    )


def _require_finite(**args) -> None:
    """Refuse a NaN or infinite argument of a closed form by its name."""
    for name, value in args.items():
        if not cmath.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def resonant_closed_form(
    n_tls: float,
    coupling: float,
    kappa1: float,
    s: float,
    delta_0: float,
) -> tuple[complex, complex]:
    """Closed form for the pair amplitudes with resonantly driven TLS.

    Valid for an identical ensemble with the TLS driven on resonance, no
    pure dephasing, zero temperature.  Returns ``(g, Gamma)`` as explicit
    rational functions of the saturation ``s`` and of
    ``d = delta_0 / kappa1``; this path shares no code with the assembly
    pipeline and anchors its sign conventions.  A NaN or infinite argument
    raises :class:`ValueError` naming it, as in the other closed forms.
    """
    _require_finite(n_tls=n_tls, coupling=coupling, kappa1=kappa1, s=s, delta_0=delta_0)
    if kappa1 <= 0:
        raise ValueError("kappa1 must be positive")
    if s < 0:
        raise ValueError("saturation must be nonnegative")
    if s == 0.0:
        return 0.0 + 0.0j, 0.0 + 0.0j
    d = delta_0 / kappa1
    id1 = 1j * d - 1.0
    idh = 1j * d - 0.5
    f = (s + 2.0 * id1 * idh) * idh
    pref = n_tls * coupling**2 / (2.0 * kappa1) * (-s) / ((1.0 + s) ** 2 * f)
    g = pref * 1j * id1 * (1.0 + s)
    big_gamma = pref * (s**2 + 2.0 * s + 4.0 * id1**2)
    return complex(g), complex(big_gamma)


def _thermal_coherence_factor(omega_B: float, temperature: float) -> float:
    # tanh(omega_B / 2T), with the zero-temperature limit exactly 1.
    if temperature == 0.0:
        return 1.0
    return math.tanh(omega_B / (2.0 * temperature))


def low_drive_limits(
    n_tls: float,
    coupling: complex,
    kappa_t: float,
    detuning: float,
    omega_B: float = 1.0,
    temperature: float = 0.0,
) -> tuple[float, float]:
    """Weak-drive limits of the induced decay rate and frequency shift.

    ``detuning`` is the mode-TLS frequency difference.  The pair
    ``(gamma, delta)`` is a thermally weighted Lorentzian of the TLS
    absorption line; separate code path from the assembly pipeline.
    """
    _require_finite(n_tls=n_tls, coupling=coupling, kappa_t=kappa_t, detuning=detuning,
                    omega_B=omega_B, temperature=temperature)
    if kappa_t <= 0:
        raise ValueError("kappa_t must be positive")
    therm = _thermal_coherence_factor(omega_B, temperature)
    base = n_tls * abs(coupling) ** 2 / (kappa_t**2 + detuning**2) * therm
    return 2.0 * kappa_t * base, detuning * base


def mollow_sideband(drive: complex, kappa_t: float) -> float:
    """Detuning of the inelastic-emission side peaks of the driven TLS.

    Exists only when the drive beats half the coherence decay rate.
    """
    _require_finite(drive=drive, kappa_t=kappa_t)
    if kappa_t <= 0:
        raise ValueError("kappa_t must be positive")
    rabi2 = abs(drive) ** 2 - (0.5 * kappa_t) ** 2
    if rabi2 <= 0:
        raise BelowThresholdError(
            "drive below the sideband threshold |drive| > kappa_t / 2"
        )
    return math.sqrt(rabi2)


def optimal_detuning(drive: complex, kappa_t: float) -> float:
    """TLS-drive detuning maximizing the stationary dipole response.

    Returns the positive member of the symmetric pair; below the
    threshold ``|drive|^2 >= 2 kappa_t^2`` the response is single-peaked
    at zero detuning and a :class:`BelowThresholdError` is raised.
    """
    _require_finite(drive=drive, kappa_t=kappa_t)
    if kappa_t <= 0:
        raise ValueError("kappa_t must be positive")
    arg = 0.5 * abs(drive) ** 2 - kappa_t**2
    if arg < 0:
        raise BelowThresholdError(
            "drive below the double-peak threshold |drive|^2 >= 2 kappa_t^2"
        )
    return math.sqrt(arg)
