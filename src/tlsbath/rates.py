"""Effective master-equation rates induced on the modes by the TLS bath.

Adiabatic elimination of the driven TLS leaves each bosonic mode with a
coherent drive correction plus five families of second-order rates built
from the bath spectral densities: a frequency shift, a coherent
pair-creation (squeezing) amplitude, upward/downward incoherent rates, and
a dissipative pair amplitude.  This module assembles those rates for an
arbitrary set of modes, specializes them to one mode, and provides the
closed-form limiting expressions that serve as independent cross-checks
(they never call the assembly pipeline).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import (
    BathEnvironment,
    TlsParams,
    bloch_steady_state,
    build_psd_table,
    _grouped,
)

__all__ = [
    "ModeParams",
    "MasterEqRates",
    "SingleModeRates",
    "BelowThresholdError",
    "HermiticityError",
    "effective_driving",
    "assemble_rates",
    "single_mode_rates",
    "resonant_closed_form",
    "low_drive_limits",
    "high_drive_gamma_limits",
    "mollow_sideband",
    "optimal_detuning",
]

# Tolerances for structural checks on assembled rate matrices.
HERMITICITY_RTOL = 1e-10
IMAG_RESIDUE_ATOL = 1e-12

HIGH_DRIVE_REGIMES = ("far_detuned", "amplifying", "saturated_resonant")


class BelowThresholdError(ValueError):
    """Drive too weak for the requested spectral feature to exist."""


class HermiticityError(ArithmeticError):
    """Assembled rate matrix lost Hermiticity beyond tolerance."""


@dataclass(frozen=True)
class ModeParams:
    """One bosonic mode: frequency, intrinsic linewidth, direct drive."""

    omega: float
    gamma0: float
    Omega: complex = 0.0

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError("mode frequency must be positive")
        if self.gamma0 < 0:
            raise ValueError("intrinsic mode linewidth must be nonnegative")
        object.__setattr__(self, "Omega", complex(self.Omega))


@dataclass(frozen=True, eq=False)
class MasterEqRates:
    """Full rate set for a multimode system.

    Matrix entries are indexed ``[m, n]`` over modes; ``delta`` and the
    incoherent rate matrices are Hermitian, ``Omega_prime`` holds the
    TLS-corrected coherent drives, ``detunings`` the mode detunings from
    the drive frequency.
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
    """Rates of the single-mode master equation (all per unit time)."""

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


def effective_driving(
    modes, tls_list, env: BathEnvironment, counts=None
) -> np.ndarray:
    """Coherent drive on each mode including the stationary TLS dipoles.

    Each TLS contributes its stationary raising amplitude weighted by its
    coupling; without TLS drive the bare mode drives are returned
    unchanged.
    """
    out = np.array([complex(m.Omega) for m in modes], dtype=complex)
    for p, weight in _grouped(tls_list, counts, len(out)):
        sp = bloch_steady_state(p, env).sigma_plus
        out += [weight * g * sp for g in p.couplings]
    return out


def _check_hermitian(mat: np.ndarray, name: str) -> None:
    scale = max(np.abs(mat).max(), np.finfo(float).tiny)
    dev = np.abs(mat - mat.conj().T).max()
    if dev > HERMITICITY_RTOL * scale:
        raise HermiticityError(
            f"{name} deviates from Hermiticity by {dev:.3e} "
            f"(scale {scale:.3e})"
        )


def assemble_rates(
    modes,
    tls_list,
    env: BathEnvironment,
    omega_d: float,
    counts=None,
) -> MasterEqRates:
    """Assemble all second-order rates from the bath spectral densities.

    The spectral-density table is contracted into the rate matrices; the
    Hermiticity of the frequency-shift and incoherent-rate matrices is a
    structural consequence of the contraction and is asserted, not
    enforced: a violation raises :class:`HermiticityError`.
    """
    if omega_d <= 0:
        raise ValueError("drive frequency must be positive")
    modes = list(modes)
    detunings = tuple(m.omega - omega_d for m in modes)
    # pm is the (alpha, beta) = (+1, -1) block, and so on (see bath.SIGNS)
    (pp, pm), (mp, mm) = build_psd_table(tls_list, env, detunings, counts=counts)

    shift = pm + mp
    delta = -0.5j * shift + 0.5j * shift.conj().T
    g = -0.5j * (pp - mm.conj().T)
    gamma_plus = pm + pm.conj().T
    gamma_minus = mp + mp.conj().T
    big_gamma = pp + mm.conj().T

    _check_hermitian(delta, "frequency-shift matrix")
    _check_hermitian(gamma_plus, "upward-rate matrix")
    _check_hermitian(gamma_minus, "downward-rate matrix")

    return MasterEqRates(
        detunings=detunings,
        Omega_prime=effective_driving(modes, tls_list, env, counts=counts),
        delta=delta,
        g=g,
        gamma_plus=gamma_plus,
        gamma_minus=gamma_minus,
        Gamma=big_gamma,
    )


def _real_part(value: complex, name: str) -> float:
    if abs(value.imag) > IMAG_RESIDUE_ATOL:
        raise HermiticityError(
            f"{name} carries imaginary residue {value.imag:.3e}"
        )
    return float(value.real)


def single_mode_rates(
    mode: ModeParams,
    tls_list,
    env: BathEnvironment,
    omega_d: float,
    counts=None,
) -> SingleModeRates:
    """Scalar rate set for a single mode.

    Diagonal entries of the Hermitian matrices are real by construction;
    an imaginary residue above 1e-12 signals an assembly bug and raises.
    The incoherent rates must come out nonnegative (they are diagonal
    dissipator weights).
    """
    rates = assemble_rates([mode], tls_list, env, omega_d, counts=counts)
    gp = _real_part(complex(rates.gamma_plus[0, 0]), "upward rate")
    gm = _real_part(complex(rates.gamma_minus[0, 0]), "downward rate")
    tol = 1e-12 * max(abs(gp), abs(gm), 1e-30)
    if gp < -tol or gm < -tol:
        raise ArithmeticError(
            f"negative incoherent rate: gamma_plus={gp:.3e}, "
            f"gamma_minus={gm:.3e}"
        )
    return SingleModeRates(
        detuning=rates.detunings[0],
        Omega_prime=complex(rates.Omega_prime[0]),
        delta=_real_part(complex(rates.delta[0, 0]), "frequency shift"),
        g=complex(rates.g[0, 0]),
        gamma_plus=max(gp, 0.0),
        gamma_minus=max(gm, 0.0),
        Gamma=complex(rates.Gamma[0, 0]),
    )


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
    pipeline and anchors its sign conventions.
    """
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
    if kappa_t <= 0:
        raise ValueError("kappa_t must be positive")
    therm = _thermal_coherence_factor(omega_B, temperature)
    base = n_tls * abs(coupling) ** 2 / (kappa_t**2 + detuning**2) * therm
    return 2.0 * kappa_t * base, detuning * base


def high_drive_gamma_limits(
    n_tls: float,
    coupling: complex,
    kappa1: float,
    kappa_t: float,
    delta_0: float,
    drive: complex,
    regime: str,
    omega_B: float = 1.0,
    temperature: float = 0.0,
) -> float:
    """Saturated-drive asymptotes of the induced decay rate.

    Three parameter orderings have distinct leading behavior:

    - ``far_detuned``: mode detuning dominates the drive
      (``|delta_0| >> |drive| >> kappa_t``), residual cooling ~ 1/delta_0^2.
    - ``amplifying``: drive dominates the detuning
      (``|drive| >> |delta_0| >> kappa_t``), net amplification ~ -1/|drive|^2.
    - ``saturated_resonant``: near-resonant saturated TLS
      (``|drive| >> kappa_t >> |delta_0|``), thermally weighted ~ 1/|drive|^4.
    """
    if regime not in HIGH_DRIVE_REGIMES:
        raise ValueError(f"regime must be one of {HIGH_DRIVE_REGIMES}")
    base = n_tls * abs(coupling) ** 2 * kappa1
    if regime == "far_detuned":
        if delta_0 == 0:
            raise ValueError("far_detuned regime needs a nonzero detuning")
        return base / delta_0**2
    if regime == "amplifying":
        if drive == 0:
            raise BelowThresholdError("amplifying regime needs a drive")
        return -base / abs(drive) ** 2
    if drive == 0:
        raise BelowThresholdError("saturated regime needs a drive")
    if temperature == 0.0:
        coth = 1.0
    else:
        coth = 1.0 / math.tanh(omega_B / (2.0 * temperature))
    return base * 2.0 * kappa1 * kappa_t / abs(drive) ** 4 * coth


def mollow_sideband(drive: complex, kappa_t: float) -> float:
    """Detuning of the inelastic-emission side peaks of the driven TLS.

    Exists only when the drive beats half the coherence decay rate.
    """
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
    if kappa_t <= 0:
        raise ValueError("kappa_t must be positive")
    arg = 0.5 * abs(drive) ** 2 - kappa_t**2
    if arg < 0:
        raise BelowThresholdError(
            "drive below the double-peak threshold |drive|^2 >= 2 kappa_t^2"
        )
    return math.sqrt(arg)
