"""Driven, lossy two-level systems acting as a structured bath.

Each TLS is driven coherently near its transition and damped by its own
electromagnetic environment.  In the frame rotating at the drive frequency
its Bloch vector relaxes to a stationary point, and the two-time
fluctuations around that point are what the bosonic modes feel.  This
module provides the stationary Bloch state, the drift matrix of the
fluctuations, their equal-time correlators, and the one-sided spectral
densities obtained by resolvent integration of the regression dynamics.

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

from .linalg import solve_linear

__all__ = [
    "TlsParams",
    "BathEnvironment",
    "BlochSteadyState",
    "bose_occupation",
    "transverse_rate",
    "saturation",
    "bloch_steady_state",
    "bloch_matrix",
    "same_time_correlators",
    "correlator_integral",
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
    """Shared thermal environment of the TLS and the modes."""

    temperature: float = 0.0

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be nonnegative")


@dataclass(frozen=True)
class BlochSteadyState:
    """Stationary Bloch vector of a single driven TLS."""

    sigma_plus: complex
    sigma_z: float
    saturation: float
    kappa_t: float

    @property
    def sigma_minus(self) -> complex:
        return np.conj(self.sigma_plus)


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
    return 1.0 / math.expm1(omega / temperature)


def transverse_rate(p: TlsParams, env: BathEnvironment) -> float:
    """Decay rate of the TLS coherences (transverse Bloch components).

    Combines thermally enhanced relaxation with pure dephasing:
    ``kappa1/2 * (1 + 2 nbar) + 2 kappa2``.
    """
    nbar = bose_occupation(p.omega_B, env.temperature)
    return 0.5 * p.kappa1 * (1.0 + 2.0 * nbar) + 2.0 * p.kappa2


def saturation(p: TlsParams, env: BathEnvironment) -> float:
    """Dimensionless saturation parameter of the driven transition.

    Zero without drive, unity at the knee where the drive starts to bleach
    the TLS response, large when the transition is fully saturated.
    """
    kt = transverse_rate(p, env)
    return (kt / p.kappa1) * abs(p.Omega_B) ** 2 / (kt**2 + p.Delta_B**2)


def bloch_steady_state(p: TlsParams, env: BathEnvironment) -> BlochSteadyState:
    """Stationary point of the driven, damped Bloch equations."""
    kt = transverse_rate(p, env)
    s = saturation(p, env)
    nbar = bose_occupation(p.omega_B, env.temperature)
    denom = 1.0 + 2.0 * nbar + s
    sigma_plus = -np.conj(p.Omega_B) / (2.0 * (p.Delta_B + 1j * kt)) / denom
    sigma_z = -1.0 / denom
    return BlochSteadyState(
        sigma_plus=complex(sigma_plus),
        sigma_z=float(sigma_z),
        saturation=s,
        kappa_t=kt,
    )


def bloch_matrix(p: TlsParams, env: BathEnvironment) -> np.ndarray:
    """Drift matrix of the centered Bloch fluctuations.

    Acts on the fluctuation vector (raising, lowering, inversion); its
    spectrum lies strictly in the left half plane for any kappa1 > 0, so
    the regression integrals below always converge.
    """
    kt = transverse_rate(p, env)
    nbar = bose_occupation(p.omega_B, env.temperature)
    ob = complex(p.Omega_B)
    return np.array(
        [
            [1j * p.Delta_B - kt, 0.0, -0.5j * np.conj(ob)],
            [0.0, -1j * p.Delta_B - kt, 0.5j * ob],
            [-1j * ob, 1j * np.conj(ob), -p.kappa1 * (1.0 + 2.0 * nbar)],
        ],
        dtype=complex,
    )


def same_time_correlators(state: BlochSteadyState, beta: int) -> np.ndarray:
    """Equal-time correlators of the centered Bloch operators.

    Returns the vector ``<sigma~_vec sigma~_beta>`` in the row order
    (raising, lowering, inversion), where ``beta`` is +1 for the raising
    and -1 for the lowering fluctuation on the right.  Obtained from the
    Pauli algebra with the stationary single-operator averages subtracted.
    """
    if beta not in (+1, -1):
        raise ValueError("beta must be +1 or -1")
    sp = state.sigma_plus
    sm = np.conj(sp)
    sz = state.sigma_z
    if beta == -1:
        return np.array(
            [
                0.5 * (1.0 + sz) - sp * sm,  # <sigma+~ sigma-~>
                -(sm**2),                    # <sigma-~ sigma-~>
                -sm * (1.0 + sz),            # <sigmaz~ sigma-~>
            ],
            dtype=complex,
        )
    return np.array(
        [
            -(sp**2),                        # <sigma+~ sigma+~>
            0.5 * (1.0 - sz) - sp * sm,      # <sigma-~ sigma+~>
            sp * (1.0 - sz),                 # <sigmaz~ sigma+~>
        ],
        dtype=complex,
    )


def correlator_integral(
    p: TlsParams, env: BathEnvironment, beta: int, delta_m: float
) -> np.ndarray:
    """Half-line Laplace transform of the Bloch fluctuation correlators.

    Computes ``integral_0^inf dtau <sigma~_vec(tau) sigma~_beta(0)>
    exp(beta * i * delta_m * tau)`` by resolvent inversion of the
    regression dynamics: the result is
    ``-(A + beta * i * delta_m)^-1 @ <sigma~_vec sigma~_beta>``.
    """
    if beta not in (+1, -1):
        raise ValueError("beta must be +1 or -1")
    a = bloch_matrix(p, env)
    c0 = same_time_correlators(bloch_steady_state(p, env), beta)
    shifted = a + beta * 1j * delta_m * np.eye(3)
    return -solve_linear(shifted, c0)


def _grouped(tls_list, counts, n_modes: int):
    """Collapse identical TLS into ``(params, weight)`` pairs.

    ``counts`` holds one positive real weight per entry of ``tls_list``
    (``None`` means 1 each); the rates are linear in it, so a fractional N
    is honoured, not truncated.  An N-fold ensemble then costs a single
    resolvent solve per exponent sign and mode.  Every TLS must carry
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
    """One spectral-density component of the TLS dipole fluctuations.

    ``Gamma_alphabeta^mn = sum_i G_in^(alpha) G_im^(beta) * I_alpha`` where
    ``I`` is :func:`correlator_integral` of TLS ``i`` evaluated with
    exponent sign ``beta`` at the detuning of mode ``m``, and the coupling
    factors conjugate with negative alpha/beta.  Independent TLS do not mix,
    so the sum runs over the bath with one term per TLS.  This is one entry
    of :func:`build_psd_table`.
    """
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
    ``(2, 2, M, M)`` laid out as described in the module docstring.  For
    each TLS group only 2 * M linear solves are needed (one per exponent
    sign and mode detuning), from which every entry follows.
    """
    detunings = np.atleast_1d(np.asarray(detunings, dtype=float))
    n_modes = len(detunings)
    table = np.zeros((2, 2, n_modes, n_modes), dtype=complex)
    for p, weight in _grouped(tls_list, counts, n_modes):
        # couplings [a, n]: G for sign +1, conj(G) for sign -1
        cpl = np.array([p.couplings, [g.conjugate() for g in p.couplings]])
        # resolvent integrals [b, m, row], kept as [a, b, m] over the
        # raising and lowering rows
        integ = np.array(
            [[correlator_integral(p, env, beta, d) for d in detunings] for beta in SIGNS]
        ).transpose(2, 0, 1)[:2]
        # product order ((N G_n) G_m) I, as in the bath sum written out
        table += (
            (weight * cpl[:, None, None, :]) * cpl[None, :, :, None]
        ) * integ[..., None]
    return table
