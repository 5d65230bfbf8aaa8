"""Induced master-equation rates: assembly, limits, closed forms."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_bath import bloch_state

from tlsbath.bath import (
    BathEnvironment,
    TlsParams,
    dipole_drive,
    psd,
    transverse_rate,
)
from tlsbath.rates import (
    BelowThresholdError,
    ModeParams,
    assemble_rates,
    low_drive_limits,
    mollow_sideband,
    optimal_detuning,
    resonant_closed_form,
    single_mode_rates,
)

N_TLS = 1e5
G = 1e-8
KAPPA_1 = 1e-4
KAPPA_T = 5e-5  # zero temperature, no dephasing
ENV0 = BathEnvironment(temperature=0.0)


def _drive(s):
    # resonant zero-temperature map from saturation to drive amplitude
    return float(np.sqrt(s * KAPPA_1 * KAPPA_T))


def _pipeline(Omega_B, Delta_0=0.0, Delta_B=0.0, Omega_0=0j, env=ENV0, n=N_TLS):
    mode = ModeParams(detuning=Delta_0, gamma0=1e-7, Omega=Omega_0)
    tls = TlsParams(1.0, KAPPA_1, 0.0, Omega_B, Delta_B, (G,))
    return single_mode_rates(mode, [tls], env, counts=[n])


def test_zero_drive_collapse_is_exact():
    """No TLS drive: no pair production, no squeezing, bare driving."""
    for d0 in (0.0, 1e-3, -0.05):
        r = _pipeline(0j, Delta_0=d0, Omega_0=2e-6 + 1e-6j)
        assert r.g == 0
        assert r.Gamma == 0
        assert r.Omega_prime == 2e-6 + 1e-6j
        assert r.gamma_plus == 0.0  # zero-temperature absorption channel
        assert r.gamma > 0


def test_zero_drive_decay_matches_weak_limit():
    r = _pipeline(0j, Delta_0=0.0)
    # unsaturated resonant TLS absorb mode quanta at 2 N G^2 / kappa_t
    assert r.gamma == pytest.approx(2 * N_TLS * G**2 / KAPPA_T, rel=1e-12, abs=0)


def test_effective_driving_reference_magnitude():
    # |Omega'|^2 = (NG)^2 kappa_1 / (4 kappa_t) * s/(1+s)^2 -> 1.25e-7 at s=1
    r = _pipeline(_drive(1.0))
    assert abs(r.Omega_prime) ** 2 == pytest.approx(1.25e-7, rel=1e-10, abs=0)


def test_effective_driving_keeps_bare_drive_additive():
    mode = ModeParams(detuning=0.0, gamma0=1e-7, Omega=3e-6 + 0j)
    tls = TlsParams(1.0, KAPPA_1, 0.0, _drive(1.0) + 0j, 0.0, (G,))
    out = assemble_rates([mode], [tls], ENV0, counts=[N_TLS]).Omega_prime
    out0 = assemble_rates(
        [ModeParams(detuning=0.0, gamma0=1e-7, Omega=0j)], [tls], ENV0, counts=[N_TLS]
    ).Omega_prime
    assert out[0] - out0[0] == pytest.approx(3e-6, rel=1e-12, abs=0)


def test_pipeline_matches_resonant_closed_form():
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(40):
        s = 10.0 ** rng.uniform(-3, 3)
        d0 = float(rng.uniform(-0.1, 0.1))
        r = _pipeline(_drive(s), Delta_0=d0)
        g_ref, gamma_ref = resonant_closed_form(N_TLS, G, KAPPA_1, s, d0)
        worst = max(
            worst,
            abs(r.g - g_ref) / abs(g_ref),
            abs(r.Gamma - gamma_ref) / abs(gamma_ref),
        )
    assert worst < 1e-10


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


def _complex(lo, hi):
    return st.builds(
        lambda r, phi: r * cmath.exp(1j * phi), _log_uniform(lo, hi), st.floats(0.0, 6.283)
    )


@st.composite
def _multimode(draw):
    """Modes, TLS species, counts and environment: complex drives and
    couplings, detunings, dephasing and temperature."""
    n_modes = draw(st.integers(1, 3))
    modes = [
        ModeParams(
            detuning=draw(st.floats(-1e-3, 1e-3)),
            gamma0=1e-7,
            Omega=draw(_complex(-8.0, -5.0)),
        )
        for _ in range(n_modes)
    ]
    tls_list = []
    for _ in range(draw(st.integers(1, 3))):
        kappa1 = draw(_log_uniform(-5.0, -3.0))
        tls_list.append(
            TlsParams(
                omega_B=1.0,
                kappa1=kappa1,
                kappa2=draw(st.sampled_from((0.0, 1e-5))),
                Omega_B=draw(_complex(-5.0, -3.0)),
                Delta_B=draw(st.floats(-2.0, 2.0)) * kappa1,
                couplings=tuple(draw(_complex(-9.0, -7.0)) for _ in range(n_modes)),
            )
        )
    counts = [draw(st.floats(1.0, 1e3)) for _ in tls_list]
    env = BathEnvironment(temperature=draw(st.sampled_from((0.0, 0.05, 0.5))))
    return modes, tls_list, counts, env


@given(case=_multimode())
def test_hermiticity_of_rate_matrices_random_configs(case):
    """Coefficient matrices of the dissipators and the frequency-shift
    matrix are exactly Hermitian for any parameter draw: each is a matrix
    plus its adjoint (times +-i/2 for the shift), which IEEE arithmetic
    forms entry by entry as the conjugate of the mirrored entry, so the
    diagonals are exactly real.  The library checks none of this at run
    time.  The diagonals of gamma_+- are dissipator weights, also
    nonnegative."""
    modes, tls_list, counts, env = case
    rates = assemble_rates(modes, tls_list, env, counts=counts)
    for mat in (rates.delta, rates.gamma_plus, rates.gamma_minus):
        assert np.array_equal(mat, mat.conj().T)
        assert np.all(np.diag(mat).imag == 0.0)
    for mat in (rates.gamma_plus, rates.gamma_minus):
        assert np.all(np.diag(mat).real >= -1e-12 * np.abs(mat).max())


@given(case=_multimode(), phi=st.floats(0.0, 6.283))
def test_drive_phase_covariance(case, phi):
    """Rotating every TLS drive by e^{i phi} and every mode drive by
    e^{-i phi}, with the couplings fixed, rotates Omega' by e^{-i phi} and
    g and Gamma by e^{-2i phi}, and leaves delta and gamma_+- unchanged.
    The second-order rates share one tolerance scale, since delta can
    cancel to rounding."""
    modes, tls_list, counts, env = case
    turn = cmath.exp(1j * phi)
    turned_modes = [dataclasses.replace(m, Omega=m.Omega / turn) for m in modes]
    turned_tls = [dataclasses.replace(p, Omega_B=p.Omega_B * turn) for p in tls_list]
    before = assemble_rates(modes, tls_list, env, counts=counts)
    after = assemble_rates(turned_modes, turned_tls, env, counts=counts)
    phases = {
        "Omega_prime": cmath.exp(-1j * phi),
        "g": cmath.exp(-2j * phi),
        "Gamma": cmath.exp(-2j * phi),
        "delta": 1.0,
        "gamma_plus": 1.0,
        "gamma_minus": 1.0,
    }
    second_order = max(np.abs(getattr(before, name)).max() for name in list(phases)[1:])
    for name, phase in phases.items():
        want = phase * getattr(before, name)
        scale = np.abs(want).max() if name == "Omega_prime" else second_order
        assert np.abs(getattr(after, name) - want).max() <= 1e-12 * scale, name


def test_strong_drive_suppression():
    """At saturation 1e8 the decay and shift must vanish relative to
    their weak-drive scales."""
    r = _pipeline(_drive(1e8))
    gamma_scale = 2 * N_TLS * G**2 / KAPPA_T
    delta_scale = N_TLS * G**2 / (2 * KAPPA_T)
    assert abs(r.gamma) < 1e-4 * gamma_scale
    assert abs(r.delta) < 1e-4 * delta_scale
    # pair production survives saturation
    assert abs(r.Gamma) == pytest.approx(N_TLS * G**2 / (2 * KAPPA_T), rel=1e-6, abs=0)


def test_saturated_pair_rate_with_detuning():
    # Gamma -> N G^2 / (2 (kappa_t - i Delta_0)) at strong drive
    d0 = 3.0 * KAPPA_T
    r = _pipeline(_drive(1e7), Delta_0=d0)
    want = N_TLS * G**2 / (2 * (KAPPA_T - 1j * d0))
    assert r.Gamma == pytest.approx(want, rel=1e-5, abs=0)


def test_low_drive_limits_match_pipeline():
    s = 1e-8
    for det in (0.0, 0.5 * KAPPA_T, -2.0 * KAPPA_T, 10.0 * KAPPA_T):
        r = _pipeline(_drive(s), Delta_0=det)
        gamma_ref, delta_ref = low_drive_limits(N_TLS, G, KAPPA_T, det)
        assert r.gamma == pytest.approx(gamma_ref, rel=1e-4, abs=0)
        assert r.delta == pytest.approx(delta_ref, rel=1e-4, abs=1e-20)


def test_low_drive_limits_thermal_factor():
    # finite temperature scales both rates by tanh(omega/2T)
    g_cold, d_cold = low_drive_limits(N_TLS, G, KAPPA_T, KAPPA_T)
    g_warm, d_warm = low_drive_limits(
        N_TLS, G, KAPPA_T, KAPPA_T, omega_B=1.0, temperature=0.5
    )
    factor = np.tanh(1.0 / (2 * 0.5))
    assert g_warm == pytest.approx(g_cold * factor, rel=1e-12, abs=0)
    assert d_warm == pytest.approx(d_cold * factor, rel=1e-12, abs=0)


def test_frequency_shift_quarter_of_resonant_decay():
    """One transverse linewidth of mode detuning: the shift equals a
    quarter of the resonant weak-drive decay, i.e. delta/gamma = 1/2."""
    gamma_res, _ = low_drive_limits(N_TLS, G, KAPPA_T, 0.0)
    gamma_det, delta_det = low_drive_limits(N_TLS, G, KAPPA_T, KAPPA_T)
    assert delta_det == pytest.approx(gamma_res / 4, rel=1e-12, abs=0)
    assert delta_det / gamma_det == pytest.approx(0.5, rel=1e-12, abs=0)


def _high_drive_gamma(regime, drive, delta_0):
    """Saturated-drive asymptotes of the induced decay rate at zero
    temperature, one per parameter ordering:

    - ``far_detuned``: the mode detuning dominates the drive (``|delta_0|
      >> |drive| >> kappa_t``), residual cooling ~ 1/delta_0^2.
    - ``amplifying``: the drive dominates the detuning (``|drive| >>
      |delta_0| >> kappa_t``), net amplification ~ -1/|drive|^2.
    - ``saturated_resonant``: a near-resonant saturated TLS (``|drive| >>
      kappa_t >> |delta_0|``), ~ 1/|drive|^4.
    """
    base = N_TLS * abs(G) ** 2 * KAPPA_1
    if regime == "far_detuned":
        return base / delta_0**2
    if regime == "amplifying":
        return -base / abs(drive) ** 2
    return base * 2.0 * KAPPA_1 * KAPPA_T / abs(drive) ** 4


def test_high_drive_regimes_match_pipeline():
    checks = [
        # far detuned: Delta_0 far outside the Mollow structure
        ("far_detuned", _drive(1e4), 50.0 * _drive(1e4)),
        # amplifying: detuned near the sideband, gamma < 0
        ("amplifying", 100.0 * KAPPA_T, 10.0 * KAPPA_T),
        # saturated resonant: tiny residual cooling at zero detuning
        ("saturated_resonant", _drive(1e6), 0.0),
    ]
    for regime, drive, d0 in checks:
        r = _pipeline(drive, Delta_0=d0)
        ref = _high_drive_gamma(regime, drive, d0)
        assert r.gamma == pytest.approx(ref, rel=0.2, abs=0), regime
        if regime == "amplifying":
            assert r.gamma < 0


def test_mollow_sideband_reference_value():
    # drive ten linewidths: sideband at sqrt(100 - 1/4) ~ 9.9875 kappa_t
    got = mollow_sideband(10 * KAPPA_T, KAPPA_T)
    assert got == pytest.approx(np.sqrt(99.75) * KAPPA_T, rel=1e-14, abs=0)
    assert got / KAPPA_T == pytest.approx(9.98749, rel=1e-5, abs=0)


def test_mollow_sideband_threshold():
    with pytest.raises(BelowThresholdError):
        mollow_sideband(0.4 * KAPPA_T, KAPPA_T)
    with pytest.raises(BelowThresholdError):
        mollow_sideband(0.5 * KAPPA_T, KAPPA_T)  # threshold itself has no peak
    assert mollow_sideband(0.51 * KAPPA_T, KAPPA_T) > 0


def test_optimal_detuning_reference_values():
    assert optimal_detuning(4 * KAPPA_T, KAPPA_T) == pytest.approx(
        np.sqrt(7) * KAPPA_T, rel=1e-14, abs=0
    )
    assert optimal_detuning(np.sqrt(2) * KAPPA_T, KAPPA_T) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(BelowThresholdError):
        optimal_detuning(1.2 * KAPPA_T, KAPPA_T)


def test_single_mode_rates_gamma_decomposition():
    r = _pipeline(_drive(0.5), Delta_0=2 * KAPPA_T)
    assert r.gamma == pytest.approx(r.gamma_minus - r.gamma_plus, rel=1e-14, abs=0)
    assert r.gamma_plus >= 0
    assert r.gamma_minus >= 0


def test_rates_scale_linearly_with_tls_number():
    r1 = _pipeline(_drive(2.0), Delta_0=KAPPA_T, n=1.0)
    r2 = _pipeline(_drive(2.0), Delta_0=KAPPA_T, n=250.0)
    assert r2.g == pytest.approx(250 * r1.g, rel=1e-12, abs=0)
    assert r2.Gamma == pytest.approx(250 * r1.Gamma, rel=1e-12, abs=0)
    assert r2.gamma == pytest.approx(250 * r1.gamma, rel=1e-12, abs=0)
    # the drive term is linear too (no bare mode drive here)
    assert r2.Omega_prime == pytest.approx(250 * r1.Omega_prime, rel=1e-12, abs=0)


@given(case=_multimode(), scale=_log_uniform(-3.0, 3.0))
def test_rates_are_linear_in_tls_counts(case, scale):
    """Scaling every TLS count by lambda scales the TLS part of each rate
    by lambda: delta, gamma_+-, g, Gamma and the drive correction Omega'
    - Omega, to 1e-12 of the largest rate of their order."""
    modes, tls_list, counts, env = case
    before = assemble_rates(modes, tls_list, env, counts=counts)
    after = assemble_rates(modes, tls_list, env, counts=[scale * n for n in counts])
    bare = np.array([m.Omega for m in modes])
    drive_scale = max(np.abs(after.Omega_prime).max(), scale * np.abs(before.Omega_prime).max())
    got, want = after.Omega_prime - bare, scale * (before.Omega_prime - bare)
    assert np.abs(got - want).max() <= 1e-12 * drive_scale
    names = ("delta", "gamma_plus", "gamma_minus", "g", "Gamma")
    second_order = scale * max(np.abs(getattr(before, name)).max() for name in names)
    for name in names:
        want = scale * getattr(before, name)
        assert np.abs(getattr(after, name) - want).max() <= 1e-12 * second_order, name


def test_fractional_tls_number_is_not_truncated():
    r1 = _pipeline(_drive(2.0), Delta_0=KAPPA_T, n=1.0)
    r15 = _pipeline(_drive(2.0), Delta_0=KAPPA_T, n=1.5)
    for name in ("Omega_prime", "delta", "g", "gamma_plus", "gamma_minus", "Gamma"):
        assert getattr(r15, name) == pytest.approx(1.5 * getattr(r1, name), rel=1e-14, abs=0)


@pytest.mark.parametrize("counts", [[0.0], [-1.0], [1.0, 1.0], []])
def test_bad_tls_counts_raise(counts):
    mode = ModeParams(detuning=0.0, gamma0=1e-7)
    tls = TlsParams(1.0, KAPPA_1, 0.0, _drive(2.0), 0.0, (G,))
    with pytest.raises(ValueError):
        single_mode_rates(mode, [tls], ENV0, counts=counts)


@pytest.mark.parametrize("couplings", [(G,), (G, G, G)])
def test_one_coupling_per_mode_is_required(couplings):
    modes = [
        ModeParams(detuning=0.0, gamma0=1e-7),
        ModeParams(detuning=1e-5, gamma0=1e-7),
    ]
    tls = TlsParams(1.0, KAPPA_1, 0.0, _drive(2.0), 0.0, couplings)
    with pytest.raises(ValueError):
        dipole_drive([tls], ENV0, len(modes))
    with pytest.raises(ValueError):
        assemble_rates(modes, [tls], ENV0)


def test_two_mode_rates_match_entrywise_formulas():
    """Each off-diagonal entry follows the per-entry contraction of the
    spectral densities; a transposed index would fail here even though
    it keeps delta and the incoherent rates Hermitian."""
    modes = [
        ModeParams(detuning=3e-5, gamma0=1e-7, Omega=1e-6),
        ModeParams(detuning=-7e-5, gamma0=1e-7, Omega=-2e-6j),
    ]
    tls_list = [
        TlsParams(1.0, 1e-4, 0.0, 4e-5 + 3e-5j, 1e-5, (1e-8 + 4e-9j, 3e-9 - 2e-8j)),
        TlsParams(1.0, 3e-4, 2e-5, 1e-4, -4e-5, (2e-8j, 1.5e-8 + 5e-9j)),
    ]
    counts = [200.0, 50.0]
    env = BathEnvironment(temperature=0.2)
    rates = assemble_rates(modes, tls_list, env, counts=counts)
    det = np.array(rates.detunings)

    def gam(alpha, beta, m, n):
        return psd(tls_list, env, det, alpha, beta, m, n, counts=counts)

    for m, n in ((0, 1), (1, 0)):
        want = {
            "delta": -0.5j * (gam(+1, -1, m, n) + gam(-1, +1, m, n))
            + 0.5j * np.conj(gam(+1, -1, n, m) + gam(-1, +1, n, m)),
            "g": -0.5j * (gam(+1, +1, m, n) - np.conj(gam(-1, -1, n, m))),
            "gamma_plus": gam(+1, -1, m, n) + np.conj(gam(+1, -1, n, m)),
            "gamma_minus": gam(-1, +1, m, n) + np.conj(gam(-1, +1, n, m)),
            "Gamma": gam(+1, +1, m, n) + np.conj(gam(-1, -1, n, m)),
        }
        for name, value in want.items():
            got = getattr(rates, name)[m, n]
            assert got == pytest.approx(value, rel=1e-12, abs=1e-30), (name, m, n)
        assert rates.g[m, n] != pytest.approx(rates.g[n, m], rel=1e-6, abs=0)
    for n, mode in enumerate(modes):
        dipoles = sum(
            c * p.couplings[n] * bloch_state(p, env)[0]
            for p, c in zip(tls_list, counts)
        )
        assert rates.Omega_prime[n] == pytest.approx(mode.Omega + dipoles, rel=1e-12, abs=0)


def test_detuning_frame_consistency():
    """Shifting drive and TLS frequencies together must leave the rates
    invariant (only detunings matter)."""
    r_a = _pipeline(_drive(1.0), Delta_0=KAPPA_T, Delta_B=0.0)
    mode = ModeParams(detuning=KAPPA_T, gamma0=1e-7, Omega=0j)
    tls = TlsParams(1.0, KAPPA_1, 0.0, _drive(1.0) + 0j, 2e-5, (G,))
    r_b = single_mode_rates(mode, [tls], ENV0, counts=[N_TLS])
    # same mode-drive detuning but different TLS detuning: rates differ
    assert abs(r_b.Gamma - r_a.Gamma) > 0
    # restoring Delta_B = 0 in the shifted frame recovers everything
    tls_same = TlsParams(1.0 - 2e-5, KAPPA_1, 0.0, _drive(1.0) + 0j, 0.0, (G,))
    r_c = single_mode_rates(mode, [tls_same], ENV0, counts=[N_TLS])
    assert r_c.g == pytest.approx(r_a.g, rel=1e-12, abs=0)
    assert r_c.Gamma == pytest.approx(r_a.Gamma, rel=1e-12, abs=0)
    assert r_c.delta == pytest.approx(r_a.delta, rel=1e-12, abs=0)


_CLOSED_FORMS = {
    "mollow_sideband": (mollow_sideband, {"drive": 10 * KAPPA_T, "kappa_t": KAPPA_T}),
    "optimal_detuning": (optimal_detuning, {"drive": 4 * KAPPA_T, "kappa_t": KAPPA_T}),
    "low_drive_limits": (low_drive_limits, {
        "n_tls": N_TLS, "coupling": G, "kappa_t": KAPPA_T, "detuning": KAPPA_T,
        "omega_B": 1.0, "temperature": 0.1}),
    "resonant_closed_form": (resonant_closed_form, {
        "n_tls": N_TLS, "coupling": G, "kappa1": KAPPA_1, "s": 1.0, "delta_0": 0.0}),
}


@pytest.mark.parametrize(
    "form, argument, bad",
    [
        (form, name, bad)
        for form, (_, kwargs) in _CLOSED_FORMS.items()
        for name, bad in zip(kwargs, [math.nan, math.inf, -math.inf] * 3)
    ],
)
def test_closed_forms_refuse_non_finite_arguments(form, argument, bad):
    """Each argument of each closed form, NaN or infinite, raises a
    ValueError that names it, where the formula gave NaN or inf."""
    fn, kwargs = _CLOSED_FORMS[form]
    fn(**kwargs)  # the finite point is accepted
    with pytest.raises(ValueError, match=f"{argument} must be finite"):
        fn(**{**kwargs, argument: bad})
