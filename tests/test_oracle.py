"""Exact small-dimension reference dynamics and its cross-checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tlsbath.oracle as oracle
from tlsbath.bath import (
    SIGNS,
    BathEnvironment,
    TlsParams,
    bloch_steady_state,
    correlator_integral,
    transverse_rate,
)
from tlsbath.config import resolve
from tlsbath.dynamics import build_moment_system, coherence_g1, steady_state
from tlsbath.linalg import expm_apply, null_vector
from tlsbath.oracle import (
    DimensionCapError,
    HilbertSpec,
    bloch_correlator_numeric,
    build_liouvillian,
    expectation,
    mode_moments,
    mode_operator,
    steady_state_autogrow,
    steady_state_full,
)
from tlsbath.rates import ModeParams, single_mode_rates
from tlsbath.sweeps import oracle_point

ENV0 = BathEnvironment(temperature=0.0)
KAPPA_1 = 1e-4
KAPPA_T = 5e-5  # T=0, kappa_2=0


def coherence_g1_numeric(liou, rho_ss, spec, tau_grid):
    """Normalized lagged amplitude correlator from the full Liouvillian.

    Quantum regression with the stationary state seeded from the right:
    ``<s+(0) s(tau)> = tr[s exp(L tau)(rho_ss s+)]``, normalized by the
    stationary occupation.
    """
    s = mode_operator(spec)
    occ = expectation(rho_ss, s.conj().T @ s).real
    if occ <= 0:
        raise ValueError("coherence undefined for an unoccupied mode")
    seed = (rho_ss @ s.conj().T).reshape(-1)
    trace_row = s.T.reshape(-1)
    out = np.empty(len(tau_grid), dtype=complex)
    for k, tau in enumerate(tau_grid):
        out[k] = trace_row @ expm_apply(liou, seed, float(tau))
    return out / occ


def _tls(Omega_B, G, Delta_B=0.0, kappa2=0.0):
    return TlsParams(1.0, KAPPA_1, kappa2, Omega_B, Delta_B, (G,))


def _drive(s):
    return float(np.sqrt(s * KAPPA_1 * KAPPA_T))


def _small_spec(fock=6, G=5e-7, s=1.0, gamma0=3e-6, Omega_0=0j, **kw):
    mode = ModeParams(detuning=0.0, gamma0=gamma0, Omega=Omega_0)
    return HilbertSpec(
        fock_dim=fock,
        mode=mode,
        tls=(_tls(_drive(s), G),),
        env=ENV0,
        **kw,
    )


def test_spec_validation():
    mode = ModeParams(detuning=0.0, gamma0=1e-6, Omega=0j)
    tls = (_tls(1e-5, 1e-7),)
    with pytest.raises(ValueError):
        HilbertSpec(fock_dim=1, mode=mode, tls=tls, env=ENV0)
    with pytest.raises(ValueError):
        HilbertSpec(fock_dim=4, mode=mode, tls=(), env=ENV0)
    with pytest.raises(ValueError):
        HilbertSpec(fock_dim=4, mode=mode, tls=tls * 4, env=ENV0)
    with pytest.raises(DimensionCapError):
        HilbertSpec(fock_dim=40, mode=mode, tls=tls, env=ENV0)


def test_mode_operator_commutator():
    spec = _small_spec(fock=5)
    s = mode_operator(spec)
    comm = s @ s.conj().T - s.conj().T @ s
    # the truncation corrupts only the top Fock level
    want = np.eye(spec.dim, dtype=complex)
    top = np.arange(spec.dim) // 2**spec.n_tls == spec.fock_dim - 1
    want[top, top] = 1 - spec.fock_dim
    assert np.allclose(comm, want, atol=1e-13)


def test_liouvillian_annihilates_trace():
    spec = _small_spec(fock=4, s=2.0, G=1e-6)
    liou = build_liouvillian(spec)
    trace_row = np.eye(spec.dim, dtype=complex).reshape(-1)
    residual = np.abs(trace_row @ liou).max()
    assert residual < 1e-14 * np.abs(liou).max()


def test_steady_state_full_is_stationary_and_physical():
    spec = _small_spec(fock=6, s=1.0)
    liou = build_liouvillian(spec)
    rho = steady_state_full(liou)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-10
    flow = np.abs(liou @ rho.reshape(-1)).max()
    assert flow < 1e-12 * np.abs(liou).max()


@pytest.mark.parametrize(
    "raw",
    [
        [[0.5, 0.1], [0.3, 0.5]],  # unit trace, not Hermitian
        [[0.6, 0.0], [0.0, 0.6]],  # Hermitian, trace 1.2
    ],
    ids=["non-hermitian", "non-unit-trace"],
)
def test_steady_state_full_checks_the_raw_kernel_vector(monkeypatch, raw):
    """Hermitizing or renormalizing first would hide both defects."""
    vec = np.array(raw, dtype=complex).reshape(-1)
    monkeypatch.setattr(oracle, "trace_null_vector", lambda liou: vec)
    with pytest.raises(ArithmeticError):
        steady_state_full(np.zeros((4, 4), dtype=complex))


def _complex(scale):
    return st.builds(
        lambda r, phi: r * np.exp(1j * phi),
        st.floats(0.0, scale),
        st.floats(-np.pi, np.pi),
    )


@st.composite
def _random_specs(draw):
    """Thermal, dephased, complex-driven specs with rates within two decades
    of kappa_1.  The side stays <= 256 so the dense SVD reference is cheap:
    Fock 2-8 for one TLS, 2-4 for two, 2 for three."""
    n = draw(st.integers(1, 3))
    tls = tuple(
        TlsParams(
            1.0,
            KAPPA_1,
            draw(st.floats(0.05, 1.0)) * KAPPA_1,
            draw(_complex(2 * KAPPA_1)),
            draw(st.floats(-1.0, 1.0)) * KAPPA_1,
            (draw(_complex(KAPPA_1)),),
        )
        for _ in range(n)
    )
    mode = ModeParams(
        detuning=draw(st.floats(-1.0, 1.0)) * KAPPA_1,
        gamma0=draw(st.floats(0.03, 1.0)) * KAPPA_1,
        Omega=draw(_complex(KAPPA_1)),
    )
    return HilbertSpec(
        fock_dim=draw(st.integers(2, 16 // 2**n)),
        mode=mode,
        tls=tls,
        env=BathEnvironment(temperature=draw(st.floats(0.05, 0.5))),
    )


@settings(max_examples=40)
@given(spec=_random_specs())
def test_sparse_kernel_matches_dense_svd(spec):
    liou = build_liouvillian(spec)
    rho = steady_state_full(liou)
    want = null_vector(liou.toarray()).reshape(spec.dim, spec.dim)
    want = want / np.trace(want)
    want = 0.5 * (want + want.conj().T)
    assert np.abs(rho - want).max() < 1e-12


def test_linear_in_n_against_exact_solver():
    """The effective model scales the rates by N; the exact solver with N
    independent TLS agrees within criterion 10's 5 % gate at ratio 0.01."""
    drive = KAPPA_1 / np.sqrt(2.0)  # saturation parameter 1 on resonance
    base = resolve({"oracle": {"dim_cap": "64"}}).replace(
        Omega_B=complex(drive),
        Delta_B=0.0,
        Delta_0=0.0,
        kappa_1=KAPPA_1,
        kappa_2=0.0,
        temperature=0.0,
    )
    for n in (1, 2, 3):
        row = oracle_point(base.replace(n_tls=float(n)), 0.01)
        assert row[1] == 8  # every N fits the cap at Fock 8
        assert max(row[4], row[9], row[14]) < 0.05


def test_decoupled_state_factorizes():
    """At zero coupling the stationary state is (driven TLS) x (vacuum)."""
    spec = _small_spec(fock=4, G=0.0, s=1.5)
    rho = steady_state_full(build_liouvillian(spec))

    occ, amp, pair = mode_moments(rho, spec)
    assert abs(occ) < 1e-12
    assert abs(amp) < 1e-12
    assert abs(pair) < 1e-12

    # partial trace over the mode of the (mode x one TLS) state
    marg = np.einsum("iaib->ab", rho.reshape(spec.fock_dim, 2, spec.fock_dim, 2))
    ref = bloch_steady_state(spec.tls[0], ENV0)
    assert marg[0, 1] == pytest.approx(ref.sigma_plus, abs=1e-10)
    got_sz = (marg[1, 1] - marg[0, 0]).real
    assert got_sz == pytest.approx(ref.sigma_z, abs=1e-10)


def test_evolve_preserves_trace_and_relaxes():
    spec = _small_spec(fock=4, s=1.0, G=1e-6)
    liou = build_liouvillian(spec)
    rho_ss = steady_state_full(liou)
    rho0 = np.zeros((spec.dim, spec.dim), dtype=complex)
    rho0[3, 3] = 1.0  # excited product basis state
    vec0 = rho0.reshape(-1)
    rho_t = expm_apply(liou, vec0, 0.5 / KAPPA_T).reshape(rho0.shape)
    assert np.trace(rho_t).real == pytest.approx(1.0, abs=1e-10)
    rho_late = expm_apply(liou, vec0, 400.0 / KAPPA_T).reshape(rho0.shape)
    assert np.abs(rho_late - rho_ss).max() < 1e-6


def test_autogrow_expands_until_clean():
    mode = ModeParams(detuning=0.0, gamma0=3e-6, Omega=1.8e-6 + 0j)
    tls = (_tls(0.0, 0.0),)
    rho, spec = steady_state_autogrow(mode, tls, ENV0, fock_start=4)
    assert spec.fock_dim >= 16
    occ, amp, _ = mode_moments(rho, spec)
    # decoupled coherently driven mode: displaced vacuum
    alpha = -1j * np.conj(mode.Omega) / (mode.gamma0 / 2)
    assert amp == pytest.approx(alpha, rel=1e-6, abs=0)
    assert occ == pytest.approx(abs(alpha) ** 2, rel=1e-6, abs=0)


def test_autogrow_respects_dimension_cap():
    mode = ModeParams(detuning=0.0, gamma0=3e-6, Omega=1.8e-6 + 0j)
    tls = (_tls(0.0, 0.0),)
    # the leak that called for the forbidden doubling is named
    with pytest.raises(DimensionCapError, match=r"population \S+ at fock_dim 8"):
        steady_state_autogrow(mode, tls, ENV0, fock_start=4, dim_cap=16)


def test_bloch_correlator_matches_resolvent():
    """Brute-force Laplace transform vs direct resolvent inversion."""
    p = _tls(8e-5, 0.0, Delta_B=3e-5, kappa2=2e-5)
    env = BathEnvironment(temperature=0.3)
    row = {+1: 0, -1: 1}
    for beta in (+1, -1):
        for delta_m in (-2e-5, 4e-5):
            ref = correlator_integral(p, env, delta_m)[SIGNS.index(beta)]
            for alpha in (+1, -1):
                got = bloch_correlator_numeric(p, env, alpha, beta, delta_m)
                want = ref[row[alpha]]
                assert got == pytest.approx(want, rel=1e-7, abs=1e-16)


@pytest.mark.parametrize("delta_m", [0.0, 3e-5])
def test_bloch_correlator_at_mollow_exceptional_point(delta_m):
    """At |Omega_B| = kappa1 / 4, resonant, T = 0 and kappa2 = 0 two
    eigenvalues of the TLS Liouvillian coalesce, so a recipe that
    diagonalizes it loses digits there (cond(V) ~ 1e8).  The augmented
    matrix exponential inverts no eigenvector matrix and must still meet
    the closed-form resolvent."""
    p = _tls(KAPPA_1 / 4, 0.0)
    row = {+1: 0, -1: 1}
    for beta in (+1, -1):
        ref = correlator_integral(p, ENV0, delta_m)[SIGNS.index(beta)]
        for alpha in (+1, -1):
            got = bloch_correlator_numeric(p, ENV0, alpha, beta, delta_m)
            assert got == pytest.approx(complex(ref[row[alpha]]), rel=1e-10, abs=0)


def test_bloch_correlator_when_inversion_decays_slowest():
    """With kappa2 >> kappa1 the inversion, at rate kappa1, outlives the
    coherences, at kappa_t ~ 2 kappa2: a horizon of 40 / kappa_t would
    leave exp(-2) of the longitudinal tail."""
    p = TlsParams(1.0, 1e-5, 1e-4, 3e-5 * np.exp(0.7j), 2e-5, (1e-8,))
    row = {+1: 0, -1: 1}
    for beta in (+1, -1):
        for delta_m in (0.0, 1e-5):
            ref = correlator_integral(p, ENV0, delta_m)[SIGNS.index(beta)]
            for alpha in (+1, -1):
                got = bloch_correlator_numeric(p, ENV0, alpha, beta, delta_m)
                assert got == pytest.approx(complex(ref[row[alpha]]), rel=1e-10, abs=0)


@st.composite
def _criterion_11_points(draw):
    """TLS and detuning drawn as acceptance criterion 11 draws them."""
    kappa1 = 10.0 ** draw(st.floats(-5.0, -3.0))
    p = TlsParams(
        1.0,
        kappa1,
        draw(st.sampled_from([0.0, 10.0 ** draw(st.floats(-6.0, -4.0))])),
        10.0 ** draw(st.floats(-5.0, -3.0)) * np.exp(1j * draw(st.floats(0.0, 6.3))),
        draw(st.floats(-3.0, 3.0)) * kappa1,
        (1e-8,),
    )
    env = BathEnvironment(
        temperature=draw(st.sampled_from([0.0, 10.0 ** draw(st.floats(-2.0, -0.5))]))
    )
    return p, env, draw(st.floats(-5.0, 5.0)) * transverse_rate(p, env)


@settings(max_examples=100)
@given(point=_criterion_11_points())
def test_bloch_correlator_matches_resolvent_property(point):
    p, env, delta_m = point
    ref = correlator_integral(p, env, delta_m)
    for b, beta in enumerate(SIGNS):
        want = ref[b, :2]
        got = [bloch_correlator_numeric(p, env, alpha, beta, delta_m) for alpha in SIGNS]
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def test_bloch_correlator_rejects_bad_sign():
    p = _tls(1e-5, 0.0)
    with pytest.raises(ValueError):
        bloch_correlator_numeric(p, ENV0, 0, +1, 0.0)
    with pytest.raises(ValueError):
        bloch_correlator_numeric(p, ENV0, +1, 2, 0.0)


def test_coherence_matches_effective_theory():
    """g1 from the exact Liouvillian vs the moment-hierarchy form.

    Weak coupling (G = 0.01 kappa_t, one TLS) keeps the perturbative
    rates accurate; the curves must agree pointwise to within 2e-2 out to
    ten effective decay times.
    """
    G = 0.01 * KAPPA_T
    gamma0 = 3e-6
    mode = ModeParams(detuning=0.0, gamma0=gamma0, Omega=0j)
    tls = _tls(_drive(1.0), G)

    rates = single_mode_rates(mode, [tls], ENV0, counts=[1.0])
    ms = build_moment_system(rates, gamma0)
    rep = steady_state(ms)
    tau = np.linspace(0.0, 10.0 / ms.gamma_total, 21)
    eff = coherence_g1(ms, rep, tau)

    rho, spec = steady_state_autogrow(mode, (tls,), ENV0)
    liou = build_liouvillian(spec)
    exact = coherence_g1_numeric(liou, rho, spec, tau)

    assert exact[0] == pytest.approx(1.0, abs=1e-10)
    assert np.abs(exact - eff.values).max() < 2e-2


def test_coherence_numeric_rejects_vacuum():
    spec = _small_spec(fock=4, G=0.0, s=1.0)
    liou = build_liouvillian(spec)
    rho = np.zeros((spec.dim, spec.dim), dtype=complex)
    rho[0, 0] = 1.0  # exact vacuum, zero occupation
    with pytest.raises(ValueError):
        coherence_g1_numeric(liou, rho, spec, np.array([0.0, 1.0]))
