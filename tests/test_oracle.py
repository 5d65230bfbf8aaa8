"""Exact small-dimension reference dynamics and its cross-checks."""

import dataclasses
import functools

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_matrices import dense, reference_trace_null_vector
from test_bath import bloch_state

import tlsbath.oracle as oracle
from tlsbath.bath import (
    SIGNS,
    BathEnvironment,
    TlsParams,
    bose_occupation,
    correlator_integral,
    transverse_rate,
)
from tlsbath.config import resolve
from tlsbath.dynamics import build_moment_system, coherence_g1, steady_state
from tlsbath.linalg import expm_apply, null_vector, trace_null_vector
from tlsbath.oracle import (
    DimensionCapError,
    HilbertSpec,
    bloch_correlator_numeric,
    build_liouvillian,
    mode_moments,
    mode_operator,
    steady_state_autogrow,
    steady_state_full,
)
from tlsbath.rates import ModeParams, single_mode_rates
from tlsbath.sweeps import ORACLE_COLUMNS, oracle_point

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
    occ = np.trace(s.conj().T @ s @ rho_ss).real
    if occ <= 0:
        raise ValueError("coherence undefined for an unoccupied mode")
    seed = (rho_ss @ s.conj().T).reshape(-1)
    trace_row = s.T.reshape(-1)
    out = np.empty(len(tau_grid), dtype=complex)
    for k, tau in enumerate(tau_grid):
        out[k] = trace_row @ scipy.sparse.linalg.expm_multiply(liou * float(tau), seed)
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
    liou = dense(build_liouvillian(spec))
    trace_row = np.eye(spec.dim, dtype=complex).reshape(-1)
    residual = np.abs(trace_row @ liou).max()
    assert residual < 1e-14 * np.abs(liou).max()


def _kron_chain_generator(h, jumps, kron):
    """The generator ``-i[h, .] + sum_k c_k D[a_k, b_k]`` as a chain of
    Kronecker products and additions: the reference for the library's
    block assembly."""
    k = sum(c * (b @ a) for c, a, b in jumps)
    eye = np.eye(h.shape[0])
    liou = kron(-1j * h - 0.5 * k, eye) + kron(eye, (1j * h - 0.5 * k).T)
    for c, a, b in jumps:
        liou = liou + c * kron(a, b.T)
    return liou


def _sparse_kron(a, b):
    return scipy.sparse.kron(a, b, format="csr")


def _kron_chain_liouvillian(spec):
    """`build_liouvillian` from sparse Kronecker products of sparse
    operators."""
    def embed(ops):
        return functools.reduce(_sparse_kron, ops[1:], scipy.sparse.csr_array(ops[0]))

    s = embed([oracle._destroy(spec.fock_dim)] + [oracle._ID2] * spec.n_tls)
    sd = s.conj().T
    om0 = complex(spec.mode.Omega)
    h = spec.mode.detuning * (sd @ s) + om0 * s + np.conj(om0) * sd
    jumps = [(spec.mode.gamma0, s, sd)]
    eye = np.eye(spec.fock_dim, dtype=complex)
    for i, p in enumerate(spec.tls):
        sp, sm, sz = (
            embed([eye] + [op if j == i else oracle._ID2 for j in range(spec.n_tls)])
            for op in (oracle._SP, oracle._SM, oracle._SZ)
        )
        h_tls, jumps_tls = oracle._tls_terms(oracle._tls_coefficients(p, spec.env), sp, sm, sz)
        g = complex(p.couplings[0])
        h = h + h_tls + g * (sp @ s) + np.conj(g) * (sd @ sm)
        jumps += jumps_tls
    return _kron_chain_generator(h, jumps, _sparse_kron)


def _every_jump_spec(n, fock=4, temperature=0.2):
    """Complex drives and couplings and kappa_2 > 0, so that the dephasing
    jumps are present, and at T > 0 the thermal absorption jumps too."""
    tls = tuple(
        TlsParams(1.0, KAPPA_1, 0.3 * KAPPA_1, 0.8 * KAPPA_1 * np.exp(0.4j * (i + 1)),
                  0.2 * KAPPA_1, (0.3 * KAPPA_1 * np.exp(-0.9j),))
        for i in range(n)
    )
    mode = ModeParams(detuning=0.5 * KAPPA_1, gamma0=0.1 * KAPPA_1,
                      Omega=0.2 * KAPPA_1 * np.exp(1.1j))
    return HilbertSpec(fock_dim=fock, mode=mode, tls=tls,
                       env=BathEnvironment(temperature=temperature))


@pytest.mark.parametrize("temperature", [0.2, 0.0])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_liouvillian_matches_kronecker_chain(n, temperature):
    """The nonzero entries, in row-major order and as a full matrix, have
    the Kronecker chain's zero pattern exactly (so nothing lies off the
    three block diagonals) and its entries to rounding.  At T = 0 some
    diagonal entries cancel exactly (the dephasing jumps against their
    anticommutator), and are left out of the entries too."""
    spec = _every_jump_spec(n, temperature=temperature)
    liou = build_liouvillian(spec)
    assert (np.diff(liou.rows * liou.side + liou.cols) > 0).all() and liou.vals.all()
    got = dense(liou)
    want = _kron_chain_liouvillian(spec).toarray()
    assert liou.shape == want.shape
    assert np.array_equal(got != 0, want != 0)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_liouvillian_holds_only_its_nonzeros():
    """At N = 3, Fock 8 (side 4096), as criterion 10 and the linearity
    test below solve it, the Liouvillian is its 56 383 nonzero entries,
    1.8 MB, where its three dense block diagonals took 92 MB."""
    tls = (TlsParams(1.0, KAPPA_1, 0.0, complex(KAPPA_1 / np.sqrt(2.0)), 0.0, (1e-6,)),) * 3
    spec = HilbertSpec(8, ModeParams(detuning=0.0, gamma0=1e-6), tls, ENV0)
    liou = build_liouvillian(spec)
    assert liou.shape == (4096, 4096)
    assert sum(x.nbytes for x in liou[:3]) < 2e6


@pytest.mark.parametrize("i", [0, 1, 2])
def test_tls_liouvillian_matches_kronecker_chain(i):
    spec = _every_jump_spec(3)
    p, env = spec.tls[i], spec.env
    h, jumps = oracle._tls_terms(
        oracle._tls_coefficients(p, env), oracle._SP, oracle._SM, oracle._SZ
    )
    assert len(jumps) == 3
    liou = oracle.tls_liouvillian(p, env)
    want = _kron_chain_generator(h, jumps, np.kron)
    assert np.array_equal(liou != 0, want != 0)
    assert np.abs(liou - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize(
    "drive", [0.8 * KAPPA_1, 0.8 * KAPPA_1 * np.exp(0.4j)], ids=["real", "complex"]
)
@pytest.mark.parametrize("kappa2", [0.0, 0.2 * KAPPA_1], ids=["kappa2=0", "kappa2>0"])
@pytest.mark.parametrize("temperature", [0.0, 0.2], ids=["T=0", "T>0"])
def test_tls_liouvillian_matches_kronecker_chain_on_jump_subsets(temperature, kappa2, drive):
    """The block generator against the Kronecker chain of the same terms,
    on every subset of the jumps: at T = 0 or kappa_2 = 0 the absorption
    or dephasing jump is absent and its coefficient is an exact zero."""
    p = TlsParams(1.0, KAPPA_1, kappa2, drive, 0.3 * KAPPA_1, (0.3 * KAPPA_1,))
    env = BathEnvironment(temperature=temperature)
    h, jumps = oracle._tls_terms(
        oracle._tls_coefficients(p, env), oracle._SP, oracle._SM, oracle._SZ
    )
    assert len(jumps) == 1 + (temperature > 0) + (kappa2 > 0)
    liou = oracle.tls_liouvillian(p, env)
    want = _kron_chain_generator(h, jumps, np.kron)
    assert np.array_equal(liou != 0, want != 0)
    assert np.abs(liou - want).max() <= 1e-15 * np.abs(want).max()


def test_steady_state_full_is_stationary_and_physical():
    spec = _small_spec(fock=6, s=1.0)
    liou = build_liouvillian(spec)
    rho = steady_state_full(liou)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-10
    liou = dense(liou)
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


@pytest.mark.parametrize(
    "state",
    [np.full((2, 2), np.nan), [[0.5, 0.0], [0.0, np.nan]]],
    ids=["all-nan", "one-nan"],
)
def test_physical_state_check_refuses_nan(state):
    """Each comparison fails on NaN, so no check lets such a state pass."""
    with pytest.raises(ArithmeticError):
        oracle.assert_physical_state(np.array(state, dtype=complex))


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
def test_block_kernel_matches_superlu_and_dense_svd(spec):
    """The block-LU kernel vector against SuperLU on the stacked trace-row
    system, to 1e-12 relative, and the state against the dense SVD's
    kernel, to 1e-12."""
    liou = build_liouvillian(spec)
    got = trace_null_vector(liou)
    ref = reference_trace_null_vector(dense(liou))
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    rho = steady_state_full(liou)
    want = null_vector(dense(liou)).reshape(spec.dim, spec.dim)
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


def _centred(row, side):
    """``(n_c, m_c) = (<s+ s> - |<s>|^2, <s^2> - <s>^2)`` from the moments of
    one side (``eff`` or ``exact``) of an ``oracle-validate`` row."""
    amp = complex(row[f"amplitude_{side}_re"], row[f"amplitude_{side}_im"])
    pair = complex(row[f"pair_{side}_re"], row[f"pair_{side}_im"])
    return row[f"occupation_{side}"] - abs(amp) ** 2, pair - amp**2


# Relative errors of the Markov centred moments (n_c, m_c) against the plain
# oracle's at criterion 10's three ratios, to two significant figures.
MARKOV_CENTRED_ERRORS = {0.1: ("0.45", "0.072"), 0.03: ("0.053", "0.037"), 0.01: ("0.031", "0.033")}


def test_markov_centred_moment_errors_are_pinned():
    """The effective theory's noise against the exact solver at criterion
    10's points (N = 1, resonant, s = 1, gamma_0 = 3e-6).  The total moments
    there agree to 4.03e-2 or better, but at ratio 0.1 n_c is 3 % of the
    occupation and errs by 45 %; the pins make a change that moves the
    noise say so."""
    point = resolve({}).replace(n_tls=1.0, Omega_B=complex(KAPPA_1 / np.sqrt(2.0)))
    errors = {}
    for ratio in point.oracle_ratios:
        row = dict(zip(ORACLE_COLUMNS, oracle_point(point, ratio)))
        (n_eff, m_eff), (n_exact, m_exact) = _centred(row, "eff"), _centred(row, "exact")
        errors[ratio] = (
            f"{abs(n_eff - n_exact) / n_exact:.2g}",
            f"{abs(m_eff - m_exact) / abs(m_exact):.2g}",
        )
    assert errors == MARKOV_CENTRED_ERRORS


@settings(max_examples=50)
@given(
    delta_0=st.one_of(
        st.just(0.0),
        st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-7.0, -2.0)).map(
            lambda t: t[0] * 10.0 ** t[1]
        ),
    ),
    temperature=st.floats(0.25, 10.0),
    kappa2=st.one_of(st.just(0.0), st.floats(-7.0, -3.0).map(lambda e: 10.0**e)),
)
def test_thermal_bath_rates_obey_detailed_balance(delta_0, temperature, kappa2):
    """Undriven, the TLS bath is thermal at its own frequency omega_B = 1:
    gamma_+ / gamma_- = nbar / (nbar + 1) at any mode detuning and
    dephasing.  Below T = 0.25 the inversion's 1 + sigma_z cancels to a
    relative rounding of eps / (2 nbar), which reaches the tolerance near
    T = 0.1."""
    env = BathEnvironment(temperature)
    tls = _tls(0.0, 1e-8, kappa2=kappa2)
    r = single_mode_rates(ModeParams(delta_0, 1e-7), [tls], env, counts=[1.0])
    nbar = bose_occupation(1.0, temperature)
    want = nbar / (nbar + 1.0)
    assert abs(r.gamma_plus / r.gamma_minus - want) <= 1e-12 * want


@pytest.mark.parametrize(
    "temperature, kappa2, delta_0, ratio, bath_share",
    [
        (0.5, 0.0, 0.0, 0.03, 1.0),
        (0.3, 2e-5, -5e-5, 0.02, 3.5),
        (0.2, 0.0, 3e-5, 0.01, 3.7),
        (1.0, 1e-5, 2e-5, 0.01, 2.0),
    ],
)
def test_thermal_bath_occupation_matches_the_exact_solver(
    temperature, kappa2, delta_0, ratio, bath_share
):
    """At Omega_B = 0 and Omega_0 = 0 the mode's only bath besides its own
    is the thermal TLS, and <s> = 0, so the exact solver needs no
    displacement.  With gamma_bath / gamma_0 = ``bath_share`` and one TLS
    at coupling ratio * kappa_t, the exact occupation matches the
    effective one within 2 ratio^2 relative (measured 0.18 to 1.26
    ratio^2, at Fock 8 to 32)."""
    env = BathEnvironment(temperature)
    tls = _tls(0.0, ratio * transverse_rate(_tls(0.0, 0.0, kappa2=kappa2), env), kappa2=kappa2)
    rates = single_mode_rates(ModeParams(delta_0, 0.0), [tls], env, counts=[1.0])
    gamma_0 = rates.gamma / bath_share
    effective = steady_state(build_moment_system(rates, gamma_0)).occupation
    rho, spec = steady_state_autogrow(ModeParams(delta_0, gamma_0), (tls,), env, dim_cap=64)
    occupation, amplitude, pair = mode_moments(rho, spec)
    assert abs(amplitude) <= 1e-12 * occupation and abs(pair) <= 1e-12 * occupation
    assert abs(effective - occupation) <= 2.0 * ratio**2 * occupation


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
    sigma_plus, sigma_z = bloch_state(spec.tls[0], ENV0)
    assert marg[0, 1] == pytest.approx(sigma_plus, abs=1e-10)
    got_sz = (marg[1, 1] - marg[0, 0]).real
    assert got_sz == pytest.approx(sigma_z, abs=1e-10)


def test_evolve_preserves_trace_and_relaxes():
    spec = _small_spec(fock=4, s=1.0, G=1e-6)
    liou = build_liouvillian(spec)
    rho_ss = steady_state_full(liou)
    liou = dense(liou)
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
    diagonalizes it loses digits there (cond(V) ~ 1e8).  The resolvent
    solve inverts no eigenvector matrix and must still meet the
    closed-form resolvent."""
    p = _tls(KAPPA_1 / 4, 0.0)
    row = {+1: 0, -1: 1}
    for beta in (+1, -1):
        ref = correlator_integral(p, ENV0, delta_m)[SIGNS.index(beta)]
        for alpha in (+1, -1):
            got = bloch_correlator_numeric(p, ENV0, alpha, beta, delta_m)
            assert got == pytest.approx(complex(ref[row[alpha]]), rel=1e-10, abs=0)


def test_bloch_correlator_when_inversion_decays_slowest():
    """With kappa2 >> kappa1 the inversion, at rate kappa1, outlives the
    coherences, at kappa_t ~ 2 kappa2, so the two parts of the integral
    live on time scales 20 apart; the solve must resolve both."""
    p = TlsParams(1.0, 1e-5, 1e-4, 3e-5 * np.exp(0.7j), 2e-5, (1e-8,))
    row = {+1: 0, -1: 1}
    for beta in (+1, -1):
        for delta_m in (0.0, 1e-5):
            ref = correlator_integral(p, ENV0, delta_m)[SIGNS.index(beta)]
            for alpha in (+1, -1):
                got = bloch_correlator_numeric(p, ENV0, alpha, beta, delta_m)
                assert got == pytest.approx(complex(ref[row[alpha]]), rel=1e-10, abs=0)


def _correlator_by_time_domain(p, env, alpha, beta, delta_m):
    """``integral_0^tau_max <sigma~_alpha(tau) sigma~_beta(0)> exp(beta i
    delta_m tau) dtau`` from SciPy's exponential of the augmented generator
    ``[[(L + beta i delta_m) tau_max, x0], [0, 0]]`` (Van Loan, IEEE Trans.
    Autom. Control 23, 395 (1978)), with ``x0 = sigma~_beta rho``.  On
    traceless operators ``exp(L tau)`` decays at least as ``exp(-kappa1 (1
    + 2 nbar) tau / 2)``, so at ``tau_max = 80 / (kappa1 (1 + 2 nbar))`` the
    dropped tail is below ``exp(-40)``."""
    liou = oracle.tls_liouvillian(p, env)
    rho = null_vector(liou).reshape(2, 2)
    rho = rho / np.trace(rho)
    sigma = {+1: np.array([[0.0, 0.0], [1.0, 0.0]]), -1: np.array([[0.0, 1.0], [0.0, 0.0]])}
    centred = {b: op - np.trace(op @ rho) * np.eye(2) for b, op in sigma.items()}
    tau_max = 80.0 / (p.kappa1 * (1.0 + 2.0 * bose_occupation(p.omega_B, env.temperature)))
    gen = np.zeros((5, 5), dtype=complex)
    gen[:4, :4] = (liou + beta * 1j * delta_m * np.eye(4)) * tau_max
    gen[:4, 4] = (centred[beta] @ rho).reshape(4)
    integral = tau_max * scipy.linalg.expm(gen)[:4, 4]
    return complex(centred[alpha].T.reshape(4) @ integral)


@pytest.mark.parametrize(
    "p, env, delta_m",
    [
        (_tls(8e-5, 0.0, Delta_B=3e-5, kappa2=2e-5), BathEnvironment(temperature=0.3), 0.0),
        (_tls(KAPPA_1 / 4, 0.0), ENV0, 3e-5),
        (TlsParams(1.0, 1e-5, 1e-4, 3e-5 * np.exp(0.7j), 2e-5, (1e-8,)), ENV0, 1e-5),
    ],
    ids=["resonant-mode", "mollow-exceptional-point", "kappa2-dominant"],
)
def test_bloch_correlator_matches_time_domain_integral(p, env, delta_m):
    """The Laplace sign convention, exp(+beta i delta_m tau), pinned in the
    time domain: the resolvent solve against a propagated regression, for
    both signs beta."""
    for beta in SIGNS:
        for alpha in SIGNS:
            want = _correlator_by_time_domain(p, env, alpha, beta, delta_m)
            got = bloch_correlator_numeric(p, env, alpha, beta, delta_m)
            assert got == pytest.approx(want, rel=1e-10, abs=0)


@pytest.mark.parametrize("delta_m", [np.nan, np.inf, -np.inf])
def test_bloch_correlator_rejects_non_finite_detuning(delta_m):
    with pytest.raises(ValueError, match="finite"):
        bloch_correlator_numeric(_tls(1e-5, 0.0), ENV0, +1, -1, delta_m)


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


def _correlator_by_operators(p, env, alpha, beta, delta_m):
    """The same resolvent solve, written with 2x2 operators: the centred
    ``sigma~_+-`` from ``<sigma+> = tr(sigma+ rho)``, the seed
    ``sigma~_beta rho`` as a matrix product, the rank-one term as
    ``outer(vec(rho), vec(1))`` and the contraction as ``tr(sigma~_alpha
    x)``.  It shares only the generator and its kernel vector with the
    vec-form indices it checks."""
    liou = oracle.tls_liouvillian(p, env)
    rho = null_vector(liou).reshape(2, 2)
    rho = rho / np.trace(rho)
    rho = 0.5 * (rho + rho.conj().T)
    sp = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    sp_avg = np.trace(sp @ rho)
    ops = {+1: sp - sp_avg * np.eye(2), -1: sp.conj().T - np.conj(sp_avg) * np.eye(2)}
    rank_one = np.abs(liou).max() * np.outer(rho, np.eye(2))
    shifted = liou + beta * 1j * delta_m * np.eye(4) + rank_one
    integral = -np.linalg.solve(shifted, (ops[beta] @ rho).reshape(4))
    return complex(np.trace(ops[alpha] @ integral.reshape(2, 2)))


def _assert_matches_operator_algebra(p, env, delta_m):
    for beta in SIGNS:
        for alpha in SIGNS:
            want = _correlator_by_operators(p, env, alpha, beta, delta_m)
            got = bloch_correlator_numeric(p, env, alpha, beta, delta_m)
            assert abs(got - want) <= 1e-14 * abs(want)


@settings(max_examples=100)
@given(point=_criterion_11_points(), resonant=st.booleans())
def test_bloch_correlator_matches_operator_algebra(point, resonant):
    p, env, delta_m = point
    _assert_matches_operator_algebra(p, env, 0.0 if resonant else delta_m)


@pytest.mark.parametrize(
    "p, delta_m",
    [
        (_tls(KAPPA_1 / 4, 0.0), 0.0),
        (_tls(KAPPA_1 / 4, 0.0), 3e-5),
        (TlsParams(1.0, 1e-5, 1e-4, 3e-5 * np.exp(0.7j), 2e-5, (1e-8,)), 0.0),
        (TlsParams(1.0, 1e-5, 1e-4, 3e-5 * np.exp(0.7j), 2e-5, (1e-8,)), 1e-5),
    ],
    ids=["mollow-resonant", "mollow-detuned", "kappa2-dominant-resonant", "kappa2-dominant-detuned"],
)
def test_bloch_correlator_matches_operator_algebra_at_hard_points(p, delta_m):
    """The Mollow exceptional point and kappa2 >> kappa1, as in the
    resolvent tests above."""
    _assert_matches_operator_algebra(p, ENV0, delta_m)


@settings(max_examples=50)
@given(point=_criterion_11_points(), phi=st.floats(-np.pi, np.pi))
def test_bloch_correlator_drive_phase_covariance(point, phi):
    """Omega_B -> Omega_B exp(i phi) is the frame change sigma+- ->
    sigma+- exp(-+i phi), so component (alpha, beta) picks up exp(-i
    (alpha + beta) phi).  The resolvent is not consulted, so this pins
    the vec-form indices of <sigma+->, the seed and the contraction on
    their own."""
    p, env, delta_m = point
    turned = dataclasses.replace(p, Omega_B=p.Omega_B * np.exp(1j * phi))
    want = np.array([
        bloch_correlator_numeric(p, env, alpha, beta, delta_m) * np.exp(-1j * (alpha + beta) * phi)
        for alpha in SIGNS for beta in SIGNS
    ])
    got = np.array([
        bloch_correlator_numeric(turned, env, alpha, beta, delta_m)
        for alpha in SIGNS for beta in SIGNS
    ])
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_bloch_correlator_refuses_a_traceless_kernel_vector(monkeypatch):
    """A kernel vector without trace weight cannot be scaled to a state."""
    traceless = np.array([1.0, 0.3, 0.3, -1.0], dtype=complex) / 2.0
    monkeypatch.setattr(oracle, "null_vector", lambda liou: traceless)
    oracle._components.cache_clear()  # a memo hit would never reach the patch
    with pytest.raises(ArithmeticError, match="no trace weight"):
        bloch_correlator_numeric(_tls(1e-5, 0.0), ENV0, +1, -1, 0.0)


def _bits(values) -> bytes:
    return np.array(values, dtype=complex).tobytes()


def _fresh(p, env, alpha, beta, delta_m) -> complex:
    oracle._components.cache_clear()
    return bloch_correlator_numeric(p, env, alpha, beta, delta_m)


@settings(max_examples=30)
@given(
    first=_criterion_11_points(),
    second=_criterion_11_points(),
    detuning=st.floats(-5.0, 5.0),
    data=st.data(),
)
def test_bloch_correlator_memo_is_invisible(first, second, detuning, data):
    """The four components of one TLS and detuning, in any order and
    interleaved with calls for a second TLS and a second detuning, equal
    bit for bit what calls with the memo cleared before each one give."""
    p, env, delta_m = first
    points = [first, second, (p, env, detuning * transverse_rate(p, env))]
    calls = [(i, alpha, beta) for i in range(3) for alpha in SIGNS for beta in SIGNS]
    calls = data.draw(st.permutations(calls))
    got = [bloch_correlator_numeric(*points[i][:2], a, b, points[i][2]) for i, a, b in calls]
    want = [_fresh(*points[i][:2], a, b, points[i][2]) for i, a, b in calls]
    assert _bits(got) == _bits(want)


def _counting_null_vector(monkeypatch) -> list:
    calls = []

    def counted(a):
        calls.append(a)
        return null_vector(a)

    monkeypatch.setattr(oracle, "null_vector", counted)
    oracle._components.cache_clear()
    return calls


def _criterion_11_loop():
    """Criterion 11's loop, alpha outside beta, at two detunings of one TLS."""
    p = TlsParams(1.0, 1e-5, 1e-4, 3e-5 * np.exp(0.7j), 2e-5, (1e-8,))
    for delta_m in (0.0, 1e-5):
        for alpha in SIGNS:
            for beta in SIGNS:
                bloch_correlator_numeric(p, ENV0, alpha, beta, delta_m)


def test_bloch_correlator_takes_one_kernel_vector_per_tls_and_detuning(monkeypatch):
    calls = _counting_null_vector(monkeypatch)
    _criterion_11_loop()
    assert len(calls) == 2


def test_bloch_correlator_takes_one_solve_per_tls_and_detuning(monkeypatch):
    """Both beta of one TLS and detuning share one stacked solve."""
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(a.shape) or solve(a, b))
    oracle._components.cache_clear()
    _criterion_11_loop()
    assert calls == [(2, 4, 4)] * 2


def test_bloch_correlator_after_a_failure_computes_again(monkeypatch):
    """A call that raised leaves nothing in the memo: the same call raises
    again from a new kernel vector, and once the fault is gone the value
    is that of a fresh call."""
    calls = _counting_null_vector(monkeypatch)
    p = _tls(1e-5, 0.0)
    traceless = np.array([1.0, 0.3, 0.3, -1.0], dtype=complex) / 2.0
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "null_vector", lambda a: calls.append(a) or traceless)
        for _ in range(2):
            with pytest.raises(ArithmeticError, match="no trace weight"):
                bloch_correlator_numeric(p, ENV0, +1, -1, 0.0)
    assert len(calls) == 2
    got = bloch_correlator_numeric(p, ENV0, +1, -1, 0.0)
    assert len(calls) == 3
    assert _bits([got]) == _bits([_fresh(p, ENV0, +1, -1, 0.0)])


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
    liou = scipy.sparse.csr_array(dense(build_liouvillian(spec)))
    exact = coherence_g1_numeric(liou, rho, spec, tau)

    assert exact[0] == pytest.approx(1.0, abs=1e-10)
    assert np.abs(exact - eff.values).max() < 2e-2


def test_coherence_numeric_rejects_vacuum():
    spec = _small_spec(fock=4, G=0.0, s=1.0)
    liou = dense(build_liouvillian(spec))
    rho = np.zeros((spec.dim, spec.dim), dtype=complex)
    rho[0, 0] = 1.0  # exact vacuum, zero occupation
    with pytest.raises(ValueError):
        coherence_g1_numeric(liou, rho, spec, np.array([0.0, 1.0]))
