"""Driven-TLS Bloch machinery against the exact 4x4 Liouvillian."""

import numpy as np
import pytest

from tlsbath.bath import (
    BathEnvironment,
    TlsParams,
    bloch_matrix,
    bloch_steady_state,
    bose_occupation,
    build_psd_table,
    correlator_integral,
    psd,
    same_time_correlators,
    saturation,
    transverse_rate,
)
from tlsbath.linalg import null_vector
from tlsbath.oracle import tls_liouvillian

ENV0 = BathEnvironment(temperature=0.0)


def _random_tls(rng, with_temp=False):
    kappa1 = 10.0 ** rng.uniform(-5, -3)
    p = TlsParams(
        omega_B=1.0,
        kappa1=kappa1,
        kappa2=float(rng.choice([0.0, 10.0 ** rng.uniform(-6, -4)])),
        Omega_B=10.0 ** rng.uniform(-5, -3) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
        Delta_B=float(rng.uniform(-3, 3)) * kappa1,
        couplings=(1e-8,),
    )
    env = BathEnvironment(
        temperature=float(rng.choice([0.0, 0.1, 0.5])) if with_temp else 0.0
    )
    return p, env


def test_bose_occupation_zero_temperature_exact():
    assert bose_occupation(1.0, 0.0) == 0.0
    assert bose_occupation(0.3, 0.0) == 0.0


def test_bose_occupation_known_value():
    # omega = T: n = 1/(e - 1)
    assert bose_occupation(0.2, 0.2) == pytest.approx(1.0 / (np.e - 1.0), rel=1e-14)


def test_bose_occupation_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bose_occupation(0.0, 0.1)
    with pytest.raises(ValueError):
        bose_occupation(1.0, -0.1)


def test_transverse_rate_composition():
    p = TlsParams(1.0, 1e-4, 3e-5, 0j, 0.0, (0j,))
    env = BathEnvironment(temperature=0.5)
    nbar = bose_occupation(1.0, 0.5)
    assert transverse_rate(p, env) == pytest.approx(
        0.5e-4 * (1 + 2 * nbar) + 6e-5, rel=1e-14
    )
    assert transverse_rate(p, ENV0) == pytest.approx(0.5e-4 + 6e-5, rel=1e-14)


def test_saturation_reference_point():
    # baseline parameters, drive amplitude 1e-4: s = 2 exactly
    p = TlsParams(1.0, 1e-4, 0.0, 1e-4 + 0j, 0.0, (1e-8,))
    assert saturation(p, ENV0) == pytest.approx(2.0, rel=1e-14)


def test_saturation_detuning_dependence():
    p0 = TlsParams(1.0, 1e-4, 0.0, 1e-4 + 0j, 0.0, (0j,))
    kt = transverse_rate(p0, ENV0)
    p1 = TlsParams(1.0, 1e-4, 0.0, 1e-4 + 0j, kt, (0j,))
    # one transverse linewidth of detuning halves the saturation
    assert saturation(p1, ENV0) == pytest.approx(saturation(p0, ENV0) / 2, rel=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        TlsParams(1.0, 0.0, 0.0, 0j, 0.0, (0j,))
    with pytest.raises(ValueError):
        TlsParams(1.0, 1e-4, -1e-6, 0j, 0.0, (0j,))
    with pytest.raises(ValueError):
        BathEnvironment(temperature=-1e-3)


def test_bloch_steady_state_against_liouvillian_kernel():
    """Stationary dipole and inversion must match the 4x4 null vector."""
    rng = np.random.default_rng(42)
    for _ in range(25):
        p, env = _random_tls(rng, with_temp=True)
        state = bloch_steady_state(p, env)
        liou = tls_liouvillian(p, env)
        rho = null_vector(liou).reshape(2, 2)
        rho = rho / np.trace(rho)
        # basis [ground, excited]; sigma+ = |e><g|
        sp = rho[0, 1]  # tr(rho sigma+) picks the ge coherence
        sz = (rho[1, 1] - rho[0, 0]).real
        assert abs(state.sigma_plus - sp) < 1e-12
        assert abs(state.sigma_z - sz) < 1e-12


def test_bloch_steady_state_is_stationary():
    rng = np.random.default_rng(9)
    for _ in range(10):
        p, env = _random_tls(rng, with_temp=True)
        st = bloch_steady_state(p, env)
        a = bloch_matrix(p, env)
        v = np.array([st.sigma_plus, np.conj(st.sigma_plus), st.sigma_z])
        inhom = np.array([0.0, 0.0, -p.kappa1], dtype=complex)
        residual = a @ v + inhom
        assert np.max(np.abs(residual)) < 1e-12 * max(p.kappa1, abs(p.Omega_B))


def test_bloch_steady_state_undriven():
    p = TlsParams(1.0, 1e-4, 0.0, 0j, 0.0, (0j,))
    st = bloch_steady_state(p, ENV0)
    assert st.sigma_plus == 0
    assert st.sigma_z == pytest.approx(-1.0, abs=1e-15)
    assert st.saturation == 0.0


def test_same_time_correlators_against_exact_state():
    """Pauli-algebra shortcuts vs direct expectation in the exact state."""
    rng = np.random.default_rng(17)
    sp_op = np.array([[0, 0], [1, 0]], dtype=complex)
    sm_op = sp_op.conj().T
    sz_op = np.diag([-1.0, 1.0]).astype(complex)
    for _ in range(10):
        p, env = _random_tls(rng, with_temp=True)
        st = bloch_steady_state(p, env)
        rho = null_vector(tls_liouvillian(p, env)).reshape(2, 2)
        rho = rho / np.trace(rho)
        ops = {
            +1: sp_op - st.sigma_plus * np.eye(2),
            -1: sm_op - np.conj(st.sigma_plus) * np.eye(2),
            "z": sz_op - st.sigma_z * np.eye(2),
        }
        for beta in (+1, -1):
            got = same_time_correlators(st, beta)
            # row order (raising, lowering, inversion), beta on the right
            want = np.array(
                [
                    np.trace(rho @ ops[+1] @ ops[beta]),
                    np.trace(rho @ ops[-1] @ ops[beta]),
                    np.trace(rho @ ops["z"] @ ops[beta]),
                ]
            )
            assert np.allclose(got, want, atol=1e-13)


def test_correlator_integral_solves_shifted_system():
    rng = np.random.default_rng(23)
    p, env = _random_tls(rng)
    for beta in (+1, -1):
        delta = 3.7 * p.kappa1
        integ = correlator_integral(p, env, beta, delta)
        a = bloch_matrix(p, env) + beta * 1j * delta * np.eye(3)
        c0 = same_time_correlators(bloch_steady_state(p, env), beta)
        assert np.allclose(a @ integ, -c0, atol=1e-13)


def test_correlator_integral_rejects_bad_beta():
    p, env = _random_tls(np.random.default_rng(1))
    with pytest.raises(ValueError):
        correlator_integral(p, env, 0, 0.0)


def test_psd_table_matches_single_entries():
    """Every table entry equals the bath sum written out term by term:
    table[a, b, m, n] = sum_i N_i G^(alpha)_in G^(beta)_im I_i[a], with
    I_i the resolvent integral at exponent sign beta and detuning m, and
    positions a, b = 0 for sign +1 and 1 for sign -1."""
    p1 = TlsParams(1.0, 1e-4, 0.0, 5e-5 + 2e-5j, 1e-5, (1e-8 + 3e-9j, 2e-8j))
    p2 = TlsParams(1.0, 2e-4, 1e-5, 8e-5, -2e-5, (3e-8, 1e-8 - 4e-9j))
    env = BathEnvironment(temperature=0.1)
    detunings = np.array([2e-5, -1e-5])
    counts = [100.0, 3.0]
    table = build_psd_table([p1, p2], env, detunings, counts=counts)
    assert table.shape == (2, 2, 2, 2)
    for a, alpha in enumerate((+1, -1)):
        for b, beta in enumerate((+1, -1)):
            for m in range(2):
                for n in range(2):
                    direct = 0j
                    for p, weight in zip((p1, p2), counts):
                        g_n = p.couplings[n] if alpha == +1 else np.conj(p.couplings[n])
                        g_m = p.couplings[m] if beta == +1 else np.conj(p.couplings[m])
                        integ = correlator_integral(p, env, beta, detunings[m])
                        direct += weight * g_n * g_m * integ[a]
                    assert table[a, b, m, n] == pytest.approx(direct, rel=1e-12, abs=1e-30)
                    single = psd([p1, p2], env, detunings, alpha, beta, m, n, counts=counts)
                    assert single == table[a, b, m, n]


def test_psd_counts_take_real_weights():
    """Rates are linear in N, so a fractional count scales them exactly."""
    p, env = _random_tls(np.random.default_rng(4))
    detunings = np.array([1e-5])
    one = build_psd_table([p], env, detunings, counts=[1])
    half_more = build_psd_table([p], env, detunings, counts=[1.5])
    assert np.allclose(half_more, 1.5 * one, rtol=1e-14, atol=0.0)
    for bad in ([0.0], [-2.0], [1.0, 1.0], [float("nan")]):
        with pytest.raises(ValueError):
            build_psd_table([p], env, detunings, counts=bad)


def test_psd_counts_equal_explicit_repetition():
    p, env = _random_tls(np.random.default_rng(3))
    detunings = np.array([1e-5])
    grouped = psd([p], env, detunings, +1, -1, 0, 0, counts=[3.0])
    repeated = psd([p, p, p], env, detunings, +1, -1, 0, 0)
    assert grouped == pytest.approx(repeated, rel=1e-14)


def test_psd_coupling_phase_covariance():
    """Rephasing the coupling G -> G e^{i phi} must rotate the pair
    component by 2 phi and leave the cross component invariant."""
    rng = np.random.default_rng(8)
    p, env = _random_tls(rng)
    phi = 0.7
    p_rot = TlsParams(
        p.omega_B,
        p.kappa1,
        p.kappa2,
        p.Omega_B,
        p.Delta_B,
        tuple(g * np.exp(1j * phi) for g in p.couplings),
    )
    detunings = np.array([2.2 * p.kappa1])
    pair = psd([p], env, detunings, +1, +1, 0, 0)
    pair_rot = psd([p_rot], env, detunings, +1, +1, 0, 0)
    assert pair_rot == pytest.approx(pair * np.exp(2j * phi), rel=1e-12)
    cross = psd([p], env, detunings, +1, -1, 0, 0)
    cross_rot = psd([p_rot], env, detunings, +1, -1, 0, 0)
    assert cross_rot == pytest.approx(cross, rel=1e-12)


def test_psd_rejects_bad_indices():
    p, env = _random_tls(np.random.default_rng(2))
    with pytest.raises(ValueError):
        psd([p], env, np.array([0.0]), +1, -1, 0, 1)
    with pytest.raises(ValueError):
        psd([p], env, np.array([0.0]), 2, -1, 0, 0)
