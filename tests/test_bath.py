"""Driven-TLS Bloch machinery against the exact 4x4 Liouvillian, and the
closed-form spectral densities against a 50-digit solve of the 3x3 drift."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tlsbath.bath as bath
from tlsbath.bath import (
    SIGNS,
    BathEnvironment,
    TlsParams,
    bose_occupation,
    build_psd_table,
    correlator_integral,
    psd,
    same_time_correlators,
    saturation,
    transverse_rate,
)
from tlsbath.dynamics import build_moment_system
from tlsbath.linalg import null_vector
from tlsbath.oracle import tls_liouvillian
from tlsbath.rates import ModeParams, SingleModeRates

ENV0 = BathEnvironment(temperature=0.0)
_ZERO_RATES = SingleModeRates(0.0, 0j, 0.0, 0j, 0.0, 0.0, 0j)


def bloch_state(p, env):
    """The stationary ``(sigma+, sigma_z)`` of ``p``, as the spectral
    densities and the dipole drive read them."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return bath._statics(p, env)[5:7]


def bloch_matrix(p, env):
    """Drift matrix of the centred Bloch fluctuations on the vector
    (raising, lowering, inversion): the reference the closed form of
    ``correlator_integral`` eliminates."""
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
    assert bose_occupation(0.2, 0.2) == pytest.approx(1.0 / (np.e - 1.0), rel=1e-14, abs=0)


def test_bose_occupation_underflows_gradually():
    """Past omega/T = 709.78 the quotient 1/expm1 overflows; from 700 on
    exp(-omega/T) equals it to rounding and falls through the subnormals
    to 0, and below 700 the quotient is kept as it was."""
    for x in (700.0, 705.0, 709.7):
        assert bose_occupation(x, 1.0) == pytest.approx(1.0 / math.expm1(x), rel=1e-15, abs=0)
    assert bose_occupation(699.9, 1.0) == 1.0 / math.expm1(699.9)
    assert 0.0 < bose_occupation(720.0, 1.0) == math.exp(-720.0) < np.finfo(float).tiny
    assert bose_occupation(1.0, 1e-3) == 0.0
    assert bose_occupation(1.0, 1e-320) == 0.0


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
        0.5e-4 * (1 + 2 * nbar) + 6e-5, rel=1e-14, abs=0
    )
    assert transverse_rate(p, ENV0) == pytest.approx(0.5e-4 + 6e-5, rel=1e-14, abs=0)


def test_saturation_reference_point():
    # baseline parameters, drive amplitude 1e-4: s = 2 exactly
    p = TlsParams(1.0, 1e-4, 0.0, 1e-4 + 0j, 0.0, (1e-8,))
    assert saturation(p, ENV0) == pytest.approx(2.0, rel=1e-14, abs=0)


@given(
    drive=st.floats(-50.0, 50.0),
    detuning=st.floats(-50.0, 50.0),
    kappa1=st.floats(-50.0, 50.0),
    kappa2=st.floats(-50.0, 50.0),
)
def test_saturation_power_of_two_unit_rounds_nothing(drive, detuning, kappa1, kappa2):
    """Away from the float range's ends the scaled form keeps every bit of
    (kappa_t / kappa1) |Omega_B|^2 / (kappa_t^2 + Delta_B^2)."""
    p = TlsParams(1.0, 10.0**kappa1, 10.0**kappa2, 10.0**drive * (0.6 + 0.8j), 10.0**detuning,
                  (0j,))
    kt = transverse_rate(p, ENV0)
    assert saturation(p, ENV0) == (kt / p.kappa1) * abs(p.Omega_B) ** 2 / (kt**2 + p.Delta_B**2)


@pytest.mark.parametrize(
    "params, env",
    [
        ((1e-4, 0.0, 0j), BathEnvironment(temperature=1e160)),
        ((1e-4, 1e160, 0j), ENV0),
        ((1e-300, 0.0, 0j), ENV0),
        ((1e-300, 0.0, 1e-300 + 0j), ENV0),
    ],
    ids=["hot", "dephased", "slow-relaxation", "slow-relaxation-driven"],
)
def test_saturation_finite_where_its_squares_are_not(params, env):
    """kappa_t = 1e156 or 2e160 overflows kappa_t^2, and kappa_t = 5e-301
    underflows it to 0, yet s is finite: 0 undriven, 2 driven at
    |Omega_B|^2 = kappa1 kappa_t."""
    kappa1, kappa2, drive = params
    p = TlsParams(1.0, kappa1, kappa2, drive, 0.0, (1e-8,))
    expected = 0.0 if drive == 0 else 2.0
    assert saturation(p, env) == pytest.approx(expected, rel=1e-14, abs=0)


def test_saturation_detuning_dependence():
    p0 = TlsParams(1.0, 1e-4, 0.0, 1e-4 + 0j, 0.0, (0j,))
    kt = transverse_rate(p0, ENV0)
    p1 = TlsParams(1.0, 1e-4, 0.0, 1e-4 + 0j, kt, (0j,))
    # one transverse linewidth of detuning halves the saturation
    assert saturation(p1, ENV0) == pytest.approx(saturation(p0, ENV0) / 2, rel=1e-12, abs=0)


def test_params_validation():
    with pytest.raises(ValueError):
        TlsParams(1.0, 0.0, 0.0, 0j, 0.0, (0j,))
    with pytest.raises(ValueError):
        TlsParams(1.0, 1e-4, -1e-6, 0j, 0.0, (0j,))
    with pytest.raises(ValueError):
        BathEnvironment(temperature=-1e-3)


_NAN = float("nan")
_TLS = TlsParams(1.0, 1e-4, 0.0, 1e-5, 0.0, (1e-8,))


def _quiet(fn, *args):
    # correlator_integral runs under its caller's errstate (see its docstring)
    with np.errstate(all="ignore"):
        return fn(*args)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: TlsParams(_NAN, 1e-4, 0.0, 1e-5, 0.0, (1e-8,)), "frequency"),
        (lambda: TlsParams(1.0, _NAN, 0.0, 1e-5, 0.0, (1e-8,)), "kappa1"),
        (lambda: TlsParams(1.0, np.array([1e-4, _NAN]), 0.0, 1e-5, 0.0, (1e-8,)), "kappa1"),
        (lambda: TlsParams(1.0, 1e-4, _NAN, 1e-5, 0.0, (1e-8,)), "kappa2"),
        (lambda: TlsParams(1.0, 1e-4, np.array([0.0, _NAN]), 1e-5, 0.0, (1e-8,)), "kappa2"),
        (lambda: TlsParams(1.0, 1e-4, 0.0, 1e-5, _NAN, (1e-8,)), "Delta_B"),
        (lambda: TlsParams(1.0, 1e-4, 0.0, 1e-5, -math.inf, (1e-8,)), "Delta_B"),
        (lambda: TlsParams(1.0, 1e-4, 0.0, 1e-5, np.array([0.0, _NAN]), (1e-8,)), "Delta_B"),
        (lambda: TlsParams(1.0, 1e-4, 0.0, _NAN, 0.0, (1e-8,)), "Omega_B"),
        (lambda: TlsParams(1.0, 1e-4, 0.0, complex(1e-5, math.inf), 0.0, (1e-8,)), "Omega_B"),
        (lambda: TlsParams(1.0, 1e-4, 0.0, np.array([1e-5, _NAN]), 0.0, (1e-8,)), "Omega_B"),
        (lambda: BathEnvironment(temperature=_NAN), "temperature"),
        (lambda: bose_occupation(_NAN, 0.1), "frequency"),
        (lambda: bose_occupation(1.0, _NAN), "temperature"),
        (lambda: TlsParams(1.0, math.inf, 0.0, 1e-5, 0.0, (1e-8,)), "kappa1"),
        (lambda: TlsParams(1.0, np.array([1e-4, math.inf]), 0.0, 1e-5, 0.0, (1e-8,)), "kappa1"),
        (lambda: TlsParams(1.0, 1e-4, math.inf, 1e-5, 0.0, (1e-8,)), "kappa2"),
        (lambda: TlsParams(1.0, 1e-4, 0.0, 1e-5, 0.0, (_NAN,)), "couplings"),
        (lambda: TlsParams(1.0, 1e-4, 0.0, 1e-5, 0.0, (1e-8, complex(0, math.inf))), "couplings"),
        (lambda: BathEnvironment(temperature=math.inf), "temperature"),
        (lambda: bose_occupation(1.0, math.inf), "temperature"),
        (lambda: ModeParams(detuning=_NAN, gamma0=1e-7), "detuning"),
        (lambda: ModeParams(detuning=math.inf, gamma0=1e-7), "detuning"),
        (lambda: ModeParams(detuning=np.array([0.0, -math.inf]), gamma0=1e-7), "detuning"),
        (lambda: ModeParams(detuning=0.0, gamma0=_NAN), "gamma0"),
        (lambda: ModeParams(detuning=0.0, gamma0=math.inf), "gamma0"),
        (lambda: ModeParams(detuning=0.0, gamma0=1e-7, Omega=_NAN), "Omega"),
        (lambda: build_moment_system(_ZERO_RATES, _NAN), "gamma0"),
        (lambda: build_moment_system(_ZERO_RATES, np.array([1e-7, math.inf])), "gamma0"),
        (lambda: TlsParams(math.inf, 1e-4, 0.0, 1e-5, 0.0, (1e-8,)), "frequency"),
        (lambda: bose_occupation(math.inf, 0.1), "frequency"),
        (lambda: build_psd_table([_TLS], BathEnvironment(0.1), [_NAN]), "detuning"),
        (lambda: psd([_TLS], BathEnvironment(0.1), [math.inf], 1, -1, 0, 0), "detuning"),
        (lambda: build_psd_table([_TLS], ENV0, [-math.inf]), "detuning"),
        (lambda: build_psd_table([_TLS], ENV0, [np.array([1e-5, _NAN])]), "detuning"),
        (lambda: _quiet(correlator_integral, _TLS, ENV0, _NAN), "detuning"),
        (lambda: _quiet(correlator_integral, _TLS, ENV0, np.array([[0.0, -math.inf]])), "detuning"),
    ],
    ids=[
        "omega_B", "kappa1", "kappa1-grid", "kappa2", "kappa2-grid", "Delta_B",
        "Delta_B-inf", "Delta_B-grid", "Omega_B", "Omega_B-inf", "Omega_B-grid",
        "temperature", "bose-frequency", "bose-temperature", "kappa1-inf",
        "kappa1-grid-inf", "kappa2-inf", "couplings", "couplings-inf", "temperature-inf",
        "bose-temperature-inf", "mode-detuning", "mode-detuning-inf", "mode-detuning-grid",
        "gamma0", "gamma0-inf", "mode-Omega", "moment-gamma0", "moment-gamma0-grid",
        "omega_B-inf", "bose-frequency-inf", "psd-table-detuning", "psd-detuning-inf",
        "psd-table-detuning-minus-inf", "psd-table-detuning-grid", "correlator-detuning",
        "correlator-detuning-grid-minus-inf",
    ],
)
def test_nan_parameters_are_refused(make, message):
    """A NaN or infinite rate, frequency, temperature, coupling, detuning
    or drive fails its own check, instead of surfacing later as an
    overflow that blames another input, a NaN Bloch vector or a finite
    spectrum."""
    with pytest.raises(ValueError, match=message):
        make()


def test_bloch_steady_state_against_liouvillian_kernel():
    """Stationary dipole and inversion must match the 4x4 null vector."""
    rng = np.random.default_rng(42)
    for _ in range(25):
        p, env = _random_tls(rng, with_temp=True)
        sigma_plus, sigma_z = bloch_state(p, env)
        liou = tls_liouvillian(p, env)
        rho = null_vector(liou).reshape(2, 2)
        rho = rho / np.trace(rho)
        # basis [ground, excited]; sigma+ = |e><g|
        sp = rho[0, 1]  # tr(rho sigma+) picks the ge coherence
        sz = (rho[1, 1] - rho[0, 0]).real
        assert abs(sigma_plus - sp) < 1e-12
        assert abs(sigma_z - sz) < 1e-12


def test_bloch_steady_state_is_stationary():
    rng = np.random.default_rng(9)
    for _ in range(10):
        p, env = _random_tls(rng, with_temp=True)
        sigma_plus, sigma_z = bloch_state(p, env)
        a = bloch_matrix(p, env)
        v = np.array([sigma_plus, np.conj(sigma_plus), sigma_z])
        inhom = np.array([0.0, 0.0, -p.kappa1], dtype=complex)
        residual = a @ v + inhom
        assert np.max(np.abs(residual)) < 1e-12 * max(p.kappa1, abs(p.Omega_B))


def test_bloch_steady_state_undriven():
    p = TlsParams(1.0, 1e-4, 0.0, 0j, 0.0, (0j,))
    sigma_plus, sigma_z = bloch_state(p, ENV0)
    assert sigma_plus == 0
    assert sigma_z == pytest.approx(-1.0, abs=1e-15)
    assert saturation(p, ENV0) == 0.0


def test_same_time_correlators_against_exact_state():
    """Pauli-algebra shortcuts vs direct expectation in the exact state."""
    rng = np.random.default_rng(17)
    sp_op = np.array([[0, 0], [1, 0]], dtype=complex)
    sm_op = sp_op.conj().T
    sz_op = np.diag([-1.0, 1.0]).astype(complex)
    for _ in range(10):
        p, env = _random_tls(rng, with_temp=True)
        sigma_plus, sigma_z = st = bloch_state(p, env)
        rho = null_vector(tls_liouvillian(p, env)).reshape(2, 2)
        rho = rho / np.trace(rho)
        ops = {
            +1: sp_op - sigma_plus * np.eye(2),
            -1: sm_op - np.conj(sigma_plus) * np.eye(2),
            "z": sz_op - sigma_z * np.eye(2),
        }
        for beta in (+1, -1):
            got = same_time_correlators(*st)[SIGNS.index(beta)]
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
        integ = correlator_integral(p, env, delta)[SIGNS.index(beta)]
        a = bloch_matrix(p, env) + beta * 1j * delta * np.eye(3)
        c0 = same_time_correlators(*bloch_state(p, env))[SIGNS.index(beta)]
        assert np.allclose(a @ integ, -c0, atol=1e-13)


@pytest.mark.parametrize("delta_m", [0.0, np.zeros(4), np.zeros((2, 3))], ids=["scalar", "1d", "2d"])
def test_correlator_integral_carries_the_sign_axis_first(delta_m):
    """Both signs come from one call: shape (2, 3) + delta_m.shape, and
    the equal-time correlators likewise (2, 3), sign first."""
    p, env = _random_tls(np.random.default_rng(6))
    assert correlator_integral(p, env, delta_m).shape == (2, 3) + np.shape(delta_m)
    assert same_time_correlators(*bloch_state(p, env)).shape == (2, 3)


@pytest.mark.parametrize("species", [1, 2])
def test_psd_table_takes_one_resolvent_call_per_tls_group(monkeypatch, species):
    """One Bloch evaluation serves both exponent signs: a bath of one or
    two TLS species costs one resolvent call per species, however many
    TLS of each there are, and a single psd entry costs one call."""
    p1 = TlsParams(1.0, 1e-4, 0.0, 5e-5 + 2e-5j, 1e-5, (1e-8 + 3e-9j, 2e-8j))
    p2 = TlsParams(1.0, 2e-4, 1e-5, 8e-5, -2e-5, (3e-8, 1e-8 - 4e-9j))
    tls = [p1, p2][:species] * 3
    detunings = np.array([2e-5, -1e-5])
    calls, original = [], bath.correlator_integral
    monkeypatch.setattr(bath, "correlator_integral", lambda *a: calls.append(a) or original(*a))
    build_psd_table(tls, ENV0, detunings)
    assert len(calls) == species
    calls.clear()
    psd(tls, ENV0, detunings, +1, -1, 0, 1)
    assert len(calls) == species


def _log(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


def _signed(magnitude):
    return st.tuples(st.sampled_from((-1.0, 1.0)), magnitude).map(lambda t: t[0] * t[1])


@st.composite
def _driven_tls(draw):
    """A TLS, its environment and a mode detuning over wide ranges,
    including the Mollow sidebands at |delta_m| near |Omega_B| and the
    TLS resonance |delta_m| = |Delta_B|."""
    drive = draw(_log(-8, -1))
    p = TlsParams(
        omega_B=1.0,
        kappa1=draw(_log(-8, -1)),
        kappa2=draw(st.one_of(st.just(0.0), _log(-9, -2))),
        Omega_B=drive * np.exp(1j * draw(st.floats(0.0, 2 * np.pi))),
        Delta_B=draw(st.one_of(st.just(0.0), _signed(_log(-8, -1)))),
        couplings=(1e-8,),
    )
    env = BathEnvironment(temperature=draw(st.sampled_from((0.0, 0.05, 0.5))))
    delta_m = draw(
        st.one_of(
            st.just(0.0),
            _signed(_log(-8, 0)),
            st.floats(0.9, 1.1).map(lambda r: r * drive),
            st.sampled_from((p.Delta_B, -p.Delta_B)),
        )
    )
    return p, env, delta_m


def _integral_by_mpmath(p, env, beta, delta_m):
    """-(A + beta i delta_m)^-1 c by a 50-digit LU solve of the Bloch
    drift, from the same double-precision entries.  Also returns the
    componentwise (Skeel) condition number of the raising and lowering
    rows, || |M^-1| (|M| |x| + |c|) || / ||x||: any method that is
    backward stable entry by entry, the 3x3 LU included, is accurate to
    about eps times it, and it is large only on a Mollow sideband or at
    the TLS resonance under a drive far above the linewidth."""
    a = bloch_matrix(p, env)
    c = same_time_correlators(*bloch_state(p, env))[SIGNS.index(beta)]
    with mpmath.workdps(50):
        shifted = mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in a])
        for k in range(3):
            shifted[k, k] += mpmath.mpc(0, beta * delta_m)
        x = mpmath.lu_solve(shifted, mpmath.matrix([mpmath.mpc(z.real, z.imag) for z in c]))
        x = -np.array([complex(x[k]) for k in range(3)])
    m = a + beta * 1j * delta_m * np.eye(3)
    spread = np.abs(np.linalg.inv(m)) @ (np.abs(m) @ np.abs(x) + np.abs(c))
    return x, spread[:2].max() / np.abs(x[:2]).max()


# On the TLS resonance under a drive 1e6 linewidths strong, where
# back-substituting x1 = (i Omega_B* x3 / 2 - c1) / u cancels to 1e-9.
_RESONANT = (
    TlsParams(1.0, 1e-8, 0.0, 0.02 + 0.01j, 0.01, (1e-8,)), ENV0, 0.01
)


@settings(max_examples=300)
@given(case=_driven_tls(), beta=st.sampled_from((+1, -1)))
@example(case=_RESONANT, beta=+1)
@example(case=_RESONANT, beta=-1)
def test_correlator_integral_matches_50_digit_solve(case, beta):
    """The raising and lowering rows, the two the spectral table uses,
    agree with a 50-digit solve within 1e-11 of their largest magnitude,
    plus 8 eps times the condition number where the inputs themselves
    allow no better (up to about 3e-9 at |Omega_B| / kappa1 = 1e7)."""
    p, env, delta_m = case
    got = correlator_integral(p, env, delta_m)[SIGNS.index(beta), :2]
    want, cond = _integral_by_mpmath(p, env, beta, delta_m)
    rtol = 1e-11 + 8 * np.finfo(float).eps * cond
    assert np.max(np.abs(got - want[:2])) <= rtol * np.max(np.abs(want[:2]))


@settings(max_examples=50)
@given(
    case=_driven_tls(),
    beta=st.sampled_from((+1, -1)),
    more=st.lists(_signed(_log(-8, 0)), min_size=1, max_size=4),
)
def test_correlator_integral_broadcasts_over_detunings(case, beta, more):
    p, env, delta_m = case
    grid = np.array([delta_m] + more)
    columns = correlator_integral(p, env, grid)[SIGNS.index(beta)]
    assert columns.shape == (3, len(grid))
    for k, d in enumerate(grid):
        assert np.array_equal(columns[:, k], correlator_integral(p, env, d)[SIGNS.index(beta)])


def test_correlator_integral_finite_at_extreme_detuning():
    """Far off resonance the transform falls off as -c / s with
    s = beta i delta_m; the closed form never forms u v, which overflows."""
    p, env = _random_tls(np.random.default_rng(5), with_temp=True)
    grid = np.array([1e300, -1e300])
    for beta in (+1, -1):
        x = correlator_integral(p, env, grid)[SIGNS.index(beta)]
        assert np.isfinite(x).all()
        c = same_time_correlators(*bloch_state(p, env))[SIGNS.index(beta)]
        assert np.allclose(x * (beta * 1j * grid), -c[:, None], rtol=1e-12, atol=0.0)


def test_saturation_overflow_raises():
    """The saturation parameter itself overflows at |Omega_B| = 1e150; the
    stationary Bloch vector, which never forms it, stays finite at its
    strong-drive limit sigma+ = i kappa1 / (2 Omega_B)."""
    p = TlsParams(1.0, 1e-4, 0.0, 1e150 + 0j, 0.0, (1e-8,))
    with pytest.raises(OverflowError, match="saturation"):
        saturation(p, ENV0)
    sigma_plus, sigma_z = bloch_state(p, ENV0)
    assert sigma_plus == pytest.approx(0.5j * 1e-4 / 1e150, rel=1e-12, abs=0)
    assert -1e-300 < sigma_z <= 0.0


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
                        integ = correlator_integral(p, env, detunings[m])[b]
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
    assert grouped == pytest.approx(repeated, rel=1e-14, abs=0)


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
    assert pair_rot == pytest.approx(pair * np.exp(2j * phi), rel=1e-12, abs=0)
    cross = psd([p], env, detunings, +1, -1, 0, 0)
    cross_rot = psd([p_rot], env, detunings, +1, -1, 0, 0)
    assert cross_rot == pytest.approx(cross, rel=1e-12, abs=0)


def test_psd_rejects_bad_indices():
    p, env = _random_tls(np.random.default_rng(2))
    with pytest.raises(ValueError):
        psd([p], env, np.array([0.0]), +1, -1, 0, 1)
    with pytest.raises(ValueError):
        psd([p], env, np.array([0.0]), 2, -1, 0, 0)
