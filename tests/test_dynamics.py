"""Gaussian moment dynamics: stability, steady state, coherence."""

import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tlsbath.bath import BathEnvironment, TlsParams
from tlsbath.dynamics import (
    PrecisionLossError,
    UnstableSystemError,
    build_moment_system,
    coherence_g1,
    drift_matrix,
    stability,
    steady_state,
)
from tlsbath.linalg import eigenvalues, expm_apply, solve_linear
from tlsbath.rates import ModeParams, SingleModeRates, single_mode_rates

N_TLS = 1e5
G = 1e-8
KAPPA_1 = 1e-4
KAPPA_T = 5e-5
GAMMA_0 = 1e-7
ENV0 = BathEnvironment(temperature=0.0)


def _drive(s):
    return float(np.sqrt(s * KAPPA_1 * KAPPA_T))


def default_tau_grid(gamma_total: float, points: int = 400) -> np.ndarray:
    """Logarithmic time grid from zero out to 20 total decay times."""
    if gamma_total <= 0:
        raise ValueError("gamma_total must be positive")
    if points < 2:
        raise ValueError("need at least two grid points")
    t_max = 20.0 / gamma_total
    grid = np.geomspace(1e-4 * t_max, t_max, points - 1)
    return np.concatenate(([0.0], grid))


def _rates(s=1.0, Delta_0=0.0, Omega_0=0j):
    mode = ModeParams(detuning=Delta_0, gamma0=GAMMA_0, Omega=Omega_0)
    tls = TlsParams(1.0, KAPPA_1, 0.0, _drive(s), 0.0, (G,))
    return single_mode_rates(mode, [tls], ENV0, counts=[N_TLS])


def _bare_rates(delta_0=0.0):
    """Rate set with the TLS influence switched off entirely."""
    return SingleModeRates(
        detuning=delta_0,
        Omega_prime=0j,
        delta=0.0,
        g=0j,
        gamma_plus=0.0,
        gamma_minus=0.0,
        Gamma=0j,
    )


_PROPERTY = settings(max_examples=60)


def _log(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


_phase = st.floats(0.0, 2 * np.pi).map(lambda p: np.exp(1j * p))


@st.composite
def _detuned_rates(draw, ratio):
    """Rate set whose detuning is ``ratio`` times 2|g|, either sign."""
    mag = draw(_log(-9, -6))
    sign = draw(st.sampled_from((-1.0, 1.0)))
    return SingleModeRates(
        detuning=0.0,
        Omega_prime=draw(_log(-7, -3)) * draw(_phase),
        delta=sign * draw(ratio) * 2.0 * mag,
        g=mag * draw(_phase),
        gamma_plus=draw(_log(-10, -7)),
        gamma_minus=draw(_log(-10, -7)),
        Gamma=draw(_log(-10, -7)) * draw(_phase),
    )


@st.composite
def _stable_system(draw, ratio, margin):
    """Moment system whose decay rate clears the threshold 2 Re sigma by
    at least ``margin``, with a positive bath: |Gamma|^2 <= gamma_+
    (gamma_- + gamma0)."""
    r = draw(_detuned_rates(ratio))
    re_sigma = np.sqrt(max(4.0 * abs(r.g) ** 2 - r.delta**2, 0.0))
    gamma0 = max(2.0 * re_sigma - r.gamma, 0.0) + draw(margin)
    bound = np.sqrt(r.gamma_plus * (r.gamma_minus + gamma0))
    gg = draw(st.floats(0.0, 1.0)) * bound * draw(_phase)
    return build_moment_system(dataclasses.replace(r, Gamma=gg), gamma0)


def _centred_by_mpmath(ms):
    """(n_c, m_c, det sigma, xi) from a 50-digit LU solve of the full 5x5
    drift, centred afterwards: the cancellation costs nothing at 50 digits."""
    drift, inhom = drift_matrix(ms)
    with mpmath.workdps(50):
        v = mpmath.lu_solve(mpmath.matrix(drift.tolist()), -mpmath.matrix(inhom.tolist()))
        n_c = mpmath.re(v[0]) - abs(v[1]) ** 2
        m_c = v[3] - v[1] ** 2
        lam_min = n_c + 0.5 - abs(m_c)
        det = lam_min * (n_c + 0.5 + abs(m_c))
        xi = 1 / mpmath.sqrt(2 * lam_min)
        return float(n_c), complex(m_c), float(det), float(xi)


def _g1_by_expm(ms, rep, tau_grid):
    """Quantum-regression g1 with one matrix exponential per lag."""
    drift, inhom = drift_matrix(ms)
    block = drift[1:3, 1:3]
    z_inf = solve_linear(block, -inhom[1:3] * np.conj(rep.amplitude))
    dev0 = np.array([rep.occupation, np.conj(rep.pair_amplitude)]) - z_inf
    vals = [z_inf[0] + expm_apply(block, dev0, t)[0] for t in tau_grid]
    return np.array(vals) / rep.occupation


def test_bare_oscillator_spectrum():
    """Without the TLS the drift spectrum is the damped-oscillator one:
    occupation at -gamma_0, amplitudes at +-i Delta - gamma_0/2, pairs
    at +-2i Delta - gamma_0."""
    d0 = 3e-5
    ms = build_moment_system(_bare_rates(d0), GAMMA_0)
    got = np.sort_complex(eigenvalues(drift_matrix(ms)[0]))
    want = np.sort_complex(
        np.array(
            [
                -GAMMA_0,
                1j * d0 - GAMMA_0 / 2,
                -1j * d0 - GAMMA_0 / 2,
                2j * d0 - GAMMA_0,
                -2j * d0 - GAMMA_0,
            ]
        )
    )
    assert np.allclose(got, want, atol=1e-18)


def test_moment_system_gamma_total():
    r = _rates(s=0.5)
    ms = build_moment_system(r, GAMMA_0)
    assert ms.gamma_total == pytest.approx(GAMMA_0 + r.gamma, rel=1e-14, abs=0)
    assert ms.delta_prime == pytest.approx(r.delta, abs=1e-20)


def test_moment_system_rejects_negative_gamma0():
    with pytest.raises(ValueError):
        build_moment_system(_bare_rates(), -1e-9)


def test_stability_verdicts_agree_on_random_rates():
    """Spectral verdict vs closed-form criterion on the resonant case."""
    rng = np.random.default_rng(55)
    seen_unstable = 0
    for _ in range(200):
        g = 10.0 ** rng.uniform(-9, -6) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        r = dataclasses.replace(
            _bare_rates(0.0),
            g=g,
            gamma_plus=10.0 ** rng.uniform(-9, -7),
            gamma_minus=10.0 ** rng.uniform(-9, -6),
        )
        gamma0 = 10.0 ** rng.uniform(-9, -6)
        rep = stability(build_moment_system(r, gamma0))
        assert rep.stable == rep.criterion
        seen_unstable += not rep.stable
    assert seen_unstable > 10  # the draw must actually exercise both sides


def test_stability_max_real_part_closed_form():
    """Resonant drift spectrum: amplitudes grow at 2|g| - gamma_t/2, the
    pair block at twice that, so the overall max doubles above threshold."""
    gamma0 = 1e-7
    for mag in (2e-8, 3e-8):
        r = dataclasses.replace(_bare_rates(0.0), g=mag * np.exp(0.4j))
        rep = stability(build_moment_system(r, gamma0))
        amp = 2 * mag - gamma0 / 2
        want = max(amp, 2 * amp)
        assert rep.max_real_part == pytest.approx(want, rel=1e-9, abs=0)


@_PROPERTY
@given(r=_detuned_rates(st.floats(0.0, 3.0)), gamma0=_log(-9, -6))
def test_stability_closed_form_matches_drift_spectrum(r, gamma0):
    """max Re(lambda) = max(-gamma/2 + Re sigma, -gamma + 2 Re sigma) on
    both sides of delta' = 2|g|, with the verdict of the numerical
    spectrum wherever its sign is resolved."""
    ms = build_moment_system(r, gamma0)
    rep = stability(ms)
    numeric = eigenvalues(drift_matrix(ms)[0]).real.max()
    tol = 1e-9 * (abs(ms.gamma_total) + 2.0 * abs(r.g) + abs(ms.delta_prime))
    assert rep.max_real_part == pytest.approx(numeric, abs=tol)
    if abs(numeric) > tol:
        assert rep.stable == (numeric < 0)


@_PROPERTY
@given(
    near=st.booleans(),
    offset=_log(-8, -3),
    ratio=st.floats(0.0, 3.0).filter(lambda x: abs(x - 1.0) > 0.1),
    data=st.data(),
)
def test_coherence_closed_form_matches_expm(near, offset, ratio, data):
    """Closed-form g1 against one expm per lag: 1e-12 away from the
    exceptional point sigma = 0, 1e-7 next to it (where expm itself loses
    accuracy); at 1e4 decay times it is finite and equals the asymptote."""
    pick = st.sampled_from((1.0 - offset, 1.0 + offset)) if near else st.just(ratio)
    r = data.draw(_detuned_rates(pick))
    # a margin above threshold of at least 0.03 x 2|g| keeps the solves conditioned
    margin = data.draw(_log(-1.5, 1.0)) * 2.0 * abs(r.g)
    re_sigma = np.sqrt(max(4.0 * abs(r.g) ** 2 - r.delta**2, 0.0))
    gamma0 = max(2.0 * re_sigma - r.gamma, 0.0) + margin
    ms = build_moment_system(r, gamma0)
    rep = steady_state(ms)
    tau = np.append(default_tau_grid(ms.gamma_total), 1e4 / ms.gamma_total)
    series = coherence_g1(ms, rep, tau)
    assert np.all(np.isfinite(series.values)) and series.values[0] == 1.0
    want = _g1_by_expm(ms, rep, tau[:-1])
    assert np.abs(series.values[:-1] - want).max() <= (1e-7 if near else 1e-12)
    assert series.values[-1] == pytest.approx(series.asymptote, abs=1e-12)


def test_coherence_at_exceptional_point():
    """sigma = 0 exactly (4|g|^2 = delta'^2 in binary): the amplitude block
    is defective and exp(B tau) = e^(-gamma tau/2) (1 + tau (B + gamma/2))."""
    g, dp = 2.0**-27, 2.0**-26
    r = dataclasses.replace(
        _bare_rates(0.0), g=g + 0j, delta=dp, gamma_plus=1e-9,
        Omega_prime=3e-6 + 1e-6j, Gamma=2e-9 + 0j,
    )
    ms = build_moment_system(r, GAMMA_0)
    assert 4.0 * abs(r.g) ** 2 == ms.delta_prime**2
    rep = steady_state(ms)
    tau = default_tau_grid(ms.gamma_total)
    drift, inhom = drift_matrix(ms)
    block = drift[1:3, 1:3]
    z_inf = solve_linear(block, -inhom[1:3] * np.conj(rep.amplitude))
    dev0 = np.array([rep.occupation, np.conj(rep.pair_amplitude)]) - z_inf
    shifted_dev = (block + 0.5 * ms.gamma_total * np.eye(2)) @ dev0
    want = z_inf[0] + np.exp(-0.5 * ms.gamma_total * tau) * (
        dev0[0] + tau * shifted_dev[0]
    )
    got = coherence_g1(ms, rep, tau).values
    assert np.allclose(got, want / rep.occupation, rtol=0, atol=1e-13)


@_PROPERTY
@given(ms=_stable_system(st.floats(0.0, 3.0), _log(-10, -6)))
@example(ms=build_moment_system(_rates(s=1.0), GAMMA_0))
def test_steady_state_solves_balance(ms):
    """Fixed point of the full drift, conjugate-symmetric by construction,
    and within the Heisenberg bound for any positive bath."""
    rep = steady_state(ms)
    v = rep.moments
    # balance residual, scaled by the size of the cancelling products
    drift, inhom = drift_matrix(ms)
    residual = drift @ v + inhom
    scale = np.abs(drift) @ np.abs(v) + np.abs(inhom)
    assert np.all(np.abs(residual) <= 1e-12 * scale)
    assert v[0].imag == 0.0 and v[2] == np.conj(v[1]) and v[4] == np.conj(v[3])
    assert rep.det_sigma >= 0.25 - 1e-9
    assert rep.centered_occupation >= -1e-9


@settings(max_examples=200)
@given(ms=_stable_system(st.floats(1.0 - 1e-3, 1.0 + 1e-3), _log(-9, -6)))
def test_steady_state_near_exceptional_point_matches_mpmath(ms):
    """delta' within 1e-3 of 2|g| and gamma just above threshold, where the
    second-moment block is nearly a Jordan block: the centred moments, det
    sigma and xi agree with 50 digits to 1e-9, and nothing raises.  xi is
    held to 1e-12: the smaller covariance eigenvalue, det sigma over the
    larger one, does not lose the digits that n_c + 1/2 - |m_c| would."""
    rep = steady_state(ms)
    n_c, m_c, det, xi = _centred_by_mpmath(ms)
    assert rep.centered_occupation == pytest.approx(n_c, rel=1e-9, abs=0)
    assert abs(rep.centered_pair - m_c) <= 1e-9 * abs(m_c)
    assert rep.det_sigma == pytest.approx(det, rel=1e-9, abs=0)
    assert rep.xi == pytest.approx(xi, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "g, delta, gamma",
    [
        (2.0**-20, 0.0, 2.0**-18),  # sigma = 2|g|
        (2.5 * 2.0**-20, 3.0 * 2.0**-20, 8.0 * 2.0**-20),  # sigma = 4 x 2^-20
        (0.0, 2.0**-20, 0.0),  # sigma imaginary, undamped
        (2.0**-20, 0.0, 2.0**-18 - 2.0**-60),  # just below threshold
    ],
    ids=["resonant", "detuned", "undamped", "inside-margin"],
)
def test_steady_state_at_threshold_is_singular(g, delta, gamma):
    """gamma = 2 Re sigma in exact binary, or one part in 2^42 below it: the
    drift has no unique fixed point, the exact predicate calls it unstable,
    and steady_state raises the matching typed error, with no inf or NaN."""
    r = dataclasses.replace(
        _bare_rates(0.0), g=g + 0j, delta=delta, Omega_prime=1e-6 + 0j,
        gamma_plus=1e-9, gamma_minus=1e-9,
    )
    ms = build_moment_system(r, gamma)
    report = stability(ms)
    assert not report.stable and report.max_real_part >= 0.0
    with pytest.raises(UnstableSystemError):
        steady_state(ms)


# (2|g|, |delta'|, Re sigma) in units of a power of two, each exact in
# binary: Pythagorean triples, the resonant and exceptional points, and an
# imaginary sigma whose threshold is gamma = 0.
_EXACT_SIGMA = ((1, 0, 1), (5, 3, 4), (5, 4, 3), (13, 5, 12), (1, 1, 0), (0, 1, 0), (3, 5, 0))


@st.composite
def _threshold_system(draw):
    """Moment system on the threshold gamma = 2 Re sigma in exact binary (g
    on an axis keeps |g| exact), a few units of 2^-46 of the frequency unit
    to either side of it, or a random offset, with a positive bath:
    |Gamma|^2 <= gamma_+ (gamma_- + gamma0)."""
    two_g, dp, re_sigma = draw(st.sampled_from(_EXACT_SIGMA))
    unit = 2.0 ** draw(st.integers(-40, -10))
    step = draw(st.one_of(st.integers(-3, 3), st.integers(-2**40, 2**40)))
    gamma0 = max(2 * re_sigma * unit + step * 2.0**-46 * unit, 0.0)
    q = draw(_log(-10, -6))  # gamma_+ = gamma_-, so gamma0 is the total rate
    r = dataclasses.replace(
        _bare_rates(0.0),
        g=0.5 * two_g * unit * draw(st.sampled_from((1, -1, 1j, -1j))),
        delta=dp * unit * draw(st.sampled_from((-1.0, 1.0))),
        Omega_prime=draw(_log(-7, -3)) * draw(_phase),
        gamma_plus=q,
        gamma_minus=q,
        Gamma=draw(st.floats(0.0, 1.0)) * np.sqrt(q * (q + gamma0)) * draw(_phase),
    )
    return build_moment_system(r, gamma0)


@settings(max_examples=300)
@given(ms=st.one_of(_threshold_system(), _stable_system(st.floats(0.0, 3.0), _log(-10, -6))))
def test_steady_state_exists_exactly_when_stable(ms):
    """Stable drifts have finite moments within the Heisenberg bound, or
    raise the typed precision error; every other drift, threshold cases in
    exact binary included, raises the unstable error, never an inf or NaN.

    Every variance is at least 1/(4 lam_max), so a rounding bound of
    eps (n_c + |m_c|) above 1 % of it needs n_c + |m_c| of a few 1e6;
    the draws that raise have 1e13 and more, where a variance of order
    one (or 1e-40) is a difference of two moments that large."""
    if stability(ms).stable:
        try:
            rep = steady_state(ms)
        except PrecisionLossError:
            rep = steady_state(ms, where=False)  # the same numbers, unchecked
            assert rep.centered_occupation + abs(rep.centered_pair) > 1e6
            return
        assert np.all(np.isfinite(rep.moments))
        assert np.isfinite([rep.det_sigma, rep.var_x, rep.var_p]).all()
        assert rep.det_sigma >= 0.25 - 1e-9
    else:
        with pytest.raises(UnstableSystemError):
            steady_state(ms)


def test_steady_state_raises_when_unstable():
    r = dataclasses.replace(_bare_rates(0.0), g=1e-6 + 0j)
    ms = build_moment_system(r, 1e-9)
    assert not stability(ms).stable
    with pytest.raises(UnstableSystemError):
        steady_state(ms)


def test_covariance_identities():
    r = _rates(s=0.3)
    rep = steady_state(build_moment_system(r, GAMMA_0))
    m2 = rep.centered_pair
    nc = rep.centered_occupation
    assert rep.var_x == pytest.approx(0.5 + m2.real + nc, rel=1e-12, abs=0)
    assert rep.var_p == pytest.approx(0.5 - m2.real + nc, rel=1e-12, abs=0)
    lam_min = nc + 0.5 - abs(m2)
    lam_max = nc + 0.5 + abs(m2)
    assert rep.det_sigma == pytest.approx(lam_min * lam_max, rel=1e-12, abs=0)
    assert rep.xi == pytest.approx(1 / np.sqrt(2 * lam_min), rel=1e-12, abs=0)
    assert rep.squeezed == (rep.xi > 1)


def test_default_tau_grid_shape():
    grid = default_tau_grid(1e-7)
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(20.0 / 1e-7)
    assert np.all(np.diff(grid) > 0)
    with pytest.raises(ValueError):
        default_tau_grid(0.0)


def test_coherence_unit_at_zero_lag_and_asymptote():
    r = _rates(s=1.0)
    ms = build_moment_system(r, GAMMA_0)
    rep = steady_state(ms)
    series = coherence_g1(ms, rep, default_tau_grid(ms.gamma_total))
    assert series.values[0] == 1.0 + 0.0j
    coherent_fraction = abs(rep.amplitude) ** 2 / rep.occupation
    assert series.asymptote.real == pytest.approx(coherent_fraction, rel=1e-10, abs=0)
    # long-lag value approaches the coherent fraction
    assert abs(series.values[-1] - series.asymptote) < 1e-3 * abs(series.asymptote)
    assert np.all(np.abs(series.values) <= 1 + 1e-12)


def test_coherence_rejects_bad_grids():
    r = _rates(s=1.0)
    ms = build_moment_system(r, GAMMA_0)
    rep = steady_state(ms)
    with pytest.raises(ValueError):
        coherence_g1(ms, rep, np.array([0.0, -1.0]))
    with pytest.raises(ValueError):
        coherence_g1(ms, rep, np.array([0.0, 1.0, 1.0]))


def test_coherence_undefined_without_occupation():
    ms = build_moment_system(_bare_rates(0.0), GAMMA_0)
    rep = steady_state(ms)  # vacuum: zero occupation
    with pytest.raises(ValueError):
        coherence_g1(ms, rep, default_tau_grid(ms.gamma_total))
