"""Self-contained acceptance suite: 12 numbered criteria, each a
quantitative claim about the library checked at a pinned tolerance.

The suite is one table, :data:`CRITERIA`, of (number, name, check,
tolerance, budget) in order, run by one loop in :func:`validate_all`.
A check takes the run's config and returns its verdict (True for pass,
False for fail, None for skip) and what it measured.  The loop times
each check and builds its :class:`CriterionResult`; a check that runs
to its budget fails with the overrun appended, and a skip is never
failed for its runtime.

Every criterion pins its own parameters (the baseline set: N = 1e5,
G = 1e-8, kappa_1 = 1e-4, kappa_2 = 0, gamma_0 = 1e-7, T = 0, units
omega_B = 1) except the oracle comparison, which reads the [oracle]
config section so a too-small dimension cap surfaces as a skip with a
reason rather than a silent pass.

Each line or grid of points a criterion checks is one call of the CLI's
batched path (``rates_at`` with the swept values as arrays, then the
moment system over that grid, its steady state read where it is stable
as the sweeps read it), and each verdict one array expression.
Loops remain for criterion 5's bracket zoom on the peak (eight calls of
65 points each), criterion 4's scalar closed form, the exact solver of
criteria 10 and 11, and the random draws of criterion 12.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from .bath import BathEnvironment, TlsParams, _abs, build_psd_table, transverse_rate
from .config import ScenarioConfig, resolve
from .dynamics import build_moment_system, drift_matrix, stability
from .linalg import eigenvalues
from .oracle import DimensionCapError, bloch_correlator_numeric
from .rates import mollow_sideband, optimal_detuning, resonant_closed_form
from .sweeps import ORACLE_COLUMNS, _stable_state, oracle_point, rates_at

N_TLS = 1e5
COUPLING = 1e-8
KAPPA_1 = 1e-4
GAMMA_0 = 1e-7
KAPPA_T = 0.5 * KAPPA_1  # zero-temperature, no dephasing


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    status: str  # "pass" | "fail" | "skip"
    measured: str
    tolerance: str
    runtime: float
    budget: float | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def line(self) -> str:
        tag = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[self.status]
        budget = f" (budget {self.budget:g}s)" if self.budget else ""
        return (
            f"[{tag}] {self.number:02d} {self.name}: {self.measured}; "
            f"tolerance {self.tolerance}; {self.runtime:.2f}s{budget}"
        )


@dataclass(frozen=True)
class ValidationReport:
    results: tuple

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list:
        return [r.line() for r in self.results]


# The pinned operating point.  The criteria move away from it with
# ``BASELINE.replace(...)`` and take its rates from ``rates_at``, the
# CLI's own path.
BASELINE = resolve({}).replace(
    n_tls=N_TLS,
    G=complex(COUPLING),
    kappa_1=KAPPA_1,
    kappa_2=0.0,
    gamma_0=GAMMA_0,
    temperature=0.0,
)


def _drive_for_saturation(s):
    # resonant, zero temperature: s = |Omega_B|^2 / (kappa_1 kappa_t)
    return np.sqrt(s * KAPPA_1 * KAPPA_T)


def _zero_drive(_cfg) -> tuple:
    delta_0 = np.array([0.0, 1e-3, -2.5e-2])
    r = rates_at(BASELINE.replace(Omega_B=0j, Delta_0=delta_0, Omega_0=1e-6 + 0j))
    worst = max(_abs(r.g).max(), _abs(r.Gamma).max(), _abs(r.Omega_prime - 1e-6).max())
    return worst < 1e-14, f"max |g|, |Gamma|, |drive shift| = {worst:.2e}"


def _low_drive_decay(_cfg) -> tuple:
    target = 2.0 * N_TLS * COUPLING**2 / KAPPA_T  # 4e-7
    r = rates_at(BASELINE.replace(Omega_B=_drive_for_saturation(1e-6)))
    rel = abs(r.gamma - target) / target
    return rel < 1e-2, f"gamma = {r.gamma:.6e} vs {target:.1e}, rel dev {rel:.2e}"


def _saturation(_cfg) -> tuple:
    r = rates_at(BASELINE.replace(Omega_B=_drive_for_saturation(1e6)))
    target = N_TLS * COUPLING**2 / (2.0 * KAPPA_T)  # 1e-7
    rel = abs(r.Gamma - target) / target
    # reference scales of the weak-drive limits: gamma at resonance,
    # the frequency-shift extremum over detuning
    gamma_ref = 2.0 * N_TLS * COUPLING**2 / KAPPA_T
    delta_ref = N_TLS * COUPLING**2 / (2.0 * KAPPA_T)
    suppressed = abs(r.gamma) < 1e-4 * gamma_ref and abs(r.delta) < 1e-4 * delta_ref
    return rel < 1e-3 and suppressed, (
        f"Gamma rel dev {rel:.2e}; |gamma| = {abs(r.gamma):.2e} "
        f"({abs(r.gamma) / gamma_ref:.1e} of weak-drive), "
        f"|delta| = {abs(r.delta):.2e} ({abs(r.delta) / delta_ref:.1e})"
    )


def _closed_form(_cfg) -> tuple:
    saturations = np.array([1e-2, 1.0, 1e2])
    detunings = np.linspace(-1e3 * KAPPA_1, 1e3 * KAPPA_1, 101)
    drives = _drive_for_saturation(saturations)[:, None] + 0j
    r = rates_at(BASELINE.replace(Omega_B=drives, Delta_0=detunings))
    # the independent anchor: the scalar closed form, point by point
    ref = np.array(
        [
            [resonant_closed_form(N_TLS, COUPLING, KAPPA_1, s, d0) for d0 in detunings.tolist()]
            for s in saturations.tolist()
        ]
    )
    g_ref, gam_ref = ref[..., 0], ref[..., 1]
    worst = max(
        (_abs(r.g - g_ref) / np.maximum(_abs(g_ref), 1e-300)).max(),
        (_abs(r.Gamma - gam_ref) / np.maximum(_abs(gam_ref), 1e-300)).max(),
    )
    return worst < 1e-10, f"max rel deviation {worst:.2e} over 303 grid points"


def _driving_structure(_cfg) -> tuple:
    # bracket zoom: 65 saturations per rate call, keep the argmax's neighbours
    lo, hi = 0.2, 5.0
    while hi - lo >= 1e-10:
        s = np.linspace(lo, hi, 65)
        drive = _abs(rates_at(BASELINE.replace(Omega_B=_drive_for_saturation(s))).Omega_prime)
        i = int(np.argmax(drive))
        lo, hi = s[max(i - 1, 0)], s[min(i + 1, 64)]
    s_star = float(s[i])
    ok = abs(s_star - 1.0) < 1e-6
    details = [f"peak saturation {s_star:.9f}"]

    for mult in (2.0, 4.0):
        drive = mult * KAPPA_T
        pred = optimal_detuning(drive, KAPPA_T)
        grid = np.linspace(-4.0 * KAPPA_T, 4.0 * KAPPA_T, 1601)
        step = grid[1] - grid[0]
        vals = _abs(rates_at(BASELINE.replace(Omega_B=drive, Delta_B=grid)).Omega_prime)
        interior = (vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:])
        peaks = grid[1:-1][interior]
        ok = ok and peaks.size == 2
        if peaks.size == 2:
            dev = max(abs(np.sort(peaks) - np.array([-pred, pred])))
            ok = ok and dev <= step + 1e-15
            details.append(f"drive {mult:g}x: peak dev {dev / step:.2f} steps")
        else:
            details.append(f"drive {mult:g}x: found {peaks.size} peaks")
    return ok, "; ".join(details)


def _mollow_sidebands(_cfg) -> tuple:
    ok = True
    details = []
    step = 0.4 * KAPPA_T
    for mult in (10.0, 30.0):
        drive = mult * KAPPA_T
        pred = mollow_sideband(drive, KAPPA_T)
        grid = pred + np.linspace(-2.0, 2.0, 11) * KAPPA_T
        vals = _abs(rates_at(BASELINE.replace(Omega_B=drive, Delta_0=grid)).Gamma)
        located = float(grid[np.argmax(vals)])
        dev = abs(located - pred)
        ok = ok and dev <= step + 1e-15
        details.append(f"drive {mult:g}x: |dev| = {dev / step:.2f} steps")
    return ok, "; ".join(details)


def _amplification_window(_cfg) -> tuple:
    drive = 10.0 * KAPPA_T
    grid = np.geomspace(1e-2 * KAPPA_T, 100.0 * drive, 1000)
    gam = rates_at(BASELINE.replace(Omega_B=drive, Delta_0=grid)).gamma
    neg = gam < 0
    runs = int(np.sum(np.diff(neg.astype(int)) != 0))
    single_window = runs == 2 and not neg[0] and not neg[-1]
    window_lo = grid[neg].min() if neg.any() else np.nan
    window_hi = grid[neg].max() if neg.any() else np.nan
    mid = (grid >= KAPPA_T) & (grid <= 0.9 * drive)
    inside_negative = bool(np.all(gam[mid] < 0))
    cooling_far = bool(np.all(gam[grid >= 2.0 * drive] > 0))
    cooling_near = bool(np.all(gam[grid <= 0.1 * KAPPA_T] > 0))
    upper_ok = bool(window_hi <= drive)
    ok = single_window and inside_negative and cooling_far and cooling_near and upper_ok
    return ok, (
        f"window [{window_lo / KAPPA_T:.3f} kappa_t, "
        f"{window_hi / drive:.4f} Omega_B], {runs} sign changes"
    )


def _stability_map(_cfg) -> tuple:
    drives = np.geomspace(1e-6, 1e-3, 100) + 0j
    gammas = np.geomspace(1e-9, 1e-5, 100)[:, None]
    # gamma_0 never enters the rates: assemble them once per drive and detuning
    resonant = rates_at(BASELINE.replace(Omega_B=drives))
    systems = (
        build_moment_system(resonant, gammas),
        build_moment_system(resonant, 3e-8),
        build_moment_system(rates_at(BASELINE.replace(Omega_B=drives, Delta_0=1e-8)), 3e-8),
    )
    grid, low, off = reports = [stability(ms) for ms in systems]
    disagreements = int(np.sum(grid.stable != grid.criterion))
    unstable_high = int(np.sum(~grid.stable & (gammas >= 1e-6)))
    unstable_low = int(np.sum(~low.stable))
    detuned = int(np.sum(off.stable))
    # every closed-form verdict, checked against the numerical drift spectrum
    drifts = np.concatenate([drift_matrix(ms)[0].reshape(-1, 5, 5) for ms in systems])
    verdicts = np.concatenate([rep.stable.ravel() for rep in reports])
    eig_disagreements = int(np.sum(verdicts != (eigenvalues(drifts).real.max(axis=-1) < 0)))
    ok = (
        disagreements == 0
        and eig_disagreements == 0
        and unstable_low > 0
        and unstable_high == 0
        and 0 < detuned < drives.size
    )
    return ok, (
        f"{disagreements} verdict disagreements on 100x100 grid; "
        f"{eig_disagreements} with the numerical eigensolve; "
        f"{unstable_low} unstable cells at gamma_0 = 3e-8, "
        f"{unstable_high} at gamma_0 >= 1e-6; "
        f"{detuned} of {drives.size} stable at Delta_0 = 1e-8"
    )


def _xi_where_stable(rates) -> np.ndarray:
    # the squeezing factor over the grid of the rates, NaN where unstable
    stable, rep = _stable_state(rates, GAMMA_0)
    return np.where(stable, rep.xi, np.nan)


def _squeezing(_cfg) -> tuple:
    s_grid = np.geomspace(1e-3, 10.0, 150)
    r = rates_at(BASELINE.replace(Omega_B=_drive_for_saturation(s_grid) + 0j))
    xi_full = _xi_where_stable(r)
    xi_nog = _xi_where_stable(dataclasses.replace(r, g=np.zeros_like(r.g)))
    near = (s_grid > 0.05) & (s_grid < 0.2)
    squeezed_near = bool(np.all(xi_full[near] > 1.0))
    nonempty = bool(np.any(xi_full > 1.0))
    reduced = float(np.nanmax(xi_full)) < float(np.nanmax(xi_nog))
    differs = bool(np.nanmax(np.abs(xi_full - xi_nog)) > 1e-6)
    ok = squeezed_near and nonempty and reduced and differs
    return ok, (
        f"xi > 1 around s = 0.1: {squeezed_near}; "
        f"max xi full {np.nanmax(xi_full):.4f} vs "
        f"pair-pumping-free {np.nanmax(xi_nog):.4f}"
    )


def _oracle_equivalence(cfg: ScenarioConfig) -> tuple:
    drive = KAPPA_1 / np.sqrt(2.0)  # saturation parameter 1 on resonance
    point = cfg.replace(
        n_tls=1.0,
        Omega_B=complex(drive),
        Delta_B=0.0,
        Delta_0=0.0,
        kappa_1=KAPPA_1,
        kappa_2=0.0,
        temperature=0.0,
    )
    ratios = sorted(point.oracle_ratios, reverse=True)
    devs = []
    try:
        for ratio in ratios:
            row = oracle_point(point, float(ratio))
            errs = (v for c, v in zip(ORACLE_COLUMNS, row) if c.endswith("_rel_err"))
            devs.append(max(errs))
    except DimensionCapError as exc:
        return None, f"dimension cap: {exc}"
    monotone = all(a >= b for a, b in zip(devs, devs[1:]))
    ok = devs[-1] < 0.05 and monotone
    return ok, f"max moment deviations {['%.2e' % d for d in devs]} for ratios {list(ratios)}"


def _correlator_quadrature(_cfg) -> tuple:
    rng = np.random.default_rng(20260816)
    worst = 0.0
    for _ in range(50):
        kappa1 = 10.0 ** rng.uniform(-5.0, -3.0)
        kappa2 = float(rng.choice([0.0, 10.0 ** rng.uniform(-6.0, -4.0)]))
        temp = float(rng.choice([0.0, 10.0 ** rng.uniform(-2.0, -0.5)]))
        env = BathEnvironment(temperature=temp)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        p = TlsParams(
            omega_B=1.0,
            kappa1=kappa1,
            kappa2=kappa2,
            Omega_B=10.0 ** rng.uniform(-5.0, -3.0) * phase,
            Delta_B=float(rng.uniform(-3.0, 3.0)) * kappa1,
            couplings=(10.0 ** rng.uniform(-8.0, -5.0),),
        )
        kt = transverse_rate(p, env)
        detuning = float(rng.uniform(-5.0, 5.0)) * kt
        n_tls = float(10.0 ** rng.integers(0, 6))
        table = build_psd_table([p], env, [detuning], counts=[n_tls])
        for a, alpha in enumerate((+1, -1)):
            for b, beta in enumerate((+1, -1)):
                integral = bloch_correlator_numeric(p, env, alpha, beta, detuning)
                g_a = p.couplings[0] if alpha > 0 else np.conj(p.couplings[0])
                g_b = p.couplings[0] if beta > 0 else np.conj(p.couplings[0])
                via_quadrature = n_tls * g_a * g_b * integral
                worst = max(worst, abs(table[a, b, 0, 0] - via_quadrature))
    return worst < 1e-8, f"max absolute deviation {worst:.2e} over 200 components"


def _physicality_draw(rng) -> tuple:
    """One attempt of criterion 12: its seven random draws, in a fixed order."""
    kappa1 = 10.0 ** rng.uniform(-5.0, -3.0)
    s = 10.0 ** rng.uniform(-3.0, 3.0)
    temperature = float(rng.choice([0.0, 0.05, 0.2]))
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    delta_b = float(rng.uniform(-2.0, 2.0)) * kappa1
    delta_0 = float(rng.uniform(-10.0, 10.0)) * kappa1
    gamma0 = 10.0 ** rng.uniform(-9.0, -5.0)
    return kappa1, s, temperature, phase, delta_b, delta_0, gamma0


def _physicality(_cfg) -> tuple:
    rng = np.random.default_rng(1234)
    checked = 0
    worst_det = np.inf
    worst_occ = np.inf
    attempts = 0
    while checked < 1000 and attempts < 8000:
        # as many attempts as stable states are still wanted: no attempt is
        # drawn past the one that completes the set
        count = min(1000 - checked, 8000 - attempts)
        attempts += count
        draws = [_physicality_draw(rng) for _ in range(count)]
        kappa1, s, temperature, phase, delta_b, delta_0, gamma0 = map(np.array, zip(*draws))
        # the bath temperature is one value per rate call
        for temp in np.unique(temperature).tolist():
            at = temperature == temp
            point = BASELINE.replace(kappa_1=kappa1[at], temperature=temp)
            kt_guess = transverse_rate(point.tls_params(), point.environment())
            point = point.replace(
                Omega_B=np.sqrt(s[at] * kappa1[at] * kt_guess) * phase[at],
                Delta_B=delta_b[at],
                Delta_0=delta_0[at],
            )
            stable, rep = _stable_state(rates_at(point), gamma0[at])
            checked += int(stable.sum())
            worst_det = min(worst_det, rep.det_sigma[stable].min(initial=np.inf))
            worst_occ = min(worst_occ, rep.centered_occupation[stable].min(initial=np.inf))
    ok = (
        checked == 1000
        and worst_det >= 0.25 - 1e-9
        and worst_occ >= -1e-9
    )
    return ok, (
        f"{checked} stable states; min det sigma - 1/4 = {worst_det - 0.25:.2e}, "
        f"min centered occupation = {worst_occ:.2e}"
    )


# The suite in order: (number, name, check, tolerance, budget in seconds
# or None).
CRITERIA = (
    (1, "zero-drive-collapse", _zero_drive, "< 1e-14", 1.0),
    (2, "low-drive-decay-limit", _low_drive_decay, "< 1% of 4e-7", 1.0),
    (3, "saturation-limit", _saturation,
     "Gamma < 0.1%; residual rates < 1e-4 of weak-drive values", None),
    (4, "closed-form-equivalence", _closed_form, "< 1e-10", 5.0),
    (5, "driving-rate-structure", _driving_structure,
     "peak at s = 1 +- 1e-6; double peaks within one grid step", None),
    (6, "mollow-sidebands", _mollow_sidebands,
     "within one grid step (0.4 kappa_t) of the sideband position", None),
    (7, "amplification-window", _amplification_window,
     "single negative window covering [kappa_t, 0.9 Omega_B], "
     "upper edge <= Omega_B, cooling outside", None),
    (8, "stability-map", _stability_map,
     "verdicts identical, also to the eigensolve; unstable region nonempty "
     "at 3e-8, empty at >= 1e-6; detuned line holds both verdicts", 30.0),
    (9, "squeezing-reduction", _squeezing,
     "xi > 1 near s = 0.1; full optimum below pair-pumping-free optimum", None),
    (10, "oracle-equivalence", _oracle_equivalence,
     "< 5% at coupling ratio 1e-2, monotone in ratio", 60.0),
    (11, "correlator-quadrature", _correlator_quadrature, "< 1e-8 absolute", 10.0),
    (12, "physicality-suite", _physicality,
     "det sigma >= 1/4 - 1e-9; centered occupation >= -1e-9", None),
)


def validate_all(cfg: ScenarioConfig | None = None) -> ValidationReport:
    """Run every criterion of :data:`CRITERIA`, each timed against its
    budget; config only feeds the oracle comparison."""
    if cfg is None:
        cfg = resolve({})
    results = []
    for number, name, check, tolerance, budget in CRITERIA:
        t0 = time.perf_counter()
        ok, measured = check(cfg)
        runtime = time.perf_counter() - t0
        # a skip is never failed for its runtime
        if ok is not None and budget is not None and runtime >= budget:
            ok = False
            measured += f"; runtime {runtime:.2f}s exceeded budget"
        status = "skip" if ok is None else "pass" if ok else "fail"
        results.append(CriterionResult(number, name, status, measured, tolerance, runtime, budget))
    return ValidationReport(results=tuple(results))


def report_rows(report: ValidationReport):
    """Rows for CSV/JSON emission of a validation run."""
    columns = ("number", "name", "status", "measured", "tolerance", "runtime_s")
    rows = tuple(
        (r.number, r.name, r.status, r.measured, r.tolerance, float(f"{r.runtime:.3f}"))
        for r in report.results
    )
    return columns, rows
