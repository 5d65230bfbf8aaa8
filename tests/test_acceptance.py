"""Acceptance gate: every numbered criterion at its stated tolerance.

Runs the full suite once and emits one pass/fail line per criterion
(pytest -s shows them; any failure carries its line in the assertion),
then once more under call counters.
"""

import collections

import pytest
from test_grid import _assert_round_trip

from tlsbath import sweeps, validation
from tlsbath.config import resolve
from tlsbath.validation import report_rows, validate_all

EXPECTED = 12

# The measured strings of the criteria that run the closed-form chain,
# pinned, so that a change to a value the chain computes, or to the points
# a criterion evaluates, shows here.  Criteria 10 and 11 go through the
# block-LU steady state and the 4x4 resolvent solve and keep their gate only.
MEASURED = {
    1: "max |g|, |Gamma|, |drive shift| = 0.00e+00",
    2: "gamma = 3.999992e-07 vs 4.0e-07, rel dev 2.00e-06",
    3: (
        "Gamma rel dev 1.00e-06; |gamma| = 4.00e-19 (1.0e-12 of weak-drive), "
        "|delta| = 0.00e+00 (0.0e+00)"
    ),
    4: "max rel deviation 3.25e-13 over 303 grid points",
    5: "peak saturation 0.999999993; drive 2x: peak dev 0.00 steps; drive 4x: peak dev 0.15 steps",
    6: "drive 10x: |dev| = 1.00 steps; drive 30x: |dev| = 0.00 steps",
    7: "window [0.202 kappa_t, 0.9840 Omega_B], 2 sign changes",
    8: (
        "0 verdict disagreements on 100x100 grid; 0 with the numerical eigensolve; "
        "14 unstable cells at gamma_0 = 3e-8, 0 at gamma_0 >= 1e-6; "
        "88 of 100 stable at Delta_0 = 1e-8"
    ),
    9: "xi > 1 around s = 0.1: True; max xi full 1.0471 vs pair-pumping-free 1.2140",
    12: "1000 stable states; min det sigma - 1/4 = 1.82e-13, min centered occupation = 1.82e-13",
}


@pytest.fixture(scope="module")
def report():
    return validate_all()


def test_suite_is_complete(report):
    numbers = [r.number for r in report.results]
    assert numbers == list(range(1, EXPECTED + 1))


@pytest.mark.parametrize("number", range(1, EXPECTED + 1))
def test_criterion(report, number):
    result = next(r for r in report.results if r.number == number)
    print(result.line())
    assert result.passed, result.line()


@pytest.mark.parametrize("number", sorted(MEASURED))
def test_measured_is_pinned(report, number):
    result = next(r for r in report.results if r.number == number)
    assert result.measured == MEASURED[number]


def test_overall_verdict(report):
    assert report.all_passed
    assert len(report.lines()) == EXPECTED


# The criteria that carry a wall-clock budget, and the rest.
BUDGETED = (1, 2, 4, 8, 10, 11)
UNBUDGETED = (3, 5, 6, 7, 9, 12)


def test_dimension_cap_skips_the_oracle_criterion():
    """A cap too small for the oracle's Fock space is a skip with its
    reason, keeps the criterion's budget, and fails the suite."""
    report = validate_all(resolve({"oracle": {"dim_cap": "16"}}))
    result = report.results[9]
    assert (result.number, result.status, result.budget) == (10, "skip", 60.0)
    assert result.measured.startswith("dimension cap:")
    assert "[SKIP] 10 oracle-equivalence" in result.line()
    assert not report.all_passed


class _SlowClock:
    """A stand-in for the ``time`` module whose clock moves 100 s a read."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        self.now += 100.0
        return self.now


def test_budget_overrun_fails_only_budgeted_criteria(monkeypatch):
    """Every criterion is timed: past its budget it fails with the
    overrun appended to what it measured; without a budget it passes."""
    monkeypatch.setattr(validation, "time", _SlowClock())
    results = {r.number: r for r in validate_all().results}
    for number in BUDGETED:
        r = results[number]
        assert r.status == "fail", r.line()
        assert r.runtime == 100.0
        assert r.measured.endswith("; runtime 100.00s exceeded budget"), r.line()
    for number in UNBUDGETED:
        r = results[number]
        assert r.status == "pass" and r.budget is None, r.line()
        assert "exceeded budget" not in r.measured
    assert results[12].measured == MEASURED[12]


def test_report_table_round_trips(report):
    """The `validate-all` table, whose measured values hold commas, parses
    back from its CSV and its JSON."""
    columns, rows = report_rows(report)
    assert any("," in row[3] for row in rows)
    _assert_round_trip(sweeps.SweepResult.from_rows("validate-all", columns, rows, ()))


def test_criteria_call_the_chain_once_per_line(monkeypatch):
    """Each line or grid of points is one batched call of the rate and
    moment chain, not one call per point: the whole suite makes fewer
    than 30 rate calls (criterion 5's bracket zoom makes eight of them)
    and fewer than 20 of each stability, steady-state and eigensolve call."""
    calls = collections.Counter()

    def count(module, name):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(sweeps, "single_mode_rates")
    for name in ("stability", "steady_state", "eigenvalues"):
        count(validation, name)
    assert validate_all().all_passed
    assert calls["single_mode_rates"] < 30, calls
    assert all(calls[name] < 20 for name in ("stability", "steady_state", "eigenvalues")), calls
