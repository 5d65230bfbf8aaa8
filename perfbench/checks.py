"""Correctness checks on the outputs of one benchmark pass.

An operation is one output row: a grid row, a tau sample, an oracle row or
a quadrature component.  It fails when its task raised a typed error,
when the row is missing, when it breaks a physical check that holds for
any seed, or, at the default seed, when it disagrees with the reference
rows recorded in ``reference.json``.

Reference rows: verdicts, flags, Fock dimensions and sentinel strings
must match exactly on every row; floats must agree within a relative
1e-9 on a fixed sample of rows.  That tolerance admits a closed-form
replacement of the numerical eigensolve (measured deviation 1.7e-11).
Columns computed by cancellation are held to 1e-4 instead, see
``CANCELLATION_COLUMNS``.
"""

from __future__ import annotations

import json
import math

UNSTABLE = "unstable"

OCCUPATION_ATOL = 1e-9  # centred occupation >= -1e-9
HEISENBERG_ATOL = 1e-9  # det sigma >= 1/4 - 1e-9
G1_ATOL = 1e-9  # |g1| <= 1 + 1e-9
G1_ZERO_ATOL = 1e-12  # g1(0) = 1
ORACLE_REL_MAX = 0.05  # criterion 10, at coupling ratios <= 0.01
ORACLE_SMALL_RATIO = 0.01
QUADRATURE_ATOL = 1e-8  # criterion 11

REFERENCE_RTOL = 1e-9
REFERENCE_STRIDE = 100  # every 100th row of a task, and its last, keeps its floats
# Floats far below their column's scale (an exact 0.0 against 1e-25,
# say) compare on that scale: the tolerance never falls below rtol times
# this share of the largest magnitude in the column.
REFERENCE_SCALE_SHARE = 1e-3

# Small differences of large, nearly equal numbers: the centred occupation
# <s+ s> - |<s>|^2 (moments reach 1e8 here), the variances, det sigma and
# xi built on it, and the oracle's relative errors.  A one-ulp change in
# the moments moves them far beyond 1e-9: running BLAS on one thread
# instead of two moved the centred occupation by up to 1.2e-5 relative
# and det sigma by 4e-7, while no other column moved by more than 1e-12.
CANCELLATION_RTOL = 1e-4
CANCELLATION_COLUMNS = frozenset({
    "centered_occupation", "xi", "xi_no_pair_pumping", "var_x", "var_p",
    "det_sigma", "occupation_rel_err", "amplitude_rel_err", "pair_rel_err",
})


def _finite(row) -> bool:
    return all(math.isfinite(v) for v in row if isinstance(v, float))


def _check_map(columns, rows) -> set:
    s, c = columns.index("stable"), columns.index("stable_criterion")
    return {i for i, row in enumerate(rows) if row[s] != row[c] or not _finite(row)}


def _check_steady_state(columns, rows) -> set:
    n_c = columns.index("centered_occupation")
    bad = set()
    for i, row in enumerate(rows):
        if row[-1] == 1:
            ok = _finite(row) and row[n_c] >= -OCCUPATION_ATOL
        else:
            ok = row[-1] == 0 and all(v == UNSTABLE for v in row[1:-1])
        if not ok:
            bad.add(i)
    return bad


def _check_squeezing(columns, rows) -> set:
    xi, det = columns.index("xi"), columns.index("det_sigma")
    bad = set()
    for i, row in enumerate(rows):
        if row[xi] == UNSTABLE:
            ok = row[-1] == 0 and all(v == UNSTABLE for v in row[1:-1])
        else:
            ok = _finite(row) and row[det] >= 0.25 - HEISENBERG_ATOL
        if not ok:
            bad.add(i)
    return bad


def _check_coherence(columns, rows) -> set:
    re, im = columns.index("g1_re"), columns.index("g1_im")
    bad = set()
    for i, row in enumerate(rows):
        if any(isinstance(v, str) for v in row) or not _finite(row):
            bad.add(i)
            continue
        g1 = complex(row[re], row[im])
        ok = abs(g1) <= 1.0 + G1_ATOL
        if row[0] == 0.0:
            ok = ok and abs(g1 - 1.0) <= G1_ZERO_ATOL
        if not ok:
            bad.add(i)
    return bad


def _check_oracle_row(columns, rows) -> set:
    return set() if _finite(rows[0]) else {0}


def _check_quadrature(columns, rows) -> set:
    p_re, p_im, q_re, q_im = rows[0]
    dev = abs(complex(p_re, p_im) - complex(q_re, q_im))
    return set() if dev < QUADRATURE_ATOL else {0}


_ROW_CHECKS = {
    "stability-map": _check_map,
    "steady-state": _check_steady_state,
    "squeezing": _check_squeezing,
    "coherence": _check_coherence,
    "oracle-validate": _check_oracle_row,
}


def _oracle_deviation(result) -> float:
    row, cols = result.rows[0], result.columns
    return max(row[cols.index(c)] for c in
               ("occupation_rel_err", "amplitude_rel_err", "pair_rel_err"))


def _check_oracle_group(results) -> set:
    """Criterion 10 across the ratio rows: small at ratio 0.01, monotone.

    Returns the labels of the rows that break it; a row whose deviation
    exceeds that of the next larger ratio is the one that fails.
    """
    done = [r for r in results
            if r.task.scenario == "oracle-validate" and r.rows and _finite(r.rows[0])]
    done.sort(key=lambda r: r.rows[0][0], reverse=True)
    bad = set()
    for prev, cur in zip(done, done[1:]):
        if _oracle_deviation(cur) > _oracle_deviation(prev):
            bad.add(cur.task.label)
    for r in done:
        if r.rows[0][0] <= ORACLE_SMALL_RATIO and not _oracle_deviation(r) < ORACLE_REL_MAX:
            bad.add(r.task.label)
    return bad


def failed_rows(result) -> set:
    """Rows of one task that fail its own checks (all of them if it raised)."""
    task = result.task
    if result.rows is None:
        return set(range(task.ops))
    n = len(result.rows)
    bad = set(range(min(n, task.ops), max(n, task.ops)))  # missing or extra rows
    check = _check_quadrature if task.kind == "quadrature" else _ROW_CHECKS[task.scenario]
    return bad | check(result.columns, result.rows)


def check_pass(results, reference=None) -> tuple[int, int, list]:
    """(attempted, failed, messages) for one pass's task results."""
    oracle_bad = _check_oracle_group(results)
    attempted = failed = 0
    messages = []
    for result in results:
        label = result.task.label
        bad = failed_rows(result)
        if label in oracle_bad:
            bad.add(0)
        if reference is not None and result.rows is not None:
            bad |= compare_reference(result, reference.get(label))
        attempted += max(result.task.ops, len(result.rows or ()))
        failed += len(bad)
        if bad:
            why = result.error or f"rows {sorted(bad)[:5]}"
            messages.append(f"{label}: {len(bad)} failed ({why})")
    return attempted, failed, messages


# -- reference rows ---------------------------------------------------------

def _signature(row) -> str:
    # Everything but the floats: verdicts, flags, dimensions, sentinels.
    return json.dumps([v for v in row if not isinstance(v, float)])


def _sample_indices(n: int) -> list:
    return sorted(set(range(0, n, REFERENCE_STRIDE)) | ({n - 1} if n else set()))


def reference_entry(result) -> dict:
    """Reference data for one task: run-length signatures plus sample rows."""
    codes, runs = [], []
    for row in result.rows:
        sig = _signature(row)
        if sig not in codes:
            codes.append(sig)
        k = codes.index(sig)
        if runs and runs[-1][0] == k:
            runs[-1][1] += 1
        else:
            runs.append([k, 1])
    return {
        "columns": list(result.columns),
        "codes": codes,
        "runs": runs,
        "samples": {str(i): list(result.rows[i]) for i in _sample_indices(len(result.rows))},
    }


def _scale_key(column: str) -> str:
    # Real and imaginary parts of one complex value share a scale.
    for suffix in ("_re", "_im", "_abs"):
        if column.endswith(suffix):
            return column[: -len(suffix)]
    return column


def compare_reference(result, entry) -> set:
    """Rows of ``result`` that disagree with the reference entry."""
    if entry is None or list(result.columns) != entry["columns"]:
        return set(range(len(result.rows)))
    expected = [entry["codes"][k] for k, count in entry["runs"] for _ in range(count)]
    bad = {i for i, row in enumerate(result.rows)
           if i >= len(expected) or _signature(row) != expected[i]}
    bad |= set(range(len(result.rows), len(expected)))
    scale: dict = {}
    for row in entry["samples"].values():
        for col, v in zip(entry["columns"], row):
            if isinstance(v, float) and math.isfinite(v):
                key = _scale_key(col)
                scale[key] = max(scale.get(key, 0.0), abs(v))
    for key, want in entry["samples"].items():
        i = int(key)
        if i >= len(result.rows):
            continue
        for col, got, ref in zip(entry["columns"], result.rows[i], want):
            rtol = CANCELLATION_RTOL if col in CANCELLATION_COLUMNS else REFERENCE_RTOL
            if isinstance(ref, float) != isinstance(got, float):
                bad.add(i)
            elif isinstance(ref, float) and not math.isclose(
                got, ref, rel_tol=rtol,
                abs_tol=rtol * REFERENCE_SCALE_SHARE * scale.get(_scale_key(col), 0.0),
            ):
                bad.add(i)
    return bad
