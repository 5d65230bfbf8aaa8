"""Linear-algebra kernel of the exact oracle and the spectral checks.

The effective theory calls none of this.  The exact oracle's vectorized
Liouvillians reach sides of a few thousand, a few percent of their
entries nonzero at most, and those entries lie on three block diagonals
over the mode's left Fock index (:class:`BlockTridiagonal`).  Their
steady state is one block-LU solve that keeps only its pivot inverses
dense (:func:`trace_null_vector`); the dense SVD :func:`null_vector`
takes the 4x4 single-TLS generator; all of it runs on NumPy alone.
No library code calls :func:`solve_linear` or :func:`expm_apply`, the
generic solve and propagator that tests hold the closed forms against;
they stay as entry points because the benchmark's traced run wraps them
by name.  Only :func:`expm_apply` uses SciPy, imported in its body.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

__all__ = [
    "NoConvergenceError",
    "KernelDimensionError",
    "BlockTridiagonal",
    "solve_linear",
    "eigenvalues",
    "expm_apply",
    "null_vector",
    "trace_null_vector",
]

# Singular values below NULL_RTOL * ||A||_inf count as zero when sizing the
# kernel in null_vector; trace_null_vector refuses condition estimates above
# 1 / NULL_RTOL and relative residuals above NULL_RTOL.
NULL_RTOL = 1e-10

# Smallest normal float: the floor of a scale that must stay positive.
_TINY = sys.float_info.min

# Largest entry moduli that null_vector takes unscaled: its row sums stay
# finite and its threshold a normal float.
_SAFE_PEAK = (1e-100, 1e100)

# Iterations of the 1-norm estimator, as in Higham and Tisseur's itmax.
_NORMEST_ITERATIONS = 5


class NoConvergenceError(np.linalg.LinAlgError):
    """Iterative eigenvalue reduction failed to converge."""


class KernelDimensionError(np.linalg.LinAlgError):
    """Matrix kernel is not one-dimensional."""


class BlockTridiagonal(NamedTuple):
    """Square matrix of side ``side`` as its nonzero entries ``vals[k]`` at
    ``(rows[k], cols[k])``, in row-major order, each position once.  Cut into
    square blocks of side ``block``, it vanishes off the three block diagonals."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    side: int
    block: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.side, self.side


def _square(a, stack: bool = False, finite: bool = True) -> np.ndarray:
    # a square matrix, or with ``stack`` a stack of them (..., n, n),
    # refused for a NaN or inf entry unless ``finite`` is false
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or (a.ndim > 2 and not stack) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if finite:
        _check_finite(a)
    return a


def _check_finite(a) -> None:
    if not np.isfinite(a).all():  # both parts; any memory layout
        raise ValueError("matrix contains non-finite entries")


def solve_linear(a, b) -> np.ndarray:
    """``x`` with ``a @ x = b``: :func:`numpy.linalg.solve`, whose
    :class:`numpy.linalg.LinAlgError` marks an exactly singular ``a``.

    No library code calls it; the benchmark's traced run wraps it by name.
    """
    return np.linalg.solve(a, b)


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a square complex matrix (unordered), or of each
    matrix of a stack ``(..., n, n)``, as ``(..., n)``."""
    a = _square(a, stack=True)
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # QR iteration failed
        raise NoConvergenceError(str(exc)) from exc


def expm_apply(a, v, t: float) -> np.ndarray:
    """``exp(a t) @ v`` by SciPy's dense :func:`scipy.linalg.expm`.

    No library code calls it; the benchmark's traced run wraps it by name.
    """
    import scipy.linalg

    return scipy.linalg.expm(a * t) @ v


def null_vector(a) -> np.ndarray:
    """Unit-norm spanning vector of a one-dimensional matrix kernel.

    Uses a full SVD so the kernel dimension is measured, not assumed:
    if the two smallest singular values both fall below
    ``1e-10 * ||a||_inf`` the kernel is degenerate, and if the smallest
    one stays above the threshold there is no numerical kernel at all;
    both conditions raise :class:`KernelDimensionError`.  A NaN or
    infinite entry raises :class:`ValueError`.  The kernel and both
    checks are scale-invariant, so a matrix whose largest entry modulus
    is not finite or lies outside [1e-100, 1e100] is first scaled by a
    power of two to a largest entry below 1: a finite matrix near the
    overflow threshold has a finite norm.  The singular values and the
    threshold that an error message quotes are those of ``a`` itself, or
    of the scaled matrix where ``a`` was scaled.
    """
    a = _square(a, finite=False)
    if a.shape[0] < 2:
        raise ValueError("kernel extraction needs at least a 2x2 matrix")
    mag = np.abs(a)
    peak = mag.max()
    if not _SAFE_PEAK[0] <= peak <= _SAFE_PEAK[1]:
        if not math.isfinite(peak):
            # a NaN or inf entry, or finite parts whose modulus overflows
            _check_finite(a)
            peak = max(np.abs(a.real).max(), np.abs(a.imag).max())
        # 2**-e is exact; its exponent stays inside the normal range
        a = a * math.ldexp(1.0, -max(math.frexp(peak)[1], -1022))
        mag = np.abs(a)
    norm = mag.sum(axis=1).max()
    _, sing, vh = np.linalg.svd(a)
    tol = NULL_RTOL * max(norm, _TINY)
    if sing[-1] > tol:
        raise KernelDimensionError(
            f"no numerical kernel: smallest singular value {sing[-1]:.3e} "
            f"exceeds {tol:.3e}"
        )
    if sing[-2] <= tol:
        raise KernelDimensionError(
            f"kernel dimension >= 2: singular values "
            f"{sing[-2]:.3e}, {sing[-1]:.3e} both below {tol:.3e}"
        )
    return vh[-1].conj()


def _padded(group, index, vals, n: int, b: int):
    """Entries grouped by ``group``, sorted in ``[0, n b)``, as ``n`` pairs of
    index and value arrays ``(k, b)``: slot ``j`` of group ``i b + r`` is at
    ``[j, r]`` of pair ``i``, and empty slots hold index 0 and value 0."""
    counts = np.bincount(group, minlength=n * b)
    slot = np.arange(group.size) - (np.cumsum(counts) - counts)[group]
    idx = np.zeros((max(counts.max(initial=0), 1), n * b), dtype=np.intp)
    val = np.zeros(idx.shape, dtype=complex)
    idx[slot, group], val[slot, group] = index, vals
    return list(zip(*(x.reshape(len(x), n, b).transpose(1, 0, 2) for x in (idx, val))))


def _gather(x: np.ndarray, idx: np.ndarray, val: np.ndarray) -> np.ndarray:
    """``x @ M`` for a block ``M`` padded by columns, ``(M x^T)^T`` by rows."""
    x = x.take(idx, axis=-1)
    x *= val
    return np.add.reduce(x, axis=-2)


class _BlockLU:
    """Block LU factors, without pivoting between blocks, of a block
    tridiagonal matrix given by its entries in row-major order.  Pivots
    ``S_0 = D_0 + pivot`` (``pivot`` is overwritten) and ``S_{i+1} =
    D_{i+1} - L_i S_i^-1 U_i`` are built one at a time and held as their
    inverses, the only dense storage; the off-diagonal blocks are padded
    by rows and by columns (:func:`_padded`) and multiply by gathers.  An
    exactly singular or non-finite pivot raises :class:`KernelDimensionError`."""

    def __init__(self, rows, cols, vals, n: int, b: int, pivot: np.ndarray):
        offset = cols // b - rows // b
        lo, up = offset == -1, offset == 1
        self.lower = _padded(rows[lo] - b, cols[lo] % b, vals[lo], n - 1, b)
        self.upper = _padded(rows[up], cols[up] % b, vals[up], n - 1, b)
        lo, up = (np.flatnonzero(m)[np.argsort(cols[m], kind="stable")] for m in (lo, up))
        self.lower_t = _padded(cols[lo], rows[lo] % b, vals[lo], n - 1, b)
        self.upper_t = _padded(cols[up] - b, rows[up] % b, vals[up], n - 1, b)
        dg = np.flatnonzero(offset == 0)
        flat, v = rows[dg] % b * b + cols[dg] % b, vals[dg]
        ends = np.searchsorted(rows[dg], np.arange(n + 1) * b)
        self.inv = []  # one dense array per block
        for i in range(n):
            pivot.reshape(-1)[flat[ends[i] : ends[i + 1]]] += v[ends[i] : ends[i + 1]]
            if not np.isfinite(pivot).all():
                raise KernelDimensionError(
                    f"the trace-row system overflows: block pivot {i} is not finite"
                )
            try:
                self.inv.append(np.linalg.inv(pivot))
            except np.linalg.LinAlgError as exc:
                raise KernelDimensionError(
                    f"kernel dimension >= 2: the trace-row system is exactly "
                    f"singular (block pivot {i})"
                ) from exc
            if i < n - 1:  # -L_i (S_i^-1 U_i), one padded slot at a time
                idx, val = self.upper_t[i]
                p = self.inv[i].take(idx[0], axis=1) * val[0]
                for k, w in zip(idx[1:], val[1:]):
                    p += self.inv[i].take(k, axis=1) * w
                idx, val = self.lower[i]
                pivot = p.take(idx[0], axis=0) * -val[0, :, None]
                for k, w in zip(idx[1:], val[1:]):
                    pivot -= p.take(k, axis=0) * w[:, None]

    def solve(self, r: np.ndarray) -> np.ndarray:
        """``x`` with ``A x = r``, both ``(n, b)`` or, for ``k`` right-hand
        sides at once, ``(n, k, b)``, each right-hand side a row."""
        inv, lower, upper = self.inv, self.lower, self.upper
        g = np.array(r, dtype=complex)
        for i in range(1, len(g)):
            g[i - 1] = g[i - 1] @ inv[i - 1].T
            g[i] -= _gather(g[i - 1], *lower[i - 1])
        g[-1] = g[-1] @ inv[-1].T
        for i in range(len(g) - 2, -1, -1):
            g[i] -= _gather(g[i + 1], *upper[i]) @ inv[i].T
        return g

    def solve_transposed(self, r: np.ndarray) -> np.ndarray:
        """``y`` with ``A^T y = r``, both ``(n, b)``: the adjoint solve is
        ``conj(solve_transposed(conj(r)))``, so no block is conjugated."""
        inv, lower_t, upper_t = self.inv, self.lower_t, self.upper_t
        g = np.array(r, dtype=complex)
        t = g[0] @ inv[0]
        for i in range(1, len(g)):
            g[i] -= _gather(t, *upper_t[i - 1])
            t = g[i] @ inv[i]
        g[-1] = t
        for i in range(len(g) - 2, -1, -1):
            g[i] = (g[i] - _gather(g[i + 1], *lower_t[i])) @ inv[i]
        return g


def _inverse_norm_estimate(solve, solve_adjoint, y: np.ndarray) -> float:
    """Lower bound on ``||A^-1||_1`` from solves with ``A`` and ``A^H``.

    Hager's estimator as Higham and Tisseur's block algorithm runs it with
    one column (SIAM J. Matrix Anal. Appl. 21, 1185 (2000), Algorithm 2.4
    at t = 1).  ``y`` is its first product, ``A^-1`` applied to the ones
    vector over its length, so the estimate draws no random numbers and
    repeats exactly; it stops at the first estimate that does not
    increase.  A NaN estimate is returned as NaN.
    """
    side = y.size
    est, best = 0.0, -1
    for k in range(_NORMEST_ITERATIONS + 1):
        if k:
            y = solve(x)
        new = np.abs(y).sum()
        if k and new <= est:
            break
        est = new
        if k == _NORMEST_ITERATIONS:
            break
        y[y == 0] = 1.0
        z = np.abs(solve_adjoint(y / np.abs(y)))
        j = int(z.argmax())
        if k and z[j] == z[best]:
            break
        best = j
        x = np.zeros(side, dtype=complex)
        x[j] = 1.0
    return float(est)


def trace_null_vector(a: BlockTridiagonal) -> np.ndarray:
    """Unit-trace kernel vector of a vectorized Liouvillian.

    ``a`` holds the nonzero entries of a generator acting on row-major
    vectorized ``d x d`` density matrices; it annihilates the trace
    functional from the left, so its ``rho_00`` row is implied by the
    others.  That row is replaced by the trace functional, scaled to
    ``||a||_1``.  The trace entries in block 0 keep the system block
    tridiagonal, and those outside it add a rank-one term ``e_0 u^T``,
    taken by Sherman and Morrison: with ``z`` the block system's solution
    for ``e_0``, the kernel vector is ``scale z / (1 + u.z)``.  The block
    system is singular only where that vector's block-0 trace is zero,
    and it is factored once by block LU (:class:`_BlockLU`).

    The kernel-dimension contract of :func:`null_vector` is kept: an
    exactly singular pivot block or a zero Sherman-Morrison denominator,
    a 1-norm condition estimate of the trace-row system above ``1 /
    NULL_RTOL`` (degenerate kernel) and a relative residual ``||a x||_inf
    / (||a||_inf ||x||_inf)`` above ``NULL_RTOL`` (no kernel) each raise
    :class:`KernelDimensionError`, and so does a factor that overflows;
    entries off the block diagonals or out of order, or non-finite,
    raise :class:`ValueError`.  The estimate (:func:`_inverse_norm_estimate`)
    repeats exactly and leaves NumPy's global random stream alone.
    """
    side, b = int(a.side), int(a.block)
    rows, cols = (np.asarray(x, dtype=np.intp).ravel() for x in a[:2])
    vals = np.asarray(a.vals, dtype=complex).ravel()
    d, n = math.isqrt(side), side // max(b, 1)
    if side <= 0 or d * d != side:
        raise ValueError(f"Liouvillian side {side} is not a perfect square")
    if b <= 0 or side % b or not rows.size == cols.size == vals.size:
        raise ValueError(f"expected entries of a side-{side} matrix cut into blocks of side {b}")
    if rows.size and not (0 <= min(rows.min(), cols.min()) <= max(rows.max(), cols.max()) < side
                          and np.abs(cols // b - rows // b).max() <= 1):
        raise ValueError(f"an entry lies outside the three block diagonals of side {b}")
    if not (np.diff(rows * side + cols) > 0).all():
        raise ValueError("entries are not in row-major order, each position once")
    _check_finite(vals)
    # A factor that overflows gives NaN or inf, which the checks below
    # report as typed errors, so floating-point warnings are silenced.
    with np.errstate(all="ignore"):
        # |a|'s row sums, and the trace-row system's column sums: row 0's
        # entries, a prefix, give way to the trace functional
        mag = np.abs(vals)
        scale = max(np.bincount(cols, mag, side).max(), _TINY)
        head = np.searchsorted(rows, 1)
        col_sums = np.bincount(cols[head:], mag[head:], side)
        trace = np.arange(d) * (d + 1)
        col_sums[trace] += scale
        outside = trace[trace >= b]  # u's entries, each equal to scale
        pivot = np.zeros((b, b), dtype=complex)
        pivot[0, trace[trace < b]] = scale
        lu = _BlockLU(rows[head:], cols[head:], vals[head:], n, b, pivot)
        # z solves the block system for e_0; the estimator's first vector,
        # the ones vector over side, rides along in the same sweep
        rhs = np.zeros((n, 2, b), dtype=complex)
        rhs[0, 0, 0] = 1.0
        rhs[:, 1] = 1.0 / side
        z, first = lu.solve(rhs).transpose(1, 0, 2).reshape(2, side)
        denom = 1.0 + scale * z[outside].sum()
        if denom == 0.0:
            raise KernelDimensionError(
                "kernel dimension >= 2: the trace-row system is exactly singular "
                "(zero Sherman-Morrison denominator)"
            )
        u = np.zeros(side)
        u[outside] = scale

        def solve(v):  # the trace-row system's inverse, applied to v
            y = lu.solve(v.reshape(n, b)).ravel()
            return y - z * (u @ y / denom)

        def solve_adjoint(w):  # its adjoint: M0^-H (w - u z^H w / conj(denom))
            w = w - u * (np.vdot(z, w) / np.conj(denom))
            return lu.solve_transposed(w.conj().reshape(n, b)).conj().ravel()

        first -= z * (u @ first / denom)
        cond = col_sums.max() * _inverse_norm_estimate(solve, solve_adjoint, first)
        x = z * (scale / denom)
        ax = vals * x[cols]
        ax = np.bincount(rows, ax.real, side) + 1j * np.bincount(rows, ax.imag, side)
        residual = np.abs(ax).max() / (np.bincount(rows, mag, side).max() * np.abs(x).max())
    if not cond <= 1.0 / NULL_RTOL:
        raise KernelDimensionError(
            f"kernel dimension >= 2: condition estimate {cond:.3e} of the "
            f"trace-row system exceeds {1.0 / NULL_RTOL:.3e}"
        )
    if not residual <= NULL_RTOL:
        raise KernelDimensionError(
            f"no numerical kernel: relative residual {residual:.3e} "
            f"exceeds {NULL_RTOL:.3e}"
        )
    return x
