"""Linear-algebra kernel of the exact oracle and the spectral checks.

The effective theory (bath spectra, rates, Gaussian dynamics) is closed
form and calls none of this.  The exact oracle's vectorized Liouvillians
reach sides of a few thousand at the default dimension cap.  The mode
operators move the left Fock index of a density matrix by at most one,
so a Liouvillian is block tridiagonal (:class:`BlockTridiagonal`), and
its steady state is one block-LU solve (:func:`trace_null_vector`).  The
dense SVD :func:`null_vector` remains for the 4x4 single-TLS generator.
All of this runs on NumPy alone.  :func:`solve_linear` and
:func:`expm_apply` are the generic solve and propagator (dense or sparse)
that tests and benchmark traces hold the closed forms against; only they
use SciPy, imported in their own bodies.
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import NamedTuple

import numpy as np

__all__ = [
    "SingularMatrixError",
    "NoConvergenceError",
    "KernelDimensionError",
    "BlockTridiagonal",
    "solve_linear",
    "eigenvalues",
    "expm_apply",
    "null_vector",
    "trace_null_vector",
]

# Pivot threshold for declaring a linear system singular, relative to the
# max-row-sum norm of the matrix.
PIVOT_RTOL = 1e-14

# Singular values below NULL_RTOL * ||A||_inf count as zero when sizing the
# kernel in null_vector; trace_null_vector refuses condition estimates above
# 1 / NULL_RTOL and relative residuals above NULL_RTOL.
NULL_RTOL = 1e-10

# Smallest normal float: the floor of a scale that must stay positive.
_TINY = sys.float_info.min

# Dense expm is cheaper than the action-only algorithm below this order.
_EXPM_DENSE_MAX = 128

# Iterations of the 1-norm estimator, as in Higham and Tisseur's itmax.
_NORMEST_ITERATIONS = 5


class SingularMatrixError(np.linalg.LinAlgError):
    """Linear system is singular to working precision."""


class NoConvergenceError(np.linalg.LinAlgError):
    """Iterative eigenvalue reduction failed to converge."""


class KernelDimensionError(np.linalg.LinAlgError):
    """Matrix kernel is not one-dimensional."""


class BlockTridiagonal(NamedTuple):
    """Square matrix held as its three block diagonals.

    ``diag`` stacks the ``n`` diagonal blocks, ``(n, b, b)``; ``lower[i]``
    is block ``(i + 1, i)`` and ``upper[i]`` block ``(i, i + 1)``, both
    ``(n - 1, b, b)``.  ``shape`` is the full matrix's.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        side = self.diag.shape[0] * self.diag.shape[1]
        return side, side


def _square(a, stack: bool = False) -> np.ndarray:
    # a square matrix, or with ``stack`` a stack of them (..., n, n)
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or (a.ndim > 2 and not stack) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _check_finite(a) -> None:
    if not np.isfinite(a).all():  # both parts; any memory layout
        raise ValueError("matrix contains non-finite entries")


def _as_matrix(a, stack: bool = False) -> np.ndarray:
    # a finite square matrix, or with ``stack`` a stack of them
    a = _square(a, stack)
    _check_finite(a)
    return a


def solve_linear(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` by LU factorization with partial pivoting.

    ``b`` may be a vector or a matrix of stacked right-hand sides.  Raises
    :class:`SingularMatrixError` when the smallest pivot falls below
    ``1e-14 * ||a||_inf``.
    """
    import scipy.linalg

    a = _as_matrix(a)
    b = np.asarray(b, dtype=complex)
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    norm = np.linalg.norm(a, np.inf) if a.size else 0.0
    with warnings.catch_warnings():
        # the pivot check below turns the condition into a typed raise
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    pivots = np.abs(np.diagonal(lu))
    if norm == 0.0 or pivots.min() < PIVOT_RTOL * norm:
        raise SingularMatrixError(
            f"matrix singular to working precision "
            f"(min pivot {pivots.min() if a.size else 0.0:.3e}, "
            f"threshold {PIVOT_RTOL * norm:.3e})"
        )
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a square complex matrix (unordered), or of each
    matrix of a stack ``(..., n, n)``, as ``(..., n)``."""
    a = _as_matrix(a, stack=True)
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # QR iteration failed
        raise NoConvergenceError(str(exc)) from exc


def expm_apply(a, v, t: float) -> np.ndarray:
    """Apply the propagator ``exp(a * t)`` to a vector ``v``.

    Scaling-and-squaring for small systems, SciPy's action-only algorithm
    for large ones; ``t`` must be nonnegative.  A SciPy sparse ``a`` is
    densified only below the scaling-and-squaring cutoff.
    """
    import scipy.linalg
    import scipy.sparse
    import scipy.sparse.linalg

    if scipy.sparse.issparse(a):
        a = scipy.sparse.csr_array(a, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a.data.view(float))):
            raise ValueError("matrix contains non-finite entries")
        if a.shape[0] <= _EXPM_DENSE_MAX:
            a = a.toarray()
    else:
        a = _as_matrix(a)
    v = np.asarray(v, dtype=complex)
    if v.shape[0] != a.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} vs {v.shape}")
    if t < 0:
        raise ValueError("propagation time must be nonnegative")
    if t == 0.0:
        return v.copy()
    if a.shape[0] <= _EXPM_DENSE_MAX:
        return scipy.linalg.expm(a * t) @ v
    return scipy.sparse.linalg.expm_multiply(a * t, v)


def null_vector(a) -> np.ndarray:
    """Unit-norm spanning vector of a one-dimensional matrix kernel.

    Uses a full SVD so the kernel dimension is measured, not assumed:
    if the two smallest singular values both fall below
    ``1e-10 * ||a||_inf`` the kernel is degenerate, and if the smallest
    one stays above the threshold there is no numerical kernel at all;
    both conditions raise :class:`KernelDimensionError`.  A NaN or
    infinite entry raises :class:`ValueError`.  The kernel and both
    checks are scale-invariant, so ``a`` is first scaled by a power of
    two to a largest entry below 1: a finite matrix near the overflow
    threshold has a finite norm.  The singular values and the threshold
    that an error message quotes are those of the scaled matrix.
    """
    a = _square(a)
    if a.shape[0] < 2:
        raise ValueError("kernel extraction needs at least a 2x2 matrix")
    peak = np.abs(a).max()
    if not math.isfinite(peak):
        # a NaN or inf entry, or finite parts whose modulus overflows
        _check_finite(a)
        peak = max(np.abs(a.real).max(), np.abs(a.imag).max())
    # 2**-e is exact; its exponent stays inside the normal range
    a = a * math.ldexp(1.0, -max(math.frexp(peak)[1], -1022))
    norm = np.abs(a).sum(axis=1).max()
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


class _BlockLU:
    """Block LU factors of a block tridiagonal matrix, without pivoting
    between blocks: pivot blocks ``S_0 = D_0`` and ``S_{i+1} = D_{i+1} -
    L_i S_i^-1 U_i``, held as their inverses, and the multipliers ``W_i =
    L_i S_i^-1``.  An exactly singular or non-finite pivot block raises
    :class:`KernelDimensionError`."""

    def __init__(self, lower, diag, upper):
        self.upper = upper
        self.inv, self.elim = [], []  # one array per block
        pivot = diag[0]
        for i in range(len(diag)):
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
            if i < len(lower):
                self.elim.append(lower[i] @ self.inv[i])
                pivot = diag[i + 1] - self.elim[i] @ upper[i]

    def solve(self, r: np.ndarray) -> np.ndarray:
        """``x`` with ``A x = r``, both ``(n, b)`` or, for ``k`` right-hand
        sides at once, ``(n, b, k)``."""
        inv, elim, upper = self.inv, self.elim, self.upper
        g = np.array(r, dtype=complex)
        for i in range(1, len(g)):
            g[i] -= elim[i - 1] @ g[i - 1]
        g[-1] = inv[-1] @ g[-1]
        for i in range(len(g) - 2, -1, -1):
            g[i] = inv[i] @ (g[i] - upper[i] @ g[i + 1])
        return g

    def solve_transposed(self, r: np.ndarray) -> np.ndarray:
        """``y`` with ``A^T y = r``, both ``(n, b)``, as row vectors against
        the same blocks: the adjoint solve is ``conj(solve_transposed(conj(r)))``,
        so no block is conjugated or copied."""
        inv, elim, upper = self.inv, self.elim, self.upper
        g = np.array(r, dtype=complex)
        g[0] = g[0] @ inv[0]
        for i in range(1, len(g)):
            g[i] = (g[i] - g[i - 1] @ upper[i - 1]) @ inv[i]
        for i in range(len(g) - 2, -1, -1):
            g[i] -= g[i + 1] @ elim[i]
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

    ``a`` holds the three block diagonals of a generator acting on
    row-major vectorized ``d x d`` density matrices; it annihilates the
    trace functional from the left, so its ``rho_00`` row is implied by
    the others.  That row is replaced by the trace functional, scaled to
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
    :class:`KernelDimensionError`, and so does a factor that overflows.
    The estimate (:func:`_inverse_norm_estimate`) repeats exactly and
    leaves NumPy's global random stream alone.
    """
    lower, diag, upper = (np.asarray(x, dtype=complex) for x in a)
    n, b = diag.shape[0], diag.shape[-1]
    off = (max(n - 1, 0), b, b)
    if diag.shape != (n, b, b) or lower.shape != off or upper.shape != off:
        raise ValueError(
            f"expected n diagonal and n - 1 off-diagonal square blocks, got "
            f"{lower.shape}, {diag.shape}, {upper.shape}"
        )
    side = n * b
    d = math.isqrt(side)
    if side == 0 or d * d != side:
        raise ValueError(f"Liouvillian side {side} is not a perfect square")
    # A factor that overflows gives NaN or inf, which the checks below
    # report as typed errors, so floating-point warnings are silenced.
    with np.errstate(all="ignore"):
        # row and column sums of |a|, from one buffer for its three parts;
        # the column sums leave out row 0, which the trace row replaces
        mag = np.abs(diag)
        head = np.zeros(side)  # |a|'s row 0
        head[:b] = mag[0, 0]
        rows = mag.sum(axis=2)
        mag[0, 0] = 0.0
        cols = mag.sum(axis=1)
        mag = np.abs(lower, out=mag[: n - 1])
        rows[1:] += mag.sum(axis=2)
        cols[:-1] += mag.sum(axis=1)
        mag = np.abs(upper, out=mag)
        head[b : 2 * b] = mag[:1, 0].ravel()
        rows[:-1] += mag.sum(axis=2)
        mag[:1, 0] = 0.0
        cols[1:] += mag.sum(axis=1)
        cols = cols.ravel()
        # a NaN or inf entry shows in its row sum (so may a finite overflow)
        if not np.isfinite(rows).all() and not all(
            np.isfinite(x.view(float)).all() for x in (lower, diag, upper)
        ):
            raise ValueError("matrix contains non-finite entries")
        scale = max((cols + head).max(), _TINY)
        trace = np.arange(d) * (d + 1)
        cols[trace] += scale
        outside = trace[trace >= b]  # u's entries, each equal to scale
        diag0 = diag[0].copy()
        diag0[0] = 0.0
        diag0[0, trace[trace < b]] = scale
        upper0 = upper[:1].copy()
        upper0[:, 0] = 0.0
        lu = _BlockLU(lower, [diag0, *diag[1:]], [*upper0, *upper[1:]])
        # z solves the block system for e_0; the estimator's first vector,
        # the ones vector over side, rides along in the same sweep
        rhs = np.zeros((n, b, 2), dtype=complex)
        rhs[0, 0, 0] = 1.0
        rhs[..., 1] = 1.0 / side
        z, first = lu.solve(rhs).reshape(side, 2).T
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
        cond = cols.max() * _inverse_norm_estimate(solve, solve_adjoint, first)
        x = z * (scale / denom)
        xb = x.reshape(n, b, 1)
        ax = (diag @ xb)[..., 0]
        ax[1:] += (lower @ xb[:-1])[..., 0]
        ax[:-1] += (upper @ xb[1:])[..., 0]
        residual = np.abs(ax).max() / (rows.max() * np.abs(x).max())
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
