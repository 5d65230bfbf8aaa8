"""Linear-algebra kernel of the exact oracle and the spectral checks.

The effective theory (bath spectra, rates, Gaussian dynamics) is closed form
and calls none of this; :func:`solve_linear` and :func:`expm_apply` are
kept as the generic solve and propagator (dense or sparse) that tests and
benchmark traces hold the closed forms against.  Vectorized Liouvillians
reach sides of a few thousand at the default dimension cap and are
sparse: their steady state is one sparse LU solve
(:func:`trace_null_vector`).  The dense SVD
:func:`null_vector` remains for the 4x4 single-TLS generator and as the
reference the sparse kernel is tested against.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

__all__ = [
    "SingularMatrixError",
    "NoConvergenceError",
    "KernelDimensionError",
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

# Dense expm is cheaper than the action-only algorithm below this order.
_EXPM_DENSE_MAX = 128


class SingularMatrixError(np.linalg.LinAlgError):
    """Linear system is singular to working precision."""


class NoConvergenceError(np.linalg.LinAlgError):
    """Iterative eigenvalue reduction failed to converge."""


class KernelDimensionError(np.linalg.LinAlgError):
    """Matrix kernel is not one-dimensional."""


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix contains non-finite entries")
    return a


def _as_sparse(a) -> scipy.sparse.csr_array:
    a = scipy.sparse.csr_array(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.data.view(float))):
        raise ValueError("matrix contains non-finite entries")
    return a


def solve_linear(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` by LU factorization with partial pivoting.

    ``b`` may be a vector or a matrix of stacked right-hand sides.  Raises
    :class:`SingularMatrixError` when the smallest pivot falls below
    ``1e-14 * ||a||_inf``.
    """
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
    """All eigenvalues of a square complex matrix (unordered)."""
    a = _as_matrix(a)
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # QR iteration failed
        raise NoConvergenceError(str(exc)) from exc


def expm_apply(a, v, t: float) -> np.ndarray:
    """Apply the propagator ``exp(a * t)`` to a vector ``v``.

    Scaling-and-squaring for small systems, the action-only algorithm for
    large ones; ``t`` must be nonnegative.  A sparse ``a`` is densified only
    below the scaling-and-squaring cutoff.
    """
    if scipy.sparse.issparse(a):
        a = _as_sparse(a)
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
    both conditions raise :class:`KernelDimensionError`.
    """
    a = _as_matrix(a)
    if a.shape[0] < 2:
        raise ValueError("kernel extraction needs at least a 2x2 matrix")
    norm = np.linalg.norm(a, np.inf)
    _, sing, vh = np.linalg.svd(a)
    tol = NULL_RTOL * max(norm, np.finfo(float).tiny)
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


def trace_null_vector(a) -> np.ndarray:
    """Unit-trace kernel vector of a vectorized Liouvillian.

    ``a`` (sparse or dense) acts on row-major vectorized ``d x d`` density
    matrices and annihilates the trace functional from the left, so its
    ``rho_00`` row is implied by the others.  That row is replaced by the
    trace functional, scaled to ``||a||_1``, and the system is factored
    once by sparse LU and solved for unit trace.  The kernel-dimension
    contract of :func:`null_vector` is kept: an exactly singular factor, a
    1-norm condition estimate above ``1 / NULL_RTOL`` (degenerate kernel)
    and a relative residual ``||a x||_inf / (||a||_inf ||x||_inf)`` above
    ``NULL_RTOL`` (no kernel) each raise :class:`KernelDimensionError`.
    """
    a = _as_sparse(a)
    side = a.shape[0]
    d = math.isqrt(side)
    if side == 0 or d * d != side:
        raise ValueError(f"Liouvillian side {side} is not a perfect square")
    scale = max(scipy.sparse.linalg.norm(a, 1), np.finfo(float).tiny)
    diagonal = np.arange(d) * (d + 1)
    trace = scipy.sparse.csr_array(
        (np.full(d, scale, dtype=complex), (np.zeros(d, dtype=int), diagonal)),
        shape=(1, side),
    )
    m = scipy.sparse.vstack([trace, a[1:]], format="csc")
    try:
        lu = scipy.sparse.linalg.splu(m)
    except RuntimeError as exc:  # SuperLU met an exactly zero pivot
        raise KernelDimensionError(
            f"kernel dimension >= 2: the trace-row system is exactly singular ({exc})"
        ) from exc
    inverse = scipy.sparse.linalg.LinearOperator(
        m.shape,
        matvec=lu.solve,
        rmatvec=lambda y: lu.solve(y, trans="H"),
        dtype=complex,
    )
    cond = scipy.sparse.linalg.norm(m, 1) * scipy.sparse.linalg.onenormest(inverse)
    if not cond <= 1.0 / NULL_RTOL:
        raise KernelDimensionError(
            f"kernel dimension >= 2: condition estimate {cond:.3e} of the "
            f"trace-row system exceeds {1.0 / NULL_RTOL:.3e}"
        )
    rhs = np.zeros(side, dtype=complex)
    rhs[0] = scale
    x = lu.solve(rhs)
    residual = np.abs(a @ x).max() / (
        scipy.sparse.linalg.norm(a, np.inf) * np.abs(x).max()
    )
    if not residual <= NULL_RTOL:
        raise KernelDimensionError(
            f"no numerical kernel: relative residual {residual:.3e} "
            f"exceeds {NULL_RTOL:.3e}"
        )
    return x
