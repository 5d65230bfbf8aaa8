"""Matrix forms of the exact oracle's block-tridiagonal Liouvillians, for
the tests: the full matrix of the block diagonals, a matrix cut into
blocks, and the SuperLU solve of the stacked trace-row system that the
library's block kernel replaced, kept as its reference."""

import math

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from tlsbath.linalg import BlockTridiagonal


def dense(liou) -> np.ndarray:
    """The full matrix of a :class:`BlockTridiagonal`."""
    lower, diag, upper = liou
    n, b = diag.shape[:2]
    out = np.zeros((n, b, n, b), dtype=complex)
    i = np.arange(n)
    out[i, :, i, :] = diag
    out[i[1:], :, i[:-1], :] = lower
    out[i[:-1], :, i[1:], :] = upper
    return out.reshape(n * b, n * b)


def as_blocks(a, n: int = 1) -> BlockTridiagonal:
    """A dense or SciPy sparse matrix cut into ``n`` x ``n`` square blocks,
    which must vanish off the three block diagonals."""
    a = a.toarray() if scipy.sparse.issparse(a) else np.asarray(a)
    b = a.shape[0] // n
    grid = a.reshape(n, b, n, b).transpose(0, 2, 1, 3)
    i = np.arange(n)
    out = BlockTridiagonal(grid[i[1:], i[:-1]], grid[i, i], grid[i[:-1], i[1:]])
    assert np.array_equal(dense(out), a)
    return out


def reference_trace_null_vector(a) -> np.ndarray:
    """The trace-row solve by SuperLU, with the system assembled by slicing
    and stacking a dense or sparse matrix: row 0 replaced by the trace
    functional scaled to ``||a||_1``."""
    a = scipy.sparse.csr_array(a, dtype=complex)
    side = a.shape[0]
    d = math.isqrt(side)
    scale = max(scipy.sparse.linalg.norm(a, 1), np.finfo(float).tiny)
    trace = scipy.sparse.csr_array(
        (np.full(d, scale, dtype=complex), (np.zeros(d, dtype=int), np.arange(d) * (d + 1))),
        shape=(1, side),
    )
    m = scipy.sparse.vstack([trace, a[1:]], format="csc")
    rhs = np.zeros(side, dtype=complex)
    rhs[0] = scale
    return scipy.sparse.linalg.splu(m).solve(rhs)
