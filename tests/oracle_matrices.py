"""Matrix forms of the exact oracle's block-tridiagonal Liouvillians, for
the tests: the full matrix of the nonzero entries, a matrix's nonzero
entries cut into blocks, and the SuperLU solve of the stacked trace-row
system that the library's block kernel replaced, kept as its
reference."""

import math

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from tlsbath.linalg import BlockTridiagonal


def dense(liou) -> np.ndarray:
    """The full matrix of a :class:`BlockTridiagonal`, which must hold each
    position once and nothing off its three block diagonals."""
    rows, cols, vals, side, b = liou
    assert np.unique(rows * side + cols).size == rows.size
    assert np.abs(cols // b - rows // b).max(initial=0) <= 1
    out = np.zeros(liou.shape, dtype=complex)
    out[rows, cols] = vals
    return out


def as_blocks(a, n: int = 1) -> BlockTridiagonal:
    """The nonzero entries of a dense or SciPy sparse matrix cut into ``n``
    x ``n`` square blocks, which must vanish off the three block
    diagonals."""
    a = a.toarray() if scipy.sparse.issparse(a) else np.asarray(a)
    rows, cols = np.nonzero(a)
    out = BlockTridiagonal(rows, cols, a[rows, cols].astype(complex), a.shape[0], a.shape[0] // n)
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
