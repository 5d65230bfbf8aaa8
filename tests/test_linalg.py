import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from oracle_matrices import as_blocks, dense, reference_trace_null_vector

from tlsbath import linalg
from tlsbath.bath import BathEnvironment, TlsParams
from tlsbath.linalg import (
    KernelDimensionError,
    SingularMatrixError,
    eigenvalues,
    expm_apply,
    null_vector,
    solve_linear,
    trace_null_vector,
)
from tlsbath.oracle import HilbertSpec, build_liouvillian
from tlsbath.rates import ModeParams


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_solve_linear_matches_direct_inverse():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5, 12):
        a = _random_complex(rng, (n, n)) + 3.0 * np.eye(n)
        b = _random_complex(rng, n)
        x = solve_linear(a, b)
        assert np.allclose(a @ x, b, rtol=1e-12, atol=1e-14)


def test_solve_linear_rejects_singular():
    a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(SingularMatrixError):
        solve_linear(a, np.ones(2, dtype=complex))


def test_solve_linear_rejects_nearly_singular_scaled():
    # scale invariance of the pivot check: tiny but well-conditioned is fine
    a = 1e-30 * np.eye(3, dtype=complex)
    x = solve_linear(a, np.ones(3) * 1e-30)
    assert np.allclose(x, 1.0)


def test_eigenvalues_known_spectrum():
    d = np.diag([1.0 + 2.0j, -3.0, 0.5j])
    rng = np.random.default_rng(3)
    v = _random_complex(rng, (3, 3)) + 2 * np.eye(3)
    a = v @ d @ np.linalg.inv(v)
    got = np.sort_complex(eigenvalues(a))
    want = np.sort_complex(np.diag(d))
    assert np.allclose(got, want, atol=1e-10)
    # a stack (k, n, n) gives each matrix's eigenvalues, as one call does
    stack = np.stack([a, _random_complex(rng, (3, 3)), a.T])
    assert np.array_equal(eigenvalues(stack), np.array([eigenvalues(m) for m in stack]))
    for bad in (np.ones((2, 3, 4)), np.where(np.eye(3), np.nan, 0.0)[None]):
        with pytest.raises(ValueError):
            eigenvalues(bad)


def test_expm_apply_matches_dense():
    rng = np.random.default_rng(5)
    a = _random_complex(rng, (8, 8))
    v = _random_complex(rng, 8)
    for t in (0.0, 0.3, 2.0):
        got = expm_apply(a, v, t)
        want = scipy.linalg.expm(a * t) @ v
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


def test_expm_apply_large_dimension_path():
    # above the dense cutoff the Krylov branch must agree with the
    # closed form for a diagonal generator
    n = 150
    diag = -np.linspace(0.1, 3.0, n) + 0.4j
    a = np.diag(diag)
    v = np.ones(n, dtype=complex)
    got = expm_apply(a, v, 1.7)
    assert np.allclose(got, np.exp(diag * 1.7), rtol=1e-9, atol=1e-12)


def test_expm_apply_takes_sparse_input():
    rng = np.random.default_rng(6)
    v = _random_complex(rng, 150)
    for n in (8, 150):  # either side of the dense cutoff
        diag = -np.linspace(0.1, 3.0, n) + 0.4j
        got = expm_apply(scipy.sparse.diags_array(diag).tocsr(), v[:n], 1.7)
        assert np.allclose(got, np.exp(diag * 1.7) * v[:n], rtol=1e-9, atol=1e-12)
    bad = scipy.sparse.csr_array(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        expm_apply(bad, np.ones(2), 1.0)


def test_expm_apply_rejects_negative_time():
    a = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        expm_apply(a, np.ones(2), -1.0)


def test_null_vector_recovers_kernel():
    rng = np.random.default_rng(13)
    # build a rank-3 4x4 with one known kernel direction
    k = _random_complex(rng, 4)
    k /= np.linalg.norm(k)
    projector = np.eye(4) - np.outer(k, k.conj())
    a = np.vstack([_random_complex(rng, (3, 4)), np.zeros(4)]) @ projector
    v = null_vector(a)
    assert np.linalg.norm(a @ v) < 1e-10
    assert abs(abs(v @ k.conj()) - 1.0) < 1e-8


def test_null_vector_full_rank_raises():
    with pytest.raises(KernelDimensionError):
        null_vector(np.eye(3, dtype=complex))


def test_null_vector_degenerate_kernel_raises():
    a = np.zeros((3, 3), dtype=complex)
    a[0, 0] = 1.0
    with pytest.raises(KernelDimensionError):
        null_vector(a)


@pytest.mark.parametrize("entry", [1e308, 1.5e308 * (1 + 1j), 1e-320])
def test_null_vector_at_the_ends_of_the_float_range(entry):
    """A finite matrix whose row sum (or entry modulus) overflows, or whose
    entries are subnormal, keeps its one-dimensional kernel."""
    # a transposed view: a complex one reaches null_vector not C-contiguous
    v = null_vector(np.array([[entry, 0.0], [entry, 0.0]]).T)
    want = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert abs(abs(v @ want) - 1.0) < 1e-12


def test_kernel_accepts_a_transposed_complex_matrix():
    """A complex view that is not C-contiguous is checked and solved like
    its contiguous copy."""
    m = _random_complex(np.random.default_rng(5), (3, 3)).T
    c = np.ascontiguousarray(m)
    assert not m.flags["C_CONTIGUOUS"]
    assert np.array_equal(eigenvalues(m), eigenvalues(c))
    assert np.array_equal(solve_linear(m, np.ones(3)), solve_linear(c, np.ones(3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("where", [(0, 0), (2, 1)])
def test_null_vector_rejects_non_finite_input(bad, where):
    a = np.zeros((3, 3), dtype=complex)
    a[0, 0] = a[1, 1] = 1.0
    a[where] = bad
    with pytest.raises(ValueError, match="non-finite"):
        null_vector(a)


def _random_hermitian(seed, n):
    x = _random_complex(np.random.default_rng(seed), (n, n))
    return x + x.conj().T


def _hamiltonian_generator(h):
    """Row-major -i[h, .], whose kernel holds every function of h."""
    eye = scipy.sparse.eye_array(h.shape[0])
    return -1j * (scipy.sparse.kron(h, eye) - scipy.sparse.kron(eye, h.T))


def _damped_qubit():
    """Amplitude damping of a qubit plus a random Hamiltonian."""
    lower = scipy.sparse.csr_array(np.array([[0.0, 1.0], [0.0, 0.0]]))
    eye = scipy.sparse.eye_array(2)
    n = lower.T @ lower
    return _hamiltonian_generator(_random_hermitian(17, 2)) + (
        scipy.sparse.kron(lower, lower)
        - 0.5 * (scipy.sparse.kron(n, eye) + scipy.sparse.kron(eye, n.T))
    )


def test_trace_null_vector_matches_dense_kernel():
    liou = _damped_qubit()
    got = trace_null_vector(as_blocks(liou))
    assert got[0] + got[3] == pytest.approx(1.0, abs=1e-14)
    want = null_vector(liou.toarray())
    want /= want[0] + want[3]
    assert np.abs(got - want).max() < 1e-13


def _oracle_liouvillian(n_tls, fock):
    tls = tuple(
        TlsParams(1.0, 1e-4, 2e-5, 8e-5 * np.exp(0.4j * (i + 1)), 2e-5, (3e-5,))
        for i in range(n_tls)
    )
    mode = ModeParams(detuning=5e-5, gamma0=1e-5, Omega=2e-5 * np.exp(1.1j))
    return build_liouvillian(HilbertSpec(fock, mode, tls, BathEnvironment(temperature=0.2)))


def _unsorted_with_duplicates():
    """The damped qubit with every entry stored as two parts, columns in
    descending order within each row."""
    liou = _damped_qubit().tocoo()
    rows, cols = np.tile(liou.row, 2), np.tile(liou.col, 2)
    vals = np.concatenate((0.25 * liou.data, 0.75 * liou.data))
    order = np.lexsort((-cols, rows))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=4))))
    out = scipy.sparse.csr_array((vals[order], cols[order], indptr), shape=liou.shape)
    assert not out.has_sorted_indices
    return out


@pytest.mark.parametrize(
    "make",
    [
        lambda: _oracle_liouvillian(1, 4),
        lambda: _oracle_liouvillian(1, 8),
        lambda: _oracle_liouvillian(2, 4),
        lambda: _oracle_liouvillian(2, 8),
        lambda: as_blocks(dense(_oracle_liouvillian(1, 4))),
        lambda: as_blocks(_unsorted_with_duplicates()),
    ],
    ids=["N1-fock4", "N1-fock8", "N2-fock4", "N2-fock8", "dense", "unsorted-duplicates"],
)
def test_trace_null_vector_matches_stacked_reference(make):
    """The block-LU kernel vector, with the trace entries outside block 0
    taken by Sherman-Morrison, against SuperLU on the stacked trace-row
    system of the same matrix, to 1e-12 relative.  "dense" is one block of
    side 64, with every trace entry inside it; "unsorted-duplicates" is the
    damped qubit stored as split, unsorted CSR entries, summed by
    densifying it."""
    liou = make()
    got = trace_null_vector(liou)
    want = reference_trace_null_vector(dense(liou))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_trace_null_vector_leaves_its_input_alone():
    """The trace row replaces row 0 on copies of the entries: the input's
    entry arrays keep every byte, and the kernel vector is the same, bit
    for bit, on every call."""
    liou = _oracle_liouvillian(2, 4)
    before = [x.copy() for x in liou[:3]]
    got = trace_null_vector(liou)
    for old, new in zip(before, liou[:3]):
        assert old.tobytes() == new.tobytes()
    assert trace_null_vector(liou).tobytes() == got.tobytes()


def test_trace_null_vector_leaves_the_global_rng_alone():
    """The condition estimate starts from the ones vector and draws no
    random columns, so a solve does not advance NumPy's global stream."""
    liou = _oracle_liouvillian(2, 8)
    np.random.seed(20261019)
    before = np.random.get_state()
    trace_null_vector(liou)
    after = np.random.get_state()
    assert np.array_equal(before[1], after[1])
    assert before[2:] == after[2:]


@pytest.mark.parametrize("seed", range(6))
def test_inverse_norm_estimate_is_scipys_onenormest_at_t1(seed):
    """The block kernel's condition estimate is Hager's estimator as
    SciPy's ``onenormest(t=1)`` runs it, the parent's estimate: the same
    value on random operators, and never above the exact 1-norm."""
    rng = np.random.default_rng(seed)
    side = 12
    inv = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    inv[:, rng.integers(side)] *= 10.0 ** rng.uniform(0.0, 3.0)  # one dominant column
    ones = np.full(side, 1.0 / side, dtype=complex)
    got = linalg._inverse_norm_estimate(lambda v: inv @ v, lambda w: inv.conj().T @ w, inv @ ones)
    assert got == pytest.approx(scipy.sparse.linalg.onenormest(inv, t=1), rel=1e-13, abs=0)
    assert got <= np.abs(inv).sum(axis=0).max() * (1 + 1e-13)


def _pumped_qubit():
    """Incoherent pumping of a qubit into level 1, cut into the two blocks
    of rho's rows: the steady state |1><1| has no weight in block 0."""
    raising = np.array([[0.0, 0.0], [1.0, 0.0]])
    n = raising.T @ raising
    eye = np.eye(2)
    return as_blocks(np.kron(raising, raising) - 0.5 * (np.kron(n, eye) + np.kron(eye, n.T)), 2)


@pytest.mark.parametrize(
    "liou, check",
    [
        # a pure Hamiltonian keeps every function of h stationary: rounding
        # leaves tiny pivots for a generic h, exact zeros for a diagonal one
        (as_blocks(_hamiltonian_generator(_random_hermitian(3, 4))), "condition estimate"),
        (as_blocks(_hamiltonian_generator(scipy.sparse.diags_array([0.0, 1.0, 3.0]))),
         "exactly singular"),
        # no kernel at all: the trace row alone is solvable, the rest is not
        (as_blocks(-np.eye(16)), "relative residual"),
    ],
)
def test_trace_null_vector_wrong_kernel_dimension_raises(liou, check):
    with pytest.raises(KernelDimensionError, match=check):
        trace_null_vector(liou)


def test_trace_null_vector_raises_on_an_empty_vacuum_block():
    """Without the trace entries outside block 0 the system is singular
    exactly when the kernel vector has no trace in block 0; that zero is a
    typed error, not a traceback or a silent NaN."""
    with pytest.raises(KernelDimensionError, match="exactly singular"):
        trace_null_vector(_pumped_qubit())


def test_trace_null_vector_rejects_bad_input():
    liou = _oracle_liouvillian(1, 2)
    vals = liou.vals.copy()
    vals[7] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        trace_null_vector(liou._replace(vals=vals))
    with pytest.raises(ValueError, match="perfect square"):
        trace_null_vector(as_blocks(np.eye(3)))
    wide = _oracle_liouvillian(1, 4)  # four blocks of side 16
    outside = wide._replace(rows=np.append(wide.rows, 48), cols=np.append(wide.cols, 0),
                            vals=np.append(wide.vals, 1.0))  # in block (3, 0)
    with pytest.raises(ValueError, match="outside the three block diagonals"):
        trace_null_vector(outside)
    twice = liou._replace(rows=np.insert(liou.rows, 4, liou.rows[3]),
                          cols=np.insert(liou.cols, 4, liou.cols[3]), vals=np.insert(liou.vals, 4, 1.0))
    reversed_ = liou._replace(rows=liou.rows[::-1], cols=liou.cols[::-1], vals=liou.vals[::-1])
    for bad in (twice, reversed_):
        with pytest.raises(ValueError, match="row-major order"):
            trace_null_vector(bad)
