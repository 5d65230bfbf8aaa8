"""Exact Lindblad reference for small mode + TLS Hilbert spaces.

Brute-force cross-check of the effective theory: the full rotating-frame
Liouvillian of one truncated bosonic mode coupled to a handful of driven,
damped TLS is its nonzero entries, the outer products of the nonzeros of
its Kronecker-product terms' dense factors.  The mode operators move the
left Fock index of a density matrix by at most one, so the entries lie
on three block diagonals over that index; the steady state is one
block-LU solve, and expectation values are compared against the
adiabatic elimination.  The quadrature's 4x4 TLS generator is
``theta`` times six blocks built once from the same Hamiltonian and jumps,
and its regression integral one 4x4 resolvent solve, written on the
4-vector ``vec(rho)`` by index: trace, Hermitian part, ``<sigma+->``,
the seed ``sigma~_beta rho`` and the contraction are picked entries of
it, not 2x2 operator products.  The four ``(alpha, beta)`` components of
one TLS and detuning share that work: a one-entry memo, keyed on the
exact bits of ``theta`` and ``delta_m``, keeps the generator,
``vec(rho)`` and the solution for each ``beta``.  Nothing here reuses
the effective-rate pipeline; the only shared code is the linear-algebra
kernel, and none of it uses SciPy.

Matrix vectorization is row-major throughout: ``vec(A rho B) =
kron(A, B.T) @ vec(rho)``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .bath import BathEnvironment, TlsParams, bose_occupation
from .linalg import BlockTridiagonal, null_vector, trace_null_vector
from .rates import ModeParams

__all__ = [
    "HilbertSpec",
    "DimensionCapError",
    "build_liouvillian",
    "tls_liouvillian",
    "steady_state_full",
    "steady_state_autogrow",
    "mode_moments",
    "bloch_correlator_numeric",
]

# Population allowed in the top two Fock levels of a steady state.
LEAK_TOL = 1e-8

DEFAULT_DIM_CAP = 64


class DimensionCapError(ValueError):
    """Requested Hilbert space exceeds the configured dimension cap."""


@dataclass(frozen=True)
class HilbertSpec:
    """Truncated Hilbert space of one mode and a small TLS ensemble."""

    fock_dim: int
    mode: ModeParams
    tls: tuple[TlsParams, ...]
    env: BathEnvironment
    dim_cap: int = DEFAULT_DIM_CAP

    def __post_init__(self):
        if self.fock_dim < 2:
            raise ValueError("need at least two Fock levels")
        if not 1 <= len(self.tls) <= 3:
            raise ValueError("oracle supports 1 to 3 TLS")
        if self.dim > self.dim_cap:
            raise DimensionCapError(
                f"total dimension {self.dim} exceeds cap {self.dim_cap}"
            )

    @property
    def n_tls(self) -> int:
        return len(self.tls)

    @property
    def dim(self) -> int:
        return self.fock_dim * 2**self.n_tls


def _destroy(n: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, n, dtype=float)), 1).astype(complex)

# TLS basis ordering (ground, excited).
_SP = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # raising
_SM = _SP.conj().T
_SZ = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
_ID2 = np.eye(2, dtype=complex)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense Kronecker product, as one broadcast multiply."""
    out = a[:, None, :, None] * b[None, :, None, :]
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def mode_operator(spec: HilbertSpec) -> np.ndarray:
    """Annihilation operator of the mode on the full space."""
    return functools.reduce(_kron, [_destroy(spec.fock_dim)] + [_ID2] * spec.n_tls)


def tls_operator(spec: HilbertSpec, i: int, op: np.ndarray) -> np.ndarray:
    """Single-TLS operator embedded on the full space."""
    ops = [op if j == i else _ID2 for j in range(spec.n_tls)]
    return functools.reduce(_kron, [np.eye(spec.fock_dim, dtype=complex)] + ops)


def _liouvillian(h, jumps) -> list:
    """Terms ``(c, a, b)`` of the row-major generator ``-i[h, .] + sum_k
    c_k D[a_k, b_k]``, which is the sum of ``c kron(a, b)`` over them.

    ``jumps`` lists ``(c, a, b)`` with ``D[a, b] rho = a rho b -
    (b a rho + rho b a) / 2``.  The anticommutators are summed into one
    effective Hamiltonian first, so ``vec(X rho + rho Y) = (kron(X, 1) +
    kron(1, Y.T)) vec(rho)`` takes two terms in all, and each jump one
    more, ``c kron(a, b.T)``.
    """
    k = sum(c * (b @ a) for c, a, b in jumps)
    eye = np.eye(h.shape[0])
    terms = [(1.0, -1j * h - 0.5 * k, eye), (1.0, eye, (1j * h - 0.5 * k).T)]
    return terms + [(c, a, b.T) for c, a, b in jumps]


def _entries(terms, fock: int) -> BlockTridiagonal:
    """Sum of ``c kron(a, b)`` over ``terms`` of dense ``n x n`` factors,
    as its nonzero entries in row-major order: entries ``(i, j)`` of ``a``
    and ``(k, l)`` of ``b`` give entry ``(i n + k, j n + l)``, and the
    positions that terms share are summed once.  Each ``a`` moves the mode's
    Fock index by at most one, so the blocks have side ``n^2 / fock``."""
    n = terms[0][1].shape[0]
    keys, vals = [], []
    for c, a, b in terms:
        (ia, ja), (ib, jb) = np.nonzero(a), np.nonzero(b)
        keys.append((((ia * n)[:, None] + ib) * n * n + (ja * n)[:, None] + jb).ravel())
        vals.append(((c * a[ia, ja])[:, None] * b[ib, jb]).ravel())
    keys = np.concatenate(keys)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    start = np.flatnonzero(np.diff(keys, prepend=-1))
    vals = np.add.reduceat(np.concatenate(vals)[order], start)
    rows, cols = np.divmod(keys[start[vals != 0]], n * n)
    return BlockTridiagonal(rows, cols, vals[vals != 0], n * n, n * n // fock)


def _tls_coefficients(p: TlsParams, env: BathEnvironment) -> tuple:
    """``theta = (Delta_B, Omega_B, Omega_B*, kappa1 (1 + nbar), kappa1
    nbar, kappa2)``, in which a TLS's Hamiltonian and jumps are linear."""
    ob = complex(p.Omega_B)
    nbar = bose_occupation(p.omega_B, env.temperature)
    return (p.Delta_B, ob, ob.conjugate(), p.kappa1 * (1.0 + nbar), p.kappa1 * nbar, p.kappa2)


def _tls_terms(theta, sp, sm, sz) -> tuple:
    """Hamiltonian and jumps of one driven TLS with coefficients ``theta``:
    thermal relaxation at its own frequency plus pure dephasing.  Jumps of
    zero rate are left out."""
    delta, ob, ob_conj, down, up, dephasing = theta
    h = 0.5 * delta * sz + 0.5 * (ob * sp + ob_conj * sm)
    jumps = [(down, sm, sp), (up, sp, sm), (dephasing, sz, sz)]
    return h, [j for j in jumps if j[0] != 0]


@functools.cache
def _tls_blocks() -> np.ndarray:
    """Row k: the flattened single-TLS generator at theta = e_k.  Built on
    first use, as its matrix products touch BLAS buffers that processes
    which never call the oracle need not hold."""
    return np.array([
        sum(c * _kron(a, b) for c, a, b in _liouvillian(*_tls_terms(unit, _SP, _SM, _SZ))).ravel()
        for unit in np.eye(6)
    ])


def build_liouvillian(spec: HilbertSpec) -> BlockTridiagonal:
    """Rotating-frame Liouvillian of the coupled system, block tridiagonal
    over the left Fock index.

    Hamiltonian: detuned mode with direct drive, detuned driven TLS,
    excitation-conserving mode-TLS exchange.  Dissipators: zero-temperature
    decay of the mode, which the effective theory assumes too (only its
    detuning from the drive is known, not its absolute frequency), and
    thermal TLS relaxation plus pure dephasing.  The returned matrix acts
    on row-major vectorized density matrices and annihilates the trace
    functional from the left.
    """
    s = mode_operator(spec)
    sd = s.conj().T
    om0 = complex(spec.mode.Omega)
    h = spec.mode.detuning * (sd @ s) + om0 * s + np.conj(om0) * sd
    jumps = [(spec.mode.gamma0, s, sd)]
    for i, p in enumerate(spec.tls):
        sp, sm, sz = (tls_operator(spec, i, op) for op in (_SP, _SM, _SZ))
        h_tls, jumps_tls = _tls_terms(_tls_coefficients(p, spec.env), sp, sm, sz)
        g = complex(p.couplings[0])
        h = h + h_tls + g * (sp @ s) + np.conj(g) * (sd @ sm)
        jumps += jumps_tls
    return _entries(_liouvillian(h, jumps), spec.fock_dim)


def tls_liouvillian(p: TlsParams, env: BathEnvironment) -> np.ndarray:
    """Vectorized generator of a single driven, damped TLS (dense 4x4):
    ``theta`` times the blocks built once from its Hamiltonian and jumps."""
    return _tls_generator(np.array(_tls_coefficients(p, env)))


def _tls_generator(theta: np.ndarray) -> np.ndarray:
    return (theta @ _tls_blocks()).reshape(4, 4)


def _normalize_density(rho: np.ndarray) -> np.ndarray:
    tr = np.trace(rho)
    if abs(tr) < 1e-12:
        raise ArithmeticError("kernel vector carries no trace weight")
    rho = rho / tr
    return 0.5 * (rho + rho.conj().T)


def assert_physical_state(rho: np.ndarray, eig_floor: float = -1e-8) -> None:
    """Validate Hermiticity, unit trace, and spectral positivity."""
    if np.abs(rho - rho.conj().T).max() > 1e-10:
        raise ArithmeticError("state is not Hermitian")
    if abs(np.trace(rho) - 1.0) > 1e-10:
        raise ArithmeticError("state trace differs from one")
    if np.linalg.eigvalsh(rho).min() < eig_floor:
        raise ArithmeticError("state has a significantly negative eigenvalue")


def steady_state_full(liou) -> np.ndarray:
    """Stationary density matrix from the Liouvillian kernel.

    The unit-trace kernel vector of :func:`trace_null_vector` is reshaped,
    validated as it comes from the solve, and only then Hermitized.
    """
    vec = trace_null_vector(liou)
    rho = vec.reshape(2 * (math.isqrt(vec.size),))
    assert_physical_state(rho)
    return _normalize_density(rho)


def _expectation(rho: np.ndarray, op: np.ndarray) -> complex:
    return complex(np.trace(op @ rho))


def _fock_populations(rho: np.ndarray, spec: HilbertSpec) -> np.ndarray:
    return np.diag(rho).real.reshape(spec.fock_dim, -1).sum(axis=1)


def mode_moments(rho: np.ndarray, spec: HilbertSpec) -> tuple[float, complex, complex]:
    """Stationary mode moments ``(<s+ s>, <s>, <s^2>)`` of a state on
    ``spec``, as truncated there: :func:`steady_state_autogrow` gives
    states whose top Fock levels hold less than ``LEAK_TOL``."""
    s = mode_operator(spec)
    occ = _expectation(rho, s.conj().T @ s).real
    return float(occ), _expectation(rho, s), _expectation(rho, s @ s)


def steady_state_autogrow(
    mode: ModeParams,
    tls: tuple[TlsParams, ...],
    env: BathEnvironment,
    fock_start: int = 8,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> tuple[np.ndarray, HilbertSpec]:
    """Steady state with the Fock truncation grown until it is clean.

    Doubles the Fock dimension until the top-level leak is below
    tolerance.  Raises :class:`DimensionCapError` when the starting size
    exceeds the cap (from :class:`HilbertSpec`), or when a measured leak
    calls for a doubling that the cap forbids.
    """
    spec = HilbertSpec(fock_start, mode, tuple(tls), env, dim_cap)
    while True:
        rho = steady_state_full(build_liouvillian(spec))
        leak = _fock_populations(rho, spec)[-2:].sum()
        if leak < LEAK_TOL:
            return rho, spec
        if 2 * spec.dim > dim_cap:
            raise DimensionCapError(
                f"top Fock levels hold population {leak:.2e} at fock_dim "
                f"{spec.fock_dim}, above the leak tolerance {LEAK_TOL:g}, but "
                f"doubling it exceeds dimension cap {dim_cap}"
            )
        spec = dataclasses.replace(spec, fock_dim=2 * spec.fock_dim)


# Row-major vec(rho) = (rho00, rho01, rho10, rho11) in the (ground,
# excited) basis: the Hermitian conjugate swaps the middle entries.
_ADJOINT = np.array([0, 2, 1, 3])

# The last TLS and detuning of the quadrature, as one entry: the exact
# bits of (theta, delta_m) map to the generator L, the rank-one column
# c vec(rho), vec(rho) and the solutions x by beta, all read-only.  What
# is stored under a key never changes, so calls that race on the memo at
# worst compute an entry twice and need no lock.
_REGRESSION: dict = {}


def _regression(p: TlsParams, env: BathEnvironment, beta: int, delta_m: float) -> tuple:
    """``(vec(rho), x)`` of :func:`bloch_correlator_numeric`, from the memo
    where the last call met the same ``theta`` and ``delta_m``.  An entry
    is stored only once its kernel vector has passed ``null_vector``'s
    checks and the trace-weight check, and an ``x`` only once its solve
    has returned, so a call that raised leaves nothing behind and the
    next one computes again."""
    theta = np.array(_tls_coefficients(p, env))
    key = theta.tobytes() + struct.pack("d", delta_m)
    entry = _REGRESSION.get(key)
    if entry is None:
        _REGRESSION.clear()
        liou = _tls_generator(theta)
        vec = null_vector(liou)
        trace = vec[0] + vec[3]
        if abs(trace) < 1e-12:
            raise ArithmeticError("kernel vector carries no trace weight")
        vec = vec / trace
        rho = 0.5 * (vec + vec[_ADJOINT].conj())
        entry = liou, np.abs(liou).max() * rho, rho, {}
        for a in entry[:3]:
            a.setflags(write=False)
        _REGRESSION[key] = entry
    liou, rank_one, rho, solved = entry
    x = solved.get(beta)
    if x is None:
        shifted = liou.copy()
        shifted.flat[::5] += beta * 1j * delta_m  # the diagonal
        shifted[:, 0] += rank_one  # c vec(rho) tr^T: columns 0 and 3
        shifted[:, 3] += rank_one
        # -x0 = <sigma_beta> rho - sigma_beta rho
        if beta > 0:
            rhs = rho[1] * rho
            rhs[2:] -= rho[:2]
        else:
            rhs = rho[2] * rho
            rhs[:2] -= rho[2:]
        x = np.linalg.solve(shifted, rhs)
        x.setflags(write=False)
        solved[beta] = x
    return rho, x


def bloch_correlator_numeric(
    p: TlsParams,
    env: BathEnvironment,
    alpha: int,
    beta: int,
    delta_m: float,
) -> complex:
    """Brute-force Laplace transform of a Bloch fluctuation correlator.

    Integrates ``<sigma~_alpha(tau) sigma~_beta(0)> exp(beta i delta_m
    tau)`` over ``tau >= 0`` by quantum regression on the vectorized TLS
    space: for the traceless seed ``x0 = sigma~_beta rho`` the integral
    ``x`` solves ``(L + beta i delta_m) x = -x0`` with ``tr x = 0``.  The
    rank-one term ``c vec(rho) tr^T`` makes the 4x4 matrix ``L + beta i
    delta_m + c vec(rho) tr^T`` nonsingular at ``delta_m = 0`` too, and
    leaves ``x`` unchanged, so ``x`` is one linear solve; ``c``, the
    largest entry of ``|L|``, keeps that term on the scale of ``L``.

    Everything acts on 4-vectors, row-major ``v = (rho00, rho01, rho10,
    rho11)`` in the (ground, excited) basis: ``tr v = v[0] + v[3]``, the
    Hermitian conjugate swaps ``v[1]`` and ``v[2]``, and ``<sigma+> =
    v[1]``, ``<sigma-> = v[2]``.  The kernel vector of ``L``, scaled to
    unit trace and Hermitized, is ``vec(rho)``; ``sigma+ rho = (0, 0,
    rho00, rho01)`` and ``sigma- rho = (rho10, rho11, 0, 0)`` give the
    seed, and ``tr(sigma~_alpha x) = x[k] - <sigma_alpha> (x[0] + x[3])``
    with ``k = 1`` for ``alpha = +1``, 2 for -1.  A non-finite
    ``delta_m`` raises :class:`ValueError`.

    ``vec(rho)`` depends on the TLS only through ``theta`` (see
    :func:`tls_liouvillian`), and ``x`` on ``theta``, ``beta`` and
    ``delta_m``; ``alpha`` only picks ``k``.  Both are kept in a memo of
    one entry, keyed on the exact bits of ``theta`` and ``delta_m``, so
    of the four components of one TLS and detuning called in a row the
    first costs the kernel vector and one solve, the first of the other
    ``beta`` one more solve, and the rest a lookup.  A call for another
    TLS or detuning replaces the entry, the kept arrays are read-only,
    and a call that raises keeps nothing, so the next one computes again.
    """
    if alpha not in (+1, -1) or beta not in (+1, -1):
        raise ValueError("alpha and beta must be +1 or -1")
    if not math.isfinite(delta_m):
        raise ValueError(f"delta_m must be finite, got {delta_m}")
    rho, x = _regression(p, env, beta, delta_m)
    k = 1 if alpha > 0 else 2
    return complex(x[k] - rho[k] * (x[0] + x[3]))
