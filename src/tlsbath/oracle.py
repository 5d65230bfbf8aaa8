"""Exact Lindblad reference for small mode + TLS Hilbert spaces.

Brute-force cross-check of the effective theory: the full rotating-frame
Liouvillian of one truncated bosonic mode coupled to a handful of driven,
damped TLS is built as a sparse superoperator from Kronecker products, its
steady state extracted from the kernel by one sparse LU solve, and
expectation values compared against the adiabatic elimination.  Nothing
here reuses the effective-rate pipeline; the only shared code is the
linear-algebra kernel.

Matrix vectorization is row-major throughout: ``vec(A rho B) =
kron(A, B.T) @ vec(rho)``.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .bath import BathEnvironment, TlsParams, bose_occupation
from .linalg import null_vector, trace_null_vector
from .rates import ModeParams

__all__ = [
    "HilbertSpec",
    "DimensionCapError",
    "TruncationWarning",
    "build_liouvillian",
    "tls_liouvillian",
    "steady_state_full",
    "steady_state_autogrow",
    "expectation",
    "mode_moments",
    "bloch_correlator_numeric",
]

# Population allowed in the top two Fock levels before a truncation warning.
LEAK_TOL = 1e-8

DEFAULT_DIM_CAP = 64


class DimensionCapError(ValueError):
    """Requested Hilbert space exceeds the configured dimension cap."""


class TruncationWarning(UserWarning):
    """Fock truncation is carrying non-negligible population."""


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


def _embed(ops: list[np.ndarray]) -> scipy.sparse.csr_array:
    out = scipy.sparse.csr_array(ops[0])
    for op in ops[1:]:
        out = scipy.sparse.kron(out, op, format="csr")
    return out


def _mode(spec: HilbertSpec) -> scipy.sparse.csr_array:
    return _embed([_destroy(spec.fock_dim)] + [_ID2] * spec.n_tls)


def mode_operator(spec: HilbertSpec) -> np.ndarray:
    """Annihilation operator of the mode on the full space (dense)."""
    return _mode(spec).toarray()


def tls_operator(spec: HilbertSpec, i: int, op: np.ndarray) -> scipy.sparse.csr_array:
    """Single-TLS operator embedded on the full space (sparse)."""
    ops = [np.eye(spec.fock_dim, dtype=complex)]
    for j in range(spec.n_tls):
        ops.append(op if j == i else _ID2)
    return _embed(ops)


def _sparse_kron(a, b) -> scipy.sparse.csr_array:
    return scipy.sparse.kron(a, b, format="csr")


def _liouvillian(h, jumps, kron):
    """Row-major generator ``-i[h, .] + sum_k c_k D[a_k, b_k]``.

    ``jumps`` lists ``(c, a, b)`` with ``D[a, b] rho = a rho b -
    (b a rho + rho b a) / 2``.  The anticommutators are summed into one
    effective Hamiltonian first, so ``vec(X rho + rho Y) = (kron(X, 1) +
    kron(1, Y.T)) vec(rho)`` takes two Kronecker products in all.
    ``kron`` is ``np.kron`` for the 4x4 single-TLS generator, whose sparse
    build would cost milliseconds of fixed overhead, and
    :func:`_sparse_kron` for the coupled system.
    """
    k = sum(c * (b @ a) for c, a, b in jumps)
    eye = np.eye(h.shape[0])
    liou = kron(-1j * h - 0.5 * k, eye) + kron(eye, (1j * h - 0.5 * k).T)
    for c, a, b in jumps:
        liou = liou + c * kron(a, b.T)
    return liou


def _tls_terms(p: TlsParams, env: BathEnvironment, sp, sm, sz) -> tuple:
    """Hamiltonian and jumps of one driven TLS: thermal relaxation at its
    own frequency plus pure dephasing."""
    ob = complex(p.Omega_B)
    h = 0.5 * p.Delta_B * sz + 0.5 * (ob * sp + np.conj(ob) * sm)
    nbar = bose_occupation(p.omega_B, env.temperature)
    jumps = [(p.kappa1 * (1.0 + nbar), sm, sp)]
    if nbar > 0:
        jumps.append((p.kappa1 * nbar, sp, sm))
    if p.kappa2 > 0:
        jumps.append((p.kappa2, sz, sz))
    return h, jumps


def build_liouvillian(spec: HilbertSpec) -> scipy.sparse.csr_array:
    """Sparse rotating-frame Liouvillian of the coupled system.

    Hamiltonian: detuned mode with direct drive, detuned driven TLS,
    excitation-conserving mode-TLS exchange.  Dissipators: zero-temperature
    decay of the mode, which the effective theory assumes too (only its
    detuning from the drive is known, not its absolute frequency), and
    thermal TLS relaxation plus pure dephasing.  The returned matrix acts
    on row-major vectorized density matrices and annihilates the trace
    functional from the left.
    """
    s = _mode(spec)
    sd = s.conj().T
    om0 = complex(spec.mode.Omega)
    h = spec.mode.detuning * (sd @ s) + om0 * s + np.conj(om0) * sd
    jumps = [(spec.mode.gamma0, s, sd)]
    for i, p in enumerate(spec.tls):
        sp, sm, sz = (tls_operator(spec, i, op) for op in (_SP, _SM, _SZ))
        h_tls, jumps_tls = _tls_terms(p, spec.env, sp, sm, sz)
        g = complex(p.couplings[0])
        h = h + h_tls + g * (sp @ s) + np.conj(g) * (sd @ sm)
        jumps += jumps_tls
    return _liouvillian(h, jumps, _sparse_kron)


def tls_liouvillian(p: TlsParams, env: BathEnvironment) -> np.ndarray:
    """Vectorized generator of a single driven, damped TLS (dense 4x4)."""
    h, jumps = _tls_terms(p, env, _SP, _SM, _SZ)
    return _liouvillian(h, jumps, np.kron)


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
    dim = math.isqrt(vec.size)
    rho = vec.reshape(dim, dim)
    assert_physical_state(rho)
    return _normalize_density(rho)


def expectation(rho: np.ndarray, op: np.ndarray) -> complex:
    return complex(np.trace(op @ rho))


def _fock_populations(rho: np.ndarray, spec: HilbertSpec) -> np.ndarray:
    probs = np.diag(rho).real
    per_level = probs.reshape(spec.fock_dim, -1).sum(axis=1)
    return per_level


def mode_moments(
    rho: np.ndarray, spec: HilbertSpec, check_leak: bool = True
) -> tuple[float, complex, complex]:
    """Stationary mode moments ``(<s+ s>, <s>, <s^2>)``.

    Warns with :class:`TruncationWarning` when the top two Fock levels
    hold more than the leak tolerance (the truncated values are still
    returned; the caller decides whether to grow the space).
    """
    if check_leak:
        leak = _fock_populations(rho, spec)[-2:].sum()
        if leak > LEAK_TOL:
            warnings.warn(
                f"top Fock levels hold population {leak:.2e}",
                TruncationWarning,
                stacklevel=2,
            )
    s = mode_operator(spec)
    occ = expectation(rho, s.conj().T @ s).real
    return float(occ), expectation(rho, s), expectation(rho, s @ s)


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
    spec = HilbertSpec(
        fock_dim=fock_start, mode=mode, tls=tuple(tls), env=env, dim_cap=dim_cap
    )
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


def _sigma_ops_centered(
    p: TlsParams, env: BathEnvironment
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """TLS generator, steady state and the centred ``sigma+``, ``sigma-``."""
    liou = tls_liouvillian(p, env)
    rho = _normalize_density(null_vector(liou).reshape(2, 2))
    sp_avg = expectation(rho, _SP)
    return liou, rho, _SP - sp_avg * _ID2, _SM - np.conj(sp_avg) * _ID2


def bloch_correlator_numeric(
    p: TlsParams,
    env: BathEnvironment,
    alpha: int,
    beta: int,
    delta_m: float,
) -> complex:
    """Brute-force Laplace transform of a Bloch fluctuation correlator.

    Integrates ``<sigma~_alpha(tau) sigma~_beta(0)> exp(beta i delta_m
    tau)`` by quantum regression on the vectorized TLS space, with one
    matrix exponential of the augmented generator ``[[(L + beta i delta_m)
    tau_max, x0], [0, 0]]`` (Van Loan, IEEE Trans. Autom. Control 23, 395
    (1978)): ``tau_max`` times its last column is ``integral_0^tau_max
    exp((L + beta i delta_m) tau) x0 dtau`` for ``x0 = sigma~_beta rho``.
    Leaving ``x0`` unscaled keeps its column out of the norm that sets the
    number of squarings.  On traceless operators such as ``x0`` the
    generator is ``-diag(kappa_t, kappa_t, kappa1 (1 + 2 nbar))`` plus a
    rotation in the Pauli basis, so ``||exp(L tau) x0||`` decays at least
    as ``exp(-kappa1 (1 + 2 nbar) tau / 2)``; at ``tau_max = 80 / (kappa1
    (1 + 2 nbar))`` the dropped tail is below ``exp(-40)`` at any drive or
    dephasing.
    """
    if alpha not in (+1, -1) or beta not in (+1, -1):
        raise ValueError("alpha and beta must be +1 or -1")
    liou, rho, sp, sm = _sigma_ops_centered(p, env)
    ops = {+1: sp, -1: sm}
    nbar = bose_occupation(p.omega_B, env.temperature)
    tau_max = 80.0 / (p.kappa1 * (1.0 + 2.0 * nbar))
    gen = np.zeros((5, 5), dtype=complex)
    gen[:4, :4] = (liou + beta * 1j * delta_m * np.eye(4)) * tau_max
    gen[:4, 4] = (ops[beta] @ rho).reshape(4)
    integral = tau_max * scipy.linalg.expm(gen)[:4, 4]
    return complex(ops[alpha].T.reshape(4) @ integral)
