"""Time-frequency localization operators and their spectral summaries.

The operator analyzes with g1, multiplies by a phase-space symbol, and
synthesizes with g2.  On the truncation it is a dense matrix, the sum over
lattice shifts m of diag(T_m g2) C_m diag(conj T_m g1) with the Toeplitz
matrix C_m(k, l) = c_m(k - l).  Each term lives on the (2K+1)^n block
around m, so the kernel is assembled one small block per m, in a fixed
order, and is reproducible bit for bit.  Spectral data comes from a dense
SVD; every singular value is kept (thresholding would corrupt trace norms).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, PrecisionError, RangeError
from .lattice import (
    LatticeSpec,
    PhaseSpaceField,
    Signal,
    TorusGrid,
    _check_finite,
    block_slices,
    phase_matrix,
)
from .orlicz import _check_exponent
from .stft import _stft_values, stft, stft_adjoint

__all__ = [
    "OperatorKernel",
    "SpectralSummary",
    "apply_operator",
    "weak_pairing",
    "kernel",
    "adjoint_kernel",
    "spectrum",
    "sigma_tilde",
]


def _content_id(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:12]


@dataclass
class OperatorKernel:
    """Dense matrix realization on the box [-C, C]^n, row/column lexicographic."""

    spec: LatticeSpec
    torus: TorusGrid
    matrix: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.matrix = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        size = self.spec.side ** self.spec.n
        if self.matrix.shape != (size, size):
            raise DomainError(f"kernel must be {size}x{size}")
        _check_finite(self.matrix, "kernel")

    def matvec(self, f: Signal) -> Signal:
        out = self.matrix @ f.values.ravel()
        return Signal(self.spec, out.reshape(self.spec.shape))

    def hermitian_defect(self) -> float:
        return float(np.abs(self.matrix - self.matrix.conj().T).max(initial=0.0))


@dataclass
class SpectralSummary:
    """Singular values (descending), trace, Hilbert-Schmidt norm, Schatten norms."""

    singular_values: np.ndarray
    trace: complex
    hs_norm: float
    schatten: dict

    def __post_init__(self):
        s = np.asarray(self.singular_values, dtype=np.float64)
        if np.any(np.diff(s) > 0):
            raise DomainError("singular values must be sorted descending")
        self.singular_values = s


def _check_operator_inputs(sigma: PhaseSpaceField, g1: Signal, g2: Signal) -> None:
    spec = sigma.spec
    if g1.spec != spec or g2.spec != spec:
        raise DomainError("windows must live on the symbol's lattice")
    if not (g1.admissible and g2.admissible):
        raise DomainError("windows must be supported in [-K, K]^n")
    if sigma.m_radius > 2 * spec.K:
        raise RangeError(
            "symbol lattice radius exceeds 2K; atoms would leave the computation box"
        )


def _overlap_block(F: PhaseSpaceField, r: int) -> np.ndarray:
    off = F.m_radius - r
    sl = tuple(slice(off, off + 2 * r + 1) for _ in range(F.spec.n))
    return F.values[sl]


def _product_field(sigma: PhaseSpaceField, V: PhaseSpaceField) -> PhaseSpaceField:
    """Pointwise product sigma * V on the overlap of their lattice ranges."""
    r = min(sigma.m_radius, V.m_radius)
    vals = _overlap_block(sigma, r) * _overlap_block(V, r)
    deg = sigma.degree_bound + V.degree_bound
    sigma.torus.require_exact(deg, "product field")
    return PhaseSpaceField(sigma.spec, sigma.torus, r, vals, degree_bound=deg)


def apply_operator(
    sigma: PhaseSpaceField, g1: Signal, g2: Signal, f: Signal
) -> Signal:
    """Apply the localization operator: synthesize(sigma * analyze(f))."""
    _check_operator_inputs(sigma, g1, g2)
    V = stft(f, g1, sigma.torus)
    return stft_adjoint(_product_field(sigma, V), g2)


def weak_pairing(
    sigma: PhaseSpaceField, g1: Signal, g2: Signal, f: Signal, h: Signal
) -> complex:
    """<Lf, h> computed directly on phase space.

    h may be any box signal (for instance an operator output): the pairing
    only needs the atom inner products <h, M_w T_m g2> at |m| <= 2K, which
    are exact finite sums.
    """
    _check_operator_inputs(sigma, g1, g2)
    spec, torus = sigma.spec, sigma.torus
    Vf = stft(f, g1, torus)
    Vh_vals = _stft_values(h.values, g2.values, spec, torus, 2 * spec.K)
    Vh = PhaseSpaceField(spec, torus, 2 * spec.K, Vh_vals, degree_bound=torus.M - 1)
    r = min(sigma.m_radius, Vf.m_radius)
    prod = (
        _overlap_block(sigma, r)
        * _overlap_block(Vf, r)
        * np.conj(_overlap_block(Vh, r))
    )
    return complex(torus.weight * prod.sum())


def _conj_field(F: PhaseSpaceField) -> PhaseSpaceField:
    return PhaseSpaceField(
        F.spec, F.torus, F.m_radius, np.conj(F.values), degree_bound=F.degree_bound
    )


@lru_cache(maxsize=None)
def _difference_index(n: int, K: int) -> np.ndarray:
    """idx[u, v] = flat index of u - v + 2K in [0, 4K]^n, for u, v in [-K, K]^n.

    Rows and columns run lexicographically over the (2K+1)^n block.  Cached
    and read-only, like `phase_matrix`.
    """
    u = np.indices((2 * K + 1,) * n).reshape(n, -1)
    diff = u[:, :, None] - u[:, None, :] + 2 * K
    idx = np.ravel_multi_index(tuple(diff), (4 * K + 1,) * n)
    idx.flags.writeable = False
    return idx


def _shift_blocks(sigma: PhaseSpaceField, matrix: np.ndarray):
    """Views of matrix[B_m, B_m] for each lattice shift m of sigma, in order.

    B_m holds the box rows of m + [-K, K]^n; the guard |m| <= 2K keeps it
    inside [-C, C]^n.  Each view has shape (2K+1,) * 2n: row axes first.
    """
    t = matrix.reshape(sigma.spec.shape * 2)
    for m in sigma.m_points():
        sl = block_slices(sigma.spec, m)
        yield t[sl + sl]


def _local(g: Signal) -> np.ndarray:
    """The window on [-K, K]^n, flattened lexicographically."""
    return g.values[g.spec.admissible_slices()].ravel()


def kernel(sigma: PhaseSpaceField, g1: Signal, g2: Signal) -> OperatorKernel:
    """Dense kernel K(k, l) = sum_m int sigma(m, w) conj(atom1(l)) atom2(k) dw.

    One matmul gives c_m(d) = (1/M^n) sum_j sigma(m, j) e^{2 pi i d.j/M} for
    every m and every d in [-2K, 2K]^n.  Each shift m then adds the block
    g2(u) c_m(u - v) conj(g1(v)) at rows and columns m + [-K, K]^n, in a
    fixed order of m.  It refuses no degree: the sum is taken over the
    samples as given, whatever sigma.degree_bound declares.
    """
    _check_operator_inputs(sigma, g1, g2)
    spec, torus = sigma.spec, sigma.torus
    n, R = spec.n, spec.K
    P = phase_matrix(torus.M, -2 * R, 2 * R, 1, n)
    c = (sigma.values.reshape(-1, torus.M**n) * torus.weight) @ P.T
    G = _local(g2)[:, None] * np.conj(_local(g1))[None, :]
    idx = _difference_index(n, R)
    K = np.zeros((spec.side**n,) * 2, dtype=np.complex128)
    for cm, block in zip(c, _shift_blocks(sigma, K)):
        block += (G * cm[idx]).reshape(block.shape)
    prov = {
        "symbol": _content_id(sigma.values),
        "g1": _content_id(g1.values),
        "g2": _content_id(g2.values),
        "grid": f"n{spec.n}K{spec.K}C{spec.C}M{torus.M}",
    }
    return OperatorKernel(spec, torus, K, prov)


def adjoint_kernel(sigma: PhaseSpaceField, g1: Signal, g2: Signal) -> OperatorKernel:
    """Kernel of the adjoint operator: conjugate the symbol and swap windows."""
    return kernel(_conj_field(sigma), g2, g1)


def spectrum(K: OperatorKernel, ps=(1.0, 2.0, math.inf)) -> SpectralSummary:
    """Dense SVD summary with trace and entrywise Hilbert-Schmidt cross-check."""
    try:
        s = np.linalg.svd(K.matrix, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise PrecisionError(f"SVD failed to converge: {exc}") from exc
    tr = complex(np.trace(K.matrix))
    hs = float(np.linalg.norm(K.matrix.ravel()))
    hs_sv = float(np.sqrt((s**2).sum()))
    if hs > 0 and abs(hs - hs_sv) > 1e-10 * hs:
        raise PrecisionError("Hilbert-Schmidt cross-check failed; SVD unreliable")
    sch = {}
    for p in map(_check_exponent, ps):
        if np.isinf(p):
            sch[p] = float(s[0]) if s.size else 0.0
        else:
            sch[p] = float((s**p).sum() ** (1.0 / p))
    return SpectralSummary(s, tr, hs, sch)


def sigma_tilde(sigma: PhaseSpaceField, g: Signal) -> PhaseSpaceField:
    """Diagonal expectations <L atom, atom> over every phase-space grid point.

    The atom at (m, j/M) lives on m + [-K, K]^n, so only the kernel block
    K[B_m, B_m] enters.  Summing conj(g(u)) K[m+u, m+v] g(v) along the
    diagonals u - v = d gives q_m(d), and one matmul with the phases
    e^{-2 pi i d.j/M} gives every node j at once.
    """
    _check_operator_inputs(sigma, g, g)
    if g.is_zero():
        raise DomainError("window must be non-zero")
    spec, torus = sigma.spec, sigma.torus
    n, R = spec.n, spec.K
    K = kernel(sigma, g, g).matrix
    gl = _local(g)
    G = np.conj(gl)[:, None] * gl[None, :]
    idx = _difference_index(n, R).ravel()
    D = (4 * R + 1) ** n
    q = np.empty((math.prod(sigma.lattice_shape), D), dtype=np.complex128)
    for qm, block in zip(q, _shift_blocks(sigma, K)):
        Q = (G * block.reshape(G.shape)).ravel()
        qm[:] = np.bincount(idx, Q.real, D) + 1j * np.bincount(idx, Q.imag, D)
    vals = (q @ phase_matrix(torus.M, -2 * R, 2 * R, -1, n)).reshape(
        sigma.lattice_shape + torus.shape
    )
    return PhaseSpaceField(
        spec, torus, sigma.m_radius, vals, degree_bound=min(2 * spec.K, torus.M - 1)
    )
