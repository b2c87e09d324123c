"""Time-frequency localization operators and their spectral summaries.

The operator analyzes with g1, multiplies by a phase-space symbol, and
synthesizes with g2.  On the truncation it is a dense matrix, the sum over
lattice shifts m of diag(T_m g2) C_m diag(conj T_m g1) with the Toeplitz
matrix C_m(k, l) = c_m(k - l).  Each term lives on the (2K+1)^n block
around m, so the kernel is assembled one small block per m, in a fixed
order, and is reproducible bit for bit.  Every operator path sums one
integrand of degree deg sigma + 2K (the product's deg sigma + K and the
atoms' K) and refuses it, once, above M - 1.  The diagonal expectations
are the Berezin transform sigma * |V_g g|^2, one phase-space convolution.
Spectral data comes from a dense SVD; every singular value is kept
(thresholding would corrupt trace norms).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import DomainError, PrecisionError, RangeError, _check_exponent
from .lattice import (
    LatticeSpec,
    PhaseSpaceField,
    Signal,
    TorusGrid,
    _check_finite,
    _convolve,
    block_slices,
    coefficients_to_values,
    overlap,
    phase_matrix,
)
from .stft import _stft_values, _synthesis_values, stft

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
    """Windows, lattice range and integrand degree: checked once on every operator path."""
    spec = sigma.spec
    if g1.spec != spec or g2.spec != spec:
        raise DomainError("windows must live on the symbol's lattice")
    if not (g1.admissible and g2.admissible):
        raise DomainError("windows must be supported in [-K, K]^n")
    if sigma.m_radius > 2 * spec.K:
        raise RangeError(
            "symbol lattice radius exceeds 2K; atoms would leave the computation box"
        )
    sigma.torus.require_exact(sigma.degree_bound + 2 * spec.K, "operator synthesis")


def _crop(V: np.ndarray, sigma: PhaseSpaceField) -> np.ndarray:
    """An STFT array over [-2K, 2K]^n cut to the symbol's lattice range (radius <= 2K)."""
    return V[overlap((0,) * sigma.n, sigma.m_radius, 2 * sigma.spec.K)[1]]


def apply_operator(
    sigma: PhaseSpaceField, g1: Signal, g2: Signal, f: Signal
) -> Signal:
    """Apply the localization operator: synthesize(sigma * analyze(f))."""
    _check_operator_inputs(sigma, g1, g2)
    spec, torus = sigma.spec, sigma.torus
    V = stft(f, g1, torus)
    prod = sigma.values * _crop(V.values, sigma)
    return Signal(spec, _synthesis_values(prod, g2.values, spec, torus, sigma.m_radius))


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
    Vh = _stft_values(h.values, g2.values, spec, torus, 2 * spec.K)
    _check_finite(Vh, "phase-space field")
    prod = sigma.values * _crop(Vf.values, sigma) * np.conj(_crop(Vh, sigma))
    return complex(torus.weight * prod.sum())


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


def _local(g: Signal) -> np.ndarray:
    """The window on [-K, K]^n, flattened lexicographically."""
    return g.values[g.spec.admissible_slices()].ravel()


def kernel(sigma: PhaseSpaceField, g1: Signal, g2: Signal) -> OperatorKernel:
    """Dense kernel K(k, l) = sum_m int sigma(m, w) conj(atom1(l)) atom2(k) dw.

    One matmul gives c_m(d) = (1/M^n) sum_j sigma(m, j) e^{2 pi i d.j/M} for
    every m and every d in [-2K, 2K]^n.  Each shift m then adds the block
    g2(u) c_m(u - v) conj(g1(v)) at rows and columns m + [-K, K]^n, in a
    fixed order of m.
    """
    _check_operator_inputs(sigma, g1, g2)
    spec, torus = sigma.spec, sigma.torus
    n, R = spec.n, spec.K
    P = phase_matrix(torus.M, -2 * R, 2 * R, 1, n)
    c = (sigma.values.reshape(-1, torus.M**n) * torus.weight) @ P.T
    G = _local(g2)[:, None] * np.conj(_local(g1))[None, :]
    idx = _difference_index(n, R)
    K = np.zeros((spec.side**n,) * 2, dtype=np.complex128)
    t = K.reshape(spec.shape * 2)  # row axes first
    for cm, m in zip(c, sigma.m_points()):
        sl = block_slices(spec, m)  # |m| <= 2K keeps m + [-K, K]^n inside the box
        block = t[sl + sl]
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
    return kernel(replace(sigma, values=np.conj(sigma.values)), g2, g1)


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

    Covariance gives |<M_w T_m g, M_x T_l g>| = |V_g g(l - m, x - w)|, so they
    are the Berezin transform sigma * |V_g g|^2 on sigma's lattice range, of
    degree min(deg sigma, 2K): the operator check covers its extractions.
    """
    if g.is_zero():
        raise DomainError("window must be non-zero")
    _check_operator_inputs(sigma, g, g)
    spec, torus = sigma.spec, sigma.torus
    n, K, R = spec.n, spec.K, sigma.m_radius
    W = np.abs(_stft_values(g.values, g.values, spec, torus, 2 * K)) ** 2
    d = min(sigma.degree_bound, 2 * K)
    coef = _convolve(sigma.values, W, torus, d)[overlap((0,) * n, R, R + 2 * K)[1]]
    return PhaseSpaceField(spec, torus, R, coefficients_to_values(coef, torus, d), degree_bound=d)
