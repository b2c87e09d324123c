"""Short-time Fourier transform on the truncated lattice and its synthesis.

The analysis map is V_g f(m, w) = sum_k f(k) conj(g(k-m)) e^{-2 pi i w.k}
with m restricted to [-2K, 2K]^n, which covers the support of V_g f for
admissible f and g.  Sampled at the torus grid this is exact: each slice
V_g f(m, .) is a trigonometric polynomial of per-axis degree <= K.

The adjoint sums Gabor atoms against a field; its torus integral is done by
grid quadrature, which is exact as long as degree_bound + K <= M - 1, and
the operation refuses to run otherwise rather than approximate silently.

A second-level transform analyzes phase-space fields themselves against a
phase-space window, producing the four-index array indexed by (lattice
shift, torus shift, lattice frequency, torus frequency); the torus-shift
variable is realized by index rotation on the shared grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DomainError, PrecisionError
from .lattice import (
    LatticeSpec,
    PhaseSpaceField,
    Signal,
    TorusGrid,
    inner,
    norm2,
    phase_matrix,
    shift_array,
)

__all__ = [
    "SymbolTransform",
    "stft",
    "stft_adjoint",
    "invert",
    "stft_symbol",
]


def _require_admissible(f: Signal, name: str) -> None:
    if not f.admissible:
        raise DomainError(f"{name} must be supported in [-K, K]^n")


def _stft_values(
    fvals: np.ndarray, gvals: np.ndarray, spec: LatticeSpec, torus: TorusGrid, R: int
) -> np.ndarray:
    """Defining sum over m in [-R, R]^n for arbitrary box-supported arrays."""
    # (j, k) operand layout: BLAS rounds the two layouts differently, and this
    # one keeps seeded reports bit-identical to those of earlier versions
    E = np.ascontiguousarray(phase_matrix(torus.M, -spec.C, spec.C, -1).T)
    out = np.empty((2 * R + 1,) * spec.n + torus.shape, dtype=np.complex128)
    for m in itertools.product(range(-R, R + 1), repeat=spec.n):
        h = fvals * np.conj(shift_array(gvals, m))
        for _ in range(spec.n):
            h = np.tensordot(h, E, axes=([0], [1]))
        out[tuple(c + R for c in m)] = h
    return out


def stft(f: Signal, g: Signal, torus: TorusGrid) -> PhaseSpaceField:
    """Analysis transform of f against window g on the torus grid."""
    spec = f.spec
    if g.spec != spec or torus.n != spec.n:
        raise DomainError("signal, window, and torus grids must match")
    _require_admissible(f, "signal")
    _require_admissible(g, "window")
    if g.is_zero():
        raise DomainError("window must be non-zero")
    R = 2 * spec.K
    out = _stft_values(f.values, g.values, spec, torus, R)
    return PhaseSpaceField(spec, torus, R, out, degree_bound=spec.K)


def stft_adjoint(F: PhaseSpaceField, g: Signal) -> Signal:
    """Synthesis: sum_m (1/M^n) sum_j F(m, w_j) e^{2 pi i w_j.k} g(k-m)."""
    spec = F.spec
    if g.spec != spec:
        raise DomainError("window lattice must match the field")
    _require_admissible(g, "window")
    if F.degree_bound + spec.K > F.torus.M - 1:
        raise PrecisionError(
            "synthesis integral not exactly integrable: "
            f"degree_bound {F.degree_bound} + K {spec.K} exceeds M-1 = {F.torus.M - 1}"
        )
    if F.m_radius + spec.K > spec.C:
        raise PrecisionError(
            "atoms at the outermost lattice shifts would leave the computation box"
        )
    E = phase_matrix(F.torus.M, -spec.C, spec.C, 1) / F.torus.M
    coef = F.values
    for _ in range(spec.n):
        coef = np.tensordot(coef, E, axes=([spec.n], [1]))
    out = np.zeros(spec.shape, dtype=np.complex128)
    for m in F.m_points():
        out += coef[F.m_index(m)] * shift_array(g.values, m)
    return Signal(spec, out)


def invert(F: PhaseSpaceField, g: Signal, h: Signal) -> Signal:
    """Reconstruct f from F = stft(f, g) using synthesis window h."""
    denom = inner(h, g)
    scale = norm2(h) * norm2(g)
    if abs(denom) <= 1e-12 * scale:
        raise ConditioningError(
            "windows are nearly orthogonal; reconstruction constant too small"
        )
    rec = stft_adjoint(F, h)
    return Signal(rec.spec, rec.values / denom)


@dataclass
class SymbolTransform:
    """Second-level transform indexed by (m, omega, xi, k).

    m ranges over the full support radius F.m_radius + window lattice radius,
    omega and xi over the torus grid, and k over [-D, D]^n.
    """

    spec: LatticeSpec
    torus: TorusGrid
    m_radius: int
    freq_radius: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.complex128)
        n, M = self.spec.n, self.torus.M
        want = (
            (2 * self.m_radius + 1,) * n
            + (M,) * n
            + (M,) * n
            + (2 * self.freq_radius + 1,) * n
        )
        if self.values.shape != want:
            raise DomainError(f"transform shape {self.values.shape}, expected {want}")
        if not np.all(np.isfinite(self.values.view(np.float64))):
            raise DomainError("transform contains non-finite values")


def stft_symbol(
    F: PhaseSpaceField, G: PhaseSpaceField, freq_radius: int | None = None
) -> SymbolTransform:
    """Analyze a phase-space field against a phase-space window.

    values(m, omega, xi, k) =
        sum_j int e^{-2 pi i j.xi} e^{-2 pi i eta.k} F(j, eta)
              conj(G(j-m, eta-omega)) d eta,
    with the eta integral evaluated by exact grid quadrature and the omega
    shift realized by index rotation (G is sampled on the same grid).
    """
    if F.torus != G.torus or F.spec != G.spec:
        raise DomainError("field and window must share lattice and torus grids")
    spec, torus = F.spec, F.torus
    n, M = spec.n, torus.M
    if G.m_radius > spec.K:
        raise DomainError("window must be admissible in the lattice direction")
    D = F.degree_bound + G.degree_bound if freq_radius is None else int(freq_radius)
    if D < F.degree_bound:
        raise DomainError("freq_radius must cover the analyzed field's degree")
    if F.degree_bound + G.degree_bound + D > M - 1:
        raise PrecisionError(
            "eta integral not exactly integrable: degree sum "
            f"{F.degree_bound + G.degree_bound + D} exceeds M-1 = {M - 1}"
        )
    Rf, Rg = F.m_radius, G.m_radius
    Rm = Rf + Rg

    Mn = M**n
    EkB = phase_matrix(M, -D, D, -1, n).T / Mn  # eta -> k, with weight
    ExiB = phase_matrix(M, -Rf, Rf, -1, n)  # lattice j -> xi
    Dn = (2 * D + 1) ** n
    Fflat = F.values.reshape((2 * Rf + 1,) * n + (Mn,))
    out = np.zeros(
        ((2 * Rm + 1,) * n) + (Mn, Mn * Dn), dtype=np.complex128
    )  # (m..., omega_flat, xi_flat*k_flat)

    for wi, omega in enumerate(np.ndindex(torus.shape)):
        Grot = np.conj(np.roll(G.values, omega, axis=tuple(range(n, 2 * n))))
        Grot = Grot.reshape((2 * Rg + 1,) * n + (Mn,))
        for m in itertools.product(range(-Rm, Rm + 1), repeat=n):
            lo = [max(-Rf, mc - Rg) for mc in m]
            hi = [min(Rf, mc + Rg) for mc in m]
            if any(l > h for l, h in zip(lo, hi)):
                continue
            fsl = tuple(slice(l + Rf, h + Rf + 1) for l, h in zip(lo, hi))
            gsl = tuple(
                slice(l - mc + Rg, h - mc + Rg + 1) for l, h, mc in zip(lo, hi, m)
            )
            H = Fflat[fsl] * Grot[gsl]  # (overlap..., eta_flat)
            olap = int(np.prod(H.shape[:n]))
            T = H.reshape(olap, Mn) @ EkB  # (overlap, k_flat)
            # rows of ExiB for the overlapping lattice indices
            rows = np.ravel_multi_index(
                np.meshgrid(
                    *[np.arange(l + Rf, h + Rf + 1) for l, h in zip(lo, hi)],
                    indexing="ij",
                ),
                (2 * Rf + 1,) * n,
            ).reshape(-1)
            block = ExiB[rows].T @ T  # (xi_flat, k_flat)
            out[tuple(c + Rm for c in m)][wi] = block.reshape(-1)

    shaped = out.reshape(
        (2 * Rm + 1,) * n + (M,) * n + (M,) * n + (2 * D + 1,) * n
    )
    return SymbolTransform(spec, torus, Rm, D, shaped)
