"""Modulation-space norms of signals and of phase-space symbols.

A modulation norm measures a signal through the size of its analysis
transform: L^p gives M^p, a Luxemburg norm over the product measure gives
M^Phi, the mixed norms give M^{Phi,Psi}, and the swapped mixed norm gives
the amalgam-style W^{Phi,Psi}.  Symbols on the lattice-torus product get
their own M^p through the second-level transform.

The default analysis window is an l2-normalized truncated Gaussian; the
phase-space window for symbol norms is that Gaussian tensored with a Fejer
kernel, which is nonnegative and of exactly representable degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from .errors import DomainError
from .lattice import (
    LatticeSpec,
    PhaseSpaceField,
    Signal,
    TorusGrid,
    _check_finite,
    delta_signal,
    norm2,
    phase_matrix,
)
from .orlicz import (
    _check_exponent,
    field_lp_norm,
    mixed_norm,
    mixed_norm_swapped,
    orlicz_norm,
)
from .stft import _SymbolShifts, _symbol_freq_radius, stft
from .young import YoungFunction

__all__ = [
    "WindowSpec",
    "window_signal",
    "symbol_window",
    "modulation_norm",
    "orlicz_modulation_norm",
    "symbol_modulation_norm",
    "EmbeddingResult",
    "embedding_condition",
]


@dataclass(frozen=True)
class WindowSpec:
    """Built-in analysis window: gaussian(width) or kronecker."""

    kind: str = "gaussian"
    width: Optional[float] = None
    normalization: str = "l2"  # "l2" or "none"

    def __post_init__(self):
        if self.kind not in ("gaussian", "kronecker"):
            raise DomainError(f"unknown window kind {self.kind!r}")
        if self.normalization not in ("l2", "none"):
            raise DomainError("window normalization must be 'l2' or 'none'")


def window_signal(spec: WindowSpec, lattice: LatticeSpec) -> Signal:
    """Realize a window spec as an admissible non-zero signal."""
    if spec.kind == "kronecker" or lattice.K == 0:
        g = delta_signal(lattice)
    else:
        width = spec.width if spec.width is not None else lattice.K / 2.0
        if width <= 0:
            raise DomainError("gaussian window width must be positive")
        v = np.zeros(lattice.shape, dtype=np.complex128)
        prof = np.exp(-math.pi * (np.arange(-lattice.K, lattice.K + 1) ** 2) / width)
        v[lattice.admissible_slices()] = reduce(np.multiply.outer, [prof] * lattice.n)
        g = Signal(lattice, v)
    if spec.normalization == "l2":
        g = Signal(lattice, g.values / norm2(g))
    return g


def _fejer_values(M: int, degree: int) -> np.ndarray:
    """Fejer kernel samples sum_{|d|<=L} (1 - |d|/(L+1)) e^{2 pi i d j / M}."""
    coefs = 1.0 - np.abs(np.arange(-degree, degree + 1)) / (degree + 1.0)
    return (coefs[:, None] * phase_matrix(M, -degree, degree, 1)).sum(axis=0).real


def symbol_window(lattice: LatticeSpec, torus: TorusGrid) -> PhaseSpaceField:
    """Phase-space window: lattice Gaussian times a degree-floor(M/4) Fejer kernel."""
    degree = torus.M // 4
    prof = np.exp(
        -math.pi * (np.arange(-lattice.K, lattice.K + 1) ** 2) / max(lattice.K / 2.0, 0.5)
    )
    lat = reduce(np.multiply.outer, [prof] * lattice.n)
    tor = reduce(np.multiply.outer, [_fejer_values(torus.M, degree)] * torus.n)
    vals = np.multiply.outer(lat, tor).astype(np.complex128)
    scale = math.sqrt(torus.weight * float((np.abs(vals) ** 2).sum()))
    field = PhaseSpaceField(
        lattice, torus, lattice.K, vals / scale, degree_bound=degree
    )
    return field


def _as_window(g0, lattice: LatticeSpec) -> Signal:
    if isinstance(g0, Signal):
        return g0
    if isinstance(g0, WindowSpec):
        return window_signal(g0, lattice)
    raise DomainError("window must be a Signal or WindowSpec")


def modulation_norm(f: Signal, g0, p: float, torus: TorusGrid) -> float:
    """M^p norm: the L^p size of the analysis transform (grid sup for p = inf)."""
    g = _as_window(g0, f.spec)
    return field_lp_norm(stft(f, g, torus), p)


def orlicz_modulation_norm(
    f: Signal,
    g0,
    phi: YoungFunction,
    psi: Optional[YoungFunction] = None,
    variant: str = "MPhi",
    *,
    torus: TorusGrid,
) -> float:
    """Orlicz modulation norms: 'MPhi', 'MPhiPsi' (mixed), 'WPhiPsi' (swapped)."""
    g = _as_window(g0, f.spec)
    F = stft(f, g, torus)
    if variant == "MPhi":
        return orlicz_norm(F, phi)
    if psi is None:
        raise DomainError(f"variant {variant!r} needs a second Young function")
    if variant == "MPhiPsi":
        return mixed_norm(F, phi, psi)
    if variant == "WPhiPsi":
        return mixed_norm_swapped(F, phi, psi)
    raise DomainError(f"unknown modulation-norm variant {variant!r}")


def symbol_modulation_norm(
    sigma: PhaseSpaceField, G0: PhaseSpaceField, p: float
) -> float:
    """M^p norm of a symbol via the second-level transform.

    The measure is counting on both lattice-type axes and quadrature on both
    torus-type axes.  The norm streams over the lattice shifts m of
    `stft._SymbolShifts` and never holds the whole transform, so it runs at
    n = 2.  At p = 2 it makes no slab at all: each m adds its slab's sum of
    |.|^2, which Parseval gives from m's coefficient product
    (`slab_energy`).  Other p make each m's slab and reduce it by |.|,
    power and sum (max for p = inf), holding one slab.  The exponent and
    the transform's input checks run before the first m.  A non-finite
    entry makes its m's part non-finite, so only then is the slab made (at
    p = 2) and scanned entry by entry: a non-finite entry raises
    DomainError, while finite entries whose |.|^p overflows give inf.  At
    p = 2 an entry can only be non-finite once some |Z|^2 has overflowed,
    so that scan misses nothing.
    """
    p = _check_exponent(p)
    shifts = _SymbolShifts(sigma, G0, _symbol_freq_radius(sigma, G0))
    a = None
    acc = 0.0
    for _ in shifts:
        if p == 2:
            part = shifts.slab_energy()
        else:
            a = np.abs(shifts.slab(), out=a)
            if p != 1 and not np.isinf(p):
                np.power(a, p, out=a)
            part = float(a.max() if np.isinf(p) else a.sum())
        if not np.isfinite(part):
            _check_finite(shifts.slab(), "transform")
        acc = max(acc, part) if np.isinf(p) else acc + part
    if np.isinf(p):
        return acc
    return float((sigma.torus.weight**2 * acc) ** (1.0 / p))


@dataclass(frozen=True)
class EmbeddingResult:
    holds: bool
    C: float


def embedding_condition(
    phi_pair, psi_pair, x0: float, grid: int = 256
) -> EmbeddingResult:
    """Grid certificate for Psi_i(x) <= C Phi_i(x) on (0, x0], i = 1, 2.

    Returns the smallest grid-certified constant.  The condition is declared
    failed when the ratio still grows at the small end of the grid, which is
    how a divergence like -log x is detected.
    """
    if not x0 > 0:
        raise DomainError("x0 must be positive")
    xs = np.geomspace(x0 * 1e-8, x0, grid)
    worst = 0.0
    holds = True
    for phi, psi in zip(phi_pair, psi_pair):
        with np.errstate(all="ignore"):
            num = psi._eval(xs)
            den = phi._eval(xs)
        if np.any((den == 0) & (num > 0)):
            return EmbeddingResult(False, float("inf"))
        ratio = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
        if ratio[0] > ratio[1] * (1 + 1e-9):
            holds = False
        worst = max(worst, float(ratio.max()))
    return EmbeddingResult(holds, worst)
