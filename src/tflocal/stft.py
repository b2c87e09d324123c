"""Short-time Fourier transform on the truncated lattice and its synthesis.

The analysis map is V_g f(m, w) = sum_k f(k) conj(g(k-m)) e^{-2 pi i w.k}
with m restricted to [-2K, 2K]^n, which covers the support of V_g f for
admissible f and g.  Sampled at the torus grid this is exact: each slice
V_g f(m, .) is a trigonometric polynomial of per-axis degree <= K.

Every lattice-shift sum here runs in block form.  The window lives on
[-K, K]^n, so with k = m + u only u in [-K, K]^n enters:

    V_g f(m, w) = e^{-2 pi i m.w} sum_u f(m+u) conj(g(u)) e^{-2 pi i u.w}.

Analysis reads every block f(m + [-K, K]^n) through one window view, then
does one matmul against the phases of [-K, K]^n and one product with the
phases of m.  Synthesis is the transpose: the phases of m, one matmul back
to u, and an overlap-add of each block into m + [-K, K]^n in a fixed order
of m.  Every block placement here comes from `lattice.overlap`.

The adjoint sums Gabor atoms against a field; its torus integral is done by
grid quadrature, which is exact as long as degree_bound + K <= M - 1, and
the operation refuses to run otherwise rather than approximate silently.

A second-level transform analyzes phase-space fields themselves against a
phase-space window, producing the four-index array indexed by (lattice
shift, torus shift, lattice frequency, torus frequency).  It runs on the
torus Fourier coefficients cF, cG (`lattice.field_coefficients`): at
j = m + u the eta integral is the finite sum over b in [-deg G, deg G]^n

    T(u, k, omega) = sum_b cF(m+u, k+b) conj(cG(u, b)) e^{2 pi i b.omega},

exact for fields of the stated `degree_bound` (as `convolve_phase_space`
also relies on) while 2D <= M - 1, D = deg F + deg G.  Per lattice shift m
that is one product of coefficients Z(u, k, b) = cF(m+u, k+b) conj(cG(u, b)),
one matmul from b to omega and one from u to xi, with u in the window's
lattice radius R trimmed per axis to the j = m + u in F's lattice range:
the two sides of `lattice.overlap(m, R, R_f)`.

A tensor-product window, conj(cG(u, b)) = a(u) c(b), makes the b sum
separate (Groechenig, Foundations of Time-Frequency Analysis, 2001, ch. 3):
T(u, k, omega) = a(u) H(m+u, k, omega) with

    H(j, k, omega) = sum_b cF(j, k+b) c(b) e^{2 pi i b.omega},

which does not depend on m.  So H is made once over F's whole lattice
range, and each m's slab is one matmul: the phases of j = m + u times a(u),
from u to xi, against H's rows j.  Every window the package builds is such
a product (`symbol_window` is a lattice Gaussian times a Fejer kernel); the
choice is made from the window's coefficients, which must be rank one to
within a rounding bound, and any other window takes the Z path.

One private class, `_SymbolShifts`, owns this transform: building it checks
the inputs, sizes D and the shift radius, and certifies the window's rank,
and iterating it runs the loop over m in a fixed order, yielding each m's
overlap (u, j).  `slab(u, j)` makes the (xi, k, omega) slab by either path;
it keeps no state per shift.  `stft_symbol` stacks the slabs into the full
array, while the symbol norm at p != 2 reduces each slab as it arrives and
so never holds more than one slab (1/(2(R_f+R)+1)^n of the transform) and,
for a rank-one window, H ((2 R_f + 1)^n / M^n times one slab's size).

The slab of m is the 2n-dimensional DFT of Z over (j mod M, b), so by
Parseval its sum of |.|^2 is M^{2n} times that of Z summed over u by residue
j mod M: a discrete form of Moyal's identity (Groechenig, Foundations of
Time-Frequency Analysis, 2001, 3.2).  `slab_energy(u, j)` takes it from Z
alone, for either kind of window, and the M^2 symbol norm makes no slab at
all.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConditioningError, DomainError
from .lattice import (
    LatticeSpec,
    PhaseSpaceField,
    Signal,
    TorusGrid,
    _check_finite,
    block_slices,
    field_coefficients,
    inner,
    norm2,
    overlap,
    phase_matrix,
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
    """V(m, w) for m in [-R, R]^n, in block form (see the module docstring).

    f may be any box signal (operator outputs reach [-3K, 3K]^n): with g
    admissible and R + K <= C every block m + [-K, K]^n stays in the box.
    """
    n, K = spec.n, spec.K
    box = fvals[block_slices(spec, (0,) * n, R + K)]
    blocks = sliding_window_view(box, (2 * K + 1,) * n)
    h = blocks * np.conj(gvals[spec.admissible_slices()])
    out = h.reshape((2 * R + 1) ** n, -1) @ phase_matrix(torus.M, -K, K, -1, n)
    out *= phase_matrix(torus.M, -R, R, -1, n)
    return out.reshape((2 * R + 1,) * n + torus.shape)


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


def _synthesis_values(
    vals: np.ndarray, gvals: np.ndarray, spec: LatticeSpec, torus: TorusGrid, R: int
) -> np.ndarray:
    """Synthesis of field values over [-R, R]^n; each caller checks the degree."""
    n, K, M = spec.n, spec.K, torus.M
    coef = vals.reshape(-1, M**n) * phase_matrix(M, -R, R, 1, n)
    coef = (coef @ phase_matrix(M, -K, K, 1, n).T) * torus.weight
    coef *= gvals[spec.admissible_slices()].ravel()
    out = np.zeros(spec.shape, dtype=np.complex128)
    for cm, m in zip(coef, itertools.product(range(-R, R + 1), repeat=n)):
        out[block_slices(spec, m)] += cm.reshape((2 * K + 1,) * n)
    return out


def stft_adjoint(F: PhaseSpaceField, g: Signal) -> Signal:
    """Synthesis: sum_m (1/M^n) sum_j F(m, w_j) e^{2 pi i w_j.k} g(k-m).

    Block form, the transpose of the analysis, overlap-added in the order of m.
    """
    spec = F.spec
    if g.spec != spec:
        raise DomainError("window lattice must match the field")
    _require_admissible(g, "window")
    F.torus.require_exact(F.degree_bound + spec.K, "synthesis integral")
    return Signal(spec, _synthesis_values(F.values, g.values, spec, F.torus, F.m_radius))


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
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.complex128)
        n, M = self.spec.n, self.torus.M
        want = (2 * self.m_radius + 1,) * n + (M,) * (2 * n) + (2 * self.freq_radius + 1,) * n
        if self.values.shape != want:
            raise DomainError(f"transform shape {self.values.shape}, expected {want}")
        # one lattice shift's slab at a time: no temporary of the transform's size
        for slab in self.values.reshape((2 * self.m_radius + 1) ** n, -1):
            _check_finite(slab, "transform")


def _rank_one(W: np.ndarray, n: int, M: int):
    """Factors (a, c) with W(u, b) = a(u) c(b) up to rounding, or None.

    u and b have n axes each.  At W's largest entry (u0, b0),
    a = W[:, b0] / W[u0, b0] and c = W[u0, :].
    W is rank one when max|W - a c| <= 4 M^n u max|W|, u = 2^-53: each
    coefficient is a quadrature sum of M^n terms, whose rounding error is
    about M^n u (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, 3.1), and 4 is headroom.  `symbol_window` leaves a residual of at
    most 5.5 * 2^-52 at every scale of the ladder; a window that is not a tensor
    product leaves O(1).  A zero or non-finite W is not certified.
    """
    shape = W.shape
    W = W.reshape(math.prod(shape[:n]), -1)
    u0, b0 = np.unravel_index(np.argmax(np.abs(W)), W.shape)
    top = W[u0, b0]
    if not 0 < abs(top) < math.inf:
        return None
    a, c = W[:, b0] / top, W[u0]
    if not np.abs(W - np.multiply.outer(a, c)).max() <= 4 * M**n * 2.0**-53 * abs(top):
        return None
    return a.reshape(shape[:n]), c.reshape(shape[n:])


class _SymbolShifts:
    """The second-level transform of F against the phase-space window G.

    Building it checks the inputs: shared grids, a window admissible in the
    lattice direction, then the eta integral (2D <= M - 1).  It exposes the
    k radius D = deg F + deg G and the lattice-shift radius Rm, and
    certifies whether G's coefficients are rank one (`_rank_one`).
    Iterating runs the one loop over m, in C order of [-Rm, Rm]^n, and
    yields m's overlap (u, j): the slices of the window range that the
    trimmed u take and of F's lattice range that j = m + u reach.
    `slab(u, j)` makes m's (xi, k, omega) slab, shape (M^n, (2D+1)^n, M^n);
    `slab_energy(u, j)` gives that slab's sum of |.|^2 without making it,
    from m's coefficient product Z (module docstring), shape (u) +
    (2D+1,)*n + (2 deg G + 1,)*n.  A general window's slab is made from Z
    by the two matmuls.  A rank-one window's slab is one matmul from the
    table H, which the first slab makes over all of F's range.  Both read
    only their arguments and nothing is kept per shift: Z, the slab and its
    (u, k, omega) rows live in buffers that the next m reuses.  The first Z
    makes Z's buffer and the first `slab` makes the slab buffers and H, so
    a path allocates only what it uses.  Nothing here checks finiteness,
    which each consumer does.
    """

    def __init__(self, F: PhaseSpaceField, G: PhaseSpaceField):
        if F.torus != G.torus or F.spec != G.spec:
            raise DomainError("field and window must share lattice and torus grids")
        if G.m_radius > F.spec.K:
            raise DomainError("window must be admissible in the lattice direction")
        self.D = D = F.degree_bound + G.degree_bound
        F.torus.require_exact(2 * D, "eta integral")
        n, M = F.spec.n, F.torus.M
        Rf, Rg, dG = F.m_radius, G.m_radius, G.degree_bound
        self.Rm = Rf + Rg
        self._n, self._M, self._Rf, self._Rg, self._dG = n, M, Rf, Rg, dG
        self._Dk, self._Bn = (2 * D + 1) ** n, (2 * dG + 1) ** n
        # cF(j, k + b) for every k in [-D, D]^n and b in [-dG, dG]^n: windows of
        # width 2 dG + 1 over F's coefficients padded by 2 dG zeros per side
        cF = np.pad(field_coefficients(F), ((0, 0),) * n + ((2 * dG, 2 * dG),) * n)
        self._cF = sliding_window_view(cF, (2 * dG + 1,) * n, axis=tuple(range(n, 2 * n)))
        cG = np.conj(field_coefficients(G))
        self._cG = np.expand_dims(cG, tuple(range(n, 2 * n)))
        self._factors = _rank_one(cG, n, M)
        self._Zbuf = self._slab_bufs = None

    def __iter__(self):
        Rg, Rf, Rm = self._Rg, self._Rf, self.Rm
        for m in itertools.product(range(-Rm, Rm + 1), repeat=self._n):
            yield overlap(m, Rg, Rf)

    def _product(self, u: tuple, j: tuple) -> np.ndarray:
        """m's coefficient product Z(u, k, b) = cF(m+u, k+b) conj(cG(u, b))."""
        block, cG = self._cF[j], self._cG[u]  # (u, k, b), (u, 1, b)
        if self._Zbuf is None:  # sized for Z at its largest, all u in [-Rg, Rg]^n
            self._Zbuf = np.empty(self._cG.size * self._Dk, dtype=np.complex128)
        Z = self._Zbuf[: block.size].reshape(block.shape)
        # copy, then scale one u at a time: a single broadcast product makes
        # numpy buffer its strided operands (0.8 of Z's size at n=1, K=8)
        np.copyto(Z, block)
        n = self._n
        for Zu, cGu in zip(Z.reshape((-1,) + Z.shape[n:]), cG.reshape((-1,) + cG.shape[n:])):
            Zu *= cGu
        return Z

    def slab(self, u: tuple, j: tuple) -> np.ndarray:
        """The (xi, k, omega) slab of the shift m whose overlap is (u, j)."""
        n, M, Dk, Bn = self._n, self._M, self._Dk, self._Bn
        Mn = M**n
        if self._slab_bufs is None:
            Rf, Rg, dG = self._Rf, self._Rg, self._dG
            Eb = phase_matrix(M, -dG, dG, 1, n)  # b -> omega
            H = None
            if self._factors is not None:
                # H(j, k, omega) = sum_b cF(j, k+b) c(b) e^{2 pi i b.omega} over F's range
                c = self._factors[1]
                H = np.empty((2 * Rf + 1,) * n + (Dk, Mn), dtype=np.complex128)
                for jj in np.ndindex(H.shape[:n]):
                    np.matmul((self._cF[jj] * c).reshape(Dk, Bn), Eb, out=H[jj])
            self._slab_bufs = (
                Eb,
                phase_matrix(M, -Rf, Rf, -1, n).T.reshape((Mn,) + (2 * Rf + 1,) * n),  # (xi, j)
                H,
                # the general path's (u, k, omega) rows
                np.empty((2 * Rg + 1) ** n * Dk * Mn, dtype=np.complex128) if H is None else None,
                np.empty((Mn, Dk, Mn), dtype=np.complex128),
            )
        Eb, Pj, H, T, slab = self._slab_bufs
        Pm = Pj[(slice(None),) + j].reshape(Mn, -1)  # the phases of j = m + u
        U = Pm.shape[1]
        if H is None:
            Tm = T[: U * Dk * Mn].reshape(U, Dk * Mn)
            np.matmul(self._product(u, j).reshape(U * Dk, Bn), Eb, out=Tm.reshape(U * Dk, Mn))
        else:
            # T(u, k, omega) = a(u) H(m + u, k, omega): a goes into the phases;
            # j's rows of H are a view at n = 1 and a copy at n >= 2
            Pm = Pm * self._factors[0][u].reshape(U)
            Tm = H[j].reshape(U, Dk * Mn)
        # u -> xi: (xi, u) @ (u, k omega)
        np.matmul(Pm, Tm, out=slab.reshape(Mn, Dk * Mn))
        return slab

    def slab_energy(self, u: tuple, j: tuple) -> float:
        """Sum of |.|^2 over m's slab, by Parseval on Z (module docstring).

        The fold by j mod M is the identity unless a trimmed u-axis is
        longer than M; b needs none, as 2 deg G + 1 <= 2D + 1 <= M.
        """
        Z, M = self._product(u, j), self._M
        for ax in range(self._n):
            L = Z.shape[ax]
            if L > M:
                Z = np.pad(Z, [(0, -L % M) if a == ax else (0, 0) for a in range(Z.ndim)])
                Z = Z.reshape(Z.shape[:ax] + (-1, M) + Z.shape[ax + 1 :]).sum(axis=ax)
        return M ** (2 * self._n) * float(np.vdot(Z, Z).real)


def stft_symbol(F: PhaseSpaceField, G: PhaseSpaceField) -> SymbolTransform:
    """Analyze a phase-space field against a phase-space window.

    values(m, omega, xi, k) =
        sum_j int e^{-2 pi i j.xi} e^{-2 pi i eta.k} F(j, eta)
              conj(G(j-m, eta-omega)) d eta,
    with k over [-D, D]^n, D = deg F + deg G, and the eta integral taken
    exactly in torus-coefficient space (PrecisionError unless 2D <= M - 1).
    `_SymbolShifts` makes one (xi, k, omega) slab per lattice shift m (see
    the module docstring); this function stores each as (omega, xi, k) in
    the one array of the transform's size, while `symbol_modulation_norm`
    reduces them one at a time and never holds more than one slab.
    """
    shifts = _SymbolShifts(F, G)
    n, M, D, Rm = F.spec.n, F.torus.M, shifts.D, shifts.Rm
    out = np.empty(((2 * Rm + 1) ** n, M**n, M**n, (2 * D + 1) ** n), dtype=np.complex128)
    for i, (u, j) in enumerate(shifts):
        out[i] = shifts.slab(u, j).transpose(2, 0, 1)
    shaped = out.reshape((2 * Rm + 1,) * n + (M,) * (2 * n) + (2 * D + 1,) * n)
    return SymbolTransform(F.spec, F.torus, Rm, D, shaped)
