"""Finite model of the lattice-torus phase space.

Signals live on the integer box [-C, C]^n and are called admissible when
their support fits inside [-K, K]^n.  With C >= 3K every translate produced
by the transforms in this package stays inside the box, so the usual
time-frequency identities hold without boundary leakage.  The torus is
sampled on the uniform M-point grid per axis; that grid integrates
trigonometric polynomials of per-axis degree <= M-1 exactly, which turns
every torus integral used here into a finite sum with no discretization
error.  The default M = 6K+1 is large enough for every integrand this
package produces.  `TorusGrid.require_exact` is the one place that rule is
compared: a routine that refuses a too coarse grid passes it the degree of
the integrand it is about to sum.

The phases exp(+-2 pi i d.j/M) of that quadrature come from one place,
`phase_matrix`; every transform, kernel and coefficient map in the package
uses it.  Its result is cached and read-only, so no caller can corrupt the
phases another caller sees.  The maps between torus samples and torus
Fourier coefficients, `field_coefficients` and `coefficients_to_values`,
sit next to it, and so does `_convolve`, the one phase-space convolution,
which works on coefficients.  Likewise every placement of a block
m + [-r, r]^n in an array stored over a range [-R, R]^n comes from one
place, `overlap`: the box position of an STFT or kernel block
(`block_slices`), the admissible block, translation, the crop of a field to
a smaller lattice radius and the second-level transform's trimmed window
all read it, so the order of the lattice axes is decided there alone.

Array layout is lexicographic with the slowest axis first (NumPy C order),
so serialized files are reproducible bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, PrecisionError, RangeError

__all__ = [
    "LatticeSpec",
    "TorusGrid",
    "Signal",
    "PhaseSpaceField",
    "phase_matrix",
    "overlap",
    "block_slices",
    "translate",
    "modulate",
    "gabor_atom",
    "inner",
    "norm2",
    "zero_signal",
    "delta_signal",
    "signal_from_block",
]


@dataclass(frozen=True)
class LatticeSpec:
    """Dimensions of the computation box: n axes, support radius K, box radius C."""

    n: int = 1
    K: int = 8
    C: int = None  # type: ignore[assignment]  # defaults to 3K

    def __post_init__(self):
        if self.C is None:
            object.__setattr__(self, "C", 3 * self.K)
        if self.n < 1:
            raise DomainError("lattice dimension n must be >= 1")
        if self.K < 0:
            raise DomainError("support radius K must be >= 0")
        if self.C < 3 * self.K:
            raise DomainError("computation radius C must be >= 3K")

    @property
    def side(self) -> int:
        return 2 * self.C + 1

    @property
    def shape(self) -> tuple:
        return (self.side,) * self.n

    def axis(self) -> np.ndarray:
        """Coordinates -C..C along one axis."""
        return np.arange(-self.C, self.C + 1)

    def admissible_slices(self) -> tuple:
        """Slices selecting the [-K, K]^n block inside the [-C, C]^n array."""
        return overlap((0,) * self.n, self.K, self.C)[1]


@dataclass(frozen=True)
class TorusGrid:
    """Uniform M-point sampling of the n-torus with quadrature weight 1/M^n."""

    n: int = 1
    M: int = 49

    def __post_init__(self):
        if self.M < 1:
            raise DomainError("torus sample count M must be >= 1")

    @property
    def shape(self) -> tuple:
        return (self.M,) * self.n

    @property
    def weight(self) -> float:
        return float(self.M) ** (-self.n)

    def nodes(self) -> np.ndarray:
        """Per-axis node coordinates j/M, j = 0..M-1."""
        return np.arange(self.M) / self.M

    def require_exact(self, degree: int, what: str) -> None:
        """Raise PrecisionError unless the grid sums an integrand of this degree exactly."""
        if degree > self.M - 1:
            raise PrecisionError(
                f"{what} not exactly integrable: degree {degree} exceeds M-1 = {self.M - 1}"
            )


@lru_cache(maxsize=None)
def phase_matrix(M: int, lo: int, hi: int, sign: int, n: int = 1) -> np.ndarray:
    """P[d, j] = exp(sign 2 pi i d.j / M) for d in [lo, hi]^n and grid nodes j/M.

    Rows run over d and columns over the M^n nodes, both flattened
    lexicographically, so for n > 1 the result is the n-th Kronecker power of
    the one-axis matrix.  The array is cached and read-only: writing into it
    raises ValueError.
    """
    P = np.exp(sign * 2j * np.pi * np.outer(np.arange(lo, hi + 1), np.arange(M)) / M)
    out = P
    for _ in range(n - 1):
        out = np.kron(out, P)
    out.flags.writeable = False
    return out


def field_coefficients(F: PhaseSpaceField) -> np.ndarray:
    """Torus Fourier coefficients per lattice point, exact for deg <= (M-1)/2."""
    M, n, deg = F.torus.M, F.n, F.degree_bound
    F.torus.require_exact(2 * deg, "coefficient extraction")
    coef = F.values.reshape(-1, M**n) @ phase_matrix(M, -deg, deg, -1, n).T
    coef *= F.torus.weight
    return coef.reshape(F.lattice_shape + (2 * deg + 1,) * n)


def coefficients_to_values(coef: np.ndarray, torus: TorusGrid, deg: int) -> np.ndarray:
    """Samples on the torus grid of the coefficients over the last n = torus.n axes."""
    n = torus.n
    lead = coef.shape[: coef.ndim - n]
    vals = coef.reshape(-1, (2 * deg + 1) ** n) @ phase_matrix(torus.M, -deg, deg, 1, n)
    return vals.reshape(lead + torus.shape)


def _convolve(a: np.ndarray, b: np.ndarray, torus: TorusGrid, deg: int) -> np.ndarray:
    """Torus coefficients on [-deg, deg]^n of sum_l int a(l, x) b(m - l, w - x) dx.

    a and b hold lattice ranges on their first n axes and the grid on the
    last n.  Nothing is checked: the caller keeps the integrand exact, and
    maps the lattice points it keeps back with `coefficients_to_values`.
    """
    n, M = torus.n, torus.M
    P = phase_matrix(M, -deg, deg, -1, n)
    ca, cb = (
        ((X.reshape(-1, M**n) @ P.T) * torus.weight).reshape(X.shape[:n] + (2 * deg + 1,) * n)
        for X in (a, b)
    )
    Ra, Rb = a.shape[0] // 2, b.shape[0] // 2
    out = np.zeros((2 * (Ra + Rb) + 1,) * n + cb.shape[n:], dtype=np.complex128)
    for idx in np.ndindex(ca.shape[:n]):
        window = overlap(tuple(i - Ra for i in idx), Rb, Ra + Rb)[1]
        out[window] += ca[idx] * cb
    return out


@lru_cache(maxsize=None)
def overlap(m: tuple, r: int, R: int) -> tuple:
    """Where the part of the block m + [-r, r]^n inside the range [-R, R]^n sits.

    Returns (block, range): slice tuples, one slice per axis of m, into an
    array over the block and into one over the range, both indexed from
    their low corner.  An empty overlap gives empty slices with non-negative
    bounds, never a stop that wraps around.  Cached like `phase_matrix`, as
    the transforms ask for every shift m of a lattice range on each call;
    the slices are immutable.
    """
    block, rng = [], []
    for a in map(int, m):
        lo, hi = max(a - r, -R), min(a + r, R)
        hi = max(hi, lo - 1)  # empty: stop = start
        block.append(slice(lo - a + r, hi - a + r + 1))
        rng.append(slice(lo + R, hi + R + 1))
    return tuple(block), tuple(rng)


def block_slices(spec: LatticeSpec, m, radius: int | None = None) -> tuple:
    """Slices of the [-C, C]^n box that hold the block m + [-r, r]^n, r = K by default.

    Raises RangeError when the block would leave the box.
    """
    r = spec.K if radius is None else radius
    if any(abs(int(a)) + r > spec.C for a in m):
        raise RangeError(f"block {tuple(m)} + [-{r}, {r}]^n leaves the box [-C, C]^n")
    return overlap(tuple(m), r, spec.C)[1]


def _check_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values.view(np.float64))):
        raise DomainError(f"{what} contains non-finite values")


@dataclass
class Signal:
    """Complex values on the box [-C, C]^n.  Treated as immutable after construction."""

    spec: LatticeSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.complex128)
        if self.values.shape != self.spec.shape:
            raise DomainError(
                f"signal shape {self.values.shape} does not match lattice {self.spec.shape}"
            )
        _check_finite(self.values, "signal")

    @property
    def admissible(self) -> bool:
        """True when the support lies inside [-K, K]^n."""
        inside = self.values[self.spec.admissible_slices()]
        return np.count_nonzero(inside) == np.count_nonzero(self.values)

    def is_zero(self) -> bool:
        return not np.any(self.values)


@dataclass
class PhaseSpaceField:
    """Complex values on ([-m_radius, m_radius]^n) x (torus grid).

    degree_bound is the largest per-axis trigonometric degree present in the
    torus direction; it must stay <= M-1 so that the grid integrates the
    field exactly.
    """

    spec: LatticeSpec
    torus: TorusGrid
    m_radius: int
    values: np.ndarray
    degree_bound: int = 0

    def __post_init__(self):
        if self.spec.n != self.torus.n:
            raise DomainError("lattice and torus dimensions differ")
        self.values = np.ascontiguousarray(self.values, dtype=np.complex128)
        want = self.lattice_shape + self.torus.shape
        if self.values.shape != want:
            raise DomainError(f"field shape {self.values.shape}, expected {want}")
        if self.degree_bound > self.torus.M - 1:
            raise DomainError("degree_bound exceeds M-1, beyond what the grid integrates exactly")
        _check_finite(self.values, "phase-space field")

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def lattice_shape(self) -> tuple:
        return (2 * self.m_radius + 1,) * self.spec.n

    def m_points(self):
        """Iterate lattice multi-indices m in lexicographic order."""
        r = range(-self.m_radius, self.m_radius + 1)
        return itertools.product(r, repeat=self.spec.n)


def _as_vector(x, n: int, name: str) -> tuple:
    if np.isscalar(x):
        if n > 1:
            raise DomainError(f"{name} must have {n} components")
        return (x,)
    vec = tuple(x)
    if len(vec) != n:
        raise DomainError(f"{name} must have {n} components")
    return vec


def translate(f: Signal, m) -> Signal:
    """Time shift: result(k) = f(k - m); requires |m|_inf <= 2K."""
    mv = _as_vector(m, f.spec.n, "shift")
    if any(abs(int(c)) > 2 * f.spec.K for c in mv):
        raise RangeError(f"shift {tuple(int(c) for c in mv)} exceeds 2K = {2 * f.spec.K}")
    # f moved by m fills the block m + [-C, C]^n; its part inside the box stays
    src, dst = overlap(mv, f.spec.C, f.spec.C)
    out = np.zeros_like(f.values)
    out[dst] = f.values[src]
    return Signal(f.spec, out)


def modulate(f: Signal, w) -> Signal:
    """Frequency shift: result(k) = e^{2 pi i w.k} f(k)."""
    wv = _as_vector(w, f.spec.n, "frequency")
    ks = f.spec.axis()
    phase = np.ones(f.spec.shape, dtype=np.complex128)
    for a, wa in enumerate(wv):
        axis_phase = np.exp(2j * np.pi * float(wa) * ks)
        shape = [1] * f.spec.n
        shape[a] = f.spec.side
        phase = phase * axis_phase.reshape(shape)
    return Signal(f.spec, phase * f.values)


def gabor_atom(g: Signal, m, w) -> Signal:
    """Time-frequency shifted window: modulate(translate(g, m), w)."""
    return modulate(translate(g, m), w)


def inner(f: Signal, g: Signal) -> complex:
    """Hermitian inner product <f, g> = sum f conj(g)."""
    return complex(np.sum(f.values * np.conj(g.values)))


def norm2(f: Signal) -> float:
    return float(np.linalg.norm(f.values.ravel()))


def zero_signal(spec: LatticeSpec) -> Signal:
    return Signal(spec, np.zeros(spec.shape, dtype=np.complex128))


def delta_signal(spec: LatticeSpec, at=None) -> Signal:
    """Kronecker delta at the given lattice point, the origin by default."""
    pos = (0,) * spec.n if at is None else _as_vector(at, spec.n, "position")
    v = np.zeros(spec.shape, dtype=np.complex128)
    v[tuple(int(c) + spec.C for c in pos)] = 1.0
    return Signal(spec, v)


def signal_from_block(spec: LatticeSpec, block: np.ndarray) -> Signal:
    """Embed values given on the admissible block [-K, K]^n."""
    block = np.asarray(block, dtype=np.complex128)
    want = (2 * spec.K + 1,) * spec.n
    if block.shape != want:
        raise DomainError(f"block shape {block.shape}, expected {want}")
    v = np.zeros(spec.shape, dtype=np.complex128)
    v[spec.admissible_slices()] = block
    return Signal(spec, v)
