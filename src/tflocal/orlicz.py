"""Luxemburg norms and the mixed Orlicz norms on the lattice-torus product.

The Luxemburg norm is inf{b > 0 : w sum_i Phi(|v_i|/b) <= 1} for a uniform
weight w per point (1 for counting, 1/M^n for torus quadrature).  The
modular b -> G(b) is continuous and nonincreasing, and G(0+) = infinity
because Young functions are unbounded, so the bracket starts at lo = 0: a
doubling loop finds an upper end hi with G(hi) <= 1, moving lo up to each
probe it rejects, and one bisection narrows [lo, hi] to a relative width of
1e-12.  The returned value b satisfies G(b(1+eps)) <= 1 <= G(b(1-eps)) with
eps = 1e-12.  One solver, `_lux_batched`, computes every Luxemburg norm here
and checks its inputs (a finite Phi, a positive finite weight, finite
values); a bracket that cannot be certified within its pass caps raises
PrecisionError.

Mixed norms take an inner Luxemburg norm along the lattice axes per torus
node and an outer one across the torus (or the other way round for the
swapped variant, where the inner torus norm uses the second Young function
and the outer lattice norm the first).  Phase-space convolution works in
torus-coefficient space, which is exact for the trigonometric polynomials
these fields represent.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, PrecisionError, RangeError
from .lattice import PhaseSpaceField, TorusGrid, phase_matrix
from .young import YoungFunction

__all__ = [
    "luxemburg",
    "orlicz_norm",
    "mixed_norm",
    "mixed_norm_swapped",
    "field_lp_norm",
    "convolve_phase_space",
    "holder_pairing",
]


_REL_TOL = 1e-12


def _lux_batched(v: np.ndarray, weight: float, phi: YoungFunction) -> np.ndarray:
    """Luxemburg norm of each row of v (shape (batch, N), nonnegative).

    Invariant per row: G(hi) <= 1 < G(lo), with G(0) read as +infinity.  The
    doubling loop (at most 200 passes) sets lo to each rejected probe before
    it doubles hi; the bisection (at most 280 passes) halves [lo, hi] until
    hi - lo <= 0.5e-12 hi and returns hi.  An exhausted cap raises
    PrecisionError; a non-finite Phi, weight or input raises DomainError.
    """
    if not phi.finite:
        raise DomainError("Luxemburg norms require a finite Young function")
    if not (weight > 0 and np.isfinite(weight)):
        raise DomainError("measure weight must be positive and finite")
    if not np.all(np.isfinite(v)):
        raise DomainError("Luxemburg input must be finite")
    out = np.zeros(v.shape[0])
    peak = v.max(axis=1, initial=0.0)
    act = peak > 0
    if not np.any(act):
        return out
    va = v[act]
    with np.errstate(all="ignore"):

        def modular(b):
            return weight * phi._eval(va / b[:, None]).sum(axis=1)

        lo = np.zeros(va.shape[0])
        hi = weight * va.sum(axis=1) + peak[act]
        for _ in range(200):
            grow = modular(hi) > 1.0
            if not np.any(grow):
                break
            lo = np.where(grow, hi, lo)
            hi = np.where(grow, hi * 2.0, hi)
        else:
            raise PrecisionError("Luxemburg upper bracket not found in 200 doublings")
        for _ in range(280):
            if np.all(hi - lo <= 0.5 * _REL_TOL * hi):
                break
            mid = 0.5 * (lo + hi)
            ok = modular(mid) <= 1.0
            hi = np.where(ok, mid, hi)
            lo = np.where(ok, lo, mid)
        else:
            raise PrecisionError("Luxemburg bisection did not narrow in 280 passes")
    out[act] = hi
    return out


def luxemburg(values, weight: float, phi: YoungFunction) -> float:
    """Luxemburg norm of a (flattened) array with the same weight on every point."""
    v = np.abs(np.asarray(values, dtype=np.complex128)).reshape(1, -1)
    return float(_lux_batched(v, weight, phi)[0])


def _field_abs(F: PhaseSpaceField) -> np.ndarray:
    """|F| reshaped to (lattice points, torus points)."""
    L = int(np.prod(F.lattice_shape))
    return np.abs(F.values).reshape(L, -1)


def orlicz_norm(F: PhaseSpaceField, phi: YoungFunction) -> float:
    """Luxemburg norm over the product measure (counting x quadrature)."""
    return luxemburg(F.values, F.torus.weight, phi)


def mixed_norm(F: PhaseSpaceField, phi1: YoungFunction, phi2: YoungFunction) -> float:
    """Inner Luxemburg over the lattice per node (phi1), outer over the torus (phi2)."""
    v = _field_abs(F)
    inner = _lux_batched(v.T.copy(), 1.0, phi1)  # one norm per torus node
    return luxemburg(inner, F.torus.weight, phi2)


def mixed_norm_swapped(
    F: PhaseSpaceField, phi1: YoungFunction, phi2: YoungFunction
) -> float:
    """Inner Luxemburg over the torus per lattice point (phi2), outer over the lattice (phi1)."""
    v = _field_abs(F)  # rows = lattice points, reduced over torus samples
    inner = _lux_batched(v, F.torus.weight, phi2)
    return luxemburg(inner, 1.0, phi1)


def _check_exponent(p: float) -> float:
    """An L^p exponent: p >= 1 or p = +inf (this rejects nan and -inf)."""
    if not p >= 1:
        raise DomainError(f"exponent p must be >= 1 or inf, got {p!r}")
    return float(p)


def field_lp_norm(F: PhaseSpaceField, p: float) -> float:
    """Quadrature L^p norm over the product measure; p = inf takes the grid max."""
    p = _check_exponent(p)
    a = np.abs(F.values)
    if np.isinf(p):
        return float(a.max(initial=0.0))
    return float((F.torus.weight * (a**p).sum()) ** (1.0 / p))


def field_coefficients(F: PhaseSpaceField) -> np.ndarray:
    """Torus Fourier coefficients per lattice point, exact for deg <= (M-1)/2."""
    M, n, deg = F.torus.M, F.n, F.degree_bound
    if 2 * deg > M - 1:
        raise PrecisionError("coefficient extraction would alias: need 2*degree <= M-1")
    coef = F.values.reshape(-1, M**n) @ phase_matrix(M, -deg, deg, -1, n).T
    coef *= F.torus.weight
    return coef.reshape(F.lattice_shape + (2 * deg + 1,) * n)


def coefficients_to_values(coef: np.ndarray, torus: TorusGrid, deg: int) -> np.ndarray:
    """Samples on the torus grid of the coefficients over the last n = torus.n axes."""
    n = torus.n
    lead = coef.shape[: coef.ndim - n]
    vals = coef.reshape(-1, (2 * deg + 1) ** n) @ phase_matrix(torus.M, -deg, deg, 1, n)
    return vals.reshape(lead + torus.shape)


def _lattice_convolve(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Full n-dimensional convolution along the first n axes."""
    out_shape = tuple(a.shape[i] + b.shape[i] - 1 for i in range(n)) + a.shape[n:]
    out = np.zeros(out_shape, dtype=np.complex128)
    for idx in np.ndindex(a.shape[:n]):
        window = tuple(slice(i, i + b.shape[ax]) for ax, i in enumerate(idx))
        out[window] += a[idx] * b
    return out


def convolve_phase_space(F: PhaseSpaceField, G: PhaseSpaceField) -> PhaseSpaceField:
    """Group convolution (F*G)(m,w) = sum_l int F(l,x) G(m-l, w-x) dx.

    The torus direction multiplies Fourier coefficients (exact); the lattice
    direction is dense convolution, giving output support radius
    F.m_radius + G.m_radius and torus degree min(deg F, deg G).
    """
    if F.torus != G.torus or F.spec != G.spec:
        raise DomainError("fields must share lattice and torus grids")
    r_out = F.m_radius + G.m_radius
    if r_out > 2 * F.spec.C:
        raise RangeError("convolution support would leave the doubled computation box")
    cf = field_coefficients(F)
    cg = field_coefficients(G)
    deg = min(F.degree_bound, G.degree_bound)
    n = F.n

    def trim(c, frm):
        sl = (slice(None),) * n + tuple(
            slice(frm - deg, frm + deg + 1) for _ in range(n)
        )
        return c[sl]

    cf = trim(cf, F.degree_bound)
    cg = trim(cg, G.degree_bound)
    conv = _lattice_convolve(cf, cg, n)
    vals = coefficients_to_values(conv, F.torus, deg)
    return PhaseSpaceField(F.spec, F.torus, r_out, vals, degree_bound=deg)


def holder_pairing(F: PhaseSpaceField, G: PhaseSpaceField) -> float:
    """L^1 mass of the product: sum_m (1/M^n) sum_j |F G|."""
    if F.values.shape != G.values.shape or F.torus != G.torus:
        raise DomainError("paired fields must have identical shape")
    return float(F.torus.weight * np.abs(F.values * G.values).sum())
