"""Luxemburg norms and the mixed Orlicz norms on the lattice-torus product.

The Luxemburg norm is inf{b > 0 : w sum_i Phi(|v_i|/b) <= 1} for a uniform
weight w per point (1 for counting, 1/M^n for torus quadrature).  The
modular b -> G(b) is continuous and nonincreasing, and G(0+) = infinity
because Young functions are unbounded, so the bracket starts at lo = 0: a
doubling loop finds an upper end hi with G(hi) <= 1, moving lo up to each
probe it rejects, and a narrowing loop shrinks [lo, hi] to a relative width
of 1e-12.  Its probes are Illinois regula-falsi steps on log G against
log b (exact in one step for power functions, superlinear otherwise; see
Dowell and Jarratt, BIT 11, 1971), clamped a quarter of the tolerance
inside the bracket and replaced by the midpoint where log G is not finite.
While lo = 0 there is no second end to interpolate with: the first probe is
hi G(hi), and later ones take the lesser of hi G(hi) and hi/2, so a concave
Phi, for which hi G(hi) lies above the root, still halves hi every pass.
The ends only ever move to evaluated probes, so the returned value b
satisfies G(b(1+eps)) <= 1 <= G(b(1-eps)) with eps = 1e-12.  A row stops
being probed once its bracket closes, so batch-mates do not change it.  One
solver, `_lux_batched`, computes every Luxemburg norm here and checks its
inputs (a finite Phi, a positive finite weight, finite values); a bracket
that cannot be certified within its pass caps raises PrecisionError.

Mixed norms take an inner Luxemburg norm along the lattice axes per torus
node and an outer one across the torus (or the other way round for the
swapped variant, where the inner torus norm uses the second Young function
and the outer lattice norm the first).  One routine, `_mixed_norms`, takes a
stack of fields and solves each of its two stages once per Young function;
a single field is its one-field case.  Phase-space convolution works in
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

    Invariant per row: G(hi) <= 1 < G(lo), with G(0) read as +infinity, and
    lo and hi only move to probes at which G was evaluated.  The doubling
    loop (at most 200 passes) sets lo to each rejected probe before it
    doubles hi.  The narrowing loop (at most 280 passes) then probes each
    live row once per pass:
    - at the regula-falsi root of log G against log b through the two ends
      once lo > 0; log G is linear in log b for power(p), so one such step
      is exact;
    - with the stored log G of an end kept twice in a row halved (Illinois);
    - at hi G(hi) for the first probe while lo = 0.  b G(b) does not
      increase with b when Phi(t)/t does not decrease (convex Phi), so this
      probe is then at or below the root and moves lo (it is the root for
      power(1)); for a concave Phi it lies above the root and moves hi;
    - at the lesser of hi G(hi) and hi/2 for every later probe while lo = 0,
      so reaching lo > 0 takes no more passes than bisection from 0 does,
      while a probe the clamp below pulled up can still drop by 4e12 a pass;
    - at the arithmetic midpoint instead when an end's log G or the guess
      is not finite (G(hi) = 0 where Phi vanishes near 0);
    - clamped into [lo + d, hi - d], d = 0.25e-12 hi, so that a converged
      guess closes the bracket within a probe or two.
    A row stops being probed once hi - lo <= 0.5e-12 hi and returns hi, so
    its result does not depend on the other rows.  An exhausted cap raises
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
    rows = np.flatnonzero(peak > 0)
    if rows.size == 0:
        return out
    va = v[rows]
    with np.errstate(all="ignore"):

        def modular(x, b):
            return weight * phi._eval(x / b[:, None]).sum(axis=1)

        lo = np.zeros(rows.size)
        ylo = np.full(rows.size, np.inf)  # log G(lo)
        hi = weight * va.sum(axis=1) + peak[rows]
        yhi = np.empty(rows.size)  # log G(hi)
        grow = np.arange(rows.size)
        for _ in range(200):
            yhi[grow] = np.log(modular(va[grow], hi[grow]))
            grow = grow[yhi[grow] > 0.0]
            if grow.size == 0:
                break
            lo[grow], ylo[grow] = hi[grow], yhi[grow]
            hi[grow] *= 2.0
        else:
            raise PrecisionError("Luxemburg upper bracket not found in 200 doublings")
        side = np.zeros(rows.size)  # +1: hi moved last, -1: lo moved last
        for _ in range(280):
            done = hi - lo <= 0.5 * _REL_TOL * hi
            if np.any(done):
                out[rows[done]] = hi[done]
                if np.all(done):
                    return out
                live = ~done
                rows, va, lo, ylo, hi, yhi, side = (
                    a[live] for a in (rows, va, lo, ylo, hi, yhi, side)
                )
            slope = np.where(lo > 0, np.log(hi / lo) / (ylo - yhi), 1.0)
            mid = hi * np.exp(yhi * slope)
            # while lo = 0, a concave Phi puts hi G(hi) above the root, so
            # after the first probe take at most the midpoint
            mid = np.where((lo > 0) | (side == 0), mid, np.minimum(mid, 0.5 * hi))
            guess = np.isfinite(mid) & np.isfinite(yhi) & (np.isfinite(ylo) | (lo == 0))
            mid = np.where(guess, mid, 0.5 * (lo + hi))
            d = 0.25 * _REL_TOL * hi
            mid = np.clip(mid, lo + d, hi - d)
            y = np.log(modular(va, mid))
            ok = y <= 0.0
            step = np.where(ok, 1.0, -1.0)
            halve = np.where(step == side, 0.5, 1.0)
            side = step
            ylo = np.where(ok, halve * ylo, y)
            yhi = np.where(ok, y, halve * yhi)
            lo = np.where(ok, lo, mid)
            hi = np.where(ok, mid, hi)
    raise PrecisionError("Luxemburg bracket did not narrow in 280 passes")


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


def _lux_stack(blocks, weight: float, phis) -> np.ndarray:
    """Luxemburg norms along the last axis of B equally shaped blocks, block b under phis[b].

    The result has shape (B,) + the block shape without its last axis.
    Blocks that share a Young function go into one `_lux_batched` solve.  The
    solver's rows are independent, so each norm has the bits of its row
    solved alone.
    """
    shape = blocks[0].shape
    groups = {}
    for b, phi in enumerate(phis):
        groups.setdefault(phi, []).append(b)
    out = np.empty((len(blocks),) + shape[:-1])
    for phi, idx in groups.items():
        rows = np.stack([blocks[b] for b in idx]).reshape(-1, shape[-1])
        out[idx] = _lux_batched(rows, weight, phi).reshape((len(idx),) + shape[:-1])
    return out


def _mixed_norms(fields, weight: float, phi1s, phi2s, swapped: bool = False) -> np.ndarray:
    """Mixed norms of B arrays |F| of one shape (L, T), field b under phi1s[b] and phi2s[b].

    L counts lattice points (weight 1) and T torus nodes (`weight` each).  The
    inner solve runs over the B*T lattice rows together (B*L torus rows when
    swapped), the outer one over the B fields.
    """
    if swapped:
        return _lux_stack(_lux_stack(fields, weight, phi2s), 1.0, phi1s)
    inner = _lux_stack([a.T for a in fields], 1.0, phi1s)
    return _lux_stack(inner, weight, phi2s)


def mixed_norm(F: PhaseSpaceField, phi1: YoungFunction, phi2: YoungFunction) -> float:
    """Inner Luxemburg over the lattice per node (phi1), outer over the torus (phi2)."""
    return float(_mixed_norms([_field_abs(F)], F.torus.weight, [phi1], [phi2])[0])


def mixed_norm_swapped(
    F: PhaseSpaceField, phi1: YoungFunction, phi2: YoungFunction
) -> float:
    """Inner Luxemburg over the torus per lattice point (phi2), outer over the lattice (phi1)."""
    v = [_field_abs(F)]
    return float(_mixed_norms(v, F.torus.weight, [phi1], [phi2], swapped=True)[0])


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
