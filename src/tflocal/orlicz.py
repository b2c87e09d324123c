"""Luxemburg norms and the mixed Orlicz norms on the lattice-torus product.

The Luxemburg norm is inf{b > 0 : w sum_i Phi(|v_i|/b) <= 1} for a uniform
weight w per point (1 for counting, 1/M^n for torus quadrature).  The
modular b -> G(b) is continuous and nonincreasing, and G(0+) = infinity
because Young functions are unbounded.  One solver, `_lux_batched`,
computes every Luxemburg norm here and checks its inputs (a finite Phi, a
positive finite weight, finite values).  Each b it returns satisfies the
certificate G(b(1+eps)) <= 1 <= G(b(1-eps)), eps = 1e-12, and does not
depend on the rows solved with it.  One rule gives it: every kind has a
direct root, and a row keeps it where two modular evaluations certify it;
a row that fails is bisected on log b from the ends of the double range,
with PrecisionError when the pass cap runs out.  power(p) has a closed
form, eq5 and a tabulated conjugate a Newton solve, and quasi(B, p) the
root of B on v^p to the power 1/p.

Mixed norms take an inner Luxemburg norm along the lattice axes per torus
node and an outer one across the torus (or the other way round for the
swapped variant, where the inner torus norm uses the second Young function
and the outer lattice norm the first).  One routine, `_mixed_norms`, takes a
stack of fields and solves each of its two stages once per Young function;
a single field is its one-field case.  Phase-space convolution is
`lattice._convolve` in torus-coefficient space, exact once the grid sums
the integrand's degree deg F + deg G.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, PrecisionError, RangeError, _check_exponent
from .lattice import PhaseSpaceField, _convolve, coefficients_to_values
from .young import EQ5_LOG_BREAK, EQ5_TAIL, YoungFunction

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


def _eq5_roots(va: np.ndarray, peak: np.ndarray, weight: float) -> np.ndarray:
    """The Luxemburg norm of each row under eq5, from prefix sums of the sorted row.

    In units of the row's peak, u = v/peak sorted and r = b/peak, the values
    u_i <= r beta (beta = e^{-3/2}) take the head -t^2 log t and the others
    the tail t^2 + E (E = e^{-3}/2).  With k head values, S_k = sum_{i<=k} u_i^2,
    A_k = -sum_{i<=k} u_i^2 ln u_i and x = ln r,
        G = w [(A_k + S_k x + S_N - S_k) e^{-2x} + E (N - k)],
    so G = 1 reads D + S_k x = c e^{2x} with D = A_k + S_N - S_k and
    c = 1/w - E (N - k).  G is continuous and decreasing, so k is the number
    of breakpoints r_j = u_j/beta with G(r_j) > 1 (below the first positive
    u_j, G is infinite).  g(x) = ln(D + S_k x) - 2x - ln c is concave and
    decreasing, so Newton's method on g from a start at or above the root
    decreases monotonically to it: the segment's right end x_{k+1}, or for
    the last segment x_N + ln G_N, since G <= G_N e^{-(x - x_N)} there.
    With no positive head value (S_k = 0) g is linear and one step is exact.
    A row stops at its first step that does not decrease x, so its bits do
    not depend on its batch-mates.  The result is a candidate: the caller
    certifies it.
    """
    rows, n = va.shape
    u = va / peak[:, None]
    u.sort(axis=1)
    x = np.log(u)
    x[u == 0.0] = 0.0  # so that u^2 ln u is 0 there
    u *= u
    A = u * x
    np.negative(A, out=A)
    np.cumsum(A, axis=1, out=A)
    S = np.cumsum(u, axis=1, out=u)
    x -= EQ5_LOG_BREAK  # ln r_j: u_j sits on the head/tail break at r_j = u_j/beta
    SN = S[:, -1:]
    G = S * x
    G += A
    G -= S
    G += SN
    G *= np.exp(-2.0 * x)
    G += EQ5_TAIL * np.arange(n - 1, -1, -1)
    G *= weight
    G[S == 0.0] = np.inf  # G(0+): no u^2 > 0 up to this breakpoint
    k = (G > 1.0).sum(axis=1)
    i = np.arange(rows)
    below = np.maximum(k - 1, 0)
    Sk = np.where(k > 0, S[i, below], 0.0)
    D = np.where(k > 0, A[i, below], 0.0) + SN[:, 0] - Sk
    lnc = np.log(1.0 / weight - EQ5_TAIL * (n - k))
    root = np.where(k < n, x[i, np.minimum(k, n - 1)], x[:, -1] + np.log(G[:, -1]))
    live = np.ones(rows, dtype=bool)
    for _ in range(100):  # a cap only: rows stop within a few steps
        q = Sk * root
        q += D
        step = root + (np.log(q) - 2.0 * root - lnc) / (2.0 - Sk / q)
        live &= step < root
        if not live.any():
            break
        np.copyto(root, step, where=live)
    return peak * np.exp(root)


def _table_roots(va: np.ndarray, peak: np.ndarray, weight: float, psi: YoungFunction) -> np.ndarray:
    """The Luxemburg norm of each row under a tabulated conjugate, by Newton's method in s = 1/b.

    In units of the row's peak, u = v/peak, G(s) = w sum_i psi(s u_i).  On
    segment j, psi(t) = m_j t + c_j, so G is linear in s while no s u_i
    changes segment, and a Newton step is that line's root,
    (1/w - sum_i c_j) / sum_i m_j u_i, from one segment lookup.  When psi is
    convex, so is G, and Jensen's inequality G(s) >= w N psi(s mean(u)) puts
    s = psi^{-1}(1/(wN)) / mean(u) at or above the root: the steps from there
    fall monotonically and stop on the root's own piece.  A row stops at its
    first step that does not decrease s, so its bits do not depend on its
    batch-mates.  The result is a candidate: the caller certifies it.
    """
    xs, ys, grid = psi.xs, psi.ys, psi.grid
    rows, n = va.shape
    u = va / peak[:, None]
    y = 1.0 / (weight * n)
    x = np.interp(y, ys, xs) if y <= ys[-1] else xs[-1] + (y - ys[-1]) / grid.slopes[-1]
    s = x * n / u.sum(axis=1)
    c = ys - grid.slopes * xs
    live = np.arange(rows)
    for _ in range(100):  # a cap only: rows stop within a few steps
        ul = u[live]
        j = grid.segment(ul * s[live, None])
        m = grid.slopes[j]
        step = (1.0 / weight - c[j].sum(axis=1)) / (ul * m).sum(axis=1)
        down = step < s[live]
        live = live[down]
        if live.size == 0:
            break
        s[live] = step[down]
    return peak / s


def _direct_roots(va: np.ndarray, peak: np.ndarray, weight: float, phi: YoungFunction):
    """Candidate norms of the rows of va, whose maxima `peak` are positive.

    G under quasi(B, p) at b is G under B at b^p on the values v^p, so a
    quasi row takes B's root on v^p to the power 1/p, and nested quasi
    functions flatten.  An unknown kind raises DomainError.
    """
    if phi.kind == "power":
        return peak * _modular(va, peak, weight, phi) ** (1.0 / phi.p)
    if phi.kind == "eq5":
        return _eq5_roots(va, peak, weight)
    if phi.kind == "table":
        return _table_roots(va, peak, weight, phi)
    if phi.kind == "quasi":
        return _direct_roots(va**phi.p, peak**phi.p, weight, phi.base) ** (1.0 / phi.p)
    raise DomainError(f"unknown Young-function kind {phi.kind!r}")


def _modular(va: np.ndarray, b: np.ndarray, weight: float, phi: YoungFunction) -> np.ndarray:
    """G(b) = w sum_i Phi(v_i / b) of each row of va at its own b."""
    return weight * phi._eval(va / b[:, None]).sum(axis=1)


def _certified(va: np.ndarray, b: np.ndarray, weight: float, phi: YoungFunction) -> np.ndarray:
    """Rows whose b satisfies G(b(1+eps)) <= 1 <= G(b(1-eps)), eps = _REL_TOL."""
    up = _modular(va, b * (1.0 + _REL_TOL), weight, phi)
    dn = _modular(va, b * (1.0 - _REL_TOL), weight, phi)
    return (up <= 1.0) & (1.0 <= dn)


def _lux_batched(v: np.ndarray, weight: float, phi: YoungFunction) -> np.ndarray:
    """Luxemburg norm of each row of v (shape (batch, N), nonnegative).

    Rows whose maximum is 0 have norm 0.  Each other row first takes its
    direct root, kept if it passes the certificate; rows that fail go to
    `_lux_bisect`.  A non-finite Phi, weight or input raises DomainError.
    """
    if not phi.finite:
        raise DomainError("Luxemburg norms require a finite Young function")
    if not (weight > 0 and np.isfinite(weight)):
        raise DomainError("measure weight must be positive and finite")
    if not np.isfinite(v).all():
        raise DomainError("Luxemburg input must be finite")
    out = np.zeros(v.shape[0])
    peak = v.max(axis=1, initial=0.0)
    rows = np.flatnonzero(peak > 0)
    if rows.size == 0:
        return out
    va = v[rows]
    with np.errstate(all="ignore"):
        b = _direct_roots(va, peak[rows], weight, phi)
        ok = _certified(va, b, weight, phi)
        out[rows[ok]] = b[ok]
        if not ok.all():
            out[rows[~ok]] = _lux_bisect(va[~ok], weight, phi)
    return out


_BISECT_PASSES = 64


def _lux_bisect(va: np.ndarray, weight: float, phi: YoungFunction) -> np.ndarray:
    """Luxemburg norm of each row of va, whose maxima are positive, by bisection on log b.

    Every row starts from the ends of the double range, lo = 5e-324 and
    hi = 1.8e308, where G(lo) > 1 >= G(hi) must hold, else PrecisionError.
    Each pass probes each live row at the geometric mean of its ends and
    moves the end on the probe's side.  A row stops once hi - lo <= 0.5e-12
    hi and returns hi, so its result does not depend on the other rows; from
    the double range that takes 52 passes.  An exhausted cap raises
    PrecisionError.  Runs under the caller's errstate.
    """
    lo = np.full(len(va), np.finfo(np.float64).smallest_subnormal)
    hi = np.full(len(va), np.finfo(np.float64).max)
    g_lo, g_hi = (_modular(va, b, weight, phi) for b in (lo, hi))
    if not ((g_lo > 1.0).all() and (g_hi <= 1.0).all()):
        raise PrecisionError("Luxemburg norm lies outside the double range")
    out = np.empty(len(va))
    rows = np.arange(len(va))
    for _ in range(_BISECT_PASSES):
        done = hi - lo <= 0.5 * _REL_TOL * hi
        if done.any():
            out[rows[done]] = hi[done]
            if done.all():
                return out
            rows, va, lo, hi = (a[~done] for a in (rows, va, lo, hi))
        mid = np.sqrt(lo) * np.sqrt(hi)
        below = _modular(va, mid, weight, phi) > 1.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    raise PrecisionError(f"Luxemburg bracket did not narrow in {_BISECT_PASSES} passes")


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


def field_lp_norm(F: PhaseSpaceField, p: float) -> float:
    """Quadrature L^p norm over the product measure; p = inf takes the grid max."""
    p = _check_exponent(p)
    a = np.abs(F.values)
    if np.isinf(p):
        return float(a.max(initial=0.0))
    return float((F.torus.weight * (a**p).sum()) ** (1.0 / p))


def convolve_phase_space(F: PhaseSpaceField, G: PhaseSpaceField) -> PhaseSpaceField:
    """Group convolution (F*G)(m,w) = sum_l int F(l,x) G(m-l, w-x) dx.

    The output has support radius F.m_radius + G.m_radius and torus degree
    min(deg F, deg G); the integrand's degree deg F + deg G is checked once.
    """
    if F.torus != G.torus or F.spec != G.spec:
        raise DomainError("fields must share lattice and torus grids")
    r_out = F.m_radius + G.m_radius
    if r_out > 2 * F.spec.C:
        raise RangeError("convolution support would leave the doubled computation box")
    F.torus.require_exact(F.degree_bound + G.degree_bound, "convolution integral")
    deg = min(F.degree_bound, G.degree_bound)
    vals = coefficients_to_values(_convolve(F.values, G.values, F.torus, deg), F.torus, deg)
    return PhaseSpaceField(F.spec, F.torus, r_out, vals, degree_bound=deg)


def holder_pairing(F: PhaseSpaceField, G: PhaseSpaceField) -> float:
    """L^1 mass of the product: sum_m (1/M^n) sum_j |F G|."""
    if F.values.shape != G.values.shape or F.torus != G.torus:
        raise DomainError("paired fields must have identical shape")
    return float(F.torus.weight * np.abs(F.values * G.values).sum())
