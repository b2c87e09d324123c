"""Luxemburg norms and the mixed Orlicz norms on the lattice-torus product.

The Luxemburg norm is inf{b > 0 : w sum_i Phi(|v_i|/b) <= 1} for a uniform
weight w per point (1 for counting, 1/M^n for torus quadrature).  The
modular b -> G(b) is continuous and nonincreasing, and G(0+) = infinity
because Young functions are unbounded.  One solver, `_lux_batched`,
computes every Luxemburg norm here and checks its inputs (a finite Phi, a
positive finite weight, finite values).  Each b it returns satisfies the
certificate G(b(1+eps)) <= 1 <= G(b(1-eps)), eps = 1e-12, and does not
depend on the rows solved with it.  power(p) and eq5 take a closed-form
root (for eq5, a Newton solve on the head/tail segment that prefix sums of
the sorted row locate), kept where two direct modular evaluations certify
it.  Every other row goes to `_lux_illinois`, which narrows a bracket with
Illinois regula-falsi steps on log G against log b (Dowell and Jarratt,
BIT 11, 1971) and raises PrecisionError when its pass caps run out.

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

from .errors import DomainError, PrecisionError, RangeError, _check_exponent
from .lattice import PhaseSpaceField, coefficients_to_values, field_coefficients, overlap
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


def _closed_roots(va: np.ndarray, peak: np.ndarray, weight: float, phi: YoungFunction):
    """Candidate norms of the rows of va, whose maxima `peak` are positive.

    power(p) and eq5 have a closed-form root; every other kind returns None.
    """
    if phi.kind == "power":
        return peak * (weight * phi._eval(va / peak[:, None]).sum(axis=1)) ** (1.0 / phi.p)
    if phi.kind == "eq5":
        return _eq5_roots(va, peak, weight)
    return None


def _certified(va: np.ndarray, b: np.ndarray, weight: float, phi: YoungFunction) -> np.ndarray:
    """Rows whose b satisfies G(b(1+eps)) <= 1 <= G(b(1-eps)), eps = _REL_TOL."""
    up = weight * phi._eval(va / (b * (1.0 + _REL_TOL))[:, None]).sum(axis=1)
    dn = weight * phi._eval(va / (b * (1.0 - _REL_TOL))[:, None]).sum(axis=1)
    return (up <= 1.0) & (1.0 <= dn)


def _lux_batched(v: np.ndarray, weight: float, phi: YoungFunction) -> np.ndarray:
    """Luxemburg norm of each row of v (shape (batch, N), nonnegative).

    Rows whose maximum is 0 have norm 0.  For power and eq5, each other row
    first takes its closed-form root, kept if it passes the certificate;
    rows that fail, and all rows of other kinds, go to `_lux_illinois`.  A
    non-finite Phi, weight or input raises DomainError.
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
    va, peak = v[rows], peak[rows]
    with np.errstate(all="ignore"):
        b = _closed_roots(va, peak, weight, phi)
        if b is not None:
            ok = _certified(va, b, weight, phi)
            out[rows[ok]] = b[ok]
            if ok.all():
                return out
            rows, va, peak = rows[~ok], va[~ok], peak[~ok]
        out[rows] = _lux_illinois(va, peak, weight, phi)
    return out


def _lux_illinois(va: np.ndarray, peak: np.ndarray, weight: float, phi: YoungFunction) -> np.ndarray:
    """Luxemburg norm of each row of va, whose maxima `peak` are positive, by bracketing.

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
    PrecisionError.  Runs under the caller's errstate.
    """
    out = np.empty(va.shape[0])
    rows = np.arange(va.shape[0])

    def modular(x, b):
        return weight * phi._eval(x / b[:, None]).sum(axis=1)

    lo = np.zeros(rows.size)
    ylo = np.full(rows.size, np.inf)  # log G(lo)
    hi = weight * va.sum(axis=1) + peak
    yhi = np.empty(rows.size)  # log G(hi)
    grow = np.arange(rows.size)
    for _ in range(200):
        if grow.size == rows.size:  # every row still doubles: no copies
            yhi[:] = np.log(modular(va, hi))
        else:
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
        if done.any():
            out[rows[done]] = hi[done]
            if done.all():
                return out
            live = ~done
            rows, va, lo, ylo, hi, yhi, side = (
                a[live] for a in (rows, va, lo, ylo, hi, yhi, side)
            )
        zero = lo == 0.0
        anyzero = zero.any()
        ends = ylo - yhi  # finite exactly where both ends' log G are
        slope = np.log(hi / lo) / ends
        if anyzero:
            np.copyto(slope, 1.0, where=zero)
        mid = hi * np.exp(yhi * slope)
        if anyzero:
            # while lo = 0, a concave Phi puts hi G(hi) above the root, so
            # after the first probe take at most the midpoint
            np.minimum(mid, 0.5 * hi, out=mid, where=zero & (side != 0))
            np.copyto(ends, yhi, where=zero)  # at lo = 0 only log G(hi) is read
        guess = np.isfinite(mid)
        guess &= np.isfinite(ends)
        if not guess.all():
            np.copyto(mid, 0.5 * (lo + hi), where=~guess)
        d = 0.25 * _REL_TOL * hi
        np.maximum(mid, lo + d, out=mid)
        np.minimum(mid, hi - d, out=mid)
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


def field_lp_norm(F: PhaseSpaceField, p: float) -> float:
    """Quadrature L^p norm over the product measure; p = inf takes the grid max."""
    p = _check_exponent(p)
    a = np.abs(F.values)
    if np.isinf(p):
        return float(a.max(initial=0.0))
    return float((F.torus.weight * (a**p).sum()) ** (1.0 / p))


def _lattice_convolve(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Full convolution along the first n axes, which hold lattice ranges [-R, R]^n."""
    Ra, Rb = a.shape[0] // 2, b.shape[0] // 2
    out = np.zeros((2 * (Ra + Rb) + 1,) * n + a.shape[n:], dtype=np.complex128)
    for idx in np.ndindex(a.shape[:n]):
        window = overlap(tuple(i - Ra for i in idx), Rb, Ra + Rb)[1]
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
    deg = min(F.degree_bound, G.degree_bound)
    n = F.n
    # each field's coefficients [-deg, deg]^n, out of the [-deg X, deg X]^n it holds
    cf, cg = (
        field_coefficients(X)[(slice(None),) * n + overlap((0,) * n, deg, X.degree_bound)[1]]
        for X in (F, G)
    )
    conv = _lattice_convolve(cf, cg, n)
    vals = coefficients_to_values(conv, F.torus, deg)
    return PhaseSpaceField(F.spec, F.torus, r_out, vals, degree_bound=deg)


def holder_pairing(F: PhaseSpaceField, G: PhaseSpaceField) -> float:
    """L^1 mass of the product: sum_m (1/M^n) sum_j |F G|."""
    if F.values.shape != G.values.shape or F.torus != G.torus:
        raise DomainError("paired fields must have identical shape")
    return float(F.torus.weight * np.abs(F.values * G.values).sum())
