"""Randomized verification harness.

Every identity and inequality the toolkit claims is registered here as a
named check.  A check is declared in one place only, its row in the
registry: id, invariant, trial count, tolerance and run function, where a
row of a stacked check binds its shared driver's Young functions, constant
and tier; `SPEC_INVARIANTS`, `registered_ids` and every `CheckSpec`
default are read from those rows.  A check draws a seeded ensemble,
evaluates its predicate on every trial, and reports the worst margin, where
margins are normalized by the right-hand side (or by the natural scale of
an identity) so that tolerances are scale free.  Equality checks report
minus the relative deviation, hence their margins are never positive; a
deviation that is not a number gives the worst possible margin.

A run function takes the environment, the check's spec and a lazy stream of
its (trial index, rng) pairs, and returns the worst margin of each trial, in
trial order, with the check's tier: a fixed label, a summary of all trials,
or None.  Per-trial randomness comes from a counter-based Philox stream
keyed by (master seed, check id) with the trial index as the counter.  The
stacked checks (Hoelder, convolution and norm axioms) are written for one
trial, which draws from its own stream and requests the Luxemburg or mixed
norms of its arrays; one runner, `_stacked`, solves the requests of a part
of trials together.  The solver's rows are independent, so every margin
and report byte is the same as trial by trial, and identical across runs.

Serialized reports are JSON Lines with the fixed field set
{"id","trials","violations","worst_margin","seed","elapsed","tier"}.  The
elapsed field is canonicalized to 0 in the serialized form to keep reports
byte-identical between runs; wall-clock timings stay available on the
CheckResult objects (timing is informational only).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass, replace
from functools import cached_property, partial, reduce
from typing import Callable, Optional

import numpy as np

from .errors import ConditioningError, UsageError, fmt17, integer, number
from .lattice import (
    LatticeSpec,
    PhaseSpaceField,
    Signal,
    TorusGrid,
    coefficients_to_values,
    inner,
    modulate,
    norm2,
    overlap,
    phase_matrix,
    signal_from_block,
    translate,
)
from .locop import (
    adjoint_kernel,
    apply_operator,
    kernel,
    sigma_tilde,
    spectrum,
    weak_pairing,
)
from .modulation import (
    WindowSpec,
    embedding_condition,
    modulation_norm,
    orlicz_modulation_norm,
    symbol_modulation_norm,
    symbol_window,
    window_signal,
)
from .orlicz import (
    _lux_stack,
    _mixed_norms,
    convolve_phase_space,
    field_lp_norm,
    holder_pairing,
    luxemburg,
)
from .stft import _stft_values, _SymbolShifts, stft, invert
from .young import YoungFunction, conjugate_table, eq5, power, quasi_young

__all__ = [
    "CheckSpec",
    "CheckResult",
    "DEFAULT_SEED",
    "ENSEMBLES",
    "Environment",
    "REGISTRY",
    "SPEC_INVARIANTS",
    "registered_ids",
    "default_specs",
    "generate_ensemble",
    "run_suite",
    "report_lines",
    "parse_report",
    "trial_rng",
]

DEFAULT_SEED = 20240801
_TINY = 1e-300
_NEG_CAP = -1e300


# ---------------------------------------------------------------------------
# environment


class Environment:
    """Shared fixtures for a suite run: grids, windows, Young functions."""

    def __init__(
        self,
        lattice: LatticeSpec,
        torus: TorusGrid,
        window_spec: WindowSpec = WindowSpec(),
    ):
        if torus.M < 6 * lattice.K + 1:
            raise UsageError("suite requires M >= 6K + 1 for exact quadrature")
        if torus.n != lattice.n:
            raise UsageError("lattice and torus dimensions differ")
        self.lattice = lattice
        self.torus = torus
        self.window_spec = window_spec

    @cached_property
    def window(self) -> Signal:
        return window_signal(self.window_spec, self.lattice)

    @cached_property
    def window2(self) -> Signal:
        spec = WindowSpec("gaussian", width=max(self.lattice.K / 3.0, 0.5))
        return window_signal(spec, self.lattice)

    @cached_property
    def phi(self) -> YoungFunction:
        return eq5()

    @cached_property
    def psi(self) -> YoungFunction:
        """Tabulated numeric conjugate of the default Young function."""
        return conjugate_table(self.phi)

    @cached_property
    def G0(self) -> PhaseSpaceField:
        return symbol_window(self.lattice, self.torus)


# ---------------------------------------------------------------------------
# seeded ensembles


def trial_rng(seed: int, check_id: str, trial: int) -> np.random.Generator:
    """Counter-based stream split on (seed, check id, trial index)."""
    digest = hashlib.sha256(f"{seed}:{check_id}".encode()).digest()
    key = [
        int.from_bytes(digest[:8], "little"),
        int.from_bytes(digest[8:16], "little"),
    ]
    return np.random.Generator(np.random.Philox(counter=[trial, 0, 0, 0], key=key))


def _crandn(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)


def _random_signal(env: Environment, rng, half: bool = False) -> Signal:
    """Admissible signal with i.i.d. standard complex normal entries."""
    K, n = env.lattice.K, env.lattice.n
    block = np.zeros((2 * K + 1,) * n, dtype=np.complex128)
    r = K // 2 if half else K
    block[overlap((0,) * n, r, K)[1]] = _crandn(rng, (2 * r + 1,) * n)
    return signal_from_block(env.lattice, block)


def _trig_symbol(env: Environment, rng) -> PhaseSpaceField:
    """Random trigonometric coefficients up to degree K per axis, per slice."""
    K, n = env.lattice.K, env.lattice.n
    R = 2 * K
    coefs = _crandn(rng, (2 * R + 1,) * n + (2 * K + 1,) * n)
    vals = coefficients_to_values(coefs, env.torus, K)
    return PhaseSpaceField(env.lattice, env.torus, R, vals, degree_bound=K)


def _fixed_bump(env: Environment) -> np.ndarray:
    """Nonnegative trig bump of degree K: a squared Dirichlet-style kernel."""
    K, M, n = env.lattice.K, env.torus.M, env.lattice.n
    d = phase_matrix(M, -(K // 2), K // 2, 1).sum(axis=0)
    bump = (np.abs(d) ** 2).real  # degree 2*(K//2) <= K
    return reduce(np.multiply.outer, [bump] * n)


def _indicator_symbol(env: Environment, rng) -> PhaseSpaceField:
    """Random lattice-box indicator times a fixed nonnegative trig bump."""
    K, n = env.lattice.K, env.lattice.n
    R = 2 * K
    axes = []
    for _ in range(n):
        a, b = np.sort(rng.integers(-R, R + 1, size=2))
        line = np.zeros(2 * R + 1)
        line[a + R : b + R + 1] = 1.0
        axes.append(line)
    ind = reduce(np.multiply.outer, axes)
    vals = np.multiply.outer(ind, _fixed_bump(env)).astype(np.complex128)
    vals = vals.reshape((2 * R + 1,) * n + env.torus.shape)
    return PhaseSpaceField(
        env.lattice, env.torus, R, vals, degree_bound=2 * (K // 2)
    )


def _rank_one_symbol(env: Environment, rng, same: bool = False) -> PhaseSpaceField:
    u = _random_signal(env, rng)
    v = u if same else _random_signal(env, rng)
    Vu = stft(u, env.window, env.torus)
    Vv = Vu if same else stft(v, env.window, env.torus)
    vals = Vu.values * np.conj(Vv.values)
    return PhaseSpaceField(
        env.lattice, env.torus, Vu.m_radius, vals, degree_bound=2 * env.lattice.K
    )


def _constant_symbol(env: Environment, value: complex = 1.0) -> PhaseSpaceField:
    R = 2 * env.lattice.K
    n = env.lattice.n
    vals = np.full((2 * R + 1,) * n + env.torus.shape, value, dtype=np.complex128)
    return PhaseSpaceField(env.lattice, env.torus, R, vals, degree_bound=0)


# name -> builder(env, rng); `generate_ensemble` and `tflocal gen --kind` read it
ENSEMBLES = {
    "gaussian-signal": _random_signal,
    "trig-symbol": _trig_symbol,
    "indicator-symbol": _indicator_symbol,
    "rank-one-symbol": _rank_one_symbol,
    "constant-symbol": lambda env, rng: _constant_symbol(env),
}


def generate_ensemble(kind: str, seed: int, env: Environment):
    """Draw one registered ensemble member deterministically from the seed."""
    if kind not in ENSEMBLES:
        raise UsageError(f"unknown ensemble kind {kind!r}")
    return ENSEMBLES[kind](env, trial_rng(seed, f"ensemble:{kind}", 0))


# ---------------------------------------------------------------------------
# margins


def _eq_margin(lhs: float, rhs: float, scale: Optional[float] = None) -> float:
    s = max(abs(rhs) if scale is None else scale, _TINY)
    m = -abs(lhs - rhs) / s
    return m if m >= _NEG_CAP else _NEG_CAP  # also when m is NaN


def _le_margin(lhs: float, rhs: float, scale: Optional[float] = None) -> float:
    s = max(abs(rhs) if scale is None else scale, _TINY)
    m = (rhs - lhs) / s
    if not np.isfinite(m):
        return _NEG_CAP
    return float(np.clip(m, _NEG_CAP, 1e300))


# ---------------------------------------------------------------------------
# check implementations
#
# Most checks are written for one trial, as fn(env, rng, t) -> margins, and
# wrapped by `_trialwise`.  The stacked checks are written for one trial too,
# as fn(env, rng, t) -> (norm requests, finish), and wrapped by `_stacked`,
# which solves the norms of a part of trials together; a registry row binds
# its stacked driver's Young functions, constant and tier.  The checks whose
# tier summarizes their trials own their loop.  Spectral checks read SVD sums
# from `spectrum`, the routine behind `tflocal spectrum`.


def _trialwise(fn):
    """The run form of a one-trial check fn(env, rng, t) -> margins, untiered."""

    def run(env, spec, trials):
        return [min(fn(env, rng, t)) for t, rng in trials], None

    return run


@_trialwise
def _chk_plancherel(env, rng, t):
    f = _random_signal(env, rng)
    g = _random_signal(env, rng)
    lhs = field_lp_norm(stft(f, g, env.torus), 2.0)
    rhs = norm2(f) * norm2(g)
    return [_eq_margin(lhs, rhs)]


@_trialwise
def _chk_orthogonality(env, rng, t):
    f1, f2 = _random_signal(env, rng), _random_signal(env, rng)
    g1, g2 = _random_signal(env, rng), _random_signal(env, rng)
    V1 = stft(f1, g1, env.torus)
    V2 = stft(f2, g2, env.torus)
    lhs = env.torus.weight * np.sum(V1.values * np.conj(V2.values))
    rhs = inner(f1, f2) * inner(g2, g1)
    scale = norm2(f1) * norm2(f2) * norm2(g1) * norm2(g2)
    return [_eq_margin(abs(lhs - rhs), 0.0, scale=scale)]


@_trialwise
def _chk_inversion(env, rng, t):
    f = _random_signal(env, rng)
    g = _random_signal(env, rng)
    for _ in range(200):
        h = _random_signal(env, rng)
        if abs(inner(h, g)) >= 0.1 * norm2(h) * norm2(g):
            break
    else:
        raise ConditioningError("no synthesis window with |<h, g>| >= 0.1 |h| |g| in 200 draws")
    rec = invert(stft(f, g, env.torus), g, h)
    return [_eq_margin(norm2(Signal(f.spec, rec.values - f.values)), 0.0, norm2(f))]


def _tf_shift(env, rng):
    """A half-block signal f, a lattice shift tau, a torus index jnu and M_nu T_tau f."""
    K, n = env.lattice.K, env.lattice.n
    f = _random_signal(env, rng, half=True)
    tau = tuple(int(x) for x in rng.integers(-(K - K // 2), K - K // 2 + 1, size=n))
    jnu = tuple(int(x) for x in rng.integers(0, env.torus.M, size=n))
    nu = tuple(j / env.torus.M for j in jnu)
    return f, tau, jnu, modulate(translate(f, tau), nu)


@_trialwise
def _chk_covariance(env, rng, t):
    n, R = env.lattice.n, 2 * env.lattice.K
    f, tau, jnu, shifted = _tf_shift(env, rng)
    g = env.window
    A = np.abs(stft(shifted, g, env.torus).values)
    src, dst = overlap(tau, R, R)  # lattice shift of [-R, R]^n by tau, zero fill
    B = np.zeros_like(A)
    B[dst] = np.abs(stft(f, g, env.torus).values)[src]
    B = np.roll(B, jnu, axis=tuple(range(n, 2 * n)))  # torus shift is cyclic
    scale = max(float(A.max()), _TINY)
    return [_eq_margin(float(np.abs(A - B).max()), 0.0, scale)]


_LUX_PS = (1.0, 1.5, 2.0, 3.0)
_QUASI_PS = (0.5, 0.75)


@_trialwise
def _chk_power_reduction(env, rng, t):
    K, n = env.lattice.K, env.lattice.n
    use_field = t % 2 == 1
    if use_field:
        F = _trig_symbol(env, rng)
        v = np.abs(F.values).ravel()
        weight = env.torus.weight
    else:
        v = np.abs(_crandn(rng, ((2 * K + 1) ** n,)))
        weight = 1.0
    margins = []
    # power norms have a direct sum to compare with; for eq5 and psi the
    # modular bracket certifies b ((t // 2) % 2 gives each input kind both).
    # The stacked solver of the Hoelder and axiom checks must give luxemburg's bits.
    phis = [*map(power, _LUX_PS), (env.phi, env.psi)[(t // 2) % 2]]
    for phi, stacked in zip(phis, _lux_stack([v] * len(phis), weight, phis)):
        b = luxemburg(v, weight, phi)
        margins.append(_eq_margin(float(stacked), b, scale=max(b, _TINY)))
        if phi.kind == "power":
            direct = float((weight * v**phi.p).sum() ** (1.0 / phi.p))
            margins.append(_eq_margin(b, direct, scale=max(direct, _TINY)))
        if b > 0:
            eps = 1e-12
            args = (v / (b * (1 + eps)), v / (b * (1 - eps)))
            vals = [phi._eval(x) for x in args]
            up, dn = ((weight * y).sum() for y in vals)
            margins.append(0.0 if (up <= 1.0 <= dn) else -1.0)
            if phi.kind == "table":
                # the table's O(1) lookup against interpolation through its nodes
                for x, y in zip(args, vals):
                    ref = _interp_table(phi, x)
                    margins.append(_eq_margin(float(np.abs(y - ref).max()), 0.0, scale=float(ref.max())))
    # quasi(Phi, p) at b is Phi at b^p on v^p; eq5 as Phi, since for a power
    # base base(t)^p and base(t^p) agree.  (t // 4) % 2 gives each p both inputs.
    p = _QUASI_PS[(t // 4) % 2]
    b = luxemburg(v, weight, quasi_young(env.phi, p))
    via = luxemburg(v**p, weight, env.phi) ** (1.0 / p)
    margins.append(_eq_margin(b, via, scale=max(via, _TINY)))
    return margins


def _interp_table(psi: YoungFunction, t: np.ndarray) -> np.ndarray:
    """np.interp through a table's nodes, extended past the last by its slope."""
    xs, ys = psi.xs, psi.ys
    slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
    return np.where(t > xs[-1], ys[-1] + slope * (t - xs[-1]), np.interp(t, xs, ys))


_HOLDER_PS = (4.0 / 3.0, 1.5, 2.0, 3.0)


def _conjugate_powers(p: float) -> tuple:
    return power(p), power(p / (p - 1.0))


_HELD_VALUES = 1 << 16  # a stacked part closes once its requests hold this many values: 512 kB


def _solve(env, part):
    """The margins of each trial (requests, finish) of a part, in trial order.

    A request is (|array|, norm, young).  A "lattice" request is an array on
    the lattice, counting measure, and young = (phi,).  The others are |F|
    of a field, shaped as F.values, over the product measure: "product"
    takes its Luxemburg norm under young = (phi,), "mixed" and "swapped"
    its mixed norms under (phi1, phi2).  The part's requests of one norm and
    shape are solved in one `_lux_stack` or `_mixed_norms` call, whose rows
    are independent, so each norm has the bits of its request solved alone.
    Each trial's finish gets its own requests' norms.
    """
    requests = [r for trial, _ in part for r in trial]
    groups = {}
    for i, (a, norm, _) in enumerate(requests):
        groups.setdefault((norm, a.shape), []).append(i)
    out = np.empty(len(requests))
    w, T = env.torus.weight, env.torus.M**env.torus.n
    for (norm, _), idx in groups.items():
        arrays = [requests[i][0] for i in idx]
        youngs = zip(*(requests[i][2] for i in idx))
        if norm == "lattice":
            got = _lux_stack(arrays, 1.0, *youngs)
        elif norm == "product":
            got = _lux_stack([a.ravel() for a in arrays], w, *youngs)
        else:
            got = _mixed_norms([a.reshape(-1, T) for a in arrays], w, *youngs, swapped=norm == "swapped")
        out[idx] = got
    norms = iter(out.tolist())
    return [min(finish(*itertools.islice(norms, len(trial)))) for trial, finish in part]


def _stacked(fn):
    """The run form of a stacked check fn(env, rng, t, **bindings) -> (requests, finish).

    The form is run(env, spec, trials, tier=None, **bindings) -> (margins,
    tier); a registry row binds the tier and the check's bindings with
    `partial`.  A trial's requests are `_solve`'s, and finish(*norms) takes
    their norms and returns the trial's margins; it keeps only the scalars
    those need, never the trial's fields.  Trials join a part until its
    requested arrays hold _HELD_VALUES values, so a part holds less than
    that plus one trial's, and each part is one `_solve`: at n = 1, K = 8 a
    mixed-norm part is 14 to 21 trials, at n = 2, K = 2 two or three, and a
    lattice part over a thousand.
    """

    def run(env, spec, trials, tier=None, **bindings):
        margins, part, held = [], [], 0
        for t, rng in trials:
            requests, finish = fn(env, rng, t, **bindings)
            part.append((requests, finish))
            held += sum(a.size for a, _, _ in requests)
            if held >= _HELD_VALUES:
                margins += _solve(env, part)
                part, held = [], 0
        return margins + _solve(env, part), tier

    return run


@_stacked
def _holder_lattice(env, rng, t, young, c=1.0):
    """sum f g <= c |f|_phi |g|_psi on the lattice, young(env, t) = (phi, psi)."""
    size = (2 * env.lattice.K + 1) ** env.lattice.n
    f = np.abs(_crandn(rng, (size,)))
    g = np.abs(_crandn(rng, (size,)))
    lhs = float((f * g).sum())
    phi, psi = young(env, t)
    return [(f, "lattice", (phi,)), (g, "lattice", (psi,))], lambda a, b: [_le_margin(lhs, c * a * b)]


@_stacked
def _holder_mixed(env, rng, t, young, c=1.0):
    """<|F|, |G|> <= c |F|_(phi1, phi2) |G|_(psi1, psi2), young(env, t) = ((phi1, phi2), (psi1, psi2))."""
    F = _trig_symbol(env, rng)
    G = _trig_symbol(env, rng)
    lhs = holder_pairing(F, G)
    phis, psis = young(env, t)
    requests = [(np.abs(F.values), "mixed", phis), (np.abs(G.values), "mixed", psis)]
    return requests, lambda a, b: [_le_margin(lhs, c * a * b)]


def _lattice_holder_powers(env, t):
    return _conjugate_powers(_HOLDER_PS[t % len(_HOLDER_PS)])


def _mixed_holder_powers(env, t):
    phi1, psi1 = _conjugate_powers(_HOLDER_PS[t % len(_HOLDER_PS)])
    phi2, psi2 = _conjugate_powers(_HOLDER_PS[(t // len(_HOLDER_PS)) % len(_HOLDER_PS)])
    return (phi1, phi2), (psi1, psi2)


def _convolution_entry_margin(F, G, H, rng) -> float:
    """One drawn entry H(m, j) of H = F * G against w sum_l sum_x F(l, x) G(m - l, j - x).

    (m, j) is drawn from H's lattice range and grid; |F|_1 max|G| bounds every entry.
    """
    n, M = F.n, F.torus.M
    m = rng.integers(-H.m_radius, H.m_radius + 1, size=n)
    j = rng.integers(0, M, size=n)
    k = m - (np.indices(F.lattice_shape).reshape(n, -1).T - F.m_radius)  # m - l, l lexicographic
    inside = (np.abs(k) <= G.m_radius).all(axis=1)
    nodes = np.ix_(*((j[:, None] - np.arange(M)) % M))  # j - x per axis
    Gk = G.values[tuple((k[inside] + G.m_radius).T)][(slice(None),) + nodes]
    direct = np.sum(F.values.reshape((-1,) + F.torus.shape)[inside] * Gk)
    entry = complex(H.values[tuple(m + H.m_radius) + tuple(j)])
    scale = field_lp_norm(F, 1.0) * float(np.abs(G.values).max())
    return _eq_margin(entry, F.torus.weight * direct, scale)


@_stacked
def _convolution(env, rng, t, young, norm):
    """|F * G| <= |F|_1 |G| in norm "mixed" or "product" under young(env, t).

    The trial's margin is also at most that of one drawn entry of F * G
    against its defining sum.
    """
    F = _trig_symbol(env, rng)
    G = _rank_one_symbol(env, rng) if t % 2 else _trig_symbol(env, rng)
    H = convolve_phase_space(F, G)
    l1 = field_lp_norm(F, 1.0)
    entry = _convolution_entry_margin(F, G, H, rng)
    phis = young(env, t)
    requests = [(np.abs(H.values), norm, phis), (np.abs(G.values), norm, phis)]
    return requests, lambda h, g: [_le_margin(h, l1 * g), entry]


def _mixed_convolution_powers(env, t):
    p1 = _HOLDER_PS[t % len(_HOLDER_PS)]
    p2 = p1 if t % 3 == 0 else _HOLDER_PS[(t + 1) % len(_HOLDER_PS)]
    return power(p1), power(p2)


# the norm-axiom checks measure trial t's fields in the norm _AXIOM_NORMS[t % 3]
_AXIOM_NORMS = (
    ("product", (power(1.5),)),
    ("mixed", (power(2), power(3))),
    ("swapped", (eq5(), power(2))),
)


@_stacked
def _homogeneity(env, rng, t):
    """|c F| = |c| |F| in trial t's axiom norm."""
    F = _trig_symbol(env, rng)
    c = complex(_crandn(rng, ()) * 3)
    r, norm = abs(c), _AXIOM_NORMS[t % 3]
    requests = [(np.abs(c * F.values), *norm), (np.abs(F.values), *norm)]
    return requests, lambda a, b: [_eq_margin(a, r * b, scale=max(r * b, _TINY))]


@_stacked
def _triangle(env, rng, t):
    """|F + G| <= |F| + |G| in trial t's axiom norm."""
    F = _trig_symbol(env, rng)
    G = _trig_symbol(env, rng)
    norm = _AXIOM_NORMS[t % 3]
    fields = (F.values + G.values, F.values, G.values)
    return [(np.abs(v), *norm) for v in fields], lambda s, a, b: [_le_margin(s, a + b)]


@_stacked
def _monotonicity(env, rng, t):
    """|u G| <= |G| for 0 <= u <= 1 pointwise, in trial t's axiom norm."""
    G = _trig_symbol(env, rng)
    u = rng.uniform(0.0, 1.0, size=G.values.shape)
    norm = _AXIOM_NORMS[t % 3]
    requests = [(np.abs(G.values * u), *norm), (np.abs(G.values), *norm)]
    return requests, lambda a, b: [_le_margin(a, b, scale=max(b, _TINY))]


_X0 = math.exp(-2.0)


@_trialwise
def _chk_embedding(env, rng, t):
    margins = []
    # source power(1.5) absorbs target power(2) on (0, 1] with constant 1
    r = embedding_condition((power(1.5),) * 2, (power(2),) * 2, 1.0)
    margins.append(_le_margin(r.C, 1.0) if r.holds else -1.0)
    # the log-perturbed square dominates the plain square below e^{-2}: C <= 1/2
    r = embedding_condition((env.phi,) * 2, (power(2),) * 2, _X0)
    margins.append(_le_margin(r.C, 0.5) if r.holds else -1.0)
    # the reverse direction diverges like -log x and must be rejected
    r = embedding_condition((power(2),) * 2, (env.phi,) * 2, _X0)
    margins.append(0.0 if not r.holds else -1.0)
    return margins


def _chk_inclusion_flanks(env, spec, trials):
    # the flanks draw nothing, so every trial gives the same margin
    left = embedding_condition((power(1.5),) * 2, (env.phi,) * 2, _X0)
    right = embedding_condition((env.phi,) * 2, (power(2),) * 2, _X0)
    margin = 0.0 if left.holds and right.holds else -1.0
    return [margin for _ in trials], f"C_left={fmt17(left.C)};C_right={fmt17(right.C)}"


@_trialwise
def _chk_m2_identity(env, rng, t):
    f = _random_signal(env, rng)
    val = modulation_norm(f, env.window, 2.0, env.torus)
    return [_eq_margin(val, norm2(f), scale=max(norm2(f), _TINY))]


@_trialwise
def _chk_shift_invariance(env, rng, t):
    f, _, _, shifted = _tf_shift(env, rng)
    norm = (
        lambda x: modulation_norm(x, env.window, 1.0, env.torus),
        lambda x: modulation_norm(x, env.window, 2.0, env.torus),
        lambda x: modulation_norm(x, env.window, math.inf, env.torus),
        lambda x: orlicz_modulation_norm(x, env.window, env.phi, variant="MPhi", torus=env.torus),
        lambda x: orlicz_modulation_norm(
            x, env.window, env.phi, power(2), variant="MPhiPsi", torus=env.torus
        ),
    )[t % 5]
    a, b = norm(f), norm(shifted)
    return [_eq_margin(b, a, scale=max(a, _TINY))]


def _chk_window_robustness(env, spec, trials):
    """M^Phi norms under two windows; the tier is the largest ratio either way."""
    worst, rs = [], []
    for _, rng in trials:
        f = _random_signal(env, rng)
        a = orlicz_modulation_norm(f, env.window, env.phi, variant="MPhi", torus=env.torus)
        b = orlicz_modulation_norm(f, env.window2, env.phi, variant="MPhi", torus=env.torus)
        r = a / b if b > 0 else math.inf
        ok = np.isfinite(r) and r > 0
        worst.append(0.0 if ok else _NEG_CAP)
        rs += [r] if ok else []
    R = max(max(rs), 1.0 / min(rs)) if rs else math.inf
    return worst, f"R={fmt17(R)}"


@_trialwise
def _chk_two_path(env, rng, t):
    sigma = _trig_symbol(env, rng)
    g1, g2 = env.window, env.window2
    f = _random_signal(env, rng)
    h = _random_signal(env, rng)
    out = apply_operator(sigma, g1, g2, f)
    K = kernel(sigma, g1, g2)
    via_matrix = K.matvec(f)
    scale = max(float(np.abs(out.values).max()), _TINY)
    m1 = _eq_margin(float(np.abs(via_matrix.values - out.values).max()), 0.0, scale)
    wp = weak_pairing(sigma, g1, g2, f, h)
    ip = inner(out, h)
    m2 = _eq_margin(abs(wp - ip), 0.0, max(abs(ip), scale * norm2(h)))
    return [m1, m2]


@_trialwise
def _chk_identity_operator(env, rng, t):
    sigma = _constant_symbol(env)
    g = env.window
    K = kernel(sigma, g, g).matrix
    spec = env.lattice
    idx = np.arange(spec.side**spec.n).reshape(spec.shape)
    sel = idx[spec.admissible_slices()].ravel()
    block = K[np.ix_(sel, sel)]
    eye = np.eye(block.shape[0])
    return [_eq_margin(float(np.abs(block - eye).max()), 0.0, 1.0)]


@_trialwise
def _chk_adjoint_identity(env, rng, t):
    sigma = _trig_symbol(env, rng)
    g1 = _random_signal(env, rng)
    g2 = _random_signal(env, rng)
    A = kernel(sigma, g1, g2).matrix.conj().T
    B = adjoint_kernel(sigma, g1, g2).matrix
    scale = max(float(np.abs(A).max()), 1.0)
    m1 = _eq_margin(float(np.abs(A - B).max()), 0.0, scale)
    H = kernel(replace(sigma, values=sigma.values.real), g1, g1)
    m2 = _eq_margin(H.hermitian_defect(), 0.0, max(float(np.abs(H.matrix).max()), 1.0))
    return [m1, m2]


@_trialwise
def _chk_trace_identity(env, rng, t):
    sigma = _trig_symbol(env, rng)
    if t % 2:
        g1, g2 = env.window, env.window2
    else:
        g1, g2 = _random_signal(env, rng), _random_signal(env, rng)
    S = spectrum(kernel(sigma, g1, g2))
    expected = inner(g2, g1) * complex(env.torus.weight * sigma.values.sum())
    scale = max(abs(expected), norm2(g1) * norm2(g2) * field_lp_norm(sigma, 1.0), _TINY)
    m1 = _eq_margin(abs(S.trace - expected), 0.0, scale)
    # not redundant: spectrum's cross-check reads s, not the schatten[2] formed from it
    m2 = _eq_margin(S.hs_norm, S.schatten[2.0], scale=max(S.hs_norm, _TINY))
    return [m1, m2]


def _opnorm_margins(sigma, g1, g2):
    """Margins of the operator norm s1 of K = kernel(sigma, g1, g2) under its bounds.

    The bounds are Plancherel's, max|sigma| |g1| |g2|, and Schur's,
    sqrt(max column sum * max row sum) of |K|, in that order.
    """
    K = kernel(sigma, g1, g2)
    s1 = spectrum(K).schatten[math.inf]
    a = np.abs(K.matrix)
    plancherel = field_lp_norm(sigma, math.inf) * norm2(g1) * norm2(g2)
    schur = math.sqrt(float(a.sum(axis=0).max()) * float(a.sum(axis=1).max()))
    return _le_margin(s1, plancherel), _le_margin(s1, schur)


def _chk_opnorm(env, rng, t, bound):
    """The margin under bound `bound` of `_opnorm_margins` (0 Plancherel's, 1 Schur's)."""
    sigma, g1, g2 = _trig_symbol(env, rng), _random_signal(env, rng), _random_signal(env, rng)
    return _opnorm_margins(sigma, g1, g2)[bound : bound + 1]


def _nonneg_symbol(env, rng, t):
    return _indicator_symbol(env, rng) if t % 2 else _rank_one_symbol(env, rng, same=True)


@_trialwise
def _chk_s1_positive(env, rng, t):
    sigma = _nonneg_symbol(env, rng, t)
    g = env.window
    K = kernel(sigma, g, g)
    S = spectrum(K)
    S1, s1v = S.schatten[1.0], S.schatten[math.inf]
    eigs = np.linalg.eigvalsh((K.matrix + K.matrix.conj().T) / 2.0)
    m_psd = float(eigs.min()) / max(s1v, _TINY)
    # a Hermitian PSD kernel's largest singular value is its largest eigenvalue
    m_top = _eq_margin(s1v, float(eigs.max()))
    trace = S.trace.real
    m_eq = _eq_margin(S1, trace, scale=max(trace, _TINY))
    mass = field_lp_norm(sigma, 1.0)
    m_bound = _le_margin(S1, mass * norm2(g) ** 2)
    m_exact = _eq_margin(trace, mass * norm2(g) ** 2, scale=max(trace, _TINY))
    return [m_psd, m_top, m_eq, m_bound, m_exact]


@_trialwise
def _chk_s1_general(env, rng, t):
    """S1 <= |sigma|_1 |g1| |g2|: L sums rank-one terms of trace norm w |sigma| |g1| |g2|."""
    # the bound is far tighter on indicator symbols than on trig ones
    sigma = _indicator_symbol(env, rng) if t % 2 else _trig_symbol(env, rng)
    g1, g2 = _random_signal(env, rng), _random_signal(env, rng)
    S1 = spectrum(kernel(sigma, g1, g2)).schatten[1.0]
    return [_le_margin(S1, field_lp_norm(sigma, 1.0) * norm2(g1) * norm2(g2))]


_SCH_PS = (1.0, 1.5, 2.0, 3.0, math.inf)


@_trialwise
def _chk_schatten_logconvexity(env, rng, t):
    """S_p between S1 and S_inf, and S_p <= |sigma|_p |g1| |g2| at p = 1.5, 2, 3."""
    sigma = _trig_symbol(env, rng)
    g1, g2 = _random_signal(env, rng), _random_signal(env, rng)
    sch = spectrum(kernel(sigma, g1, g2), _SCH_PS).schatten
    S1, Sinf, gg = sch[1.0], sch[math.inf], norm2(g1) * norm2(g2)
    return [
        *(_le_margin(sch[p], S1 ** (1.0 / p) * Sinf ** (1.0 - 1.0 / p)) for p in _SCH_PS),
        *(_le_margin(sch[p], field_lp_norm(sigma, p) * gg) for p in _SCH_PS[1:-1]),
    ]


@_trialwise
def _chk_trace_sandwich(env, rng, t):
    """|sigma_tilde|_1 <= |g|^2 S1, and one drawn sigma_tilde(m, j) against a^H K a.

    a = M_{j/M} T_m g is the atom at the drawn point and K the kernel of
    L(sigma, g, g), so the two sides come from the convolution and from the
    kernel; max|sigma| |g|^4 bounds every entry.  m is drawn from sigma's
    lattice range and j off the zero node on every axis.
    """
    sigma = _nonneg_symbol(env, rng, t)
    g = env.window
    st = sigma_tilde(sigma, g)
    K = kernel(sigma, g, g)
    sandwich = _le_margin(field_lp_norm(st, 1.0), norm2(g) ** 2 * spectrum(K).schatten[1.0])
    n, M, R = sigma.n, sigma.torus.M, sigma.m_radius
    m = rng.integers(-R, R + 1, size=n)
    j = rng.integers(1, M, size=n)
    a = modulate(translate(g, m), j / M).values.ravel()
    entry = complex(st.values[tuple(m + R) + tuple(j)])
    scale = norm2(g) ** 4 * field_lp_norm(sigma, math.inf)
    return [sandwich, _eq_margin(entry, np.vdot(a, K.matrix @ a), scale)]


def _truncated_mphi(env, x: Signal) -> float:
    """Luxemburg size of the analysis sum over the fixed [-2K, 2K]^n window range.

    Operator outputs extend past the admissible block, so their exact
    modulation norm is not representable at C = 3K; this functional measures
    every box signal against the same truncated phase-space region and
    coincides with the M^Phi norm on admissible inputs.  It feeds the
    reported boundedness ratios only, never a hard assertion.
    """
    vals = _stft_values(
        x.values, env.window.values, env.lattice, env.torus, 2 * env.lattice.K
    )
    return luxemburg(vals, env.torus.weight, env.phi)


def _odd_window(env: Environment, rng) -> PhaseSpaceField:
    """Random phase-space window: neither a tensor product nor even in eta."""
    K, n = env.lattice.K, env.lattice.n
    d = max(1, K // 2)
    coefs = _crandn(rng, (2 * K + 1,) * n + (2 * d + 1,) * n)
    vals = coefficients_to_values(coefs, env.torus, d)
    return PhaseSpaceField(env.lattice, env.torus, K, vals, degree_bound=d)


def _symbol_entry_margin(sigma: PhaseSpaceField, G: PhaseSpaceField, rng) -> float:
    """One drawn entry of sigma's second-level transform against G, two ways.

    The entry (m, omega, xi, k) of `_SymbolShifts`' slab is compared with
    the defining quadrature sum of `stft_symbol`'s docstring, taken from
    sigma.values and G.values, relative to |sigma|_2 |G|_2, which bounds
    every entry.  m is drawn from sigma's lattice range, so that the
    window's centre u = 0 enters (a Gaussian window's rim makes entries
    near |m| = Rm vanish to rounding), and omega and xi off the zero node
    on every axis, where a conjugated window or a flipped phase would not
    show.
    """
    shifts = _SymbolShifts(sigma, G)
    n, M, D, Rm, R = sigma.spec.n, sigma.torus.M, shifts.D, shifts.Rm, sigma.m_radius
    m = rng.integers(-R, R + 1, size=n)
    w, xi = rng.integers(1, M, size=(2, n))
    k = rng.integers(-D, D + 1, size=n)

    def flat(idx, size):  # C-order index into a flattened cube of side `size`
        return int(np.ravel_multi_index(idx, (size,) * n))

    u, j = next(itertools.islice(shifts, flat(m + Rm, 2 * Rm + 1), None))
    fast = complex(shifts.slab(u, j)[flat(xi, M), flat(k + D, 2 * D + 1), flat(w, M)])
    # sum_j e^{-2 pi i j.xi} (1/M^n) sum_eta e^{-2 pi i eta.k} sigma(j, eta) conj(G(j-m, eta-omega))
    Gw = np.roll(G.values, tuple(w), axis=tuple(range(n, 2 * n)))
    prod = (sigma.values[j] * np.conj(Gw[u])).reshape(-1, M**n)
    ej = phase_matrix(M, -R, R, -1, n)[:, flat(xi, M)].reshape((2 * R + 1,) * n)[j]
    ek = phase_matrix(M, -D, D, -1, n)[flat(k + D, 2 * D + 1)]
    direct = complex(ej.ravel() @ prod @ ek) / M**n
    return _eq_margin(fast, direct, field_lp_norm(sigma, 2.0) * field_lp_norm(G, 2.0))


def _chk_mphi(env, spec, trials):
    """M^Phi ratios |A f| / |f| of one operator A, drawn from the setup stream.

    The tier is kappa, the largest ratio over the symbol-M^1 bound on |A|,
    and cov, the ratios' coefficient of variation.  Trial 0 also carries the
    hard operator-norm margins of A, the symbol's M^2 identity (Moyal's,
    |V_G0 sigma|_2 = |sigma|_2 |G0|_2), which Parseval makes blind to the
    transform's phases, and one drawn transform entry against its defining
    sum for G0 and for an odd random window (`_symbol_entry_margin`).
    """
    setup = trial_rng(spec.seed, spec.id + ":setup", 0)
    sigma = _trig_symbol(env, setup)
    g1, g2 = env.window, env.window2
    hard = (
        *_opnorm_margins(sigma, g1, g2),
        _eq_margin(
            symbol_modulation_norm(sigma, env.G0, 2.0),
            field_lp_norm(sigma, 2.0) * field_lp_norm(env.G0, 2.0),
        ),
        # one transform entry per path: G0 is rank one, the odd window is not
        *(_symbol_entry_margin(sigma, G, setup) for G in (env.G0, _odd_window(env, setup))),
    )
    bound = (
        symbol_modulation_norm(sigma, env.G0, 1.0)
        * orlicz_modulation_norm(g1, env.window, env.psi, variant="MPhi", torus=env.torus)
        * orlicz_modulation_norm(g2, env.window, env.phi, variant="MPhi", torus=env.torus)
    )
    worst, rs = [], []
    for t, rng in trials:
        f = _random_signal(env, rng)
        num = _truncated_mphi(env, apply_operator(sigma, g1, g2, f))
        den = _truncated_mphi(env, f)
        r = num / den if den > 0 else math.inf
        ok = np.isfinite(r)
        worst.append(min([0.0 if ok else _NEG_CAP, *(hard if t == 0 else ())]))
        rs += [r] if ok else []
    if not rs:
        return worst, "kappa=inf;cov=inf"
    rs = np.asarray(rs, dtype=float)
    kappa = float(rs.max()) / max(bound, _TINY)
    cov = float(rs.std() / max(rs.mean(), _TINY))
    return worst, f"kappa={fmt17(kappa)};cov={fmt17(cov)}"


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class CheckDef:
    id: str
    invariant: str  # the module invariant (stft / orlicz / modulation / locop) it checks
    trials: int
    tolerance: float
    run: Callable  # (env, spec, lazy (t, rng) stream) -> (worst margin per trial, tier)

# the registry: one row per check, the only place a check is declared
_ROWS = (
    CheckDef("plancherel", "stft.plancherel", 100, 1e-10, _chk_plancherel),
    CheckDef("orthogonality", "stft.orthogonality", 100, 1e-10, _chk_orthogonality),
    CheckDef("inversion_roundtrip", "stft.inversion_round_trip", 100, 1e-10, _chk_inversion),
    CheckDef("stft_covariance", "stft.covariance", 100, 1e-12, _chk_covariance),
    CheckDef("orlicz_homogeneity", "orlicz.norm_axioms", 100, 1e-9, _homogeneity),
    CheckDef("orlicz_triangle", "orlicz.norm_axioms", 100, 1e-9, _triangle),
    CheckDef("orlicz_monotonicity", "orlicz.norm_axioms", 100, 1e-12, _monotonicity),
    CheckDef("luxemburg_power_reduction", "orlicz.power_reduction", 100, 1e-9, _chk_power_reduction),
    CheckDef("holder_lattice_power", "orlicz.holder_lattice", 500, 1e-9,
             partial(_holder_lattice, young=_lattice_holder_powers, tier="holder-constant-1")),
    CheckDef("holder_lattice_conjugate", "orlicz.holder_lattice", 500, 1e-9,
             partial(_holder_lattice, young=lambda env, t: (env.phi, env.psi), c=2.0,
                     tier="holder-constant-2")),
    CheckDef("holder_mixed_power", "orlicz.holder_mixed", 500, 1e-9,
             partial(_holder_mixed, young=_mixed_holder_powers, tier="holder-constant-1")),
    CheckDef("holder_mixed_conjugate", "orlicz.holder_mixed", 500, 1e-9,
             partial(_holder_mixed, young=lambda env, t: ((env.phi, power(2)), (env.psi, power(2))),
                     c=2.0, tier="holder-constant-2")),
    CheckDef("convolution_mixed_power", "orlicz.convolution_young", 100, 1e-9,
             partial(_convolution, young=_mixed_convolution_powers, norm="mixed")),
    CheckDef("convolution_mixed_orlicz", "orlicz.convolution_young", 100, 1e-9,
             partial(_convolution, young=lambda env, t: (env.phi, power(2)), norm="mixed")),
    CheckDef("convolution_product", "orlicz.convolution_young", 100, 1e-9,
             partial(_convolution, young=lambda env, t: (env.phi if t % 2 else power(1.5),),
                     norm="product")),
    CheckDef("embedding_criteria", "modulation.embedding_criteria", 1, 1e-9, _chk_embedding),
    CheckDef("inclusion_chain_flanks", "modulation.embedding_criteria", 1, 1e-9, _chk_inclusion_flanks),
    CheckDef("m2_identity", "modulation.m2_identity", 100, 1e-10, _chk_m2_identity),
    CheckDef("tf_shift_invariance", "modulation.shift_invariance", 100, 1e-10, _chk_shift_invariance),
    CheckDef("window_robustness", "modulation.window_robustness", 100, 1e-9, _chk_window_robustness),
    CheckDef("locop_two_path", "locop.two_path_consistency", 50, 1e-12, _chk_two_path),
    CheckDef("identity_operator", "locop.identity_case", 1, 1e-10, _chk_identity_operator),
    CheckDef("adjoint_identity", "locop.adjoint_identity", 50, 1e-12, _chk_adjoint_identity),
    CheckDef("trace_identity", "locop.trace_identity", 50, 1e-10, _chk_trace_identity),
    CheckDef("opnorm_plancherel_bound", "locop.operator_norm_bound", 100, 1e-9,
             _trialwise(partial(_chk_opnorm, bound=0))),
    CheckDef("opnorm_schur_bound", "locop.schur_test", 100, 1e-9,
             _trialwise(partial(_chk_opnorm, bound=1))),
    CheckDef("s1_positive_trace", "locop.positive_trace_class", 50, 1e-10, _chk_s1_positive),
    CheckDef("s1_general_split", "locop.general_trace_class", 50, 1e-9, _chk_s1_general),
    CheckDef("schatten_logconvexity", "locop.schatten_interpolation", 50, 1e-9, _chk_schatten_logconvexity),
    CheckDef("trace_sandwich", "locop.trace_sandwich", 50, 1e-9, _chk_trace_sandwich),
    CheckDef("mphi_boundedness", "locop.mphi_harness", 100, 1e-9, _chk_mphi),
)
REGISTRY = {c.id: c for c in _ROWS}

# invariant -> the ids of the checks that prove it, in registry order
SPEC_INVARIANTS: dict = {}
for _row in _ROWS:
    SPEC_INVARIANTS.setdefault(_row.invariant, []).append(_row.id)


@dataclass(frozen=True)
class CheckSpec:
    """One requested check run, validated on construction.

    `trials` and `tolerance` left as None take the registry row's values.
    """

    id: str
    trials: Optional[int] = None
    tolerance: Optional[float] = None
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if not isinstance(self.id, str) or self.id not in REGISTRY:
            raise UsageError(f"unknown check id {self.id!r}")
        row = REGISTRY[self.id]
        trials = row.trials if self.trials is None else integer(self.trials, f"{self.id}.trials")
        if trials < 1:
            raise UsageError(f"{self.id}.trials must be >= 1")
        tol = row.tolerance if self.tolerance is None else number(self.tolerance, f"{self.id}.tolerance")
        if tol < 0:
            raise UsageError(f"{self.id}.tolerance must be >= 0")
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "tolerance", tol)
        object.__setattr__(self, "seed", integer(self.seed, f"{self.id}.seed"))


@dataclass
class CheckResult:
    id: str
    trials: int
    violations: int
    worst_margin: float
    seed: int
    elapsed: float
    tier: Optional[str] = None


def registered_ids():
    return sorted(REGISTRY)


def default_specs(ids=None, seed: int = DEFAULT_SEED):
    """CheckSpecs with registry defaults, in a fixed order."""
    return [CheckSpec(cid, seed=seed) for cid in (registered_ids() if ids is None else ids)]


# ---------------------------------------------------------------------------
# runner


def run_suite(specs, env: Environment, threads: int = 1):
    """Run the requested checks, each handed a lazy stream of all its trials.

    Every trial gets its own `trial_rng` stream, made when the check asks for
    it, and its worst margin comes back in trial order.  Trials run in one
    thread: they are small numpy calls that hold the GIL, so a worker pool
    gave the same report only more slowly.
    `threads` stays because the benchmark's verify workload passes
    `threads=1`; any other value raises UsageError.
    """
    if integer(threads, "threads") != 1:
        raise UsageError(f"threads must be 1 (trials run serially), got {threads}")
    results = []
    for spec in specs:
        t0 = time.perf_counter()
        trials = ((t, trial_rng(spec.seed, spec.id, t)) for t in range(spec.trials))
        worst, tier = REGISTRY[spec.id].run(env, spec, trials)
        violations = sum(1 for m in worst if m < -spec.tolerance)
        results.append(
            CheckResult(
                id=spec.id,
                trials=spec.trials,
                violations=violations,
                worst_margin=float(min(worst)),
                seed=spec.seed,
                elapsed=time.perf_counter() - t0,
                tier=tier,
            )
        )
    return results


# ---------------------------------------------------------------------------
# report I/O


def report_lines(results) -> str:
    """JSON Lines report; elapsed is canonicalized to 0 for reproducibility."""
    lines = []
    for r in results:
        tier = json.dumps(r.tier) if r.tier is not None else "null"
        lines.append(
            "{"
            + f'"id": {json.dumps(r.id)}, "trials": {r.trials}, '
            + f'"violations": {r.violations}, '
            + f'"worst_margin": {fmt17(r.worst_margin)}, '
            + f'"seed": {r.seed}, "elapsed": {fmt17(0.0)}, "tier": {tier}'
            + "}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def parse_report(text: str):
    out = []
    for line in text.splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        out.append(
            CheckResult(
                id=obj["id"],
                trials=int(obj["trials"]),
                violations=int(obj["violations"]),
                worst_margin=float(obj["worst_margin"]),
                seed=int(obj["seed"]),
                elapsed=float(obj["elapsed"]),
                tier=obj.get("tier"),
            )
        )
    return out
