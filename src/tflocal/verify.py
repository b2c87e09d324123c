"""Randomized verification harness.

Every identity and inequality the toolkit claims is registered here as a
named check.  A check is declared in one place only, its row in the
registry: id, invariant, trial count, tolerance and trial function;
`SPEC_INVARIANTS`, `registered_ids` and every `CheckSpec` default are read
from those rows.  A check draws a seeded ensemble, evaluates its predicate
on every trial, and reports the worst margin, where margins are normalized
by the right-hand side (or by the natural scale of an identity) so that
tolerances are scale free.  Equality checks report minus the relative
deviation, hence their margins are never positive.

Per-trial randomness comes from a counter-based Philox stream keyed by
(master seed, check id) with the trial index as the counter.  A check gets
all its trials at once, in trial order; the Hoelder and mixed convolution
checks solve the Luxemburg norms of many trials together, but each trial
still draws from its own stream, and the solver's rows are independent, so
every margin and report byte is the same as trial by trial, and identical
across runs.

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
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Optional

import numpy as np

from .errors import ConditioningError, UsageError, fmt17, integer, number
from .lattice import (
    LatticeSpec,
    PhaseSpaceField,
    Signal,
    TorusGrid,
    inner,
    modulate,
    norm2,
    phase_matrix,
    shift_array,
    signal_from_block,
    translate,
)
from .locop import (
    adjoint_kernel,
    apply_operator,
    kernel,
    sigma_tilde,
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
    _field_abs,
    _lux_stack,
    _mixed_norms,
    coefficients_to_values,
    convolve_phase_space,
    field_lp_norm,
    holder_pairing,
    luxemburg,
    mixed_norm,
    mixed_norm_swapped,
    orlicz_norm,
)
from .stft import _stft_values, stft, invert
from .young import YoungFunction, conjugate_table, eq5, power

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
    sl = tuple(slice(K - r, K + r + 1) for _ in range(n))
    block[sl] = _crandn(rng, (2 * r + 1,) * n)
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
    return max(-abs(lhs - rhs) / s, _NEG_CAP)


def _le_margin(lhs: float, rhs: float, scale: Optional[float] = None) -> float:
    s = max(abs(rhs) if scale is None else scale, _TINY)
    m = (rhs - lhs) / s
    if not np.isfinite(m):
        return _NEG_CAP
    return float(np.clip(m, _NEG_CAP, 1e300))


# ---------------------------------------------------------------------------
# check implementations
#
# A trial function takes an iterable of the check's (t, rng) pairs and
# returns one (submargins, optional payload) per trial, in trial order.  Most
# checks are written for one trial and wrapped by `_trialwise`; the Hoelder
# and mixed convolution checks draw the trials of one `_in_parts` part first
# and then solve all their Luxemburg norms together.


def _trialwise(fn):
    """The many-trial form of a one-trial check fn(env, ctx, rng, t)."""

    def trials_fn(env, ctx, trials):
        return [fn(env, ctx, rng, t) for t, rng in trials]

    return trials_fn


@_trialwise
def _chk_plancherel(env, ctx, rng, t):
    f = _random_signal(env, rng)
    g = _random_signal(env, rng)
    lhs = field_lp_norm(stft(f, g, env.torus), 2.0)
    rhs = norm2(f) * norm2(g)
    return [_eq_margin(lhs, rhs)], None


@_trialwise
def _chk_orthogonality(env, ctx, rng, t):
    f1, f2 = _random_signal(env, rng), _random_signal(env, rng)
    g1, g2 = _random_signal(env, rng), _random_signal(env, rng)
    V1 = stft(f1, g1, env.torus)
    V2 = stft(f2, g2, env.torus)
    lhs = env.torus.weight * np.sum(V1.values * np.conj(V2.values))
    rhs = inner(f1, f2) * inner(g2, g1)
    scale = norm2(f1) * norm2(f2) * norm2(g1) * norm2(g2)
    return [_eq_margin(abs(lhs - rhs), 0.0, scale=scale)], None


@_trialwise
def _chk_inversion(env, ctx, rng, t):
    f = _random_signal(env, rng)
    g = _random_signal(env, rng)
    for _ in range(200):
        h = _random_signal(env, rng)
        if abs(inner(h, g)) >= 0.1 * norm2(h) * norm2(g):
            break
    else:
        raise ConditioningError("no synthesis window with |<h, g>| >= 0.1 |h| |g| in 200 draws")
    rec = invert(stft(f, g, env.torus), g, h)
    return [_eq_margin(norm2(Signal(f.spec, rec.values - f.values)), 0.0, norm2(f))], None


@_trialwise
def _chk_covariance(env, ctx, rng, t):
    K, n = env.lattice.K, env.lattice.n
    f = _random_signal(env, rng, half=True)
    tau = tuple(int(x) for x in rng.integers(-(K - K // 2), K - K // 2 + 1, size=n))
    jnu = tuple(int(x) for x in rng.integers(0, env.torus.M, size=n))
    nu = tuple(j / env.torus.M for j in jnu)
    g = env.window
    shifted = modulate(translate(f, tau), nu)
    A = np.abs(stft(shifted, g, env.torus).values)
    B = np.abs(stft(f, g, env.torus).values)
    B = shift_array(B, tau + (0,) * n)  # lattice shift with zero fill
    B = np.roll(B, jnu, axis=tuple(range(n, 2 * n)))  # torus shift is cyclic
    scale = max(float(A.max()), _TINY)
    return [_eq_margin(float(np.abs(A - B).max()), 0.0, scale)], None


_NORM_STYLES = ("product", "mixed", "swapped")


def _field_norm(style, F, phi1, phi2):
    if style == "product":
        return orlicz_norm(F, phi1)
    if style == "mixed":
        return mixed_norm(F, phi1, phi2)
    return mixed_norm_swapped(F, phi1, phi2)


_AXIOM_PHIS = ((power(1.5), power(2)), (power(2), power(3)), (eq5(), power(2)))


@_trialwise
def _chk_homogeneity(env, ctx, rng, t):
    F = _trig_symbol(env, rng)
    c = complex(_crandn(rng, ()) * 3)
    phi1, phi2 = _AXIOM_PHIS[t % 3]
    style = _NORM_STYLES[t % 3]
    a = _field_norm(style, PhaseSpaceField(F.spec, F.torus, F.m_radius, c * F.values, degree_bound=F.degree_bound), phi1, phi2)
    b = abs(c) * _field_norm(style, F, phi1, phi2)
    return [_eq_margin(a, b, scale=max(b, _TINY))], None


@_trialwise
def _chk_triangle(env, ctx, rng, t):
    F = _trig_symbol(env, rng)
    G = _trig_symbol(env, rng)
    phi1, phi2 = _AXIOM_PHIS[t % 3]
    style = _NORM_STYLES[t % 3]
    H = PhaseSpaceField(
        F.spec, F.torus, F.m_radius, F.values + G.values, degree_bound=F.degree_bound
    )
    lhs = _field_norm(style, H, phi1, phi2)
    rhs = _field_norm(style, F, phi1, phi2) + _field_norm(style, G, phi1, phi2)
    return [_le_margin(lhs, rhs)], None


@_trialwise
def _chk_monotonicity(env, ctx, rng, t):
    G = _trig_symbol(env, rng)
    u = rng.uniform(0.0, 1.0, size=G.values.shape)
    F = PhaseSpaceField(
        G.spec, G.torus, G.m_radius, G.values * u, degree_bound=env.torus.M - 1
    )
    phi1, phi2 = _AXIOM_PHIS[t % 3]
    style = _NORM_STYLES[t % 3]
    lhs = _field_norm(style, F, phi1, phi2)
    rhs = _field_norm(style, G, phi1, phi2)
    return [_le_margin(lhs, rhs, scale=max(rhs, _TINY))], None


_LUX_PS = (1.0, 1.5, 2.0, 3.0)


@_trialwise
def _chk_power_reduction(env, ctx, rng, t):
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
    # eq5 and its conjugate psi have no closed form, but the modular bracket
    # still certifies b; (t // 2) % 2 gives each input kind both of them
    for phi in [*map(power, _LUX_PS), (env.phi, env.psi)[(t // 2) % 2]]:
        b = luxemburg(v, weight, phi)
        if phi.kind == "power":
            direct = float((weight * v**phi.p).sum() ** (1.0 / phi.p))
            margins.append(_eq_margin(b, direct, scale=max(direct, _TINY)))
        if b > 0:
            eps = 1e-12
            up = (weight * phi._eval(v / (b * (1 + eps)))).sum()
            dn = (weight * phi._eval(v / (b * (1 - eps)))).sum()
            margins.append(0.0 if (up <= 1.0 <= dn) else -1.0)
    return margins, None


_HOLDER_PS = (4.0 / 3.0, 1.5, 2.0, 3.0)


def _conjugate_powers(p: float) -> tuple:
    return power(p), power(p / (p - 1.0))


def _le_trials(lhs, rhs):
    """One `_le_margin` trial result per (lhs, rhs) pair, in trial order."""
    return [([_le_margin(float(a), float(b))], None) for a, b in zip(lhs, rhs)]


_HELD_VALUES = 1 << 16  # values a stacked check holds at once: 512 kB


def _field_values(env, R: int) -> int:
    """Values of a field of lattice radius R on the environment's torus."""
    return (2 * R + 1) ** env.lattice.n * env.torus.M**env.torus.n


def _in_parts(values_per_trial):
    """Run a stacked check(env, trials, ...) on consecutive parts of its trials.

    Each part holds at most _HELD_VALUES values (and at least one trial), so
    a check's memory does not grow with its trial count or field size: at
    n = 1, K = 8 a mixed-norm part is 13 to 20 trials, at n = 2, K = 2 one or
    two, and a lattice part over a thousand.
    """

    def wrap(fn):
        def parts(env, trials, *args, **kwargs):
            per = max(1, _HELD_VALUES // values_per_trial(env))
            trials, out = iter(trials), []
            while part := list(itertools.islice(trials, per)):
                out += fn(env, part, *args, **kwargs)
            return out

        return parts

    return wrap


@_in_parts(lambda env: 2 * (2 * env.lattice.K + 1) ** env.lattice.n)  # f and g
def _holder_lattice(env, trials, young, c=1.0):
    """sum f g <= c |f|_phi |g|_psi on the lattice, young(t) = (phi, psi)."""
    size = (2 * env.lattice.K + 1) ** env.lattice.n
    lhs, rows, phis = [], [], []
    for t, rng in trials:
        f = np.abs(_crandn(rng, (size,)))
        g = np.abs(_crandn(rng, (size,)))
        lhs.append(float((f * g).sum()))
        rows += [f, g]
        phis += young(t)
    norm = _lux_stack(rows, 1.0, phis)
    return _le_trials(lhs, c * norm[0::2] * norm[1::2])


def _chk_holder_lattice_power(env, ctx, trials):
    return _holder_lattice(env, trials, lambda t: _conjugate_powers(_HOLDER_PS[t % len(_HOLDER_PS)]))


def _chk_holder_lattice_conj(env, ctx, trials):
    return _holder_lattice(env, trials, lambda t: (env.phi, env.psi), c=2.0)


@_in_parts(lambda env: 2 * _field_values(env, 2 * env.lattice.K))
def _holder_mixed(env, trials, young, c=1.0):
    """<|F|, |G|> <= c |F|_(phi1, phi2) |G|_(psi1, psi2), young(t) = (phi1, phi2, psi1, psi2)."""
    lhs, fields, phi1s, phi2s = [], [], [], []
    for t, rng in trials:
        F = _trig_symbol(env, rng)
        G = _trig_symbol(env, rng)
        lhs.append(holder_pairing(F, G))
        fields += [_field_abs(F), _field_abs(G)]
        phi1, phi2, psi1, psi2 = young(t)
        phi1s += [phi1, psi1]
        phi2s += [phi2, psi2]
    norm = _mixed_norms(fields, env.torus.weight, phi1s, phi2s)
    return _le_trials(lhs, c * norm[0::2] * norm[1::2])


def _mixed_holder_powers(t):
    phi1, psi1 = _conjugate_powers(_HOLDER_PS[t % len(_HOLDER_PS)])
    phi2, psi2 = _conjugate_powers(_HOLDER_PS[(t // len(_HOLDER_PS)) % len(_HOLDER_PS)])
    return phi1, phi2, psi1, psi2


def _chk_holder_mixed_power(env, ctx, trials):
    return _holder_mixed(env, trials, _mixed_holder_powers)


def _chk_holder_mixed_conj(env, ctx, trials):
    return _holder_mixed(env, trials, lambda t: (env.phi, power(2), env.psi, power(2)), c=2.0)


def _conv_pair(env, rng, t):
    F = _trig_symbol(env, rng)
    G = _rank_one_symbol(env, rng) if t % 2 else _trig_symbol(env, rng)
    return F, G


@_in_parts(lambda env: sum(_field_values(env, r * env.lattice.K) for r in (2, 4)))  # G and F * G
def _convolution_mixed(env, trials, young):
    """|F * G|_(phi1, phi2) <= |F|_1 |G|_(phi1, phi2), young(t) = (phi1, phi2)."""
    l1, Hs, Gs, phi1s, phi2s = [], [], [], [], []
    for t, rng in trials:
        F, G = _conv_pair(env, rng, t)
        l1.append(field_lp_norm(F, 1.0))
        Hs.append(_field_abs(convolve_phase_space(F, G)))
        Gs.append(_field_abs(G))
        phi1, phi2 = young(t)
        phi1s.append(phi1)
        phi2s.append(phi2)
    w = env.torus.weight
    lhs = _mixed_norms(Hs, w, phi1s, phi2s)
    rhs = np.array(l1) * _mixed_norms(Gs, w, phi1s, phi2s)
    return _le_trials(lhs, rhs)


def _mixed_convolution_powers(t):
    p1 = _HOLDER_PS[t % len(_HOLDER_PS)]
    p2 = p1 if t % 3 == 0 else _HOLDER_PS[(t + 1) % len(_HOLDER_PS)]
    return power(p1), power(p2)


def _chk_convolution_mixed_power(env, ctx, trials):
    return _convolution_mixed(env, trials, _mixed_convolution_powers)


def _chk_convolution_mixed_orlicz(env, ctx, trials):
    return _convolution_mixed(env, trials, lambda t: (env.phi, power(2)))


@_trialwise
def _chk_convolution_product(env, ctx, rng, t):
    F, G = _conv_pair(env, rng, t)
    H = convolve_phase_space(F, G)
    phi = env.phi if t % 2 else power(1.5)
    lhs = orlicz_norm(H, phi)
    rhs = field_lp_norm(F, 1.0) * orlicz_norm(G, phi)
    return [_le_margin(lhs, rhs)], None


_X0 = math.exp(-2.0)


@_trialwise
def _chk_embedding(env, ctx, rng, t):
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
    return margins, None


@_trialwise
def _chk_inclusion_flanks(env, ctx, rng, t):
    left = embedding_condition((power(1.5),) * 2, (env.phi,) * 2, _X0)
    right = embedding_condition((env.phi,) * 2, (power(2),) * 2, _X0)
    margins = [0.0 if left.holds else -1.0, 0.0 if right.holds else -1.0]
    payload = (left.C, right.C)
    return margins, payload


def _fin_inclusion(env, ctx, payloads):
    if not payloads:
        return None
    lc, rc = payloads[0]
    return f"C_left={fmt17(lc)};C_right={fmt17(rc)}"


@_trialwise
def _chk_m2_identity(env, ctx, rng, t):
    f = _random_signal(env, rng)
    val = modulation_norm(f, env.window, 2.0, env.torus)
    return [_eq_margin(val, norm2(f), scale=max(norm2(f), _TINY))], None


@_trialwise
def _chk_shift_invariance(env, ctx, rng, t):
    K, n = env.lattice.K, env.lattice.n
    f = _random_signal(env, rng, half=True)
    tau = tuple(int(x) for x in rng.integers(-(K - K // 2), K - K // 2 + 1, size=n))
    jnu = tuple(int(x) for x in rng.integers(0, env.torus.M, size=n))
    nu = tuple(j / env.torus.M for j in jnu)
    shifted = modulate(translate(f, tau), nu)

    which = t % 5
    if which == 0:
        norm = lambda x: modulation_norm(x, env.window, 1.0, env.torus)
    elif which == 1:
        norm = lambda x: modulation_norm(x, env.window, 2.0, env.torus)
    elif which == 2:
        norm = lambda x: modulation_norm(x, env.window, math.inf, env.torus)
    elif which == 3:
        norm = lambda x: orlicz_modulation_norm(
            x, env.window, env.phi, variant="MPhi", torus=env.torus
        )
    else:
        norm = lambda x: orlicz_modulation_norm(
            x, env.window, env.phi, power(2), variant="MPhiPsi", torus=env.torus
        )
    a, b = norm(f), norm(shifted)
    return [_eq_margin(b, a, scale=max(a, _TINY))], None


@_trialwise
def _chk_window_robustness(env, ctx, rng, t):
    f = _random_signal(env, rng)
    a = orlicz_modulation_norm(f, env.window, env.phi, variant="MPhi", torus=env.torus)
    b = orlicz_modulation_norm(f, env.window2, env.phi, variant="MPhi", torus=env.torus)
    r = a / b if b > 0 else math.inf
    ok = np.isfinite(r) and r > 0
    return [0.0 if ok else _NEG_CAP], (r if ok else math.inf)


def _fin_window_robustness(env, ctx, payloads):
    rs = [r for r in payloads if np.isfinite(r)]
    if not rs:
        return "R=inf"
    R = max(max(rs), 1.0 / min(rs))
    return f"R={fmt17(R)}"


@_trialwise
def _chk_two_path(env, ctx, rng, t):
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
    return [m1, m2], None


@_trialwise
def _chk_identity_operator(env, ctx, rng, t):
    sigma = _constant_symbol(env)
    g = env.window
    K = kernel(sigma, g, g).matrix
    spec = env.lattice
    idx = np.arange(spec.side**spec.n).reshape(spec.shape)
    sel = idx[spec.admissible_slices()].ravel()
    block = K[np.ix_(sel, sel)]
    eye = np.eye(block.shape[0])
    return [_eq_margin(float(np.abs(block - eye).max()), 0.0, 1.0)], None


@_trialwise
def _chk_adjoint_identity(env, ctx, rng, t):
    sigma = _trig_symbol(env, rng)
    g1 = _random_signal(env, rng)
    g2 = _random_signal(env, rng)
    A = kernel(sigma, g1, g2).matrix.conj().T
    B = adjoint_kernel(sigma, g1, g2).matrix
    scale = max(float(np.abs(A).max()), 1.0)
    m1 = _eq_margin(float(np.abs(A - B).max()), 0.0, scale)
    real_sigma = PhaseSpaceField(
        sigma.spec,
        sigma.torus,
        sigma.m_radius,
        sigma.values.real.astype(np.complex128),
        degree_bound=sigma.degree_bound,
    )
    H = kernel(real_sigma, g1, g1)
    m2 = _eq_margin(H.hermitian_defect(), 0.0, max(float(np.abs(H.matrix).max()), 1.0))
    return [m1, m2], None


@_trialwise
def _chk_trace_identity(env, ctx, rng, t):
    sigma = _trig_symbol(env, rng)
    if t % 2:
        g1, g2 = env.window, env.window2
    else:
        g1, g2 = _random_signal(env, rng), _random_signal(env, rng)
    K = kernel(sigma, g1, g2)
    mass = complex(env.torus.weight * sigma.values.sum())
    expected = inner(g2, g1) * mass
    scale = max(
        abs(expected),
        norm2(g1) * norm2(g2) * env.torus.weight * float(np.abs(sigma.values).sum()),
        _TINY,
    )
    tr = complex(np.trace(K.matrix))
    m1 = _eq_margin(abs(tr - expected), 0.0, scale)
    s = np.linalg.svd(K.matrix, compute_uv=False)
    hs_e = float(np.linalg.norm(K.matrix.ravel()))
    hs_s = float(np.sqrt((s**2).sum()))
    m2 = _eq_margin(hs_e, hs_s, scale=max(hs_e, _TINY))
    return [m1, m2], None


@_trialwise
def _chk_opnorm_plancherel(env, ctx, rng, t):
    sigma = _trig_symbol(env, rng)
    g1 = _random_signal(env, rng)
    g2 = _random_signal(env, rng)
    s = np.linalg.svd(kernel(sigma, g1, g2).matrix, compute_uv=False)
    rhs = float(np.abs(sigma.values).max()) * norm2(g1) * norm2(g2)
    return [_le_margin(float(s[0]), rhs)], None


@_trialwise
def _chk_opnorm_schur(env, ctx, rng, t):
    sigma = _trig_symbol(env, rng)
    g1 = _random_signal(env, rng)
    g2 = _random_signal(env, rng)
    K = kernel(sigma, g1, g2).matrix
    s1 = float(np.linalg.svd(K, compute_uv=False)[0])
    a = np.abs(K)
    rhs = math.sqrt(float(a.sum(axis=0).max()) * float(a.sum(axis=1).max()))
    return [_le_margin(s1, rhs)], None


def _nonneg_symbol(env, rng, t):
    return _indicator_symbol(env, rng) if t % 2 else _rank_one_symbol(env, rng, same=True)


@_trialwise
def _chk_s1_positive(env, ctx, rng, t):
    sigma = _nonneg_symbol(env, rng, t)
    g = env.window
    K = kernel(sigma, g, g).matrix
    s = np.linalg.svd(K, compute_uv=False)
    s1v = float(s[0])
    eigs = np.linalg.eigvalsh((K + K.conj().T) / 2.0)
    m_psd = float(eigs.min()) / max(s1v, _TINY)
    trace = float(np.trace(K).real)
    S1 = float(s.sum())
    m_eq = _eq_margin(S1, trace, scale=max(trace, _TINY))
    mass = env.torus.weight * float(np.abs(sigma.values).sum())
    m_bound = _le_margin(S1, mass * norm2(g) ** 2)
    m_exact = _eq_margin(trace, mass * norm2(g) ** 2, scale=max(trace, _TINY))
    return [m_psd, m_eq, m_bound, m_exact], None


@_trialwise
def _chk_s1_general(env, ctx, rng, t):
    sigma = _trig_symbol(env, rng)
    g1 = _random_signal(env, rng)
    g2 = _random_signal(env, rng)
    gmax2 = max(norm2(g1), norm2(g2)) ** 2
    parts = [
        np.maximum(sigma.values.real, 0.0),
        np.maximum(-sigma.values.real, 0.0),
        np.maximum(sigma.values.imag, 0.0),
        np.maximum(-sigma.values.imag, 0.0),
    ]
    margins = []
    for pv in parts:
        pf = PhaseSpaceField(
            sigma.spec,
            sigma.torus,
            sigma.m_radius,
            pv.astype(np.complex128),
            degree_bound=env.torus.M - 1,
        )
        s = np.linalg.svd(kernel(pf, g1, g2).matrix, compute_uv=False)
        l1 = env.torus.weight * float(pv.sum())
        margins.append(_le_margin(float(s.sum()), l1 * gmax2))
    s = np.linalg.svd(kernel(sigma, g1, g2).matrix, compute_uv=False)
    l1 = env.torus.weight * float(np.abs(sigma.values).sum())
    margins.append(_le_margin(float(s.sum()), 4.0 * l1 * gmax2))
    return margins, None


_SCH_PS = (1.0, 1.5, 2.0, 3.0, math.inf)


@_trialwise
def _chk_schatten_logconvexity(env, ctx, rng, t):
    sigma = _trig_symbol(env, rng)
    g1 = _random_signal(env, rng)
    g2 = _random_signal(env, rng)
    s = np.linalg.svd(kernel(sigma, g1, g2).matrix, compute_uv=False)
    S1, Sinf = float(s.sum()), float(s[0])
    margins = []
    for p in _SCH_PS:
        if math.isinf(p):
            lhs, rhs = Sinf, Sinf
        else:
            lhs = float((s**p).sum() ** (1.0 / p))
            rhs = S1 ** (1.0 / p) * Sinf ** (1.0 - 1.0 / p)
        margins.append(_le_margin(lhs, rhs))
    return margins, None


@_trialwise
def _chk_trace_sandwich(env, ctx, rng, t):
    sigma = _nonneg_symbol(env, rng, t)
    g = env.window
    st = sigma_tilde(sigma, g)
    lhs = env.torus.weight * float(np.abs(st.values).sum())
    s = np.linalg.svd(kernel(sigma, g, g).matrix, compute_uv=False)
    rhs = norm2(g) ** 2 * float(s.sum())
    return [_le_margin(lhs, rhs)], None


def _pre_mphi(env, spec):
    rng = trial_rng(spec.seed, spec.id + ":setup", 0)
    sigma = _trig_symbol(env, rng)
    g1, g2 = env.window, env.window2
    Kmat = kernel(sigma, g1, g2).matrix
    s1v = float(np.linalg.svd(Kmat, compute_uv=False)[0])
    a = np.abs(Kmat)
    hard = [
        _le_margin(s1v, float(np.abs(sigma.values).max()) * norm2(g1) * norm2(g2)),
        _le_margin(
            s1v, math.sqrt(float(a.sum(axis=0).max()) * float(a.sum(axis=1).max()))
        ),
    ]
    g0 = env.window
    norm_g1_psi = orlicz_modulation_norm(g1, g0, env.psi, variant="MPhi", torus=env.torus)
    norm_g2_phi = orlicz_modulation_norm(g2, g0, env.phi, variant="MPhi", torus=env.torus)
    sym_m1 = symbol_modulation_norm(sigma, env.G0, 1.0)
    rhs_m1 = sym_m1 * norm_g1_psi * norm_g2_phi
    rhs_l1 = field_lp_norm(sigma, 1.0) * norm_g1_psi * norm_g2_phi
    g1_m1 = modulation_norm(g1, g0, 1.0, env.torus)
    g2_m1 = modulation_norm(g2, g0, 1.0, env.torus)
    g1_inf = float(np.abs(g1.values).max())
    g2_inf = float(np.abs(g2.values).max())
    rhs_schur = max(g1_m1 * g2_inf, g1_inf * g2_m1) * sym_m1
    return {
        "sigma": sigma,
        "g1": g1,
        "g2": g2,
        "hard": hard,
        "rhs": {"symbol_m1": rhs_m1, "l1": rhs_l1, "schur": rhs_schur},
    }


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
    F = PhaseSpaceField(
        env.lattice, env.torus, 2 * env.lattice.K, vals, degree_bound=env.torus.M - 1
    )
    return orlicz_norm(F, env.phi)


@_trialwise
def _chk_mphi(env, ctx, rng, t):
    f = _random_signal(env, rng)
    num = _truncated_mphi(env, apply_operator(ctx["sigma"], ctx["g1"], ctx["g2"], f))
    den = _truncated_mphi(env, f)
    r = num / den if den > 0 else math.inf
    margins = [0.0 if np.isfinite(r) else _NEG_CAP]
    if t == 0:
        margins.extend(ctx["hard"])
    return margins, r


def _fin_mphi(env, ctx, payloads):
    rs = np.asarray([r for r in payloads if np.isfinite(r)], dtype=float)
    if rs.size == 0:
        return "kappa=inf;cov=inf"
    kappa = float(rs.max()) / max(ctx["rhs"]["symbol_m1"], _TINY)
    cov = float(rs.std() / max(rs.mean(), _TINY))
    return f"kappa={fmt17(kappa)};cov={fmt17(cov)}"


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class CheckDef:
    id: str
    invariant: str  # the module invariant (stft / orlicz / modulation / locop) it checks
    trials: int
    tolerance: float
    trial_fn: Callable  # (env, ctx, iterable of (t, rng)) -> [(margins, payload), ...]
    tier: Optional[str] = None
    precompute: Optional[Callable] = None
    finalize: Optional[Callable] = None


_H1, _H2 = "holder-constant-1", "holder-constant-2"  # Hoelder-check tiers

# the registry: one row per check, the only place a check is declared
_ROWS = (
    CheckDef("plancherel", "stft.plancherel", 100, 1e-10, _chk_plancherel),
    CheckDef("orthogonality", "stft.orthogonality", 100, 1e-10, _chk_orthogonality),
    CheckDef("inversion_roundtrip", "stft.inversion_round_trip", 100, 1e-10, _chk_inversion),
    CheckDef("stft_covariance", "stft.covariance", 100, 1e-12, _chk_covariance),
    CheckDef("orlicz_homogeneity", "orlicz.norm_axioms", 100, 1e-9, _chk_homogeneity),
    CheckDef("orlicz_triangle", "orlicz.norm_axioms", 100, 1e-9, _chk_triangle),
    CheckDef("orlicz_monotonicity", "orlicz.norm_axioms", 100, 1e-12, _chk_monotonicity),
    CheckDef("luxemburg_power_reduction", "orlicz.power_reduction", 100, 1e-9, _chk_power_reduction),
    CheckDef("holder_lattice_power", "orlicz.holder_lattice", 500, 1e-9, _chk_holder_lattice_power, tier=_H1),
    CheckDef("holder_lattice_conjugate", "orlicz.holder_lattice", 500, 1e-9, _chk_holder_lattice_conj, tier=_H2),
    CheckDef("holder_mixed_power", "orlicz.holder_mixed", 500, 1e-9, _chk_holder_mixed_power, tier=_H1),
    CheckDef("holder_mixed_conjugate", "orlicz.holder_mixed", 500, 1e-9, _chk_holder_mixed_conj, tier=_H2),
    CheckDef("convolution_mixed_power", "orlicz.convolution_young", 100, 1e-9, _chk_convolution_mixed_power),
    CheckDef("convolution_mixed_orlicz", "orlicz.convolution_young", 100, 1e-9, _chk_convolution_mixed_orlicz),
    CheckDef("convolution_product", "orlicz.convolution_young", 100, 1e-9, _chk_convolution_product),
    CheckDef("embedding_criteria", "modulation.embedding_criteria", 1, 1e-9, _chk_embedding),
    CheckDef("inclusion_chain_flanks", "modulation.embedding_criteria", 1, 1e-9, _chk_inclusion_flanks, finalize=_fin_inclusion),
    CheckDef("m2_identity", "modulation.m2_identity", 100, 1e-10, _chk_m2_identity),
    CheckDef("tf_shift_invariance", "modulation.shift_invariance", 100, 1e-10, _chk_shift_invariance),
    CheckDef("window_robustness", "modulation.window_robustness", 100, 1e-9, _chk_window_robustness, finalize=_fin_window_robustness),
    CheckDef("locop_two_path", "locop.two_path_consistency", 50, 1e-12, _chk_two_path),
    CheckDef("identity_operator", "locop.identity_case", 1, 1e-10, _chk_identity_operator),
    CheckDef("adjoint_identity", "locop.adjoint_identity", 50, 1e-12, _chk_adjoint_identity),
    CheckDef("trace_identity", "locop.trace_identity", 50, 1e-10, _chk_trace_identity),
    CheckDef("opnorm_plancherel_bound", "locop.operator_norm_bound", 100, 1e-9, _chk_opnorm_plancherel),
    CheckDef("opnorm_schur_bound", "locop.schur_test", 100, 1e-9, _chk_opnorm_schur),
    CheckDef("s1_positive_trace", "locop.positive_trace_class", 50, 1e-10, _chk_s1_positive),
    CheckDef("s1_general_split", "locop.general_trace_class", 50, 1e-9, _chk_s1_general),
    CheckDef("schatten_logconvexity", "locop.schatten_interpolation", 50, 1e-9, _chk_schatten_logconvexity),
    CheckDef("trace_sandwich", "locop.trace_sandwich", 50, 1e-9, _chk_trace_sandwich),
    CheckDef("mphi_boundedness", "locop.mphi_harness", 100, 1e-9, _chk_mphi, precompute=_pre_mphi, finalize=_fin_mphi),
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
    it, and its results come back in trial order.  Trials run in one thread: they are small numpy calls that
    hold the GIL, so a worker pool gave the same report only more slowly.
    `threads` stays because the benchmark's verify workload passes
    `threads=1`; any other value raises UsageError.
    """
    if integer(threads, "threads") != 1:
        raise UsageError(f"threads must be 1 (trials run serially), got {threads}")
    results = []
    for spec in specs:
        cd = REGISTRY[spec.id]
        t0 = time.perf_counter()
        ctx = cd.precompute(env, spec) if cd.precompute else None
        worst, payloads = [], []
        trials = ((t, trial_rng(spec.seed, spec.id, t)) for t in range(spec.trials))
        for margins, payload in cd.trial_fn(env, ctx, trials):
            worst.append(min(margins))
            if payload is not None:
                payloads.append(payload)
        violations = sum(1 for m in worst if m < -spec.tolerance)
        tier = cd.finalize(env, ctx, payloads) if cd.finalize else cd.tier
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
