import itertools
import math

import numpy as np
import pytest

from tflocal import (
    ConditioningError,
    DomainError,
    LatticeSpec,
    PhaseSpaceField,
    PrecisionError,
    RangeError,
    Signal,
    TorusGrid,
    inner,
    invert,
    norm2,
    stft,
    stft_adjoint,
    stft_symbol,
    symbol_modulation_norm,
)
from tflocal.lattice import (
    coefficients_to_values,
    delta_signal,
    field_coefficients,
    phase_matrix,
)
from tflocal.locop import apply_operator
from tflocal.orlicz import field_lp_norm
from tflocal.stft import SymbolTransform, _stft_values
from tflocal.verify import (
    Environment,
    _crandn,
    _random_signal,
    _trig_symbol,
    trial_rng,
)


# one grid per dimension, small enough for the loop oracles
SMALL_GRIDS = [(LatticeSpec(1, 2), TorusGrid(1, 13)), (LatticeSpec(2, 1, 3), TorusGrid(2, 7))]


def direct_stft_oracle(f, g, torus):
    """Loop evaluation of the defining sum in any dimension (independent path)."""
    spec = f.spec
    n, R, C = spec.n, 2 * spec.K, spec.C
    box = list(itertools.product(range(-C, C + 1), repeat=n))
    out = np.zeros((2 * R + 1,) * n + torus.shape, complex)
    for m in itertools.product(range(-R, R + 1), repeat=n):
        for j in np.ndindex(torus.shape):
            w = [jj / torus.M for jj in j]
            acc = 0.0
            for k in box:
                km = [a - b for a, b in zip(k, m)]
                if all(-C <= c <= C for c in km):
                    acc += (
                        f.values[tuple(c + C for c in k)]
                        * np.conj(g.values[tuple(c + C for c in km)])
                        * np.exp(-2j * np.pi * sum(a * b for a, b in zip(w, k)))
                    )
            out[tuple(c + R for c in m) + j] = acc
    return out


def direct_adjoint_oracle(F, g):
    """Loop evaluation of sum_m (1/M^n) sum_j F(m, w_j) e^{2 pi i w_j.k} g(k - m)."""
    spec, torus = F.spec, F.torus
    n, C = spec.n, spec.C
    out = np.zeros(spec.shape, complex)
    for k in itertools.product(range(-C, C + 1), repeat=n):
        acc = 0.0
        for m in F.m_points():
            km = [a - b for a, b in zip(k, m)]
            if not all(-C <= c <= C for c in km):
                continue
            gk = g.values[tuple(c + C for c in km)]
            for j in np.ndindex(torus.shape):
                phase = np.exp(2j * np.pi * sum(a * b for a, b in zip(j, k)) / torus.M)
                acc += F.values[F.m_index(m) + j] * phase * gk
        out[tuple(c + C for c in k)] = acc / torus.M**n
    return out


def direct_symbol_oracle(F, G, D):
    """The omega x m loop over lattice overlaps: an independent stft_symbol path."""
    spec, torus = F.spec, F.torus
    n, M = spec.n, torus.M
    Rf, Rg = F.m_radius, G.m_radius
    Rm = Rf + Rg
    Mn = M**n
    EkB = phase_matrix(M, -D, D, -1, n).T / Mn  # eta -> k, with weight
    ExiB = phase_matrix(M, -Rf, Rf, -1, n)  # lattice j -> xi
    Fflat = F.values.reshape((2 * Rf + 1,) * n + (Mn,))
    out = np.zeros(((2 * Rm + 1,) * n) + (Mn, Mn * (2 * D + 1) ** n), complex)
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
            T = H.reshape(-1, Mn) @ EkB  # (overlap, k_flat)
            rows = np.ravel_multi_index(
                np.meshgrid(
                    *[np.arange(l + Rf, h + Rf + 1) for l, h in zip(lo, hi)],
                    indexing="ij",
                ),
                (2 * Rf + 1,) * n,
            ).reshape(-1)
            out[tuple(c + Rm for c in m)][wi] = (ExiB[rows].T @ T).reshape(-1)
    return out.reshape((2 * Rm + 1,) * n + (M,) * n + (M,) * n + (2 * D + 1,) * n)


def _rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def test_stft_delta_cases(env):
    lat, tor = env.lattice, env.torus
    d0 = delta_signal(lat)
    F = stft(d0, d0, tor)
    R = 2 * lat.K
    want = np.zeros((2 * R + 1, tor.M), complex)
    want[R, :] = 1.0
    assert np.allclose(F.values, want, atol=0)

    d1 = delta_signal(lat, 1)
    F = stft(d1, d0, tor)
    ws = tor.nodes()
    want = np.zeros((2 * R + 1, tor.M), complex)
    want[R + 1, :] = np.exp(-2j * np.pi * ws)
    assert np.allclose(F.values, want, atol=1e-15)


def test_stft_self_at_origin(env):
    rng = trial_rng(21, "stft-self", 0)
    g = _random_signal(env, rng)
    g = Signal(g.spec, g.values / norm2(g))
    F = stft(g, g, tor := env.torus)
    R = 2 * env.lattice.K
    assert abs(F.values[R, 0] - 1.0) <= 1e-12


def test_stft_matches_triple_loop_oracle(small_env):
    rng = trial_rng(22, "stft-loop", 0)
    f = _random_signal(small_env, rng)
    g = _random_signal(small_env, rng)
    got = stft(f, g, small_env.torus).values
    want = direct_stft_oracle(f, g, small_env.torus)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_stft_rejects_bad_inputs(env):
    lat, tor = env.lattice, env.torus
    zero = Signal(lat, np.zeros(lat.shape, complex))
    d0 = delta_signal(lat)
    with pytest.raises(DomainError):
        stft(d0, zero, tor)
    wide = delta_signal(lat, lat.K + 1)
    with pytest.raises(DomainError):
        stft(wide, d0, tor)


def test_stft_matches_oracle_2d():
    env2 = Environment(LatticeSpec(2, 1, 3), TorusGrid(2, 7))
    rng = trial_rng(24, "stft-loop-2d", 0)
    f = _random_signal(env2, rng)
    g = _random_signal(env2, rng)
    got = stft(f, g, env2.torus).values
    want = direct_stft_oracle(f, g, env2.torus)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("lat,tor", SMALL_GRIDS)
def test_stft_values_on_operator_output(lat, tor):
    # an operator output reaches [-3K, 3K]^n, past the admissible block
    envx = Environment(lat, tor)
    rng = trial_rng(30, "stft-wide", 0)
    f = _random_signal(envx, rng)
    h = apply_operator(_trig_symbol(envx, rng), envx.window, envx.window2, f)
    assert not h.admissible
    got = _stft_values(h.values, envx.window.values, lat, tor, 2 * lat.K)
    assert _rel_err(got, direct_stft_oracle(h, envx.window, tor)) <= 1e-12


@pytest.mark.parametrize("lat,tor", SMALL_GRIDS)
def test_adjoint_matches_direct_oracle(lat, tor):
    # a random field, not the transform of any signal
    rng = np.random.default_rng(31)
    R = 2 * lat.K
    shape = (2 * R + 1,) * lat.n + tor.shape
    vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    F = PhaseSpaceField(lat, tor, R, vals, degree_bound=tor.M - 1 - lat.K)
    g = _random_signal(Environment(lat, tor), trial_rng(31, "adjoint-oracle", 0))
    got = stft_adjoint(F, g).values
    assert _rel_err(got, direct_adjoint_oracle(F, g)) <= 1e-12


def test_phase_matrix_is_cached_and_read_only():
    P = phase_matrix(7, -2, 2, -1, 2)
    assert P.shape == (25, 49)
    assert phase_matrix(7, -2, 2, -1, 2) is P
    # row d = (1, -2), column j = (3, 5): exp(-2 pi i (1*3 - 2*5) / 7)
    assert abs(P[3 * 5 + 0, 3 * 7 + 5] - np.exp(-2j * np.pi * (3 - 10) / 7)) <= 1e-14
    with pytest.raises(ValueError):
        P[0, 0] = 0.0


def test_adjoint_examples(env):
    lat, tor = env.lattice, env.torus
    d0 = delta_signal(lat)
    F = stft(d0, d0, tor)
    rec = stft_adjoint(F, d0)
    assert np.allclose(rec.values, d0.values, atol=1e-13)

    Z = PhaseSpaceField(
        lat, tor, 2 * lat.K, np.zeros((4 * lat.K + 1, tor.M), complex), degree_bound=0
    )
    assert not np.any(stft_adjoint(Z, d0).values)

    rng = trial_rng(25, "adjoint", 0)
    g = _random_signal(env, rng)
    g = Signal(g.spec, g.values / norm2(g))
    f = _random_signal(env, rng)
    rec = stft_adjoint(stft(f, g, tor), g)
    assert np.abs(rec.values - f.values).max() <= 1e-12 * np.abs(f.values).max()


def test_adjoint_precision_refusal(env):
    lat, tor = env.lattice, env.torus
    F = PhaseSpaceField(
        lat,
        tor,
        2 * lat.K,
        np.ones((4 * lat.K + 1, tor.M), complex),
        degree_bound=tor.M - 1,
    )
    with pytest.raises(PrecisionError):
        stft_adjoint(F, delta_signal(lat))


def test_adjoint_box_refusal():
    # the atoms at the outermost shifts m = -6, 6 would reach 6 + K = 8 > C = 7
    lat = LatticeSpec(1, 2, 7)
    F = PhaseSpaceField(lat, TorusGrid(1, 13), 6, np.ones((13, 13), complex), degree_bound=2)
    with pytest.raises(RangeError):
        stft_adjoint(F, delta_signal(lat))


def _ones_field(spec, M, m_radius, deg):
    vals = np.ones((2 * m_radius + 1, M), complex)
    return PhaseSpaceField(spec, TorusGrid(1, M), m_radius, vals, degree_bound=deg)


_K1 = LatticeSpec(1, 1)

# site -> (d, call): call(over) makes the site sum an integrand of degree
# M - 1 + over, and call(1) sums degree d on M = d points
_EXACTNESS_SITES = {
    # 2 deg = 2 * 3 on M = 7 - over
    "coefficient extraction": (
        6, lambda over: field_coefficients(_ones_field(_K1, 7 - over, 1, 3))
    ),
    # deg sigma + deg V = 4 + K on M = 5, as V = stft(f, g) has degree K = over
    "product field": (
        5,
        lambda over: apply_operator(
            _ones_field(LatticeSpec(1, over), 5, 0, 4), *[delta_signal(LatticeSpec(1, over))] * 3
        ),
    ),
    # deg F + K = 2 + 1 on M = 4 - over
    "synthesis integral": (
        3, lambda over: stft_adjoint(_ones_field(_K1, 4 - over, 2, 2), delta_signal(_K1))
    ),
    # 2 (deg F + deg G) = 2 (1 + 1) on M = 5 - over
    "eta integral": (4, lambda over: stft_symbol(*[_ones_field(_K1, 5 - over, 1, 1)] * 2)),
}


@pytest.mark.parametrize("site", list(_EXACTNESS_SITES))
def test_exactness_rule_at_its_boundary(site):
    # every refusal goes through TorusGrid.require_exact: degree M-1 is summed,
    # degree M is refused with the site named
    d, call = _EXACTNESS_SITES[site]
    call(0)
    msg = f"^{site} not exactly integrable: degree {d} exceeds M-1 = {d - 1}$"
    with pytest.raises(PrecisionError, match=msg):
        call(1)


def test_invert_examples(env):
    lat, tor = env.lattice, env.torus
    d0, d1 = delta_signal(lat), delta_signal(lat, 1)
    rec = invert(stft(d1, d0, tor), d0, d0)
    assert np.allclose(rec.values, d1.values, atol=1e-13)

    rng = trial_rng(26, "invert", 0)
    g = _random_signal(env, rng)
    g = Signal(g.spec, g.values / norm2(g))
    f = _random_signal(env, rng)
    rec = invert(stft(f, g, tor), g, g)
    assert norm2(Signal(lat, rec.values - f.values)) <= 1e-10 * norm2(f)

    # synthesis window with <h, g> = 2 halves the raw synthesis output
    h = Signal(lat, 2.0 * g.values)
    assert abs(inner(h, g) - 2.0) <= 1e-12
    rec = invert(stft(f, g, tor), g, h)
    assert norm2(Signal(lat, rec.values - f.values)) <= 1e-10 * norm2(f)


def test_invert_conditioning_error(env):
    lat, tor = env.lattice, env.torus
    d0, d1 = delta_signal(lat), delta_signal(lat, 1)
    F = stft(d1, d0, tor)
    with pytest.raises(ConditioningError):
        invert(F, d0, d1)  # <d1, d0> = 0


def test_plancherel_and_orthogonality(env):
    for t in range(20):
        rng = trial_rng(27, "stft-plancherel", t)
        f = _random_signal(env, rng)
        g = _random_signal(env, rng)
        F = stft(f, g, env.torus)
        rhs = norm2(f) * norm2(g)
        assert abs(field_lp_norm(F, 2.0) - rhs) <= 1e-10 * rhs
        f2 = _random_signal(env, rng)
        g2 = _random_signal(env, rng)
        V2 = stft(f2, g2, env.torus)
        lhs = env.torus.weight * np.sum(F.values * np.conj(V2.values))
        want = inner(f, f2) * inner(g2, g)
        scale = norm2(f) * norm2(f2) * norm2(g) * norm2(g2)
        assert abs(lhs - want) <= 1e-10 * scale


def test_symbol_transform_zero_and_indicator(small_env):
    lat, tor = small_env.lattice, small_env.torus
    R = 2 * lat.K
    Z = PhaseSpaceField(lat, tor, R, np.zeros((2 * R + 1, tor.M), complex), degree_bound=0)
    G = PhaseSpaceField(lat, tor, lat.K, np.zeros((2 * lat.K + 1, tor.M), complex), degree_bound=0)
    G.values[lat.K, :] = 1.0  # window 1[j=0] x 1
    T = stft_symbol(Z, G)
    assert not np.any(T.values)

    F = PhaseSpaceField(lat, tor, R, np.zeros((2 * R + 1, tor.M), complex), degree_bound=0)
    F.values[R, :] = 1.0  # field 1[j=0] x 1
    T = stft_symbol(F, G)
    # only m = 0 and k = 0 survive: constants integrate to the zeroth
    # Fourier coefficient
    D = T.freq_radius
    want = np.zeros_like(T.values)
    want[T.m_radius, :, :, D] = 1.0
    assert np.abs(T.values - want).max() <= 1e-12


def test_symbol_transform_coefficient_oracle():
    # fields built from explicit coefficients admit a closed-form transform:
    # V(m, w, xi, k) = sum_j e^{-2pi i j xi} sum_d cF[j, k+d] conj(cG[j-m, d])
    #                  e^{2pi i d w}
    lat, tor = LatticeSpec(1, 1), TorusGrid(1, 7)
    rng = np.random.default_rng(5)
    Rf, degF, Rg, degG = 2, 1, 1, 1
    cF = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    cG = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    js = np.arange(7)

    def vals_from(c, deg):
        ds = np.arange(-deg, deg + 1)
        return c @ np.exp(2j * np.pi * np.outer(ds, js) / 7)

    F = PhaseSpaceField(lat, tor, Rf, vals_from(cF, degF), degree_bound=degF)
    G = PhaseSpaceField(lat, tor, Rg, vals_from(cG, degG), degree_bound=degG)
    T = stft_symbol(F, G)
    D, Rm = T.freq_radius, T.m_radius
    for mi, m in enumerate(range(-Rm, Rm + 1)):
        for wi, xi_i, (ki, k) in itertools.product(
            range(7), range(7), enumerate(range(-D, D + 1))
        ):
            acc = 0.0
            for j in range(-Rf, Rf + 1):
                if not -Rg <= j - m <= Rg:
                    continue
                for dp in range(-degG, degG + 1):
                    d = k + dp
                    if not -degF <= d <= degF:
                        continue
                    acc += (
                        np.exp(-2j * np.pi * j * xi_i / 7)
                        * cF[j + Rf, d + degF]
                        * np.conj(cG[j - m + Rg, dp + degG])
                        * np.exp(2j * np.pi * dp * wi / 7)
                    )
            assert abs(acc - T.values[mi, wi, xi_i, ki]) <= 1e-12


def test_symbol_transform_plancherel(env):
    rng = trial_rng(28, "symbol-plancherel", 0)
    F = _trig_symbol(env, rng)
    G0 = env.G0
    T = stft_symbol(F, G0)
    lhs = math.sqrt(env.torus.weight**2 * float((np.abs(T.values) ** 2).sum()))
    rhs = field_lp_norm(F, 2.0) * field_lp_norm(G0, 2.0)
    assert abs(lhs - rhs) <= 1e-10 * rhs


def test_symbol_transform_validation(small_env):
    lat, tor = small_env.lattice, small_env.torus
    R = 2 * lat.K

    def field(radius, deg=0):
        vals = np.ones((2 * radius + 1, tor.M), complex)
        return PhaseSpaceField(lat, tor, radius, vals, degree_bound=deg)

    with pytest.raises(DomainError):
        stft_symbol(field(R), field(R))  # window not admissible in the lattice direction
    # the k radius is D = deg F + deg G, and the eta integral of degree 2D
    # must stay within M - 1 = 12
    assert stft_symbol(field(R, deg=3), field(lat.K, deg=3)).freq_radius == 6
    with pytest.raises(PrecisionError):
        stft_symbol(field(R, deg=4), field(lat.K, deg=3))  # eta integral would alias
    T = stft_symbol(_trig_symbol(small_env, trial_rng(33, "nan", 0)), small_env.G0)
    bad = T.values.copy()
    bad[(-1,) * bad.ndim] = np.nan  # in the last lattice shift's slab only
    with pytest.raises(DomainError, match="non-finite"):
        SymbolTransform(lat, tor, T.m_radius, T.freq_radius, bad)


def test_symbol_transform_plancherel_2d():
    env2 = Environment(LatticeSpec(2, 1, 3), TorusGrid(2, 7))
    lat, tor = env2.lattice, env2.torus
    rng = trial_rng(29, "symbol-2d", 0)
    F = _trig_symbol(env2, rng)
    G0 = env2.G0
    T = stft_symbol(F, G0)
    lhs = math.sqrt(tor.weight**2 * float((np.abs(T.values) ** 2).sum()))
    rhs = field_lp_norm(F, 2.0) * field_lp_norm(G0, 2.0)
    assert abs(lhs - rhs) <= 1e-10 * rhs


ORACLE_GRIDS = [(LatticeSpec(1, 8), TorusGrid(1, 49)), (LatticeSpec(2, 1, 3), TorusGrid(2, 7))]


def _symbol_oracle_inputs(lat, tor):
    """A random trigonometric symbol and two windows: the symbol window and an odd one."""
    envx = Environment(lat, tor)
    rng = trial_rng(32, "symbol-oracle", 0)
    F = _trig_symbol(envx, rng)
    # the symbol window is even in the torus variable; a random window is not,
    # so it also tells the torus shift G(u, eta - omega) from G(u, omega - eta)
    d = max(1, lat.K // 2)
    coefs = _crandn(rng, (2 * lat.K + 1,) * lat.n + (2 * d + 1,) * lat.n)
    odd = PhaseSpaceField(
        lat, tor, lat.K, coefficients_to_values(coefs, tor, d), degree_bound=d
    )
    return F, (envx.G0, odd)


@pytest.mark.parametrize("lat,tor", ORACLE_GRIDS)
def test_symbol_transform_matches_direct_oracle(lat, tor):
    F, windows = _symbol_oracle_inputs(lat, tor)
    for G in windows:
        T = stft_symbol(F, G)
        assert _rel_err(T.values, direct_symbol_oracle(F, G, T.freq_radius)) <= 1e-12


@pytest.mark.parametrize("lat,tor", ORACLE_GRIDS)
def test_symbol_norm_matches_direct_oracle(lat, tor):
    # the streaming norm against the same norm taken over the oracle's array
    F, windows = _symbol_oracle_inputs(lat, tor)
    w = tor.weight**2
    for G in windows:
        a = np.abs(direct_symbol_oracle(F, G, F.degree_bound + G.degree_bound))
        for p in (1.0, 1.5, 2.0, math.inf):
            want = a.max() if p == math.inf else (w * (a**p).sum()) ** (1 / p)
            got = symbol_modulation_norm(F, G, p)
            assert abs(got - want) <= 1e-12 * want, p


# one interior (deg F, deg G) pair with deg G > deg F per small grid, then
# two grids with M < 2K + 1, where a trimmed window range u is longer than M
# and the lattice frequency xi aliases j = m + u with m + u + M
EDGE_GRIDS = [g + (d,) for g, d in zip(SMALL_GRIDS, [(1, 3), (1, 2)])] + [
    (LatticeSpec(1, 3), TorusGrid(1, 5), (1, 1)),
    (LatticeSpec(2, 2), TorusGrid(2, 3), (0, 1)),
]


@pytest.mark.parametrize("lat,tor,interior", EDGE_GRIDS)
def test_symbol_transform_at_the_edges_of_the_coefficient_window(lat, tor, interior):
    # D = deg F + deg G at its largest, (M - 1)/2, with all of it in one of
    # the two fields, and an interior split with deg G > deg F: the windows
    # over F's coefficients reach the zero padding on both sides
    h = (tor.M - 1) // 2
    rng = trial_rng(40, "symbol-edges", 0)
    w = tor.weight**2

    def field(radius, deg):
        coefs = _crandn(rng, (2 * radius + 1,) * lat.n + (2 * deg + 1,) * lat.n)
        vals = coefficients_to_values(coefs, tor, deg)
        return PhaseSpaceField(lat, tor, radius, vals, degree_bound=deg)

    for dF, dG in [(0, h), (h, 0), interior]:
        F, G = field(2 * lat.K, dF), field(lat.K, dG)
        want = direct_symbol_oracle(F, G, dF + dG)
        assert _rel_err(stft_symbol(F, G).values, want) <= 1e-12, (dF, dG)
        a = np.abs(want)
        for p in (1.0, 2.0, math.inf):
            norm = a.max() if p == math.inf else (w * (a**p).sum()) ** (1 / p)
            assert abs(symbol_modulation_norm(F, G, p) - norm) <= 1e-12 * norm, (dF, dG, p)
