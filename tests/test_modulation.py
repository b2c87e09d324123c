import itertools
import math
import tracemalloc

import numpy as np
import pytest

from tflocal import (
    DomainError,
    LatticeSpec,
    PhaseSpaceField,
    PrecisionError,
    Signal,
    TorusGrid,
    WindowSpec,
    embedding_condition,
    eq5,
    modulate,
    modulation_norm,
    norm2,
    orlicz_modulation_norm,
    power,
    symbol_modulation_norm,
    symbol_window,
    translate,
    window_signal,
)
from tflocal.lattice import delta_signal
from tflocal.orlicz import field_lp_norm, mixed_norm, mixed_norm_swapped
from tflocal.stft import _SymbolShifts, stft, stft_symbol
from tflocal.verify import _random_signal, _trig_symbol, trial_rng


def test_window_builders(env):
    lat = env.lattice
    g = window_signal(WindowSpec("gaussian"), lat)
    assert g.admissible and abs(norm2(g) - 1.0) <= 1e-12
    d = window_signal(WindowSpec("kronecker"), lat)
    assert np.allclose(d.values, delta_signal(lat).values)
    raw = window_signal(WindowSpec("gaussian", width=2.0, normalization="none"), lat)
    assert raw.values[lat.C] == 1.0
    tiny = window_signal(WindowSpec("gaussian"), LatticeSpec(1, 0, 1))
    assert np.allclose(tiny.values, delta_signal(LatticeSpec(1, 0, 1)).values)
    with pytest.raises(DomainError):
        WindowSpec("mystery")
    # a width is read only by the gaussian, so the delta refuses one
    with pytest.raises(DomainError, match="kronecker window takes no width"):
        WindowSpec("kronecker", width=2.0)


def test_delta_windows_at_n2():
    # a delta sits at the origin by default in every dimension, so the
    # kronecker window, the K = 0 gaussian and the K = 0 symbol window exist at n = 2
    for K, kind in ((0, "gaussian"), (1, "kronecker")):
        lat = LatticeSpec(2, K)
        d = window_signal(WindowSpec(kind), lat)
        assert d.values[lat.C, lat.C] == 1.0 and np.count_nonzero(d.values) == 1
    assert symbol_window(LatticeSpec(2, 0), TorusGrid(2, 5)).values.shape == (1, 1, 5, 5)


def test_m2_equals_l2(env):
    rng = trial_rng(31, "m2", 0)
    f = _random_signal(env, rng)
    f = Signal(f.spec, f.values * (5.0 / norm2(f)))
    got = modulation_norm(f, env.window, 2.0, env.torus)
    assert abs(got - 5.0) <= 1e-10 * 5.0


def test_kronecker_window_collapse(env):
    lat, tor = env.lattice, env.torus
    kron = WindowSpec("kronecker")
    d0 = delta_signal(lat)
    assert abs(modulation_norm(d0, kron, math.inf, tor) - 1.0) <= 1e-12
    rng = trial_rng(32, "kron", 0)
    f = _random_signal(env, rng)
    a = np.abs(f.values)
    for p in (1.0, 1.5, 2.0):
        got = modulation_norm(f, kron, p, tor)
        want = float((a**p).sum() ** (1 / p))
        assert abs(got - want) <= 1e-10 * want
    got = modulation_norm(f, kron, math.inf, tor)
    assert abs(got - a.max()) <= 1e-12 * a.max()


def test_orlicz_variants_power_reduction(env):
    rng = trial_rng(33, "variants", 0)
    f = _random_signal(env, rng)
    for p in (1.5, 2.0):
        want = modulation_norm(f, env.window, p, env.torus)
        phi = power(p)
        got = orlicz_modulation_norm(f, env.window, phi, variant="MPhi", torus=env.torus)
        assert abs(got - want) <= 1e-9 * want
        got = orlicz_modulation_norm(
            f, env.window, phi, phi, variant="MPhiPsi", torus=env.torus
        )
        assert abs(got - want) <= 1e-9 * want
        got = orlicz_modulation_norm(
            f, env.window, phi, phi, variant="WPhiPsi", torus=env.torus
        )
        assert abs(got - want) <= 1e-9 * want
    # with phi != psi the variants differ: MPhiPsi is the mixed norm of the
    # transform, WPhiPsi the swapped one (5.3% apart on this signal)
    phi, psi = power(1.5), power(3)
    F = stft(f, env.window, env.torus)
    mixed = orlicz_modulation_norm(f, env.window, phi, psi, variant="MPhiPsi", torus=env.torus)
    swapped = orlicz_modulation_norm(f, env.window, phi, psi, variant="WPhiPsi", torus=env.torus)
    assert mixed == mixed_norm(F, phi, psi)
    assert swapped == mixed_norm_swapped(F, phi, psi)
    assert abs(mixed - swapped) > 0.01 * max(mixed, swapped)
    with pytest.raises(DomainError):
        orlicz_modulation_norm(f, env.window, power(2), variant="MPhiPsi", torus=env.torus)
    assert (
        orlicz_modulation_norm(
            Signal(f.spec, np.zeros_like(f.values)),
            env.window,
            eq5(),
            variant="MPhi",
            torus=env.torus,
        )
        == 0.0
    )


def test_orlicz_norm_between_power_flanks(env):
    # the default Orlicz norm lands near the quadratic norm; report-style check
    rng = trial_rng(34, "flank", 0)
    f = _random_signal(env, rng)
    v = orlicz_modulation_norm(f, env.window, eq5(), variant="MPhi", torus=env.torus)
    assert np.isfinite(v) and v > 0


def test_symbol_norm_identity(env):
    rng = trial_rng(35, "symbol-norm", 0)
    from tflocal.verify import _trig_symbol

    sigma = _trig_symbol(env, rng)
    G0 = env.G0
    got = symbol_modulation_norm(sigma, G0, 2.0)
    want = field_lp_norm(sigma, 2.0) * field_lp_norm(G0, 2.0)
    assert abs(got - want) <= 1e-9 * want
    Z = PhaseSpaceField(
        env.lattice,
        env.torus,
        sigma.m_radius,
        np.zeros_like(sigma.values),
        degree_bound=0,
    )
    assert symbol_modulation_norm(Z, G0, 1.0) == 0.0


def test_symbol_norm_rejects_bad_exponents(small_env):
    sigma = _trig_symbol(small_env, trial_rng(38, "symbol-p", 0))
    for p in (math.nan, -math.inf, 0.5, 0.0, -1.0):
        with pytest.raises(DomainError, match="exponent"):
            symbol_modulation_norm(sigma, small_env.G0, p)
        with pytest.raises(DomainError, match="exponent"):
            modulation_norm(small_env.window, small_env.window, p, small_env.torus)
    # the exponent is checked before the transform's own input checks
    M = sigma.torus.M
    alias = PhaseSpaceField(sigma.spec, sigma.torus, 0, np.ones((1, M)), degree_bound=M - 1)
    with pytest.raises(DomainError, match="exponent"):
        symbol_modulation_norm(alias, small_env.G0, math.nan)


def test_symbol_norm_raises_like_stft_symbol(small_env):
    lat, tor = small_env.lattice, small_env.torus
    R, M = 2 * lat.K, tor.M

    def field(radius, deg=0, value=1.0, torus=tor):
        vals = np.full((2 * radius + 1, torus.M), value, dtype=complex)
        return PhaseSpaceField(lat, torus, radius, vals, degree_bound=deg)

    F = field(R)
    cases = [
        (F, field(R), DomainError),  # window not admissible in the lattice direction
        (F, field(lat.K, torus=TorusGrid(1, M + 2)), DomainError),  # grids differ
        (field(R, deg=4), field(lat.K, deg=3), PrecisionError),  # eta integral aliases
        (field(R, value=1e200), field(lat.K, value=1e200), DomainError),  # overflow
    ]
    # the overflow case runs through the rank-one path: its window is constant
    assert _SymbolShifts(*cases[-1][:2])._factors is not None
    for F_, G_, err in cases:
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(err):
                stft_symbol(F_, G_)
            # p = 2 reduces a slab by a dot product, the others by |.|
            for p in (1.0, 2.0, math.inf):
                with pytest.raises(err):
                    symbol_modulation_norm(F_, G_, p)


def test_symbol_norm_overflow_of_finite_entries_is_inf(small_env):
    # every transform entry is finite (about 6.5e149), but |.|^3 overflows:
    # the norm is inf, and only a non-finite entry raises DomainError
    lat, tor = small_env.lattice, small_env.torus
    R = 2 * lat.K
    vals = np.full((2 * R + 1, tor.M), 1e150, dtype=complex)
    sigma = PhaseSpaceField(lat, tor, R, vals, degree_bound=0)
    assert _SymbolShifts(sigma, small_env.G0)._factors is not None  # the rank-one path
    assert np.isfinite(stft_symbol(sigma, small_env.G0).values).all()
    with np.errstate(over="ignore"):
        assert symbol_modulation_norm(sigma, small_env.G0, 3.0) == math.inf
    assert np.isfinite(symbol_modulation_norm(sigma, small_env.G0, 2.0))
    assert np.isfinite(symbol_modulation_norm(sigma, small_env.G0, math.inf))


def test_symbol_norm_holds_one_slab(env):
    # the whole transform at n=1, K=8, M=49 is 49 x 49 x 49 x 41 complex: 73.6 MiB;
    # at p = 2 Parseval reduces each coefficient product and no 49 x 41 x 49 slab is made
    sigma = _trig_symbol(env, trial_rng(39, "symbol-memory", 0))
    G0 = env.G0
    Rm = sigma.m_radius + G0.m_radius
    D = sigma.degree_bound + G0.degree_bound
    slab = 16 * env.torus.M**2 * (2 * D + 1)
    full = (2 * Rm + 1) * slab
    symbol_modulation_norm(sigma, G0, 2.0)  # fills phase_matrix's cache
    for p, bound in ((1.5, full / 8), (2.0, slab / 4)):
        tracemalloc.start()
        try:
            symbol_modulation_norm(sigma, G0, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (p, peak, bound)


def test_symbol_norm_brute_force_small():
    # naive loop evaluation of the transform and its norm at tiny size
    lat, tor = LatticeSpec(1, 1), TorusGrid(1, 7)
    rng = np.random.default_rng(8)
    R = 2
    vals = np.zeros((2 * R + 1, tor.M), complex)
    vals[R + 1, :] = 1.0  # single lattice-slice indicator
    sigma = PhaseSpaceField(lat, tor, R, vals, degree_bound=0)
    G0 = symbol_window(lat, tor)
    from tflocal.stft import stft_symbol

    T = stft_symbol(sigma, G0)
    D, Rm = T.freq_radius, T.m_radius
    M = tor.M
    acc = 0.0
    for mi, m in enumerate(range(-Rm, Rm + 1)):
        for wi, xii in itertools.product(range(M), range(M)):
            for ki, k in enumerate(range(-D, D + 1)):
                val = 0.0
                for j in range(-R, R + 1):
                    if not -G0.m_radius <= j - m <= G0.m_radius:
                        continue
                    for e in range(M):
                        val += (
                            np.exp(-2j * np.pi * j * xii / M)
                            * np.exp(-2j * np.pi * e * k / M)
                            / M
                            * sigma.values[j + R, e]
                            * np.conj(G0.values[j - m + G0.m_radius, (e - wi) % M])
                        )
                assert abs(val - T.values[mi, wi, xii, ki]) <= 1e-12
                acc += abs(val) ** 2
    brute = math.sqrt(acc / M**2)
    got = symbol_modulation_norm(sigma, G0, 2.0)
    assert abs(got - brute) <= 1e-10 * brute


def test_embedding_examples():
    phi15, phi2 = power(1.5), power(2)
    r = embedding_condition((phi15, phi15), (phi2, phi2), 1.0)
    assert r.holds and abs(r.C - 1.0) <= 1e-12
    r = embedding_condition((eq5(), eq5()), (phi2, phi2), math.exp(-2))
    assert r.holds and r.C <= 0.5 * (1 + 1e-12)
    r = embedding_condition((phi2, phi2), (eq5(), eq5()), math.exp(-2))
    assert not r.holds
    with pytest.raises(DomainError):
        embedding_condition((phi2, phi2), (phi2, phi2), -1.0)


def test_embedding_flanks():
    x0 = math.exp(-2)
    left = embedding_condition((power(1.5),) * 2, (eq5(),) * 2, x0)
    right = embedding_condition((eq5(),) * 2, (power(2),) * 2, x0)
    assert left.holds and right.holds
    # the left-flank constant is max of x^{1/2} |log x| at x0 = e^{-2}
    assert abs(left.C - 2 * math.exp(-1)) <= 1e-9


def test_shift_invariance(env):
    rng = trial_rng(36, "shift-mod", 0)
    K = env.lattice.K
    f = _random_signal(env, rng, half=True)
    tau = 3
    nu = 5 / env.torus.M
    shifted = modulate(translate(f, tau), nu)
    for p in (1.0, 2.0, math.inf):
        a = modulation_norm(f, env.window, p, env.torus)
        b = modulation_norm(shifted, env.window, p, env.torus)
        assert abs(a - b) <= 1e-10 * a
    a = orlicz_modulation_norm(f, env.window, eq5(), variant="MPhi", torus=env.torus)
    b = orlicz_modulation_norm(shifted, env.window, eq5(), variant="MPhi", torus=env.torus)
    assert abs(a - b) <= 1e-10 * a


def test_window_robustness_interval(env):
    rng = trial_rng(37, "robust", 0)
    ratios = []
    for t in range(10):
        f = _random_signal(env, rng)
        a = orlicz_modulation_norm(f, env.window, eq5(), variant="MPhi", torus=env.torus)
        b = orlicz_modulation_norm(f, env.window2, eq5(), variant="MPhi", torus=env.torus)
        ratios.append(a / b)
    R = max(max(ratios), 1.0 / min(ratios))
    assert np.isfinite(R) and R >= 1.0
