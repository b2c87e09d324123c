import itertools
import math

import numpy as np
import pytest

from tflocal import (
    DomainError,
    LatticeSpec,
    PhaseSpaceField,
    RangeError,
    TorusGrid,
    adjoint_kernel,
    apply_operator,
    inner,
    kernel,
    norm2,
    sigma_tilde,
    spectrum,
    weak_pairing,
)
from tflocal.lattice import delta_signal, gabor_atom
from tflocal.locop import OperatorKernel
from tflocal.verify import (
    REGISTRY,
    Environment,
    _constant_symbol,
    _indicator_symbol,
    _random_signal,
    _rank_one_symbol,
    _trig_symbol,
    trial_rng,
)


def test_apply_identity_and_zero(env):
    sigma = _constant_symbol(env)
    g = env.window
    rng = trial_rng(41, "apply", 0)
    f = _random_signal(env, rng)
    out = apply_operator(sigma, g, g, f)
    assert np.abs(out.values - f.values).max() <= 1e-10 * np.abs(f.values).max()
    zero = _constant_symbol(env, 0.0)
    out = apply_operator(zero, g, g, f)
    assert not np.any(out.values)


def test_apply_delta_window_multiplier(env):
    rng = trial_rng(42, "multiplier", 0)
    sigma = _trig_symbol(env, rng)
    f = _random_signal(env, rng)
    d0 = delta_signal(env.lattice)
    out = apply_operator(sigma, d0, d0, f)
    # with delta windows the operator multiplies pointwise by the torus mean
    means = sigma.values.mean(axis=1)
    want = np.zeros_like(f.values)
    C, R = env.lattice.C, sigma.m_radius
    for k in range(-R, R + 1):
        want[k + C] = f.values[k + C] * means[k + R]
    assert np.abs(out.values - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)


def test_weak_pairing_consistency(env):
    rng = trial_rng(43, "pairing", 0)
    sigma = _trig_symbol(env, rng)
    g1, g2 = env.window, env.window2
    f, h = _random_signal(env, rng), _random_signal(env, rng)
    out = apply_operator(sigma, g1, g2, f)
    wp = weak_pairing(sigma, g1, g2, f, h)
    assert abs(wp - inner(out, h)) <= 1e-12 * max(abs(inner(out, h)), norm2(out) * norm2(h))
    # self pairing gives the squared norm of the output
    wp_self = weak_pairing(sigma, g1, g2, f, out)
    assert abs(wp_self - norm2(out) ** 2) <= 1e-12 * norm2(out) ** 2


def test_weak_pairing_orthogonal_identity_case(env):
    g = env.window
    sigma = _constant_symbol(env)
    d0 = delta_signal(env.lattice)
    d1 = delta_signal(env.lattice, 1)
    assert abs(weak_pairing(sigma, g, g, d0, d1)) <= 1e-10


def test_kernel_identity_hermitian_zero(env):
    lat = env.lattice
    g = env.window
    K = kernel(_constant_symbol(env), g, g)
    idx = np.arange(lat.side).reshape(lat.shape)
    sel = idx[lat.admissible_slices()].ravel()
    block = K.matrix[np.ix_(sel, sel)]
    assert np.abs(block - np.eye(block.shape[0])).max() <= 1e-10

    rng = trial_rng(44, "kernel", 0)
    sig = _trig_symbol(env, rng)
    real_sig = PhaseSpaceField(
        sig.spec,
        sig.torus,
        sig.m_radius,
        sig.values.real.astype(complex),
        degree_bound=sig.degree_bound,
    )
    H = kernel(real_sig, g, g)
    assert H.hermitian_defect() <= 1e-12

    Z = kernel(_constant_symbol(env, 0.0), g, g)
    assert not np.any(Z.matrix)


def test_kernel_matvec_matches_apply(env):
    rng = trial_rng(45, "matvec", 0)
    sigma = _trig_symbol(env, rng)
    g1, g2 = env.window, env.window2
    K = kernel(sigma, g1, g2)
    f = _random_signal(env, rng)
    a = K.matvec(f).values
    b = apply_operator(sigma, g1, g2, f).values
    assert np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1.0)


def test_kernel_rejects_wide_symbols(env):
    lat, tor = env.lattice, env.torus
    wide = PhaseSpaceField(
        lat,
        tor,
        2 * lat.K + 1,
        np.zeros((2 * (2 * lat.K + 1) + 1, tor.M), complex),
        degree_bound=0,
    )
    with pytest.raises(RangeError):
        kernel(wide, env.window, env.window)


def test_adjoint_kernel(env):
    rng = trial_rng(46, "adjoint", 0)
    sigma = _trig_symbol(env, rng)
    g1 = _random_signal(env, rng)
    g2 = _random_signal(env, rng)
    A = kernel(sigma, g1, g2).matrix
    B = adjoint_kernel(sigma, g1, g2).matrix
    assert np.abs(A.conj().T - B).max() <= 1e-12

    g = env.window
    real_sig = PhaseSpaceField(
        sigma.spec,
        sigma.torus,
        sigma.m_radius,
        np.abs(sigma.values).astype(complex),
        degree_bound=env.torus.M - 1,
    )
    K1 = kernel(real_sig, g, g).matrix
    K2 = adjoint_kernel(real_sig, g, g).matrix
    assert np.abs(K1 - K2).max() <= 1e-12

    imag = _constant_symbol(env, 1j)
    Ki = kernel(imag, g, g).matrix
    assert np.abs(Ki.conj().T + Ki).max() <= 1e-12  # anti-Hermitian


def test_spectrum_identity_and_rank_one(env):
    lat = env.lattice
    size = lat.side
    eye = OperatorKernel(lat, env.torus, np.eye(size, dtype=complex))
    s = spectrum(eye, ps=(1.0, 2.0, math.inf))
    assert np.allclose(s.singular_values, 1.0)
    assert abs(s.schatten[1.0] - size) <= 1e-10 * size
    assert abs(s.schatten[2.0] - math.sqrt(size)) <= 1e-12 * math.sqrt(size)
    assert s.schatten[math.inf] == 1.0
    assert abs(s.trace - size) <= 1e-12 * size

    rng = trial_rng(47, "rank-one", 0)
    u = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    K = OperatorKernel(lat, env.torus, np.outer(u, v.conj()))
    s = spectrum(K)
    top = np.linalg.norm(u) * np.linalg.norm(v)
    assert abs(s.singular_values[0] - top) <= 1e-10 * top
    assert np.all(s.singular_values[1:] <= 1e-12 * top)


def test_spectrum_invariants(env):
    rng = trial_rng(48, "spectrum", 0)
    sigma = _trig_symbol(env, rng)
    K = kernel(sigma, env.window, env.window2)
    s = spectrum(K, ps=(1.0, 1.5, 2.0, 3.0, math.inf))
    sv = s.singular_values
    assert abs(s.hs_norm**2 - float((sv**2).sum())) <= 1e-10 * s.hs_norm**2
    assert s.schatten[math.inf] == pytest.approx(sv[0], rel=1e-14)
    vals = [s.schatten[p] for p in (1.0, 1.5, 2.0, 3.0, math.inf)]
    assert all(a >= b * (1 - 1e-12) for a, b in zip(vals, vals[1:]))
    for bad in (0.5, -math.inf, math.nan):
        with pytest.raises(DomainError):
            spectrum(K, ps=(1.0, bad))


def test_trace_identity(env):
    rng = trial_rng(49, "trace", 0)
    sigma = _trig_symbol(env, rng)
    g1, g2 = env.window, env.window2
    K = kernel(sigma, g1, g2)
    mass = complex(env.torus.weight * sigma.values.sum())
    want = inner(g2, g1) * mass
    assert abs(np.trace(K.matrix) - want) <= 1e-10 * abs(want)


def test_positive_symbol_trace_class(env):
    rng = trial_rng(50, "positive", 0)
    for t in range(4):
        sigma = _indicator_symbol(env, rng) if t % 2 else _rank_one_symbol(env, rng, same=True)
        g = env.window
        K = kernel(sigma, g, g).matrix
        sv = np.linalg.svd(K, compute_uv=False)
        eigs = np.linalg.eigvalsh((K + K.conj().T) / 2)
        assert eigs.min() >= -1e-10 * sv[0]
        tr = float(np.trace(K).real)
        mass = env.torus.weight * float(np.abs(sigma.values).sum())
        assert abs(sv.sum() - tr) <= 1e-10 * tr
        assert abs(tr - mass * norm2(g) ** 2) <= 1e-10 * tr


def test_sigma_tilde(env):
    g = env.window
    K, R = env.lattice.K, 2 * env.lattice.K
    st = sigma_tilde(_constant_symbol(env), g)
    # unit diagonal expectations hold wherever the translated atom keeps its
    # mass inside the block on which the operator is the identity; at the
    # outer edge of the symbol range the atoms lose tail mass to truncation
    inner_band = st.values[R - K : R + K + 1]
    assert np.abs(inner_band - 1.0).max() <= 1e-10
    assert st.values.real.max() <= 1.0 + 1e-12  # contraction everywhere
    st = sigma_tilde(_constant_symbol(env, 0.0), g)
    assert not np.any(st.values)
    rng = trial_rng(51, "sigma-tilde", 0)
    st = sigma_tilde(_indicator_symbol(env, rng), g)
    assert st.values.real.min() >= -1e-12
    assert np.abs(st.values.imag).max() <= 1e-12


def test_operator_norm_bounds(env):
    for t in range(6):
        rng = trial_rng(52, "bounds", t)
        sigma = _trig_symbol(env, rng)
        g1 = _random_signal(env, rng)
        g2 = _random_signal(env, rng)
        K = kernel(sigma, g1, g2).matrix
        s1 = float(np.linalg.svd(K, compute_uv=False)[0])
        assert s1 <= float(np.abs(sigma.values).max()) * norm2(g1) * norm2(g2) * (1 + 1e-9)
        a = np.abs(K)
        schur = math.sqrt(float(a.sum(axis=0).max()) * float(a.sum(axis=1).max()))
        assert s1 <= schur * (1 + 1e-9)


def test_two_path_2d():
    from tflocal import LatticeSpec, TorusGrid
    from tflocal.verify import Environment

    env2 = Environment(LatticeSpec(2, 1, 3), TorusGrid(2, 7))
    rng = trial_rng(54, "locop-2d", 0)
    sigma = _trig_symbol(env2, rng)
    g1, g2 = env2.window, env2.window2
    f = _random_signal(env2, rng)
    out = apply_operator(sigma, g1, g2, f)
    K = kernel(sigma, g1, g2)
    assert np.abs(K.matvec(f).values - out.values).max() <= 1e-12 * max(
        np.abs(out.values).max(), 1.0
    )
    h = _random_signal(env2, rng)
    wp = weak_pairing(sigma, g1, g2, f, h)
    assert abs(wp - inner(out, h)) <= 1e-12 * max(abs(inner(out, h)), 1.0)


def test_trace_sandwich_lower_bound(env):
    rng = trial_rng(53, "sandwich", 0)
    sigma = _rank_one_symbol(env, rng, same=True)
    g = env.window
    st = sigma_tilde(sigma, g)
    lhs = env.torus.weight * float(np.abs(st.values).sum())
    sv = np.linalg.svd(kernel(sigma, g, g).matrix, compute_uv=False)
    rhs = norm2(g) ** 2 * float(sv.sum())
    assert lhs <= rhs * (1 + 1e-9)


def direct_kernel_oracle(sigma, g1, g2):
    """K(k, l) = sum_m sum_j w sigma(m, j) g2(k-m) conj(g1(l-m)) e^{2 pi i (k-l).j/M}.

    Accumulates one rank-one update per phase-space node from `gabor_atom`,
    independently of the block assembly in `kernel`.
    """
    torus = sigma.torus
    K = np.zeros((sigma.spec.side**sigma.spec.n,) * 2, dtype=np.complex128)
    for m in sigma.m_points():
        for j in itertools.product(range(torus.M), repeat=sigma.spec.n):
            w = tuple(c / torus.M for c in j)
            a2 = gabor_atom(g2, m, w).values.ravel()
            a1 = gabor_atom(g1, m, w).values.ravel()
            s = torus.weight * sigma.values[sigma.m_index(m) + j]
            K += s * np.outer(a2, np.conj(a1))
    return K


def _rel_gap(a, b):
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


@pytest.mark.parametrize("grid", ["desk", "2d"])
def test_kernel_matches_direct_oracle(env, grid):
    if grid == "2d":
        env = Environment(LatticeSpec(2, 1, 3), TorusGrid(2, 7))
    rng = trial_rng(55, f"oracle-{grid}", 0)
    sigma = _trig_symbol(env, rng)
    g1, g2 = _random_signal(env, rng), env.window2
    assert _rel_gap(kernel(sigma, g1, g2).matrix, direct_kernel_oracle(sigma, g1, g2)) <= 1e-13
    conj = PhaseSpaceField(
        sigma.spec, sigma.torus, sigma.m_radius, np.conj(sigma.values), sigma.degree_bound
    )
    want = direct_kernel_oracle(conj, g2, g1)
    assert _rel_gap(adjoint_kernel(sigma, g1, g2).matrix, want) <= 1e-13

    # sigma_tilde(m, j) = <L a, a> for the atom a = M_{j/M} T_m g: through
    # apply_operator where a is admissible (m = 0), through the oracle elsewhere
    g = g1
    st = sigma_tilde(sigma, g)
    Kgg = direct_kernel_oracle(sigma, g, g)
    R, M, n = sigma.m_radius, env.torus.M, env.lattice.n
    for m, j in [
        ((0,) * n, (0,) * n),
        ((0,) * n, (M - 1,) * n),
        ((R,) * n, (3,) * n),
        ((-R,) + (1,) * (n - 1), (M - 1,) * n),
    ]:
        a = gabor_atom(g, m, tuple(c / M for c in j))
        if any(m):
            av = a.values.ravel()
            want = complex(np.conj(av) @ Kgg @ av)
        else:
            want = inner(apply_operator(sigma, g, g, a), a)
        got = st.values[sigma.m_index(m) + j]
        assert abs(got - want) <= 1e-13 * max(abs(want), norm2(g) ** 2), (m, j)


def test_kernel_n2_k4():
    env4 = Environment(LatticeSpec(2, 4), TorusGrid(2, 25))
    rng = trial_rng(56, "locop-2d-k4", 0)
    sigma = _trig_symbol(env4, rng)
    g1, g2 = env4.window, env4.window2
    K = kernel(sigma, g1, g2)
    assert K.matrix.shape == (625, 625)
    f = _random_signal(env4, rng)
    out = apply_operator(sigma, g1, g2, f).values
    gap = np.abs(K.matvec(f).values - out).max()
    assert gap <= REGISTRY["locop_two_path"].tolerance * max(np.abs(out).max(), 1.0)
    want = inner(g2, g1) * complex(env4.torus.weight * sigma.values.sum())
    tol = REGISTRY["trace_identity"].tolerance
    assert abs(np.trace(K.matrix) - want) <= tol * abs(want)
