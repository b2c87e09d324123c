import itertools
import math

import numpy as np
import pytest

from tflocal import (
    DomainError,
    LatticeSpec,
    PhaseSpaceField,
    PrecisionError,
    RangeError,
    TorusGrid,
    convolve_phase_space,
    eq5,
    holder_pairing,
    luxemburg,
    mixed_norm,
    mixed_norm_swapped,
    orlicz_norm,
    power,
)
from tflocal import orlicz
from tflocal.lattice import coefficients_to_values
from tflocal.orlicz import field_lp_norm
from tflocal.verify import (
    _crandn,
    _rank_one_symbol,
    _trig_symbol,
    trial_rng,
)
from tflocal.young import YoungFunction, conjugate_table, quasi_young


def _flat_conjugate():
    """A tabulated conjugate that vanishes near 0 and is 2y - 1 on [1/2, 1].

    It is Psi of the table through (1, 1/4), (2, 1) and (4, 4), whose first
    slope is 1/4, so Psi(y) = 0 up to y = 1/4; past its last node, 1, it
    extends with slope 3/2.
    """
    return conjugate_table(conjugate_table(power(2), 1.0, 4.0, nodes=3), 0.125, 1.0, nodes=4)


def lux_oracle(vals, weight, phi, iters=200):
    """Independent scalar bisection on the modular, for cross-checking."""
    vals = np.abs(np.asarray(vals, float))
    if vals.max(initial=0.0) == 0.0:
        return 0.0

    def modular(b):
        with np.errstate(all="ignore"):
            return float((weight * phi(vals / b)).sum())

    hi = float(weight * vals.sum() + vals.max())
    while modular(hi) > 1.0:
        hi *= 2.0
    lo = hi
    while modular(lo) < 1.0:
        hi, lo = lo, lo / 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if modular(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def test_luxemburg_zero_and_pythagoras():
    assert luxemburg(np.zeros(5), 1.0, power(2)) == 0.0
    assert luxemburg(np.zeros(0), 1.0, power(2)) == 0.0  # empty sum
    got = luxemburg(np.array([3.0, 4.0]), 1.0, power(2))
    assert abs(got - 5.0) <= 1e-9 * 5.0


def test_luxemburg_eq5_atom():
    phi = eq5()
    got = luxemburg(np.array([1.0]), 1.0, phi)
    analytic = 1.0 / math.sqrt(1.0 - math.exp(-3) / 2)
    assert abs(got - analytic) <= 1e-9 * analytic
    oracle = lux_oracle(np.array([1.0]), 1.0, phi)
    assert abs(got - oracle) <= 1e-9 * oracle


def _assert_bracket(v, weight, phi, norms):
    """G(b(1+eps)) <= 1 <= G(b(1-eps)) on every row, eps = 1e-12 (b = 0 only for 0 rows)."""
    eps = 1e-12
    for row, b in zip(v, norms):
        if b == 0.0:
            assert not row.any()
            continue
        up = weight * float(phi(row / (b * (1 + eps))).sum())
        dn = weight * float(phi(row / (b * (1 - eps))).sum())
        assert up <= 1.0 <= dn


def test_luxemburg_bracket_property(env, monkeypatch):
    rng = trial_rng(5, "lux-bracket", 0)
    psi = conjugate_table(eq5())
    quasi = quasi_young(eq5(), 0.75)
    assert quasi.finite
    for phi in (power(1.5), power(3), eq5(), psi, quasi):
        v = np.abs(rng.standard_normal(40)) + 0.01
        _assert_bracket(v[None], 1.0, phi, [luxemburg(v, 1.0, phi)])
    # a table that vanishes near 0: the norm is 0.9, where 3 Psi(0.5 / b) = 1
    flat = _flat_conjugate()
    v = np.array([0.5, 0.5, 0.5])
    b = luxemburg(v, 1.0, flat)
    assert abs(b - 0.9) <= 1e-12 * 0.9
    _assert_bracket(v[None], 1.0, flat, [b])
    # every row of every batched solve: the inner rows of both mixed norms
    # (one norm per torus node, resp. per lattice point) and the outer solve
    solves = []
    solver = orlicz._lux_batched

    def spy(v, weight, phi):
        norms = solver(v, weight, phi)
        solves.append((v, weight, phi, norms))
        return norms

    monkeypatch.setattr(orlicz, "_lux_batched", spy)
    F = _trig_symbol(env, rng)
    for phi1, phi2 in ((eq5(), psi), (psi, quasi), (quasi, power(2))):
        mixed_norm(F, phi1, phi2)
        mixed_norm_swapped(F, phi1, phi2)
    assert len(solves) == 12
    for v, weight, phi, norms in solves:
        _assert_bracket(v, weight, phi, norms)


def test_luxemburg_evaluation_budget(monkeypatch):
    # power, eq5 and the psi table take a direct root and its two-sided
    # certificate (power sums its modular once more to form the root; the
    # Newton roots evaluate no Young function); bisection from the ends of
    # the double range to the same 1e-12 bracket takes 54 evaluations
    calls = []
    evaluate = YoungFunction._eval

    def counting(self, t):
        calls.append(self.kind)
        return evaluate(self, t)

    v = np.abs(trial_rng(15, "lux-budget", 0).standard_normal(33))
    phis = (eq5(), conjugate_table(eq5()), power(2))
    monkeypatch.setattr(YoungFunction, "_eval", counting)
    for phi in phis:
        calls.clear()
        luxemburg(v, 1.0, phi)
        assert 0 < len(calls) <= (3 if phi.kind in ("power", "eq5") else 12), (phi.kind, len(calls))
    # t^0.05 is concave, and a quasi row takes its base's root on v^p; the
    # norm of four ones at weight 1/4 is 1
    for a in (0.05, 0.2):
        calls.clear()
        assert luxemburg(np.ones(4), 0.25, quasi_young(power(1), a)) == pytest.approx(1.0, rel=1e-12)
        assert 0 < calls.count("quasi") <= 12, (a, calls.count("quasi"))


def _solver_kinds():
    return (
        power(1),
        power(1.5),
        power(2),
        power(3),
        eq5(),
        conjugate_table(eq5()),
        quasi_young(eq5(), 0.75),
        # concave, solved through the base
        quasi_young(power(1), 0.05),
        quasi_young(power(2), 0.3),
        # a table that vanishes near 0
        _flat_conjugate(),
    )


def test_luxemburg_rows_are_independent(monkeypatch):
    # a row's result is the same bits whatever rows share its batch, and a
    # batched solve evaluates each row exactly as often as its single solve:
    # converged rows are no longer probed
    sizes = []
    evaluate = YoungFunction._eval

    def counting(self, t):
        sizes.append(t.size)
        return evaluate(self, t)

    rng = trial_rng(17, "lux-rows", 0)
    v = np.abs(rng.standard_normal((8, 30))) * rng.uniform(0.01, 50.0, (8, 1))
    v[3] = 0.0
    v[5, 1:] = 0.0
    monkeypatch.setattr(YoungFunction, "_eval", counting)
    for phi in _solver_kinds():
        sizes.clear()
        batched = orlicz._lux_batched(v, 0.5, phi)
        work = sum(sizes)
        sizes.clear()
        for row, b in zip(v, batched):
            assert orlicz._lux_batched(row[None], 0.5, phi)[0] == b, (phi.kind, phi.p)
        assert work == sum(sizes), (phi.kind, phi.p)
        assert np.array_equal(orlicz._lux_batched(v[::-1].copy(), 0.5, phi), batched[::-1])


def test_power_case_reduction(env):
    rng = trial_rng(6, "lux-power", 0)
    for t in range(10):
        v = np.abs(rng.standard_normal(50))
        for p in (1.0, 1.5, 2.0, 3.0):
            got = luxemburg(v, 1.0, power(p))
            want = float((v**p).sum() ** (1 / p))
            assert abs(got - want) <= 1e-9 * want
    F = _trig_symbol(env, rng)
    w = env.torus.weight
    for p in (1.0, 1.5, 2.0, 3.0):
        got = luxemburg(F.values, w, power(p))
        want = float((w * np.abs(F.values) ** p).sum() ** (1 / p))
        assert abs(got - want) <= 1e-9 * want


def test_luxemburg_cross_oracle():
    # the bisection oracle is the slow path the interpolation step replaced;
    # batched rows, with counting weight and torus-style weight 1/N
    rng = trial_rng(16, "lux-batched-oracle", 0)
    v = np.abs(rng.standard_normal((6, 25))) * rng.uniform(0.01, 50.0, (6, 1))
    v[2, :20] = 0.0  # a sparse row
    for phi in _solver_kinds():
        for weight in (1.0, 1.0 / v.shape[1]):
            norms = orlicz._lux_batched(v, weight, phi)
            for row, b in zip(v, norms):
                want = lux_oracle(row, weight, phi)
                assert abs(b - want) <= 1e-11 * want, (phi.kind, phi.p, weight)


def _spy_fallback(monkeypatch):
    """Record (kind, rows) of every solve that reaches the bisection."""
    fallback = []
    bisect = orlicz._lux_bisect

    def spy(va, weight, phi):
        fallback.append((phi.kind, len(va)))
        return bisect(va, weight, phi)

    monkeypatch.setattr(orlicz, "_lux_bisect", spy)
    return fallback


def _closed_form_cases():
    """(name, rows, weights): the edge cases of the closed-form roots."""
    rng = trial_rng(19, "lux-closed", 0)
    spread = rng.uniform(0.5, 2.0, (2, 40))
    return (
        # the norm under power(1) is 6e-300
        ("tiny norm", np.array([[1.0, 2.0, 3.0]]), (1e-300,)),
        ("zeros", np.array([[0.0, 0, 0, 0], [0, 0, 0, 2], [0, 0.5, 0, 3], [1e-3, 0, 0, 0]]), None),
        # every value on one breakpoint
        ("all equal", np.array([np.full(50, 0.3), np.full(50, 1.0), np.full(50, 7.0)]), None),
        # at weight 1 every value ends in eq5's head -t^2 log t
        ("all head", np.array([np.ones(200), rng.uniform(0.5, 1.0, 200)]), None),
        # one value in eq5's tail t^2 + e^{-3}/2
        ("single atom", np.array([[1.0], [5.0], [1e-3]]), None),
        # |v|^2 and |v|^3 leave the double range unless scaled by the peak
        ("1e+-150", np.vstack([1e150 * spread[0], 1e-150 * spread[1], np.geomspace(1e-150, 1e150, 40)]), None),
    )


@pytest.mark.parametrize("name, v, weights", _closed_form_cases())
def test_luxemburg_closed_form_edge_cases(monkeypatch, name, v, weights):
    # each row certifies on the closed path and agrees with the bisection
    # oracle, at counting weight and at weight 1/N unless the case fixes one
    fallback = _spy_fallback(monkeypatch)
    for weight in weights or (1.0, 1.0 / v.shape[1]):
        for phi in (power(1), power(3), eq5()):
            norms = orlicz._lux_batched(v, weight, phi)
            _assert_bracket(v, weight, phi, norms)
            for row, b in zip(v, norms):
                want = lux_oracle(row, weight, phi)
                assert abs(b - want) <= 1e-11 * want, (name, weight, phi.kind, phi.p)
    assert fallback == [], name


def test_quasi_rows_take_their_base_root(monkeypatch):
    # G under quasi(B, p) at b is G under B at b^p on v^p, so every row takes
    # B's root and certifies at the quasi row, nested quasi functions too
    fallback = _spy_fallback(monkeypatch)
    rng = trial_rng(20, "lux-quasi", 0)
    v = np.abs(rng.standard_normal((4, 30))) * rng.uniform(0.01, 50.0, (4, 1))
    v[1, :25] = 0.0
    bases = (power(1), power(2), eq5(), conjugate_table(eq5()))
    for base in bases + (quasi_young(eq5(), 0.5),):
        for p in (0.05, 0.3, 0.75):
            phi = quasi_young(base, p)
            for weight in (1.0, 1.0 / v.shape[1]):
                norms = orlicz._lux_batched(v, weight, phi)
                for row, b in zip(v, norms):
                    want = lux_oracle(row, weight, phi)
                    assert abs(b - want) <= 1e-11 * want, (base.kind, p, weight)
    assert fallback == []


@pytest.mark.parametrize("skew", [1.0 + 1e-9, math.nan])
def test_luxemburg_certificate_guards_the_closed_form(monkeypatch, skew):
    # direct roots 1e-9 too large, or NaN, fail the certificate on every
    # row; those rows get the bits of the bisection run on them alone, and a
    # batch still evaluates each row as often as its single solve (a quasi
    # row's root is skewed through its base too)
    rng = trial_rng(18, "lux-certificate", 0)
    v = np.abs(rng.standard_normal((6, 30))) * rng.uniform(0.01, 50.0, (6, 1))
    v[2] = 0.0
    v[4, 1:] = 0.0
    live = v.max(axis=1) > 0
    direct, bisect = orlicz._direct_roots, orlicz._lux_bisect
    monkeypatch.setattr(orlicz, "_direct_roots", lambda va, peak, w, phi: skew * direct(va, peak, w, phi))
    fallback = _spy_fallback(monkeypatch)
    sizes = []
    evaluate = YoungFunction._eval

    def counting(self, t):
        sizes.append(t.size)
        return evaluate(self, t)

    monkeypatch.setattr(YoungFunction, "_eval", counting)
    for phi in (power(1), power(2.5), eq5(), conjugate_table(eq5()), quasi_young(eq5(), 0.75)):
        for weight in (1.0, 1.0 / v.shape[1]):
            fallback.clear()
            sizes.clear()
            norms = orlicz._lux_batched(v, weight, phi)
            work = sum(sizes)
            assert fallback == [(phi.kind, live.sum())], (phi.kind, weight)
            with np.errstate(all="ignore"):
                alone = bisect(v[live], weight, phi)
            assert norms[live].tolist() == alone.tolist(), (phi.kind, weight)
            assert not norms[~live].any()
            sizes.clear()
            for row, b in zip(v, norms):
                assert orlicz._lux_batched(row[None], weight, phi)[0] == b
            assert work == sum(sizes), (phi.kind, weight)


def test_luxemburg_rejects_bad_input():
    with pytest.raises(DomainError):
        luxemburg(np.array([np.inf]), 1.0, power(2))
    for weight in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            luxemburg(np.array([1.0]), weight, power(2))


def test_luxemburg_tiny_norm_and_pass_cap(monkeypatch):
    # the norm is 6e-300: the closed form certifies it, and so does the
    # bisection, whose ends span the double range
    v = np.array([1.0, 2.0, 3.0])
    b = luxemburg(v, 1e-300, power(1))
    assert abs(b - 6e-300) <= 1e-12 * 6e-300
    with np.errstate(all="ignore"):
        bisected = orlicz._lux_bisect(v[None], 1e-300, power(1))
    for norm in (b, bisected[0]):
        _assert_bracket(v[None], 1e-300, power(1), [norm])
    # under t^0.001 the root of 50 values lies past the double range: the
    # direct root fails its certificate, and the bisection raises
    fallback = _spy_fallback(monkeypatch)
    fifty = np.abs(trial_rng(21, "lux-range", 0).standard_normal(50))
    with pytest.raises(PrecisionError, match="double range"):
        luxemburg(fifty, 1.0, quasi_young(power(1), 1e-3))
    assert fallback == [("quasi", 1)]
    # with no tolerance no bracket can close, so the cap must raise; an exact
    # direct root would certify at zero width, so every row is sent to the
    # bisection by a candidate that fails
    monkeypatch.setattr(orlicz, "_REL_TOL", 0.0)
    monkeypatch.setattr(orlicz, "_direct_roots", lambda va, peak, weight, phi: np.full(len(va), np.nan))
    for phi in (power(2), eq5(), _flat_conjugate(), quasi_young(eq5(), 0.75)):
        with pytest.raises(PrecisionError, match="64 passes"):
            luxemburg(v, 1.0, phi)


def test_mixed_norms_reject_infinite_inner_function(small_env):
    # t^200 overflows on the probe grid, so it is not finite; the inner solve
    # of either mixed norm must refuse it as luxemburg does
    F = _trig_symbol(small_env, trial_rng(1, "x", 0))
    steep = quasi_young(power(400), 0.5)
    assert not steep.finite
    with pytest.raises(DomainError, match="finite Young function"):
        mixed_norm(F, steep, power(2))
    with pytest.raises(DomainError, match="finite Young function"):
        mixed_norm_swapped(F, power(2), steep)
    with pytest.raises(DomainError, match="finite Young function"):
        orlicz_norm(F, steep)


def test_stacked_mixed_norms_match_single_fields(env):
    # a field's mixed norm has the same bits alone or in a stack, in either
    # stack order, next to fields under other Young functions; the one-field
    # case has the bits of the two plain solves it replaced
    rng = trial_rng(8, "mixed-stack", 0)
    fields = [_trig_symbol(env, rng) for _ in range(3)]
    v = [np.abs(F.values).reshape(F.values.shape[0], -1) for F in fields]
    w = env.torus.weight

    def plain(a, phi1, phi2, swapped):
        if swapped:
            return luxemburg(orlicz._lux_batched(a, w, phi2), 1.0, phi1)
        return luxemburg(orlicz._lux_batched(a.T.copy(), 1.0, phi1), w, phi2)

    kinds = _solver_kinds()
    for i, phi in enumerate(kinds):
        other = kinds[(i + 1) % len(kinds)]
        for order in (slice(None), slice(None, None, -1)):
            stack, Fs = v[order], fields[order]
            phi1s, phi2s = [phi, other, phi][order], [other, phi, phi][order]
            for swapped, single in ((False, mixed_norm), (True, mixed_norm_swapped)):
                got = orlicz._mixed_norms(stack, w, phi1s, phi2s, swapped=swapped)
                want = [single(F, a, b) for F, a, b in zip(Fs, phi1s, phi2s)]
                assert got.tolist() == want, (phi.kind, phi.p, swapped)
                ref = [plain(a, b, c, swapped) for a, b, c in zip(stack, phi1s, phi2s)]
                assert want == ref, (phi.kind, phi.p, swapped)


def test_mixed_norm_power_oracle(env):
    rng = trial_rng(8, "mixed-oracle", 0)
    F = _trig_symbol(env, rng)
    a = np.abs(F.values)
    for p, q in ((1.5, 3.0), (2.0, 2.0), (3.0, 1.5)):
        got = mixed_norm(F, power(p), power(q))
        want = float(((((a**p).sum(axis=0)) ** (q / p)).mean()) ** (1 / q))
        assert abs(got - want) <= 1e-9 * want
        got_sw = mixed_norm_swapped(F, power(p), power(q))
        inner_m = (a**q).mean(axis=1) ** (1 / q)
        want_sw = float((inner_m**p).sum() ** (1 / p))
        assert abs(got_sw - want_sw) <= 1e-9 * want_sw


def test_mixed_norm_separable(env):
    # F(m, w) = a(m) b(w) with b >= 0 splits into a product of norms.
    lat, tor = env.lattice, env.torus
    R = 2 * lat.K
    a = np.exp(-np.linspace(-2, 2, 2 * R + 1) ** 2)
    b = 1.5 + np.cos(2 * np.pi * np.arange(tor.M) / tor.M)
    F = PhaseSpaceField(
        lat, tor, R, np.multiply.outer(a, b).astype(complex), degree_bound=1
    )
    phi, psi = eq5(), power(2)
    na = luxemburg(a, 1.0, phi)
    nb = luxemburg(b, tor.weight, psi)
    assert abs(mixed_norm(F, phi, psi) - na * nb) <= 1e-9 * na * nb
    # swapped variant: the first function measures the lattice factor, the
    # second the torus factor
    na2 = luxemburg(a, 1.0, psi)
    nb2 = luxemburg(b, tor.weight, phi)
    got = mixed_norm_swapped(F, psi, phi)
    assert abs(got - na2 * nb2) <= 1e-9 * na2 * nb2


def test_zero_fields(env):
    lat, tor = env.lattice, env.torus
    Z = PhaseSpaceField(
        lat, tor, 2 * lat.K, np.zeros((4 * lat.K + 1, tor.M), complex), degree_bound=0
    )
    assert mixed_norm(Z, power(2), power(2)) == 0.0
    assert mixed_norm_swapped(Z, power(2), power(2)) == 0.0
    assert orlicz_norm(Z, eq5()) == 0.0
    assert holder_pairing(Z, Z) == 0.0


def test_field_lp_norm_exponents(env):
    F = _trig_symbol(env, trial_rng(40, "lp-exponent", 0))
    a = np.abs(F.values)
    assert field_lp_norm(F, math.inf) == a.max()
    for p in (math.nan, -math.inf, 0.5, 0.0, -2.0):
        with pytest.raises(DomainError, match="exponent"):
            field_lp_norm(F, p)


def test_convolution_torus_mean(env):
    # unit mass at m = 0, constant in w: convolution takes torus means
    lat, tor = env.lattice, env.torus
    rng = trial_rng(9, "conv-mean", 0)
    G = _trig_symbol(env, rng)
    R = G.m_radius
    ind = np.zeros((2 * R + 1, tor.M), complex)
    ind[R, :] = 1.0
    F = PhaseSpaceField(lat, tor, R, ind, degree_bound=0)
    H = convolve_phase_space(F, G)
    means = G.values.mean(axis=1)
    mid = H.m_radius
    for i, m in enumerate(range(-R, R + 1)):
        assert np.allclose(H.values[m + mid], means[i], atol=1e-12)


def test_convolution_dirichlet_reproduces(env):
    # a full-degree Dirichlet slice at m = 0 reproduces fields of that degree
    lat, tor = env.lattice, env.torus
    rng = trial_rng(10, "conv-dirichlet", 0)
    G = _trig_symbol(env, rng)
    deg = G.degree_bound
    ds = np.arange(-deg, deg + 1)
    js = np.arange(tor.M)
    dirichlet = np.exp(2j * np.pi * np.outer(js, ds) / tor.M).sum(axis=1)
    F = PhaseSpaceField(
        lat,
        tor,
        0,
        dirichlet.reshape((1, tor.M)),
        degree_bound=deg,
    )
    H = convolve_phase_space(F, G)
    assert H.m_radius == G.m_radius
    assert np.allclose(H.values, G.values, atol=1e-10 * np.abs(G.values).max())


def test_convolution_zero(env):
    lat, tor = env.lattice, env.torus
    Z = PhaseSpaceField(lat, tor, 1, np.zeros((3, tor.M), complex), degree_bound=0)
    H = convolve_phase_space(Z, Z)
    assert not np.any(H.values)


def test_convolution_range_error(env):
    lat, tor = env.lattice, env.torus
    big = PhaseSpaceField(
        lat, tor, lat.C, np.zeros((2 * lat.C + 1, tor.M), complex), degree_bound=0
    )
    bigger = PhaseSpaceField(
        lat, tor, lat.C + 1, np.zeros((2 * lat.C + 3, tor.M), complex), degree_bound=0
    )
    with pytest.raises(RangeError):
        convolve_phase_space(big, bigger)


def test_coefficient_alias_refusal(env):
    lat, tor = env.lattice, env.torus
    F = PhaseSpaceField(
        lat, tor, 1, np.ones((3, tor.M), complex), degree_bound=tor.M - 1
    )
    with pytest.raises(PrecisionError):
        convolve_phase_space(F, F)


def _direct_convolution(F, G):
    """Loop evaluation of w sum_l sum_x F(l, x) G(m - l, w - x) at every (m, w)."""
    n, M, RF, RG = F.n, F.torus.M, F.m_radius, G.m_radius
    R = RF + RG
    nodes = list(np.ndindex(F.torus.shape))
    out = np.zeros((2 * R + 1,) * n + F.torus.shape, complex)
    for m in itertools.product(range(-R, R + 1), repeat=n):
        for l in itertools.product(range(-RF, RF + 1), repeat=n):
            k = tuple(a - b for a, b in zip(m, l))
            if max(map(abs, k)) > RG:
                continue
            for j in nodes:
                for x in nodes:
                    jx = tuple((a - b) % M for a, b in zip(j, x))
                    Fv = F.values[tuple(a + RF for a in l) + x]
                    Gv = G.values[tuple(a + RG for a in k) + jx]
                    out[tuple(a + R for a in m) + j] += Fv * Gv
    return out * F.torus.weight


@pytest.mark.parametrize("n", [1, 2])
def test_convolution_of_an_exact_pair_matches_the_quadrature_sum(n):
    # deg 3 * deg 1 on M = 5: the integrand's degree 4 = M - 1 is summed
    # exactly, though 2 deg F = 6 exceeds M - 1
    lat, tor = LatticeSpec(n, 1), TorusGrid(n, 5)
    rng = trial_rng(47, "conv-exact-pair", n)

    def field(deg):
        coefs = _crandn(rng, (3,) * n + (2 * deg + 1,) * n)
        vals = coefficients_to_values(coefs, tor, deg)
        return PhaseSpaceField(lat, tor, 1, vals, degree_bound=deg)

    F, G = field(3), field(1)
    H = convolve_phase_space(F, G)
    assert H.degree_bound == 1
    direct = _direct_convolution(F, G)
    assert np.abs(H.values - direct).max() <= 1e-13 * np.abs(direct).max()


def test_holder_pairing_cases(env):
    lat, tor = env.lattice, env.torus
    R = 2 * lat.K
    ones_slice = np.zeros((2 * R + 1, tor.M), complex)
    ones_slice[R, :] = 1.0
    F = PhaseSpaceField(lat, tor, R, ones_slice, degree_bound=0)
    assert abs(holder_pairing(F, F) - 1.0) <= 1e-12
    Z = PhaseSpaceField(lat, tor, R, np.zeros_like(ones_slice), degree_bound=0)
    assert holder_pairing(F, Z) == 0.0
    rng = trial_rng(11, "pairing", 0)
    G = _trig_symbol(env, rng)
    Gn = PhaseSpaceField(
        lat,
        tor,
        G.m_radius,
        G.values / field_lp_norm(G, 2.0),
        degree_bound=G.degree_bound,
    )
    assert abs(holder_pairing(Gn, Gn) - 1.0) <= 1e-10


def test_holder_inequalities_small(env):
    rng_seed = 13
    psi = conjugate_table(eq5())
    for t in range(40):
        rng = trial_rng(rng_seed, "holder-small", t)
        f = np.abs(rng.standard_normal(17))
        g = np.abs(rng.standard_normal(17))
        lhs = float((f * g).sum())
        p = 1.5
        rhs1 = luxemburg(f, 1.0, power(p)) * luxemburg(g, 1.0, power(3.0))
        assert lhs <= rhs1 * (1 + 1e-9)
        rhs2 = 2.0 * luxemburg(f, 1.0, eq5()) * luxemburg(g, 1.0, psi)
        assert lhs <= rhs2 * (1 + 1e-9)


def test_convolution_inequality_small(env):
    psi = power(2)
    for t in range(10):
        rng = trial_rng(14, "conv-small", t)
        F = _trig_symbol(env, rng)
        G = _rank_one_symbol(env, rng)
        H = convolve_phase_space(F, G)
        lhs = mixed_norm(H, eq5(), psi)
        rhs = field_lp_norm(F, 1.0) * mixed_norm(G, eq5(), psi)
        assert lhs <= rhs * (1 + 1e-9)
        lhs2 = orlicz_norm(H, eq5())
        rhs2 = field_lp_norm(F, 1.0) * orlicz_norm(G, eq5())
        assert lhs2 <= rhs2 * (1 + 1e-9)
