import math

import mpmath
import numpy as np
import pytest

from tflocal import (
    DomainError,
    UnboundedError,
    complementary,
    conjugate_table,
    eq5,
    luxemburg,
    power,
    quasi_young,
)
from tflocal.verify import _interp_table
from tflocal.young import EQ5_BREAK, EQ5_TAIL, _eval_eq5, young_from_dict

YSTAR = 2 * math.exp(-1.5)


def conj_eq5_closed(y: float) -> float:
    """Independent closed form: quadratic tail plus a Lambert-W head."""
    if y == 0:
        return 0.0
    if y > YSTAR:
        return y * y / 4 - math.exp(-3) / 2
    t = mpmath.re(mpmath.lambertw(-y * math.sqrt(math.e) / 2, -1)) - mpmath.mpf("0.5")
    x = float(mpmath.e**t)
    return x * y - eq5()(x)


def test_power_eval():
    assert power(2)(3.0) == 9.0
    assert power(1)(0.0) == 0.0
    with pytest.raises(DomainError):
        power(2)(-1.0)
    with pytest.raises(DomainError):
        power(0.5)  # not convex; use quasi_young
    for p in (math.inf, math.nan):  # Phi(2) = inf is no Young function
        with pytest.raises(DomainError, match="finite p >= 1"):
            power(p)


def test_eq5_values():
    phi = eq5()
    x = math.exp(-2)
    assert abs(phi(x) - 2 * math.exp(-4)) <= 1e-15
    # both branches agree at the break point
    head = -EQ5_BREAK**2 * math.log(EQ5_BREAK)
    tail = EQ5_BREAK**2 + EQ5_TAIL
    assert abs(head - 1.5 * math.exp(-3)) <= 1e-16
    assert abs(tail - 1.5 * math.exp(-3)) <= 1e-16
    assert abs(phi(EQ5_BREAK) - 1.5 * math.exp(-3)) <= 1e-15
    assert phi(0.0) == 0.0


def _eq5_where(t: np.ndarray) -> np.ndarray:
    """eq5 as it was written first, head and tail over every value, picked by np.where."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        safe = np.where(t > 0, t, 1.0)
        head = -safe * safe * np.log(safe)
        head = np.where(t > 0, head, 0.0)
        tail = t * t + EQ5_TAIL
    return np.where(t <= EQ5_BREAK, head, tail)


def test_eq5_keeps_the_bits_of_the_where_formula():
    rng = np.random.default_rng(1505)
    edges = [0.0, -0.0, 5e-324, EQ5_BREAK, np.nextafter(EQ5_BREAK, 0), np.nextafter(EQ5_BREAK, 1)]
    edges += [1e154, 1e300, np.inf, np.nan, 1e-160, 1.0]
    t = np.concatenate([edges, np.exp(rng.uniform(math.log(1e-300), math.log(1e300), 100_000))])
    assert np.array_equal(_eval_eq5(t).view(np.int64), _eq5_where(t).view(np.int64))
    assert np.array_equal(_eval_eq5(t.reshape(4, -1)).ravel().view(np.int64), _eq5_where(t).view(np.int64))


def test_eq5_convexity_second_differences():
    phi = eq5()
    xs = np.geomspace(1e-6, 10.0, 512)
    mids = phi((xs[:-1] + xs[1:]) / 2)
    avg = (phi(xs[:-1]) + phi(xs[1:])) / 2
    assert np.all(mids <= avg + 1e-12 * (1 + avg))


def test_complementary_trivial_and_closed_forms():
    for phi in (power(2), power(3), eq5()):
        assert complementary(phi, 0.0) == 0.0
    assert abs(complementary(power(2), 2.0) - 1.0) <= 1e-9
    assert abs(complementary(power(3), 3.0) - 2.0) <= 1e-9


def test_complementary_power2_quarter_square():
    ys = np.geomspace(1e-3, 1e3, 60)
    vals = complementary(power(2), ys)
    assert np.all(np.abs(vals - ys**2 / 4) <= 1e-8 * ys**2 / 4)


def test_complementary_eq5_matches_lambert_w():
    phi = eq5()
    for y in np.geomspace(1e-6, 1e3, 120):
        closed = conj_eq5_closed(float(y))
        got = complementary(phi, float(y))
        assert abs(got - closed) <= 1e-9 * max(closed, 1e-12)


def test_complementary_unbounded_refusal():
    with pytest.raises(UnboundedError):
        complementary(power(1), 2.0)
    # inside the slope range the linear conjugate is fine
    assert complementary(power(1), 0.5) == pytest.approx(0.0, abs=1e-12)


def test_biconjugation_lower_bound():
    for phi in (power(1.5), power(2), power(3), eq5()):
        psi = conjugate_table(phi)
        ts = np.geomspace(1e-3, 1e2, 40)
        second = complementary(psi, ts)
        orig = phi(ts)
        assert np.all(second <= orig * (1 + 1e-6) + 1e-9)


def test_quasi_young():
    base = power(2)
    assert quasi_young(base, 1.0) is base
    half = quasi_young(base, 0.5)
    ts = np.geomspace(1e-3, 1e3, 30)
    assert np.allclose(half(ts), ts)
    q = quasi_young(power(4), 0.5)
    assert np.allclose(q(ts), ts**2)
    with pytest.raises(DomainError):
        quasi_young(base, 0.0)
    with pytest.raises(DomainError):
        quasi_young(base, 1.5)


def test_flags():
    assert quasi_young(power(2), 0.5).finite  # t -> t, convex but not strictly


def test_quasi_overflow_is_not_finite():
    # (t^0.5)^400 = t^200 overflows on the probe grid
    q = quasi_young(power(400), 0.5)
    assert q.finite is False
    with pytest.raises(DomainError, match="finite"):
        luxemburg(np.ones(3), 1.0, q)


def test_table_kind():
    # the conjugate of t^2 is y^2/4, tabulated at 0, 1, 2 and 4
    phi = conjugate_table(power(2), 1.0, 4.0, nodes=3)
    assert phi.kind == "table" and phi.finite
    assert phi.xs.tolist() == [0.0, 1.0, 2.0, 4.0]
    assert phi.ys.tolist() == pytest.approx([0.0, 0.25, 1.0, 4.0], rel=1e-15)
    assert phi(1.0) == phi.ys[1]
    assert phi(3.0) == pytest.approx(2.5, rel=1e-15)  # linear between (2, 1) and (4, 4)
    assert phi(5.0) == pytest.approx(5.5, rel=1e-15)  # linear extension with the last slope
    # equality and hashing compare the node values
    again = conjugate_table(power(2), 1, 4, nodes=3)
    assert again == phi and hash(again) == hash(phi)
    assert phi != conjugate_table(power(2), 1.0, 4.0, nodes=4)
    assert phi != conjugate_table(power(3), 1.0, 4.0, nodes=3)
    assert len({power(2), power(2), eq5(), phi, again}) == 3


def test_table_nodes_read_only_and_exact():
    psi = conjugate_table(eq5())
    for nodes in (psi.xs, psi.ys):
        assert nodes.dtype == np.float64
        with pytest.raises(ValueError):
            nodes[1] = 0.0
    # an independent interpolation over plain lists, extended by the last slope
    xs, ys = list(psi.xs), list(psi.ys)
    mids = [(a + b) / 2 for a, b in zip(xs, xs[1:])]
    t = np.array(xs + mids + [1.5 * xs[-1], 1e3 * xs[-1]])
    slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
    want = np.where(t > xs[-1], ys[-1] + slope * (t - xs[-1]), np.interp(t, xs, ys))
    assert np.array_equal(psi(t), want)


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


@pytest.mark.parametrize("phi", [eq5(), power(1.5), power(3)], ids=["eq5", "p1.5", "p3"])
def test_log_grid_lookup_is_interp_bit_for_bit(phi):
    psi = conjugate_table(phi)
    assert psi.grid is not None  # the O(1) path is the one under test
    xs = psi.xs
    nodes = xs[1:]
    t = np.concatenate(
        (
            np.geomspace(1e-14, 1e14, 300_000),
            xs,
            np.nextafter(nodes, 0.0),
            np.nextafter(nodes, np.inf),
            [0.0, 5e-324, xs[-1], np.nextafter(xs[-1], np.inf), 2 * xs[-1], 1e300],
        )
    )
    with np.errstate(over="ignore"):  # 1e300 overflows past the last node
        assert _same_bits(psi._eval(t), _interp_table(psi, t))
    grid = t[:300_000].reshape(600, 500)  # a 2-D argument keeps its shape
    got = psi(grid)
    assert got.shape == grid.shape and _same_bits(got, _interp_table(psi, grid))
    assert _same_bits(psi(float(xs[7])), psi.ys[7])


def test_small_log_grid_and_other_tables():
    # the fewest nodes conjugate_table accepts still take the O(1) path
    psi = conjugate_table(power(2), 1e-3, 1e3, nodes=2)
    t = np.concatenate((np.geomspace(1e-6, 1e6, 999), psi.xs, [0.0]))
    assert _same_bits(psi._eval(t), _interp_table(psi, t))
    # so do ends one part in 1e12 apart, and a table that vanishes near 0:
    # the conjugate of its table is 0 up to the first slope 1/4
    for other in (
        conjugate_table(power(2), 1.0, 1.0 + 1e-12, nodes=2048),
        conjugate_table(conjugate_table(power(2), 1.0, 4.0, nodes=3), 0.125, 1.0, nodes=4),
    ):
        xs = other.xs
        t = np.concatenate((np.linspace(0.0, 2 * xs[-1], 4001), xs, np.nextafter(xs[1:], 0.0)))
        assert _same_bits(other._eval(t), _interp_table(other, t))
    # the lookup is derived data: equality and hashing ignore it, and it is read-only
    again = conjugate_table(power(2), 1e-3, 1e3, nodes=2)
    assert again == psi and hash(again) == hash(psi)
    for arr in (psi.grid.upper, psi.grid.slopes):
        with pytest.raises(ValueError):
            arr[0] = 1.0


@pytest.mark.parametrize(
    "args",
    [
        (0.0, 1e9, 2048),  # numpy refuses a geometric grid through zero
        (-1.0, 1e9, 2048),
        (1e9, 1e-9, 2048),  # reversed ends
        (1.0, 1.0, 2048),
        (math.nan, 1e9, 2048),
        (1e-9, math.inf, 2048),
        (1e-9, 1e9, 1),  # one positive node
        (1e-9, 1e9, 0),
        (1e-9, 1e9, 2.5),
        (1e-9, 1e9, True),
        (1.0, 1.0 + 1e-13, 2048),  # ends too close to place the nodes
    ],
)
def test_conjugate_table_grid_validation(args):
    with pytest.raises(DomainError, match="conjugate grid"):
        conjugate_table(power(2), *args)


def test_conjugate_table_refuses_non_finite_values():
    # the conjugate of t^100 overflows near the top of the double range, where
    # the probe grid of the validation pass does not reach
    with pytest.raises(UnboundedError, match="overflows"):
        conjugate_table(power(100), 1e-9, 1.7e308, 64)
    assert conjugate_table(power(100), 1e-9, 1e300, 64).finite


def test_non_finite_arguments_are_refused():
    for phi in (power(2), eq5(), quasi_young(power(2), 0.5), conjugate_table(power(2), nodes=64)):
        for bad in (math.nan, math.inf, np.array([1.0, math.nan]), -1.0):
            with pytest.raises(DomainError):
                phi(bad)
    for bad in (math.nan, math.inf, -math.inf, np.array([0.5, math.nan])):
        with pytest.raises(DomainError):
            complementary(power(2), bad)


def test_conjugate_table_majorizes():
    phi = eq5()
    psi = conjugate_table(phi, nodes=512)
    ys = np.geomspace(2e-9, 5e8, 200)
    exact = complementary(phi, ys)
    assert np.all(psi(ys) >= exact * (1 - 1e-9))


def test_young_json_round_trip():
    specs = [
        ({"kind": "power", "p": 2.0}, power(2)),
        ({"kind": "power", "p": 3}, power(3.0)),
        ({"kind": "eq5"}, eq5()),
        ({"kind": "quasi", "p": 0.5, "base": {"kind": "power", "p": 4.0}}, quasi_young(power(4), 0.5)),
        ({"kind": "quasi", "p": 1, "base": {"kind": "eq5"}}, eq5()),  # order 1 is the base
    ]
    for s, want in specs:
        phi = young_from_dict(s)
        assert phi == want and phi(1.25) == want(1.25)
    with pytest.raises(DomainError):
        young_from_dict({"kind": "mystery"})
    # a spec holds exactly its kind's keys: an extra key is never ignored
    for s in (
        {"kind": "eq5", "p": 3},
        {"kind": "power", "p": 2, "typo": 1},
        {"kind": "power", "p": 2, "base": {"kind": "eq5"}},
        {"kind": ["power"], "p": 2},
    ):
        with pytest.raises(DomainError):
            young_from_dict(s)
