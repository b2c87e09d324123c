import ast
import itertools
import pathlib
import re

import numpy as np
import pytest

import tflocal
from tflocal import (
    DomainError,
    LatticeSpec,
    RangeError,
    Signal,
    TorusGrid,
    gabor_atom,
    modulate,
    norm2,
    translate,
)
from tflocal.lattice import block_slices, delta_signal, overlap, signal_from_block, zero_signal
from tflocal.verify import Environment, _random_signal, trial_rng


def test_spec_defaults_and_validation():
    spec = LatticeSpec(1, 8)
    assert spec.C == 24 and spec.side == 49
    with pytest.raises(DomainError):
        LatticeSpec(0, 8)
    with pytest.raises(DomainError):
        LatticeSpec(1, 8, 20)  # C < 3K
    with pytest.raises(DomainError):
        LatticeSpec(1, -1)


def test_signal_validation():
    spec = LatticeSpec(1, 2)
    with pytest.raises(DomainError):
        Signal(spec, np.zeros(5))  # wrong shape
    bad = np.zeros(spec.shape, complex)
    bad[0] = np.nan
    with pytest.raises(DomainError):
        Signal(spec, bad)


def test_admissible_flag():
    spec = LatticeSpec(1, 2)
    assert delta_signal(spec, 2).admissible
    assert not delta_signal(spec, 3).admissible


def test_translate_delta():
    spec = LatticeSpec(1, 2)
    assert np.allclose(translate(delta_signal(spec), 2).values, delta_signal(spec, 2).values)
    f = delta_signal(spec)
    assert np.allclose(translate(f, 0).values, f.values)


def test_translate_two_point():
    # f = d0 + 2 d1 shifted by one becomes d1 + 2 d2
    spec = LatticeSpec(1, 2)
    f = Signal(spec, delta_signal(spec, 0).values + 2 * delta_signal(spec, 1).values)
    want = delta_signal(spec, 1).values + 2 * delta_signal(spec, 2).values
    assert np.array_equal(translate(f, 1).values, want)


def test_translate_range_error():
    spec = LatticeSpec(1, 2)
    with pytest.raises(RangeError):
        translate(delta_signal(spec), 5)


def test_modulate_values():
    spec = LatticeSpec(1, 4)
    d3 = delta_signal(spec, 3)
    assert np.allclose(modulate(d3, 0.5).values, -d3.values)
    f = Signal(spec, np.arange(spec.side).astype(complex))
    assert np.allclose(modulate(f, 0.0).values, f.values)
    d1 = delta_signal(spec, 1)
    assert np.allclose(modulate(d1, 0.25).values, 1j * d1.values)


def test_gabor_atom_cases():
    spec = LatticeSpec(1, 4)
    d0 = delta_signal(spec)
    atom = gabor_atom(d0, 1, 0.25)
    assert np.allclose(atom.values, 1j * delta_signal(spec, 1).values)
    assert np.allclose(gabor_atom(d0, 0, 0.0).values, d0.values)
    g = signal_from_block(spec, np.exp(-np.arange(-4, 5) ** 2).astype(complex))
    assert np.allclose(gabor_atom(g, 0, 0.0).values, g.values)


def test_shift_unitarity_and_composition(env):
    rng = trial_rng(17, "lattice-unitary", 0)
    for t in range(20):
        f = _random_signal(env, rng)
        m = int(rng.integers(-2 * env.lattice.K, 2 * env.lattice.K + 1))
        w = float(rng.uniform())
        assert abs(norm2(translate(f, m)) - norm2(f)) <= 1e-12 * norm2(f)
        assert abs(norm2(modulate(f, w)) - norm2(f)) <= 1e-12 * norm2(f)
    # composition where every shift stays inside the box
    f = _random_signal(env, rng)
    a, b = 3, -5
    lhs = translate(translate(f, a), b)
    rhs = translate(f, a + b)
    assert np.allclose(lhs.values, rhs.values, atol=0)


def test_quadrature_exactness():
    M = 49
    grid = TorusGrid(1, M)
    js = grid.nodes()
    for d in range(-(M - 1), M):
        s = np.exp(2j * np.pi * d * js).sum() / M
        want = 1.0 if d == 0 else 0.0
        assert abs(s - want) <= 1e-12


def test_quadrature_exactness_2d():
    M = 7
    grid = TorusGrid(2, M)
    js = grid.nodes()
    for d1 in (-6, -3, 0, 2, 6):
        for d2 in (-6, -1, 0, 5):
            vals = np.exp(2j * np.pi * (d1 * js[:, None] + d2 * js[None, :]))
            s = vals.sum() * grid.weight
            want = 1.0 if (d1 == 0 and d2 == 0) else 0.0
            assert abs(s - want) <= 1e-12


def test_lexicographic_order_is_row_major():
    spec = LatticeSpec(2, 1, 3)
    f = zero_signal(spec)
    v = f.values.copy()
    v[0 + spec.C, 1 + spec.C] = 1.0  # point (0, 1)
    flat = v.ravel()  # slowest axis first
    assert flat[(0 + spec.C) * spec.side + (1 + spec.C)] == 1.0


def test_n2_shift_unitarity():
    spec = LatticeSpec(2, 1, 3)
    env2 = Environment(spec, TorusGrid(2, 7))
    rng = trial_rng(3, "lattice-2d", 0)
    f = _random_signal(env2, rng)
    g = translate(f, (1, -1))
    assert abs(norm2(g) - norm2(f)) <= 1e-12 * norm2(f)
    h = modulate(f, (0.25, 0.5))
    assert np.allclose(np.abs(h.values), np.abs(f.values))


def test_phases_have_one_owner():
    # every exp(2 pi i ...) of the package is built in lattice.phase_matrix
    # or lattice.modulate; a phase built anywhere else fails here
    allowed = {("lattice.py", "phase_matrix"), ("lattice.py", "modulate")}
    pattern = re.compile(r"2j\s*\*\s*np\.pi")
    offenders = []
    for path in sorted(pathlib.Path(tflocal.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        owners = [
            (node.lineno, node.end_lineno, node.name)
            for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not pattern.search(line):
                continue
            names = {name for lo, hi, name in owners if lo <= lineno <= hi}
            if not any((path.name, name) in allowed for name in names):
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert not offenders, offenders


def test_block_slices():
    spec = LatticeSpec(2, 2)  # C = 6
    assert block_slices(spec, (0, -4)) == (slice(4, 9), slice(0, 5))
    assert block_slices(spec, (1, 0), radius=5) == (slice(2, 13), slice(1, 12))
    with pytest.raises(RangeError):
        block_slices(spec, (0, 5))


@pytest.mark.parametrize("n", [1, 2])
def test_overlap_brute_force(n):
    # membership oracle from explicit index grids: block index i <-> point
    # m - r + i, range index k <-> point k - R; full, partial and empty cases
    for r, R in itertools.product(range(3), range(3)):
        span = R + r + 2
        for m in itertools.product(range(-span, span + 1), repeat=n):
            bsl, rsl = overlap(m, r, R)
            assert all(s.start >= 0 and s.stop >= s.start for s in bsl + rsl), (m, r, R)
            block = np.indices((2 * r + 1,) * n).reshape(n, -1).T
            pts = block + np.array(m) - r
            inside = np.all(np.abs(pts) <= R, axis=1)
            want_b = np.zeros((2 * r + 1,) * n, dtype=bool)
            want_b[tuple(block[inside].T)] = True
            want_r = np.zeros((2 * R + 1,) * n, dtype=bool)
            want_r[tuple((pts[inside] + R).T)] = True
            got_b = np.zeros_like(want_b)
            got_b[bsl] = True
            got_r = np.zeros_like(want_r)
            got_r[rsl] = True
            assert np.array_equal(got_b, want_b) and np.array_equal(got_r, want_r), (m, r, R)
            # the two sides pair the same points, in the same order
            ids = np.arange(want_b.size).reshape(want_b.shape)
            placed = np.full(want_r.shape, -1)
            placed[rsl] = ids[bsl]
            where = placed >= 0
            assert np.array_equal(
                np.argwhere(where) - R, block[placed[where]] + np.array(m) - r
            ), (m, r, R)
