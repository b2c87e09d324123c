import json
import struct

import numpy as np
import pytest

from tflocal import LatticeSpec, OperatorKernel, Signal, TorusGrid, UsageError, kernel
from tflocal.serialization import (
    dump_field,
    dump_kernel_json,
    dump_kernel_raw,
    dump_signal,
    dump_summary,
    fmt17,
    load_field,
    load_kernel_json,
    load_signal,
)
from tflocal.locop import spectrum
from tflocal.verify import _random_signal, _trig_symbol, trial_rng


def test_fmt17_round_trips():
    for x in (0.1, 1 / 3, 1e-300, 5.0, -0.0, 123456789.123456789, 2**-52):
        assert float(fmt17(x)) == float(x)


def test_signal_round_trip(env):
    rng = trial_rng(61, "ser", 0)
    f = _random_signal(env, rng)
    text = dump_signal(f)
    g = load_signal(text)
    assert g.spec == f.spec
    assert np.array_equal(g.values, f.values)
    assert dump_signal(g) == text  # byte-stable second pass
    obj = json.loads(text)
    assert set(obj) == {"n", "K", "C", "values"}


def test_field_round_trip(env):
    rng = trial_rng(62, "ser", 0)
    F = _trig_symbol(env, rng)
    text = dump_field(F)
    G = load_field(text)
    assert G.spec == F.spec and G.torus == F.torus
    assert G.m_radius == F.m_radius and G.degree_bound == F.degree_bound
    assert np.array_equal(G.values, F.values)
    assert dump_field(G) == text
    obj = json.loads(text)
    assert set(obj) == {"n", "K", "C", "m_radius", "M", "degree_bound", "values"}


def test_field_without_C_loads_with_default_radius(env):
    # field files written before C was stored
    F = _trig_symbol(env, trial_rng(62, "ser", 1))
    obj = json.loads(dump_field(F))
    del obj["C"]
    G = load_field(json.dumps(obj))
    assert G.spec == LatticeSpec(F.spec.n, F.spec.K) and G.spec.C == 3 * F.spec.K
    assert np.array_equal(G.values, F.values)


def test_kernel_round_trips(env):
    rng = trial_rng(63, "ser", 0)
    K = kernel(_trig_symbol(env, rng), env.window, env.window2)
    text = dump_kernel_json(K)
    K2 = load_kernel_json(text)
    assert np.array_equal(K2.matrix, K.matrix)
    assert K2.provenance == K.provenance

    payload, sidecar = dump_kernel_raw(K)
    meta = json.loads(sidecar)
    size = meta["size"]
    assert meta["order"] == "row-major"
    assert len(payload) == 2 * size * size * 8
    arr = np.frombuffer(payload, dtype="<f8")
    mat = (arr[0::2] + 1j * arr[1::2]).reshape(size, size)
    assert np.array_equal(mat, K.matrix)


def test_summary_output(env):
    rng = trial_rng(64, "ser", 0)
    K = kernel(_trig_symbol(env, rng), env.window, env.window)
    s = spectrum(K, ps=(1.0, 2.0, float("inf")))
    text = dump_summary(s)
    obj = json.loads(text)
    assert set(obj) == {"singular_values", "trace", "hs_norm", "schatten"}
    assert set(obj["schatten"]) == {"1", "2", "inf"}
    assert obj["singular_values"] == sorted(obj["singular_values"], reverse=True)


def test_malformed_inputs():
    with pytest.raises(UsageError):
        load_signal("not json")
    with pytest.raises(UsageError):
        load_signal('{"n": 1, "K": 1}')
    with pytest.raises(UsageError):
        load_field('{"n": 1, "K": 1, "m_radius": 1, "M": 7, "degree_bound": 0, "values": [[0, 0]]}')
    with pytest.raises(UsageError):
        load_kernel_json('{"n": 1}')


# the smallest valid file of each format at n=1, K=1, C=3 (7 lattice points)
_FILES = {
    "signal": (load_signal, "values", {"n": 1, "K": 1, "C": 3, "values": [[0, 0]] * 7}),
    "field": (
        load_field,
        "values",
        {"n": 1, "K": 1, "C": 3, "m_radius": 1, "M": 7, "degree_bound": 0, "values": [[0, 0]] * 21},
    ),
    "kernel": (
        load_kernel_json,
        "matrix",
        {"n": 1, "K": 1, "C": 3, "M": 7, "provenance": {}, "matrix": [[0, 0]] * 49},
    ),
}

_BAD_HEADERS = [("K", 2.7), ("n", True), ("C", "24")]
_BAD_PAIRS = [
    lambda v: v[1:],  # one pair short
    lambda v: v + [[0, 0]],  # one pair over
    lambda v: [[0, 0, 0]] + v[1:],  # a 3-element pair
    lambda v: [[10**400, 0]] + v[1:],  # an integer too large for a float
]


@pytest.mark.parametrize("fmt", sorted(_FILES))
def test_loaders_reject_malformed_files(fmt):
    load, key, good = _FILES[fmt]
    load(json.dumps(good))
    for name, value in _BAD_HEADERS:
        with pytest.raises(UsageError):
            load(json.dumps({**good, name: value}))
    for bad in _BAD_PAIRS:
        with pytest.raises(UsageError):
            load(json.dumps({**good, key: bad(good[key])}))
    for text in ("[]", "null", json.dumps({**good, key: "abc"})):
        with pytest.raises(UsageError):
            load(text)


def test_kernel_rejects_non_object_provenance():
    load, _, good = _FILES["kernel"]
    with pytest.raises(UsageError):
        load(json.dumps({**good, "provenance": "x"}))


# pins the number format, so a codec rewrite is checked against fixed bytes
GOLDEN_SIGNAL = (
    '{"n": 1, "K": 0, "C": 1, "values": [[0.10000000000000001,0.33333333333333331],'
    "[-0,4.9406564584124654e-324],[1.0000000000000001e+300,2.2204460492503131e-16]]}\n"
)


def test_golden_bytes():
    vals = np.array([0.1, 1 / 3, -0.0, 5e-324, 1e300, 2**-52]).view(np.complex128)
    spec = LatticeSpec(1, 0, 1)
    assert dump_signal(Signal(spec, vals)) == GOLDEN_SIGNAL
    # JSON reads "-0" as the integer 0, so the sign of -0.0 is not compared
    assert np.array_equal(load_signal(GOLDEN_SIGNAL).values, vals)

    K = OperatorKernel(spec, TorusGrid(1, 1), np.array([vals, vals[::-1], -vals]))
    payload, _ = dump_kernel_raw(K)
    assert payload == b"".join(struct.pack("<dd", z.real, z.imag) for z in K.matrix.ravel())
