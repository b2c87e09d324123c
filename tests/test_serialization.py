import json
import os
import pkgutil
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import tflocal
from tflocal import (
    DomainError,
    LatticeSpec,
    OperatorKernel,
    PhaseSpaceField,
    Signal,
    TorusGrid,
    UsageError,
    kernel,
    serialization,
)
from tflocal.errors import fmt17
from tflocal._reader import pairs
from tflocal.serialization import (
    _join17,
    dump_field,
    dump_kernel_json,
    dump_kernel_raw,
    dump_signal,
    dump_summary,
    load_field,
    load_kernel_json,
    load_signal,
)
from tflocal.locop import spectrum
from tflocal.verify import Environment, _random_signal, _trig_symbol, trial_rng


def test_fmt17_round_trips():
    for x in (0.1, 1 / 3, 1e-300, 5.0, -0.0, 123456789.123456789, 2**-52):
        assert float(fmt17(x)) == float(x)


def test_every_module_imports_first():
    # the shared validators sit in errors.py, below every other module, so no
    # import order can meet a partially initialized module
    names = [m.name for m in pkgutil.iter_modules(tflocal.__path__)]
    assert {"errors", "locop", "orlicz", "serialization", "young", "verify"} <= set(names)
    root = os.path.dirname(os.path.dirname(tflocal.__file__))
    env = dict(os.environ, PYTHONPATH=root)
    for name in ["tflocal", *(f"tflocal.{m}" for m in names)]:
        proc = subprocess.run(
            [sys.executable, "-c", f"import {name}"], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, (name, proc.stderr)


def test_import_builds_no_formatter_tables():
    # the writer's and the reader's tables are built on first use, the reader is imported
    # on the first read, and nothing imports fractions
    root = os.path.dirname(os.path.dirname(tflocal.__file__))
    code = (
        "import sys, tflocal; "
        "assert 'fractions' not in sys.modules, 'fractions imported'; "
        "tables = tflocal.serialization._tables.cache_info; "
        "assert tables().currsize == 0, 'tables built'; "
        "assert 'tflocal._reader' not in sys.modules, 'reader imported'; "
        "text = '{\"n\": 1, \"K\": 0, \"C\": 0, \"values\": [[0,1.5]]}'; "
        "tflocal.serialization.load_signal(text); "
        "assert tables().currsize == 1, 'no tables for the reader'"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=root), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


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
    lambda v: [[float("nan"), 0]] + v[1:],  # json's NaN and Infinity are not JSON
    lambda v: [[0, float("-inf")]] + v[1:],
]
# numbers JSON's grammar refuses, each put in place of the first 0
_BAD_NUMBERS = [
    "01", "-01", "1.", ".5", "+1", "1e", "1e+", "--1", "1.2.3", "1e5.2", "1e5e3", "0x10", "1_000",
    "-", "e5", "1e-+5", "1-5", "- 1", "1 2", "1e 5", "0\x00",
]
# edits of the list text that keep the count of numbers but break the list of pairs
_BAD_LISTS = [
    lambda t: t[:-1] + ",]",  # [[0,0],...,]
    lambda t: t.replace("],[", "][", 1),  # [[0,0][0,0],...]
    lambda t: t.replace("],[", "] [", 1),
    lambda t: t.replace("],[", "],,[", 1),
    lambda t: t.replace("],[", ",", 1),  # a 4-element pair
    lambda t: t.replace(",", ",,", 1),
    lambda t: "[" + t + "]",  # [[[0,0],...]]
    lambda t: t + "]",
    lambda t: "[," + t[1:],
]


def _with_list(good: dict, key: str, listtext: str) -> str:
    """The file text of `good` with `listtext` as the list under `key`."""
    head = json.dumps({k: v for k, v in good.items() if k != key})
    return f'{head[:-1]}, "{key}": {listtext}}}'


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
    compact = json.dumps(good[key], separators=(",", ":"))
    for tok in _BAD_NUMBERS:
        with pytest.raises(UsageError):
            load(_with_list(good, key, compact.replace("0", tok, 1)))
    for edit in _BAD_LISTS:
        with pytest.raises(UsageError):
            load(_with_list(good, key, edit(compact)))
    for text in (
        "[]",
        "null",
        json.dumps({**good, key: "abc"}),
        "[" * 200_000 + "]" * 200_000,
        json.dumps(good) + " {}",  # trailing data
        json.dumps(good)[:-1],  # no closing brace
    ):
        with pytest.raises(UsageError):
            load(text)


@pytest.mark.parametrize("fmt", sorted(_FILES))
def test_loaders_accept_json_layouts(fmt):
    load, key, good = _FILES[fmt]

    def arr(obj):
        return getattr(obj, "matrix", getattr(obj, "values", None))

    good = {**good, key: [[k + 0.5, -k] for k in range(len(good[key]))]}
    want = arr(load(json.dumps(good)))
    for text in (
        json.dumps(good, indent=1),
        json.dumps(good, indent="\t"),
        json.dumps(dict(reversed(good.items()))),  # the list first
        json.dumps(good, separators=(",", ":")),
        " \r\n" + json.dumps(good).replace("[", "[ \n").replace(",", " ,\t") + "\n\n",
    ):
        assert np.array_equal(arr(load(text)), want)


def test_loaders_keep_json_domain_errors():
    load, key, good = _FILES["signal"]
    with pytest.raises(DomainError):  # 1e400 reads as inf, which a signal refuses
        load(_with_list(good, key, "[[1e400,0]" + ",[0,0]" * 6 + "]"))


def test_kernel_rejects_non_object_provenance():
    load, _, good = _FILES["kernel"]
    with pytest.raises(UsageError):
        load(json.dumps({**good, "provenance": "x"}))


# pins the number format, so a codec rewrite is checked against fixed bytes
GOLDEN_SIGNAL = (
    '{"n": 1, "K": 0, "C": 1, "values": [[0.10000000000000001,0.33333333333333331],'
    "[-0.0,4.9406564584124654e-324],[1.0000000000000001e+300,2.2204460492503131e-16]]}\n"
)


def test_golden_bytes():
    flat = np.array([0.1, 1 / 3, -0.0, 5e-324, 1e300, 2**-52])
    vals = flat.view(np.complex128)
    spec = LatticeSpec(1, 0, 1)
    assert dump_signal(Signal(spec, vals)) == GOLDEN_SIGNAL
    back = load_signal(GOLDEN_SIGNAL).values
    assert np.array_equal(back, vals)
    assert np.array_equal(np.signbit(back.view(np.float64)), np.signbit(flat))
    # the same with -0.0 as an imaginary part
    rev = flat[::-1].copy()
    back = load_signal(dump_signal(Signal(spec, rev.view(np.complex128)))).values
    assert np.array_equal(np.signbit(back.view(np.float64)), np.signbit(rev))

    K = OperatorKernel(spec, TorusGrid(1, 1), np.array([vals, vals[::-1], -vals]))
    payload, _ = dump_kernel_raw(K)
    assert payload == b"".join(struct.pack("<dd", z.real, z.imag) for z in K.matrix.ravel())


def _percent17(flat) -> list:
    """The reference texts: "%.17g", with a negative zero written "-0.0"."""
    return ["-0.0" if t == "-0" else t for t in ("%.17g " * len(flat) % tuple(flat)).split()]


def test_join17_matches_percent_g():
    rng = np.random.default_rng(1717)
    bits = rng.integers(0, 2**64, size=210_000, dtype=np.uint64).view(np.float64)
    subnormal = rng.integers(1, 2**52, size=20_000, dtype=np.uint64).view(np.float64)
    p10 = np.array([float(f"1e{k}") for k in range(-323, 309)])
    switch = np.array([1e-5, 1e-4, 1e16, 1e17])
    ints = rng.integers(-(2**53), 2**53, size=20_000).astype(np.float64)
    flat = np.concatenate(
        [
            bits[np.isfinite(bits)],
            subnormal,
            -subnormal[:100],
            [5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.0, -0.0],
            p10,
            np.nextafter(p10, 0),
            np.nextafter(p10, np.inf),
            switch,
            np.nextafter(switch, 0),
            np.nextafter(switch, np.inf),
            np.ldexp(ints, rng.integers(-1000, 970, size=ints.size)),  # integers x 2^k
            ints[:1000] / 8,
        ]
    )
    assert _join17(flat, pairs=False).split(",") == _percent17(flat.tolist())
    # these lie below a power of ten and round up to it at 17 digits
    for k in (98, 129, 153):
        x = float(f"1e{k}")
        assert int(x) < 10**k
        assert _join17(np.array([x]), pairs=False) == f"1e+{k}"


def test_join17_hands_ties_to_fmt17(monkeypatch):
    # 2^50 + 1/4 = 1125899906842624.25 is an exact tie at 17 digits (round half even)
    taken = []
    monkeypatch.setattr(serialization, "fmt17", lambda x: taken.append(x) or fmt17(x))
    flat = np.array([0.5, 1125899906842624.25, -(1 + 2.0**-17), 0.25])
    assert _join17(flat, pairs=True) == "[0.5,1125899906842624.2],[-1.0000076293945312,0.25]"
    assert taken == [1125899906842624.25, -(1 + 2.0**-17)]
    assert _join17(flat, pairs=False).split(",") == _percent17(flat.tolist())
    # at and next to a power of ten log10 often puts the exponent one off,
    # and y = |x| 10^(16-e) can land a hair below 10^16 (1e20); such values
    # settle without fmt17, except 999999999999999.875, a tie
    p10 = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = np.concatenate([p10, np.nextafter(p10, 0), np.nextafter(p10, np.inf)])
    off = np.floor(np.log10(near)) != [int(f"{x:.25e}".split("e")[1]) for x in near]
    assert off.sum() > 500
    taken.clear()
    assert _join17(near, pairs=False).split(",") == _percent17(near.tolist())
    assert taken == [999999999999999.875]


# fixed and scientific entries, -0.0, subnormals, the tie 2^50 + 1/4, the extremes
GOLDEN_KERNEL = (
    '{"n": 1, "K": 0, "C": 1, "M": 1, "provenance": {"symbol": "golden"}, "matrix": '
    "[[0.10000000000000001,-0.0],[4.9406564584124654e-324,1125899906842624.2],"
    "[1.0000000000000001e-05,10000000000000000],[1e+17,123.5],[-2.4999999999999999e-07,1],"
    "[0,9.9999999999999992e+22],[-1.5,6.0221407599999999e+23],[0.0001,12345678.9],"
    "[-1.7976931348623157e+308,1.4821969375237396e-323]]}\n"
)
GOLDEN_FIELD = (
    '{"n": 1, "K": 0, "C": 1, "m_radius": 1, "M": 3, "degree_bound": 1, "values": '
    "[[0.5,-0.0],[0.33333333333333331,0.66666666666666663],[0.0001,-1.0000000000000001e-05],"
    "[99999.999999999985,3.1415926535897931],[2.5000000000000171e-310,-7],"
    "[1000000000000000.5,0.001],[9.9999999999999991e-05,1.0000000000000001e+300],"
    "[-2.2204460492503131e-16,42],[0.20000000000000001,-0.29999999999999999]]}\n"
)


def test_golden_kernel_and_field_bytes():
    spec = LatticeSpec(1, 0, 1)
    flat = np.array(
        [0.1, -0.0, 5e-324, 1125899906842624.25, 1e-05, 1e16, 1e17, 123.5, -2.5e-07, 1.0,
         0.0, 1e23, -1.5, 6.02214076e23, 0.0001, 12345678.9, -1.7976931348623157e308, 3 * 5e-324]
    )
    K = OperatorKernel(spec, TorusGrid(1, 1), flat.view(np.complex128).reshape(3, 3), {"symbol": "golden"})
    assert dump_kernel_json(K) == GOLDEN_KERNEL
    assert np.array_equal(load_kernel_json(GOLDEN_KERNEL).matrix.view(np.float64).ravel(), flat)
    flat = np.array(
        [0.5, -0.0, 1 / 3, 2 / 3, 1e-4, -1e-5, 99999.999999999985, np.pi, 2.5e-310,
         -7.0, 1e15 + 0.5, 0.001, 9.9999999999999995e-5, 1e300, -(2.0**-52), 42.0, 0.2, -0.3]
    )
    F = PhaseSpaceField(spec, TorusGrid(1, 3), 1, flat.view(np.complex128).reshape(3, 3), degree_bound=1)
    assert dump_field(F) == GOLDEN_FIELD
    back = load_field(GOLDEN_FIELD).values.view(np.float64).ravel()
    assert np.array_equal(back, flat) and np.array_equal(np.signbit(back), np.signbit(flat))


def _percent_dump(spec, key, values, **header) -> str:
    """The writer as it was before the vectorized formatter: one "%.17g" per float."""
    flat = np.ascontiguousarray(values, dtype=np.complex128).view(np.float64).ravel()
    pairs = ",".join(["[%.17g,%.17g]"] * (flat.size // 2)) % tuple(flat.tolist())
    if (np.signbit(flat) & (flat == 0)).any():
        pairs = pairs.replace("[-0,", "[-0.0,").replace(",-0]", ",-0.0]")
    head = "".join(f'"{k}": {v}, ' for k, v in header.items())
    return f'{{"n": {spec.n}, "K": {spec.K}, "C": {spec.C}, {head}"{key}": [{pairs}]}}\n'


def test_writers_match_the_percent_writer(env):
    rng = trial_rng(65, "ser", 0)
    for half in (False, True):  # zeros fill the box outside the block; flip some to -0.0
        f = _random_signal(env, rng, half=half)
        f = Signal(f.spec, f.values * np.where(rng.random(f.values.shape) < 0.5, -1, 1))
        text = dump_signal(f)
        assert text == _percent_dump(f.spec, "values", f.values)
        assert "-0.0" in text
    F = _trig_symbol(env, rng)
    header = dict(m_radius=F.m_radius, M=F.torus.M, degree_bound=F.degree_bound)
    assert dump_field(F) == _percent_dump(F.spec, "values", F.values, **header)
    K = kernel(F, env.window, env.window2)
    prov = json.dumps(K.provenance, sort_keys=True)
    assert dump_kernel_json(K) == _percent_dump(K.spec, "matrix", K.matrix, M=K.torus.M, provenance=prov)
    s = spectrum(K, ps=(1.0, 2.0, float("inf")))
    sv = s.singular_values.tolist()
    old = ",".join(["%.17g"] * len(sv)) % tuple(sv)
    assert dump_summary(s).startswith(f'{{"singular_values": [{old}], ')


def _json_read(text: str, key: str) -> np.ndarray:
    """The reader as it was before the vectorized one: json.loads, then np.array."""
    return np.array(json.loads(text)[key], dtype=np.float64).ravel()


def _bits_corpus(rng) -> np.ndarray:
    """10^5 doubles over every binade, subnormals and the edges of the range."""
    count = 100_000
    sign = rng.integers(0, 2, count, dtype=np.uint64) << np.uint64(63)
    expo = rng.integers(0, 2047, count, dtype=np.uint64) << np.uint64(52)  # 0: subnormal or zero
    mant = rng.integers(0, 2**52, count, dtype=np.uint64)
    edges = [0.0, -0.0, 1.7976931348623157e308, -1.7976931348623157e308, 2.2250738585072014e-308, -2.2250738585072014e-308]
    tiny = np.ldexp(rng.integers(1, 2**20, 1000).astype(np.float64), -1074)  # multiples of 2^-1074
    p10 = np.array([float(f"1e{k}") for k in range(-323, 309)])
    ints = np.array([2.0**53 + 2, 1e22, 1e23, 123456789.0, 2.0**63, 2.0**64])
    flat = np.concatenate([(sign | expo | mant).view(np.float64), edges, tiny, -tiny[:10], p10, np.nextafter(p10, 0), ints])
    return flat[: flat.size // 2 * 2]


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def _check_list(listtext: str) -> np.ndarray:
    """pairs of the file {"values": listtext}, checked against json bit for bit."""
    text = '{"values": ' + listtext + "}"
    got, end = pairs(text, len('{"values": '))
    assert end == len(text) - 1
    want = _json_read(text, "values")
    assert _same_bits(got, want), np.flatnonzero(got.view(np.int64) != want.view(np.int64))[:5]
    return got


def test_reader_matches_json_bit_for_bit():
    flat = _bits_corpus(np.random.default_rng(3317))
    pairs = flat.reshape(-1, 2).tolist()
    writers = {
        "join17": lambda: "[" + _join17(flat, pairs=True) + "]",
        "json": lambda: json.dumps(pairs),
        "json indent": lambda: json.dumps(pairs, indent=2),
        "repr": lambda: "[" + ",".join("[%r,%r]" % tuple(p) for p in pairs) + "]",
        "%.25e": lambda: "[" + ",".join("[%.25e,%.25e]" % tuple(p) for p in pairs) + "]",
        "%.40g": lambda: "[" + ",".join("[%.40g,%.40g]" % tuple(p) for p in pairs) + "]",  # > 19 digits
    }
    for name, write in writers.items():
        assert np.array_equal(_check_list(write()), flat), name  # "%.40g" writes -0.0 as -0


# 19-digit decimals within about 2^-110 of a midpoint between doubles, closer than
# the reader's double-double products are exact: D 5^q = 2^(E-53-q) + small
# (mod 2^(E-52-q)) for q > 0, D 2^(53-E+q) = small (mod 5^-q) for q < 0
_NEAR_MIDPOINTS = [
    "1980551042127802583e-32", "2651997056473401345e-32", "1767998037648934230e-32", "4845101103080072281e-32",
    "3961102084255605166e-32", "3077103065431138051e-32", "9690202206160144562e-32", "8806203187335677447e-32",
    "7922204168511210332e-32", "1704212361014607872e23", "1476244402220175333e23", "1248276443425742794e23",
    "2629165906827022309e23", "2173229989238157231e23", "3339233204479688488e23", "4479072998451851183e23",
    "6101012131282247518e23", "3567201163274121027e23", "7468819884048842752e23", "8178887181701508931e23",
    "8888954479354175110e23", "1370159626234525291e30", "2740319252469050582e30", "2916340984601552191e30",
    "5656660237070602773e30", "5832681969203104382e30",
]


def test_reader_matches_json_on_integers_and_decimals():
    rng = np.random.default_rng(1718)
    ints = [2**53 + 1, 10**22, 10**23, 2**64, 2**64 + 1, 10**19, 10**19 - 1, -(2**63)]
    ints += [int(rng.integers(1, 10)) * 10**k + int(rng.integers(0, 10**k, dtype=np.uint64)) for k in range(18)]
    ints += [-int("9" * k) for k in range(1, 26)] + ["1" + "0" * k for k in range(30)]
    decimals = [
        "9007199254740993", "2.2250738585072011e-308", "1.00000000000000011102230246251565404236316680908203125",
        "0.1e1", "1e0000005", "4.9406564584124654e-324", "2.4703282292062328e-324", "2.4703282292062327e-324",
        "1.7976931348623158e308", "0.30000000000000004", "1E5", "1e+5", "1e-5", "0e0", "-0e-0", "0.000", "1e-400",
    ]
    tokens = [str(i) for i in ints] + decimals + _NEAR_MIDPOINTS
    tokens += ["0"] * (len(tokens) % 2)
    _check_list("[" + ",".join(f"[{a},{b}]" for a, b in zip(tokens[0::2], tokens[1::2])) + "]")
    # -0 is a JSON integer, read as +0.0; -0.0 is a negative zero
    got = _check_list("[[-0,-0.0],[0,-0e5]]")
    assert list(np.signbit(got)) == [False, True, False, True]


@pytest.mark.parametrize("n, K", [(2, 2), (1, 16)])
def test_kernel_load_holds_at_most_five_times_the_text(n, K):
    # json.loads held 7.7 and 5.5 times these texts: a float per number and a list per pair
    env = Environment(LatticeSpec(n, K), TorusGrid(n, 6 * K + 1))
    text = dump_kernel_json(kernel(_trig_symbol(env, trial_rng(67, "ser", n)), env.window, env.window2))
    load_kernel_json(text)  # the tables are built once
    tracemalloc.start()
    try:
        load_kernel_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * len(text), peak / len(text)
