"""File formats: signals, phase-space fields, kernels, spectral summaries.

Signal, field and kernel files are JSON objects: the lattice integers n, K
and C, the format's own header, then the array as a flat list of [re, im]
pairs in the lexicographic (slowest axis first) order of the lattice module.
Writers emit every float with 17 significant digits, which round-trips
IEEE-754 doubles (a negative zero is written "-0.0", since JSON reads "-0"
as the integer 0) and keeps files byte-reproducible.  Header integers must
be integral, a malformed file raises UsageError, and a field file without C
(written before C was stored) loads with C = 3K.

Every array writer goes through `_join17`, which gives the bytes of
"%.17g" for each double with numpy, _CHUNK values at a time.  The 17 digits
are the double-double product |x| 10^(16-e), e = floor(log10 |x|), rounded
to an integer; e moves by one where log10 put it off, and %g's rules lay
the digits out (fixed notation for -4 <= e < 17).  A value whose rounding
that product cannot certify (a fraction within 2^-20 of 1/2, an exponent
that does not settle, a value that is not finite) is written by `fmt17`
instead.

Every array reader goes through `_header`: keys and header values are read
by json's scanstring and raw_decode, the list of [re, im] pairs by
`_reader.pairs` in numpy, imported on the first read.  The doubles are
json.loads's, bit for bit.
"""

from __future__ import annotations

import functools
import json
import math
from contextlib import contextmanager
from json.decoder import WHITESPACE, scanstring

import numpy as np

from .errors import UsageError, fmt17, integer
from .lattice import LatticeSpec, PhaseSpaceField, Signal, TorusGrid
from .locop import OperatorKernel, SpectralSummary

__all__ = [
    "dump_signal",
    "load_signal",
    "dump_field",
    "load_field",
    "dump_kernel_json",
    "load_kernel_json",
    "dump_kernel_raw",
    "dump_summary",
]


_CHUNK = 1 << 12  # values formatted at once, which bounds the temporaries
_EMIN, _EMAX = -325, 309  # decimal exponents of doubles, with one to spare each side
_TIE = 2.0**-20  # fractions this close to 1/2 go to fmt17; the reader's certificate margin
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant
_SCI = 21  # layout class of d.ddde+XX; class e + 4 is fixed notation, -4 <= e < 17

_DECODER = json.JSONDecoder()


def _split(a):
    """a = hi + lo with hi and lo of at most 26 significant bits (Dekker)."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _tables():
    """The formatter's tables, built on first use.

    - pow10: 10^(16-e) = (hi + lo) 2^b for e in [_EMIN, _EMAX], as rows hi,
      the two halves of hi and lo, and b.  hi in [1, 2] is the double nearest
      10^(16-e) 2^-b and lo the double nearest the rest, both from exact
      integer quotients (Python rounds int / int correctly);
    - dig4[i]: the 4 ASCII digits of i < 10^4 as a word, zeros4[i] its
      trailing zeros (4 for 0);
    - expo[e - _EMIN]: "e+XX" at bytes 2 to 6 of a word, 0 for fixed e;
    - lay[:, 17 class + nd - 1] for a text of nd significant digits: the
      masks that pick its 18 mantissa bytes from its digits (3 words), its
      digits one byte on (3), a point (3), and its "0.000" prefix (1);
    - the reader's masks: blocks[:, 25 a + b] the bytes [a, b) of a 24-byte
      block (3 words), top[k] the top k bytes of a word.
    """
    hi, lo, b = [], [], []
    for e in range(_EMIN, _EMAX + 1):
        k = 16 - e
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        shift = num.bit_length() - den.bit_length()
        if (num << max(-shift, 0)) < (den << max(shift, 0)):
            shift -= 1
        num, den = num << max(-shift, 0), den << max(shift, 0)
        h = num / den
        p, q = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * q - p * den) / (den * q))
        b.append(shift)
    hi = np.array(hi)
    pow10 = np.array([hi, *_split(hi), lo]), np.array(b, dtype=np.int32)

    i = np.arange(10_000)
    dig4, zeros4 = np.zeros(i.size, np.uint64), np.zeros(i.size, np.uint8)
    for k, d in enumerate((1000, 100, 10, 1)):
        dig4 |= (48 + i // d % 10).astype(np.uint64) << 8 * k
        zeros4 += i % (10 * d) == 0
    expo = [0 if -4 <= e < 17 else int.from_bytes(f"e{e:+03d}".encode(), "little") << 16
            for e in range(_EMIN, _EMAX + 1)]

    e = np.arange(-4, 18)[:, None, None]  # class e + 4; e = 17 stands for every scientific e
    nd = np.arange(1, 18)[None, :, None]
    fixed = e < 17
    keep = np.maximum(nd, np.where(fixed, e + 1, 0))  # digits written
    point = np.where(fixed, e, 0)  # the point follows this digit, or none at -1
    point = np.where((e < 0) | (nd <= point + 1), -1, point)
    c = np.arange(24)  # mantissa byte
    pick = (c < keep) & ((point < 0) | (c <= point))
    moved = (point >= 0) & (c > point + 1) & (c <= keep)
    dot = (point >= 0) & (c == point + 1)
    prefix = [b"\0\0\0" + (b"0." + b"0" * (-1 - k) if k < 0 else b"") for k in range(-4, 18)]
    prefix = [int.from_bytes(t, "little") for t in prefix]
    masks = [
        (byte * m).astype(np.uint8).view("<u8")
        for byte, m in ((0xFF, pick), (0xFF, moved), (ord("."), dot))
    ]
    prefix = np.broadcast_to(np.array(prefix, np.uint64)[:, None, None], (22, 17, 1))
    lay = np.concatenate([*masks, prefix], axis=2).reshape(22 * 17, 10).T.copy()

    a, b = np.arange(25)[:, None, None], np.arange(25)[None, :, None]
    inside = (a <= c) & (c < b)
    blocks = (0xFF * inside).astype(np.uint8).view("<u8").reshape(625, 3).T.copy()
    top = np.array([2**64 - 2 ** (8 * max(8 - k, 0)) for k in range(25)], np.uint64)
    return pow10, dig4, zeros4, np.array(expo, np.uint64), lay, blocks, top


def _scaled(m, ex, e, pow10):
    """floor(y) and y - floor(y) for y = m 2^ex 10^(16-e), in double-double.

    m 10^(16-e) 2^-b is Dekker's exact two-product of m and hi plus the
    rounded m lo; its relative error is about 2^-104, so y, below 10^18,
    is known to within 1e-13.
    """
    hi, hh, hl, lo = pow10[0].take(e - _EMIN, axis=1)
    b = pow10[1][e - _EMIN]
    mh, ml = _split(m)
    p = m * hi
    err = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl
    shift = ex + b
    yh = np.ldexp(p, shift)
    yl = np.ldexp(err + m * lo, shift)
    fh = np.floor(yh)
    r = (yh - fh) + yl
    fr = np.floor(r)
    frac = r - fr
    up = frac == 1.0  # r a hair below an integer, where r - floor(r) rounds to 1
    return fh.astype(np.int64) + fr.astype(np.int64) + up, np.where(up, 0.0, frac)


def _rows(x: np.ndarray) -> np.ndarray:
    """The "%.17g" text of each double of x as a row of 32 bytes.

    The text sits in bytes 2 to 30, where 0 bytes are not part of it: sign,
    "0.000" prefix, 18 mantissa bytes (the digits and a point) and "e+308".
    Bytes 0, 1 and 31 are 0, for separators.  A negative zero is written
    "-0.0".  The row is built as 4 little-endian words.
    """
    pow10, dig4, zeros4, expo, lay = _tables()[:5]
    neg = np.signbit(x)
    ax = np.abs(x)
    zero = ax == 0
    slow = ~np.isfinite(ax)
    a = np.where(zero | slow, 1.0, ax)
    m, ex = np.frexp(a)
    e = np.floor(np.log10(a)).astype(np.int32)
    F, frac = _scaled(m, ex, e, pow10)
    # log10 may put e one off near a power of ten: move it until floor(y)
    # has 17 digits, and leave a value that will not settle to fmt17
    off = (F >= 10**17).astype(np.int32) - (F < 10**16)
    i = np.flatnonzero(off)
    if i.size:
        e[i] += off[i]
        F[i], frac[i] = _scaled(m[i], ex[i], e[i], pow10)
        slow[i[(F[i] < 10**16) | (F[i] >= 10**17)]] = True
    slow |= np.abs(frac - 0.5) < _TIE
    D = F + (frac > 0.5)
    carry = D == 10**17  # rounded up to the next power of ten
    D[carry] = 10**16
    e += carry
    D[zero] = 0
    e[zero] = 0

    lead, rest = np.divmod(D, 10**16)
    hi8, lo8 = np.divmod(rest, 10**8)
    groups = [*np.divmod(hi8, 10**4), *np.divmod(lo8, 10**4)]
    d1, d2, d3, d4 = (dig4[g] for g in groups)
    digits = np.empty((3, x.size), np.uint64)  # byte k of the 3 words is digit k
    digits[0] = (48 + lead).astype(np.uint64) | d1 << 8 | d2 << 40
    digits[1] = d2 >> 24 | d3 << 8 | d4 << 40
    digits[2] = d4 >> 24
    moved = digits << 8
    moved[1:] |= digits[:-1] >> 56
    # significant digits once trailing zeros are stripped: "0" and "-0.0" for zeros
    trailing, run = np.zeros(x.size, np.int64), np.ones(x.size, bool)
    for g in groups[::-1]:
        trailing += run * zeros4[g]
        run &= g == 0
    nd = 17 - trailing + (zero & neg)
    # %g: fixed notation for -4 <= e < 17, else d.ddde+XX
    L = lay.take(17 * np.where((e >= -4) & (e < 17), e + 4, _SCI) + nd - 1, axis=1)

    out = np.empty((4, x.size), "<u8")  # word i of every text
    out[0] = L[9] | neg * np.uint64(ord("-") << 16)
    out[1:] = (digits & L[0:3]) | (moved & L[3:6]) | L[6:9]
    out[3] |= expo[e - _EMIN]
    text = out.T.copy().view(np.uint8)
    for j in np.flatnonzero(slow):
        t = fmt17(x[j]).encode("ascii")
        text[j] = 0
        text[j, 2 : 2 + len(t)] = np.frombuffer(t, np.uint8)
    return text


def _join17(flat: np.ndarray, pairs: bool) -> str:
    """The doubles of `flat` as "%.17g" texts joined by commas, as [re,im] pairs if `pairs`."""
    chunks = []
    for start in range(0, flat.size, _CHUNK):
        text = _rows(flat[start : start + _CHUNK])
        if pairs:  # ",[re," and "im]"
            text[0::2, :2] = (ord(","), ord("["))
            text[0::2, 31] = ord(",")
            text[1::2, 31] = ord("]")
        else:
            text[:, 0] = ord(",")
        if start == 0:
            text[0, 0] = 0  # no comma before the first item
        chunks.append(text.tobytes().translate(None, b"\0"))
    return b"".join(chunks).decode("ascii")


def _dump(spec: LatticeSpec, key: str, values: np.ndarray, **header) -> str:
    """One array file: the n/K/C header, `header` in order, then `key`: pairs."""
    flat = np.ascontiguousarray(values, dtype=np.complex128).view(np.float64).ravel()
    head = "".join(f'"{k}": {v}, ' for k, v in header.items())
    pairs = _join17(flat, pairs=True)
    return f'{{"n": {spec.n}, "K": {spec.K}, "C": {spec.C}, {head}"{key}": [{pairs}]}}\n'


@contextmanager
def _reading(what: str):
    """Report any malformation met while reading a `what` file as a UsageError."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise UsageError(f"malformed {what} file: {exc}") from exc


def _skip(text: str, i: int) -> int:
    return WHITESPACE.match(text, i).end()


def _header(text: str, key: str, C_optional: bool = False) -> tuple[dict, LatticeSpec]:
    """The file's object and its n/K/C lattice; with C_optional a missing C is 3K.

    Keys go through json's scanstring and values through raw_decode, except
    a list under `key`, which `_reader.pairs` reads as a flat float64 array.
    """
    obj = {}
    i = _skip(text, 0)
    if not text.startswith("{", i):
        raise TypeError("expected a JSON object")
    i = _skip(text, i + 1)
    more = not text.startswith("}", i)
    if not more:
        i = _skip(text, i + 1)
    while more:
        if not text.startswith('"', i):
            raise ValueError(f"expected a key at char {i}")
        name, i = scanstring(text, i + 1)
        i = _skip(text, i)
        if not text.startswith(":", i):
            raise ValueError(f"expected ':' at char {i}")
        i = _skip(text, i + 1)
        if name == key and text.startswith("[", i):
            from ._reader import pairs  # compiled on the first read, not with tflocal

            obj[name], i = pairs(text, i)
        else:
            obj[name], i = _DECODER.raw_decode(text, i)
        i = _skip(text, i)
        more = text.startswith(",", i)
        if not (more or text.startswith("}", i)):
            raise ValueError(f"expected ',' or '}}' at char {i}")
        i = _skip(text, i + 1)
    if i != len(text):
        raise ValueError(f"extra data at char {i}")
    n, K = integer(obj["n"], "n"), integer(obj["K"], "K")
    C = None if C_optional and "C" not in obj else integer(obj["C"], "C")
    return obj, LatticeSpec(n, K, C)


def _array(flat, shape: tuple) -> np.ndarray:
    """The flat array `_reader.pairs` read as a complex array of `shape`."""
    count = math.prod(shape)
    if not isinstance(flat, np.ndarray) or flat.size != 2 * count:
        raise UsageError(f"expected {count} [re, im] pairs")
    return flat.view(np.complex128).reshape(shape)


def dump_signal(f: Signal) -> str:
    return _dump(f.spec, "values", f.values)


def load_signal(text: str) -> Signal:
    with _reading("signal"):
        obj, spec = _header(text, "values")
        vals = _array(obj["values"], spec.shape)
    return Signal(spec, vals)


def dump_field(F: PhaseSpaceField) -> str:
    header = dict(m_radius=F.m_radius, M=F.torus.M, degree_bound=F.degree_bound)
    return _dump(F.spec, "values", F.values, **header)


def load_field(text: str) -> PhaseSpaceField:
    with _reading("field"):
        obj, spec = _header(text, "values", C_optional=True)
        torus = TorusGrid(spec.n, integer(obj["M"], "M"))
        r = integer(obj["m_radius"], "m_radius")
        deg = integer(obj["degree_bound"], "degree_bound")
        vals = _array(obj["values"], (2 * r + 1,) * spec.n + torus.shape)
    return PhaseSpaceField(spec, torus, r, vals, degree_bound=deg)


def dump_kernel_json(K: OperatorKernel) -> str:
    prov = json.dumps(K.provenance, sort_keys=True)
    return _dump(K.spec, "matrix", K.matrix, M=K.torus.M, provenance=prov)


def load_kernel_json(text: str) -> OperatorKernel:
    with _reading("kernel"):
        obj, spec = _header(text, "matrix")
        torus = TorusGrid(spec.n, integer(obj["M"], "M"))
        size = spec.side**spec.n
        vals = _array(obj["matrix"], (size, size))
        prov = obj.get("provenance", {})
        if not isinstance(prov, dict):
            raise TypeError(f"provenance must be an object, got {prov!r}")
    return OperatorKernel(spec, torus, vals, prov)


def dump_kernel_raw(K: OperatorKernel) -> tuple[bytes, str]:
    """Raw export: little-endian float64 interleaved re/im plus a JSON sidecar."""
    size = K.spec.side ** K.spec.n
    sidecar = json.dumps({"size": size, "order": "row-major"}, sort_keys=True) + "\n"
    return K.matrix.astype("<c16").tobytes(), sidecar


def dump_summary(summary: SpectralSummary) -> str:
    sv = _join17(summary.singular_values, pairs=False)
    ps = sorted(summary.schatten)
    sch = ",".join(
        f'"{("inf" if math.isinf(p) else fmt17(p))}": {fmt17(summary.schatten[p])}'
        for p in ps
    )
    return (
        "{"
        + f'"singular_values": [{sv}], '
        + f'"trace": [{fmt17(summary.trace.real)},{fmt17(summary.trace.imag)}], '
        + f'"hs_norm": {fmt17(summary.hs_norm)}, '
        + f'"schatten": {{{sch}}}'
        + "}\n"
    )
