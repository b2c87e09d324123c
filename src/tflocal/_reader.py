"""The list reader of array files: [[re, im], ...] as flat float64, in numpy.

`serialization._header` imports this module on its first read, so that
importing tflocal does not compile it.  `pairs` accepts JSON's whitespace
between tokens and checks the layout of the pairs and JSON's number
grammar, _WINDOW bytes of text at a time.  A number of 2 to _LONG bytes is
read as D 10^q, D the integer of its digits, 8 digits a 64-bit word, and
rounded with the writer's double-double pow10; the rounding is certified by
its residual.  What it cannot certify goes to float() one number at a time
(float(int()) for an integer, as json reads one): more than 19 significant
digits or _LONG bytes, an exponent outside the table, a residual near a
midpoint, a subnormal or infinite result.  A one-byte number is its digit.
The doubles are json.loads's, bit for bit.  Anything else raises
ValueError, which the loaders report as UsageError: json's NaN and
Infinity too, which are not JSON.
"""

from __future__ import annotations

import re

import numpy as np

from .serialization import _EMAX, _EMIN, _TIE, _split, _tables

_WS = " \t\n\r"  # JSON's whitespace
_SPACES = re.compile(f"[{_WS}]+")
_GLUED = re.compile(r"[-+.0-9eE][ \t\n\r]+[-+.0-9eE]")  # whitespace inside a number
_NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]+)?")
_WINDOW = 3 << 15  # bytes of a list read at once (at most _WINDOW / 2 numbers)
_PAD = 32  # zero bytes around a window, so that word reads near its ends stay in it
_LONG = 24  # longest number the reader converts itself
_U1, _U2, _U8, _U56, _U64 = (np.uint64(k) for k in (1, 2, 8, 56, 64))
_ONES = np.uint64(2**64 - 1)
_BYTE = np.uint64(0xFF)
_EVEN = np.uint64(0x5555555555555555)  # the even bits: bit 0 of each 2-bit class
_STEPS = np.arange(4)[:, None]
_SWAR = [
    (np.uint64(m), np.uint64(k), np.uint64(s))
    for m, k, s in (
        (0x0F0F0F0F0F0F0F0F, 10 * 2**8 + 1, 8),
        (0x00FF00FF00FF00FF, 100 * 2**16 + 1, 16),
        (0x0000FFFF0000FFFF, 10000 * 2**32 + 1, 32),
    )
]


def pairs(text: str, start: int) -> tuple[np.ndarray, int]:
    """The list of [re, im] pairs at text[start] as flat float64, and the index after it.

    The list ends before the next '"' or '}', less whitespace and a comma.
    JSON's whitespace is dropped first (after checking that none splits a
    number), then the list is read _WINDOW bytes at a time, cut after a
    whole pair.
    """
    end = len(text)
    for c in '"}':
        j = text.find(c, start, end)
        end = end if j < 0 else j
    end = _list_end(text, start, end)
    body, a, b = text, start, end
    if any(text.find(c, a, b) >= 0 for c in _WS):
        body = text[a:b]
        if _GLUED.search(body):
            raise ValueError("numbers must be separated by commas")
        body = _SPACES.sub("", body)
        a, b = 0, len(body)
    if b - a < 2 or body[a] != "[" or body[b - 1] != "]":
        raise ValueError("expected a list of [re, im] pairs")
    chunks, s = [np.empty(0)], a + 1
    while s < b - 1:
        e = b - 1
        if e - s > _WINDOW:
            j = body.rfind("],[", s, s + _WINDOW)
            j = body.find("],[", s, e) if j < 0 else j  # a pair longer than the window
            e = e if j < 0 else j + 1
        chunks.append(_window(body[s:e].encode("ascii")))
        s = e + 1
    return np.concatenate(chunks), end


def _list_end(text: str, start: int, stop: int) -> int:
    """stop less the whitespace and one comma before it."""
    end = stop
    for strip in (_WS, ",", _WS):
        while end > start and text[end - 1] in strip:
            end -= 1
            if strip == ",":
                break
    return end


def _window(raw: bytes) -> np.ndarray:
    """The numbers of `raw`, pairs "[a,b],...,[y,z]" without whitespace, as float64.

    A one-byte number is its digit.  The others are read as D 10^q with D
    the integer of their digits (`_fields`) and rounded by `_scale`; a
    number that neither can certify goes to `_slow`.
    """
    n = len(raw)
    buf = np.zeros((n + 2 * _PAD) & ~7, np.uint8)
    w = buf[_PAD : _PAD + n]
    w[:] = np.frombuffer(raw, np.uint8)
    del raw
    S, E, cls = _tokens(w)
    L = E - S
    first = w.take(S)
    x = first - 48.0
    multi = L > 1
    if ((first - 48 > 9) > multi).any():  # a one-byte number that is not a digit
        raise ValueError("not a JSON number")
    slow = [np.empty(0, np.int64)]
    if L.max() > _LONG:
        slow.append(np.flatnonzero(L > _LONG))
        multi &= L <= _LONG
    m = np.flatnonzero(multi)
    if m.size:
        D, q, neg, uncertain = _fields(buf, cls, S.take(m), L.take(m), first.take(m))
        y, uncertain2 = _scale(D, q)
        np.negative(y, out=y, where=neg)
        x[m] = y
        slow.append(m[uncertain | uncertain2])
    for i in np.concatenate(slow):
        x[i] = _slow(w[S[i] : E[i]].tobytes().decode("ascii"))
    return x


def _tokens(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The numbers' bounds [S, E) in `w` and their bytes' classes, 2 bits a byte.

    Checks the separators: "[" first, a "," inside each pair, "],[" between
    pairs and "]" last; and that every other byte is a digit, ".", "e",
    "E", "+" or "-".  The class of byte i sits at bits 2i, 2i+1 of the
    little-endian `cls`: 1 for ".", 2 for "e" or "E", 3 for a sign, else 0.
    """
    n = w.size
    if w[0] != 91 or w[-1] != 93:  # "[", "]"
        raise ValueError("expected a list of [re, im] pairs")
    t = w - 91  # a scratch array, as `mark` is
    sep = t <= 2  # "[", "\\", "]"; a "\\" fails the checks below
    mark = w == 44  # ","
    commas = np.count_nonzero(mark)
    sep |= mark
    np.not_equal(sep[1:], sep[:-1], out=mark[1:])
    bounds = np.flatnonzero(mark[1:]).reshape(-1, 2)
    bounds += 1
    S, E = bounds.T
    inner, outer = E[0::2], E[1:-1:2]  # the gaps in and between pairs
    if not (
        S.size % 2 == 0 < S.size
        and S[0] == 1
        and E[-1] == n - 1
        and commas == S.size - 1
        and (S[1::2] - inner == 1).all()
        and (S[2::2] - outer == 3).all()
        and (w.take(inner) == 44).all()
        and (w.take(outer) == 93).all()
        and (w.take(outer + 2) == 91).all()
    ):
        raise ValueError("expected a list of [re, im] pairs")
    np.subtract(w, 48, out=t)
    valid = np.count_nonzero(sep) + np.count_nonzero(np.less(t, 10, out=mark))  # digits
    code = np.zeros((n + 4 * _PAD) & ~31, np.uint8)
    dot, sign, expo = code[:n].view(bool), sep, mark
    np.equal(w, 46, out=dot)
    np.subtract(w, 43, out=t)
    np.equal(t & 0xFD, 0, out=sign)  # "+", "-"
    np.equal(np.bitwise_or(w, 32, out=t), 101, out=expo)
    if valid + sum(map(np.count_nonzero, (dot, sign, expo))) != n:
        raise ValueError("not a JSON number")
    dot |= sign
    expo |= sign
    code[:n] |= np.left_shift(expo.view(np.uint8), 1, out=t)
    quads = code.view(np.uint32)  # 4 classes a word, one a byte, packed into its low byte
    quads |= quads >> 6
    quads |= quads >> 12
    return S, E, quads.astype(np.uint8)


def _fields(buf, cls, S, L, first):
    """D, q, the sign and `uncertain` of each number of 2 to _LONG bytes at buf[_PAD + S].

    JSON's grammar is -? int (. frac)? ([eE] [+-]? exp)?, with no leading
    zero in int.  The classes give the point at P, the e at X (-1 if none)
    and the signs; the digit counts ni, nf and ne follow.  The mantissa is
    read as 24 bytes ending at the e, with the bytes before it cleared and
    those before the point moved one on, so that its digits end the block:
    3 words of 8 digits.  `uncertain` marks D >= 10^19 and exponents of
    more than 7 digits.
    """
    C = _read(cls.view(np.uint64), S << 1, 1)[0]
    C &= ~(_ONES << (L << 1).view(np.uint64))
    Dt = C & _EVEN
    Ex = (C >> _U1) & _EVEN
    Sg = Dt & Ex
    Dt ^= Sg
    Ex ^= Sg
    del C
    # at most one point and one e, the point before the e, signs first or after the e
    E1 = Ex - _U1
    bad = Dt & (Dt - _U1)
    bad |= Ex & E1
    bad |= Dt & ~E1
    bad |= Sg & ~(_U1 | Ex << _U2)
    P = (np.frexp(Dt.astype(np.float64))[1] - 1) >> 1
    X = (np.frexp(Ex.astype(np.float64))[1] - 1) >> 1
    del Dt, Ex, E1
    neg = (Sg & _U1).view(np.int64)
    Xm = np.minimum(X.view(np.uint32), L)  # the mantissa's end
    esign = ((Sg >> (Xm.view(np.uint64) << _U1)) >> _U2) & _U1
    del Sg
    ni = np.minimum(P.view(np.uint32), Xm) - neg
    nf = Xm - P - 1  # Xm if there is no point
    point = nf < Xm
    ne = L - Xm - 1 - esign.view(np.int64)
    ok = bad == 0
    ok &= ni > 0
    ok &= nf > 0
    ok &= (ne > 0) | (X < 0)
    ok &= (first == 45) | (neg == 0)  # "-", not "+", first
    ok &= (buf.take(_PAD + S + neg) != 48) | (ni == 1)
    if not ok.all():
        raise ValueError("not a JSON number")
    del bad, ok, X
    np.maximum(ne, 0, out=ne)

    blocks, top = _tables()[5:]
    words = buf.view(np.uint64)
    B = np.empty((4, S.size), np.uint64)
    base = S + (_PAD - 24)
    _read(words, (base + Xm) << 3, 3, out=B[:3])
    _read(words, (base + L + 16) << 3, 1, out=B[3:])  # the exponent's word ends the number
    del base
    B3 = B[:3]
    lead = 24 - Xm + neg  # the mantissa's first byte in the block
    at = lead + point * ni  # the point, or lead
    low = blocks.take(lead * 25 + at, axis=1)
    low &= B3
    B3 &= blocks.take((at + point) * 25 + 24, axis=1)
    B3 |= low << _U8
    B3[1:] |= low[:2] >> _U56
    del low
    esign &= ((B[3] >> ((7 - ne) << 3).view(np.uint64)) & _BYTE) == 45  # the byte before the digits
    B[3] &= top.take(ne)
    c = _eight_digits(B)
    D = c[0] * np.uint64(10**16)
    D += c[1] * np.uint64(10**8)
    D += c[2]
    q = c[3].view(np.int64)
    np.negative(q, out=q, where=esign == 1)
    q -= nf * point
    uncertain = (c[0] >= 1000) | (ne > 7)
    # -0 is the integer 0, as json reads it; -0.0 and -0e0 are negative zeros
    neg = (neg == 1) & ((D != 0) | (L > 2))
    return D, q, neg, uncertain


def _scale(D: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The doubles nearest D 10^q, and `uncertain` where that rounding is not certified.

    10^q = (hi + lo) 2^b is the writer's pow10 row for e = 16 - q.  D hi is
    Dekker's exact two-product, so y = D (hi + lo) is known to about 2^-100
    of itself.  y rounds to its double unless the residual r = y - fl(y)
    lies near a midpoint: a rounding certified when fl(y) + r (1 ± 2^-20)
    both round back to fl(y).  Exponents outside the table and results that
    are subnormal or overflow are uncertain too.
    """
    pow10 = _tables()[0]
    col = (16 - _EMIN) - q
    uncertain = col.view(np.uint64) > _EMAX - _EMIN
    np.clip(col, 0, _EMAX - _EMIN, out=col)
    hi, hh, hl, lo = pow10[0].take(col, axis=1)
    b = pow10[1].take(col)
    del col
    # an uncertain D may be any word, whose double can round to 2^64
    with np.errstate(over="ignore", invalid="ignore"):
        Dh = D.astype(np.float64)
        Dl = (D - Dh.astype(np.uint64)).view(np.int64).astype(np.float64)
        mh, ml = _split(Dh)
        p = Dh * hi
        err = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl
        del mh, ml, hh, hl
        err += Dh * lo + Dl * hi
        del Dl, hi, lo
        y = p + err
        r = p - y
        r += err
        del p, err
        uncertain |= y + r * (1 + _TIE) != y
        uncertain |= y + r * (1 - _TIE) != y
        e = np.frexp(y)[1]
        e += b
        uncertain |= ((e + 1021).view(np.uint32) > 2045) & (Dh != 0)  # subnormal or beyond 2^1024
        return np.ldexp(y, b), uncertain


def _slow(token: str) -> float:
    """One number by json's own rules: float() of a fraction, float(int()) of an integer."""
    match = _NUMBER.fullmatch(token)
    if match is None:
        raise ValueError(f"not a JSON number: {token[:40]!r}")
    return float(token) if match.group(1) or match.group(2) else float(int(token))


def _read(words: np.ndarray, bits: np.ndarray, count: int, out=None) -> np.ndarray:
    """`count` little-endian 64-bit words from each bit offset `bits` of `words`."""
    w = words.take((bits >> 6) + _STEPS[: count + 1])
    shift = (bits & 63).view(np.uint64)
    out = np.right_shift(w[:-1], shift, out=out)
    w[1:] <<= _U64 - shift  # a shift by 64 gives 0
    out |= w[1:]
    return out


def _eight_digits(v: np.ndarray) -> np.ndarray:
    """In place, the 8-digit integer of each word of ASCII digits, its byte 0 leading.

    Zero bytes read as 0 digits.  Adjacent digits, then pairs, then quads
    are merged by one multiply each (Lemire's SWAR conversion).
    """
    for mask, mul, shift in _SWAR:
        v &= mask
        v *= mul
        v >>= shift
    return v
