"""File formats: signals, phase-space fields, kernels, spectral summaries.

Signal, field and kernel files are JSON objects: the lattice integers n, K
and C, the format's own header, then the array as a flat list of [re, im]
pairs in the lexicographic (slowest axis first) order of the lattice module.
Writers emit every float with 17 significant digits, which round-trips
IEEE-754 doubles (except the sign of -0.0: JSON reads "-0" as the integer 0)
and keeps files byte-reproducible.  Header integers must be integral, a
malformed file raises UsageError, and a field file without C (written
before C was stored) loads with C = 3K.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from contextlib import contextmanager

import numpy as np

from .errors import UsageError
from .lattice import LatticeSpec, PhaseSpaceField, Signal, TorusGrid
from .locop import OperatorKernel, SpectralSummary

__all__ = [
    "fmt17",
    "integer",
    "number",
    "dump_signal",
    "load_signal",
    "dump_field",
    "load_field",
    "dump_kernel_json",
    "load_kernel_json",
    "dump_kernel_raw",
    "dump_summary",
]


def fmt17(x: float) -> str:
    """Decimal with 17 significant digits (exact double round trip)."""
    return format(float(x), ".17g")


def integer(value, what: str) -> int:
    """`value` as an int: an int or an integral float, never a bool."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise UsageError(f"{what} must be an integer, got {value!r}")
    return int(value)


def number(value, what: str) -> float:
    """`value` as a finite float: an int or a float, never a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise UsageError(f"{what} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # nan, inf, or an int too large for a float
        raise UsageError(f"{what} must be finite, got {value!r}")
    return float(value)


def _dump(spec: LatticeSpec, key: str, values: np.ndarray, **header) -> str:
    """One array file: the n/K/C header, `header` in order, then `key`: pairs."""
    flat = np.ascontiguousarray(values, dtype=np.complex128).view(np.float64).ravel()
    pairs = ",".join(["[%.17g,%.17g]"] * (flat.size // 2)) % tuple(flat.tolist())
    head = "".join(f'"{k}": {v}, ' for k, v in header.items())
    return f'{{"n": {spec.n}, "K": {spec.K}, "C": {spec.C}, {head}"{key}": [{pairs}]}}\n'


@contextmanager
def _reading(what: str):
    """Report any malformation met while reading a `what` file as a UsageError."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"malformed {what} file: {exc}") from exc


def _header(text: str, C_optional: bool = False) -> tuple[dict, LatticeSpec]:
    """The parsed file and its n/K/C lattice; with C_optional a missing C is 3K."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise TypeError("expected a JSON object")
    n, K = integer(obj["n"], "n"), integer(obj["K"], "K")
    C = None if C_optional and "C" not in obj else integer(obj["C"], "C")
    return obj, LatticeSpec(n, K, C)


def _array(raw, shape: tuple) -> np.ndarray:
    """A flat list of [re, im] pairs as a complex array of `shape`."""
    count = math.prod(shape)
    arr = np.array(raw, dtype=np.float64)
    if arr.shape != (count, 2):
        raise UsageError(f"expected {count} [re, im] pairs")
    return arr.view(np.complex128).reshape(shape)


def dump_signal(f: Signal) -> str:
    return _dump(f.spec, "values", f.values)


def load_signal(text: str) -> Signal:
    with _reading("signal"):
        obj, spec = _header(text)
        vals = _array(obj["values"], spec.shape)
    return Signal(spec, vals)


def dump_field(F: PhaseSpaceField) -> str:
    header = dict(m_radius=F.m_radius, M=F.torus.M, degree_bound=F.degree_bound)
    return _dump(F.spec, "values", F.values, **header)


def load_field(text: str) -> PhaseSpaceField:
    with _reading("field"):
        obj, spec = _header(text, C_optional=True)
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
        obj, spec = _header(text)
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
    sv = summary.singular_values.tolist()
    sv = ",".join(["%.17g"] * len(sv)) % tuple(sv)
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
