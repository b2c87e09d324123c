"""Young functions and their numeric calculus.

A Young function is convex with Phi(0) = 0 and Phi(t) -> infinity.  Four
evaluable kinds are supported:

* ``power``: Phi(t) = t^p with p >= 1.
* ``eq5``: the log-perturbed square -t^2 log t on [0, e^{-3/2}], continued
  by the unique C^1 convex quadratic tail t^2 + e^{-3}/2.  The raw formula
  stops being convex above e^{-3/2}, so the tail restores the Young-function
  axioms while keeping the small-argument behaviour, which is the regime all
  embedding arguments live in.
* ``quasi``: Phi0(t) = base(t^p) with 0 < p <= 1 (order-p quasi-Young).
* ``table``: piecewise-linear interpolation of sampled values, linearly
  extended past the last node.  Used mainly for tabulated conjugates, whose
  node values are lower bounds (see ``conjugate_table``).

Each function is validated once, by its builder.  ``power`` and ``eq5`` are
valid by construction; ``quasi_young`` and ``table`` run one probe pass
(Phi(0) = 0, Phi nondecreasing) that also sets ``finite``.

``complementary`` computes the conjugate Psi(y) = sup_{x>=0} (x y - Phi(x))
numerically; ``delta2_probe`` estimates a doubling constant on an interval.
Both are heuristic certificates over finite grids, not proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import DomainError, UnboundedError, number

__all__ = [
    "YoungFunction",
    "power",
    "eq5",
    "quasi_young",
    "table",
    "complementary",
    "conjugate_table",
    "delta2_probe",
    "young_to_dict",
    "young_from_dict",
]

EQ5_BREAK = math.exp(-1.5)  # convexity of -t^2 log t fails beyond this point
EQ5_TAIL = math.exp(-3.0) / 2.0  # constant making the quadratic tail C^1

# probe grid of the one validation pass: 0, then a log grid over 15 decades
_PROBE = np.concatenate(([0.0], np.geomspace(1e-9, 1e6, 61)))


def _eval_power(p: float, t: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return t**p


def _eval_eq5(t: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        safe = np.where(t > 0, t, 1.0)
        head = -safe * safe * np.log(safe)
        head = np.where(t > 0, head, 0.0)
        tail = t * t + EQ5_TAIL
    return np.where(t <= EQ5_BREAK, head, tail)


@dataclass(frozen=True)
class YoungFunction:
    """Evaluable Young (or quasi-Young) function, validated once when built.

    Make one with ``power``, ``eq5``, ``quasi_young`` or ``table``; the
    builders check the axioms and set ``finite``, and nothing is probed again
    afterwards.  A table's nodes ``xs`` and ``ys`` are read-only float64
    arrays: writing into them raises ValueError.  ``==`` and ``hash`` cover
    every field but ``finite``, and compare table nodes by their values.
    """

    kind: str
    p: Optional[float] = None
    base: Optional["YoungFunction"] = None
    xs: Optional[np.ndarray] = None
    ys: Optional[np.ndarray] = None
    finite: bool = field(default=True, compare=False)

    def _key(self) -> tuple:
        nodes = None if self.xs is None else (self.xs.tobytes(), self.ys.tobytes())
        return (self.kind, self.p, self.base, nodes)

    def __eq__(self, other):
        if not isinstance(other, YoungFunction):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __call__(self, t):
        arr = np.asarray(t, dtype=np.float64)
        if np.any(arr < 0):
            raise DomainError("Young functions take non-negative arguments")
        out = self._eval(arr)
        return float(out) if np.isscalar(t) or arr.ndim == 0 else out

    def _eval(self, t: np.ndarray) -> np.ndarray:
        if self.kind == "power":
            return _eval_power(self.p, t)
        if self.kind == "eq5":
            return _eval_eq5(t)
        if self.kind == "quasi":
            with np.errstate(over="ignore"):
                return self.base._eval(t**self.p)
        if self.kind == "table":
            xs, ys = self.xs, self.ys
            out = np.interp(t, xs, ys)
            slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
            with np.errstate(over="ignore", invalid="ignore"):
                ext = ys[-1] + slope * (t - xs[-1])
            return np.where(t > xs[-1], ext, out)
        raise DomainError(f"unknown Young-function kind {self.kind!r}")


def _probed(phi: YoungFunction) -> YoungFunction:
    """The one validation pass: Phi(0) = 0, Phi nondecreasing, and `finite`."""
    with np.errstate(all="ignore"):
        vals = phi._eval(_PROBE)
    if vals[0] != 0.0:
        raise DomainError("Young function must vanish at 0")
    good = vals[np.isfinite(vals)]
    if np.any(np.diff(good) < -1e-12 * (1 + np.abs(good[:-1]))):
        raise DomainError("Young function must be nondecreasing")
    return replace(phi, finite=good.size == vals.size)


def power(p: float) -> YoungFunction:
    """Phi(t) = t^p, p >= 1 (use quasi_young for p < 1)."""
    if not p >= 1:
        raise DomainError("power kind needs p >= 1; wrap smaller orders with quasi_young")
    return YoungFunction("power", p=float(p))


def eq5() -> YoungFunction:
    """The log-perturbed square with its C^1 convex quadratic tail."""
    return YoungFunction("eq5")


def quasi_young(base: YoungFunction, p: float) -> YoungFunction:
    """Order-p quasi-Young function t -> base(t^p), 0 < p <= 1."""
    if not 0 < p <= 1:
        raise DomainError("quasi-Young order must lie in (0, 1]")
    if p == 1:
        return base
    return _probed(YoungFunction("quasi", p=float(p), base=base))


def table(xs, ys) -> YoungFunction:
    """Piecewise-linear Young function through (xs, ys); xs[0] must be 0."""
    xs = np.array(xs, dtype=np.float64)
    ys = np.array(ys, dtype=np.float64)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise DomainError("table needs matching one-dimensional xs/ys with at least two nodes")
    if xs[0] != 0.0 or ys[0] != 0.0:
        raise DomainError("table must start at (0, 0)")
    if not np.all(np.diff(xs) > 0):
        raise DomainError("table abscissae must be strictly increasing")
    xs.flags.writeable = False
    ys.flags.writeable = False
    return _probed(YoungFunction("table", xs=xs, ys=ys))


_BRACKET_CAP = 2.0**60


def complementary(phi: YoungFunction, y):
    """Conjugate Psi(y) = sup_{x >= 0} (x|y| - Phi(x)).

    The objective is concave, so the maximizer is bracketed by doubling
    x until the mean slope Phi(x)/x reaches y, then located by ternary
    search.  Raises UnboundedError when the bracket cap 2^60 is hit,
    which is how extended-valued conjugates are refused.
    """
    if not phi.finite:
        raise DomainError("complementary requires a finite Young function")
    arr = np.abs(np.asarray(y, dtype=np.float64))
    scalar = np.isscalar(y) or arr.ndim == 0
    yv = np.atleast_1d(arr).astype(np.float64)

    hi = np.ones_like(yv)
    with np.errstate(all="ignore"):
        while np.any(need := phi._eval(hi) < hi * yv):
            if hi[need].min() >= _BRACKET_CAP:
                raise UnboundedError(
                    f"conjugate diverges: slope condition unmet below {_BRACKET_CAP:g}"
                )
            hi = np.where(need, hi * 2.0, hi)
        lo = np.zeros_like(yv)
        for _ in range(90):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            f1 = m1 * yv - phi._eval(m1)
            f2 = m2 * yv - phi._eval(m2)
            take = f1 < f2
            lo = np.where(take, m1, lo)
            hi = np.where(take, hi, m2)
        xstar = (lo + hi) / 2.0
        out = np.maximum(xstar * yv - phi._eval(xstar), 0.0)
    return float(out[0]) if scalar else out.reshape(arr.shape)


def conjugate_table(
    phi: YoungFunction, y_lo: float = 1e-9, y_hi: float = 1e9, nodes: int = 2048
) -> YoungFunction:
    """Tabulate the numeric conjugate on a log grid.

    Each node value is x* y - Phi(x*) at the ternary-search point x*, a
    *lower* bound on Psi(y) (short of it by the search error).  Linear
    interpolation of a convex function overestimates between nodes, so the
    table majorizes the true conjugate between nodes only up to that error,
    and not at the nodes themselves.  Young's inequality x y <= Phi(x) +
    Psi(y), which the constant-2 Hoelder checks rely on, therefore holds for
    the table only up to the same error; a certified upper bound is not
    computed here.
    """
    ys_grid = np.geomspace(y_lo, y_hi, nodes)
    vals = complementary(phi, ys_grid)
    return table(np.concatenate(([0.0], ys_grid)), np.concatenate(([0.0], vals)))


def delta2_probe(phi: YoungFunction, r: float, samples: int = 256) -> float:
    """Largest Phi(2x)/Phi(x) over a log grid in (0, r].

    A finite return C certifies Phi(2x) <= C Phi(x) on the probed grid only;
    this is a heuristic doubling certificate, not a proof.  Ratios 0/0 are
    skipped; Phi(x) = 0 with Phi(2x) > 0 reports +inf.
    """
    if not r > 0:
        raise DomainError("probe radius must be positive")
    if samples < 16:
        raise DomainError("need at least 16 probe samples")
    xs = np.geomspace(r * 1e-12, r, samples)
    with np.errstate(all="ignore"):
        num = phi._eval(2.0 * xs)
        den = phi._eval(xs)
    blowup = (den == 0) & (num > 0)
    if np.any(blowup):
        return float("inf")
    ok = den > 0
    if not np.any(ok):
        return 0.0
    return float(np.max(num[ok] / den[ok]))


def young_to_dict(phi: YoungFunction) -> dict:
    """Serializable spec: {"kind": "power"|"eq5"|"quasi", "p"?, "base"?}."""
    if phi.kind == "power":
        return {"kind": "power", "p": phi.p}
    if phi.kind == "eq5":
        return {"kind": "eq5"}
    if phi.kind == "quasi":
        return {"kind": "quasi", "p": phi.p, "base": young_to_dict(phi.base)}
    raise DomainError(f"kind {phi.kind!r} has no file representation")


def young_from_dict(spec: dict) -> YoungFunction:
    """Inverse of young_to_dict; a malformed spec raises DomainError or UsageError."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise DomainError("Young-function spec must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "eq5":
        return eq5()
    needs = ("p",) if kind == "power" else ("p", "base")
    if kind not in ("power", "quasi") or any(k not in spec for k in needs):
        raise DomainError(f"Young-function spec {spec!r} is not power(p), eq5 or quasi(p, base)")
    p = number(spec["p"], f"{kind} exponent p")
    return power(p) if kind == "power" else quasi_young(young_from_dict(spec["base"]), p)
