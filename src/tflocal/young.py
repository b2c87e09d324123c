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
* ``table``: a tabulated conjugate Psi, built only by ``conjugate_table``:
  piecewise-linear interpolation of its node values, linearly extended past
  the last node.  The node values are lower bounds (see ``conjugate_table``).

A table's nodes after 0 are log-uniform, so it finds the segment of an
argument t in O(1) instead of by binary search: floor((log t - log x1)/h +
1/2), which is the segment itself or the one below it, then one exact
comparison with the segment's upper node.  Its value is slope_j (t - x_j) +
y_j on that segment, with the per-segment slopes computed once: numpy's
``interp`` formula, so it returns the bits of ``interp`` through the nodes
(and of the linear extension past the last node).

Each function is validated once, by its builder.  ``power`` and ``eq5`` are
valid by construction; ``quasi_young`` and ``conjugate_table`` run one probe
pass (Phi(0) = 0, Phi nondecreasing) that also sets ``finite``.

``complementary`` computes the conjugate Psi(y) = sup_{x>=0} (x y - Phi(x))
numerically: a heuristic certificate over a finite grid, not a proof.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError, UnboundedError, number

__all__ = [
    "YoungFunction",
    "power",
    "eq5",
    "quasi_young",
    "complementary",
    "conjugate_table",
    "young_from_dict",
]

EQ5_LOG_BREAK = -1.5  # ln of the point beyond which -t^2 log t is not convex
EQ5_BREAK = math.exp(EQ5_LOG_BREAK)
EQ5_TAIL = math.exp(-3.0) / 2.0  # constant making the quadratic tail C^1

# probe grid of the one validation pass: 0, then a log grid over 15 decades
_PROBE = np.concatenate(([0.0], np.geomspace(1e-9, 1e6, 61)))


def _eval_power(p: float, t: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return t**p


def _eval_eq5(t: np.ndarray) -> np.ndarray:
    """-t^2 log t for 0 < t <= EQ5_BREAK, t^2 + EQ5_TAIL beyond, 0 for t <= 0.

    The head is 0 - s^2 log s with s = t where t > 0, else 1: the bits of
    (-s) s log s, and +0 where t <= 0.  Both parts are taken over all of t:
    a fifth of the Luxemburg solver's arguments lie in the tail, and masked
    passes over the two parts measured no faster than the whole array.
    """
    with np.errstate(over="ignore"):
        s = np.where(t > 0, t, 1.0)
        head = s * s
        head *= np.log(s)
        tail = t * t
        tail += EQ5_TAIL
    return np.where(t <= EQ5_BREAK, 0.0 - head, tail)


class _LogGrid(NamedTuple):
    """O(1) segment lookup of a table whose nodes x1 < x2 < ... are log-uniform.

    Segment j is [x_j, x_{j+1}), and the last one, `top`, runs on past the
    last node.  log(t) * scale + lead puts node j near j - 1/2; `upper[j]`
    is x_{j+1} (NaN for `top`) and `slopes[j]` segment j's slope.
    """

    scale: float
    lead: float
    top: float
    upper: np.ndarray
    slopes: np.ndarray

    def segment(self, t: np.ndarray) -> np.ndarray:
        """The segment j of each t: x_j <= t < x_{j+1}, or `top` past the last node."""
        # below x1 every argument is in segment 0, so log(max(t, x1)) never sees
        # 0 and the floor is never negative; fmin also sends NaN to the last one
        u = np.maximum(t, self.upper[0], out=np.empty(t.shape))
        np.log(u, out=u)
        u *= self.scale
        u += self.lead
        np.fmin(u, self.top, out=u)
        j = u.astype(np.intp)
        j += t >= self.upper[j]
        return j


def _log_grid(xs: np.ndarray, ys: np.ndarray) -> _LogGrid:
    """The O(1) lookup of a table with nodes 0 < x1 < x2 < ... log-uniform after 0.

    Each node must sit within a quarter segment of its place, measured by
    the very formula the lookup evaluates, so the floor is never more than
    one segment low nor above the segment (the nodes then increase strictly);
    slopes must be finite, so that the formula gives y_j exactly at x_j.
    Else DomainError: the nodes cannot be placed in double precision.
    """
    with np.errstate(all="ignore"):
        slopes = np.diff(ys) / np.diff(xs)
        logs = np.log(xs[1:])
        scale = (xs.size - 2) / (logs[-1] - logs[0])
        lead = 0.5 - logs[0] * scale
        place = logs * scale + lead - np.arange(0.5, xs.size - 1)
    if not (np.isfinite(slopes).all() and np.abs(place).max() <= 0.25):
        raise DomainError("conjugate grid nodes cannot be placed on a log grid in double precision")
    upper = np.append(xs[1:], np.nan)
    slopes = np.append(slopes, slopes[-1])
    upper.flags.writeable = False
    slopes.flags.writeable = False
    return _LogGrid(float(scale), float(lead), float(xs.size - 1), upper, slopes)


def _eval_table(xs: np.ndarray, ys: np.ndarray, grid: _LogGrid, t: np.ndarray) -> np.ndarray:
    """Linear interpolation through the nodes, extended past the last one by its slope.

    An overflow far past the last node warns unless the caller's errstate
    says otherwise; ``__call__`` and the solvers set one.
    """
    j = grid.segment(t)
    out = t - xs[j]
    out *= grid.slopes[j]
    out += ys[j]
    return out


@dataclass(frozen=True)
class YoungFunction:
    """Evaluable Young (or quasi-Young) function, validated once when built.

    Make one with ``power``, ``eq5``, ``quasi_young`` or ``conjugate_table``;
    the builders check the axioms and set ``finite``, and nothing is probed
    again afterwards.  A table's nodes ``xs`` and ``ys`` are read-only float64
    arrays: writing into them raises ValueError.  ``==`` and ``hash`` cover
    every field but ``finite`` and ``grid``, and compare table nodes by their
    values; ``grid`` is a table's O(1) segment lookup.
    """

    kind: str
    p: Optional[float] = None
    base: Optional["YoungFunction"] = None
    xs: Optional[np.ndarray] = None
    ys: Optional[np.ndarray] = None
    finite: bool = field(default=True, compare=False)
    grid: Optional[_LogGrid] = field(default=None, compare=False, repr=False)

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
        if not (np.isfinite(arr) & (arr >= 0)).all():
            raise DomainError("Young functions take finite non-negative arguments")
        with np.errstate(over="ignore"):
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
            return _eval_table(self.xs, self.ys, self.grid, t)
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
    """Phi(t) = t^p, finite p >= 1 (use quasi_young for p < 1)."""
    if not 1 <= p < math.inf:
        raise DomainError("power kind needs a finite p >= 1; wrap smaller orders with quasi_young")
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


_BRACKET_CAP = 2.0**60


def complementary(phi: YoungFunction, y):
    """Conjugate Psi(y) = sup_{x >= 0} (x|y| - Phi(x)).

    The objective is concave, so the maximizer is bracketed by doubling
    x until the mean slope Phi(x)/x reaches y, then located by ternary
    search.  Raises UnboundedError when the bracket cap 2^60 is hit,
    which is how extended-valued conjugates are refused, and DomainError
    for a non-finite y.
    """
    if not phi.finite:
        raise DomainError("complementary requires a finite Young function")
    arr = np.abs(np.asarray(y, dtype=np.float64))
    if not np.isfinite(arr).all():
        raise DomainError("complementary takes finite arguments")
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
    """Tabulate the numeric conjugate at 0 and on a log grid of `nodes` points.

    The grid runs from y_lo to y_hi, which need finite 0 < y_lo < y_hi, and
    nodes must be an integer >= 2, else DomainError; so must ends too close
    to place the nodes in double precision.  A non-finite node value raises
    UnboundedError, as a bracket past the cap of ``complementary`` does.  The
    table interpolates linearly between nodes, extends the last segment past
    the last node, and finds an argument's segment in O(1) (see the module
    docstring).  Each node value is x* y - Phi(x*) at the ternary-search
    point x*, a *lower* bound on Psi(y) (short of it by the search error).
    Linear interpolation of a convex function overestimates between nodes,
    so the table majorizes the true conjugate between nodes only up to that
    error, and not at the nodes themselves.  Young's inequality
    x y <= Phi(x) + Psi(y), which the constant-2 Hoelder checks rely on,
    therefore holds for the table only up to the same error; a certified
    upper bound is not computed here.
    """
    if not 0 < y_lo < y_hi < math.inf:
        raise DomainError(f"conjugate grid needs finite 0 < y_lo < y_hi, got {y_lo!r}, {y_hi!r}")
    if isinstance(nodes, bool) or not isinstance(nodes, numbers.Integral) or nodes < 2:
        raise DomainError(f"conjugate grid needs an integer nodes >= 2, got {nodes!r}")
    ys_grid = np.geomspace(y_lo, y_hi, nodes)
    vals = complementary(phi, ys_grid)
    if not np.isfinite(vals).all():
        raise UnboundedError(f"conjugate overflows on the grid up to {y_hi!r}")
    xs = np.concatenate(([0.0], ys_grid))
    ys = np.concatenate(([0.0], vals))
    grid = _log_grid(xs, ys)
    xs.flags.writeable = False
    ys.flags.writeable = False
    return _probed(YoungFunction("table", xs=xs, ys=ys, grid=grid))


_SPEC_KEYS = {"eq5": {"kind"}, "power": {"kind", "p"}, "quasi": {"kind", "p", "base"}}


def young_from_dict(spec: dict) -> YoungFunction:
    """The Young function of a JSON spec {"kind": "power"|"eq5"|"quasi", "p"?, "base"?}.

    A spec holds exactly its kind's keys; an error names the fault, not the spec.
    """
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or spec.keys() != _SPEC_KEYS.get(kind):
        raise DomainError("Young-function spec must be {kind: eq5}, {kind: power, p} or {kind: quasi, p, base}")
    if kind == "eq5":
        return eq5()
    p = number(spec["p"], f"{kind} exponent p")
    return power(p) if kind == "power" else quasi_young(young_from_dict(spec["base"]), p)
