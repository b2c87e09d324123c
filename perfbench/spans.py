"""Span tracing of tflocal's public functions, recorded from outside the package.

`Tracer.install` replaces each listed function with a timing wrapper under
every name that refers to it in any loaded `tflocal` module, so a call that
crosses layers (for example `verify` calling `kernel`, or `sigma_tilde`
calling `kernel` inside `locop`) is recorded as a child span of its caller.
`Tracer.uninstall` puts the original functions back.

Spans are kept in memory as (name, parent, start, end) and written out once
at the end.  Self time is a span's duration minus the part of it that its
child spans cover.  The tracer assumes one thread: the workloads never start
worker threads.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

PACKAGE = "tflocal"
# module -> public functions whose calls are timed
LAYERS = {
    "stft": ("stft", "stft_adjoint", "invert", "stft_symbol"),
    "locop": (
        "kernel",
        "adjoint_kernel",
        "apply_operator",
        "weak_pairing",
        "spectrum",
        "sigma_tilde",
    ),
    "orlicz": (
        "luxemburg",
        "orlicz_norm",
        "mixed_norm",
        "mixed_norm_swapped",
        "convolve_phase_space",
        "holder_pairing",
        "field_lp_norm",
    ),
    "young": ("conjugate_table", "complementary"),
    "modulation": (
        "modulation_norm",
        "orlicz_modulation_norm",
        "symbol_modulation_norm",
        "window_signal",
        "symbol_window",
    ),
    "serialization": ("dump_kernel_json", "load_kernel_json"),
    "verify": ("run_suite",),
}

LAYER_FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class Tracer:
    """In-memory span recorder with install/uninstall of function wrappers."""

    def __init__(self):
        self.spans: list = []  # (name, parent index or -1, start, end)
        self._stack: list = []
        self._patched: list = []  # (module, attribute, original)

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def span(self, name: str):
        """Record a span around a block: a wrapped call or the benchmark's own code."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, parent, t0, t1)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for mod_name, fns in LAYERS.items():
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(original, f"{mod_name}.{fn_name}")
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def write(self, path, origin: float = 0.0) -> None:
        """One JSON object per line: id, parent, name, start and end in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start": t0 - origin,
                            "end": t1 - origin,
                        }
                    )
                    + "\n"
                )


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Per span: duration minus the union of its children, clipped to the span."""
    children: dict = {}
    for name, parent, t0, t1 in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((t0, t1))
    out = []
    for sid, (name, parent, t0, t1) in enumerate(spans):
        kids = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ())]
        out.append((t1 - t0) - covered([k for k in kids if k[1] > k[0]]))
    return out


def layer_totals(spans, ids=None) -> dict:
    """name -> {"calls", "total_s", "self_s"} over the spans with the given indices."""
    own = self_times(spans)
    out: dict = {}
    for sid in range(len(spans)) if ids is None else ids:
        name, _parent, t0, t1 = spans[sid]
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += t1 - t0
        row["self_s"] += own[sid]
    return out
