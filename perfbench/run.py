"""tflocal benchmark: seeded workloads against the public API, checked and timed.

    python3 perfbench/run.py --workload verify-desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

The package is imported from the `src/` directory next to this benchmark's
directory, and the run fails with exit code 2 if it is missing.  One
invocation runs one workload in this single process (`all` runs each
workload in its own process, one after the other).  BLAS and OpenMP are
pinned to one thread before numpy is imported.

A run builds its fixtures several times, then repeats rounds of ops (a
fixed, seeded list per round) while the next round is expected to end
within --seconds.  In an untraced run, before a library call and at most
every YARDSTICK_EVERY_S, it also times a fixed numpy and Python loop (the
yardstick) that gauges the shared host's speed at that moment, and gives
each op's time in units of the yardstick times around its calls.  Every
op's result is checked after its round.  With --trace 0 the last line of
output is a JSON object with the end-to-end metrics that BENCHMARK.json
bounds; with --trace 1 it holds per-layer metrics taken from spans around
tflocal's public functions, and the rounds alternate between untraced and
traced so that the run also measures the tracing overhead.  The lines
before it give every metric by name and unit, the run's provenance and,
when traced, the whole per-function table.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("verify-desk", "operators", "norms")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 7
YARDSTICK_EVERY_S = 0.25
YARDSTICK_NEIGHBOURS = 3  # yardstick samples taken on each side of an op
# percentiles tried for the tail, in per ten thousand, highest first
TAIL_LADDER = (9999, 9990, 9900, 9500, 9000, 7500, 5000)
TAIL_MIN_BEYOND = 10
E2E_UNITS = {
    "setup_s": "s",
    "wall_yardsticks": "yardstick",
    "op_p50_yardsticks": "yardstick",
    "op_tail_yardsticks": "yardstick",
    "peak_rss_mb": "MB",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "fail_ratio": "ratio",
    "yardstick_s": "s",
}
# the end-to-end metrics of the final JSON line; the others are printed only,
# because on a shared host the seconds measure the other tenants (NOTES.md)
JSON_E2E = ("setup_s", "wall_yardsticks", "op_p50_yardsticks", "op_tail_yardsticks", "peak_rss_mb")
# fixture functions and the STFT: the only layer times every workload measures
JSON_TIMED_FUNCTIONS = (
    "stft.stft",
    "young.conjugate_table",
    "young.complementary",
    "modulation.window_signal",
    "modulation.symbol_window",
)


def _ceil_rank(per_10k: int, n: int) -> int:
    return -(-per_10k * n // 10000)


def percentile(sorted_values, per_10k: int):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(_ceil_rank(per_10k, len(sorted_values)), 1) - 1]


def tail_percentile(n: int) -> int:
    """Highest ladder percentile (per ten thousand) with >= 10 samples beyond it.

    Below 20 samples no percentile at or above the median qualifies, and the
    median is returned.
    """
    for p in TAIL_LADDER:
        if n - _ceil_rank(p, n) >= TAIL_MIN_BEYOND:
            return p
    return 5000


def layer_metric_names(check_ids) -> list:
    """Every per-layer metric of a traced run, in print order."""
    names = [f"{f}.{k}" for f in spans.LAYER_FUNCTIONS for k in ("calls", "total_s", "self_s")]
    return names + [f"verify.check.{cid}.s" for cid in check_ids] + ["trace.overhead_s"]


def json_layer_metrics() -> list:
    """Per-layer metrics of the final JSON line.

    These are the call count of every wrapped function, the times that no
    workload leaves at zero, and the tracing overhead.  A time that some
    workload never spends would read 0.0 on every run of that workload.
    """
    names = [f"{f}.calls" for f in spans.LAYER_FUNCTIONS]
    names += [f"{f}.{k}" for f in JSON_TIMED_FUNCTIONS for k in ("total_s", "self_s")]
    return names + ["trace.overhead_s"]


def unit_of(metric: str) -> str:
    return "count" if metric.endswith(".calls") else "s"


def pin_threads() -> dict:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def provenance(np, workload: str, seed: int, pinned: dict) -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        git_rev = rev.stdout.strip() if rev.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        git_rev = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "git_rev": git_rev,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "threads": pinned,
        "nproc": len(os.sched_getaffinity(0)),
    }


def import_seconds(src: Path) -> float:
    """Time `import numpy, tflocal` in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import numpy, tflocal; print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(src)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout)


def build_fixtures(work, tracer) -> tuple:
    """Set the workload up SETUP_REPEATS times; return the times and span count."""
    if tracer:
        tracer.install()
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        work.setup()
        times.append(time.perf_counter() - t0)
    if tracer:
        tracer.uninstall()
    return times, len(tracer.spans) if tracer else 0


class Yardstick:
    """A fixed numpy and Python loop, timed between ops to gauge the host's speed.

    The host is shared: other tenants slow a run down by up to 1.7 times for
    seconds or minutes at a time.  The loop mixes the library's kinds of work:
    unoptimised einsums at the two kernel sizes of the operators workload, as
    in locop.kernel; FFTs, as in stft; many numpy calls on short vectors, as
    in orlicz; and filling 4 MiB of fresh pages, as stft_symbol fills its
    large arrays.  It takes 25-40 ms, so its time beside a library call
    tracks how fast the host ran that call.  Its inputs are fixed, not drawn
    from the workload seed: it is a measuring rod, not a workload.
    """

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.np = np
        # the atom matrices of kernel at n=1, K=16 (97 x 97) and n=2, K=2 (169 x 169)
        self.atoms = []
        for side in (97, 169):
            a, b = (rng.standard_normal((side, side, 2)) @ [1, 1j] for _ in range(2))
            self.atoms.append((a, rng.standard_normal(side) + 0j, np.conj(b)))
        self.x = rng.standard_normal((64, 64, 16)) + 0j
        self.w = rng.random(97)
        self.starts: list = []
        self.times: list = []

    def _work(self) -> float:
        np = self.np
        total = 0.0
        for (a, s, b), repeat in zip(self.atoms, (2, 1)):
            for _ in range(repeat):
                total += abs(np.einsum("kj,j,lj->kl", a, s, b, optimize=False)[0, 0])
        for _ in range(3):
            total += abs(np.fft.fftn(self.x, axes=(0, 1))[0, 0, 0])
        s = self.atoms[0][1]
        for i in range(400):
            total += float(np.abs(s * self.w[i % 97]).sum())
        for _ in range(2):
            fresh = np.empty(2**18, dtype=complex)
            fresh.fill(1 + 1j)
            total += abs(fresh.sum())
        return total

    def run(self) -> float:
        """Time the loop once; return the seconds it took."""
        t0 = time.perf_counter()
        self._work()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.times.append(t1 - t0)
        return t1 - t0

    def due(self) -> bool:
        return not self.starts or time.perf_counter() - self.starts[-1] >= YARDSTICK_EVERY_S

    def around(self, t0: float, t1: float) -> float:
        """Median time of the samples just before t0 and just after t1."""
        before = bisect.bisect_right(self.starts, t0)
        after = bisect.bisect_left(self.starts, t1)
        near = self.times[max(before - YARDSTICK_NEIGHBOURS, 0) : before]
        near += self.times[after : after + YARDSTICK_NEIGHBOURS]
        return statistics.median(near)


class Rounds:
    """Op latencies, round wall times and failures of the timed phase."""

    def __init__(self, yardstick):
        self.yardstick = yardstick  # None in a traced run
        self.ops = []  # (round index, [(start, end) per library call]) per op, all rounds
        self.walls = {False: [], True: []}  # traced? -> round wall times
        self.elapsed = []  # round wall times with the yardstick samples in them
        self.ops_per_round = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run(self, work, seconds: float, tracer) -> None:
        """Run rounds while the next one is expected to end within `seconds`."""
        start = time.perf_counter()
        index = 0
        while True:
            traced = bool(tracer) and index % 2 == 1
            self._one(work, index, tracer if traced else None)
            index += 1
            expected = statistics.median(self.elapsed)
            enough = index >= (2 if tracer else 1)
            if enough and time.perf_counter() - start + expected > seconds:
                return

    def _one(self, work, index: int, tracer) -> None:
        ops = work.ops(index)
        self.ops_per_round = len(ops)
        results = []
        if tracer:
            tracer.install()
        yard_s = 0.0  # yardstick time inside the round, not part of its wall time

        def step(fn, *args, **kwargs):
            """Make one library call of the current op and time it."""
            nonlocal yard_s
            if self.yardstick and self.yardstick.due():
                yard_s += self.yardstick.run()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                calls.append((t0, time.perf_counter()))

        r0 = time.perf_counter()
        for label, run, _check in ops:
            calls: list = []  # the library calls of this op, filled by step
            self.ops.append((index, calls))
            try:
                if tracer:
                    with tracer.span(label):
                        res = run(step)
                else:
                    res = run(step)
            except Exception as exc:  # an op that raises counts as failed
                res = exc
            results.append(res)
        self.walls[bool(tracer)].append(time.perf_counter() - r0 - yard_s)
        if tracer:
            tracer.uninstall()
        if self.yardstick:
            self.yardstick.run()  # so the round's last op has a sample after it
        self.elapsed.append(time.perf_counter() - r0)

        for (label, _run, check), res in zip(ops, results):
            self.attempted += 1
            if isinstance(res, Exception):
                problems = [f"raised {type(res).__name__}: {res}"]
            else:
                problems = check(res)
            if problems:
                self.failed += 1
                self.failures += [f"round {index} {label}: {p}" for p in problems]
        if not any(isinstance(res, Exception) for res in results):
            self.failures += [f"round {index}: {p}" for p in work.round_check(results)]


def end_to_end(rounds: Rounds, setup_s: float, setup_note: str) -> tuple:
    """The end-to-end metrics, and a note on how each was taken.

    The metrics in yardsticks need the yardstick, which a traced run leaves
    out, so that its traced and untraced rounds differ only by the tracing.
    """
    durations = sorted(sum(t1 - t0 for t0, t1 in calls) for _index, calls in rounds.ops)
    n = len(durations)
    tail = tail_percentile(n)
    untraced = rounds.walls[False]
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall_s": statistics.median(untraced),
        "op_p50_s": percentile(durations, 5000),
        "op_tail_s": percentile(durations, tail),
        "fail_ratio": rounds.failed / rounds.attempted,
    }
    notes = {
        "setup_s": setup_note,
        "peak_rss_mb": "ru_maxrss of this process",
        "wall_s": f"median of {len(untraced)} untraced rounds of {rounds.ops_per_round} ops",
        "op_p50_s": f"n={n}",
        "op_tail_s": f"p{tail / 100:g}, n={n}",
        "fail_ratio": f"{rounds.failed}/{rounds.attempted} ops failed",
    }
    yard = rounds.yardstick
    if yard:
        relative: dict = {}  # round index -> op times in yardsticks
        for index, calls in rounds.ops:
            op = sum((t1 - t0) / yard.around(t0, t1) for t0, t1 in calls)
            relative.setdefault(index, []).append(op)
        rel = sorted(op for ops in relative.values() for op in ops)
        rel_tail = tail_percentile(len(rel))
        values["wall_yardsticks"] = statistics.median(sum(ops) for ops in relative.values())
        values["op_p50_yardsticks"] = percentile(rel, 5000)
        values["op_tail_yardsticks"] = percentile(rel, rel_tail)
        values["yardstick_s"] = statistics.median(yard.times)
        notes["wall_yardsticks"] = (
            f"median over {len(relative)} rounds of the sum of library call times,"
            " each over the median yardstick time around it"
        )
        notes["op_p50_yardsticks"] = f"n={len(rel)}"
        notes["op_tail_yardsticks"] = f"p{rel_tail / 100:g}, n={len(rel)}"
        notes["yardstick_s"] = f"median of {len(yard.times)} yardstick loops"
    return values, notes


def layer_metrics(tracer, setup_spans: int, traced_rounds: int, overhead: float, check_ids):
    """Per-layer metrics per unit of work: one fixture setup plus one round."""
    n = len(tracer.spans)
    totals: dict = {}
    parts = ((range(setup_spans), SETUP_REPEATS), (range(setup_spans, n), traced_rounds))
    for ids, count in parts:
        for func, row in spans.layer_totals(tracer.spans, ids).items():
            acc = totals.setdefault(func, {"calls": 0.0, "total_s": 0.0, "self_s": 0.0})
            for key, value in row.items():
                acc[key] += value / count
    out = {}
    for name in layer_metric_names(check_ids):
        if name == "trace.overhead_s":
            out[name] = overhead
        elif name.startswith("verify.check."):
            out[name] = totals.get(name[: -len(".s")], {}).get("total_s", 0.0)
        else:
            func, key = name.rsplit(".", 1)
            out[name] = totals.get(func, {}).get(key, 0.0)
    return out


def measure(args) -> int:
    pinned = pin_threads()
    src = ROOT / "src"
    if not (src / "tflocal" / "__init__.py").is_file():
        print(f"error: no tflocal package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy as np
    import tflocal

    own_import_s = time.perf_counter() - t0
    if Path(tflocal.__file__).resolve().parent != (src / "tflocal").resolve():
        print(f"error: tflocal imported from {tflocal.__file__}", file=sys.stderr)
        return 2

    import workloads  # imports numpy, so only after the threads are pinned

    work = workloads.WORKLOADS[args.workload](args.size, args.seed)
    tracer = spans.Tracer() if args.trace else None
    origin = time.perf_counter()
    fixture_s, setup_spans = build_fixtures(work, tracer)
    import_s = statistics.median(import_seconds(src) for _ in range(SETUP_REPEATS))
    setup_note = (
        f"median import in {SETUP_REPEATS} fresh interpreters {import_s:.4f} s "
        f"(this process {own_import_s:.4f} s) + median of {SETUP_REPEATS} fixture builds"
    )
    rounds = Rounds(None if tracer else Yardstick(np))
    rounds.run(work, args.seconds, tracer)
    e2e, notes = end_to_end(rounds, import_s + statistics.median(fixture_s), setup_note)

    print("provenance " + json.dumps(provenance(np, args.workload, args.seed, pinned)))
    for name in (m for m in E2E_UNITS if m in e2e):
        print(f"metric {name} {e2e[name]!r} {E2E_UNITS[name]}  ({notes[name]})")
    for traced, walls in rounds.walls.items():
        if walls:
            kind = "traced" if traced else "untraced"
            print(f"rounds {kind} " + " ".join(f"{w:.4f}" for w in walls))
    for line in rounds.failures[:50]:
        print("FAIL " + line)

    if tracer:
        traced_wall = statistics.median(rounds.walls[True])
        overhead = traced_wall - e2e["wall_s"]
        print(
            f"trace overhead {overhead!r} s per round ({100 * overhead / e2e['wall_s']:.2f}%):"
            f" traced median {traced_wall!r} s vs untraced {e2e['wall_s']!r} s"
        )
        layer = layer_metrics(
            tracer,
            setup_spans,
            len(rounds.walls[True]),
            overhead,
            workloads.verify.registered_ids(),
        )
        for name, value in layer.items():
            print(f"layer {name} {value!r} {unit_of(name)}")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path, origin)
        print(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        metrics = {m: {"value": layer[m], "unit": unit_of(m)} for m in json_layer_metrics()}
    else:
        metrics = {m: {"value": e2e[m], "unit": E2E_UNITS[m]} for m in JSON_E2E}

    correct = not rounds.failures
    result = {
        "correct": correct,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run each workload in its own process, one after the other."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace), "--size", args.size]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("desk", "tiny"), default="desk")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
