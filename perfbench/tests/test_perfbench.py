"""Tests of the benchmark's own logic.  Run with: python3 -m pytest perfbench/tests -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402


def test_self_time_subtracts_union_of_children():
    # root [0, 10] has children [1, 4] and [3, 6] (overlapping: union 5) and
    # [8, 9]; the first child has a grandchild [2, 3] that counts only for it
    recorded = [
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("a.child", 1, 2.0, 3.0),
        ("b", 0, 3.0, 6.0),
        ("c", 0, 8.0, 9.0),
    ]
    own = spans.self_times(recorded)
    assert own == pytest.approx([10.0 - 6.0, 3.0 - 1.0, 1.0, 3.0, 1.0])
    totals = spans.layer_totals(recorded)
    assert totals["root"] == {"calls": 1, "total_s": 10.0, "self_s": pytest.approx(4.0)}
    assert spans.layer_totals(recorded, range(1, 3))["a"]["self_s"] == pytest.approx(2.0)


def test_child_spilling_past_its_parent_is_clipped():
    recorded = [("p", -1, 0.0, 2.0), ("q", 0, 1.5, 3.0)]
    assert spans.self_times(recorded)[0] == pytest.approx(1.5)


def test_covered_merges_touching_and_disjoint_intervals():
    assert spans.covered([(0, 1), (1, 2), (5, 6), (5.5, 5.7)]) == pytest.approx(3.0)
    assert spans.covered([]) == 0.0


@pytest.mark.parametrize(
    "n, expected",
    [
        (1, 5000),
        (19, 5000),
        (20, 5000),
        (39, 5000),
        (40, 7500),
        (99, 7500),
        (100, 9000),
        (199, 9000),
        (200, 9500),
        (999, 9500),
        (1000, 9900),
        (10000, 9990),
        (100000, 9999),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    p = run.tail_percentile(n)
    assert p == expected
    if n >= 20:
        beyond = n - run._ceil_rank(p, n)
        assert beyond >= run.TAIL_MIN_BEYOND


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert run.percentile(values, 5000) == 50
    assert run.percentile(values, 9000) == 90
    assert run.percentile(values, 9950) == 100
    assert run.percentile([7.0], 5000) == 7.0


def test_yardstick_takes_the_median_of_the_samples_around_an_op():
    import numpy as np

    yard = run.Yardstick(np)
    yard.starts = [0.0, 1.0, 2.0, 5.0, 6.0, 7.0]
    yard.times = [0.1, 0.2, 0.3, 0.4, 0.5, 0.9]
    assert run.YARDSTICK_NEIGHBOURS == 3
    # three samples before the op (0.1, 0.2, 0.3) and three after it (0.4, 0.5, 0.9)
    assert yard.around(2.5, 4.5) == pytest.approx(0.35)
    # near the start only one sample precedes the op: 0.1, then 0.2, 0.3, 0.4
    assert yard.around(0.5, 0.8) == pytest.approx(0.25)
    assert yard.run() > 0 and len(yard.times) == 7


def test_tracer_wraps_every_module_that_imported_a_function():
    sys.path.insert(0, str(ROOT / "src"))
    import tflocal
    from tflocal import locop, verify

    original = locop.kernel
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert verify.kernel is locop.kernel is tflocal.kernel
        assert locop.kernel is not original
        # adjoint_kernel calls kernel inside locop: the call is a child span
        env = verify.Environment(tflocal.LatticeSpec(1, 1), tflocal.TorusGrid(1, 7))
        sigma = verify.generate_ensemble("trig-symbol", 0, env)
        tflocal.adjoint_kernel(sigma, env.window, env.window)
    finally:
        tracer.uninstall()
    assert locop.kernel is original and verify.kernel is original
    names = [s[0] for s in tracer.spans]
    assert "locop.adjoint_kernel" in names and "locop.kernel" in names
    kernel_span = tracer.spans[names.index("locop.kernel")]
    assert tracer.spans[kernel_span[1]][0] == "locop.adjoint_kernel"


def _run(cwd, *args, timeout=300):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_smoke_prints_every_metric(workload):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--size", "tiny")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in bench[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        text = "\n".join(lines[:-1])
        if trace == 0:
            for name, unit in run.E2E_UNITS.items():
                assert f"metric {name} " in text and f" {unit}  (" in text
            assert "provenance " in text
        else:
            for name in run.layer_metric_names(["plancherel"]):
                assert f"layer {name} " in text
            assert "trace overhead " in text


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path, "--workload", "norms", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
