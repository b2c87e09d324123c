"""Acceptance gate: every criterion at its stated tolerance, one line each.

Runs at the desk scale n=1, K=8, C=24, M=49 with a fixed master seed.
Each test prints a PASS line when its criterion holds (visible with -s).
"""

import math

import pytest

from tflocal import LatticeSpec, TorusGrid
from tflocal.verify import (
    CheckSpec,
    Environment,
    parse_report,
    report_lines,
    run_suite,
)

SEED = 20240801


@pytest.fixture(scope="module")
def aenv():
    return Environment(LatticeSpec(1, 8), TorusGrid(1, 49))


def run_checks(aenv, *items):
    """items: (id, trials or None, tolerance or None)."""
    specs = [
        CheckSpec(id=i, trials=t, tolerance=tol, seed=SEED) for i, t, tol in items
    ]
    return run_suite(specs, aenv)


def assert_clean(results):
    for r in results:
        assert r.violations == 0, f"{r.id}: {r.violations} violations, worst {r.worst_margin}"


def announce(num, name):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def test_criterion_01_plancherel(aenv):
    res = run_checks(aenv, ("plancherel", 100, 1e-10))
    assert_clean(res)
    announce(1, "plancherel")


def test_criterion_02_orthogonality(aenv):
    res = run_checks(aenv, ("orthogonality", 100, 1e-10))
    assert_clean(res)
    announce(2, "orthogonality")


def test_criterion_03_inversion(aenv):
    res = run_checks(aenv, ("inversion_roundtrip", 100, 1e-10))
    assert_clean(res)
    announce(3, "inversion round trip")


def test_criterion_04_luxemburg_power_reduction(aenv):
    res = run_checks(aenv, ("luxemburg_power_reduction", 100, 1e-9))
    assert_clean(res)
    announce(4, "luxemburg power reduction and bracket")


def test_criterion_05_holder(aenv):
    res = run_checks(
        aenv,
        ("holder_lattice_power", 500, 1e-9),
        ("holder_lattice_conjugate", 500, 1e-9),
        ("holder_mixed_power", 500, 1e-9),
        ("holder_mixed_conjugate", 500, 1e-9),
    )
    assert_clean(res)
    tiers = {r.id: r.tier for r in res}
    assert tiers["holder_lattice_power"] == "holder-constant-1"
    assert tiers["holder_lattice_conjugate"] == "holder-constant-2"
    announce(5, "Hoelder inequalities (1000 trials per level, tiered constants)")


def test_criterion_06_convolution(aenv):
    res = run_checks(
        aenv,
        ("convolution_mixed_power", 100, 1e-9),
        ("convolution_mixed_orlicz", 100, 1e-9),
        ("convolution_product", 100, 1e-9),
    )
    assert_clean(res)
    announce(6, "convolution relations (mixed and product norms)")


def test_criterion_07_embedding(aenv):
    res = run_checks(
        aenv,
        ("embedding_criteria", 1, 1e-9),
        ("inclusion_chain_flanks", 1, 1e-9),
    )
    assert_clean(res)
    flanks = next(r for r in res if r.id == "inclusion_chain_flanks")
    assert flanks.tier and "C_left" in flanks.tier
    announce(7, "embedding certificates and inclusion-chain flanks")


def test_criterion_08_identity_operator(aenv):
    res = run_checks(aenv, ("identity_operator", 1, 1e-10))
    assert_clean(res)
    announce(8, "constant symbol gives the identity on the admissible block")


def test_criterion_09_adjoint(aenv):
    res = run_checks(aenv, ("adjoint_identity", 50, 1e-12))
    assert_clean(res)
    announce(9, "adjoint kernel identity and Hermitian case")


def test_criterion_10_trace(aenv):
    res = run_checks(aenv, ("trace_identity", 50, 1e-10))
    assert_clean(res)
    announce(10, "trace identity and Hilbert-Schmidt consistency")


def test_criterion_11_operator_norm_bounds(aenv):
    res = run_checks(
        aenv,
        ("opnorm_plancherel_bound", 100, 1e-9),
        ("opnorm_schur_bound", 100, 1e-9),
    )
    assert_clean(res)
    announce(11, "operator norm bounds (sup-symbol and Schur test)")


def test_criterion_12_trace_class_facts(aenv):
    res = run_checks(
        aenv,
        ("s1_positive_trace", 50, 1e-10),
        ("s1_general_split", 50, 1e-9),
        ("trace_sandwich", 50, 1e-9),
        ("schatten_logconvexity", 50, 1e-9),
    )
    assert_clean(res)
    announce(12, "trace-class facts, sandwich bound, Schatten log-convexity")


def test_criterion_13_mphi_harness(aenv):
    res = run_checks(aenv, ("mphi_boundedness", 100, 1e-9))
    assert_clean(res)
    (r,) = res
    assert r.tier and r.tier.startswith("kappa=")
    parts = dict(kv.split("=") for kv in r.tier.split(";"))
    assert math.isfinite(float(parts["kappa"]))
    assert math.isfinite(float(parts["cov"]))
    text = report_lines(res)
    (back,) = parse_report(text)
    assert back.tier == r.tier
    announce(13, "modulation-space boundedness harness (ratios finite, reported)")


def test_criterion_14_determinism(aenv):
    items = [
        ("plancherel", 10, None),
        ("holder_lattice_conjugate", 20, None),
        ("s1_positive_trace", 5, None),
        ("window_robustness", 10, None),
    ]
    a = report_lines(run_checks(aenv, *items))
    b = report_lines(run_checks(aenv, *items))
    assert a == b, "same config must give byte-identical reports"
    announce(14, "byte-identical reports across runs")
