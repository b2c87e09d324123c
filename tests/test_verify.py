import numpy as np
import pytest

from tflocal import (
    ConditioningError,
    LatticeSpec,
    TorusGrid,
    UsageError,
    default_specs,
    generate_ensemble,
    report_lines,
    run_suite,
)
from tflocal import verify
from tflocal.cli import dispatch
from tflocal.verify import (
    REGISTRY,
    SPEC_INVARIANTS,
    CheckSpec,
    Environment,
    parse_report,
    trial_rng,
)


def test_empty_suite(env):
    assert run_suite([], env) == []
    assert report_lines([]) == ""


def test_unknown_id(env):
    with pytest.raises(UsageError, match="foo"):
        run_suite([CheckSpec(id="foo")], env)
    with pytest.raises(UsageError):
        default_specs(["nope"])


def test_env_validation():
    with pytest.raises(UsageError):
        Environment(LatticeSpec(1, 8), TorusGrid(1, 31))  # M < 6K+1


def test_ensemble_determinism_and_shapes(env):
    for kind in ("gaussian-signal", "trig-symbol", "indicator-symbol", "rank-one-symbol"):
        a = generate_ensemble(kind, 5, env)
        b = generate_ensemble(kind, 5, env)
        assert np.array_equal(a.values, b.values)
        c = generate_ensemble(kind, 6, env)
        assert not np.array_equal(a.values, c.values)
    ind = generate_ensemble("indicator-symbol", 3, env)
    assert ind.values.real.min() >= 0 and np.abs(ind.values.imag).max() == 0
    with pytest.raises(UsageError):
        generate_ensemble("mystery", 1, env)


def test_rank_one_same_window_nonneg(env):
    from tflocal.verify import _rank_one_symbol

    rng = trial_rng(1, "rank-one-same", 0)
    F = _rank_one_symbol(env, rng, same=True)
    assert F.values.real.min() >= -1e-12
    assert np.abs(F.values.imag).max() <= 1e-12


def test_registry_completeness():
    mapped = set()
    for inv, ids in SPEC_INVARIANTS.items():
        assert ids, f"invariant {inv} has no registered check"
        for cid in ids:
            assert cid in REGISTRY, f"invariant {inv} maps to unknown id {cid}"
            mapped.add(cid)
    unmapped = set(REGISTRY) - mapped
    assert not unmapped, f"registered checks not tied to an invariant: {unmapped}"


def test_result_invariant_and_report_round_trip(env):
    specs = default_specs(["plancherel", "luxemburg_power_reduction"], seed=7)
    specs = [CheckSpec(id=s.id, trials=10, seed=7) for s in specs]
    results = run_suite(specs, env)
    for r in results:
        assert (r.violations == 0) == (r.worst_margin >= -REGISTRY[r.id].tolerance)
        assert r.elapsed >= 0
    text = report_lines(results)
    back = parse_report(text)
    assert [b.id for b in back] == [r.id for r in results]
    assert all(b.elapsed == 0.0 for b in back)
    assert report_lines(back) == text


def test_plancherel_suite_run(env):
    res = run_suite([CheckSpec(id="plancherel", trials=100, seed=11)], env)
    assert res[0].violations == 0


def test_determinism_across_threads(env):
    # holder_lattice_conjugate has the workers share env.psi's read-only table
    ids = ["plancherel", "holder_lattice_power", "holder_lattice_conjugate", "s1_positive_trace"]
    specs = [CheckSpec(id=i, trials=8, seed=99) for i in ids]
    a = report_lines(run_suite(specs, env, threads=1))
    b = report_lines(run_suite(specs, env, threads=4))
    assert a == b


def test_inversion_without_synthesis_window(env, monkeypatch, tmp_path, capsys):
    # the window search must not fall through its draw cap and use the last draw
    monkeypatch.setattr(verify, "inner", lambda h, g: 0.0)
    with pytest.raises(ConditioningError, match="synthesis window"):
        run_suite([CheckSpec(id="inversion_roundtrip", trials=1)], env)
    out = str(tmp_path / "r.jsonl")
    assert dispatch(["verify", "--checks", "inversion_roundtrip", "--output", out]) == 3
    assert "synthesis window" in capsys.readouterr().err


def test_trial_rng_splitting():
    a = trial_rng(1, "x", 0).standard_normal(4)
    b = trial_rng(1, "x", 0).standard_normal(4)
    c = trial_rng(1, "x", 1).standard_normal(4)
    d = trial_rng(1, "y", 0).standard_normal(4)
    e = trial_rng(2, "x", 0).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(a, e)


def test_trials_validation(env):
    with pytest.raises(UsageError):
        run_suite([CheckSpec(id="plancherel", trials=0)], env)
    for bad in (
        {"trials": 2.7},
        {"trials": "abc"},
        {"trials": True},
        {"tolerance": "x"},
        {"tolerance": -1},
        {"tolerance": float("nan")},
        {"seed": 3.7},
    ):
        with pytest.raises(UsageError):
            CheckSpec(id="plancherel", **bad)
    row = REGISTRY["plancherel"]
    assert CheckSpec("plancherel") == CheckSpec("plancherel", row.trials, row.tolerance)
    spec = CheckSpec(id="plancherel", trials=3.0, tolerance=1)
    assert (spec.trials, spec.tolerance) == (3, 1.0)
    with pytest.raises(UsageError, match="threads"):
        run_suite([spec], env, threads=0)


def test_mphi_boundedness_n2_k2():
    # the symbol norm streams, so the n=2 rung of the scale ladder runs
    env2 = Environment(LatticeSpec(2, 2), TorusGrid(2, 13))
    (res,) = run_suite([CheckSpec("mphi_boundedness", trials=1)], env2)
    assert res.violations == 0
