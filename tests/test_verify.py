import math
from dataclasses import replace

import numpy as np
import pytest

from tflocal import (
    ConditioningError,
    LatticeSpec,
    PrecisionError,
    TorusGrid,
    UsageError,
    default_specs,
    generate_ensemble,
    report_lines,
    run_suite,
)
from tflocal import orlicz, verify, young
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


def test_inversion_without_synthesis_window(env, monkeypatch, tmp_path, capsys):
    # the window search must not fall through its draw cap and use the last draw
    monkeypatch.setattr(verify, "inner", lambda h, g: 0.0)
    with pytest.raises(ConditioningError, match="synthesis window"):
        run_suite([CheckSpec(id="inversion_roundtrip", trials=1)], env)
    out = str(tmp_path / "r.jsonl")
    assert dispatch(["verify", "--checks", "inversion_roundtrip", "--output", out]) == 3
    assert "synthesis window" in capsys.readouterr().err


def test_power_reduction_catches_off_power_luxemburg_error(env, monkeypatch):
    # every non-power Luxemburg result 0.1% too large: only the bracket
    # certificate on eq5 and psi can see it, there is no closed form to compare
    spec = CheckSpec(id="luxemburg_power_reduction", trials=4)
    (clean,) = run_suite([spec], env)
    assert clean.violations == 0
    lux = verify.luxemburg

    def skewed(v, weight, phi):
        b = lux(v, weight, phi)
        return b if phi.kind == "power" else 1.001 * b

    monkeypatch.setattr(verify, "luxemburg", skewed)
    (res,) = run_suite([spec], env)
    assert res.violations > 0


def test_spectral_checks_catch_spectrum_faults(env, monkeypatch, tmp_path, capsys):
    # the spectral checks read `spectrum`, the routine behind `tflocal
    # spectrum`, so a fault in it must show: every finite Schatten norm 0.1%
    # too large, the trace 1e-6 too large, the operator norm read from s[1]
    faults = (
        (lambda S: replace(S, schatten={p: v if math.isinf(p) else 1.001 * v for p, v in S.schatten.items()}),
         ("s1_positive_trace", "trace_identity")),
        (lambda S: replace(S, trace=S.trace * (1 + 1e-6)), ("s1_positive_trace", "trace_identity")),
        (lambda S: replace(S, schatten={**S.schatten, math.inf: float(S.singular_values[1])}),
         ("s1_positive_trace",)),
    )
    spectrum = verify.spectrum
    for fault, ids in faults:
        monkeypatch.setattr(verify, "spectrum", lambda K, ps=(1.0, 2.0, math.inf), f=fault: f(spectrum(K, ps)))
        for res in run_suite([CheckSpec(id=i, trials=4) for i in ids], env):
            assert res.violations > 0, res.id

    # an SVD that fails spectrum's Hilbert-Schmidt cross-check is a numeric failure
    def unreliable(K, ps=(1.0, 2.0, math.inf)):
        raise PrecisionError("Hilbert-Schmidt cross-check failed; SVD unreliable")

    monkeypatch.setattr(verify, "spectrum", unreliable)
    out = str(tmp_path / "r.jsonl")
    assert dispatch(["verify", "--checks", "trace_identity", "--output", out]) == 3
    assert capsys.readouterr().err.startswith("numeric failure: ")


def test_power_reduction_catches_off_power_stacked_error(env, monkeypatch):
    # the same 0.1% error one layer down, in the stacked solver that the
    # Hoelder, convolution and axiom checks call: luxemburg stays right, so
    # only the equal-bits margin against it can see the fault
    spec = CheckSpec(id="luxemburg_power_reduction", trials=4)
    stack = verify._lux_stack

    def skewed(blocks, weight, phis):
        out = stack(blocks, weight, phis)
        return np.array([b if phi.kind == "power" else 1.001 * b for b, phi in zip(out, phis)])

    monkeypatch.setattr(verify, "_lux_stack", skewed)
    (res,) = run_suite([spec], env)
    assert res.violations > 0


def test_power_reduction_catches_table_lookup_and_quasi_faults(env, monkeypatch):
    # a table lookup that never bumps its floor to the segment above, and a
    # quasi function that takes base(t)^p: the certificate evaluates the same
    # faulty function and passes, so only the comparison with interpolation
    # through psi's nodes, resp. the quasi reduction identity, can see them
    spec = CheckSpec(id="luxemburg_power_reduction", trials=4)
    (clean,) = run_suite([spec], env)
    assert clean.violations == 0

    def unbumped(grid, t):
        u = np.fmin(np.log(np.maximum(t, grid.upper[0])) * grid.scale + grid.lead, grid.top)
        return u.astype(np.intp)

    evaluate = young.YoungFunction._eval

    def outer_power(phi, t):
        return phi.base._eval(t) ** phi.p if phi.kind == "quasi" else evaluate(phi, t)

    for cls, name, fault in ((young._LogGrid, "segment", unbumped), (young.YoungFunction, "_eval", outer_power)):
        with monkeypatch.context() as m:
            m.setattr(cls, name, fault)
            (res,) = run_suite([spec], env)
        assert res.violations > 0, name


# the seven Hoelder and convolution checks that solve many trials' Luxemburg
# norms together, and the report that solving every trial's norms on their
# own gives at 40 trials each
_STACKED = (
    "holder_lattice_power",
    "holder_lattice_conjugate",
    "holder_mixed_power",
    "holder_mixed_conjugate",
    "convolution_mixed_power",
    "convolution_mixed_orlicz",
    "convolution_product",
)
GOLDEN_STACKED = """\
{"id": "holder_lattice_power", "trials": 40, "violations": 0, "worst_margin": 0.12378482217783143, "seed": 20240801, "elapsed": 0, "tier": "holder-constant-1"}
{"id": "holder_lattice_conjugate", "trials": 40, "violations": 0, "worst_margin": 0.19128746694602855, "seed": 20240801, "elapsed": 0, "tier": "holder-constant-2"}
{"id": "holder_mixed_power", "trials": 40, "violations": 0, "worst_margin": 0.19455233489350757, "seed": 20240801, "elapsed": 0, "tier": "holder-constant-1"}
{"id": "holder_mixed_conjugate", "trials": 40, "violations": 0, "worst_margin": 0.27560239656987484, "seed": 20240801, "elapsed": 0, "tier": "holder-constant-2"}
{"id": "convolution_mixed_power", "trials": 40, "violations": 0, "worst_margin": -1.1184126841495278e-16, "seed": 20240801, "elapsed": 0, "tier": null}
{"id": "convolution_mixed_orlicz", "trials": 40, "violations": 0, "worst_margin": -1.1229509425432089e-16, "seed": 20240801, "elapsed": 0, "tier": null}
{"id": "convolution_product", "trials": 40, "violations": 0, "worst_margin": -1.1917165747643366e-16, "seed": 20240801, "elapsed": 0, "tier": null}
"""


@pytest.mark.parametrize("held", [1, 100, 10_000, None])
def test_stacked_checks_report_is_part_free(env, monkeypatch, held):
    # held = 1 solves trial by trial; 100 splits the lattice checks into
    # parts of three trials; 10,000 splits the mixed checks into parts of
    # three or four; the default keeps 14 to 21 mixed trials per part
    if held is not None:
        monkeypatch.setattr(verify, "_HELD_VALUES", held)
    results = run_suite([CheckSpec(cid, trials=40) for cid in _STACKED], env)
    assert report_lines(results) == GOLDEN_STACKED


def test_stacked_checks_solve_once_per_young_function(env, monkeypatch):
    # 20 trials make one part, whose rows share one solve per Young
    # function: per trial these checks would make 80 and 40 solves
    calls = []
    solve = orlicz._lux_batched

    def counted(v, weight, phi):
        calls.append(phi)
        return solve(v, weight, phi)

    monkeypatch.setattr(orlicz, "_lux_batched", counted)
    for cid, most in (("holder_mixed_conjugate", 4), ("holder_lattice_conjugate", 2)):
        calls.clear()
        (res,) = run_suite([CheckSpec(cid, trials=20)], env)
        assert res.violations == 0
        assert 0 < len(calls) <= most, (cid, len(calls))


def test_stacked_parts_close_at_the_held_bound(env, monkeypatch):
    # trials join a part until its requests hold _HELD_VALUES values, so
    # every part but the last reaches the bound and none passes it by a
    # whole trial; each trial's two requests, F under (phi1, phi2) and G
    # under the conjugate pair, reach one solve together and in trial order
    held = 10_000
    monkeypatch.setattr(verify, "_HELD_VALUES", held)
    parts = []
    solve = verify._solve

    def recorded(env, part):
        parts.append([requests for requests, _ in part])
        return solve(env, part)

    monkeypatch.setattr(verify, "_solve", recorded)
    (res,) = run_suite([CheckSpec("holder_mixed_power", trials=40)], env)
    assert report_lines([res]) == GOLDEN_STACKED.splitlines(keepends=True)[2]
    trials = [trial for part in parts for trial in part]
    assert [[young for _, _, young in trial] for trial in trials] == [
        list(verify._mixed_holder_powers(env, t)) for t in range(40)
    ]
    per_trial = {sum(a.size for a, _, _ in trial) for trial in trials}
    assert len(per_trial) == 1  # 3,234 values at the desk
    sizes = [sum(a.size for trial in part for a, _, _ in trial) for part in parts]
    assert len(parts) > 2
    assert all(s >= held for s in sizes[:-1])
    assert all(s < held + min(per_trial) for s in sizes)


def test_stacked_finishers_keep_only_scalars(env, monkeypatch):
    # a part keeps every trial's finish until it is solved, so a finish that
    # closed over F, G or F * G would hold a part's fields alive twice
    finishers = []
    solve = verify._solve

    def recorded(env, part):
        finishers.extend(finish for _, finish in part)
        return solve(env, part)

    monkeypatch.setattr(verify, "_solve", recorded)
    run_suite([CheckSpec(cid, trials=3) for cid in _STACKED + _AXIOMS], env)
    assert len(finishers) == 3 * len(_STACKED + _AXIOMS)
    for finish in finishers:
        cells = [cell.cell_contents for cell in finish.__closure__ or ()]
        assert all(isinstance(v, (int, float)) for v in cells), finish.__qualname__


def test_desk_checks_solve_power_and_eq5_in_closed_form(env, monkeypatch):
    # every power, eq5 and psi-table row of the desk checks certifies its
    # direct root, so no row reaches the bisection
    fallback = []
    bisect = orlicz._lux_bisect

    def spy(va, weight, phi):
        fallback.append((phi.kind, len(va)))
        return bisect(va, weight, phi)

    monkeypatch.setattr(orlicz, "_lux_bisect", spy)
    results = run_suite([CheckSpec(cid, trials=3) for cid in REGISTRY], env)
    assert all(r.violations == 0 for r in results)
    assert fallback == []


# the three norm-axiom checks at their registry trial counts, as solving
# every trial's norms on its own reports them
_AXIOMS = ("orlicz_homogeneity", "orlicz_triangle", "orlicz_monotonicity")
GOLDEN_AXIOMS = """\
{"id": "orlicz_homogeneity", "trials": 100, "violations": 0, "worst_margin": -6.3621626416067753e-16, "seed": 20240801, "elapsed": 0, "tier": null}
{"id": "orlicz_triangle", "trials": 100, "violations": 0, "worst_margin": 0.28507599550907708, "seed": 20240801, "elapsed": 0, "tier": null}
{"id": "orlicz_monotonicity", "trials": 100, "violations": 0, "worst_margin": 0.401678359329254, "seed": 20240801, "elapsed": 0, "tier": null}
"""


@pytest.mark.parametrize("held", [1, 10_000, None])
def test_axiom_checks_report_is_part_free(env, monkeypatch, held):
    if held is not None:
        monkeypatch.setattr(verify, "_HELD_VALUES", held)
    assert report_lines(run_suite([CheckSpec(cid) for cid in _AXIOMS], env)) == GOLDEN_AXIOMS


# the three checks whose tier summarizes all their trials: the flank
# embedding constants, the window-change ratio and the M^Phi ratio spread
GOLDEN_SUMMARY = """\
{"id": "inclusion_chain_flanks", "trials": 1, "violations": 0, "worst_margin": 0, "seed": 20240801, "elapsed": 0, "tier": "C_left=0.73575888234288456;C_right=0.5"}
{"id": "window_robustness", "trials": 5, "violations": 0, "worst_margin": 0, "seed": 20240801, "elapsed": 0, "tier": "R=1.0026638675501447"}
{"id": "mphi_boundedness", "trials": 3, "violations": 0, "worst_margin": -1.2406967789963575e-15, "seed": 20240801, "elapsed": 0, "tier": "kappa=0.0032236001488751601;cov=0.092701487362455343"}
"""


def test_summary_checks_report(env):
    specs = [
        CheckSpec("inclusion_chain_flanks"),
        CheckSpec("window_robustness", trials=5),
        CheckSpec("mphi_boundedness", trials=3),
    ]
    assert report_lines(run_suite(specs, env)) == GOLDEN_SUMMARY


# the tier each stacked check's registry row binds
_STACKED_TIERS = {
    **dict.fromkeys(_STACKED + _AXIOMS),
    "holder_lattice_power": "holder-constant-1",
    "holder_mixed_power": "holder-constant-1",
    "holder_lattice_conjugate": "holder-constant-2",
    "holder_mixed_conjugate": "holder-constant-2",
}


@pytest.mark.parametrize("cid", sorted(REGISTRY))
def test_every_check_gives_one_margin_per_trial(small_env, cid):
    # run_suite copies the trial count from the spec, so only this sees a
    # check that drops or adds a trial; a stacked row bound to the wrong
    # tier fails here too
    spec = CheckSpec(cid, trials=3)
    stream = ((t, trial_rng(spec.seed, cid, t)) for t in range(spec.trials))
    worst, tier = REGISTRY[cid].run(small_env, spec, stream)
    assert len(worst) == 3
    assert all(isinstance(m, float) and math.isfinite(m) for m in worst)
    assert tier is None or isinstance(tier, str)
    if cid in _STACKED_TIERS:
        assert tier == _STACKED_TIERS[cid]


def test_nan_equality_margin_is_a_violation(env, monkeypatch, tmp_path):
    # a NaN deviation fails every trial and leaves the report readable
    monkeypatch.setattr(verify, "modulation_norm", lambda *args: float("nan"))
    (res,) = run_suite([CheckSpec("m2_identity", trials=3)], env)
    assert (res.violations, res.worst_margin) == (3, -1e300)
    text = report_lines([res])
    assert report_lines(parse_report(text)) == text
    out = str(tmp_path / "r.jsonl")
    assert dispatch(["verify", "--checks", "m2_identity", "--output", out]) == 1


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
    # trials run serially: the benchmark still passes threads=1, nothing else is accepted
    for bad in (0, 2):
        with pytest.raises(UsageError, match="threads"):
            run_suite([spec], env, threads=bad)
    (res,) = run_suite([spec], env, threads=1)
    assert res.trials == 3 and res.violations == 0


def test_mphi_boundedness_n2_k2():
    # the symbol norm streams, so the n=2 rung of the scale ladder runs
    env2 = Environment(LatticeSpec(2, 2), TorusGrid(2, 13))
    (res,) = run_suite([CheckSpec("mphi_boundedness", trials=1)], env2)
    assert res.violations == 0
