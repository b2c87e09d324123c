import json
import os
import pathlib
import subprocess
import sys

import numpy as np

import tflocal
from tflocal import LatticeSpec, Signal, norm2
from tflocal import cli
from tflocal.cli import config_from_dict, dispatch
from tflocal.modulation import symbol_window
from tflocal.orlicz import field_lp_norm
from tflocal.serialization import dump_signal, load_field, load_signal
from tflocal.verify import parse_report


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_unknown_subcommand(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_python_dash_m_entry_point():
    src = str(pathlib.Path(tflocal.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tflocal", "--help"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "verify" in proc.stdout


def test_missing_arguments(tmp_path, capsys):
    code, _, _ = run(capsys, "norm", "--space", "M2")
    assert code == 2
    # inputs past numpy's 64 array dimensions or Python's recursion limit
    # are usage errors too, never exit 1, which means violations
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    for argv in (
        ("gen", "--kind", "gaussian-signal", "--n", "70", "--K", "1"),
        ("stft", "--signal", str(deep)),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error: "), argv


def test_gen_signal_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        code, _, _ = run(
            capsys, "gen", "--kind", "gaussian-signal", "--seed", "5", "--out", str(p)
        )
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()
    sig = load_signal(p1.read_text())
    assert sig.spec == LatticeSpec(1, 8)
    assert sig.admissible


def test_gen_symbols(tmp_path, capsys):
    for kind in ("trig-symbol", "indicator-symbol", "rank-one-symbol", "constant-symbol"):
        out = tmp_path / f"{kind}.json"
        code, _, _ = run(capsys, "gen", "--kind", kind, "--seed", "3", "--out", str(out))
        assert code == 0
        F = load_field(out.read_text())
        assert F.m_radius == 16


def test_stft_and_norm_m2(tmp_path, capsys):
    # a signal with l2 norm exactly 5 measured in the quadratic modulation norm
    sig_path = tmp_path / "f.json"
    code, _, _ = run(
        capsys, "gen", "--kind", "gaussian-signal", "--seed", "9", "--out", str(sig_path)
    )
    assert code == 0
    f = load_signal(sig_path.read_text())
    scaled = Signal(f.spec, f.values * (5.0 / norm2(f)))
    sig_path.write_text(dump_signal(scaled))

    code, out, _ = run(capsys, "norm", "--space", "M2", "--input", str(sig_path))
    assert code == 0
    line = out.strip()
    assert abs(float(line) - 5.0) <= 1e-10 * 5.0
    assert len(line.replace(".", "").replace("-", "").lstrip("0")) <= 17

    field_path = tmp_path / "F.json"
    code, _, _ = run(
        capsys, "stft", "--signal", str(sig_path), "--out", str(field_path)
    )
    assert code == 0
    F = load_field(field_path.read_text())
    assert F.degree_bound == 8


def test_norm_spaces(tmp_path, capsys):
    sig_path = tmp_path / "f.json"
    run(capsys, "gen", "--kind", "gaussian-signal", "--seed", "4", "--out", str(sig_path))
    for space, extra in [
        ("M1.5", []),
        ("Minf", []),
        ("lphi", ["--phi", "eq5"]),
        ("MPhi", ["--phi", "eq5"]),
        ("MPhiPsi", ["--phi", "eq5", "--psi", "power:2"]),
        ("WPhiPsi", ["--phi", "power:2", "--psi", "eq5"]),
    ]:
        code, out, err = run(
            capsys, "norm", "--space", space, "--input", str(sig_path), *extra
        )
        assert code == 0, (space, err)
        assert float(out.strip()) > 0

    field_path = tmp_path / "F.json"
    run(capsys, "stft", "--signal", str(sig_path), "--out", str(field_path))
    for space, extra in [
        ("L", ["--phi", "eq5", "--psi", "power:2"]),
        ("Lstar", ["--phi", "power:2", "--psi", "eq5"]),
        ("symbol-M2", []),
    ]:
        code, out, err = run(
            capsys, "norm", "--space", space, "--input", str(field_path), *extra
        )
        assert code == 0, (space, err)
        assert float(out.strip()) > 0

    code, _, _ = run(capsys, "norm", "--space", "Mweird", "--input", str(sig_path))
    assert code == 2


def test_symbol_m2_norm_at_n2(tmp_path, capsys):
    # Moyal's identity |V_G0 sigma|_2 = |sigma|_2 |G0|_2 on the n=2, K=2 rung
    sym = tmp_path / "sigma.json"
    code, _, _ = run(capsys, "gen", "--kind", "trig-symbol", "--n", "2", "--K", "2", "--out", str(sym))
    assert code == 0
    code, out, err = run(capsys, "norm", "--space", "symbol-M2", "--input", str(sym))
    assert code == 0, err
    F = load_field(sym.read_text())
    want = field_lp_norm(F, 2.0) * field_lp_norm(symbol_window(F.spec, F.torus), 2.0)
    assert abs(float(out) - want) <= 1e-12 * want


def test_young_inline_json(tmp_path, capsys):
    sig_path = tmp_path / "f.json"
    run(capsys, "gen", "--kind", "gaussian-signal", "--seed", "4", "--out", str(sig_path))
    spec = json.dumps({"kind": "quasi", "p": 0.5, "base": {"kind": "power", "p": 4}})
    code, out, _ = run(
        capsys, "norm", "--space", "lphi", "--input", str(sig_path), "--phi", spec
    )
    assert code == 0 and float(out.strip()) > 0
    # a spec nested past Python's recursion limit, as JSON or as quasi bases
    nested = '{"kind": "quasi", "p": 0.5, "base": ' * 5000 + '{"kind": "eq5"}' + "}" * 5000
    # and one that parses but lacks its outermost p; no error may echo the spec
    base = '{"kind": "quasi", "p": 0.5, "base": ' * 400 + '{"kind": "eq5"}' + "}" * 400
    no_p = '{"kind": "quasi", "base": ' + base + "}"
    for deep in (nested, "quasi:0.5:" * 5000 + "eq5", no_p):
        for phi, psi in ((deep, "eq5"), ("eq5", deep)):
            code, _, err = run(
                capsys, "norm", "--space", "MPhiPsi", "--input", str(sig_path), "--phi", phi, "--psi", psi
            )
            assert code == 2 and err.startswith("error: "), (phi[:20], psi[:20])
            assert len(err.encode()) < 1024, (phi[:20], psi[:20])


def test_power_needs_a_finite_exponent(tmp_path, capsys):
    # Phi(t) = t^inf is no Young function, in any of the token syntaxes
    sig = tmp_path / "f.json"
    run(capsys, "gen", "--kind", "gaussian-signal", "--seed", "4", "--out", str(sig))
    for phi in ("power:inf", '{"kind": "power", "p": 1e400}', "quasi:0.5:power:inf"):
        code, _, err = run(capsys, "norm", "--space", "lphi", "--input", str(sig), "--phi", phi)
        assert code == 2 and err.startswith("error: ") and "finite" in err, phi


def test_locop_apply_refuses_a_too_high_symbol_degree(tmp_path, capsys):
    # deg sigma + 2K = 12 + 4 > M - 1 = 12: one refusal, named for the synthesis,
    # on every command that builds the operator
    sym, sig = tmp_path / "s.json", tmp_path / "f.json"
    run(capsys, "gen", "--kind", "trig-symbol", "--seed", "2", "--K", "2", "--out", str(sym))
    run(capsys, "gen", "--kind", "gaussian-signal", "--seed", "3", "--K", "2", "--out", str(sig))
    obj = json.loads(sym.read_text())
    obj["degree_bound"] = 12
    sym.write_text(json.dumps(obj))
    for argv in (
        ("locop", "--symbol", str(sym), "--apply", str(sig), "--out", str(tmp_path / "o.json")),
        ("locop", "--symbol", str(sym), "--export-kernel", str(tmp_path / "k.json")),
        ("spectrum", "--symbol", str(sym)),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 3, argv
        assert "operator synthesis not exactly integrable: degree 16 exceeds M-1 = 12" in err, argv


def test_locop_apply_and_kernel(tmp_path, capsys):
    sym = tmp_path / "s.json"
    sig = tmp_path / "f.json"
    run(capsys, "gen", "--kind", "trig-symbol", "--seed", "2", "--out", str(sym))
    run(capsys, "gen", "--kind", "gaussian-signal", "--seed", "3", "--out", str(sig))
    out = tmp_path / "Lf.json"
    code, _, _ = run(
        capsys,
        "locop",
        "--symbol",
        str(sym),
        "--apply",
        str(sig),
        "--out",
        str(out),
    )
    assert code == 0
    load_signal(out.read_text())

    kj = tmp_path / "k.json"
    code, _, _ = run(
        capsys, "locop", "--symbol", str(sym), "--export-kernel", str(kj)
    )
    assert code == 0
    kr = tmp_path / "k.bin"
    code, _, _ = run(
        capsys,
        "locop",
        "--symbol",
        str(sym),
        "--export-kernel",
        str(kr),
        "--format",
        "raw",
    )
    assert code == 0
    sidecar = json.loads((tmp_path / "k.bin.json").read_text())
    assert sidecar["order"] == "row-major"
    assert kr.stat().st_size == 2 * 8 * sidecar["size"] ** 2

    code, _, _ = run(capsys, "locop", "--symbol", str(sym))
    assert code == 2  # neither --apply nor --export-kernel

    code, out_text, _ = run(capsys, "spectrum", "--kernel", str(kj))
    assert code == 0
    summary = json.loads(out_text)
    assert summary["singular_values"][0] > 0

    code, out_text, _ = run(
        capsys, "spectrum", "--symbol", str(sym), "--ps", "1,2,inf"
    )
    assert code == 0
    assert set(json.loads(out_text)["schatten"]) == {"1", "2", "inf"}


def test_numeric_failure_exit_code(tmp_path, capsys, monkeypatch):
    # a symbol declaring the full grid degree makes the synthesis refuse
    sym, high = tmp_path / "s.json", tmp_path / "high.json"
    run(capsys, "gen", "--kind", "trig-symbol", "--seed", "2", "--out", str(sym))
    obj = json.loads(sym.read_text())
    obj["degree_bound"] = obj["M"] - 1
    high.write_text(json.dumps(obj))
    sig = tmp_path / "f.json"
    run(capsys, "gen", "--kind", "gaussian-signal", "--seed", "3", "--out", str(sig))
    code, _, err = run(
        capsys,
        "locop",
        "--symbol",
        str(high),
        "--apply",
        str(sig),
        "--out",
        str(tmp_path / "o.json"),
    )
    assert code == 3
    assert "numeric failure" in err
    # an SVD failure is a numeric failure although LinAlgError is a ValueError;
    # the symbol as generated passes the kernel's checks, so the SVD runs
    def fail(*args):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "spectrum", fail)
    code, _, err = run(capsys, "spectrum", "--symbol", str(sym))
    assert code == 3 and err.startswith("numeric failure: ") and "SVD did not converge" in err


def test_locop_apply_with_stored_radius(tmp_path, capsys):
    # the field file stores C, so a symbol and a signal made with --C 8 match
    sym, sig, out = tmp_path / "s.json", tmp_path / "f.json", tmp_path / "Lf.json"
    grid = ("--K", "2", "--C", "8")
    run(capsys, "gen", "--kind", "trig-symbol", *grid, "--out", str(sym))
    run(capsys, "gen", "--kind", "gaussian-signal", *grid, "--out", str(sig))
    code, _, err = run(
        capsys, "locop", "--symbol", str(sym), "--apply", str(sig), "--out", str(out)
    )
    assert code == 0, err
    assert load_signal(out.read_text()).spec == LatticeSpec(1, 2, 8)


def test_malformed_number_tokens(tmp_path, capsys):
    sig, sym = tmp_path / "f.json", tmp_path / "s.json"
    run(capsys, "gen", "--kind", "gaussian-signal", "--seed", "3", "--out", str(sig))
    run(capsys, "gen", "--kind", "trig-symbol", "--seed", "4", "--out", str(sym))
    lphi = ("norm", "--space", "lphi", "--input", str(sig), "--phi")
    for argv in (
        ("spectrum", "--ps", "1,abc"),
        ("gen", "--kind", "window", "--window", "gaussian:abc"),
        ("norm", "--space", "lphi", "--input", str(sig), "--phi", "power:abc"),
        ("norm", "--space", "lphi", "--input", str(sig), "--phi", "quasi:0.5"),
        # malformed inline Young-function specs
        (*lphi, '{"kind":"power"}'),
        (*lphi, '{"kind":"power","p":"abc"}'),
        (*lphi, '{"kind":"power","p":true}'),
        (*lphi, '{"kind":"power","p":1%s}' % ("0" * 400)),  # too large for a float
        (*lphi, '{"kind":"power","p":1%s}' % ("0" * 5000)),  # past the int-digit limit
        (*lphi, '{"kind":"quasi","p":0.5}'),
        # keys that the spec's kind does not take
        (*lphi, '{"kind":"eq5","p":3}'),
        (*lphi, '{"kind":"power","p":2,"typo":1}'),
        (*lphi, '{"kind":"power","p":2,"base":{"kind":"eq5"}}'),
        # long tokens, which the error must not echo
        (*lphi, '{"kind":"power","p":"%s"}' % ("x" * 5000)),
        (*lphi, "power:" + "x" * 5000),
        (*lphi, "quasi:" + "x" * 5000),
        # numbers that are not L^p exponents (p >= 1 or inf)
        ("norm", "--space", "Mnan", "--input", str(sig)),
        ("norm", "--space", "M-inf", "--input", str(sig)),
        ("norm", "--space", "M0.5", "--input", str(sig)),
        ("norm", "--space", "symbol-Mnan", "--input", str(sym)),
        ("norm", "--space", "symbol-M-inf", "--input", str(sym)),
        ("norm", "--space", "symbol-M0.5", "--input", str(sym)),
        ("spectrum", "--symbol", str(sym), "--ps", "1,-inf"),
        # gaussian widths that are not positive and finite, refused also at
        # K = 0, where the window is the delta whatever its width
        *(("gen", "--kind", "window", "--window", f"gaussian:{w}", "--K", K)
          for w in ("-1", "0", "inf", "nan") for K in ("0", "1")),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: ") and "Traceback" not in err, argv
        assert len(err.encode()) < 1024, argv


def test_mixed_norm_rejects_infinite_young_function(tmp_path, capsys):
    # quasi:0.5:power:400 is t^200, which is not finite on the probe grid;
    # the inner solve of L (phi) and of Lstar (psi) refuses it as lphi does
    sym = tmp_path / "s.json"
    run(capsys, "gen", "--kind", "trig-symbol", "--seed", "4", "--out", str(sym))
    steep = "quasi:0.5:power:400"
    for space, phi, psi in (("L", steep, "power:2"), ("Lstar", "power:2", steep)):
        code, _, err = run(
            capsys, "norm", "--space", space, "--input", str(sym), "--phi", phi, "--psi", psi
        )
        assert code == 2, space
        assert "finite Young function" in err and "Traceback" not in err, space


def test_out_of_memory_exit_code(monkeypatch, capsys):
    # exit 1 means "violations"; a request too large for memory is an error
    def too_large(args):
        raise MemoryError("Unable to allocate 8.70 GiB for an array")

    monkeypatch.setattr(cli, "_cmd_verify", too_large)
    code, _, err = run(capsys, "verify")
    assert code == 2
    assert err.startswith("error: out of memory: ") and "Traceback" not in err


def test_verify_subset_and_determinism(tmp_path, capsys):
    cfg = {
        "seed": 31,
        "lattice": {"n": 1, "K": 8},
        "checks": [
            {"id": "plancherel", "trials": 10},
            {"id": "identity_operator"},
        ],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    r1, r2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    for rpt in (r1, r2):
        code, _, _ = run(capsys, "verify", "--config", str(cfg_path), "--output", str(rpt))
        assert code == 0
    assert r1.read_bytes() == r2.read_bytes()
    results = parse_report(r1.read_text())
    assert {r.id for r in results} == {"plancherel", "identity_operator"}
    assert all(r.violations == 0 for r in results)


def test_verify_checks_flag(tmp_path, capsys):
    rpt = tmp_path / "r.jsonl"
    code, _, _ = run(
        capsys,
        "verify",
        "--checks",
        "plancherel",
        "--seed",
        "12",
        "--output",
        str(rpt),
    )
    assert code == 0
    (rec,) = parse_report(rpt.read_text())
    assert rec.id == "plancherel" and rec.seed == 12


def test_verify_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text in ("{nope", '{"seed": 1%s}' % ("0" * 5000), "[" * 200_000 + "]" * 200_000):
        bad.write_text(text)
        code, _, err = run(capsys, "verify", "--config", str(bad))
        assert code == 2 and err.startswith("error: ") and "Traceback" not in err
    check = {"id": "identity_operator"}
    for cfg in [
        {"mystery": 1},
        {"checks": [{"id": "nope"}]},
        {"checks": [{**check, "ensemble": "no-such-ensemble"}]},
        {"lattice": {"bogus": 1}},
        {"torus": {"n": 1}},
        {"window": {"path": "w.json"}},
        {"window": {"kind": "file"}},
        {"lattice": {"K": 0}, "window": {"width": -1}},
        {"window": {"kind": "kronecker", "width": 2}},
        {"lattice": [1, 2]},
        {"lattice": {"K": 2.9}},
        {"lattice": {"K": True}},
        {"seed": 1.5},
        {"checks": [{**check, "seed": 3.7}]},
        {"checks": [{**check, "trials": 2.7}]},
        {"checks": [{**check, "trials": "abc"}]},
        {"checks": [{**check, "tolerance": "x"}]},
        {"checks": [{**check, "tolerance": -1}]},
        {"checks": [{**check, "tolerance": 10**400}]},
        {"checks": {"id": "identity_operator"}},
        {"output": 1},
    ]:
        bad.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "verify", "--config", str(bad))
        assert code == 2, cfg
        assert err.startswith("error: ") and "Traceback" not in err, cfg
    # trials run serially; the option that picked a worker count is gone
    code, _, err = run(capsys, "verify", "--threads", "2")
    assert code == 2 and "--threads" in err and "Traceback" not in err
    for checks in (",", "", " , "):
        code, _, err = run(capsys, "verify", "--checks", checks)
        assert code == 2 and err.startswith("error: "), checks


def test_config_round_trip():
    obj = {
        "seed": 7,
        "lattice": {"n": 1, "K": 4},
        "torus": {"M": 25},
        "window": {"kind": "gaussian", "width": 2.0, "normalization": "l2"},
        "checks": [{"id": "plancherel", "trials": 5}],
        "output": "report.jsonl",
    }
    cfg = config_from_dict(obj)
    assert cfg.lattice.C == 12
    assert cfg.torus.M == 25
    (spec,) = cfg.checks
    assert (spec.id, spec.trials, spec.seed) == ("plancherel", 5, 7)
    assert cfg.window.width == 2.0 and cfg.output == "report.jsonl"
    # a check's own seed wins over the command line's, which wins over the file's
    obj["checks"].append({"id": "m2_identity", "seed": 3})
    cfg = config_from_dict(obj, seed=11)
    assert [s.seed for s in cfg.checks] == [11, 3]
    assert config_from_dict({}).seed == 20240801
