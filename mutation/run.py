"""Mutation runner: which injected faults the desk `tflocal verify` kills.

    python3 mutation/run.py

Each mutant is a fixed text patch (a file of the package, its old text, the
new text).  The runner first runs the unpatched package, which must pass.
Then, one mutant at a time, it copies the `src/` directory next to this
one into a temporary directory, replaces the old text (which must occur in
the file exactly once), runs `python -m tflocal verify` on the copy, and
removes the copy.  That run is the whole registry at the desk scale (n=1,
K=8, M=49) with registry trials and tolerances, in one process with BLAS
pinned to one thread.  A mutant is killed when its run exits non-zero:
exit code 1 comes with the ids of the checks that reported violations, any
other code (3 is a numeric failure) with the first line of stderr.  The
last line of output is killed/total.  A fault in the order of the lattice
axes, such as N1, is an identity at n = 1, so the desk run cannot kill it;
its description says so.  E6, E7 and E11 are phase faults of the
second-level transform, to which Parseval makes the p = 2 Moyal margin
blind.  The desk run kills them by `mphi_boundedness`'s drawn transform
entry, compared with its defining sum once for the rank-one symbol window
and once for an odd random window, which take the two paths of
`_SymbolShifts.slab`.  E6 is an identity on the symbol window, whose
coefficients are real and even, and E11 reaches only the rank-one path.
M12 and M13 are killed by `luxemburg_power_reduction`: the first by the
table lookup compared with interpolation through the nodes, the second by
the quasi reduction identity, whose base is eq5 because for a power base
the fault is an identity.  M6 is killed by the three convolution checks,
each of which compares one drawn entry of F * G with its defining
quadrature sum; a lower torus degree leaves the Young inequality intact.
E12 is killed by `trace_sandwich`, which compares one drawn sigma_tilde
entry, made by the phase-space convolution, with <L a, a> from the kernel.
E13 hands the stacked checks each other's norms.  Each is a bound or an
identity of one trial's own norms, so another trial's norms break the
lattice Hoelder, homogeneity and monotonicity checks; the mixed Hoelder,
convolution and triangle bounds have slack enough to hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parents[1] / "src"


class Mutant(NamedTuple):
    id: str
    fault: str
    file: str  # under src/tflocal
    old: str
    new: str


MUTANTS = (
    Mutant("S1", "spectrum: every finite Schatten norm x1.001", "locop.py",
           "sch[p] = float((s**p).sum() ** (1.0 / p))",
           "sch[p] = 1.001 * float((s**p).sum() ** (1.0 / p))"),
    Mutant("S2", "spectrum: trace x(1 + 1e-6)", "locop.py",
           "tr = complex(np.trace(K.matrix))",
           "tr = complex(np.trace(K.matrix)) * (1 + 1e-6)"),
    Mutant("S3", "spectrum: Schatten-inf norm read from s[1]", "locop.py",
           "sch[p] = float(s[0]) if s.size else 0.0",
           "sch[p] = float(s[1]) if s.size else 0.0"),
    Mutant("M1", "eq5 head -t^2 log t x1.01", "young.py",
           "head = s * s",
           "head = 1.01 * s * s"),
    Mutant("M2", "luxemburg: non-power results x1.001", "orlicz.py",
           "return float(_lux_batched(v, weight, phi)[0])",
           "return float(_lux_batched(v, weight, phi)[0]) * (1.0 if phi.kind == 'power' else 1.001)"),
    Mutant("M2b", "_lux_stack: non-power results x1.001", "orlicz.py",
           "out[idx] = _lux_batched(rows, weight, phi).reshape((len(idx),) + shape[:-1])",
           "out[idx] = _lux_batched(rows, weight, phi).reshape((len(idx),) + shape[:-1])"
           " * (1.0 if phi.kind == 'power' else 1.001)"),
    Mutant("M3", "_mixed_norms: phi2 inside, phi1 outside", "orlicz.py",
           "inner = _lux_stack([a.T for a in fields], 1.0, phi1s)\n    return _lux_stack(inner, weight, phi2s)",
           "inner = _lux_stack([a.T for a in fields], 1.0, phi2s)\n    return _lux_stack(inner, weight, phi1s)"),
    Mutant("M4", "orlicz_modulation_norm: WPhiPsi routed to mixed_norm", "modulation.py",
           "return mixed_norm_swapped(F, phi, psi)",
           "return mixed_norm(F, phi, psi)"),
    Mutant("M5", "symbol_modulation_norm x1.01", "modulation.py",
           "return float((sigma.torus.weight**2 * acc) ** (1.0 / p))",
           "return 1.01 * float((sigma.torus.weight**2 * acc) ** (1.0 / p))"),
    Mutant("M6", "convolve_phase_space: torus degree one lower", "orlicz.py",
           "deg = min(F.degree_bound, G.degree_bound)",
           "deg = min(F.degree_bound, G.degree_bound) - 1"),
    Mutant("M7", "conjugate_table values x0.5", "young.py",
           "vals = complementary(phi, ys_grid)",
           "vals = 0.5 * complementary(phi, ys_grid)"),
    Mutant("M9", "eq5 tail constant e^-3/2 x1.01", "young.py",
           "EQ5_TAIL = math.exp(-3.0) / 2.0",
           "EQ5_TAIL = 1.01 * math.exp(-3.0) / 2.0"),
    Mutant("M10", "conjugate_table node values x0.999", "young.py",
           "vals = complementary(phi, ys_grid)",
           "vals = 0.999 * complementary(phi, ys_grid)"),
    Mutant("M11", "holder_pairing x0.999", "orlicz.py",
           "return float(F.torus.weight * np.abs(F.values * G.values).sum())",
           "return 0.999 * float(F.torus.weight * np.abs(F.values * G.values).sum())"),
    Mutant("M12", "table lookup: segment never bumped", "young.py",
           "j += t >= self.upper[j]",
           "pass"),
    Mutant("M13", "quasi: base(t)^p in place of base(t^p)", "young.py",
           "return self.base._eval(t**self.p)",
           "return self.base._eval(t) ** self.p"),
    Mutant("N1", "overlap: axis order of m reversed (no-op at n = 1)", "lattice.py",
           "for a in map(int, m):",
           "for a in map(int, m[::-1]):"),
    Mutant("E6", "_SymbolShifts: window coefficients not conjugated", "stft.py",
           "np.conj(field_coefficients(G))",
           "field_coefficients(G)"),
    Mutant("E7", "_SymbolShifts.slab: xi phase sign flipped", "stft.py",
           "phase_matrix(M, -Rf, Rf, -1, n)",
           "phase_matrix(M, -Rf, Rf, 1, n)"),
    Mutant("E11", "_SymbolShifts rank-one H: omega phase sign flipped", "stft.py",
           "np.matmul((self._cF[jj] * c).reshape(Dk, Bn), Eb, out=H[jj])",
           "np.matmul((self._cF[jj] * c).reshape(Dk, Bn), Eb.conj(), out=H[jj])"),
    Mutant("E3", "kernel: g1 and g2 swapped in the block", "locop.py",
           "G = _local(g2)[:, None] * np.conj(_local(g1))[None, :]",
           "G = _local(g1)[:, None] * np.conj(_local(g2))[None, :]"),
    Mutant("E9", "apply_operator: symbol conjugated", "locop.py",
           "prod = sigma.values * _crop(V.values, sigma)",
           "prod = np.conj(sigma.values) * _crop(V.values, sigma)"),
    Mutant("E10", "kernel: symbol phase sign flipped", "locop.py",
           "P = phase_matrix(torus.M, -2 * R, 2 * R, 1, n)",
           "P = phase_matrix(torus.M, -2 * R, 2 * R, -1, n)"),
    Mutant("E1", "stft analysis: phase of m sign flipped", "stft.py",
           "out *= phase_matrix(torus.M, -R, R, -1, n)",
           "out *= phase_matrix(torus.M, -R, R, 1, n)"),
    Mutant("E2", "_synthesis_values: weight x1.001", "stft.py",
           "coef = (coef @ phase_matrix(M, -K, K, 1, n).T) * torus.weight",
           "coef = (coef @ phase_matrix(M, -K, K, 1, n).T) * torus.weight * 1.001"),
    Mutant("E12", "sigma_tilde: lattice crop off by one", "locop.py",
           "overlap((0,) * n, R, R + 2 * K)",
           "overlap((1,) * n, R, R + 2 * K)"),
    Mutant("E13", "stacked runner hands a part's norms to the wrong trials", "verify.py",
           "out[idx] = got",
           "out[idx] = got[::-1]"),
    Mutant("E5", "weak_pairing: Vh not conjugated", "locop.py",
           "np.conj(_crop(Vh, sigma))",
           "_crop(Vh, sigma)"),
    Mutant("E8", "field_coefficients: weight x(1 + 1e-9)", "lattice.py",
           "coef *= F.torus.weight",
           "coef *= F.torus.weight * (1 + 1e-9)"),
)


def apply(path: Path, old: str, new: str) -> None:
    """Replace the one occurrence of old in the file; any other count raises."""
    text = path.read_text()
    count = text.count(old)
    if count != 1:
        raise ValueError(f"{path.name}: patch target occurs {count} times, not once: {old!r}")
    path.write_text(text.replace(old, new))


def verify(mutant: Mutant | None) -> tuple[int, str]:
    """Exit code of the desk `tflocal verify` on a patched copy of src/, and what killed it."""
    with tempfile.TemporaryDirectory(prefix="tflocal-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            apply(src / "tflocal" / mutant.file, mutant.old, mutant.new)
        report = Path(tmp) / "report.jsonl"
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
        proc = subprocess.run(
            [sys.executable, "-m", "tflocal", "verify", "--output", str(report)],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
        if proc.returncode == 1:
            rows = [json.loads(line) for line in report.read_text().splitlines()]
            return 1, ", ".join(f"{r['id']} ({r['violations']})" for r in rows if r["violations"])
        return proc.returncode, (proc.stderr.strip().splitlines() or [""])[0]


def main() -> int:
    code, why = verify(None)
    if code != 0:
        print(f"the unpatched package does not pass (exit {code}): {why}")
        return 2
    killed = 0
    for m in MUTANTS:
        code, why = verify(m)
        killed += code != 0
        verdict = "survived" if code == 0 else f"killed by {why}" if code == 1 else f"killed, exit {code}: {why}"
        print(f"{m.id:<4} {m.fault:<56} {verdict}", flush=True)
    print(f"killed {killed}/{len(MUTANTS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
