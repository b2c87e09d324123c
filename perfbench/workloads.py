"""The benchmark's three workloads, their seeded inputs and their checks.

Each workload builds its fixtures in `setup`, then hands out rounds of ops.
An op is (label, run, check): `run(step)` makes each of its library calls as
`step(fn, *args, **kwargs)`, which times the call, and `check` compares the
op's result with an identity at the registry tolerance and returns the
failures it found (an empty list when the op is correct).  Inputs are
drawn from the benchmark seed before a round starts, so the library only
receives generated arrays.  NOTES.md says why each workload exists.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

import tflocal as tf
from tflocal import serialization, verify
from tflocal.lattice import signal_from_block

# per size: the workload's lattice scales (n, K), with M = 6K + 1 throughout
SIZES = {
    "desk": {
        "verify-desk": {"scale": (1, 8), "trial_share": 0.05},
        "operators": {"large": (2, 2), "small": (1, 16), "small_per_large": 6},
        "norms": {"scale": (1, 12), "signal_per_symbol": 16},
    },
    "tiny": {
        "verify-desk": {"scale": (1, 2), "trial_share": 0.0},
        "operators": {"large": (2, 1), "small": (1, 2), "small_per_large": 2},
        "norms": {"scale": (1, 2), "signal_per_symbol": 2},
    },
}

_TINY = 1e-300


def tolerance(check_id: str) -> float:
    return verify.REGISTRY[check_id].tolerance


def fixtures(n: int, K: int) -> verify.Environment:
    """Windows, conjugate_table(eq5) and symbol_window on one lattice scale."""
    env = verify.Environment(tf.LatticeSpec(n, K), tf.TorusGrid(n, 6 * K + 1))
    env.window, env.window2, env.psi, env.G0  # the properties build and cache them
    return env


def _crandn(rng, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)


def random_signal(env, rng) -> tf.Signal:
    """Admissible signal with i.i.d. complex normal entries on [-K, K]^n."""
    K, n = env.lattice.K, env.lattice.n
    return signal_from_block(env.lattice, _crandn(rng, (2 * K + 1,) * n))


def trig_symbol(env, rng) -> tf.PhaseSpaceField:
    """Random trigonometric symbol of degree K on lattice radius 2K."""
    K, n, M = env.lattice.K, env.lattice.n, env.torus.M
    coefs = _crandn(rng, (4 * K + 1,) * n + (2 * K + 1,) * n)
    E = np.exp(2j * np.pi * np.outer(np.arange(-K, K + 1), np.arange(M)) / M)
    vals = coefs
    for _ in range(n):
        vals = np.tensordot(vals, E, axes=([n], [0]))
    return tf.PhaseSpaceField(env.lattice, env.torus, 2 * K, vals, degree_bound=K)


def _rel_gap(a, b, scale) -> float:
    return abs(a - b) / max(scale, _TINY)


def _expect(failures: list, what: str, gap: float, tol: float) -> None:
    if not gap <= tol:
        failures.append(f"{what}: relative gap {gap:.3e} exceeds {tol:g}")


class Workload:
    name = ""

    def __init__(self, size: str, seed: int):
        self.seed = seed
        self.cfg = SIZES[size][self.name]

    def rng(self, op_index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, op_index])

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self, round_index: int) -> list:
        raise NotImplementedError

    def round_check(self, results: list) -> list:
        """Failures that concern a whole round rather than one op."""
        return []


class VerifyDesk(Workload):
    """Every registered check, one op each, sharing one Environment.

    A round runs the whole registry with each check's trial count scaled by
    `trial_share` (at least one trial), so that several rounds fit in a run.
    """

    name = "verify-desk"
    first_report = None

    def setup(self):
        self.env = fixtures(*self.cfg["scale"])

    def ops(self, round_index):
        out = []
        for cid in verify.registered_ids():
            trials = max(1, round(verify.REGISTRY[cid].trials * self.cfg["trial_share"]))
            spec = verify.CheckSpec(cid, trials=trials, seed=self.seed)
            out.append((f"verify.check.{cid}", self._runner(spec), self._check))
        return out

    def _runner(self, spec):
        return lambda step: step(verify.run_suite, [spec], self.env, threads=1)[0]

    @staticmethod
    def _check(res):
        if res.violations:
            return [f"{res.id}: {res.violations} violations, worst {res.worst_margin}"]
        return []

    def round_check(self, results):
        report = verify.report_lines(results)
        if self.first_report is None:
            self.first_report = report
        if report != self.first_report:
            return ["canonical report bytes differ from the first round's"]
        return []


class Operators(Workload):
    """Localization-operator pipeline per seeded symbol and window pair."""

    name = "operators"

    def setup(self):
        self.envs = {s: fixtures(*s) for s in (self.cfg["large"], self.cfg["small"])}

    def ops(self, round_index):
        scales = [self.cfg["large"]] + [self.cfg["small"]] * self.cfg["small_per_large"]
        base = round_index * len(scales)
        out = []
        for i, scale in enumerate(scales):
            env = self.envs[scale]
            rng = self.rng(base + i)
            sigma, f, h = trig_symbol(env, rng), random_signal(env, rng), random_signal(env, rng)
            label = "operators.n{}K{}".format(*scale)
            out.append((label, self._runner(env, sigma, f, h), self._check))
        return out

    @staticmethod
    def _runner(env, sigma, f, h):
        g1, g2 = env.window, env.window2

        def run(step):
            r = {"env": env, "sigma": sigma, "f": f, "h": h}
            r["K"] = step(tf.kernel, sigma, g1, g2)
            r["out"] = step(tf.apply_operator, sigma, g1, g2, f)
            r["adj"] = step(tf.adjoint_kernel, sigma, g1, g2)
            r["wp"] = step(tf.weak_pairing, sigma, g1, g2, f, h)
            r["st"] = step(tf.sigma_tilde, sigma, g1)
            text = step(serialization.dump_kernel_json, r["K"])
            r["loaded"] = step(serialization.load_kernel_json, text)
            r["summary"] = step(tf.spectrum, r["loaded"])
            return r

        return run

    @staticmethod
    def _check(r):
        env, sigma, f, h, K = r["env"], r["sigma"], r["f"], r["h"], r["K"]
        g1, g2, w = env.window, env.window2, env.torus.weight
        fails: list = []
        # two paths: matrix-vector product and weak pairing against apply_operator
        out = r["out"].values
        scale = max(float(np.abs(out).max()), _TINY)
        gap = float(np.abs(K.matvec(f).values - out).max()) / scale
        _expect(fails, "kernel matvec vs apply_operator", gap, tolerance("locop_two_path"))
        ip = tf.inner(r["out"], h)
        gap = _rel_gap(r["wp"], ip, max(abs(ip), scale * tf.norm2(h)))
        _expect(fails, "weak_pairing vs <Lf, h>", gap, tolerance("locop_two_path"))
        # adjoint kernel is the conjugate transpose
        A = K.matrix.conj().T
        gap = float(np.abs(A - r["adj"].matrix).max()) / max(float(np.abs(A).max()), 1.0)
        _expect(fails, "adjoint_kernel vs K^H", gap, tolerance("adjoint_identity"))
        # trace and Hilbert-Schmidt identities on the reloaded kernel
        summ = r["summary"]
        mass = complex(w * sigma.values.sum())
        expected = tf.inner(g2, g1) * mass
        scale = max(
            abs(expected),
            tf.norm2(g1) * tf.norm2(g2) * w * float(np.abs(sigma.values).sum()),
        )
        tol = tolerance("trace_identity")
        _expect(fails, "trace identity", _rel_gap(summ.trace, expected, scale), tol)
        hs_sv = float(np.sqrt((summ.singular_values**2).sum()))
        _expect(fails, "Hilbert-Schmidt identity", _rel_gap(summ.hs_norm, hs_sv, summ.hs_norm), tol)
        # exact JSON round trip
        loaded = r["loaded"]
        if loaded.matrix.tobytes() != K.matrix.tobytes() or loaded.provenance != K.provenance:
            fails.append("kernel JSON round trip is not exact")
        # sum of w * sigma_tilde equals sum_k D(k) K_gg(k, k), D = sum_m |g(. - m)|^2
        gap, scale = _sigma_tilde_gap(sigma, g1, r["st"])
        _expect(fails, "sigma_tilde mass identity", gap / max(scale, _TINY), tol)
        return fails


def _sigma_tilde_gap(sigma, g, st):
    """|w sum sigma_tilde - sum_k D(k) K(k, k)| and its scale, for kernel K = L(sigma, g, g).

    The torus sum of the atom outer products is diagonal because the box
    side 6K + 1 does not exceed M, and an admissible window shifted by at
    most 2K stays inside the box, so np.roll shifts it without wraparound.
    """
    n, R, w = sigma.spec.n, sigma.m_radius, sigma.torus.weight
    g2 = np.abs(g.values) ** 2
    S = w * sigma.values.reshape(sigma.lattice_shape + (-1,)).sum(axis=-1)
    D = np.zeros(g2.shape)
    diag = np.zeros(g2.shape, dtype=np.complex128)
    absdiag = np.zeros(g2.shape)
    for m in itertools.product(range(-R, R + 1), repeat=n):
        shifted = np.roll(g2, m, axis=tuple(range(n)))
        s = S[tuple(c + R for c in m)]
        D += shifted
        diag += s * shifted
        absdiag += abs(s) * shifted
    got = complex(w * st.values.sum())
    return abs(got - complex((D * diag).sum())), float((D * absdiag).sum())


class Norms(Workload):
    """Signal modulation norms and the symbol modulation norm on one scale."""

    name = "norms"

    def setup(self):
        self.env = fixtures(*self.cfg["scale"])

    def ops(self, round_index):
        per = self.cfg["signal_per_symbol"]
        base = round_index * (per + 1)
        out = []
        for i in range(per + 1):
            rng = self.rng(base + i)
            # p = 2 gives exact identities, p = 1 only bounds: alternate them
            p = 1.0 if (base + i) % 2 else 2.0
            if i < per:
                f = random_signal(self.env, rng)
                out.append(("norms.signal", self._signal_runner(f, p), self._signal_check))
            else:
                sigma = trig_symbol(self.env, rng)
                out.append(("norms.symbol", self._symbol_runner(sigma, p), self._symbol_check))
        return out

    def _signal_runner(self, f, p):
        env = self.env
        g, phi, psi, torus = env.window, env.phi, env.psi, env.torus

        def run(step):
            mn, omn = tf.modulation_norm, tf.orlicz_modulation_norm
            return {
                "f": f,
                "g": g,
                "p": p,
                "M1": step(mn, f, g, 1.0, torus),
                "M2": step(mn, f, g, 2.0, torus),
                "MPhi": step(omn, f, g, phi, variant="MPhi", torus=torus),
                "MPhiPsi": step(omn, f, g, phi, psi, variant="MPhiPsi", torus=torus),
                "WPhiPsi": step(omn, f, g, phi, psi, variant="WPhiPsi", torus=torus),
                "Mpower": step(omn, f, g, tf.power(p), variant="MPhi", torus=torus),
            }

        return run

    @staticmethod
    def _signal_check(r):
        fails: list = []
        want = tf.norm2(r["f"]) * tf.norm2(r["g"])
        _expect(fails, "M^2 = |f| |g|", _rel_gap(r["M2"], want, want), tolerance("m2_identity"))
        lp = r["M1"] if r["p"] == 1.0 else r["M2"]
        gap = _rel_gap(r["Mpower"], lp, lp)
        _expect(fails, f"power-{r['p']:g} Luxemburg = L^p", gap, tolerance("luxemburg_power_reduction"))
        for key in ("MPhi", "MPhiPsi", "WPhiPsi"):
            if not (math.isfinite(r[key]) and r[key] > 0):
                fails.append(f"{key} is {r[key]!r}, not a positive finite norm")
        return fails

    def _symbol_runner(self, sigma, p):
        G0 = self.env.G0

        def run(step):
            return {"sigma": sigma, "G0": G0, "p": p, "M": step(tf.symbol_modulation_norm, sigma, G0, p)}

        return run

    @staticmethod
    def _symbol_check(r):
        """M^2(sigma) = |sigma|_2 |G0|_2, and
        |sigma|_2 |G0|_2 <= M^1(sigma) <= w sqrt(#T) |sigma|_2 |G0|_2.

        The transform T has |T| <= |sigma|_2 |G0|_2 pointwise (Cauchy-Schwarz
        on the quadrature sums) and w |T|_2 = |sigma|_2 |G0|_2, which gives the
        lower bound; Cauchy-Schwarz over the entries of T gives the upper one.
        """
        sigma, G0 = r["sigma"], r["G0"]
        n, M = sigma.spec.n, sigma.torus.M
        l2 = tf.orlicz.field_lp_norm(sigma, 2.0) * tf.orlicz.field_lp_norm(G0, 2.0)
        fails: list = []
        if r["p"] == 2.0:
            gap = _rel_gap(r["M"], l2, l2)
            _expect(fails, "symbol M^2 = |sigma| |G0|", gap, tolerance("m2_identity"))
            return fails
        rm = sigma.m_radius + G0.m_radius
        D = sigma.degree_bound + G0.degree_bound
        entries = ((2 * rm + 1) * M * M * (2 * D + 1)) ** n
        upper = sigma.torus.weight * math.sqrt(entries) * l2
        tol = tolerance("mphi_boundedness")
        if not l2 * (1 - tol) <= r["M"] <= upper * (1 + tol):
            fails.append(f"symbol M^1 {r['M']!r} outside [{l2!r}, {upper!r}]")
        return fails


WORKLOADS = {w.name: w for w in (VerifyDesk, Operators, Norms)}
