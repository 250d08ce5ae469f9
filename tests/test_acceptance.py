"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line,
and the Rayleigh solver's convergence gate over sampled parameter sets.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to runtime
calibration.
"""

import math
import subprocess
import sys
import time

import numpy as np

import inlslab as il
from inlslab import Regime

BUDGETS = {1: 1.0, 2: 5.0, 3: 5.0, 4: 10.0, 5: 30.0, 6: 120.0, 7: 120.0, 8: 120.0, 9: 120.0}


class _Gate:
    def __init__(self, number, name):
        self.number = number
        self.name = name
        self.checks = []

    def check(self, label, ok):
        self.checks.append((label, bool(ok)))

    def finish(self, elapsed):
        ok = all(c[1] for c in self.checks) and elapsed < BUDGETS[self.number]
        status = "PASS" if ok else "FAIL"
        print(f"[ACCEPTANCE {self.number}] {self.name}: {status} ({elapsed:.2f}s)")
        for label, good in self.checks:
            if not good:
                print(f"    failed: {label}")
        if elapsed >= BUDGETS[self.number]:
            print(f"    failed: runtime {elapsed:.2f}s over budget {BUDGETS[self.number]}s")
        assert ok


def _sample_valid(rng):
    N = int(rng.choice([2, 3, 4, 5]))
    b = float(rng.uniform(0.05, 1.95))
    if N >= 3:
        qmax = 2.0 * (N - b) / (N - 2)
        q = 2.0 + float(rng.uniform(0.05, 0.95)) * (qmax - 2.0)
    else:
        q = 2.0 + float(rng.uniform(0.1, 8.0))
    p = 2.0 + float(rng.uniform(0.05, 0.95)) * (q - 2.0)
    return N, b, q, p


def test_criterion_1_exponent_calculus():
    gate = _Gate(1, "exponent calculus on 1000 random parameter sets")
    t0 = time.time()
    rng = np.random.default_rng(20240801)
    ok_a = ok_ell = ok_pair = ok_cor = ok_rad = True
    for _ in range(1000):
        N, b, q, p = _sample_valid(rng)
        P = il.derive_params(N, b, q, p)
        ok_a &= b < P.a < 2.0
        ok_ell &= P.ell > 0.0
        l1, l2 = il.ell_of(P, b, q), il.ell_of(P, P.a, p)
        ok_pair &= abs(l1 - l2) <= 1e-14 * max(1.0, abs(l1))
        if N >= 3:
            ok_cor &= il.lower_endpoint(P, P.a) < p < il.critical_exponent(N, P.a)
            for frac in (0.1, 0.5, 0.9):
                eta = frac * b
                lo = q * (N - eta) / (N - b)
                rad = il.lower_endpoint(P, eta, radial=True)
                nonrad = il.lower_endpoint(P, eta, radial=False)
                ok_rad &= lo < rad < nonrad
    gate.check("a in (b, 2)", ok_a)
    gate.check("ell > 0", ok_ell)
    gate.check("ell(b,q) = ell(a,p) to 1e-14", ok_pair)
    gate.check("lower(a) < p < 2*_a for N >= 3", ok_cor)
    gate.check("radial endpoint strictly between thresholds", ok_rad)
    gate.finish(time.time() - t0)


def test_criterion_2_regime_classification():
    gate = _Gate(2, "regime classification over 10 parameter sets x 200x200 grid")
    t0 = time.time()
    rng = np.random.default_rng(20240802)
    ok_sign = ok_low = ok_high = True
    n_admissible = 0
    for _ in range(10):
        N, b, q, p = _sample_valid(rng)
        P = il.derive_params(N, b, q, p)
        etas = np.linspace(0.0, (N + 2) / 2.0 * 0.999, 200)
        rs = np.linspace(1.01, 9.0, 200)
        for eta in etas:
            rsc = il.scaled_threshold(P, float(eta))
            for r in rs:
                v = il.classify_pair(P, il.WeightedPair(float(eta), float(r)))
                if not v.admissible:
                    continue
                n_admissible += 1
                if abs(r - rsc) <= 1e-12 * max(1.0, abs(r)):
                    ok_sign &= v.regime is Regime.SCALED
                elif r < rsc:
                    ok_sign &= v.regime is Regime.SUBSCALED
                else:
                    ok_sign &= v.regime is Regime.SUPERSCALED
                if eta < b - 1e-9:
                    ok_low &= v.regime is Regime.SUPERSCALED
                if eta >= 2.0:
                    ok_high &= v.regime is not Regime.SUPERSCALED
    gate.check("regime equals threshold sign on every admissible pair", ok_sign)
    gate.check("eta < b admits only superscaled pairs", ok_low)
    gate.check("eta >= 2 admits no superscaled pair", ok_high)
    gate.check("grid sweep hit admissible pairs", n_admissible > 10_000)
    gate.finish(time.time() - t0)


def _sample_regime_pairs(P, regime, count, rng):
    out = []
    while len(out) < count:
        if regime is Regime.SUBSCALED:
            eta = float(rng.uniform(P.b + 0.02, 1.98))
            lo = max(il.lower_endpoint(P, eta), 1.0)
            hi = min(il.scaled_threshold(P, eta), il.critical_exponent(P.N, eta))
        elif regime is Regime.SCALED:
            eta = float(rng.uniform(P.b + 0.001, 1.99))
            r = il.scaled_threshold(P, eta)
            if il.classify_pair(P, il.WeightedPair(eta, r)).regime is Regime.SCALED:
                out.append((eta, r))
            continue
        else:
            eta = float(rng.uniform(0.02, 1.95))
            lo = max(il.scaled_threshold(P, eta), il.lower_endpoint(P, eta), 1.0)
            hi = il.critical_exponent(P.N, eta)
        if hi - lo < 1e-3:
            continue
        m = 2e-3 * (hi - lo)
        r = float(rng.uniform(lo + m, hi - m))
        if il.classify_pair(P, il.WeightedPair(eta, r)).regime is regime:
            out.append((eta, r))
    return out


def test_criterion_3_interpolation_pairs(ref_params):
    gate = _Gate(3, "interpolation pairs: 500 per regime, balance and swap")
    t0 = time.time()
    P = ref_params
    rng = np.random.default_rng(20240803)
    swap = {
        Regime.SUBSCALED: Regime.SUPERSCALED,
        Regime.SCALED: Regime.SCALED,
        Regime.SUPERSCALED: Regime.SUBSCALED,
    }
    for regime in (Regime.SUBSCALED, Regime.SCALED, Regime.SUPERSCALED):
        ok_bal = ok_swap = True
        for (eta, r) in _sample_regime_pairs(P, regime, 500, rng):
            eta_t, r_t, theta = il.interpolation_pair(P, il.WeightedPair(eta, r))
            b1 = abs(1.0 / P.p - theta / r - (1.0 - theta) / r_t)
            b2 = abs(P.a / P.p - theta * eta / r - (1.0 - theta) * eta_t / r_t)
            ok_bal &= b1 <= 1e-12 and b2 <= 1e-12 and 0.0 < theta < 1.0
            got = il.classify_pair(P, il.WeightedPair(eta_t, r_t)).regime
            ok_swap &= got is swap[regime]
        gate.check(f"{regime.value}: balance identities to 1e-12", ok_bal)
        gate.check(f"{regime.value}: companion regime is {swap[regime].value}", ok_swap)
    gate.finish(time.time() - t0)


def test_criterion_4_scaling_manifold(wide5_params, wide5_grid):
    gate = _Gate(4, "scaling covariance, group law, quotient invariance, projection")
    t0 = time.time()
    P, g = wide5_params, wide5_grid
    profiles = {
        "Gaussian": il.sample_function(g, "Gaussian", sigma=1.0),
        "Bump": il.sample_function(g, "Bump", lo=1.0, hi=2.0),
        "AubinTalenti": il.sample_function(g, "AubinTalenti", scale=1.0),
    }
    term_pairs = ((0.5, 2.2), (1.5, 3.0), (1.9, 2.6))
    ok_cov = ok_h1 = ok_ray = ok_proj = True
    for name, u in profiles.items():
        R0 = il.rayleigh(u, P)
        for k in (-32, 7, 32):
            t = math.exp(k * g.h)
            ut = il.scale_profile(u, t, P)
            pairs = [(P.q, P.b, P.ell), (P.p, P.a, P.ell)] + [
                (r, eta, il.ell_of(P, eta, r)) for (eta, r) in term_pairs
            ]
            for (r, eta, rate) in pairs:
                ratio = il.weighted_integral(ut, r, eta) / il.weighted_integral(u, r, eta)
                ok_cov &= abs(ratio / t ** rate - 1.0) <= 1e-10
            iratio = il.I_energy(ut, P) / il.I_energy(u, P)
            jratio = il.J_energy(ut, P) / il.J_energy(u, P)
            ok_cov &= abs(iratio / t ** P.ell - 1.0) <= 1e-10
            ok_cov &= abs(jratio / t ** P.ell - 1.0) <= 1e-10
            ok_ray &= abs(il.rayleigh(ut, P) / R0 - 1.0) <= 1e-8
        for (k1, k2) in ((5, 9), (-5, -9)):
            t1, t2 = math.exp(k1 * g.h), math.exp(k2 * g.h)
            two = il.scale_profile(il.scale_profile(u, t1, P), t2, P)
            one = il.scale_profile(u, t1 * t2, P)
            denom = np.max(np.abs(one.values)) or 1.0
            ok_h1 &= np.max(np.abs(two.values - one.values)) <= 1e-13 * denom
        proj = il.project_to_M(u, P)
        ok_proj &= abs(il.I_energy(proj, P) - 1.0) <= 1e-6
    gate.check("grid-exact covariance of I, J, and term integrals to 1e-10", ok_cov)
    gate.check("scaling group law exact for same-sign compositions", ok_h1)
    gate.check("Rayleigh quotient scale-invariant to 1e-8", ok_ray)
    gate.check("|I(projection) - 1| <= 1e-6", ok_proj)
    gate.finish(time.time() - t0)


def test_criterion_5_gradient_check(ref_params):
    gate = _Gate(5, "analytic gradient vs central differences, 50 random cases")
    t0 = time.time()
    P = ref_params
    g = il.make_grid(1e-3, 1e3, 513, 3)
    rng = np.random.default_rng(20240805)
    base = np.asarray(il.sample_function(g, "Gaussian", sigma=1.0).values)
    ok = True
    worst = 0.0
    for _ in range(50):
        vals = base * (1.0 + 0.3 * rng.standard_normal(g.M)) * float(rng.uniform(0.5, 2.0))
        u = il.RadialProfile(g, vals)
        lam = float(rng.uniform(-2.0, 2.0))
        terms = [
            il.TermSpec(float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.0, 1.9)),
                        float(rng.uniform(2.1, 4.0)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        grad = il.grad_phi(u, P, lam, terms)
        v = rng.standard_normal(g.M)
        v[-1] = 0.0
        eps = 1e-6
        up = il.RadialProfile(g, vals + eps * v)
        dn = il.RadialProfile(g, vals - eps * v)
        fd = (il.phi(up, P, lam, terms) - il.phi(dn, P, lam, terms)) / (2.0 * eps)
        an = float(np.dot(grad, v[:-1]))
        rel = abs(fd - an) / max(abs(an), 1e-300)
        worst = max(worst, rel)
        ok &= rel <= 1e-5
    gate.check(f"max relative deviation {worst:.2e} <= 1e-5", ok)
    gate.finish(time.time() - t0)


def _family_scan_oracle(grid, P):
    """Brute-force min of I/J over A * exp(-(s/sigma)^2) on a 200x200 log grid."""
    amps = np.exp(np.linspace(math.log(1e-2), math.log(1e2), 200))
    sigmas = np.exp(np.linspace(math.log(1e-2), math.log(1e2), 200))
    best = math.inf
    for sigma in sigmas:
        u = il.RadialProfile(grid, np.exp(-((grid.nodes / sigma) ** 2)))
        D = il.dirichlet_energy(u)
        Q = il.weighted_integral(u, P.q, P.b)
        V = il.weighted_integral(u, P.p, P.a)
        vals = (0.5 * D * amps ** 2 + Q / P.q * amps ** P.q) / (V / P.p * amps ** P.p)
        m = float(np.min(vals))
        if m < best:
            best = m
    return best


def test_criterion_6_eigen_suite(ref_params):
    gate = _Gate(6, "Rayleigh eigen suite on the reference configuration")
    t0 = time.time()
    P = ref_params
    g = il.make_grid(1e-4, 1e4, 1025, 3)
    gauss = il.sample_function(g, "Gaussian", sigma=1.0)
    rep = il.minimize_rayleigh(g, P, gauss)
    gate.check("converged", rep.converged)
    gate.check(f"el_res {rep.el_res:.2e} <= 1e-8", rep.el_res <= 1e-8)
    gate.check(f"lambda {rep.value:.6f} > 0", rep.value > 0)
    U = _family_scan_oracle(g, P)
    gate.check(f"lambda <= family-scan oracle {U:.6f} + 1e-6", rep.value <= U + 1e-6)
    gate.check(
        f"eigen relation residual {rep.eigen_rel_res:.2e} <= 1e-4", rep.eigen_rel_res <= 1e-4
    )
    gate.check(f"Pohozaev residual {rep.pohozaev_res:.2e} <= 1e-3", rep.pohozaev_res <= 1e-3)

    bump = il.sample_function(g, "Bump", lo=1.0, hi=2.0)
    rep_b = il.minimize_rayleigh(g, P, bump)
    agree = abs(rep_b.value / rep.value - 1.0)
    gate.check(f"bump-init agreement {agree:.2e} <= 1e-4", rep_b.converged and agree <= 1e-4)

    shifted = il.scale_profile(gauss, math.exp(32 * g.h), P)
    rep_s = il.minimize_rayleigh(g, P, shifted)
    dlam = abs(rep_s.value - rep.value)
    gate.check(f"grid-exact rescaled init shifts lambda by {dlam:.2e} <= 1e-8", dlam <= 1e-8)
    gate.finish(time.time() - t0)


def test_rayleigh_sampler_keeps_its_converged_set():
    # the Rayleigh solver's convergence gate: the first 41 draws of
    # _sample_valid from default_rng(7), each solved from the unit Gaussian
    # on [1e-3,1e3]x257 and [1e-4,1e4]x1025 with the default options. 75 of
    # the 82 solves converge; a solver change may add to them, and lose none.
    # Of the other 7, draw 32 (delta ~ 29) runs its amplitude away and the
    # rest stop at el_res's roundoff floor just above grad_tol
    rng = np.random.default_rng(7)
    unconverged, steps = set(), 0
    for draw in range(41):
        N, b, q, p = _sample_valid(rng)
        params = il.derive_params(N, b, q, p)
        for window in ((1e-3, 1e3, 257), (1e-4, 1e4, 1025)):
            g = il.make_grid(*window, N)
            rep = il.minimize_rayleigh(g, params, il.sample_function(g, "Gaussian", sigma=1.0))
            assert rep.converged == (rep.el_res <= 1e-8)
            steps += rep.iters
            if not rep.converged:
                unconverged.add((draw, g.M))
    print(f"[sampler] {82 - len(unconverged)}/82 converged in {steps} steps, unconverged {sorted(unconverged)}")
    assert unconverged <= {(17, 1025), (21, 1025), (28, 1025), (32, 257), (32, 1025), (40, 257), (40, 1025)}


def test_criterion_7_subscaled_suite(ref_params):
    gate = _Gate(7, "negative-level minimizer for a single subscaled term")
    t0 = time.time()
    P = ref_params
    g = il.make_grid(2e-5, 1e4, 1025, 3)
    term = il.TermSpec(1.0, 1.8, 2.2)
    assert il.classify_pair(P, il.WeightedPair(term.eta, term.r)).regime is Regime.SUBSCALED
    rep = il.minimize_coercive(g, P, [term], 0.0)
    gate.check("converged", rep.converged)
    gate.check(f"energy {rep.value:.6f} < 0", rep.value < 0)
    gate.check(f"el_res {rep.el_res:.2e} <= 1e-8", rep.el_res <= 1e-8)
    gate.check(f"Pohozaev residual {rep.pohozaev_res:.2e} <= 1e-3", rep.pohozaev_res <= 1e-3)
    gate.finish(time.time() - t0)


def test_criterion_8_thresholds():
    gate = _Gate(8, "compactness thresholds and embedding-constant probe")
    t0 = time.time()

    mu, S1, S2, N, e1, e2 = 0.7, 1.9, 0.6, 5, 0.3, 1.7
    x = il.tilde_s_root(mu, S1, S2, N, e1, e2)
    res = abs(
        mu * S2 ** (-il.critical_exponent(N, e2) / 2) * x ** ((2 - e2) / (N - 2))
        + S1 ** (-il.critical_exponent(N, e1) / 2) * x ** ((2 - e1) / (N - 2))
        - 1.0
    )
    gate.check(f"tilde-S residual {res:.2e} <= 1e-10", res <= 1e-10)

    closed = S1 ** ((N - e1) / (2 - e1))
    got = il.tilde_s_root(0.0, S1, S2, N, e1, e2)
    gate.check(
        "mu = 0 closed form to 1e-12", abs(got / closed - 1.0) <= 1e-12
    )

    lhs = il.ps_threshold(N, e1, S1)
    rhs = (2.0 - e1) / (2.0 * (N - e1)) * il.tilde_s_root(0.0, S1, S2, N, e1, e2)
    gate.check("ps threshold consistency to 1e-12", abs(lhs / rhs - 1.0) <= 1e-12)

    probe_grid = il.make_grid(1e-4, 1e4, 1025, 3)
    S = il.probe_best_constant(probe_grid, 3, 0.0)
    oracle_grid = il.make_grid(1e-6, 1e6, 4097, 3)
    at = il.sample_function(oracle_grid, "AubinTalenti", scale=1.0)
    c = il.critical_exponent(3, 0.0)
    oracle = il.dirichlet_energy(at) / il.weighted_integral(at, c, 0.0) ** (2.0 / c)
    rel = abs(S / oracle - 1.0)
    gate.check(f"probe {S:.6f} within 1% of AT oracle {oracle:.6f}", rel <= 0.01)
    gate.finish(time.time() - t0)


def test_criterion_9_determinism(tmp_path):
    gate = _Gate(9, "byte-identical repeated eigen runs")
    t0 = time.time()
    outputs = []
    for tag in ("one", "two"):
        outdir = tmp_path / tag
        proc = subprocess.run(
            [
                sys.executable, "-m", "inlslab.cli", "eigen",
                "--N", "3", "--b", "1", "--q", "3.5", "--p", "3",
                "--s-min", "1e-3", "--s-max", "1e3", "--M", "257",
                "--seed", "0", "--out", str(outdir),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        report = (outdir / "report.json").read_bytes()
        profile = (outdir / "profile.csv").read_bytes()
        stdout = proc.stdout.replace(str(outdir), "OUT")
        outputs.append((report.replace(str(outdir).encode(), b"OUT"), profile, stdout))
    gate.check("stdout identical", outputs[0][2] == outputs[1][2])
    gate.check("report.json byte-identical", outputs[0][0] == outputs[1][0])
    gate.check("profile.csv byte-identical", outputs[0][1] == outputs[1][1])
    gate.finish(time.time() - t0)
