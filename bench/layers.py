"""Per-layer numbers for the traced run.

Solver, verification, atlas and CLI numbers come from the spans the traced
passes record. Where a workload's passes never call a public function (the
eigen workload runs no coercive solve, say), the sweep below calls it once
on a small fixed input, so every workload reports every layer metric. The
kernels of ``grid``, ``functionals``, ``regimes`` and ``reports`` are timed
per call on the workload's own solved profile, at its own mesh size.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

import inlslab as il
from inlslab.reports import to_json

import workloads as wl
from spans import Tracer

SOLVER_SPANS = ("solver.minimize_rayleigh", "solver.minimize_coercive",
                "solver.newton_refine", "solver.probe_best_constant")


def per_call(fn, batch_s: float = 0.005, batches: int = 5) -> float:
    """Median seconds per call over ``batches`` batches of at least ``batch_s`` each."""
    fn()
    n = 1
    while True:
        t0 = perf_counter()
        for _ in range(n):
            fn()
        dt = perf_counter() - t0
        if dt >= batch_s:
            break
        n *= 2
    times = [dt / n]
    for _ in range(batches - 1):
        t0 = perf_counter()
        for _ in range(n):
            fn()
        times.append((perf_counter() - t0) / n)
    return statistics.median(times)


def _sample_pairs(P, rng, count):
    """Admissible subscaled and superscaled pairs away from the interval ends."""
    pairs = []
    while len(pairs) < count:
        if len(pairs) % 2:
            eta = float(rng.uniform(P.b + 0.02, 1.98))
            lo = max(il.lower_endpoint(P, eta), 1.0)
            hi = min(il.scaled_threshold(P, eta), il.critical_exponent(P.N, eta))
        else:
            eta = float(rng.uniform(0.02, 1.95))
            lo = max(il.scaled_threshold(P, eta), il.lower_endpoint(P, eta), 1.0)
            hi = il.critical_exponent(P.N, eta)
        if hi - lo < 1e-3:
            continue
        m = 2e-3 * (hi - lo)
        pair = il.WeightedPair(eta, float(rng.uniform(lo + m, hi - m)))
        if il.classify_pair(P, pair).admissible:
            pairs.append(pair)
    return pairs


def kernel_timings(inp, ctx) -> dict:
    """Per-call cost of the public kernels on the workload's own solution."""
    u, lam, terms = wl._need(ctx.layer_profile, "solved profile for the layer timings")
    P, g = inp.P, u.grid
    poh_terms = list(terms) + ([il.TermSpec(lam, P.a, P.p)] if lam != 0.0 else [])
    path = ctx.work / "kernel-profile.csv"
    t_interp = np.exp(7.5 * g.h)  # between grid points: the interpolating branch
    us, ms = 1e6, 1e3
    out = {
        "grid.weighted_integral.us": us * per_call(lambda: il.weighted_integral(u, P.q, P.b)),
        "grid.dirichlet_energy.us": us * per_call(lambda: il.dirichlet_energy(u)),
        "grid.scale.us": us * per_call(lambda: il.scale(u, t_interp, P.delta)),
        "grid.sample_function.us": us * per_call(lambda: il.sample_function(g, "Gaussian", sigma=1.0)),
        "grid.save_profile.ms": ms * per_call(lambda: il.save_profile(u, path)),
        "grid.load_profile.ms": ms * per_call(lambda: il.load_profile(path)),
        "functionals.grad_phi.us": us * per_call(lambda: il.grad_phi(u, P, lam, terms)),
        "functionals.el_residual.us": us * per_call(lambda: il.el_residual(u, P, lam, terms)),
        "functionals.pohozaev_residual.us":
            us * per_call(lambda: il.pohozaev_residual(u, P, poh_terms)),
        "functionals.eigen_relation_residual.us":
            us * per_call(lambda: il.eigen_relation_residual(u, P, lam)),
        "functionals.project_to_M.ms": ms * per_call(lambda: il.project_to_M(u, P)),
    }
    # the seed also drives these sampled (eta, r) pairs
    pairs = _sample_pairs(P, np.random.default_rng([inp.seed, 1]), 100)
    out["regimes.classify_pair.us"] = us * per_call(
        lambda: [il.classify_pair(P, w) for w in pairs]) / len(pairs)
    out["regimes.interpolation_pair.us"] = us * per_call(
        lambda: [il.interpolation_pair(P, w) for w in pairs]) / len(pairs)
    out["regimes.tilde_s_root.us"] = us * per_call(
        lambda: il.tilde_s_root(0.7, 1.9, 0.6, 5, 0.3, 1.7))
    doc = il.functional_report(u, P, lam, terms).to_dict()
    out["reports.to_json.us"] = us * per_call(lambda: to_json(doc))
    return out


def import_times(ctx, reps: int = 3) -> tuple[float, float]:
    """Cumulative import seconds of ``inlslab.cli`` and of ``inlslab.regimes``
    in a fresh interpreter, from ``python -X importtime``; medians of ``reps``."""
    cli, regimes = [], []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import inlslab.cli"],
            cwd=ctx.root, env=ctx.env, capture_output=True, text=True, timeout=wl.CLI_TIMEOUT_S,
        )
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2]
            if name == " inlslab.cli":  # top level: everything the CLI imports
                cli.append(int(parts[1]) / 1e6)
            elif name.strip() == "inlslab.regimes":
                regimes.append(int(parts[1]) / 1e6)
    if len(cli) != reps or len(regimes) != reps:
        raise RuntimeError(f"python -X importtime gave no inlslab lines: {proc.stderr[-300:]}")
    return statistics.median(cli), statistics.median(regimes)


def sweep(inp, ctx, passes: Tracer, ops: list) -> tuple[Tracer, dict]:
    """Fill in the layer calls the passes did not make; time the kernels."""
    tr = Tracer(True)
    tr.pass_id = -1
    if any(not passes.named(name) for name in SOLVER_SPANS):
        core = wl.build("solver_breadth", inp.size, inp.seed)
        saved = ctx.layer_profile
        wl.solver_core(ops, ctx, tr, core)
        wl.probe_op(ops, tr, "probe.readme", wl._grid(wl.README_PROBE_WINDOW))
        ctx.layer_profile = saved
    atlas = inp if inp.workload == "atlas_cli" else wl.build("atlas_cli", inp.size, inp.seed)
    if any(not passes.named(f"cli.{cmd}") for cmd in wl.CLI_COMMANDS):
        wl.readme_commands(ops, ctx, tr, atlas, "subprocess")
    wl.readme_commands(ops, ctx, tr, atlas, "inproc")
    kernels = kernel_timings(inp, ctx)
    kernels["cli.import_s"], kernels["regimes.import_s"] = import_times(ctx)
    return tr, kernels


def layer_metrics(passes: Tracer, swept: Tracer, kernels: dict) -> dict:
    """The per-layer metrics: spans of the passes first, the sweep's otherwise.

    A metric whose calls all raised is left out; the failed operations
    already make the run incorrect.
    """

    def spans(name, attr=None):
        found = passes.named(name) or swept.named(name)
        return [s for s in found if attr is None or attr in s.attrs]

    def med(values):
        values = list(values)
        return statistics.median(values) if values else None

    m = {}
    ray = spans("solver.minimize_rayleigh", "iters")
    m["solver.minimize_rayleigh.s"] = med(s.seconds for s in ray)
    m["solver.minimize_rayleigh.iters"] = med(s.attrs["iters"] for s in ray)
    if ray:
        m["solver.minimize_rayleigh.us_per_iter"] = (
            1e6 * sum(s.seconds for s in ray) / max(1, sum(s.attrs["iters"] for s in ray)))
        m["solver.minimize_rayleigh.el_res"] = max(s.attrs["el_res"] for s in ray)
    for short in ("minimize_coercive", "newton_refine"):
        found = spans(f"solver.{short}", "iters")
        m[f"solver.{short}.s"] = med(s.seconds for s in found)
        m[f"solver.{short}.iters"] = med(s.attrs["iters"] for s in found)
    m["solver.probe_best_constant.s"] = med(s.seconds for s in spans("solver.probe_best_constant"))
    flagged = [s for name in SOLVER_SPANS for s in spans(name, "converged")]
    if flagged:
        m["solver.converged_ratio"] = sum(s.attrs["converged"] for s in flagged) / len(flagged)
    names = ["functionals.verify", "regimes.region_map", "regimes.region_map_csv"]
    names += [f"cli.{cmd}" for cmd in wl.CLI_COMMANDS]
    for name in names:
        m[f"{name}.s"] = med(s.seconds for s in spans(name))
    for cmd in wl.CLI_COMMANDS:
        m[f"cli.{cmd}.inproc_s"] = med(s.seconds for s in spans(f"cli.{cmd}.inproc"))
    m.update(kernels)
    return {k: v for k, v in m.items() if v is not None}


_UNITS = {"s": "s", "inproc_s": "s", "import_s": "s", "us": "us", "us_per_iter": "us", "ms": "ms",
          "iters": "count", "el_res": "1", "converged_ratio": "frac", "overhead_frac": "frac"}


def unit_of(name: str) -> str:
    return _UNITS[name.rsplit(".", 1)[-1]]
