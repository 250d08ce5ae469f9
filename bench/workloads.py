"""Workloads: inputs built from a seed, the operations of one pass, their checks.

Every operation drives inlslab from outside, through its public functions
or its command line, checks what comes back against the acceptance
tolerances of ``tests/test_acceptance.py``, and records what it saw. A
failed check marks the operation failed; a solve that stops unconverged is
kept as data (iterations, final ``el_res``, ``converged``). Nothing is
dropped or retried.

Spans (see ``spans.py``) are opened around each public call; with an
untraced ``Tracer`` they cost a no-op context manager. Each operation
keeps the perf_counter interval of itself, of its CLI child and of its
region_map blocks, which ``run.py`` turns into seconds.
"""

from __future__ import annotations

import io
import json
import math
import subprocess
import sys
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import inlslab as il
from inlslab import cli as il_cli
from inlslab.reports import to_json
from speed import Meter

#: lambda_1 at (N, b, q, p) = (3, 1, 3.5, 3) on [1e-4, 1e4] x 1025 (ROADMAP aim 2)
LAM_REF = 1.3226630373126538
#: the same problem on [1e-3, 1e3] x 257, the window of the README-sized eigen run
LAM_SMALL = 1.3458659777074762

# Acceptance tolerances (criteria 6-9), the Newton target, and the probe's
# init-independence tolerance (test_probe_init_scaling_invariance).
EL_TOL = 1e-8
POH_TOL = 1e-3
EIG_TOL = 1e-4
LAM_TOL = 1e-10
NEWTON_TOL = 1e-10
PROBE_TOL = 1e-6

CLI_TIMEOUT_S = 150
ATLAS_BLOCKS = 40
CLI_COMMANDS = ("classify", "region-map", "thresholds", "eigen", "verify", "minimize", "probe")

PARAM_ARGS = ["--N", "3", "--b", "1", "--q", "3.5", "--p", "3"]
SMALL_WINDOW = (1e-3, 1e3, 257)
README_PROBE_WINDOW = (1e-4, 1e4, 1025)
TERM = il.TermSpec(1.0, 1.8, 2.2)

# "full" is the benchmark; "small" is the same code on inputs small enough
# for the self-test. Reference values are pinned per window.
SIZES = {
    "full": {
        "eigen_window": (1e-4, 1e4, 1025), "eigen_lam": LAM_REF,
        "coercive_window": (2e-5, 1e4, 1025),
        "probe_window": (1e-4, 1e4, 1025), "probe_shift": 32,
        # (label, window, lambda a converged solve may not exceed)
        "capped": (("M2049", (1e-4, 1e4, 2049), None), ("wide", (1e-5, 1e5, 1025), LAM_REF)),
        "cap": 6000,
        "atlas_steps": 200, "spot_checks": 200, "setup_reps": 5,
    },
    "small": {
        "eigen_window": SMALL_WINDOW, "eigen_lam": LAM_SMALL,
        "coercive_window": (2e-5, 1e4, 513),
        "probe_window": (1e-2, 1e2, 257), "probe_shift": 8,
        "capped": (("M513", (1e-3, 1e3, 513), None), ("wide", (1e-4, 1e4, 257), LAM_SMALL)),
        "cap": 300,
        "atlas_steps": 20, "spot_checks": 20, "setup_reps": 1,
    },
}


def _grid(window):
    s_min, s_max, M = window
    return il.make_grid(s_min, s_max, M, 3)


def _gaussian(grid):
    return il.sample_function(grid, "Gaussian", sigma=1.0)


def build(workload: str, size: str, seed: int) -> SimpleNamespace:
    """Params, grids and inits of one workload; the seed drives every random input."""
    cfg = SIZES[size]
    rng = np.random.default_rng(seed)
    n = cfg["atlas_steps"]
    inp = SimpleNamespace(
        workload=workload, size=size, seed=seed, cfg=cfg,
        P=il.derive_params(3, 1.0, 3.5, 3.0),
        etas=[float(x) for x in np.linspace(0.0, 2.4, n)],
        rs=[float(x) for x in np.linspace(1.1, 7.0, n)],
    )
    # sampled (eta, r) cells of the atlas grid that are re-classified as a check
    inp.spot = sorted(int(i) for i in rng.choice(n * n, size=cfg["spot_checks"], replace=False))
    if workload == "eigen_reference":
        inp.grid = _grid(cfg["eigen_window"])
        inp.inits = (
            ("gaussian", _gaussian(inp.grid)),
            ("bump", il.sample_function(inp.grid, "Bump", lo=1.0, hi=2.0)),
        )
    elif workload == "solver_breadth":
        inp.coercive_grid = _grid(cfg["coercive_window"])
        inp.small_grid = _grid(SMALL_WINDOW)
        inp.small_init = _gaussian(inp.small_grid)
        # relative 1e-3 perturbation of the converged small-window profile
        inp.newton_noise = rng.standard_normal(inp.small_grid.M)
        inp.probe_grid = _grid(cfg["probe_window"])
        at = il.sample_function(inp.probe_grid, "AubinTalenti", scale=1.0)
        t = math.exp(cfg["probe_shift"] * inp.probe_grid.h)
        inp.probe_shifted = il.scale(at, t, 0.5)  # amplitude rate (N-2)/2 keeps the quotient
        inp.capped = []
        for label, window, lam_max in cfg["capped"]:
            g = _grid(window)
            inp.capped.append((label, g, _gaussian(g), lam_max))
    elif workload == "atlas_cli":
        cell = int(rng.integers(n * n))
        inp.classify_pair = (inp.etas[cell // n], inp.rs[cell % n])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inp


# ------------------------------------------------------------ operations


@dataclass
class Ctx:
    """Per-run state shared by the passes of one run."""

    root: Path
    work: Path
    env: dict
    #: samples the speed; CLI children run under metered.py when it is enabled
    meter: Meter = field(default_factory=lambda: Meter(enabled=False))
    #: (profile, lambda, terms) of the workload's own solution, for layer timings
    layer_profile: tuple | None = None
    cache: dict = field(default_factory=dict)


class Op:
    """One operation of a pass and what its checks found."""

    def __init__(self, name: str, solver: bool):
        self.name = name
        self.solver = solver
        self.seconds = 0.0
        self.t0 = self.t1 = 0.0
        #: (start, end, speed summary or None) of the operation's CLI child, if any
        self.cli_span: tuple | None = None
        #: (pairs, t0, t1) of each run of region_map blocks, on the atlas operation
        self.blocks: list[tuple[int, float, float]] = []
        self.converged: bool | None = None
        self.detail: dict = {}
        self.errors: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    @property
    def failed(self) -> bool:
        """A check failed or the call raised: the output is wrong or missing."""
        return bool(self.errors)

    @property
    def ok(self) -> bool:
        """Checked and, for a solve, converged."""
        return not self.errors and self.converged is not False

    def record(self) -> dict:
        out = {"op": self.name, "s": round(self.seconds, 6), "ok": self.ok}
        if self.converged is not None:
            out["converged"] = self.converged
        out.update(self.detail)
        if self.errors:
            out["errors"] = self.errors
        return out


@contextmanager
def operation(ops: list, name: str, solver: bool = False):
    """Time one operation; an exception fails it and the pass goes on."""
    op = Op(name, solver)
    ops.append(op)
    op.t0 = perf_counter()
    try:
        yield op
    except Exception as exc:  # noqa: BLE001 - the pass must survive any one operation
        tb = traceback.format_exception(type(exc), exc, exc.__traceback__, limit=-2)
        op.errors.append("".join(tb).strip())
    finally:
        op.t1 = perf_counter()
        op.seconds = op.t1 - op.t0


def _need(value, what):
    if value is None:
        raise RuntimeError(f"no {what}: an earlier operation of this pass failed")
    return value


def _check_reported(op, reported, el):
    """The solver's own el_res must be the public el_residual of its profile,
    up to rounding: 1e-6 relative, or 1e-12 absolute near the roundoff floor."""
    op.check(math.isclose(el, reported, rel_tol=1e-6, abs_tol=1e-12),
             f"reported el_res {reported:.6e} != public el_residual {el:.6e}")


def _verify_rayleigh(op, tr, rep, P, lam_ref=None, lam_max=None):
    op.converged = rep.converged
    op.detail.update(value=rep.value, iters=rep.iters, el_res=rep.el_res)
    u, lam = rep.profile, rep.value
    with tr.span("functionals.verify"):
        el = il.el_residual(u, P, lam, [])
        poh = il.pohozaev_residual(u, P, [il.TermSpec(lam, P.a, P.p)])
        rel = il.eigen_relation_residual(u, P, lam)
    _check_reported(op, rep.el_res, el)
    if not rep.converged:
        return
    op.check(el <= EL_TOL, f"el_res {el:.3e} > {EL_TOL}")
    op.check(poh <= POH_TOL, f"pohozaev_res {poh:.3e} > {POH_TOL}")
    op.check(rel <= EIG_TOL, f"eigen_rel_res {rel:.3e} > {EIG_TOL}")
    if lam_ref is not None:
        op.check(abs(lam - lam_ref) <= LAM_TOL, f"lambda {lam!r} != reference {lam_ref!r} to {LAM_TOL}")
    if lam_max is not None:
        op.check(lam <= lam_max + LAM_TOL, f"wider-window lambda {lam!r} exceeds {lam_max!r}")


def rayleigh_op(ops, tr, name, grid, P, init, opts=None, lam_ref=None, lam_max=None):
    """minimize_rayleigh plus re-verification; returns the report or None."""
    opts = opts or il.SolveOptions()
    with operation(ops, name, solver=True) as op:
        with tr.span("solver.minimize_rayleigh") as sp:
            rep = il.minimize_rayleigh(grid, P, init, opts)
        sp.set(iters=rep.iters, el_res=rep.el_res, converged=rep.converged)
        op.check(rep.iters <= opts.max_iters, f"iters {rep.iters} over the cap {opts.max_iters}")
        _verify_rayleigh(op, tr, rep, P, lam_ref=lam_ref, lam_max=lam_max)
        return rep
    return None


def coercive_op(ops, tr, grid, P):
    """minimize_coercive on the criterion-7 configuration."""
    with operation(ops, "coercive", solver=True) as op:
        with tr.span("solver.minimize_coercive") as sp:
            rep = il.minimize_coercive(grid, P, [TERM], 0.0)
        sp.set(iters=rep.iters, el_res=rep.el_res, converged=rep.converged)
        op.converged = rep.converged
        op.detail.update(value=rep.value, iters=rep.iters, el_res=rep.el_res)
        with tr.span("functionals.verify"):
            el = il.el_residual(rep.profile, P, 0.0, [TERM])
            poh = il.pohozaev_residual(rep.profile, P, [TERM])
        _check_reported(op, rep.el_res, el)
        if rep.converged:
            op.check(rep.value < 0, f"energy {rep.value!r} is not negative")
            op.check(el <= EL_TOL, f"el_res {el:.3e} > {EL_TOL}")
            op.check(poh <= POH_TOL, f"pohozaev_res {poh:.3e} > {POH_TOL}")
        return rep
    return None


def newton_op(ops, tr, base, noise, P):
    """newton_refine from a seeded relative 1e-3 perturbation of a converged profile."""
    with operation(ops, "newton", solver=True) as op:
        base = _need(base, "converged profile to perturb")
        u = il.RadialProfile(base.profile.grid, base.profile.values * (1.0 + 1e-3 * noise))
        lam = base.value
        with tr.span("solver.newton_refine") as sp:
            rep = il.newton_refine(u, P, lam, [])
        sp.set(iters=rep.iters, el_res=rep.el_res, converged=rep.converged)
        op.converged = rep.converged
        op.detail.update(iters=rep.iters, el_res=rep.el_res)
        with tr.span("functionals.verify"):
            el = il.el_residual(rep.profile, P, lam, [])
            poh = il.pohozaev_residual(rep.profile, P, [il.TermSpec(lam, P.a, P.p)])
            rel = il.eigen_relation_residual(rep.profile, P, lam)
        _check_reported(op, rep.el_res, el)
        if rep.converged:
            op.check(el <= NEWTON_TOL, f"el_res {el:.3e} > {NEWTON_TOL}")
            op.check(poh <= POH_TOL, f"pohozaev_res {poh:.3e} > {POH_TOL}")
            op.check(rel <= EIG_TOL, f"eigen_rel_res {rel:.3e} > {EIG_TOL}")


def probe_op(ops, tr, name, grid, init=None):
    """probe_best_constant; a shifted init must reproduce the unshifted value."""
    with operation(ops, name, solver=True) as op:
        if init is not None:
            with tr.span("solver.probe_best_constant.unshifted"):
                s0 = il.probe_best_constant(grid, 3, 0.0)
        with tr.span("solver.probe_best_constant"):
            s = il.probe_best_constant(grid, 3, 0.0, init=init)
        op.detail["S"] = s
        op.check(math.isfinite(s) and s > 0, f"probe value {s!r} is not positive")
        if init is not None:
            op.check(abs(s / s0 - 1.0) <= PROBE_TOL,
                     f"shifted-init probe {s!r} != unshifted {s0!r} to {PROBE_TOL}")


def metered_cmd(report: Path, args: list) -> list:
    """The command that runs ``python3 ARGS`` under metered.py, reporting to ``report``."""
    return [sys.executable, str(Path(__file__).resolve().parent / "metered.py"), str(report), *args]


def read_report(report: Path) -> dict | None:
    if not report.is_file():
        return None
    summary = json.loads(report.read_text())
    report.unlink()
    return summary


def _cli(ctx, tr, argv, mode):
    """Run one CLI command: a fresh subprocess, or inlslab.cli.main in-process.
    Returns the exit code, stdout, stderr and (start, end, speed summary)."""
    cmd = argv[0]
    if mode == "subprocess":
        report = ctx.work / "cli-speed.json"
        args = ["-m", "inlslab.cli", *argv]
        with tr.span(f"cli.{cmd}"):
            t0 = perf_counter()
            proc = subprocess.run(
                metered_cmd(report, args) if ctx.meter.enabled else [sys.executable, *args],
                cwd=ctx.root, env=ctx.env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
            )
            t1 = perf_counter()
        return proc.returncode, proc.stdout, proc.stderr, (t0, t1, read_report(report))
    out, err = io.StringIO(), io.StringIO()
    with tr.span(f"cli.{cmd}.inproc"):
        t0 = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = il_cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                rc = exc.code if isinstance(exc.code, int) else 2
        t1 = perf_counter()
    return rc, out.getvalue(), err.getvalue(), (t0, t1, None)


def cli_op(ops, ctx, tr, name, argv, mode, check, solver=False):
    """One CLI call as an operation; ``check(op, doc, stdout)`` inspects its output."""
    with operation(ops, name, solver=solver) as op:
        rc, out, err, span = _cli(ctx, tr, argv, mode)
        if mode == "subprocess":
            op.cli_span = span
        op.check(rc == 0, f"exit code {rc}: {err.strip()[-300:]}")
        if rc == 0:
            check(op, json.loads(out), out)


def _check_verify_doc(op, tr, doc, path, P, lam, terms, original=None):
    """The verify command's residuals: equal to the library's and within tolerance."""
    with tr.span("grid.load_profile"):
        u = il.load_profile(path)
    if original is not None:
        op.check(np.array_equal(u.values, original.values), "profile CSV does not round-trip bit-exactly")
    poh_terms = list(terms) + ([il.TermSpec(lam, P.a, P.p)] if lam != 0.0 else [])
    with tr.span("functionals.verify"):
        want = {
            "el_res": il.el_residual(u, P, lam, terms),
            "pohozaev_res": il.pohozaev_residual(u, P, poh_terms),
            "eigen_rel_res": il.eigen_relation_residual(u, P, lam),
        }
    op.check(doc == want, f"verify output {doc} != library residuals {want}")
    op.check(doc["el_res"] <= EL_TOL, f"el_res {doc['el_res']:.3e} > {EL_TOL}")
    op.check(doc["pohozaev_res"] <= POH_TOL, f"pohozaev_res {doc['pohozaev_res']:.3e} > {POH_TOL}")
    if lam != 0.0:
        op.check(doc["eigen_rel_res"] <= EIG_TOL, f"eigen_rel_res {doc['eigen_rel_res']:.3e} > {EIG_TOL}")
    return u


def _verify_argv(path, lam, terms):
    term_args = [x for t in terms for x in ("--term", f"{t.c!r},{t.eta!r},{t.r!r}")]
    return ["verify", *PARAM_ARGS, "--profile", str(path), "--lambda", repr(lam), *term_args]


def verify_op(ops, ctx, tr, name, P, rep, lam, terms):
    """save_profile of a solved profile, then the CLI verify command on it."""
    path = ctx.work / f"{name}.csv"
    with operation(ops, name) as op:
        rep = _need(rep, "solved profile to verify")
        with tr.span("grid.save_profile"):
            il.save_profile(rep.profile, path, family="solution",
                            params={"N": P.N, "b": P.b, "q": P.q, "p": P.p})
        rc, out, err, op.cli_span = _cli(ctx, tr, _verify_argv(path, lam, terms), "subprocess")
        op.check(rc == 0, f"exit code {rc}: {err.strip()[-300:]}")
        if rc == 0:
            _check_verify_doc(op, tr, json.loads(out), path, P, lam, terms, original=rep.profile)


class Atlas:
    """One pass's regime atlas: region_map on the (eta, r) grid, a block of eta
    rows at a time, then region_map_csv of all rows, written and read back.

    The pass maps some blocks after each of its other operations, so that the
    block timings sample the whole pass: on a shared machine the speed of one
    moment is not that of the next. A speed sample is taken right before and
    right after each run of blocks, to rescale it by the speed of its moment.
    ``finish`` maps the blocks left, then checks the atlas as the pass's
    "atlas" operation.
    """

    def __init__(self, inp, ctx, tr, stops: int):
        self.inp, self.ctx, self.tr = inp, ctx, tr
        step = max(1, len(inp.etas) // ATLAS_BLOCKS)
        self.todo = [inp.etas[i:i + step] for i in range(0, len(inp.etas), step)]
        self.stops = stops  # calls to advance() the pass makes before finish()
        self.rows, self.blocks, self.error = [], [], None

    def advance(self, n_blocks: int | None = None) -> None:
        if n_blocks is None:
            self.stops -= 1
            n_blocks = math.ceil(len(self.todo) / (self.stops + 2))
        if n_blocks <= 0 or not self.todo or self.error is not None:
            return
        self.ctx.meter.mark()
        pairs, t0 = 0, perf_counter()
        while n_blocks > 0 and self.todo:
            etas = self.todo.pop(0)
            try:
                with self.tr.span("regimes.region_map") as sp:
                    block = il.region_map(self.inp.P, etas, self.inp.rs)
                sp.set(pairs=len(block))
            except Exception as exc:  # noqa: BLE001 - raised again by finish()
                self.error = exc
                break
            self.rows += block
            pairs += len(block)
            n_blocks -= 1
        if pairs:
            self.blocks.append((pairs, t0, perf_counter()))
        self.ctx.meter.mark()

    def finish(self, ops) -> None:
        with operation(ops, "atlas") as op:
            self.advance(len(self.todo))
            if self.error is not None:
                raise self.error
            op.blocks = self.blocks
            op.detail.update(pairs=len(self.rows), map_s=sum(t1 - t0 for _, t0, t1 in self.blocks))
            self._check(op)

    def _check(self, op):
        P, etas, rs, rows = self.inp.P, self.inp.etas, self.inp.rs, self.rows
        with self.tr.span("regimes.region_map_csv"):
            text = il.region_map_csv(rows)
        path = self.ctx.work / "atlas.csv"
        path.write_text(text)
        lines = path.read_text().splitlines()
        n_r = len(rs)
        op.check(len(rows) == len(etas) * n_r, f"{len(rows)} rows for a {len(etas)}x{n_r} grid")
        op.check(len(lines) == len(rows) + 1, f"CSV has {len(lines)} lines for {len(rows)} rows")
        for i in self.inp.spot:
            eta, r = etas[i // n_r], rs[i % n_r]
            row = rows[i]
            v = il.classify_pair(P, il.WeightedPair(eta, r))
            got = (row["eta"], row["r"], row["admissible"], row["regime"])
            op.check(got == (eta, r, v.admissible, v.regime.value),
                     f"row {i} {got} disagrees with classify_pair {v.admissible, v.regime.value}")
            if v.admissible:  # criterion 2's oracle: the sign of r - r_scaled
                rsc = il.scaled_threshold(P, eta)
                if abs(r - rsc) <= 1e-12 * max(1.0, abs(r)):
                    want = il.Regime.SCALED.value
                else:
                    want = (il.Regime.SUBSCALED if r < rsc else il.Regime.SUPERSCALED).value
                op.check(row["regime"] == want, f"row {i} regime {row['regime']} != threshold sign {want}")
            f = lines[i + 1].split(",")
            op.check((float(f[0]), float(f[1]), f[3]) == (eta, r, row["regime"]),
                     f"CSV line {i + 1} {lines[i + 1]!r} does not match its row")


# ----------------------------------------------------- the README commands


def _cached(ctx, key, compute):
    if key not in ctx.cache:
        ctx.cache[key] = compute()
    return ctx.cache[key]


def readme_commands(ops, ctx, tr, inp, mode, after=lambda: None):
    """Every README CLI command once, with eigen twice and compared byte for byte.

    ``mode`` is "subprocess" (a fresh interpreter per command) or "inproc"
    (inlslab.cli.main in this process). ``after`` runs after each command.
    Returns (profile, lambda, terms) of the verified eigen profile, or None.
    """
    P = inp.P
    tag = "" if mode == "subprocess" else ".inproc"

    eta, r = inp.classify_pair

    def check_classify(op, doc, _):
        v = il.classify_pair(P, il.WeightedPair(eta, r))
        iv = v.interval
        want = {"admissible": v.admissible, "regime": v.regime.value, "reason": v.reason,
                "interval": None if iv is None else {
                    "lower": iv.lower, "upper": iv.upper, "lower_included": iv.lower_included,
                    "upper_included": iv.upper_included, "radial": iv.radial,
                    "compact_interior": iv.compact_interior}}
        op.check(doc == json.loads(to_json(want)), f"classify output {doc} != library verdict")

    cli_op(ops, ctx, tr, f"cli.classify{tag}",
           ["classify", *PARAM_ARGS, "--eta", repr(eta), "--r", repr(r)], mode, check_classify)
    after()

    atlas = ctx.work / f"cli-atlas{tag}.csv"

    def check_region_map(op, doc, _):
        want = _cached(ctx, "region-map", lambda: il.region_map_csv(il.region_map(
            P, list(np.linspace(0.0, 2.4, 60)), list(np.linspace(1.1, 7.0, 60)))))
        op.check(doc["rows"] == 3600, f"region-map reported {doc['rows']} rows")
        op.check(atlas.read_text() == want, "region-map CSV differs from region_map_csv(region_map(...))")

    cli_op(ops, ctx, tr, f"cli.region-map{tag}",
           ["region-map", *PARAM_ARGS, "--eta-min", "0", "--eta-max", "2.4", "--eta-steps", "60",
            "--r-min", "1.1", "--r-max", "7", "--r-steps", "60", "--out", str(atlas)],
           mode, check_region_map)
    after()

    def check_thresholds(op, doc, _):
        e_low = il.ell_of(P, 1.8, 2.2) / P.ell
        e_high = il.ell_of(P, 0.5, il.critical_exponent(3, 0.5)) / P.ell
        r1, r2 = il.gamma_mu_roots(0.3, 1.0, 1.0, e_low, e_high)
        want = {"cstar": il.ps_threshold(3, 0.5, 1.0),
                "tilde_s": il.tilde_s_root(0.3, 1.0, 1.0, 3, 0.5, 1.0),
                "truncation_R1": r1, "truncation_R2": r2}
        op.check(doc == want, f"thresholds output {doc} != library values {want}")
        # with S1 = S2 = 1 and N = 3 the defining equation is mu x + x^1.5 = 1
        x = doc["tilde_s"]
        res = abs(0.3 * x + x ** 1.5 - 1.0)
        op.check(res <= 1e-10, f"tilde_s residual {res:.3e} > 1e-10")

    cli_op(ops, ctx, tr, f"cli.thresholds{tag}",
           ["thresholds", "--N", "3", "--eta1", "0.5", "--S1", "1.0", "--eta2", "1.0", "--S2", "1.0",
            "--mu", "0.3", "--C", "1", "--C1", "1", "--b", "1", "--q", "3.5", "--p", "3",
            "--eta", "1.8", "--r", "2.2"], mode, check_thresholds)
    after()

    runs = []
    for k in (1, 2):
        outdir = ctx.work / f"eigen{tag}-{k}"

        def check_eigen(op, doc, stdout, outdir=outdir):
            op.converged = doc["converged"]
            op.detail.update(value=doc["value"], iters=doc["iters"], el_res=doc["el_res"])
            if doc["converged"]:
                op.check(abs(doc["value"] - LAM_SMALL) <= LAM_TOL,
                         f"lambda {doc['value']!r} != reference {LAM_SMALL!r} to {LAM_TOL}")
                op.check(doc["el_res"] <= EL_TOL, f"el_res {doc['el_res']:.3e} > {EL_TOL}")
                op.check(doc["pohozaev_res"] <= POH_TOL, f"pohozaev_res {doc['pohozaev_res']:.3e}")
                op.check(doc["eigen_rel_res"] <= EIG_TOL, f"eigen_rel_res {doc['eigen_rel_res']:.3e}")
            key = str(outdir)
            outputs = (stdout.replace(key, "OUT"),
                       (outdir / "report.json").read_bytes().replace(key.encode(), b"OUT"),
                       (outdir / "profile.csv").read_bytes())
            if runs:  # criterion 9: the second run repeats the first byte for byte
                for label, a, b in zip(("stdout", "report.json", "profile.csv"), runs[0][2], outputs):
                    op.check(a == b, f"repeated eigen run: {label} not byte-identical")
            runs.append((outdir, doc["value"], outputs))

        cli_op(ops, ctx, tr, f"cli.eigen{tag}",
               ["eigen", *PARAM_ARGS, "--s-min", "1e-3", "--s-max", "1e3", "--M", "257",
                "--seed", "0", "--out", str(outdir)], mode, check_eigen, solver=True)
        after()

    verified = []
    if runs:
        outdir, lam, _ = runs[0]
        path = outdir / "profile.csv"

        def check_verify(op, doc, _):
            verified.append((_check_verify_doc(op, tr, doc, path, P, lam, []), lam, []))

        cli_op(ops, ctx, tr, f"cli.verify{tag}", _verify_argv(path, lam, []), mode, check_verify)
    else:
        with operation(ops, f"cli.verify{tag}"):
            _need(None, "eigen profile to verify")
    after()

    def check_minimize(op, doc, _):
        op.converged = doc["converged"]
        op.detail.update(value=doc["value"], iters=doc["iters"], el_res=doc["el_res"])
        if doc["converged"]:
            op.check(doc["value"] < 0, f"energy {doc['value']!r} is not negative")
            op.check(doc["el_res"] <= EL_TOL, f"el_res {doc['el_res']:.3e} > {EL_TOL}")
            op.check(doc["pohozaev_res"] <= POH_TOL, f"pohozaev_res {doc['pohozaev_res']:.3e}")

    cli_op(ops, ctx, tr, f"cli.minimize{tag}",
           ["minimize", *PARAM_ARGS, "--s-min", "2e-5", "--s-max", "1e4", "--M", "1025",
            "--term", "1.0,1.8,2.2"], mode, check_minimize, solver=True)
    after()

    def check_probe(op, doc, _):
        want = _cached(ctx, "probe", lambda: il.probe_best_constant(_grid(README_PROBE_WINDOW), 3, 0.0))
        op.check(abs(doc["S"] / want - 1.0) <= PROBE_TOL, f"probe S {doc['S']!r} != library {want!r}")

    cli_op(ops, ctx, tr, f"cli.probe{tag}",
           ["probe", "--N", "3", "--eta", "0", "--s-min", "1e-4", "--s-max", "1e4", "--M", "1025"],
           mode, check_probe, solver=True)
    after()
    return verified[0] if verified else None


# --------------------------------------------------------------- passes


def eigen_reference(inp, ctx, tr):
    """The reference solve from two inits, each verified in-process and by the CLI."""
    ops = []
    atlas = Atlas(inp, ctx, tr, stops=4)
    reps = {}
    for label, init in inp.inits:
        reps[label] = rayleigh_op(ops, tr, f"eigen.{label}", inp.grid, inp.P, init,
                                  lam_ref=inp.cfg["eigen_lam"])
        atlas.advance()
    for label, rep in reps.items():
        verify_op(ops, ctx, tr, f"verify.{label}", inp.P, rep, rep and rep.value, [])
        atlas.advance()
    if reps["gaussian"] is not None:
        ctx.layer_profile = (reps["gaussian"].profile, reps["gaussian"].value, [])
    atlas.finish(ops)
    return ops


def solver_core(ops, ctx, tr, inp, after=lambda: None):
    """The cheap drivers: coercive minimizer and small-window eigen, each verified
    by the CLI, and Newton from the eigen solution.
    ``after`` runs after each of the five operations."""
    rep = coercive_op(ops, tr, inp.coercive_grid, inp.P)
    after()
    verify_op(ops, ctx, tr, "verify.coercive", inp.P, rep, 0.0, [TERM])
    after()
    if rep is not None:
        ctx.layer_profile = (rep.profile, 0.0, [TERM])
    small = rayleigh_op(ops, tr, "eigen.small", inp.small_grid, inp.P, inp.small_init,
                        lam_ref=LAM_SMALL)
    after()
    verify_op(ops, ctx, tr, "verify.small", inp.P, small, small and small.value, [])
    after()
    newton_op(ops, tr, small, inp.newton_noise, inp.P)
    after()


def solver_breadth(inp, ctx, tr):
    """Every solver driver, including two capped Rayleigh solves kept as data."""
    ops = []
    atlas = Atlas(inp, ctx, tr, stops=8)
    solver_core(ops, ctx, tr, inp, after=atlas.advance)
    probe_op(ops, tr, "probe.shifted", inp.probe_grid, init=inp.probe_shifted)
    atlas.advance()
    opts = il.SolveOptions(max_iters=inp.cfg["cap"])
    for label, grid, init, lam_max in inp.capped:
        rayleigh_op(ops, tr, f"capped.{label}", grid, inp.P, init, opts=opts, lam_max=lam_max)
        atlas.advance()
    atlas.finish(ops)
    return ops


def atlas_cli(inp, ctx, tr):
    """The regime atlas, with every README command in a fresh process in between."""
    ops = []
    atlas = Atlas(inp, ctx, tr, stops=8)
    profile = readme_commands(ops, ctx, tr, inp, "subprocess", after=atlas.advance)
    if profile is not None:
        ctx.layer_profile = profile
    atlas.finish(ops)
    return ops


PASSES = {
    "eigen_reference": eigen_reference,
    "solver_breadth": solver_breadth,
    "atlas_cli": atlas_cli,
}
