"""Command-line frontend.

Subcommands: classify, region-map, eigen, minimize, verify, thresholds,
probe. Primary results go to stdout as JSON with 17-significant-digit
floats; profile/report files land under --out. Errors print one JSON
document on stderr; exit codes: 0 success, 2 validation error (bad
arguments, unreadable or malformed profile, unwritable output), 3
solver divergence.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import Diverged, DomainError, InlsError
from .exponents import critical_exponent, derive_params, ell_of
from .regimes import (
    WeightedPair,
    classify_pair,
    gamma_mu_roots,
    ps_threshold,
    region_map,
    region_map_csv,
    tilde_s_root,
)
from .reports import to_json

# grid, functionals and solver (numpy, and LAPACK for the solvers) are
# imported in the branches of _run that use them, so classify,
# region-map and thresholds start without numpy


def _add_params(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--N", type=int, required=True, help="spatial dimension")
    ap.add_argument("--b", type=float, required=True, help="operator weight exponent")
    ap.add_argument("--q", type=float, required=True, help="operator power")
    ap.add_argument("--p", type=float, required=True, help="eigen-term power")


def _add_grid(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--s-min", type=float, default=1e-4)
    ap.add_argument("--s-max", type=float, default=1e4)
    ap.add_argument("--M", type=int, default=1025, help="node count")


def _add_opts(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--max-iters", type=int, default=50_000)
    ap.add_argument("--grad-tol", type=float, default=1e-8)
    ap.add_argument("--seed", type=int, default=0,
                    help="unused: every init is deterministic (kept for old command lines)")


def _opts(args):
    from .solver import SolveOptions

    return SolveOptions(max_iters=args.max_iters, grad_tol=args.grad_tol)


def _parse_term(text: str):
    from .functionals import TermSpec

    try:
        c, eta, r = (float(x) for x in text.split(","))
    except ValueError as exc:
        raise DomainError(f"term must be 'c,eta,r', got {text!r}") from exc
    return TermSpec(c=c, eta=eta, r=r)


def _linspace(start: float, stop: float, n: int) -> list:
    """np.linspace(start, stop, n) as a list of floats, bit for bit.

    The same operations in the same order as numpy's: i*step + start
    with step = (stop - start)/(n - 1), i/(n - 1)*(stop - start) + start
    when step underflows to zero, and the last value set to stop.
    """
    if n < 0:
        raise DomainError(f"step count must be >= 0, got {n}")
    div = n - 1
    delta = stop - start
    if div <= 0:
        return [i * delta + start for i in range(n)]
    step = delta / div
    if step == 0:
        vals = [i / div * delta + start for i in range(n)]
    else:
        vals = [i * step + start for i in range(n)]
    vals[-1] = stop
    return vals


def _classify_args(c: argparse.ArgumentParser) -> None:
    _add_params(c)
    c.add_argument("--eta", type=float, required=True)
    c.add_argument("--r", type=float, required=True)
    c.add_argument("--radial", action="store_true")


def _region_map_args(rm: argparse.ArgumentParser) -> None:
    _add_params(rm)
    rm.add_argument("--eta-min", type=float, required=True)
    rm.add_argument("--eta-max", type=float, required=True)
    rm.add_argument("--eta-steps", type=int, required=True)
    rm.add_argument("--r-min", type=float, required=True)
    rm.add_argument("--r-max", type=float, required=True)
    rm.add_argument("--r-steps", type=int, required=True)
    rm.add_argument("--radial", action="store_true")
    rm.add_argument("--out", required=True, help="CSV output path")


def _eigen_args(e: argparse.ArgumentParser) -> None:
    _add_params(e)
    _add_grid(e)
    _add_opts(e)
    e.add_argument("--out", help="directory for report.json and profile.csv")


def _minimize_args(m: argparse.ArgumentParser) -> None:
    _add_params(m)
    _add_grid(m)
    _add_opts(m)
    m.add_argument("--lambda", dest="lam", type=float, default=0.0)
    m.add_argument("--term", action="append", default=[], help="c,eta,r (repeatable)")
    m.add_argument("--out", help="directory for report.json and profile.csv")


def _verify_args(v: argparse.ArgumentParser) -> None:
    _add_params(v)
    v.add_argument("--profile", required=True, help="profile CSV path")
    v.add_argument("--lambda", dest="lam", type=float, default=0.0)
    v.add_argument("--term", action="append", default=[], help="c,eta,r (repeatable)")


def _thresholds_args(t: argparse.ArgumentParser) -> None:
    t.add_argument("--N", type=int, required=True)
    t.add_argument("--eta1", type=float, required=True)
    t.add_argument("--eta2", type=float)
    t.add_argument("--S1", type=float, required=True)
    t.add_argument("--S2", type=float)
    t.add_argument("--mu", type=float, default=0.0)
    t.add_argument("--C", type=float, help="truncation envelope constant for the low term")
    t.add_argument("--C1", type=float, help="truncation envelope constant for the high term")
    t.add_argument("--b", type=float, help="needed with --C/--C1 to derive exponents")
    t.add_argument("--q", type=float)
    t.add_argument("--p", type=float)
    t.add_argument("--eta", type=float, help="subscaled term weight for the truncation window")
    t.add_argument("--r", type=float, help="subscaled term power for the truncation window")


def _probe_args(pr: argparse.ArgumentParser) -> None:
    pr.add_argument("--N", type=int, required=True)
    pr.add_argument("--eta", type=float, required=True)
    _add_grid(pr)
    _add_opts(pr)


#: subcommand -> (its help line, the function that adds its arguments)
_COMMANDS = {
    "classify": ("admissibility and regime of one (eta, r) pair", _classify_args),
    "region-map": ("CSV atlas of verdicts over an (eta, r) grid", _region_map_args),
    "eigen": ("first eigenvalue by Rayleigh minimization", _eigen_args),
    "minimize": ("negative-level minimizer of the coercive energy", _minimize_args),
    "verify": ("recompute residuals for a stored profile", _verify_args),
    "thresholds": ("compactness levels c*, S-tilde, truncation radii", _thresholds_args),
    "probe": ("estimate of the embedding constant S_eta on the window", _probe_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The inlslab argument parser.

    With a known subcommand name, only that subcommand's parser is added:
    building all seven costs a few milliseconds of every command's start.
    Its metavar keeps the usage line listing every subcommand, so usage
    and error texts are the full parser's. With None or any other name
    (no arguments, -h, an unknown command) the parser has every
    subcommand, and its help and choice errors list them all.
    """
    ap = argparse.ArgumentParser(prog="inlslab", description=__doc__)
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_line, add_args = _COMMANDS[name]
        add_args(sub.add_parser(name, help=help_line))
    return ap


def _emit(doc) -> None:
    sys.stdout.write(to_json(doc) + "\n")


def _finish_solve(args, params, report) -> int:
    """Write profile.csv and report.json under --out, if given, then print
    the report; the printed and written documents name the profile's path."""
    doc = report.to_dict()
    if args.out:
        from .grid import save_profile

        os.makedirs(args.out, exist_ok=True)
        doc["profile_path"] = os.path.join(args.out, "profile.csv")
        save_profile(report.profile, doc["profile_path"], family="solution",
                     params={"N": params.N, "b": params.b, "q": params.q, "p": params.p})
        with open(os.path.join(args.out, "report.json"), "w") as fh:
            fh.write(to_json(doc) + "\n")
    _emit(doc)
    if not report.converged:
        raise Diverged(_opts(args)._stopped(report.iters, report.el_res))
    return 0


def _run(args) -> int:
    if args.command == "classify":
        params = derive_params(args.N, args.b, args.q, args.p)
        verdict = classify_pair(params, WeightedPair(args.eta, args.r), radial=args.radial)
        iv = verdict.interval
        _emit(
            {
                "admissible": verdict.admissible,
                "regime": verdict.regime.value,
                "reason": verdict.reason,
                "interval": None if iv is None else iv.to_dict(),
            }
        )
        return 0

    if args.command == "region-map":
        params = derive_params(args.N, args.b, args.q, args.p)
        etas = _linspace(args.eta_min, args.eta_max, args.eta_steps)
        rs = _linspace(args.r_min, args.r_max, args.r_steps)
        rows = region_map(params, etas, rs, radial=args.radial)
        with open(args.out, "w") as fh:
            fh.write(region_map_csv(rows))
        _emit({"rows": len(rows), "out": args.out})
        return 0

    if args.command == "eigen":
        from .grid import make_grid
        from .solver import minimize_rayleigh

        params = derive_params(args.N, args.b, args.q, args.p)
        grid = make_grid(args.s_min, args.s_max, args.M, args.N)
        report = minimize_rayleigh(grid, params, opts=_opts(args))
        return _finish_solve(args, params, report)

    if args.command == "minimize":
        from .grid import make_grid
        from .solver import minimize_coercive

        params = derive_params(args.N, args.b, args.q, args.p)
        grid = make_grid(args.s_min, args.s_max, args.M, args.N)
        terms = [_parse_term(t) for t in args.term]
        report = minimize_coercive(grid, params, terms, args.lam, _opts(args))
        return _finish_solve(args, params, report)

    if args.command == "verify":
        from .functionals import _residuals
        from .grid import load_profile

        params = derive_params(args.N, args.b, args.q, args.p)
        u = load_profile(args.profile)
        terms = [_parse_term(t) for t in args.term]
        _emit(_residuals(u, params, args.lam, terms))
        return 0

    if args.command == "thresholds":
        for given, needed in (("eta2", "S2"), ("S2", "eta2"), ("C", "C1"), ("C1", "C")):
            if getattr(args, given) is not None and getattr(args, needed) is None:
                raise DomainError(f"--{given} needs --{needed}")
        doc = {"cstar": ps_threshold(args.N, args.eta1, args.S1)}
        if args.eta2 is not None:
            doc["tilde_s"] = tilde_s_root(args.mu, args.S1, args.S2, args.N, args.eta1, args.eta2)
        if args.C is not None:
            for name in ("b", "q", "p", "eta", "r"):
                if getattr(args, name) is None:
                    raise DomainError(f"--{name} is required for truncation radii")
            params = derive_params(args.N, args.b, args.q, args.p)
            e_low = ell_of(params, args.eta, args.r) / params.ell
            e_high = ell_of(params, args.eta1, critical_exponent(args.N, args.eta1)) / params.ell
            r1, r2 = gamma_mu_roots(args.mu, args.C, args.C1, e_low, e_high)
            doc["truncation_R1"] = r1
            doc["truncation_R2"] = r2
        _emit(doc)
        return 0

    if args.command == "probe":
        from .grid import make_grid
        from .solver import _probe

        grid = make_grid(args.s_min, args.s_max, args.M, args.N)
        value, stop = _probe(grid, args.N, args.eta, _opts(args), None)
        _emit({"S": value})
        if stop:
            raise Diverged(stop)
        return 0

    raise InlsError(f"unknown command {args.command!r}")  # pragma: no cover


def _fail(exc: InlsError, code: int) -> int:
    sys.stderr.write(to_json({"error": exc.code, "message": exc.message}) + "\n")
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return _run(args)
    except Diverged as exc:
        return _fail(exc, 3)
    except InlsError as exc:
        return _fail(exc, 2)
    except OSError as exc:  # an output file or directory that cannot be written
        return _fail(DomainError(f"cannot write output: {exc}"), 2)


if __name__ == "__main__":
    sys.exit(main())
