"""inlslab benchmark: end-to-end and per-layer numbers for one workload.

Run from the root of a source checkout (the directory holding ``src/inlslab``):

    python3 bench/run.py --workload eigen_reference --seed 1 --seconds 30 --trace 0

Load is a closed loop in one process: one operation at a time, and at most
one CLI child process alive at a time. Passes of the workload repeat while
another pass fits in ``--seconds``. With ``--trace 0`` the last stdout line
holds the end-to-end metrics, rescaled to the machine's reference speed by
speed samples taken while the run goes on (see speed.py); with ``--trace 1``
untraced and traced passes alternate and the last line holds the per-layer
metrics, including the tracing overhead. The lines before it give the machine, every operation of
the first pass and every failed one, and a table of the metrics with units.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

WORKLOADS = ("eigen_reference", "solver_breadth", "atlas_cli")

# One BLAS/OpenMP thread for this process and every child it starts, set
# before numpy loads: the machine has 2 cores, one for the benchmark and one
# for the CLI child it waits on.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# region_map blocks are rescaled by the samples taken right before, in and
# right after them, not by those of the operations around them
BLOCK_PAD_S = 0.02

UNITS = {
    "setup_s": "s", "wall_s": "s", "solve_s.p50": "s", "ok_frac": "frac",
    "cli_s.p50": "s", "cli_s.p90": "s", "pairs_per_s": "1/s", "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="'small' runs every operation on tiny inputs (self-test)")
    ap.add_argument("--setup-child", action="store_true",
                    help="only import inlslab and build the inputs (times setup_s)")
    return ap.parse_args(argv)


def machine_facts() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def time_setup(args, ctx, reps) -> list[tuple]:
    """(start, end, speed summary) of ``reps`` fresh interpreters, each run
    under metered.py, that import inlslab and build the inputs."""
    import workloads as wl

    report = ctx.work / "setup-speed.json"
    cmd = wl.metered_cmd(report, [str(Path(__file__).resolve()), "--workload", args.workload,
                                  "--seed", str(args.seed), "--size", args.size, "--setup-child"])
    spans = []
    for _ in range(reps):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ctx.root, env=ctx.env, capture_output=True, text=True,
                              timeout=120)
        spans.append((t0, perf_counter(), wl.read_report(report)))
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed: {proc.stderr[-500:]}")
    return spans


def run_passes(run_pass, inp, ctx, seconds, tracers):
    """Repeat passes while another round fits in ``seconds``; at least one round.

    A round is one pass per tracer: one untraced pass, or an untraced and a
    traced pass to alternate. Returns, per tracer, the (start, end) of each
    pass and the operations of each pass.
    """
    spans = [[] for _ in tracers]
    passes = [[] for _ in tracers]
    t_start = perf_counter()
    while True:
        for k, tr in enumerate(tracers):
            tr.pass_id += 1
            t0 = perf_counter()
            passes[k].append(run_pass(inp, ctx, tr))
            spans[k].append((t0, perf_counter()))
        round_s = sum(statistics.median(b - a for a, b in s) for s in spans)
        if perf_counter() - t_start + round_s > seconds:
            return spans, passes


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def per_operation(passes, value):
    """Each operation's median ``value`` over the passes.

    Every pass runs the same operations in the same order, so a percentile
    over these medians is taken over the same operations whether one pass or
    three fit in the run.
    """
    out = []
    for repeats in zip(*passes):
        vals = [v for v in map(value, repeats) if v is not None]
        if vals:
            out.append(statistics.median(vals))
    return out


def seconds(meter, span, ops) -> float:
    """Seconds of ``span`` (a pass or an operation) holding ``ops``: their CLI
    children as the children's own samples read them, the rest as the
    benchmark process's samples read it."""
    total = meter.seconds(*span)
    for op in ops:
        if op.cli_span:
            t0, t1, _ = op.cli_span
            total += meter.seconds(*op.cli_span) - meter.seconds(t0, t1)
    return total


def samples(meter, setup, walls, passes) -> dict:
    """The samples behind the end-to-end metrics, pass by pass, in seconds as
    ``meter`` reads them: rescaled by an enabled Meter, plain wall time by a
    disabled one."""
    sec = meter.seconds
    return {
        "setup_s": [sec(*s) for s in setup],
        "wall_s": [seconds(meter, w, ops) for w, ops in zip(walls, passes)],
        "solve_s": [[seconds(meter, (op.t0, op.t1), [op]) for op in ops if op.solver]
                    for ops in passes],
        "cli_s": [[sec(*op.cli_span) for op in ops if op.cli_span] for ops in passes],
        "block_s": [[[(n, sec(t0, t1, pad=BLOCK_PAD_S)) for n, t0, t1 in op.blocks]
                     for op in ops if op.blocks] for ops in passes],
    }


def end_to_end(meter, setup, walls, passes) -> dict:
    """Medians over the run, of timings as ``meter`` reads them: each
    operation's median over the passes, then a percentile over the pass."""
    ops = [op for p in passes for op in p]
    sec = meter.seconds
    solves = per_operation(passes,
                           lambda op: seconds(meter, (op.t0, op.t1), [op]) if op.solver else None)
    cli = per_operation(passes, lambda op: sec(*op.cli_span) if op.cli_span else None)
    blocks = [(n, sec(t0, t1, pad=BLOCK_PAD_S)) for op in ops for n, t0, t1 in op.blocks]
    m = {
        "setup_s": statistics.median(sec(*s) for s in setup),
        "wall_s": statistics.median(seconds(meter, w, ops) for w, ops in zip(walls, passes)),
        "solve_s.p50": statistics.median(solves) if solves else None,
        "ok_frac": sum(op.ok for op in ops) / len(ops),
        "cli_s.p50": percentile(cli, 50) if cli else None,
        "cli_s.p90": percentile(cli, 90) if cli else None,
        "pairs_per_s": sum(n for n, _ in blocks) / sum(s for _, s in blocks) if blocks else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: v for k, v in m.items() if v is not None}


def span_cost_s(n: int = 20000) -> float:
    """Seconds one recorded span costs, timed on a throwaway tracer."""
    from spans import Tracer

    tr = Tracer(True)
    t0 = perf_counter()
    for _ in range(n):
        with tr.span("x") as sp:
            sp.set(k=0)
    return (perf_counter() - t0) / n


def print_ops(ops, first_pass_len):
    for i, op in enumerate(ops):
        if i < first_pass_len or op.failed:
            print(json.dumps({"operation": op.record()}, default=str))


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "inlslab" / "__init__.py").is_file():
        print(f"bench: {src}/inlslab not found; run from the root of an inlslab checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(src)  # children import the checkout's inlslab only
    sys.path.insert(0, str(src))

    if args.setup_child:
        import workloads

        workloads.build(args.workload, args.size, args.seed)
        return 0

    import inlslab
    import layers
    import workloads as wl
    from spans import Tracer
    from speed import Meter

    if Path(inlslab.__file__).resolve().parent != (src / "inlslab").resolve():
        print(f"bench: imported inlslab from {inlslab.__file__}, not {src}", file=sys.stderr)
        return 2

    print(json.dumps({"machine": machine_facts(), "workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace, "size": args.size}))
    inp = wl.build(args.workload, args.size, args.seed)
    run_pass = wl.PASSES[args.workload]
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # the untraced run rescales its timings by the machine's speed
    ctx = wl.Ctx(root=root, work=work, env=dict(os.environ), meter=Meter(enabled=not args.trace))
    try:
        if not args.trace:
            meter, wall = ctx.meter, Meter(enabled=False)
            with meter:
                setup = time_setup(args, ctx, wl.SIZES[args.size]["setup_reps"])
                (walls,), (passes,) = run_passes(run_pass, inp, ctx, args.seconds, [Tracer(False)])
            ops = [op for p in passes for op in p]
            metrics = end_to_end(meter, setup, walls, passes)
            units = UNITS
            print(json.dumps({"speed": meter.speed()}))
            print(json.dumps({"samples": samples(meter, setup, walls, passes),
                              "wall_samples": samples(wall, setup, walls, passes)}))
            print(json.dumps({"unscaled": end_to_end(wall, setup, walls, passes)}))
            print_ops(ops, len(passes[0]))
            print(f"# {args.workload}: {len(walls)} passes, {len(ops)} operations, failed_frac "
                  f"{1.0 - metrics['ok_frac']:.4f} (unconverged or failed / attempted); timings "
                  f"rescaled to the reference speed (see speed.py)")
        else:
            traced = Tracer(True)
            (spans_plain, spans_traced), (p_plain, p_traced) = run_passes(
                run_pass, inp, ctx, args.seconds, [Tracer(False), traced])
            plain = [b - a for a, b in spans_plain]
            spanned = [b - a for a, b in spans_traced]
            ops = [op for p in p_plain + p_traced for op in p]
            first = len(p_plain[0])
            swept, kernels = Tracer(True), {}
            with wl.operation(ops, "layer-sweep"):
                swept, kernels = layers.sweep(inp, ctx, traced, ops)
            metrics = layers.layer_metrics(traced, swept, kernels)
            metrics["trace.overhead_frac"] = statistics.median(spanned) / statistics.median(plain) - 1.0
            units = {k: layers.unit_of(k) for k in metrics}
            print_ops(ops, first)
            out = root / ".bench_out"
            out.mkdir(exist_ok=True)
            traced.dump(out / f"spans-{args.workload}-seed{args.seed}.jsonl")
            swept.dump(out / f"spans-{args.workload}-seed{args.seed}-sweep.jsonl")
            per_pass = statistics.mean(spanned)
            shares = {k: round(v / len(spanned) / per_pass, 4)
                      for k, v in traced.layer_seconds().items()}
            spans_cost = len(traced.spans) / len(spanned) * span_cost_s() / statistics.median(plain)
            print(f"# {args.workload}: untraced pass {statistics.median(plain):.4f} s, traced "
                  f"pass {statistics.median(spanned):.4f} s, overhead "
                  f"{metrics['trace.overhead_frac']:+.4f} "
                  f"(the spans themselves cost {spans_cost:.1e} of a pass); "
                  f"share of traced wall time per layer {json.dumps(shares)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, value in metrics.items():
        print(f"# {name:42s} {value:>16.6g} {units[name]}")
    failed = sum(op.failed for op in ops)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
