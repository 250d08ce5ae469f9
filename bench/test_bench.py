"""Self-test of the benchmark, on the small inputs.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

It runs every workload once untraced and once traced and checks that the
last line names every metric of BENCHMARK.json with its unit, that the
correctness checks fire on a wrong answer, that an unconverged capped
solve is kept as data, that the speed meter rescales timings as
documented, and that the benchmark refuses to run without the inlslab
source.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
import workloads as wl  # noqa: E402
import speed  # noqa: E402
from spans import Tracer  # noqa: E402


def _bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
    if workload == "solver_breadth" and not trace:
        # the two capped solves stop unconverged: counted, not dropped, not failed
        assert result["metrics"]["ok_frac"]["value"] < 1.0
    if not trace:
        # the timings were rescaled by speed samples; the wall times are printed too
        lines = [json.loads(ln) for ln in proc.stdout.splitlines() if ln.startswith("{")]
        assert next(ln["speed"] for ln in lines if "speed" in ln)["samples"] > 0
        assert set(next(ln["unscaled"] for ln in lines if "unscaled" in ln)) == set(result["metrics"])


def test_meter_rescales_by_the_samples_around_a_stretch():
    m = speed.Meter(enabled=True)
    ref = speed.REF_S
    # samples of 2x the reference time at 0, 1, 2 and 3 s, then 4x at 10 s
    m.starts = [0.0, 1.0, 2.0, 3.0, 10.0]
    m.durations = [2 * ref] * 4 + [4 * ref]
    # the two samples inside [0.5, 2.5] are taken out, the rest ran at half speed
    assert m.seconds(0.5, 2.5) == pytest.approx((2.0 - 4 * ref) / 2)
    # a short stretch borrows the samples within WINDOW_S around it
    assert m.seconds(9.9, 9.95) == pytest.approx(0.05 / 4)
    # with none near it, the run's typical sample does (the 4x one is its slowest fifth)
    assert m.seconds(9.9, 9.95, pad=0.0) == pytest.approx(0.05 / 2)
    # a child's own samples rescale its stretch
    child = {"n": 3, "sum_s": 0.3, "typical_s": 3 * ref}
    assert m.seconds(0.0, 1.3, child) == pytest.approx(1.0 / 3)
    # the slowest fifth of the samples does not count
    assert speed.typical([1.0] * 8 + [50.0, 90.0]) == 1.0
    assert speed.Meter(enabled=False).seconds(1.0, 3.5, child) == 2.5


def test_metered_child_passes_output_through_and_reports(tmp_path):
    script = tmp_path / "busy.py"
    script.write_text("import sys, time\n"
                      "t = time.perf_counter()\n"
                      "while time.perf_counter() - t < 0.3: pass\n"
                      "print('out', sys.argv[1:])\n"
                      "sys.exit(3)\n")
    report = tmp_path / "report.json"
    proc = subprocess.run(wl.metered_cmd(report, [str(script), "a", "b"]),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == "out ['a', 'b']\n"
    summary = wl.read_report(report)
    assert summary["n"] >= 3 and summary["typical_s"] > 0 and not report.exists()


def _ctx(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1")
    return wl.Ctx(root=ROOT, work=tmp_path, env=env)


def _failed(ops):
    return [op.name for op in ops if op.failed]


def test_wrong_reference_lambda_fails_both_solves(tmp_path):
    inp = wl.build("eigen_reference", "small", 3)
    inp.cfg = dict(inp.cfg, eigen_lam=wl.LAM_SMALL + 1e-9)
    ops = wl.eigen_reference(inp, _ctx(tmp_path), Tracer(False))
    assert _failed(ops) == ["eigen.gaussian", "eigen.bump"]
    assert all("reference" in e for op in ops if op.failed for e in op.errors)


def test_tightened_tolerance_fails_the_converged_solves(tmp_path, monkeypatch):
    monkeypatch.setattr(wl, "EL_TOL", 1e-12)
    ops = wl.solver_breadth(wl.build("solver_breadth", "small", 3), _ctx(tmp_path), Tracer(False))
    assert {"coercive", "verify.coercive", "eigen.small", "verify.small"} <= set(_failed(ops))


def test_capped_solves_are_kept_as_data(tmp_path):
    inp = wl.build("solver_breadth", "small", 3)
    ops = wl.solver_breadth(inp, _ctx(tmp_path), Tracer(False))
    assert _failed(ops) == []
    capped = [op for op in ops if op.name.startswith("capped.")]
    assert len(capped) == 2
    for op in capped:
        assert op.converged is False and not op.ok
        assert op.detail["iters"] == inp.cfg["cap"] and op.detail["el_res"] > wl.EL_TOL


def test_cli_output_is_compared_with_the_library(tmp_path):
    inp = wl.build("atlas_cli", "small", 3)
    ctx = _ctx(tmp_path)
    ctx.cache["region-map"] = "not the atlas\n"
    ops = wl.atlas_cli(inp, ctx, Tracer(False))
    assert _failed(ops) == ["cli.region-map"]


def test_seed_drives_the_random_inputs():
    a, b, c = (wl.build("solver_breadth", "small", s) for s in (5, 5, 6))
    assert a.spot == b.spot and (a.newton_noise == b.newton_noise).all()
    assert a.spot != c.spot and not (a.newton_noise == c.newton_noise).all()


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("atlas_cli", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
