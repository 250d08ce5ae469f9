"""CLI behavior: JSON documents, files, exit codes, round-trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import inlslab as il
from inlslab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_scaled(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--N", "3", "--b", "1", "--q", "3.5", "--p", "3",
        "--eta", "1.3333333333333333", "--r", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["regime"] == "Scaled" and doc["admissible"] is True
    assert doc["interval"]["lower"] < 3 < doc["interval"]["upper"]


def test_classify_validation_error(capsys):
    code, _, err = run_cli(
        capsys, "classify", "--N", "3", "--b", "1", "--q", "4.0", "--p", "3",
        "--eta", "1", "--r", "3",
    )
    assert code == 2
    assert json.loads(err)["error"] == "HYPOTHESIS_VIOLATION"


def test_region_map_csv(tmp_path, capsys):
    out_csv = tmp_path / "atlas.csv"
    code, out, _ = run_cli(
        capsys, "region-map", "--N", "3", "--b", "1", "--q", "3.5", "--p", "3",
        "--eta-min", "0", "--eta-max", "2", "--eta-steps", "5",
        "--r-min", "1.5", "--r-max", "6", "--r-steps", "4",
        "--out", str(out_csv),
    )
    assert code == 0
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == (
        "eta,r,admissible,regime,nonexistence,lower,lower_included,upper,upper_included"
    )
    assert len(lines) == 1 + 20
    assert json.loads(out)["rows"] == 20


def test_eigen_writes_and_verify_roundtrip(tmp_path, capsys):
    outdir = tmp_path / "run"
    args = [
        "eigen", "--N", "3", "--b", "1", "--q", "3.5", "--p", "3",
        "--s-min", "1e-3", "--s-max", "1e3", "--M", "257",
        "--out", str(outdir),
    ]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    rep = json.loads(out)
    assert rep["converged"] is True
    assert (outdir / "profile.csv").exists()
    assert json.loads((outdir / "report.json").read_text())["value"] == rep["value"]

    code2, out2, _ = run_cli(
        capsys, "verify", "--N", "3", "--b", "1", "--q", "3.5", "--p", "3",
        "--profile", str(outdir / "profile.csv"),
        "--lambda", repr(rep["value"]),
    )
    assert code2 == 0
    ver = json.loads(out2)
    assert ver["el_res"] == pytest.approx(rep["el_res"], abs=1e-12)
    assert ver["pohozaev_res"] == pytest.approx(rep["pohozaev_res"], abs=1e-12)
    assert ver["eigen_rel_res"] == pytest.approx(rep["eigen_rel_res"], abs=1e-12)


def test_verify_zero_profile(tmp_path, capsys):
    g = il.make_grid(1e-2, 1e2, 64, 3)
    import numpy as np

    p = tmp_path / "zero.csv"
    il.save_profile(il.RadialProfile(g, np.zeros(64)), p)
    code, out, _ = run_cli(
        capsys, "verify", "--N", "3", "--b", "1", "--q", "3.5", "--p", "3",
        "--profile", str(p), "--term", "1.0,0.5,3.0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["el_res"] == 0.0 and doc["pohozaev_res"] == 0.0 and doc["eigen_rel_res"] == 0.0


def test_eigen_divergence_exit(capsys):
    code, out, err = run_cli(
        capsys, "eigen", "--N", "3", "--b", "1", "--q", "3.5", "--p", "3",
        "--s-min", "1e-3", "--s-max", "1e3", "--M", "257", "--max-iters", "2",
    )
    assert code == 3
    assert json.loads(out)["converged"] is False
    assert json.loads(err)["error"] == "DIVERGED"


def test_minimize_not_coercive_exit(capsys):
    code, _, err = run_cli(
        capsys, "minimize", "--N", "3", "--b", "1", "--q", "3.5", "--p", "3",
        "--s-min", "1e-3", "--s-max", "1e3", "--M", "257",
        "--term", "1.0,0.5,5.0",
    )
    assert code == 2
    assert json.loads(err)["error"] == "NOT_COERCIVE_CONFIG"


def test_thresholds_document(capsys):
    code, out, _ = run_cli(
        capsys, "thresholds", "--N", "3", "--eta1", "1", "--S1", "1",
        "--eta2", "0", "--S2", "1", "--mu", "0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["cstar"] == pytest.approx(0.25)
    assert doc["tilde_s"] == pytest.approx(1.0)


def test_thresholds_truncation_radii(capsys):
    code, out, _ = run_cli(
        capsys, "thresholds", "--N", "3", "--eta1", "0.5", "--S1", "1",
        "--mu", "0.1", "--C", "1.0", "--C1", "1.0",
        "--b", "1", "--q", "3.5", "--p", "3", "--eta", "1.8", "--r", "2.2",
    )
    assert code == 0
    doc = json.loads(out)
    assert 0 < doc["truncation_R1"] < doc["truncation_R2"]


def test_probe_document(capsys):
    code, out, _ = run_cli(
        capsys, "probe", "--N", "3", "--eta", "0",
        "--s-min", "1e-3", "--s-max", "1e3", "--M", "257",
    )
    assert code == 0
    assert json.loads(out)["S"] > 0


def test_floats_have_17_significant_digits(capsys):
    _, out, _ = run_cli(
        capsys, "thresholds", "--N", "3", "--eta1", "0.3", "--S1", "1.7",
    )
    value = out.split('"cstar": ')[1].split("\n")[0].strip()
    mantissa = value.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
    assert len(mantissa) == 17


def test_import_loads_no_scipy():
    # scipy is imported where a solve first needs it, so the scalar
    # commands, root searches included, start without it
    src = str(Path(il.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, inlslab; "
         "inlslab.tilde_s_root(0.7, 1.9, 0.6, 5, 0.3, 1.7); "
         "inlslab.gamma_mu_roots(0.2, 1.0, 1.0, 0.5, 2.0); "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.strip() == "[]"
