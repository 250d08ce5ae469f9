"""CLI behavior: JSON documents, files, exit codes, round-trips."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import inlslab as il
from inlslab import solver
from inlslab.cli import _linspace, build_parser, main
from inlslab.functionals import Energy


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


#: the README classify command's stdout; the interval keys follow EmbeddingInterval._fields
README_CLASSIFY_STDOUT = """\
{
  "admissible": true,
  "regime": "Scaled",
  "reason": "OK",
  "interval": {
    "lower": 2.916666666666667,
    "upper": 3.3333333333333335,
    "lower_included": false,
    "upper_included": true,
    "radial": false,
    "compact_interior": true
  }
}
"""


def test_classify_scaled(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--N", "3", "--b", "1", "--q", "3.5", "--p", "3",
        "--eta", "1.3333333333333333", "--r", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["regime"] == "Scaled" and doc["admissible"] is True
    assert doc["interval"]["lower"] < 3 < doc["interval"]["upper"]
    assert out == README_CLASSIFY_STDOUT


def test_classify_validation_error(capsys):
    code, _, err = run_cli(
        capsys, "classify", "--N", "3", "--b", "1", "--q", "4.0", "--p", "3",
        "--eta", "1", "--r", "3",
    )
    assert code == 2
    assert json.loads(err)["error"] == "HYPOTHESIS_VIOLATION"


def test_a_derived_exponent_on_its_bound_is_a_validation_error(capsys):
    # p is the float after 2: a = 2 - delta (p - 2) rounds to 2
    code, out, err = run_cli(
        capsys, "classify", "--N", "2", "--b", "1", "--q", "1e6", "--p", "2.0000000000000004",
        "--eta", "1", "--r", "3",
    )
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "HYPOTHESIS_VIOLATION", "message": "derived a = 2.0 outside (b, 2)"}


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


def _fresh_env():
    src = str(Path(il.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _loaded(modules, *packages):
    return sorted(m for m in modules if m.split(".")[0] in packages)


def test_import_loads_no_scipy():
    # the package resolves its names lazily and the exponent calculus is
    # pure Python, so importing it and running the scalar root searches
    # loads neither numpy nor scipy
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, inlslab; "
         "inlslab.tilde_s_root(0.7, 1.9, 0.6, 5, 0.3, 1.7); "
         "inlslab.gamma_mu_roots(0.2, 1.0, 1.0, 0.5, 2.0); "
         "print(' '.join(sys.modules))"],
        capture_output=True, text=True, env=_fresh_env(), check=True,
    )
    assert _loaded(proc.stdout.split(), "numpy", "scipy") == []


def test_solvers_load_no_regimes():
    # the parameters live in the small exponents module; of the solvers only
    # minimize_coercive imports regimes, to classify its terms
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, warnings, inlslab as il; "
         "warnings.simplefilter('ignore'); "
         "P = il.derive_params(3, 1.0, 3.5, 3.0); g = il.make_grid(1e-2, 1e2, 65, 3); "
         "rep = il.minimize_rayleigh(g, P, il.sample_function(g, 'Gaussian', sigma=1.0)); "
         "il.el_residual(rep.profile, P, rep.value, []); "
         "il.probe_best_constant(g, 3, 0.0); "
         "print(' '.join(sys.modules))"],
        capture_output=True, text=True, env=_fresh_env(), check=True,
    )
    modules = proc.stdout.split()
    assert "inlslab.solver" in modules and "inlslab.regimes" not in modules


PARAMS = ["--N", "3", "--b", "1", "--q", "3.5", "--p", "3"]

README_COMMANDS = [
    ["classify", *PARAMS, "--eta", "1.3333333333333333", "--r", "3"],
    ["region-map", *PARAMS,
     "--eta-min", "0", "--eta-max", "2.4", "--eta-steps", "60",
     "--r-min", "1.1", "--r-max", "7", "--r-steps", "60", "--out", "atlas.csv"],
    ["eigen", *PARAMS,
     "--s-min", "1e-4", "--s-max", "1e4", "--M", "1025", "--out", "run/"],
    ["minimize", *PARAMS,
     "--s-min", "2e-5", "--s-max", "1e4", "--M", "1025", "--term", "1.0,1.8,2.2"],
    ["verify", *PARAMS,
     "--profile", "run/profile.csv", "--lambda", "1.32266303731265"],
    ["thresholds", "--N", "3", "--eta1", "0.5", "--S1", "1.0", "--eta2", "1.0", "--S2", "1.0",
     "--mu", "0.3", "--C", "1", "--C1", "1", "--b", "1", "--q", "3.5", "--p", "3",
     "--eta", "1.8", "--r", "2.2"],
    ["probe", "--N", "3", "--eta", "0", "--s-min", "1e-4", "--s-max", "1e4", "--M", "1025"],
]

#: runs one command in a fresh interpreter; the last stderr line lists sys.modules
_FRESH_MAIN = (
    "import sys\n"
    "from inlslab.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stderr.write('\\n' + ' '.join(sys.modules) + '\\n')\n"
    "sys.exit(code)\n"
)


def test_readme_commands_in_a_fresh_interpreter(tmp_path, monkeypatch, capsys):
    # in-process calls cannot see a per-command import that went missing,
    # since pytest has imported every module already
    monkeypatch.chdir(tmp_path)
    for argv in README_COMMANDS:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv[0]
        proc = subprocess.run(
            [sys.executable, "-c", _FRESH_MAIN, *argv],
            capture_output=True, text=True, env=_fresh_env(), cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == out, argv[0]
        modules = proc.stderr.splitlines()[-1].split()
        # generated dataclass code costs every command about 1 ms per class
        assert "dataclasses" not in modules, argv[0]
        if argv[0] in ("probe", "minimize"):
            # json is imported only to save or load a profile
            assert "json" not in modules, argv[0]
        if argv[0] in ("classify", "region-map", "thresholds"):
            assert _loaded(modules, "numpy", "scipy", "inspect") == [], argv[0]
        elif argv[0] == "verify":
            assert _loaded(modules, "scipy") == []
        else:  # the solvers load LAPACK from its file, not the scipy.linalg package
            assert "scipy.linalg" not in modules, argv[0]
            assert "scipy.linalg._flapack" in modules, argv[0]


def _parser_output(parser, argv, capsys):
    # help and usage errors print, then end in SystemExit
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    return exc.value.code, capsys.readouterr()


@pytest.mark.parametrize("argv", README_COMMANDS, ids=[argv[0] for argv in README_COMMANDS])
def test_one_command_parser_matches_the_full_parser(argv, capsys):
    # main builds only the subparser of the command it runs; what it parses
    # and every text it prints must be the full parser's
    command = argv[0]
    assert build_parser(command).parse_args(argv) == build_parser().parse_args(argv)
    for probe in ([command, "--help"], [command], [*argv, "extra"], [*argv, "--N", "x"]):
        assert (_parser_output(build_parser(command), probe, capsys)
                == _parser_output(build_parser(), probe, capsys)), probe


@pytest.mark.parametrize("argv, lines", [
    (["classify", "--N", "2", "--b", "1", "--q", "3", "--p", "2.5", "--eta", "0.5", "--r", "3", "--radial"],
     ['"upper": "inf"']),
    (["eigen", *PARAMS, "--s-min", "1e-3", "--s-max", "1e3", "--M", "257", "--init", "bump"],
     ['"value": 1.3458659777074762', '"iters": 18']),
    # the Gaussian init is centred on the window; sigma = 1 vanished on every node here
    (["eigen", *PARAMS, "--s-min", "100", "--s-max", "1e6", "--M", "257"],
     ['"value": 1.4237571288795705', '"iters": 37']),
    # the coercive scan dilates the Gaussian; it used to end at +1.09e-14 here
    (["minimize", *PARAMS, "--s-min", "3", "--s-max", "1e5", "--M", "257", "--term", "1.0,1.8,2.2"],
     ['"value": -2.8954512878331933', '"iters": 11']),
], ids=["classify-N2-infinite-upper", "eigen-bump-init", "eigen-outer-window", "minimize-outer-window"])
def test_command_prints_pinned_lines(argv, lines, capsys):
    # outputs the README commands do not reach; the eigen lines are the ones CI greps
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    for line in lines:
        assert line in out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["probe", "--N", "3", "--eta", "0.5", "--s-min", "1e-3", "--s-max", "1e3", "--M", "257", "--max-iters", "1"],
    ["minimize", *PARAMS, "--s-min", "2e-5", "--s-max", "1e4", "--M", "1025", "--term", "1.0,1.8,2.2",
     "--max-iters", "1"],
], ids=["probe", "minimize"])
def test_capped_solve_prints_its_result_then_diverges(argv, capsys):
    # the result at the cap goes to stdout; stderr has the DIVERGED document
    # alone, and no warning is raised
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert json.loads(out)
    assert json.loads(err)["error"] == "DIVERGED"


def test_minimize_with_no_finite_scanned_energy_is_a_json_error(capsys, monkeypatch):
    # every scanned energy is NaN, so the solve starts from the centred
    # Gaussian, whose energy is NaN too: an init out of float range
    terms = [(1.0, 1.0, 3.5), (math.inf, 1.8, 2.2), (-math.inf, 1.8, 2.2)]
    monkeypatch.setattr(solver, "_phi_energy", lambda grid, *_: Energy(grid, terms))
    code, out, err = run_cli(capsys, "minimize", *PARAMS, "--s-min", "1e-3", "--s-max", "1e3", "--M", "257",
                             "--term", "1.0,1.8,2.2")
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "DOMAIN" and doc["message"].startswith("init out of float range: objective nan")


def test_overflowing_term_coefficients_are_a_json_error():
    # c r mass overflows to inf for c = +-1e300, so the init's residual is not
    # finite: a domain error in one JSON document, with no numpy warning (it
    # printed two overflow warnings, then "el_res": "nan", and exited 3)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "inlslab.cli", "minimize", *PARAMS,
         "--s-min", "1e50", "--s-max", "1e100", "--M", "257", "--term", "1e300,1.8,2.2", "--term=-1e300,1.5,2.7"],
        capture_output=True, text=True, env=_fresh_env(),
    )
    assert proc.returncode == 2 and proc.stdout == ""
    doc = json.loads(proc.stderr)
    assert doc["error"] == "DOMAIN" and doc["message"].startswith("init out of float range")


def _malformed_profile(tmp_path, first_line=None, bad_row=False, swap_rows=False, s_times=None,
                       columns=None, short=False):
    path = tmp_path / "profile.csv"
    il.save_profile(il.RadialProfile(il.make_grid(1e-2, 1e2, 64, 3), np.ones(64)), path)
    lines = path.read_text().split("\n")
    if first_line is not None:
        lines[0] = first_line
    if columns is not None:
        lines[1] = columns
    if short:  # 8 of the grid's 64 rows
        del lines[10:]
    if bad_row:
        lines[5] = lines[5].split(",")[0] + ",abc"
    if swap_rows:  # the values land on each other's nodes
        lines[5], lines[6] = lines[6], lines[5]
    if s_times is not None:
        lines[2:-1] = [f"{float(s) * s_times!r},{v}" for s, v in (row.split(",") for row in lines[2:-1])]
    path.write_text("\n".join(lines))
    return str(path)


def _file(tmp_path):
    path = tmp_path / "plain-file"
    path.write_text("")
    return path


def _region_map(out, eta_steps="5", eta_max="2"):
    return ["region-map", *PARAMS, "--eta-min", "0", "--eta-max", eta_max, "--eta-steps", eta_steps,
            "--r-min", "1.5", "--r-max", "6", "--r-steps", "4", "--out", str(out)]


def _classify(eta, r):
    return ["classify", *PARAMS, "--eta", eta, "--r", r]


def _thresholds(*args):
    return ["thresholds", "--N", "3", "--eta1", "0.5", *args]


_WINDOW = ("--b", "1", "--q", "3.5", "--p", "3", "--eta", "1.8", "--r", "2.2")
#: a window whose inner nodes' weights s^3 underflow to 0
_UNDERFLOW = ("--s-min", "1e-110", "--s-max", "1", "--M", "257")


@pytest.mark.parametrize(
    "make_argv",
    [
        lambda d: ["verify", *PARAMS, "--profile", str(d / "missing.csv")],
        lambda d: ["verify", *PARAMS, "--profile", str(d)],
        lambda d: ["verify", *PARAMS, "--profile", _malformed_profile(d, first_line="# {not json")],
        lambda d: ["verify", *PARAMS, "--profile", _malformed_profile(d, first_line='# {"N": 3}')],
        lambda d: ["verify", *PARAMS, "--profile", _malformed_profile(d, bad_row=True)],
        lambda d: ["verify", *PARAMS, "--profile", _malformed_profile(d, swap_rows=True)],
        lambda d: ["verify", *PARAMS, "--profile", _malformed_profile(d, s_times=7.0)],
        lambda d: ["verify", "--N", "4", "--b", "1", "--q", "2.5", "--p", "2.2",
                   "--profile", _malformed_profile(d)],
        lambda d: _region_map(d / "atlas.csv", eta_steps="-1"),
        lambda d: _region_map(_file(d) / "atlas.csv"),
        lambda d: ["eigen", *PARAMS, "--s-min", "1e-3", "--s-max", "1e3", "--M", "257",
                   "--out", str(_file(d))],
        lambda d: _classify("1", "nan"),
        lambda d: _classify("1", "inf"),
        lambda d: _classify("nan", "3"),
        lambda d: _region_map(d / "atlas.csv", eta_steps="3", eta_max="nan"),
        lambda d: _thresholds("--S1", "nan"),
        lambda d: _thresholds("--S1", "inf", "--eta2", "1.0", "--S2", "1.0", "--mu", "0.3"),
        lambda d: _thresholds("--S1", "1.0", "--eta2", "1.0", "--S2", "nan", "--mu", "0.3"),
        lambda d: _thresholds("--S1", "1.0", "--eta2", "1.0", "--S2", "1.0", "--mu", "inf"),
        lambda d: _thresholds("--S1", "1.0", "--mu", "0.3", "--C", "nan", "--C1", "1", *_WINDOW),
        lambda d: _thresholds("--S1", "1.0", "--mu", "0.3", "--C", "1", "--C1", "inf", *_WINDOW),
        lambda d: _thresholds("--S1", "1e300"),
        lambda d: _thresholds("--S1", "1e-300", "--eta2", "1.0", "--S2", "1.0", "--mu", "0.3"),
        lambda d: _thresholds("--S1", "1.0", "--C", "1", "--C1", "1"),
        lambda d: ["minimize", *PARAMS, "--s-min", "1e-2", "--s-max", "1e2", "--M", "64",
                   "--term", "1.0,1.8"],
        lambda d: ["eigen", *PARAMS, "--s-min", "1e-3", "--s-max", "1e3", "--M", "257", "--grad-tol", "nan"],
        lambda d: ["eigen", *PARAMS, "--s-min", "1e-3", "--s-max", "1e3", "--M", "257", "--grad-tol", "inf"],
        lambda d: ["eigen", *PARAMS, "--s-max", "inf"],
        lambda d: ["minimize", *PARAMS, "--s-min", "1e-2", "--s-max", "1e2", "--M", "64",
                   "--term", "nan,1.8,2.2"],
        lambda d: ["minimize", *PARAMS, "--s-min", "1e-2", "--s-max", "1e2", "--M", "64",
                   "--term", "inf,1.8,2.2"],
        lambda d: ["minimize", *PARAMS, "--s-min", "1e-2", "--s-max", "1e2", "--M", "64",
                   "--term", "1.0,1.8,2.2", "--lambda", "nan"],
        lambda d: ["verify", *PARAMS, "--profile", _malformed_profile(d), "--term", "1,1,nan"],
        lambda d: ["verify", *PARAMS, "--profile", _malformed_profile(d), "--lambda", "nan"],
        lambda d: ["verify", *PARAMS, "--profile", _malformed_profile(d, first_line="s,u")],
        lambda d: ["verify", *PARAMS, "--profile", _malformed_profile(d, columns="s,v")],
        lambda d: ["verify", *PARAMS, "--profile", _malformed_profile(d, short=True)],
        lambda d: _thresholds("--S1", "1.0", "--mu", "0.3", "--C", "1", *_WINDOW),
        lambda d: _thresholds("--S1", "1.0", "--mu", "0.3", "--C1", "1", *_WINDOW),
        lambda d: _thresholds("--S1", "1.0", "--eta2", "1.0", "--mu", "0.3"),
        lambda d: _thresholds("--S1", "1.0", "--S2", "1.0", "--mu", "0.3"),
        lambda d: ["eigen", *PARAMS, "--s-min", "1e-160", "--s-max", "1e160", "--M", "257"],
        lambda d: ["eigen", *PARAMS, "--s-min", "1e-120", "--s-max", "1e120", "--M", "257"],
        lambda d: ["probe", "--N", "3", "--eta", "0.5", "--s-min", "1e-120", "--s-max", "1e120", "--M", "257"],
        lambda d: ["eigen", *PARAMS, *_UNDERFLOW],
        # the centred Gaussian's s^2 / sigma^2 is 0 / 0 on the inner nodes
        lambda d: ["eigen", *PARAMS, "--s-min", "1e-250", "--s-max", "1e-80", "--M", "257"],
        lambda d: ["minimize", *PARAMS, *_UNDERFLOW, "--term", "1.0,1.8,2.2"],
        lambda d: ["probe", "--N", "3", "--eta", "0.5", *_UNDERFLOW],
        # past numpy's array size limit: rejected before anything is allocated
        lambda d: ["eigen", *PARAMS, "--s-min", "1e-3", "--s-max", "1e3", "--M", "100000000000000000000"],
    ],
    ids=["missing-profile", "directory-profile", "header-not-json", "header-missing-keys",
         "row-not-numeric", "rows-swapped", "s-column-scaled", "verify-dimension-mismatch",
         "negative-steps", "unwritable-csv", "unwritable-out-dir",
         "classify-r-nan", "classify-r-inf", "classify-eta-nan", "region-map-eta-nan",
         "thresholds-S1-nan", "thresholds-S1-inf", "thresholds-S2-nan", "thresholds-mu-inf",
         "thresholds-C-nan", "thresholds-C1-inf", "thresholds-cstar-overflow",
         "thresholds-tilde-s-overflow", "thresholds-window-without-exponents", "minimize-term-malformed",
         "eigen-grad-tol-nan", "eigen-grad-tol-inf", "eigen-s-max-inf", "minimize-term-c-nan",
         "minimize-term-c-inf", "minimize-lambda-nan", "verify-term-r-nan", "verify-lambda-nan",
         "no-metadata-line", "wrong-column-header", "short-profile", "thresholds-C-without-C1",
         "thresholds-C1-without-C", "thresholds-eta2-without-S2", "thresholds-S2-without-eta2",
         "eigen-nodes-past-float-range", "eigen-weights-past-float-range",
         "probe-weights-past-float-range", "eigen-inner-weights-underflow", "eigen-centred-gaussian-underflow",
         "minimize-inner-weights-underflow", "probe-inner-weights-underflow", "eigen-M-past-array-size"],
)
def test_bad_input_is_a_json_error(tmp_path, capsys, make_argv):
    # bad files and arguments are validation errors: one JSON document on
    # stderr and exit 2, never a traceback
    code, out, err = run_cli(capsys, *make_argv(tmp_path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "DOMAIN"


_finite = st.one_of(st.floats(-10.0, 10.0), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(a=_finite, b=_finite, n=st.integers(0, 500))
def test_linspace_matches_numpy_bit_for_bit(a, b, n):
    with np.errstate(over="ignore", invalid="ignore"):
        want = [float(x).hex() for x in np.linspace(a, b, n)]
    assert [x.hex() for x in _linspace(a, b, n)] == want


def test_linspace_rejects_negative_count():
    with pytest.raises(il.DomainError):
        _linspace(0.0, 1.0, -1)


#: the public names, as __all__ listed them when it was written out by hand
PUBLIC_NAMES = """
Diverged DomainError EmptyGridError EmbeddingInterval FunctionalReport HypothesisViolation
InlsError NotCoerciveConfig Params ProfileFamily RadialGrid RadialProfile Regime RegimeVerdict
SearchFailed SingularHessian SolveOptions SolveReport TermSpec WeightedPair ZeroProfileError
I_energy J_energy classify_pair critical_exponent derive_params dirichlet_energy
eigen_relation_residual el_residual ell_of functional_report gamma_mu_roots grad_phi
interpolation_pair load_profile lower_endpoint make_grid minimize_coercive minimize_rayleigh
newton_refine nonexistence phi pohozaev_residual probe_best_constant project_to_M ps_threshold
rayleigh region_map region_map_csv sample_function save_profile scale scale_profile
scaled_threshold sphere_area tilde_s_root weighted_integral
""".split()


def test_lazy_namespace():
    assert len(PUBLIC_NAMES) == 57
    assert sorted(il.__all__) == sorted(PUBLIC_NAMES)
    assert len(set(il.__all__)) == len(il.__all__)
    for name in il.__all__:
        assert getattr(il, name) is not None
        assert name in dir(il)
    with pytest.raises(AttributeError):
        il.no_such_name
