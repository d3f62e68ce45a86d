import csv
import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import pseudoscope.cli as cli
import pseudoscope.experiments as experiments
from pseudoscope import ExperimentConfig, ShapeError, StructureSpec
from pseudoscope.cli import main


def read_eigenvalue_csv(path):
    """Inverse of ``report.write_eigenvalue_csv``: {trial: complex ndarray}."""
    out = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.setdefault(int(row["trial"]), []).append(
                complex(float(row["re"]), float(row["im"]))
            )
    return {k: np.asarray(v, dtype=np.complex128) for k, v in out.items()}


def verify_manifest(out_dir):
    """Whether every file in ``run_manifest.json`` has its listed checksum."""
    with open(os.path.join(out_dir, "run_manifest.json")) as fh:
        manifest = json.load(fh)
    for name, digest in manifest["files"].items():
        with open(os.path.join(out_dir, name), "rb") as fh:
            actual = "sha256:" + hashlib.sha256(fh.read()).hexdigest()
        if actual != digest:
            return False
    return True


EXPERIMENT_CFG = """\
[experiment]
structure = jordan
d = 20
eps = 2.0
trials = 30
seed = 11
solver = auto
region = auto
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_experiment_outputs(tmp_path):
    cfg = _write(tmp_path, EXPERIMENT_CFG)
    out = str(tmp_path / "out")
    assert main(["experiment", "--config", cfg, "--out", out]) == 0
    for name in ("eigenvalues.csv", "report.json", "scatter.svg", "run_manifest.json"):
        assert os.path.exists(os.path.join(out, name))

    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["schema_version"] == 2
    assert "wall_time_s" not in report
    assert report["config"]["structure"] == "jordan"
    assert report["config"]["d"] == 20
    assert 0.0 <= report["eigenvalue_containment_fraction"] <= 1.0
    q = report["deviation_quantiles"]
    assert q["q50"] <= q["q90"] <= q["q99"] <= q["max"]

    assert verify_manifest(out)


def test_eigenvalue_csv_roundtrips_exactly(tmp_path):
    cfg = _write(tmp_path, EXPERIMENT_CFG)
    out = str(tmp_path / "out")
    assert main(["experiment", "--config", cfg, "--out", out]) == 0
    from pseudoscope import ExperimentConfig, StructureSpec, run_experiment

    report = run_experiment(
        ExperimentConfig(
            structure=StructureSpec.parse("jordan"), d=20, eps=2.0,
            trials=30, seed=11,
        )
    )
    parsed = read_eigenvalue_csv(os.path.join(out, "eigenvalues.csv"))
    assert sorted(parsed) == report.indices.tolist()
    for i, lams in zip(report.indices, report.eigenvalues):
        assert np.array_equal(parsed[i], lams)


def test_scatter_svg_well_formed_with_counts(tmp_path):
    cfg = _write(tmp_path, EXPERIMENT_CFG)
    out = str(tmp_path / "out")
    assert main(["experiment", "--config", cfg, "--out", out]) == 0
    tree = ET.parse(os.path.join(out, "scatter.svg"))
    ns = "{http://www.w3.org/2000/svg}"
    circles = tree.getroot().findall(f".//{ns}circle")
    paths = tree.getroot().findall(f".//{ns}path")
    assert len(circles) == 30 * 20  # one point element per eigenvalue
    assert len(paths) >= 1


def test_threads_do_not_change_csv_bytes(tmp_path):
    cfg = _write(tmp_path, EXPERIMENT_CFG)
    names = ("eigenvalues.csv", "report.json", "scatter.svg", "run_manifest.json")
    outputs = []
    for threads in ("1", "2", "3"):
        out = str(tmp_path / f"t{threads}")
        assert main(["experiment", "--config", cfg, "--out", out, "--threads", threads]) == 0
        outputs.append({n: open(os.path.join(out, n), "rb").read() for n in names})
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_seed_override_changes_results(tmp_path):
    cfg = _write(tmp_path, EXPERIMENT_CFG)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["experiment", "--config", cfg, "--out", out1]) == 0
    assert main(["experiment", "--config", cfg, "--out", out2, "--seed", "999"]) == 0
    b1 = open(os.path.join(out1, "eigenvalues.csv"), "rb").read()
    b2 = open(os.path.join(out2, "eigenvalues.csv"), "rb").read()
    assert b1 != b2


def test_malformed_config_exit_2_with_line(tmp_path, capsys):
    for key in ("wat = 5", "dims = 16,32,64"):
        bad = f"[experiment]\nstructure = jordan\nd = 20\neps = 2.0\n{key}\n"
        cfg = _write(tmp_path, bad)
        out = tmp_path / "o"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "line 5" in err and key.split()[0] in err
        assert not (out / "report.json").exists()


def test_bad_structure_reports_its_line(tmp_path, capsys):
    for structure in ("banana", "zero(3)", "jordan(5)", "toeplitz(3,0)", "jordan-corner(0)"):
        bad = f"[experiment]\nd = 20\neps = 2.0\nstructure = {structure}\n"
        out = tmp_path / "o"
        assert main(["experiment", "--config", _write(tmp_path, bad), "--out", str(out)]) == 2
        assert "line 4" in capsys.readouterr().err
        assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "structure, solver",
    [("jordan", "bogus"), ("jordan", "resolvent-aberth"),
     ("toeplitz(3,2,1)", "resolvent-aberth"), ("toeplitz(3,2,1)", "jordan-poly")],
)
def test_solver_outside_route_table_exit_2_with_line(tmp_path, capsys, structure, solver):
    text = f"[experiment]\nstructure = {structure}\nd = 20\neps = 2.0\nsolver = {solver}\n"
    out = tmp_path / "o"
    assert main(["experiment", "--config", _write(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "line 5" in err and solver in err
    assert not (out / "report.json").exists()


def test_missing_section_rejected(tmp_path):
    cfg = _write(tmp_path, "structure = jordan\n")
    assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_scaling_command(tmp_path):
    text = (
        "[experiment]\nstructure = diagonal(2,3)\neps = 2.0\n"
        "dims = 16,32,64\ntrials = 40\nseed = 5\n"
    )
    cfg = _write(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["scaling", "--config", cfg, "--out", out]) == 0
    fit = json.loads((tmp_path / "out" / "scaling.json").read_text())
    assert fit["slope"] < -0.3
    tree = ET.parse(os.path.join(out, "scaling.svg"))
    assert tree.getroot().tag.endswith("svg")
    rows = open(os.path.join(out, "scaling.csv")).read().splitlines()
    assert rows[0].split(",")[:2] == ["d", "median_deviation"]
    assert len(rows) == 4
    assert verify_manifest(out)


def test_scaling_uses_config_solver(tmp_path, capsys):
    text = (
        "[experiment]\nstructure = diagonal(2,3)\neps = 2.0\n"
        "dims = 16,32,64\ntrials = 5\nseed = 5\nsolver = jordan-poly\n"
    )
    cfg = _write(tmp_path, text)
    assert main(["scaling", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "jordan-poly" in capsys.readouterr().err


def test_scaling_rejects_region_key(tmp_path, capsys):
    for key in ("region = 0.1", "d = 20"):
        text = (
            f"[experiment]\nstructure = jordan\neps = 2.0\n{key}\n"
            "dims = 16,32,64\ntrials = 5\n"
        )
        cfg = _write(tmp_path, text)
        out = tmp_path / "o"
        assert main(["scaling", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "line 4" in err and f"no {key.split()[0]} key" in err
        assert not (out / "scaling.json").exists()


def test_scaling_rejects_empty_and_single_dims(tmp_path):
    for dims in ("", "64"):
        text = f"[experiment]\nstructure = jordan\neps = 2.0\ndims = {dims}\nseed = 1\n"
        cfg = _write(tmp_path, text, name=f"s{len(dims)}.cfg")
        assert main(["scaling", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_scaling_rejects_repeated_dims(tmp_path, capsys):
    # 64,64,64 fitted a line through one point (slope -0.090 and a numpy
    # RankWarning, exit 0); 64,64,128 fitted two
    for dims in ("64,64,64", "64,64,128"):
        text = f"[experiment]\nstructure = jordan\neps = 2.0\ndims = {dims}\ntrials = 5\n"
        cfg = _write(tmp_path, text)
        out = tmp_path / "o"
        assert main(["scaling", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "line 4" in err and "dims repeats a dimension" in err
        assert not (out / "scaling.json").exists()


@pytest.mark.parametrize(
    "which,extra",
    [
        ("norm", "d = 60\ntrials = 20000\n"),
        ("hw", "d = 40\nk = 0\ntrials = 10000\n"),
        ("cw", "d = 40\ntrials = 10000\n"),
        ("qf-diag", "d = 30\ntrials = 10000\n"),
        ("corner", "d = 50\ndelta = 0.06\ntrials = 20000\n"),
    ],
)
def test_tails_commands(tmp_path, which, extra):
    text = f"[experiment]\nwhich = {which}\nseed = 3\n{extra}"
    cfg = _write(tmp_path, text)
    out = str(tmp_path / which)
    assert main(["tails", "--config", cfg, "--out", out]) == 0
    rows = open(os.path.join(out, "tails.csv")).read().splitlines()
    assert rows[0].endswith("verdict")
    assert len(rows) >= 2
    manifest = json.loads((tmp_path / which / "run_manifest.json").read_text())
    assert manifest["verdict"] in ("pass", "fail")
    if which == "norm":
        assert manifest["verdict"] == "pass"


@pytest.mark.parametrize(
    "which,trials", [(which, 0) for which in cli.TAIL_KINDS] + [("norm", -5)]
)
def test_tails_rejects_nonpositive_trials(tmp_path, capsys, which, trials):
    cfg = _write(tmp_path, f"[experiment]\nwhich = {which}\nd = 20\ntrials = {trials}\n")
    out = tmp_path / "o"
    assert main(["tails", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "line 4" in err and "trials" in err
    assert not (out / "tails.csv").exists()


def test_tails_unknown_which(tmp_path):
    cfg = _write(tmp_path, "[experiment]\nwhich = nope\n")
    assert main(["tails", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_tails_rejects_keys_its_kind_never_reads(tmp_path, capsys):
    # C was a second spelling of corner's delta, dropped when both were set
    for which, key in (("corner", "C = 3"), ("norm", "k = 2"), ("norm", "entries = 1,2"),
                       ("norm", "delta = 0.1"), ("corner", "t_grid = 0.1")):
        cfg = _write(tmp_path, f"[experiment]\nwhich = {which}\nd = 20\n{key}\ntrials = 10\n")
        out = tmp_path / "o"
        assert main(["tails", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "line 4" in err and key.split()[0] in err
        assert not (out / "tails.csv").exists()


def test_tails_qf_diag_rejects_d_beside_entries(tmp_path, capsys):
    # entries fix the dimension, so a d key beside them would be ignored
    text = "[experiment]\nwhich = qf-diag\nd = 500\nentries = 1,2,3\ntrials = 100\n"
    assert main(["tails", "--config", _write(tmp_path, text), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "no d key" in err
    assert not (tmp_path / "o").exists()


def test_tails_qf_diag_rejects_all_zero_entries(tmp_path, capsys):
    # the decay scale is 1 / max|entries|, which all-zero entries leave undefined
    text = "[experiment]\nwhich = qf-diag\nentries = 0,0\ntrials = 100\n"
    assert main(["tails", "--config", _write(tmp_path, text), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "entries must hold a nonzero value" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("which", cli.TAIL_KINDS)
def test_tails_rejects_nonpositive_d(tmp_path, capsys, which):
    # every kind reads d (corner's default delta is 3 / d), so d is checked first
    cfg = _write(tmp_path, f"[experiment]\nwhich = {which}\nd = 0\ntrials = 10\n")
    assert main(["tails", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "d must be positive" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("structure, key, message", [
    ("jordan", "region = nan", "region must be auto or finite and positive"),
    ("jordan", "region = 0", "region must be auto or finite and positive"),
    ("diagonal(2,3)", "eps = inf", "eps must be finite and positive"),
    ("jordan", "eps = inf", "eps must be finite and positive"),
    ("jordan", "eps = nan", "eps must be finite and positive"),
])
def test_experiment_rejects_non_finite_eps_and_region(tmp_path, capsys, structure, key, message):
    # nan <= 0 is false, so a plain sign check let a nan half-width through
    # (written as "delta": NaN with containment 0) and an infinite eps into
    # the solve
    body = f"structure = {structure}\nd = 20\ntrials = 5\n{key}\n"
    if not key.startswith("eps"):
        body += "eps = 2.0\n"
    out = tmp_path / "o"
    cfg = _write(tmp_path, "[experiment]\n" + body)
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_commands_reject_flags_they_ignore(tmp_path):
    # tails runs no worker threads; oracle-check reads no config, writes no
    # files and draws from fixed streams
    cfg = _write(tmp_path, "[experiment]\nwhich = norm\nd = 20\ntrials = 10\n")
    out = tmp_path / "o"
    for argv in (["tails", "--config", cfg, "--out", str(out), "--threads", "2"],
                 ["oracle-check", "--seed", "1"], ["oracle-check", "--threads", "-3"],
                 ["oracle-check", "--out", str(out)]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
    assert not out.exists()


def test_oracle_check_passes_and_corrupt_hook_fails(tmp_path, monkeypatch, capsys):
    assert main(["oracle-check", "--d-max", "20", "--trials", "4"]) == 0
    out = capsys.readouterr().out
    for label in ("zero", "scalar(1+2j)", "diagonal(2,3)", "diagonal(1,2,3j)", "jordan",
                  "toeplitz(3,2)", "toeplitz(1+1j,0.5-2j)"):
        assert f"oracle-check {label} " in out
    assert "toeplitz(3,2) (jordan-poly)" in out and "dense-qr" not in out
    real = cli.solve

    def corrupted(structure, d, perts, route):
        spectra = real(structure, d, perts, route)
        if route != "dense-qr":
            spectra.eigenvalues[:, 0] += 1e-5
        return spectra

    monkeypatch.setattr(cli, "solve", corrupted)
    assert main(["oracle-check", "--d-max", "20", "--trials", "4"]) == 1


def test_oracle_check_reports_failed_fast_solve_and_goes_on(monkeypatch, capsys):
    # a fast route's failed trial is an oracle failure with its reason; the
    # other structures are still checked, with the dims they draw unforced
    assert main(["oracle-check", "--d-max", "20", "--trials", "4"]) == 0
    clean = capsys.readouterr().out.splitlines()
    real = cli.solve

    def failing(structure, d, perts, route):
        spectra = real(structure, d, perts, route)
        if structure.label() == "jordan" and route != "dense-qr":
            spectra.reason[:] = "forced failure"
        return spectra

    monkeypatch.setattr(cli, "solve", failing)
    assert main(["oracle-check", "--d-max", "20", "--trials", "4"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == len(clean) == 7
    for before, after in zip(clean, out):
        if "oracle-check jordan " in before:
            assert after == "oracle-check jordan (jordan-poly): trial 0 failed: forced failure"
        else:
            assert after == before


def test_oracle_check_d_max_cap(capsys):
    for argv, needle in ((["--d-max", "513", "--trials", "1"], "512"),
                         (["--d-max", "20", "--trials", "0"], "trials")):
        assert main(["oracle-check", *argv]) == 2
        assert needle in capsys.readouterr().err


def test_experiment_builds_region_once(tmp_path, monkeypatch):
    calls = {"n": 0}
    real = experiments.critical_values

    def counted(p):
        calls["n"] += 1
        return real(p)

    monkeypatch.setattr(experiments, "critical_values", counted)
    text = "[experiment]\nstructure = toeplitz(0,1,0.5,0.25)\nd = 30\neps = 2.0\ntrials = 3\n"
    assert main(["experiment", "--config", _write(tmp_path, text), "--out", str(tmp_path / "o")]) == 0
    assert calls["n"] == 1


def test_diagonal_region_above_separation_radius_exit_2(tmp_path, monkeypatch, capsys):
    # diagonal(2,3)'s disks touch at the separation radius 0.5; a wider
    # region would make them intersect, which a run rejects before any solve
    text = "[experiment]\nstructure = diagonal(2,3)\nd = 20\neps = 2.0\ntrials = 5\n"
    ok = _write(tmp_path, text + "region = 0.5\n", name="ok.cfg")
    assert main(["experiment", "--config", ok, "--out", str(tmp_path / "a")]) == 0
    monkeypatch.setattr(experiments, "solve", lambda *args: pytest.fail("a trial was solved"))
    message = "radius 0.5001 exceeds the separation radius 0.5; disks would intersect"
    cfg = ExperimentConfig(StructureSpec.parse("diagonal(2,3)"), 20, 2.0, 5, 0, region=0.5001)
    with pytest.raises(ShapeError, match=message):
        experiments.run_experiment(cfg)
    bad = _write(tmp_path, text + "region = 0.5001\n", name="bad.cfg")
    out = tmp_path / "b"
    assert main(["experiment", "--config", bad, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_threads_env_fallback(tmp_path, monkeypatch):
    cfg = _write(tmp_path, EXPERIMENT_CFG)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["experiment", "--config", cfg, "--out", out1]) == 0
    monkeypatch.setenv("PSEUDOSCOPE_THREADS", "2")
    assert main(["experiment", "--config", cfg, "--out", out2]) == 0
    b1 = open(os.path.join(out1, "eigenvalues.csv"), "rb").read()
    b2 = open(os.path.join(out2, "eigenvalues.csv"), "rb").read()
    assert b1 == b2


@pytest.mark.parametrize("command", ["experiment", "scaling"])
def test_threads_below_one_exit_2(tmp_path, monkeypatch, capsys, command):
    text = EXPERIMENT_CFG if command == "experiment" else (
        "[experiment]\nstructure = jordan\neps = 2.0\ndims = 16,32,64\ntrials = 5\n"
    )
    cfg = _write(tmp_path, text)
    out = tmp_path / "o"
    for flag in ("0", "-4"):
        assert main([command, "--config", cfg, "--out", str(out), "--threads", flag]) == 2
        assert f"--threads must be at least 1, got {flag}" in capsys.readouterr().err
    monkeypatch.setenv("PSEUDOSCOPE_THREADS", "0")
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "PSEUDOSCOPE_THREADS must be at least 1" in capsys.readouterr().err
    assert not out.exists()
    # an explicit flag still overrides the environment
    assert main([command, "--config", cfg, "--out", str(out), "--threads", "1"]) == 0


def _child_env():
    """The environment of a child python that imports this tree's src: the
    child does not see pytest's pythonpath setting."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def test_cli_import_loads_no_scipy():
    # scipy is imported by the functions that use it (the norm tail table,
    # spectrum matching), so a CLI start-up does not pay for it
    code = "import sys, pseudoscope.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entrypoint_subprocess(tmp_path):
    cfg = _write(tmp_path, EXPERIMENT_CFG)
    out = str(tmp_path / "out")
    proc = subprocess.run(
        [sys.executable, "-m", "pseudoscope.cli", "experiment",
         "--config", cfg, "--out", out],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "containment" in proc.stdout
