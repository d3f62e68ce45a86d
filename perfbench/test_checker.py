"""The benchmark's output checker accepts a small run's untouched outputs and
rejects each kind of corruption it exists to catch.

    PYTHONPATH=src python -m pytest perfbench/test_checker.py
"""

import json

import numpy as np
import pytest

import checker
from pseudoscope import cli
from workloads import Workload

SEED = 7
EXPERIMENT = Workload("small-band", "experiment", "toeplitz(3,2,1)", (30,), 4,
                      delta=0.79, symbol=(3.0, 2.0, 1.0))
SCALING = Workload("small-scaling", "scaling", "jordan", (16, 24, 32), 3,
                   symbol=(0.0, 1.0))


def _run(wl, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(wl.config_text())
    out = tmp_path / "out"
    assert cli.main(wl.argv(config, out, SEED)) == 0
    return out


def _errors(wl, out):
    digest = checker.check_round(wl, SEED, out, dense=True)
    return digest.errors + checker.check_samples(wl, digest.samples)


@pytest.fixture
def experiment_out(tmp_path):
    return _run(EXPERIMENT, tmp_path)


@pytest.fixture
def scaling_out(tmp_path):
    return _run(SCALING, tmp_path)


def test_untouched_outputs_pass(experiment_out, scaling_out):
    assert _errors(EXPERIMENT, experiment_out) == []
    assert _errors(SCALING, scaling_out) == []


@pytest.mark.parametrize("trial", [0, 2])
def test_eigenvalue_moved_by_1e_6_is_rejected(experiment_out, trial):
    path = experiment_out / "eigenvalues.csv"
    lines = path.read_bytes().decode().split("\r\n")
    row = 1 + trial * EXPERIMENT.dims[0] + 5
    t, i, re, im = lines[row].split(",")
    lines[row] = f"{t},{i},{float(re) + 1e-6!r},{im}"
    path.write_bytes("\r\n".join(lines).encode())
    errors = _errors(EXPERIMENT, experiment_out)
    assert any(f"trial {trial}: power sums" in e for e in errors), errors


def test_dense_comparison_alone_rejects_a_moved_eigenvalue(experiment_out):
    lams = checker.read_eigenvalues(experiment_out / "eigenvalues.csv",
                                    EXPERIMENT.trials, EXPERIMENT.dims[0])
    sample = checker.Sample(SEED, 1, lams[1].copy())
    assert checker.check_samples(EXPERIMENT, [sample]) == []
    sample.eigenvalues[3] += 1e-6
    assert checker.check_samples(EXPERIMENT, [sample])


def test_containment_off_by_one_eigenvalue_is_rejected(experiment_out):
    path = experiment_out / "report.json"
    report = json.loads(path.read_text())
    total = EXPERIMENT.trials * EXPERIMENT.dims[0]
    report["eigenvalue_containment_fraction"] -= 1.0 / total
    path.write_text(json.dumps(report))
    errors = _errors(EXPERIMENT, experiment_out)
    assert any("does not match the recomputed" in e for e in errors), errors


def test_scaling_median_off_by_1e_6_is_rejected(scaling_out):
    path = scaling_out / "scaling.json"
    fit = json.loads(path.read_text())
    fit["per_dim"][1]["median_deviation"] += 1e-6
    path.write_text(json.dumps(fit))
    errors = _errors(SCALING, scaling_out)
    assert any("d=24 median_deviation" in e for e in errors), errors


def test_draws_follow_the_documented_rule():
    from pseudoscope import SeededRng, rank1_perturbation

    pert = rank1_perturbation(9, 2.0, SeededRng(SEED, 3))
    u, v = checker.draws(SEED, 3, 9)
    assert np.array_equal(u, pert.u) and np.array_equal(v, pert.v)
