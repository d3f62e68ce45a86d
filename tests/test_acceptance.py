"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers.

Run with ``pytest tests/test_acceptance.py -v -s``.  The Monte Carlo
criteria use the fixed seed below; the region fixtures come from the
dense-solver pilot recorded in src/pseudoscope/fixtures.py (regenerate via
tools/pilot.py).
"""

import math
import os
import time

import numpy as np
import pytest

from pseudoscope import (
    ExperimentConfig,
    SeededRng,
    StructureSpec,
    jordan_corner,
    rank1_perturbation,
    run_experiment,
    scaling_fit,
    spectrum_match_distance,
    tail_carbery_wright,
    tail_norm_concentration,
)
from pseudoscope import fixtures
from pseudoscope.experiments import auto_route, solve
from pseudoscope.cli import main as cli_main

from closed_forms import corner_eigenvalues, two_block_corner, two_block_eigenvalues

SEED = 2025


def _report(n, ok, detail):
    print(f"\n[criterion {n:02d}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_corner_closed_form_oracle():
    start = time.perf_counter()
    worst = 0.0
    for d in (2, 4, 8, 16, 32):
        for rho in (1.0, -4.0, 2 + 3j, 1e-6, 1e6):
            dense = np.linalg.eigvals(jordan_corner(d, rho))
            closed = corner_eigenvalues(d, rho)
            worst = max(worst, spectrum_match_distance(dense, closed))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst <= 1e-9 and elapsed < 5.0,
        f"corner oracle max matched distance {worst:.3e} (tol 1e-9), "
        f"{elapsed:.2f}s (limit 5s)",
    )


def test_criterion_02_two_block_oracle():
    start = time.perf_counter()
    cases = [
        (0.0, 2.0, 1 + 0.3j),
        (1 - 1j, 0.5, 2 + 1j),
        (0.7, 0.7, -3.0),     # degenerate equal diagonal values
        (2.0, 3.0, 1e-3),
    ]
    worst = 0.0
    for d in (2, 4, 8):
        for g1, g2, rho in cases:
            dense = np.linalg.eigvals(two_block_corner(d, g1, g2, rho))
            closed = two_block_eigenvalues(d, g1, g2, rho)
            worst = max(worst, spectrum_match_distance(dense, closed))
    elapsed = time.perf_counter() - start
    _report(
        2,
        worst <= 1e-8 and elapsed < 2.0,
        f"two-block oracle max matched distance {worst:.3e} (tol 1e-8, "
        f"incl. degenerate case), {elapsed:.2f}s (limit 2s)",
    )


def test_criterion_03_cross_solver_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    specs = [
        StructureSpec.parse("jordan"),
        StructureSpec.parse("diagonal(2,3)"),
        StructureSpec.parse("diagonal(1,2,3j)"),
    ]
    worst_ratio = 0.0
    for trial in range(200):
        spec = specs[trial % 3]
        d = int(rng.integers(5, 51))
        pert = rank1_perturbation(d, 2.0, SeededRng(SEED, trial))
        [fast] = solve(spec, d, pert, auto_route(spec)).eigenvalues
        [dense] = solve(spec, d, pert, "dense-qr").eigenvalues
        scale = 1.0 + float(np.max(np.abs(dense)))
        dist = spectrum_match_distance(fast, dense)
        worst_ratio = max(worst_ratio, dist / (1e-8 * scale))
    elapsed = time.perf_counter() - start
    _report(
        3,
        worst_ratio <= 1.0 and elapsed < 120.0,
        f"cross-solver worst distance at {worst_ratio:.3%} of the "
        f"1e-8*(1+max|lam|) budget over 200 trials, {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_04_scalar_clt_variance():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        structure=StructureSpec.parse("zero"), d=100, eps=2.0,
        trials=10_000, seed=SEED,
    )
    report = run_experiment(cfg)
    lams = report.eigenvalues
    moved = lams[np.arange(len(lams)), np.argmax(np.abs(lams), axis=1)]
    var = float(np.var(moved))
    elapsed = time.perf_counter() - start
    _report(
        4,
        0.036 <= var <= 0.044 and elapsed < 10.0,
        f"rank-1 eigenvalue sample variance {var:.5f} in [0.036, 0.044] "
        f"(target eps^2/d = 0.04), {elapsed:.1f}s (limit 10s)",
    )


def test_criterion_05_jordan_annulus_containment():
    start = time.perf_counter()
    delta = fixtures.AUTO_DELTA["jordan"]
    cfg = ExperimentConfig(
        structure=StructureSpec.parse("jordan"), d=100, eps=2.0,
        trials=1000, seed=SEED, region="auto",
    )
    report = run_experiment(cfg)
    frac = report.eigenvalue_containment_fraction
    elapsed = time.perf_counter() - start
    _report(
        5,
        report.delta == delta and frac >= 0.99 and elapsed < 60.0,
        f"jordan d=100: {frac:.4f} of eigenvalues within ||lam|-1| < {delta} "
        f"(pilot-frozen 99.9th-percentile fixture), {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_06_concentration_exponent_scaling():
    start = time.perf_counter()
    dims = [64, 128, 256, 512]
    slopes = {}
    for label in ("jordan", "diagonal(2,3)", "toeplitz(3,2)"):
        fit = scaling_fit(StructureSpec.parse(label), dims, 2.0, 200, SEED)
        slopes[label] = (fit["slope"], fit["slope_outward"])
    elapsed = time.perf_counter() - start
    ok = all(-0.65 <= s[0] <= -0.35 for s in slopes.values()) and elapsed < 900.0
    detail = "; ".join(
        f"{k}: slope {v[0]:+.3f} (outward-max variant {v[1]:+.3f})"
        for k, v in slopes.items()
    )
    _report(
        6,
        ok,
        f"median-of-max deviation slopes over dims {dims}, window "
        f"[-0.65, -0.35]: {detail}; {elapsed:.0f}s (limit 900s)",
    )


def test_criterion_07_general_symbol_band():
    start = time.perf_counter()
    delta = fixtures.AUTO_DELTA["toeplitz"]
    cfg = ExperimentConfig(
        structure=StructureSpec.parse("toeplitz(3,2,1)"), d=100, eps=2.0,
        trials=1000, seed=SEED, region="auto",
    )
    report = run_experiment(cfg)
    frac = report.eigenvalue_containment_fraction
    rescue = report.exclusion_only_fraction
    elapsed = time.perf_counter() - start
    _report(
        7,
        report.delta == delta and frac >= 0.99 and rescue <= 0.01 and elapsed < 120.0,
        f"toeplitz(3,2,1) d=100: {frac:.4f} of eigenvalues in band(delta={delta}) "
        f"union exclusion disks, exclusion-only fraction {rescue:.4f} (cap 0.01), "
        f"{elapsed:.1f}s (limit 120s)",
    )


def test_criterion_08_norm_concentration_exactness():
    start = time.perf_counter()
    table = tail_norm_concentration(100, [0.1, 0.3, 0.5], 100_000, SEED)
    worst = 0.0
    for row in table["rows"]:
        for side in ("upper", "lower"):
            emp, exact = row[f"{side}_empirical"], row[f"{side}_exact"]
            se = math.sqrt(exact * (1.0 - exact) / 100_000)
            sigmas = abs(emp - exact) / se if se > 0 else (0.0 if emp == exact else math.inf)
            worst = max(worst, sigmas)
    elapsed = time.perf_counter() - start
    _report(
        8,
        worst <= 3.0 and elapsed < 10.0,
        f"norm tails vs Gamma(100,1) oracle: worst deviation {worst:.2f} binomial "
        f"standard errors (limit 3), {elapsed:.1f}s (limit 10s)",
    )


def test_criterion_09_carbery_wright_exponent():
    start = time.perf_counter()
    table = tail_carbery_wright(100, list(np.logspace(-3, -1, 9)), 100_000, SEED, k=1)
    slope = table["slope"]
    elapsed = time.perf_counter() - start
    _report(
        9,
        0.4 <= slope <= 0.6 and elapsed < 30.0,
        f"small-ball log-log slope {slope:.3f}, required window [0.4, 0.6]; "
        f"{elapsed:.1f}s (limit 30s)",
    )


def test_criterion_10_thread_count_reproducibility(tmp_path):
    cfg_text = (
        "[experiment]\nstructure = jordan\nd = 40\neps = 2.0\n"
        f"trials = 100\nseed = {SEED}\n"
    )
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    out1, out2 = str(tmp_path / "t1"), str(tmp_path / "t4")
    assert cli_main(["experiment", "--config", str(cfg), "--out", out1, "--threads", "1"]) == 0
    assert cli_main(["experiment", "--config", str(cfg), "--out", out2, "--threads", "4"]) == 0
    b1 = open(os.path.join(out1, "eigenvalues.csv"), "rb").read()
    b2 = open(os.path.join(out2, "eigenvalues.csv"), "rb").read()
    _report(
        10,
        b1 == b2,
        f"eigenvalues.csv identical across --threads 1 and 4 "
        f"({len(b1)} bytes)",
    )
