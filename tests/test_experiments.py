import importlib.util
import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special

import pseudoscope.experiments as exp
import pseudoscope.geometry as geometry
from pseudoscope import (
    ConfigError,
    ExperimentConfig,
    SeededRng,
    StructureSpec,
    charpoly_jordan_rank1,
    corner_annulus_probability,
    jordan_quadratic_forms,
    rank1_perturbation,
    run_experiment,
    scaling_fit,
    spectrum_match_distance,
    tail_carbery_wright,
    tail_hanson_wright,
    tail_norm_concentration,
    tail_quadratic_form_diag,
)
from pseudoscope.errors import ExperimentError

from closed_forms import stack


def _cfg(structure, d, trials, seed=7, **kw):
    return ExperimentConfig(
        structure=StructureSpec.parse(structure), d=d, eps=2.0,
        trials=trials, seed=seed, **kw
    )


def test_structure_parsing_roundtrip():
    for text in ["zero", "scalar(1+2j)", "diagonal(2,3)", "jordan",
                 "jordan-corner(0.5)", "toeplitz(3,2,1)"]:
        spec = StructureSpec.parse(text)
        assert StructureSpec.parse(spec.label()) == spec
        assert spec.label() == text
    for text in ["banana", "scalar(1,2)", "scalar", "diagonal()", "toeplitz(3)",
                 "zero(3)", "jordan(5)", "toeplitz(3,0)", "jordan-corner(0)"]:
        with pytest.raises(ValueError):
            StructureSpec.parse(text)


def test_diagonal_entry_split():
    spec = StructureSpec.parse("diagonal(2,3)")
    diag = spec.diagonal_entries(5)
    assert np.count_nonzero(diag == 2) == 3
    assert np.count_nonzero(diag == 3) == 2


def test_zero_structure_keeps_exact_zeros_and_identity():
    cfg = _cfg("zero", 50, 20)
    report = run_experiment(cfg)
    assert report.indices[3] == 3
    lams = report.eigenvalues[3]
    assert np.count_nonzero(lams == 0) == 49
    # oracle: the moved eigenvalue is eps v^dag u / (|u||v|), recomputable
    # from the trial's own stream
    from pseudoscope.sampling import rank1_perturbation

    p = rank1_perturbation(50, 2.0, SeededRng(7, 3))
    expected = 2.0 * np.vdot(p.v, p.u) / (np.linalg.norm(p.u) * np.linalg.norm(p.v))
    moved = lams[np.argmax(np.abs(lams))]
    assert moved == pytest.approx(expected, abs=1e-12)


def test_report_reproducible_across_threads():
    cfg = _cfg("jordan", 24, 40)
    r1 = run_experiment(cfg, threads=1)
    r2 = run_experiment(cfg, threads=3)
    assert np.array_equal(r1.indices, r2.indices)
    assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
    assert r1.deviation_quantiles == r2.deviation_quantiles


def test_quantiles_monotone_and_fractions_in_range():
    report = run_experiment(_cfg("jordan", 40, 60))
    q = report.deviation_quantiles
    assert q["q50"] <= q["q90"] <= q["q99"] <= q["max"]
    assert 0.0 <= report.containment_fraction <= 1.0
    assert 0.0 <= report.eigenvalue_containment_fraction <= 1.0


def test_region_widening_never_reduces_containment():
    narrow = run_experiment(_cfg("jordan", 100, 50, region=0.2))
    wide = run_experiment(_cfg("jordan", 100, 50, region=0.8))
    assert wide.containment_fraction >= narrow.containment_fraction
    assert (
        wide.eigenvalue_containment_fraction
        >= narrow.eigenvalue_containment_fraction
    )


def test_exclusion_accounting_present_only_for_general_symbol():
    general = run_experiment(_cfg("toeplitz(3,2,1)", 30, 20))
    assert general.exclusion_only_fraction is not None
    binomial = run_experiment(_cfg("toeplitz(3,2)", 30, 20))
    assert binomial.exclusion_only_fraction is None


def test_failure_cap_aborts_run(monkeypatch):
    real = exp.poly_roots

    # jordan-poly is the one iterative route, so the one that can fail; a
    # block's failed rows come back with a reason, here every third one
    def flaky(tails):
        results = real(tails)
        results.reason[2::3] = "forced failure"
        return results

    monkeypatch.setattr(exp, "poly_roots", flaky)
    with pytest.raises(ExperimentError):
        run_experiment(_cfg("jordan", 20, 30))


def test_failure_below_cap_drops_only_its_row(monkeypatch):
    # one failed trial of 200 is under the 1% cap: the run completes without
    # that trial's row, and every other row is bitwise the unforced run's
    cfg = _cfg("jordan", 20, 200)
    clean = run_experiment(cfg, threads=3)
    bad = 137
    target = charpoly_jordan_rank1(rank1_perturbation(cfg.d, cfg.eps, SeededRng(cfg.seed, bad)))
    real = exp.poly_roots

    def flaky(tails):
        results = real(tails)
        results.reason[(tails == target).all(axis=1)] = "forced failure"
        return results

    monkeypatch.setattr(exp, "poly_roots", flaky)
    report = run_experiment(cfg, threads=3)
    keep = np.arange(cfg.trials) != bad
    assert report.failed_trials == 1
    assert bad not in report.indices
    assert np.array_equal(report.indices, np.flatnonzero(keep))
    for name in ("eigenvalues", "deviations", "max_outward"):
        assert getattr(report, name).tobytes() == getattr(clean, name)[keep].tobytes()


def test_non_finite_row_fails_with_its_reason(monkeypatch):
    real = exp.dense_eigenvalues

    def poisoned(base, perts):
        results = real(base, perts)
        results.eigenvalues[1, 4] = np.nan
        return results

    monkeypatch.setattr(exp, "dense_eigenvalues", poisoned)
    perts = stack(rank1_perturbation(10, 2.0, SeededRng(3, t)) for t in range(3))
    solved = exp.solve(StructureSpec.parse("toeplitz(3,2,1)"), 10, perts, "dense-qr")
    assert solved.reason.tolist() == ["", "non-finite eigenvalue", ""]


def test_linear_symbol_run_is_the_rescaled_jordan_run():
    # 3 I + 2 J + E at eps=2 is 3 + 2 (J + E / 2), and E / 2 is the eps=1
    # perturbation of the same draw, so the toeplitz(3,2) run is the jordan
    # run's a0 + a1 nu, and the band of 3 + 2 z measures the same deviations
    def run(structure, eps):
        cfg = ExperimentConfig(structure=StructureSpec.parse(structure), d=128, eps=eps,
                               trials=40, seed=19)
        return run_experiment(cfg)

    toeplitz, jordan = run("toeplitz(3,2)", 2.0), run("jordan", 1.0)
    assert toeplitz.solver == jordan.solver == "jordan-poly"
    assert np.array_equal(toeplitz.indices, jordan.indices)
    assert np.array_equal(toeplitz.eigenvalues, 3 + 2 * jordan.eigenvalues)
    assert np.max(np.abs(toeplitz.deviations - jordan.deviations)) <= 1e-13
    assert np.max(np.abs(toeplitz.max_outward - jordan.max_outward)) <= 1e-13


def test_jordan_run_memory_stays_bounded():
    # jordan-poly builds no d x d base, and the repulsion sums and the
    # certificate take the pairwise root differences in bounded blocks, so
    # a d=2048 run peaks at about 5 MB traced; one d x d complex array
    # alone is 67 MB, and the unblocked solve peaked at 193 MB
    cfg = _cfg("jordan", 2048, 2)
    tracemalloc.start()
    try:
        report = run_experiment(cfg)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert report.failed_trials == 0
    assert peak_mb < 32, peak_mb


def test_corner_region_is_band_of_scaled_identity():
    # the corner block's eigenvalues are the d-th roots of rho, on the
    # circle of radius r = |rho|^(1/d), so its region is the band of r z;
    # the base itself has no symbol, so its route stays dense QR
    cfg = _cfg("jordan-corner(0.5)", 100, 3, region=1.5)
    region, exclusion = exp.build_region(cfg)
    r = 0.5 ** (1 / 100)
    assert isinstance(region, geometry.SymbolBand) and exclusion is None
    assert np.array_equal(region.symbol.coeffs, [0, r]) and region.delta == 1.5
    assert cfg.structure.symbol() is None
    assert exp.auto_route(cfg.structure) == "dense-qr"
    report = run_experiment(cfg)
    want = np.abs(np.abs(report.eigenvalues) / r - 1.0)
    assert np.allclose(report.deviations, want, rtol=0, atol=1e-15)


_KIND_EXAMPLES = {
    "zero": "zero",
    "scalar": "scalar(1+2j)",
    "diagonal": "diagonal(2,3)",
    "jordan": "jordan",
    "jordan-corner": "jordan-corner(1)",
    "toeplitz": "toeplitz(3,2,1)",
}


ROUTES = {"resolvent-aberth", "jordan-poly", "dense-qr"}


@pytest.mark.parametrize("kind", list(_KIND_EXAMPLES))
def test_solver_structure_compatibility(kind):
    structure = _KIND_EXAMPLES[kind]
    spec = StructureSpec.parse(structure)
    assert spec.kind == kind
    accepted = {exp.auto_route(spec), "dense-qr"}
    for route in accepted:
        assert exp.check_route(route, spec) == route
        assert _cfg(structure, 10, 2, solver=route).solver == route
    for route in ROUTES - accepted:
        with pytest.raises(ConfigError, match=route):
            exp.check_route(route, spec)
        with pytest.raises(ConfigError, match=route):
            run_experiment(_cfg(structure, 10, 2, solver=route))
    with pytest.raises(ConfigError, match="unknown solver 'bogus'"):
        run_experiment(_cfg(structure, 10, 2, solver="bogus"))


def test_linear_symbol_accepts_jordan_poly():
    # the route follows the symbol's degree, not the kind
    for structure in ("toeplitz(3,2)", "toeplitz(1+1j,0.5-2j)"):
        cfg = _cfg(structure, 10, 2, solver="jordan-poly")
        assert run_experiment(cfg).solver == "jordan-poly"
    with pytest.raises(ConfigError, match="jordan-poly"):
        _cfg("toeplitz(3,2,1)", 10, 2, solver="jordan-poly")


CUBIC = "toeplitz(0,1,0.5,0.25)"


def test_auto_solver_is_dense_for_cubic_symbol():
    cfg = _cfg(CUBIC, 100, 3, seed=11)
    assert cfg.resolved_solver() == "dense-qr"
    with pytest.raises(ConfigError):
        _cfg("toeplitz(3,2,1)", 100, 3, solver="resolvent-aberth")
    _assert_matches_dense(cfg, run_experiment(cfg))


def _assert_matches_dense(cfg, report):
    base = cfg.structure.base_matrix(cfg.d)
    assert report.indices.tolist() == list(range(cfg.trials))
    for i, lams in zip(report.indices, report.eigenvalues):
        pert = rank1_perturbation(cfg.d, cfg.eps, SeededRng(cfg.seed, i))
        want = np.linalg.eigvals(base + pert.scale * np.outer(pert.u, np.conj(pert.v)))
        assert spectrum_match_distance(lams, want) <= 1e-8


@pytest.mark.parametrize(
    "structure, route",
    [
        ("zero", "resolvent-aberth"),
        ("scalar(1+2j)", "resolvent-aberth"),
        ("diagonal(2,3)", "resolvent-aberth"),
        ("jordan", "jordan-poly"),
        ("jordan-corner(0.5)", "dense-qr"),
        ("toeplitz(3,2)", "jordan-poly"),
        ("toeplitz(1+1j,0.5-2j)", "jordan-poly"),
        ("toeplitz(3,2,1)", "dense-qr"),
        (CUBIC, "dense-qr"),
    ],
)
def test_auto_solver_policy(structure, route):
    cfg = _cfg(structure, 8, 2)
    assert cfg.resolved_solver() == route
    assert exp.check_route(route, cfg.structure) == route
    assert run_experiment(cfg).solver == route


def test_auto_solver_toeplitz_correct_at_d160():
    # resolvent-aberth returned these spectra up to 0.093 away from dense
    # QR, with a small residual and no error
    cfg = _cfg("toeplitz(3,2,1)", 160, 4, seed=11)
    _assert_matches_dense(cfg, run_experiment(cfg))


def _cubic_band_reference(lam):
    """Deviation and outward excess of one value, from numpy.roots."""
    desc = [0.25, 0.5, 1.0, -lam]
    mods = np.abs(np.roots(desc))
    mod = mods[np.argmin(np.abs(mods - 1.0))]
    return abs(mod - 1.0), max(mod - 1.0, 0.0)


def test_cubic_band_classification_matches_per_value_roots():
    cfg = _cfg(CUBIC, 60, 6, seed=5)
    report = run_experiment(cfg)
    desc = [0.25, 0.5, 1.0, 0.0]
    crit = np.polyval(desc, np.roots(np.polyder(desc)))
    lams = report.eigenvalues
    ref = np.array([[_cubic_band_reference(lam) for lam in row] for row in lams])
    assert np.max(np.abs(report.deviations - ref[..., 0])) <= 1e-10
    assert np.max(np.abs(report.max_outward - ref[..., 1].max(axis=1))) <= 1e-10
    in_band = ref[..., 0] < report.delta
    in_exclusion = np.min(np.abs(lams[..., None] - crit), axis=-1) < cfg.eps
    inside = in_band | in_exclusion
    assert report.eigenvalue_containment_fraction == np.mean(inside)
    assert report.exclusion_only_fraction == np.mean(in_exclusion & ~in_band)
    assert report.containment_fraction == np.mean(inside.all(axis=1))
    # next to a critical value two preimages nearly coincide
    band, _ = exp.build_region(cfg)
    lams = crit + 1e-7
    dev, outward, inside = band.classify(lams)
    ref = np.array([_cubic_band_reference(lam) for lam in lams])
    assert np.max(np.abs(dev - ref[:, 0])) <= 1e-10
    assert np.max(np.abs(outward - ref[:, 1])) <= 1e-10
    assert np.array_equal(inside, ref[:, 0] < band.delta)


def test_band_preimages_solved_once_per_run(monkeypatch):
    calls = {"preimages": 0, "classify": 0, "exclusion": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(geometry, "symbol_preimages",
                        counted("preimages", geometry.symbol_preimages))
    monkeypatch.setattr(geometry.SymbolBand, "classify",
                        counted("classify", geometry.SymbolBand.classify))
    # a band's only disk union is its exclusion
    monkeypatch.setattr(geometry.DiskUnion, "classify",
                        counted("exclusion", geometry.DiskUnion.classify))
    cfg = _cfg(CUBIC, 40, 7)
    one = run_experiment(cfg, threads=1)
    assert calls == {"preimages": 1, "classify": 1, "exclusion": 1}
    two = run_experiment(cfg, threads=2)
    assert calls == {"preimages": 2, "classify": 2, "exclusion": 2}
    for name in ("indices", "eigenvalues", "deviations", "max_outward"):
        assert np.array_equal(getattr(one, name), getattr(two, name))
    assert one.pooled_eigenvalue_quantiles == two.pooled_eigenvalue_quantiles


def test_scaling_fit_diagonal_slope():
    fit = scaling_fit(
        StructureSpec.parse("diagonal(2,3)"), [16, 32, 64], 2.0, 60, 11
    )
    assert fit["slope"] < -0.3
    assert len(fit["per_dim"]) == 3
    assert {"d", "median_deviation", "q90_deviation", "median_outward_deviation"} <= set(
        fit["per_dim"][0]
    )


def test_scaling_fit_validates_dims():
    spec = StructureSpec.parse("jordan")
    with pytest.raises(ConfigError):
        scaling_fit(spec, [64, 128], 2.0, 10, 0)
    with pytest.raises(ConfigError):
        scaling_fit(spec, [8, 16, 32], 2.0, 10, 0)
    for dims in ([64, 64, 64], [64, 64, 128], [64, 128, 256, 128]):
        with pytest.raises(ConfigError, match="distinct"):
            scaling_fit(spec, dims, 2.0, 10, 0)


def test_norm_tail_split_at_zero():
    table = tail_norm_concentration(100, [0.0], 10_000, 13)
    row = table["rows"][0]
    se = math.sqrt(row["upper_exact"] * (1 - row["upper_exact"]) / 10_000)
    assert abs(row["upper_empirical"] - row["upper_exact"]) <= 3 * se
    # exact split sits close to one half
    assert 0.45 <= row["upper_exact"] <= 0.55


def test_norm_tail_matches_gamma_oracle():
    table = tail_norm_concentration(100, [0.1, 0.3, 0.5], 100_000, 13)
    for row in table["rows"]:
        for side in ("upper", "lower"):
            emp, exact = row[f"{side}_empirical"], row[f"{side}_exact"]
            se = math.sqrt(exact * (1 - exact) / 100_000)
            assert abs(emp - exact) <= 3 * se + 2e-5


def test_norm_tail_monotone_in_t():
    table = tail_norm_concentration(60, [0.05, 0.1, 0.2, 0.4], 20_000, 17)
    ups = [r["upper_empirical"] for r in table["rows"]]
    lows = [r["lower_empirical"] for r in table["rows"]]
    assert ups == sorted(ups, reverse=True)
    assert lows == sorted(lows, reverse=True)


def test_tail_counts_match_per_trial_reference(monkeypatch):
    # every table draws each chunk's trials contiguously from stream
    # (seed, 0); with chunks of 7 trials it counts what a per-trial loop
    # over the same chunked draw counts
    d, k, trials, seed = 12, 3, 50, 23
    grid = [0.05, 0.3, 0.6, 1.0, 2.5]
    real = exp._stream_pairs
    monkeypatch.setattr(exp, "_stream_pairs", lambda *a, **kw: real(*a, chunk=7, **kw))

    def draws(vectors):
        rng = SeededRng(seed, 0)
        return np.concatenate([rng.complex_normals(vectors * b * d).reshape(b, vectors, d)
                               for b in [7] * 7 + [1]])

    xi = draws(1)[:, 0]
    pairs = draws(2)
    gam = np.arange(1, d + 1, dtype=complex)
    excess = [np.sum(np.abs(x) ** 2) - d for x in xi]
    shifted = [abs(np.sum(np.conj(v[: d - k]) * u[k:])) for u, v in pairs]
    diag = [abs(np.sum(np.conj(v) * gam * u)) for u, v in pairs]

    def frac(values, keep):
        return [sum(keep(x, t) for x in values) / trials for t in grid]

    norm = tail_norm_concentration(d, grid, trials, seed)["rows"]
    assert [r["upper_empirical"] for r in norm] == frac(excess, lambda x, t: x >= t * d)
    assert [r["lower_empirical"] for r in norm] == frac(excess, lambda x, t: x <= -t * d)
    hw = tail_hanson_wright(d, k, grid, trials, seed)["rows"]
    assert [r["empirical"] for r in hw] == frac(shifted, lambda x, t: x >= t)
    cw = tail_carbery_wright(d, grid, trials, seed, k=k)["rows"]
    frob = math.sqrt(d - k)
    assert [r["smallball"] for r in cw] == frac(shifted, lambda x, t: x <= t * frob)
    qf = tail_quadratic_form_diag(gam, grid, trials, seed)["rows"]
    assert [r["empirical"] for r in qf] == frac(diag, lambda x, t: x >= t * d)


@pytest.mark.parametrize("trials", [0, -3])
@pytest.mark.parametrize(
    "table",
    [
        lambda n: tail_norm_concentration(10, [0.3], n, 1),
        lambda n: tail_hanson_wright(10, 2, [1.0], n, 1),
        lambda n: tail_carbery_wright(10, [0.1], n, 1),
        lambda n: tail_quadratic_form_diag([1.0, 2.0], [0.5], n, 1),
        lambda n: corner_annulus_probability(10, 0.3, n, 1),
    ],
    ids=["norm", "hw", "cw", "qf-diag", "corner"],
)
def test_tail_functions_reject_nonpositive_trials(table, trials):
    # a tail table is a fraction over its trials; none would divide by zero
    with pytest.raises(ConfigError, match="trials must be positive"):
        table(trials)


def test_hw_tail_at_zero_and_monotone():
    d = 50
    table = tail_hanson_wright(d, 0, [0.0, 4.0, 8.0, 12.0], 20_000, 19)
    rows = table["rows"]
    assert rows[0]["empirical"] == 1.0
    emp = [r["empirical"] for r in rows]
    assert emp == sorted(emp, reverse=True)
    assert table["fitted_c"] > 0


def _product_modulus_cdf(t):
    # law of |x||y| for independent CN(0,1) scalars, by numeric integration
    val, _ = integrate.quad(lambda s: math.exp(-s - t * t / s), 0.0, math.inf)
    return 1.0 - val


def test_hw_top_shift_matches_product_law():
    # k = d-1 leaves the single product conj(v_1) u_d
    d, n = 30, 20_000
    rng = SeededRng(23, 0)
    xs = np.abs(rng.complex_normals(n)) * np.abs(rng.complex_normals(n))
    xs.sort()
    # spot-check the closed Bessel form against the integration oracle
    for t in (0.1, 0.7, 1.9):
        assert _product_modulus_cdf(t) == pytest.approx(
            1.0 - 2.0 * t * special.kv(1, 2.0 * t), abs=1e-12
        )
    cdf = 1.0 - 2.0 * xs * special.kv(1, 2.0 * xs)
    i = np.arange(1, n + 1)
    ks = max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n))
    assert ks <= 1.95 / math.sqrt(n)
    table = tail_hanson_wright(d, d - 1, [0.5, 1.0, 2.0], n, 23)
    for row in table["rows"]:
        exact = 1.0 - _product_modulus_cdf(row["t"])
        se = math.sqrt(exact * (1 - exact) / n)
        assert abs(row["empirical"] - exact) <= 3 * se + 1e-4


def test_cw_smallball_d1_matches_integration_oracle():
    n = 50_000
    table = tail_carbery_wright(1, [0.1, 0.3, 0.6], n, 29, k=0)
    for row in table["rows"]:
        exact = _product_modulus_cdf(row["t"])
        se = math.sqrt(exact * (1 - exact) / n)
        assert abs(row["smallball"] - exact) <= 3 * se + 1e-4


def test_cw_smallball_monotone_saturates():
    table = tail_carbery_wright(100, [0.2, 0.5, 0.99], 20_000, 31)
    vals = [r["smallball"] for r in table["rows"]]
    assert vals == sorted(vals)
    assert vals[-1] >= 0.5


def test_jordan_max_deviation_is_depth_of_innermost_zero():
    # The eigenvalues of J + s u v^dag solve lam^d = s g(lam), with
    # g(lam) = sum_k q_k lam^(d-1-k) and q_k = v^dag J^k u.  Each trial's
    # maximum deviation is an inward eigenvalue next to the innermost zero
    # of g, where lam^d is negligible: its depth 1 - min|zeta|, whatever d
    # (README, "Deviation statistics").
    for d in (128, 256):
        report = run_experiment(_cfg("jordan", d, 12, seed=2025))
        assert report.failed_trials == 0
        depths = []
        for i in report.indices:
            pert = rank1_perturbation(d, 2.0, SeededRng(2025, i))
            q = jordan_quadratic_forms(pert.u, pert.v)
            depths.append(1.0 - np.min(np.abs(np.roots(q))))
        assert np.max(np.abs(report.deviations.max(axis=1) - depths)) <= 1e-10


def test_cw_measured_slope_is_quadratic_not_half():
    # the modulus of the bilinear form has a bounded joint density near 0,
    # so the small-ball mass scales like t^2; the sqrt(t) envelope is an
    # upper bound only.  Frozen from the Rayleigh-mixture law.
    table = tail_carbery_wright(100, list(np.logspace(-2, -1, 5)), 100_000, 37)
    assert 1.7 <= table["slope"] <= 2.3


def test_qf_diag_identity_matrix():
    table = tail_quadratic_form_diag([1.0] * 100, [1.0], 20_000, 41)
    assert table["rows"][0]["empirical"] <= 0.01
    assert table["delta"] == 1.0


def test_qf_diag_t_zero_is_one():
    table = tail_quadratic_form_diag([1.0] * 25, [0.0], 5_000, 43)
    assert table["rows"][0]["empirical"] == 1.0


def test_qf_diag_rate_scales_like_sqrt_d():
    # pointwise decay rate -log(emp) / (t sqrt(d)) at fixed t grows like
    # sqrt(d): the exceedance is Gaussian in t*d with variance d, so the
    # exponent is t^2 d = (t sqrt(d)) * (t sqrt(d))
    t = 0.1
    rates = {}
    for d in (25, 100, 400):
        table = tail_quadratic_form_diag([1.0] * d, [t], 20_000, 47)
        emp = table["rows"][0]["empirical"]
        rates[d] = -math.log(emp) / (t * math.sqrt(d))
    assert rates[100] / rates[25] == pytest.approx(2.0, abs=0.4)
    assert rates[400] / rates[100] == pytest.approx(2.0, abs=0.4)


def test_corner_probability_matches_rayleigh():
    n = 100_000
    res = corner_annulus_probability(100, 3.0 / 100.0, n, 53)
    se = math.sqrt(res["exact"] * (1 - res["exact"]) / n)
    assert abs(res["empirical"] - res["exact"]) <= 3 * se + 2e-5
    # the large-dimension limit of the annulus mass is also within
    # Monte Carlo resolution at d=100
    limit = math.exp(-math.exp(-6.0)) - math.exp(-math.exp(6.0))
    assert abs(res["empirical"] - limit) <= 3 * se + 2e-5


def test_corner_probability_wide_annulus_clamps():
    res = corner_annulus_probability(20, 1.5, 5_000, 59)
    assert res["empirical"] == 1.0
    assert res["exact"] == pytest.approx(1.0, abs=1e-10)


def test_corner_probability_d1():
    n = 100_000
    res = corner_annulus_probability(1, 0.5, n, 61)
    expected = math.exp(-0.25) - math.exp(-2.25)
    se = math.sqrt(expected * (1 - expected) / n)
    assert res["exact"] == pytest.approx(expected, rel=1e-12)
    assert abs(res["empirical"] - expected) <= 3 * se


def test_config_validation():
    with pytest.raises(ConfigError):
        _cfg("jordan", 0, 5)
    with pytest.raises(ConfigError):
        _cfg("toeplitz(1,2,3,4)", 3, 5)
    # jordan is the degree-1 symbol p(z) = z; at d=1 its matrix is zero's
    with pytest.raises(ConfigError, match="symbol degree"):
        _cfg("jordan", 1, 5)
    assert _cfg("zero", 1, 5).d == 1
    assert exp.default_trials(100) == 1000
    assert exp.default_trials(512) == 100


def test_scaling_fit_scalar_structure_clt_rate():
    # closed-form moved eigenvalue, so the median max deviation tracks the
    # central-limit rate eps/sqrt(d) exactly
    fit = scaling_fit(
        StructureSpec.parse("scalar(0)"), [32, 64, 128, 256], 2.0, 150, 19
    )
    assert -0.6 <= fit["slope"] <= -0.4


def test_zero_cloud_tightens_with_dimension():
    stds = {}
    for d in (100, 1000):
        report = run_experiment(_cfg("zero", d, 200, seed=23))
        lams = report.eigenvalues
        moved = lams[np.arange(len(lams)), np.argmax(np.abs(lams), axis=1)]
        stds[d] = float(np.std(moved))
    ratio = stds[100] / stds[1000]
    assert ratio == pytest.approx(math.sqrt(10.0), rel=0.2)


def test_pilot_prints_one_line_per_kind(monkeypatch, capsys):
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "tools", "pilot.py")
    spec = importlib.util.spec_from_file_location("pilot", path)
    pilot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pilot)
    monkeypatch.setattr(pilot, "TRIALS", 3)
    pilot.main()
    lines = capsys.readouterr().out.splitlines()
    assert "trials=3" in lines[0]
    assert [line.split()[0] for line in lines[1:]] == list(pilot.CASES)
    assert all("q99.9=" in line for line in lines[1:])
