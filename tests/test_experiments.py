import math

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
    apply_perturbation,
    corner_annulus_probability,
    rank1_perturbation,
    run_experiment,
    scaling_fit,
    spectrum_match_distance,
    tail_carbery_wright,
    tail_hanson_wright,
    tail_norm_concentration,
    tail_quadratic_form_diag,
)
from pseudoscope.errors import ConvergenceError, ExperimentError


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
    with pytest.raises(ConfigError):
        StructureSpec.parse("banana")
    with pytest.raises(ConfigError):
        StructureSpec.parse("scalar(1,2)")


def test_diagonal_entry_split():
    spec = StructureSpec.parse("diagonal(2,3)")
    diag = spec.diagonal_entries(5)
    assert np.count_nonzero(diag == 2) == 3
    assert np.count_nonzero(diag == 3) == 2


def test_zero_structure_keeps_exact_zeros_and_identity():
    cfg = _cfg("zero", 50, 20)
    report = run_experiment(cfg)
    rec = report.records[3]
    assert np.count_nonzero(rec.eigenvalues == 0) == 49
    # oracle: the moved eigenvalue is eps v^dag u / (|u||v|), recomputable
    # from the trial's own stream
    from pseudoscope.sampling import rank1_perturbation

    p = rank1_perturbation(50, 2.0, SeededRng(7, 3))
    expected = 2.0 * np.vdot(p.v, p.u) / (p.norm_u * p.norm_v)
    moved = rec.eigenvalues[np.argmax(np.abs(rec.eigenvalues))]
    assert moved == pytest.approx(expected, abs=1e-12)


def test_report_reproducible_across_threads():
    cfg = _cfg("jordan", 24, 40)
    r1 = run_experiment(cfg, threads=1)
    r2 = run_experiment(cfg, threads=3)
    for a, b in zip(r1.records, r2.records):
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
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
    calls = {"n": 0}
    real = exp.eigen_resolvent_aberth

    def flaky(t, p, **kw):
        calls["n"] += 1
        if calls["n"] % 3 == 0:
            raise ConvergenceError("forced failure")
        return real(t, p, **kw)

    monkeypatch.setattr(exp, "eigen_resolvent_aberth", flaky)
    with pytest.raises(ExperimentError):
        run_experiment(_cfg("diagonal(2,3)", 20, 30))


def test_solver_structure_compatibility():
    with pytest.raises(ConfigError):
        run_experiment(_cfg("diagonal(2,3)", 10, 2, solver="jordan-poly"))
    with pytest.raises(ConfigError):
        run_experiment(_cfg("jordan-corner(1)", 10, 2, solver="resolvent-aberth"))


CUBIC = "toeplitz(0,1,0.5,0.25)"


def test_auto_solver_is_dense_for_cubic_symbol():
    # the resolvent route returned spectra 0.03-0.14 away from dense QR on
    # these trials, with residuals below 1e-12 and no error
    cfg = _cfg(CUBIC, 100, 3, seed=11)
    assert cfg.resolved_solver() == "dense-qr"
    assert _cfg("toeplitz(3,2,1)", 100, 3).resolved_solver() == "resolvent-aberth"
    report = run_experiment(cfg)
    base = cfg.structure.base_matrix(100)
    for rec in report.records:
        pert = rank1_perturbation(100, 2.0, SeededRng(11, rec.index))
        want = np.linalg.eigvals(apply_perturbation(base, pert))
        assert spectrum_match_distance(rec.eigenvalues, want) <= 1e-8


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
    for rec in report.records:
        ref = np.array([_cubic_band_reference(lam) for lam in rec.eigenvalues])
        assert np.max(np.abs(rec.deviations - ref[:, 0])) <= 1e-10
        assert rec.max_outward_deviation == pytest.approx(ref[:, 1].max(), abs=1e-10)
        in_band = ref[:, 0] < report.delta
        in_exclusion = np.min(np.abs(rec.eigenvalues[:, None] - crit), axis=1) < cfg.eps
        assert rec.n_contained == np.count_nonzero(in_band | in_exclusion)
        assert rec.n_exclusion_only == np.count_nonzero(in_exclusion & ~in_band)
    # next to a critical value two preimages nearly coincide
    band, _ = exp.build_region(cfg)
    lams = crit + 1e-7
    dev, outward, inside = band.classify(lams)
    ref = np.array([_cubic_band_reference(lam) for lam in lams])
    assert np.max(np.abs(dev - ref[:, 0])) <= 1e-10
    assert np.max(np.abs(outward - ref[:, 1])) <= 1e-10
    assert np.array_equal(inside, ref[:, 0] < band.delta)


def test_band_preimages_solved_once_per_trial(monkeypatch):
    calls = {"n": 0}
    real = geometry.symbol_preimages

    def counted(p, lams):
        calls["n"] += 1
        return real(p, lams)

    monkeypatch.setattr(geometry, "symbol_preimages", counted)
    cfg = _cfg(CUBIC, 40, 7)
    one = run_experiment(cfg, threads=1)
    assert calls["n"] == 7
    two = run_experiment(cfg, threads=2)
    for a, b in zip(one.records, two.records):
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.deviations, b.deviations)
        assert (a.max_outward_deviation, a.n_contained, a.n_exclusion_only) == (
            b.max_outward_deviation, b.n_contained, b.n_exclusion_only
        )
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
        moved = np.array(
            [r.eigenvalues[np.argmax(np.abs(r.eigenvalues))] for r in report.records]
        )
        stds[d] = float(np.std(moved))
    ratio = stds[100] / stds[1000]
    assert ratio == pytest.approx(math.sqrt(10.0), rel=0.2)
