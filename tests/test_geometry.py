import math

import numpy as np
import pytest

from pseudoscope import (
    Annulus,
    DiskUnion,
    ExclusionSet,
    PolySymbol,
    ShapeError,
    SymbolBand,
    annulus_prob_limit,
    corner_eigenvalues,
    critical_values,
    dense_eigenvalues,
    root_separation_stats,
    separation_radius,
    spectrum_match_distance,
    symbol_image_curve,
    symbol_preimages,
    two_block_corner,
    two_block_eigenvalues,
)


def test_separation_radius_pair():
    assert separation_radius([2.0, 3.0]) == 0.5


def test_separation_radius_triple():
    assert separation_radius([0.0, 1j, -1j]) == 0.5


def test_separation_radius_brute_force():
    rng = np.random.default_rng(7)
    centers = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    best = min(
        abs(centers[i] - centers[j])
        for i in range(100)
        for j in range(i + 1, 100)
    )
    assert separation_radius(centers) == pytest.approx(best / 2.0, rel=1e-12)


def test_separation_radius_sentinels():
    assert separation_radius([1.0 + 1j]) == math.inf
    assert separation_radius([2.0, 2.0]) == 0.0


def test_disk_union_rejects_overlap():
    DiskUnion([2.0, 3.0], 0.5)  # exactly the separation radius is allowed
    with pytest.raises(ShapeError):
        DiskUnion([2.0, 3.0], 0.5001)


def test_disk_union_membership_strict():
    disks = DiskUnion([0.0, 2.0], 0.5)
    assert disks.contains(0.49)
    assert not disks.contains(0.5)  # boundary excluded
    assert disks.contains(2.3)
    assert not disks.contains(1.0)


def test_annulus_membership():
    ann = Annulus.from_scale(0j, 1.0, 0.1)
    assert ann.contains(1.05)
    assert not ann.contains(1.2)
    assert not ann.contains(0.85)
    assert ann.contains(0.95j)


def test_annulus_inner_clamp():
    ann = Annulus.from_scale(0j, 1.0, 1.5)
    assert ann.inner == 0.0
    assert ann.ref == 1.0
    assert ann.contains(1e-6)


def test_band_linear_symbol_circle():
    band = SymbolBand(PolySymbol([3, 2]), 0.1)
    for theta in np.linspace(0, 2 * np.pi, 17):
        assert band.contains(3 + 2 * np.exp(1j * theta))
    assert not band.contains(3 + 2.25)


def test_band_quadratic_example_outside():
    p = PolySymbol([3, 2, 1])
    lam = p(1.3)
    band = SymbolBand(p, 0.05)
    # oracle: quadratic formula preimages have moduli 1.3 and |a1/a2*...|
    z = symbol_preimages(p, lam)
    assert np.min(np.abs(np.abs(z) - 1.0)) > 0.05
    assert not band.contains(lam)


def test_band_reduces_to_annulus_for_identity_symbol():
    rng = np.random.default_rng(11)
    band = SymbolBand(PolySymbol([0, 1]), 0.2)
    ann = Annulus.from_scale(0j, 1.0, 0.2)
    lams = 2.5 * (rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000))
    got = band.contains_many(lams)
    want = ann.contains_many(lams)
    assert np.array_equal(got, want)


def test_critical_values_linear_empty():
    assert critical_values(PolySymbol([3, 2])).size == 0


def test_critical_values_quadratic():
    vals = critical_values(PolySymbol([3, 2, 1]))
    assert vals.shape == (1,)
    assert vals[0] == pytest.approx(2.0, abs=1e-12)


def test_critical_values_pure_cube():
    vals = critical_values(PolySymbol([0, 0, 0, 1]))
    assert vals.shape == (2,)
    assert np.allclose(vals, 0.0, atol=1e-12)


def test_exclusion_set_membership():
    exc = ExclusionSet.from_symbol(PolySymbol([3, 2, 1]), 0.5)
    assert exc.contains(2.2)
    assert not exc.contains(2.6)
    empty = ExclusionSet.from_symbol(PolySymbol([3, 2]), 0.5)
    assert not empty.contains(3.0)


def test_symbol_preimages_identity():
    z = symbol_preimages(PolySymbol([0, 1]), 5.0)
    assert np.allclose(z, [5.0])


def test_symbol_preimages_critical_double_root():
    z = symbol_preimages(PolySymbol([3, 2, 1]), 2.0)
    assert np.allclose(np.sort_complex(z), [-1.0, -1.0], atol=1e-7)


def test_symbol_preimages_factorizable():
    z = symbol_preimages(PolySymbol([3, 2, 1]), 6.0)
    assert spectrum_match_distance(z, np.array([1.0, -3.0])) <= 1e-12


def test_symbol_preimages_inverse_property():
    rng = np.random.default_rng(13)
    for _ in range(10_000):
        degree = int(rng.integers(1, 6))
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        while abs(coeffs[-1]) < 0.1:
            coeffs[-1] = rng.standard_normal() + 1j * rng.standard_normal()
        p = PolySymbol(coeffs)
        z = complex(rng.standard_normal(), rng.standard_normal())
        roots = symbol_preimages(p, p(z))
        assert np.min(np.abs(roots - z)) <= 1e-9 * (1 + abs(z))


def test_symbol_preimages_batch_matches_scalar_calls():
    rng = np.random.default_rng(17)
    lams = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    for coeffs in ([3, 2], [3, 2, 1], [0, 1, 0.5, 0.25], [1, 0, 0, 1j, 0.3]):
        p = PolySymbol(coeffs)
        batch = symbol_preimages(p, lams)
        assert batch.shape == (lams.size, p.degree)
        for lam, row in zip(lams, batch):
            assert np.array_equal(row, symbol_preimages(p, lam))
            assert np.allclose(p(row), lam, atol=1e-12)


def test_root_separation_at_critical_value():
    stats = root_separation_stats(PolySymbol([3, 2, 1]), 2.0)
    assert stats.min_pair_distance == pytest.approx(0.0, abs=1e-6)
    assert stats.min_derivative_modulus == pytest.approx(0.0, abs=1e-6)


def test_root_separation_factorizable():
    stats = root_separation_stats(PolySymbol([3, 2, 1]), 6.0)
    assert stats.min_pair_distance == pytest.approx(4.0, rel=1e-10)
    assert stats.min_derivative_modulus == pytest.approx(4.0, rel=1e-10)
    assert stats.min_root_modulus == pytest.approx(1.0, rel=1e-10)


def test_root_separation_linear_sentinel():
    stats = root_separation_stats(PolySymbol([3, 2]), 5.0)
    assert stats.min_pair_distance == math.inf


def test_root_separation_growth_for_square_symbol():
    p = PolySymbol([0, 0, 1])
    lam = 1e6
    stats = root_separation_stats(p, lam)
    assert abs(stats.min_pair_distance - 2.0 * math.sqrt(lam)) <= 0.01 * 2.0 * math.sqrt(lam)


def test_corner_eigenvalues_examples():
    assert spectrum_match_distance(
        corner_eigenvalues(4, 1.0), np.array([1, 1j, -1, -1j])
    ) <= 1e-12
    assert spectrum_match_distance(
        corner_eigenvalues(2, -4.0), np.array([2j, -2j])
    ) <= 1e-12
    assert np.array_equal(corner_eigenvalues(3, 0.0), np.zeros(3))


def test_corner_eigenvalues_modulus_and_power():
    for d, rho in [(3, 8.0), (5, 2 + 3j), (7, 1e-6)]:
        vals = corner_eigenvalues(d, rho)
        assert np.allclose(np.abs(vals), abs(rho) ** (1.0 / d))
        assert np.allclose(vals**d, rho, rtol=1e-10)


def test_two_block_degenerate_center_offsets():
    vals = two_block_eigenvalues(2, 1.0, 1.0, 16.0)
    offsets = np.sort(np.abs(vals - 1.0))
    assert np.allclose(offsets, 2.0)
    # 1 + fourth roots of 16
    expected = 1.0 + corner_eigenvalues(4, 16.0)
    assert spectrum_match_distance(vals, expected) <= 1e-10


def test_two_block_zero_rho_gives_diagonal_copies():
    vals = two_block_eigenvalues(3, 1.5, -0.5, 0.0)
    assert np.count_nonzero(np.isclose(vals, 1.5)) == 3
    assert np.count_nonzero(np.isclose(vals, -0.5)) == 3


def test_two_block_matches_dense_oracle():
    for d, g1, g2, rho in [(2, 0.0, 2.0, 1 + 0.3j), (3, 1 - 1j, 0.5, 2 + 1j), (2, 0.7, 0.7, -3.0)]:
        closed = two_block_eigenvalues(d, g1, g2, rho)
        dense = dense_eigenvalues(two_block_corner(d, g1, g2, rho))
        assert spectrum_match_distance(closed, dense) <= 1e-9


def test_two_block_defective_collision_case():
    # (0, 2, 1) at d=2 makes 4 rho^(1/d) e^{i pi} cancel (g1-g2)^2 exactly,
    # leaving a defective double eigenvalue whose forward error is
    # sqrt(machine epsilon) for every backward-stable route
    closed = two_block_eigenvalues(2, 0.0, 2.0, 1.0)
    dense = dense_eigenvalues(two_block_corner(2, 0.0, 2.0, 1.0))
    assert spectrum_match_distance(closed, dense) <= 5e-8


def test_annulus_prob_limit_values():
    assert annulus_prob_limit("CN(0,1)", 20.0) == pytest.approx(1.0, abs=1e-12)
    expected = math.exp(-math.exp(-2.0)) - math.exp(-math.exp(2.0))
    assert annulus_prob_limit("CN(0,1)", 1.0) == pytest.approx(expected, rel=1e-14)
    assert annulus_prob_limit("CN(0,1)", 0.0) == 0.0
    with pytest.raises(ShapeError):
        annulus_prob_limit("uniform", 1.0)


def test_symbol_image_curve_identity_and_affine():
    curve = symbol_image_curve(PolySymbol([0, 1]), 64)
    assert np.allclose(np.abs(curve), 1.0)
    curve2 = symbol_image_curve(PolySymbol([3, 2]), 64)
    assert np.allclose(np.abs(curve2 - 3.0), 2.0)


def test_symbol_image_curve_endpoints():
    curve = symbol_image_curve(PolySymbol([3, 2, 1]), 64)
    assert curve[0] == pytest.approx(6.0)
    assert curve[32] == pytest.approx(2.0)
    with pytest.raises(ShapeError):
        symbol_image_curve(PolySymbol([3, 2, 1]), 4)
