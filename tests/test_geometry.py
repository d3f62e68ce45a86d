import math
import tracemalloc

import numpy as np
import pytest

from pseudoscope import (
    DiskUnion,
    PolySymbol,
    ShapeError,
    SymbolBand,
    critical_values,
    separation_radius,
    spectrum_match_distance,
    symbol_image_curve,
    symbol_preimages,
)

import pseudoscope.spectra as spectra

from closed_forms import corner_eigenvalues, two_block_corner, two_block_eigenvalues


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


def test_disk_union_may_overlap():
    # exclusion disks may overlap; a diagonal run checks its own disks'
    # disjointness when it resolves the half-width
    disks = DiskUnion([2.0, 3.0], 0.75)
    assert disks.classify(2.5)[2] and disks.classify(2.74)[2]
    assert not disks.classify(3.75)[2]
    with pytest.raises(ShapeError):
        DiskUnion([2.0, 3.0], 0.0)


def test_disk_union_membership_strict():
    disks = DiskUnion([0.0, 2.0], 0.5)
    assert disks.classify(0.49)[2]
    assert not disks.classify(0.5)[2]  # boundary excluded
    assert disks.classify(2.3)[2]
    assert not disks.classify(1.0)[2]


def test_nearest_center_matches_broadcast_reference():
    # a run's values are measured one center at a time; the result is the
    # broadcast minimum over all centers, bit for bit
    rng = np.random.default_rng(3)
    lams = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    centers = np.arange(40) * 0.25 + 1j
    ref = np.min(np.abs(lams[:, None] - centers[None, :]), axis=1)
    dist, outward, inside = DiskUnion(centers, 0.1).classify(lams)
    assert np.array_equal(dist, ref) and np.array_equal(outward, ref)
    assert np.array_equal(inside, ref < 0.1)
    # the same holds for exclusion disks around a symbol's critical values
    crit = critical_values(PolySymbol(rng.standard_normal(10) + 1j * rng.standard_normal(10)))
    ref = np.min(np.abs(lams[:, None] - crit[None, :]), axis=1)
    assert crit.size == 8
    assert np.array_equal(DiskUnion(crit, 0.1).classify(lams)[2], ref < 0.1)


def _annulus_reference(lams, r, delta):
    """Membership of the annulus ``(1 - delta) r < |lam| < (1 + delta) r``."""
    mod = np.abs(lams)
    return ((1.0 - delta) * r < mod) & (mod < (1.0 + delta) * r)


def _band_of_scale(r, delta):
    return SymbolBand(PolySymbol([0, r]), delta)


# jordan-corner(0.5)'s radius at d=100
CORNER_R = 0.5 ** (1 / 100)


def test_annulus_membership():
    # jordan-corner's region is the band of r z: the annulus around the
    # circle of radius r = |rho|^(1/d)
    band = _band_of_scale(CORNER_R, 0.2)
    assert band.classify(1.1 * CORNER_R)[2]
    assert not band.classify(1.25 * CORNER_R)[2]
    assert not band.classify(0.75 * CORNER_R)[2]
    assert band.classify(0.9j * CORNER_R)[2]
    rng = np.random.default_rng(5)
    lams = CORNER_R * (rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000))
    dev, _, inside = band.classify(lams)
    assert np.array_equal(inside, _annulus_reference(lams, CORNER_R, 0.2))
    # the deviation is relative to the radius
    assert np.allclose(dev, np.abs(np.abs(lams) / CORNER_R - 1.0), rtol=0, atol=1e-15)


def test_annulus_inner_clamp():
    # past the half-width 1 the annulus is the disk |lam| < (1 + delta) r
    band = _band_of_scale(CORNER_R, 1.5)
    assert band.classify(1e-6 * CORNER_R)[2]
    assert not band.classify(2.5 * CORNER_R)[2]
    rng = np.random.default_rng(6)
    lams = 2.0 * CORNER_R * (rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000))
    assert np.array_equal(band.classify(lams)[2], _annulus_reference(lams, CORNER_R, 1.5))


def test_band_linear_symbol_circle():
    band = SymbolBand(PolySymbol([3, 2]), 0.1)
    for theta in np.linspace(0, 2 * np.pi, 17):
        assert band.classify(3 + 2 * np.exp(1j * theta))[2]
    assert not band.classify(3 + 2.25)[2]


def test_band_quadratic_example_outside():
    p = PolySymbol([3, 2, 1])
    lam = p(1.3)
    band = SymbolBand(p, 0.05)
    # oracle: quadratic formula preimages have moduli 1.3 and |a1/a2*...|
    z = symbol_preimages(p, lam)
    assert np.min(np.abs(np.abs(z) - 1.0)) > 0.05
    assert not band.classify(lam)[2]


def test_band_reduces_to_annulus_for_identity_symbol():
    # jordan's region is the band of p(z) = z; it classifies exactly as the
    # annulus around the unit circle, also past the half-width 1
    rng = np.random.default_rng(11)
    lams = 2.5 * (rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000))
    mod = np.abs(lams)
    for delta in (0.2, 1.5):
        dev, outward, inside = _band_of_scale(1, delta).classify(lams)
        assert np.array_equal(dev, np.abs(mod - 1.0))
        assert np.array_equal(outward, np.maximum(mod - 1.0, 0.0))
        assert np.array_equal(inside, _annulus_reference(lams, 1.0, delta))


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


def test_critical_values_repeated_critical_point():
    # p'(z) = (z - 1)^2 (z + 1): the double critical point 1 has no
    # isolating disc, and its value p(1) = 5/12 still comes out twice
    vals = critical_values(PolySymbol([0, 1, -0.5, -1 / 3, 0.25]))
    assert vals.shape == (3,)
    assert np.allclose(np.sort_complex(vals), [-11 / 12, 5 / 12, 5 / 12], atol=1e-12)


def test_exclusion_set_membership():
    exc = DiskUnion(critical_values(PolySymbol([3, 2, 1])), 0.5)
    assert exc.classify(2.2)[2][0]
    assert not exc.classify(2.6)[2][0]
    # a linear symbol has no critical value, so no exclusion disks
    assert critical_values(PolySymbol([3, 2])).size == 0
    with pytest.raises(ShapeError):
        DiskUnion(critical_values(PolySymbol([3, 2])), 0.5)


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


def test_symbol_preimages_split_stacks_change_no_byte(monkeypatch):
    # companion matrices are built and solved in stacks of at most
    # _BLOCK_ENTRIES entries; a split stack gives the same roots
    rng = np.random.default_rng(19)
    lams = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    for coeffs in ([0, 1, 0.5, 0.25], [1, 0, 0, 1j, 0.3]):
        p = PolySymbol(coeffs)
        whole = symbol_preimages(p, lams)
        monkeypatch.setattr(spectra, "_BLOCK_ENTRIES", 7 * p.degree**2)
        assert symbol_preimages(p, lams).tobytes() == whole.tobytes()
        monkeypatch.undo()


def test_symbol_preimages_memory_stays_bounded():
    # 40 000 values of a degree-5 symbol: one stack of their companion
    # matrices took 16 MB and peaked at 19 MB traced; in bounded stacks the
    # peak is about 4.5 MB, most of it the 3.2 MB of roots (Python 3.11,
    # numpy 2.4)
    rng = np.random.default_rng(23)
    lams = rng.standard_normal(40_000) + 1j * rng.standard_normal(40_000)
    p = PolySymbol([0, 1, 0.5, 0.25, 0.1, 0.3])
    tracemalloc.start()
    try:
        z = symbol_preimages(p, lams)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert z.shape == (40_000, 5)
    assert peak < 8, peak


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
        dense = np.linalg.eigvals(two_block_corner(d, g1, g2, rho))
        assert spectrum_match_distance(closed, dense) <= 1e-9


def test_two_block_defective_collision_case():
    # (0, 2, 1) at d=2 makes 4 rho^(1/d) e^{i pi} cancel (g1-g2)^2 exactly,
    # leaving a defective double eigenvalue whose forward error is
    # sqrt(machine epsilon) for every backward-stable route
    closed = two_block_eigenvalues(2, 0.0, 2.0, 1.0)
    dense = np.linalg.eigvals(two_block_corner(2, 0.0, 2.0, 1.0))
    assert spectrum_match_distance(closed, dense) <= 5e-8


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
