import numpy as np
import pytest

from pseudoscope import (
    PolySymbol,
    SeededRng,
    ShapeError,
    jordan_corner,
    jordan_quadratic_forms,
    rank1_perturbation,
    toeplitz_from_symbol,
)

from closed_forms import jordan_nilpotent, two_block_corner


def cvec(*entries):
    return np.asarray(entries, dtype=np.complex128)


def test_jordan_nilpotent_d1_is_zero():
    assert np.array_equal(jordan_nilpotent(1), np.zeros((1, 1)))


def test_jordan_nilpotent_pattern_d3():
    expected = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=np.complex128)
    assert np.array_equal(jordan_nilpotent(3), expected)


def test_jordan_square_has_second_superdiagonal():
    # oracle: direct matrix multiplication
    j = jordan_nilpotent(4)
    jj = j @ j
    expected = np.diag(np.ones(2), 2)
    assert np.array_equal(jj, expected)


def test_jordan_nilpotency_exact_up_to_64():
    for d in range(1, 65):
        j = jordan_nilpotent(d)
        assert np.all(np.linalg.matrix_power(j, d) == 0)


def test_jordan_corner_zero_rho_matches_plain_block():
    assert np.array_equal(jordan_corner(2, 0), jordan_nilpotent(2))


def test_jordan_corner_entry_placement():
    a = jordan_corner(5, 2 - 1j)
    assert a[4, 0] == 2 - 1j
    assert np.array_equal(np.diag(a, 1), np.ones(4))
    assert np.count_nonzero(a) == 5


def test_two_block_degenerate_collapse():
    assert np.array_equal(two_block_corner(1, 0, 0, 1), jordan_corner(2, 1))


def test_two_block_layout():
    a = two_block_corner(2, 5, 7, 3j)
    assert np.array_equal(np.diag(a), cvec(5, 5, 7, 7))
    assert np.array_equal(np.diag(a, 1), np.ones(3))
    assert a[3, 0] == 3j


def test_toeplitz_linear_symbol_is_jordan():
    t = toeplitz_from_symbol(PolySymbol([0, 1]), 5)
    assert np.array_equal(t, jordan_nilpotent(5))


def test_toeplitz_affine_symbol():
    t = toeplitz_from_symbol(PolySymbol([3, 2]), 3)
    j = jordan_nilpotent(3)
    assert np.array_equal(t, 3 * np.eye(3) + 2 * j)


def test_toeplitz_equals_symbol_at_block():
    # oracle: evaluate the symbol by explicit matrix powers
    t = toeplitz_from_symbol(PolySymbol([3, 2, 1]), 4)
    j = jordan_nilpotent(4)
    assert np.array_equal(t, 3 * np.eye(4) + 2 * j + j @ j)


def test_toeplitz_degree_must_fit():
    with pytest.raises(ShapeError):
        toeplitz_from_symbol(PolySymbol([1, 2, 3]), 2)


def test_symbol_validation():
    with pytest.raises(ShapeError):
        PolySymbol([1.0])  # constant
    with pytest.raises(ShapeError):
        PolySymbol([1.0, 0.0])  # zero leading coefficient


def test_rank1_operator_norm_is_normalized():
    worst = 0.0
    for i in range(200):
        p = rank1_perturbation(50, 1.0, SeededRng(7, i))
        worst = max(worst, abs(np.linalg.norm(p.scale * np.outer(p.u, np.conj(p.v)), 2) - 1.0))
    assert worst <= 1e-9


def test_quadratic_form_identity():
    # q_0 is the form of J^0, the identity
    e1 = cvec(1, 0)
    assert jordan_quadratic_forms(e1, e1)[0] == pytest.approx(1.0)


def test_quadratic_form_jordan_shift():
    e1, e2 = cvec(1, 0), cvec(0, 1)
    assert jordan_quadratic_forms(e2, e1)[1] == pytest.approx(1.0)


def test_quadratic_form_matches_direct_sum():
    # oracle: explicit shifted summation for powers of the nilpotent block
    rng = SeededRng(11, 3)
    d = 9
    u = rng.complex_normals(d)
    v = rng.complex_normals(d)
    q = jordan_quadratic_forms(u, v)
    for k in range(d):
        direct = sum(np.conj(v[m]) * u[k + m] for m in range(d - k))
        assert q[k] == pytest.approx(direct, abs=1e-12)


def test_quadratic_form_sesquilinearity():
    rng = SeededRng(13, 1)
    d = 6
    u, v = rng.complex_normals(d), rng.complex_normals(d)
    alpha = 0.7 - 1.9j
    q = jordan_quadratic_forms(u, v)
    scale = np.abs(q) + 1.0
    lhs = jordan_quadratic_forms(u, alpha * v)
    assert np.all(np.abs(lhs - np.conj(alpha) * q) <= 1e-12 * scale)
    rhs = jordan_quadratic_forms(alpha * u, v)
    assert np.all(np.abs(rhs - alpha * q) <= 1e-12 * scale)


def test_jordan_quadratic_forms_d1():
    q = jordan_quadratic_forms(cvec(2 + 1j), cvec(3 - 1j))
    assert q.shape == (1,)
    assert q[0] == pytest.approx(np.conj(3 - 1j) * (2 + 1j))


def test_jordan_quadratic_forms_all_ones():
    # oracle: shifted-overlap count
    q = jordan_quadratic_forms(np.ones(3, dtype=complex), np.ones(3, dtype=complex))
    assert np.allclose(q, [3, 2, 1])


def test_jordan_quadratic_forms_last_term():
    rng = SeededRng(5, 9)
    u, v = rng.complex_normals(12), rng.complex_normals(12)
    q = jordan_quadratic_forms(u, v)
    assert q[-1] == pytest.approx(np.conj(v[0]) * u[-1])


def test_jordan_quadratic_forms_match_dense_powers():
    rng = SeededRng(5, 10)
    d = 15
    u, v = rng.complex_normals(d), rng.complex_normals(d)
    q = jordan_quadratic_forms(u, v)
    j = jordan_nilpotent(d)
    jk = np.eye(d, dtype=complex)
    for k in range(d):
        assert q[k] == pytest.approx(np.vdot(v, jk @ u), abs=1e-12)
        jk = jk @ j


def test_dimension_mismatch_raises():
    with pytest.raises(ShapeError):
        jordan_quadratic_forms(cvec(1, 0, 0), cvec(1, 0))
