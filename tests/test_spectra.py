import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import pseudoscope.spectra as spectra
from pseudoscope import (
    RankOnePerturbation,
    SeededRng,
    ShapeError,
    charpoly_jordan_rank1,
    dense_eigenvalues,
    eigen_resolvent_aberth,
    jordan_corner,
    poly_roots,
    rank1_perturbation,
    spectrum_match_distance,
)
from pseudoscope.experiments import StructureSpec, auto_route, solve

from closed_forms import corner_eigenvalues, jordan_nilpotent, stack


def test_charpoly_scalar_case():
    p = RankOnePerturbation(np.array([2 + 1j]), np.array([1 - 1j]), 0.75)
    tail = charpoly_jordan_rank1(p)
    expected_root = 0.75 * np.conj(1 - 1j) * (2 + 1j)
    assert tail.shape == (1, 1)
    assert tail[0, 0] == pytest.approx(-expected_root)


def test_charpoly_corner_surrogate_matches_closed_form():
    # only the top overlap survives, so the roots are the d-th roots of eps
    d, eps = 12, 2.0
    u = np.zeros(d, dtype=complex)
    v = np.zeros(d, dtype=complex)
    u[-1] = 5.0
    v[0] = 3.0
    p = RankOnePerturbation(u, v, eps / 15.0)
    [roots] = poly_roots(charpoly_jordan_rank1(p)).eigenvalues
    assert spectrum_match_distance(roots, corner_eigenvalues(d, eps)) <= 1e-10


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(code, {})
    assert float(capsys.readouterr().out) <= 1e-12


def test_charpoly_roots_match_dense_oracle():
    d = 20
    p = rank1_perturbation(d, 2.0, SeededRng(71, 0))
    [fast] = poly_roots(charpoly_jordan_rank1(p)).eigenvalues
    [dense] = dense_eigenvalues(jordan_nilpotent(d), p).eigenvalues
    assert spectrum_match_distance(fast, dense) <= 1e-8


def test_poly_roots_quadratic():
    [roots] = poly_roots([[1.0, 0.0]]).eigenvalues  # z^2 + 1
    assert spectrum_match_distance(roots, np.array([1j, -1j])) <= 1e-14


def test_poly_roots_roots_of_unity():
    d = 12
    coeffs = np.zeros(d, dtype=complex)
    coeffs[0] = -1.0
    s = poly_roots([coeffs])
    expected = np.exp(2j * np.pi * np.arange(d) / d)
    assert spectrum_match_distance(s.eigenvalues[0], expected) <= 1e-12
    assert s.residual[0] <= 1e-12 and s.reason[0] == ""


def test_poly_roots_large_random_charpoly_vs_dense():
    d = 100
    p = rank1_perturbation(d, 2.0, SeededRng(73, 1))
    [fast] = poly_roots(charpoly_jordan_rank1(p)).eigenvalues
    [dense] = dense_eigenvalues(jordan_nilpotent(d), p).eigenvalues
    scale = 1.0 + np.max(np.abs(dense))
    assert spectrum_match_distance(fast, dense) <= 1e-8 * scale


def test_poly_roots_nonconvergence_reason_counts_roots():
    # a failed row keeps its last iterate, with no residual, and its reason
    # counts the roots that did not converge
    rng = SeededRng(75, 0)
    coeffs = rng.complex_normals(9)
    s = poly_roots([coeffs], max_sweeps=1)
    assert re.fullmatch(r"[1-9] of 9 roots did not converge", s.reason[0])
    assert s.eigenvalues.shape == (1, 9) and np.isnan(s.residual[0])


def test_poly_roots_splits_off_exact_zero_roots():
    # z^3 (z - 1)(z - 2)(z - 3j) (z + 4): three exact zeros, four iterated roots
    expected = np.array([0, 0, 0, 1, 2, 3j, -4], dtype=complex)
    full = np.polynomial.polynomial.polyfromroots(expected)
    s = poly_roots([full[:-1]])
    assert np.count_nonzero(s.eigenvalues == 0) == 3
    assert spectrum_match_distance(s.eigenvalues[0], expected) <= 1e-12
    assert 0 < s.residual[0] <= 1e-10


def test_poly_roots_stack_matches_rows_solved_alone():
    # a stack is one Aberth iteration over all its rows, yet each row's
    # roots and residual are bitwise those of the row solved alone.  The
    # rows mix three jordan polynomials, three exact zero roots, a degree-2
    # remainder and a quadruple root that does not converge in 20 sweeps
    d = 16
    jordan = charpoly_jordan_rank1(stack(rank1_perturbation(d, 2.0, SeededRng(95, t))
                                         for t in range(3)))
    zeros, quadratic = np.zeros((2, d), dtype=complex)
    zeros[3] = -(0.5**13)  # z^3 (z^13 - 0.5^13)
    quadratic[-2:] = [1.0, 0.5]  # z^14 (z^2 + 0.5 z + 1)
    circle = 2 * np.exp(2j * np.pi * np.arange(12) / 12)
    quadruple = np.polynomial.polynomial.polyfromroots([1, 1, 1, 1, *circle])[:-1]
    tails = np.stack([jordan[0], zeros, jordan[1], quadratic, quadruple, jordan[2]])
    results = poly_roots(tails, max_sweeps=20)
    assert results.eigenvalues.shape == tails.shape
    assert results.residual.shape == results.reason.shape == (len(tails),)
    for k, tail in enumerate(tails):
        want = poly_roots([tail], max_sweeps=20)
        assert results.eigenvalues[k].tobytes() == want.eigenvalues[0].tobytes()
        assert results.residual[k].tobytes() == want.residual[0].tobytes()
        assert results.reason[k] == want.reason[0]
    assert results.reason[4] == "4 of 16 roots did not converge"
    assert np.isnan(results.residual[4])
    assert np.count_nonzero(results.eigenvalues[1] == 0) == 3
    assert np.count_nonzero(results.eigenvalues[3] == 0) == d - 2
    for k in (0, 1, 2, 3, 5):
        assert results.reason[k] == ""
        assert 0 < results.residual[k] <= 1e-10


def test_poly_roots_solves_a_bounded_number_of_roots_at_once(monkeypatch):
    # a stack is solved at most _BLOCK_ENTRIES roots (whole rows) at a
    # time, so memory is bounded at any stack size, and the split changes
    # no byte of any row
    d = 16
    tails = charpoly_jordan_rank1(stack(rank1_perturbation(d, 2.0, SeededRng(97, t))
                                        for t in range(7)))
    whole = poly_roots(tails)
    rows, aberth = [], spectra._aberth
    monkeypatch.setattr(spectra, "_BLOCK_ENTRIES", 2 * d)
    monkeypatch.setattr(spectra, "_aberth",
                        lambda full, z, **kwargs: rows.append(len(z)) or aberth(full, z, **kwargs))
    split = poly_roots(tails)
    assert rows == [2, 2, 2, 1]
    assert split.eigenvalues.tobytes() == whole.eigenvalues.tobytes()
    assert split.residual.tobytes() == whole.residual.tobytes()
    assert split.reason.tolist() == whole.reason.tolist() == [""] * 7


def test_poly_roots_roots_spread_over_many_scales():
    # the Newton polygon starts each scale on its own circle
    expected = np.array([1e-4, 2e-4j, 1, -1, 1j, 0.5 + 0.5j, 1e4, -1e4j])
    full = np.polynomial.polynomial.polyfromroots(expected)
    [roots] = poly_roots([full[:-1]]).eigenvalues
    # each root to a small relative error, and (the discs being disjoint)
    # each found once
    for z in expected:
        assert np.min(np.abs(roots - z)) <= 1e-9 * abs(z)


def test_newton_polygon_starts_need_few_sweeps():
    # the starts keep the sweep count flat in d (13 to 16 at d=256, eps=2)
    for d in (64, 256):
        full = np.append(charpoly_jordan_rank1(rank1_perturbation(d, 2.0, SeededRng(11, 0)))[0], 1)
        starts = spectra._newton_polygon_starts(full)
        _, conv, sweeps = spectra._aberth(full[None], starts[None])
        assert conv.all()
        assert sweeps.max() <= 29


def test_poly_roots_recovers_from_overflowed_newton_quotient():
    # one iterate of this trial reaches |z| = 15.8 at d=256, where p and p'
    # are finite (about 1e307 and 2e308) but their complex quotient
    # overflows to 0.  Taken as a step, it would freeze there as converged
    # and fail the certificate; it is stranded instead, and contracted
    # toward the roots like an overflowed evaluation
    d = 256
    p = rank1_perturbation(d, 2.0, SeededRng(9131, 0))
    s = poly_roots(charpoly_jordan_rank1(p))
    assert s.reason[0] == ""
    [dense] = dense_eigenvalues(jordan_nilpotent(d), p).eigenvalues
    assert spectrum_match_distance(s.eigenvalues[0], dense) <= 1e-8 * (1 + np.max(np.abs(dense)))


def test_poly_roots_rejects_double_root():
    full = np.polynomial.polynomial.polyfromroots([1, 1, -2, 3j])
    [reason] = poly_roots([full[:-1]]).reason
    assert reason != ""


def test_double_root_certificate_names_two_distinct_roots():
    # the closed form gives (z + 2)^2 two identical roots with infinite
    # inclusion radii: their zero distance raises no warning, and a root's
    # own column never counts as an overlap
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [reason] = poly_roots([[4.0, 4.0]]).reason
    assert "roots 0 and 1 overlap" in reason


def test_certificate_rejects_duplicated_root(monkeypatch):
    # an iteration that claims convergence on two copies of the double root
    # 1 of (z - 1)^2 (z + 2)(z - 3j) is caught by its overlapping discs
    full = np.polynomial.polynomial.polyfromroots([1, 1, -2, 3j])
    claimed = np.array([1, 1 + 1e-9, -2, 3j], dtype=complex)
    monkeypatch.setattr(
        spectra, "_aberth",
        lambda *args, **kwargs: (claimed[None], np.ones((1, 4), dtype=bool), np.ones(1)),
    )
    [reason] = poly_roots([full[:-1]]).reason
    assert re.fullmatch(r"inclusion discs of roots \d and \d overlap \(radii .*, distance .*\)",
                        reason)


LINEAR_SYMBOLS = ("jordan", "toeplitz(3,2)", "toeplitz(1+1j,0.5-2j)")


@pytest.mark.parametrize("eps", [2.0, 1e-8])
def test_jordan_poly_results_are_certified(eps):
    # each root's inclusion disc is disjoint from the others, so each holds
    # exactly one root; the residual is the largest radius, scaled by |a1|.
    # jordan is a0 = 0, a1 = 1; every linear symbol a0 + a1 z runs the same
    # route, and its power sum is d a0 + s v^dag u
    for structure in map(StructureSpec.parse, LINEAR_SYMBOLS):
        a0, a1 = structure.symbol().coeffs
        for d in (64, 256, 512):
            perts = [rank1_perturbation(d, eps, SeededRng(93, trial)) for trial in range(3)]
            s = solve(structure, d, stack(perts), "jordan-poly")
            assert s.reason.tolist() == [""] * 3
            for p, lams, residual in zip(perts, s.eigenvalues, s.residual):
                gaps = np.abs(lams[:, None] - lams[None, :])
                np.fill_diagonal(gaps, np.inf)
                assert 0 < residual <= 1e-8 * abs(a1)
                assert 2 * residual < gaps.min()
                trace = d * a0 + p.scale * np.vdot(p.v, p.u)
                assert abs(np.sum(lams) - trace) <= 1e-10 * d * (1 + abs(a0))


def test_jordan_poly_closed_form_modulus_at_small_eps():
    # at eps=1e-12 the constant term s conj(v_1) u_d dominates the
    # characteristic polynomial, so the roots sit near the circle of radius
    # r = |s conj(v_1) u_d|^(1/d).  Once r nears 1, a few roots per trial
    # follow zeros of the overlap polynomial sum_k q_k lam^(d-1-k) inside
    # that circle, so at d=48 and 256 only the bulk holds it and no root
    # lies much outside it.
    for d in (16, 48, 256):
        within = []
        for trial in range(10):
            p = rank1_perturbation(d, 1e-12, SeededRng(0, trial))
            [lams] = solve(StructureSpec("jordan"), d, p, "jordan-poly").eigenvalues
            r = abs(p.scale * np.conj(p.v[0]) * p.u[-1]) ** (1.0 / d)
            ratio = np.abs(lams) / r
            assert ratio.max() <= 1.1
            if d == 16:
                assert ratio.min() >= 0.9
            within.append(np.abs(ratio - 1) <= 0.05)
        assert np.mean(within) >= 0.9


def _resolvent_alone(diag, p):
    """The one-trial deflation the block solve replaced, as the reference."""
    values, inverse, counts = np.unique(diag, return_inverse=True, return_counts=True)
    m = values.size
    weights = np.zeros(m, dtype=np.complex128)
    np.add.at(weights, inverse, np.conj(p.v) * p.u)
    moved = np.linalg.eigvals(np.diag(values) + p.scale * np.outer(weights, np.ones(m)))
    return np.concatenate([moved, np.repeat(values, counts - 1)])


_FORTY_VALUES = "diagonal(" + ",".join(f"{k % 8}+{k // 8}j" for k in range(40)) + ")"


@pytest.mark.parametrize("structure, d", [("zero", 12), ("scalar(1+2j)", 12),
                                          ("diagonal(2,3)", 64), (_FORTY_VALUES, 100)],
                         ids=["zero", "scalar", "diagonal(2,3)", "forty-values"])
def test_resolvent_block_matches_trials_solved_alone(monkeypatch, structure, d):
    # the block takes the distinct values once and solves its m x m
    # matrices as stacks of at most _BLOCK_ENTRIES entries, here two
    # matrices, yet each trial's spectrum is bitwise the one-trial solve's
    diag = StructureSpec.parse(structure).diagonal_entries(d)
    m = np.unique(diag).size
    perts = [rank1_perturbation(d, 2.0, SeededRng(99, t)) for t in range(7)]
    stacks, eigvals = [], np.linalg.eigvals
    monkeypatch.setattr(spectra, "_BLOCK_ENTRIES", 3 * m * m - 1)
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: stacks.append(len(a)) or eigvals(a))
    block = eigen_resolvent_aberth(diag, stack(perts))
    assert stacks == [2, 2, 2, 1]
    assert block.eigenvalues.shape == (len(perts), d)
    for p, lams in zip(perts, block.eigenvalues):
        assert lams.tobytes() == _resolvent_alone(diag, p).tobytes()
    # LAPACK certifies no residual
    assert np.isnan(block.residual).all() and block.reason.tolist() == [""] * len(perts)


@pytest.mark.parametrize("structure", ["toeplitz(3,2,1)", "diagonal(2,3)"])
def test_dense_block_matches_trials_solved_alone(monkeypatch, structure):
    # the block's matrices T + s u v^dag are built and solved as stacks of
    # at most _BLOCK_ENTRIES entries, here two matrices, yet each trial's
    # spectrum is bitwise that of its own matrix; a 1-D base is the
    # diagonal of T
    d = 12
    base = StructureSpec.parse(structure).base_matrix(d)
    dense = base if base.ndim == 2 else np.diag(base)
    perts = [rank1_perturbation(d, 2.0, SeededRng(103, t)) for t in range(7)]
    stacks, eigvals = [], np.linalg.eigvals
    monkeypatch.setattr(spectra, "_BLOCK_ENTRIES", 3 * d * d - 1)
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: stacks.append(len(a)) or eigvals(a))
    block = dense_eigenvalues(base, stack(perts))
    assert stacks == [2, 2, 2, 1]
    for p, lams in zip(perts, block.eigenvalues):
        alone = eigvals(dense + p.scale * np.outer(p.u, np.conj(p.v)))
        assert lams.tobytes() == alone.tobytes()
    assert np.isnan(block.residual).all() and block.reason.tolist() == [""] * len(perts)


def test_resolvent_block_memory_stays_bounded():
    # 200 trials of a 300-value diagonal: one stack of their 300 x 300
    # matrices would take 288 MB; a stack holds at most one of them, and
    # the solve peaks at about 6.4 MB traced (Python 3.11, numpy 2.4)
    d, trials = 300, 200
    diag = np.arange(d) * (1 + 0.5j)
    perts = stack(rank1_perturbation(d, 2.0, SeededRng(101, t)) for t in range(trials))
    tracemalloc.start()
    try:
        block = eigen_resolvent_aberth(diag, perts)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert block.eigenvalues.shape == (trials, d)
    assert peak < 16, peak


def test_resolvent_vanishing_perturbation_keeps_diagonal():
    p = rank1_perturbation(2, 1e-14, SeededRng(77, 0))
    [lams] = eigen_resolvent_aberth(np.array([2.0, 3.0], dtype=complex), p).eigenvalues
    assert spectrum_match_distance(lams, np.array([2.0, 3.0])) <= 1e-10


def test_resolvent_two_cluster_diagonal_vs_dense():
    d = 40
    diag = np.array([2.0] * (d // 2) + [3.0] * (d // 2), dtype=complex)
    perts = stack(rank1_perturbation(d, 2.0, SeededRng(79, t)) for t in (0, 3, 4))
    fast = eigen_resolvent_aberth(diag, perts).eigenvalues
    dense = dense_eigenvalues(np.diag(diag), perts).eigenvalues
    for f, x in zip(fast, dense):
        assert spectrum_match_distance(f, x) <= 1e-8 * (1.0 + np.max(np.abs(x)))


def test_resolvent_rejects_triangular_base():
    d = 40
    p = rank1_perturbation(d, 2.0, SeededRng(79, 1))
    for structure in ("toeplitz(3,2,1)", "jordan"):
        with pytest.raises(ShapeError):
            eigen_resolvent_aberth(StructureSpec.parse(structure).base_matrix(d), p)
        with pytest.raises(ShapeError):
            solve(StructureSpec.parse(structure), d, p, "resolvent-aberth")
    # the route takes the 1-D diagonal only, never its dense matrix
    values = StructureSpec.parse("diagonal(2,3)").diagonal_entries(d)
    with pytest.raises(ShapeError):
        eigen_resolvent_aberth(np.diag(values), p)


def test_jordan_poly_rejects_base_it_does_not_model():
    # the route models a0 I + a1 J only, read from a degree-1 symbol; a
    # corner entry, a second superdiagonal or a diagonal would be silently
    # dropped, so every other structure is refused
    d = 40
    p = rank1_perturbation(d, 2.0, SeededRng(79, 1))
    for structure in ("jordan-corner(0.5)", "toeplitz(3,2,1)", "diagonal(2,3)", "zero",
                      "scalar(1)"):
        with pytest.raises(ShapeError):
            solve(StructureSpec.parse(structure), d, p, "jordan-poly")
    for structure in ("jordan", "toeplitz(3,2)"):
        s = solve(StructureSpec.parse(structure), d, p, "jordan-poly")
        assert s.eigenvalues.shape == (1, d)


def test_resolvent_rejects_dim_mismatch():
    p = rank1_perturbation(4, 1.0, SeededRng(79, 2))
    q = rank1_perturbation(5, 1.0, SeededRng(79, 3))
    with pytest.raises(ShapeError, match="do not fit"):
        eigen_resolvent_aberth(np.zeros(5, dtype=complex), p)
    # a block has one dimension: a v of another fails the whole block
    with pytest.raises(ShapeError, match="of one shape"):
        eigen_resolvent_aberth(np.zeros(5, dtype=complex), p._replace(v=q.v))


def _unit(d, k):
    return np.eye(d, dtype=complex)[k]


def test_dense_corner_fourth_roots():
    # the corner block is J plus the rank-1 corner e_4 e_1^dag
    corner = RankOnePerturbation(_unit(4, 3), _unit(4, 0), 1.0)
    assert np.array_equal(jordan_nilpotent(4) + np.outer(corner.u, corner.v), jordan_corner(4, 1))
    s = dense_eigenvalues(jordan_nilpotent(4), corner)
    expected = np.array([1, 1j, -1, -1j])
    assert spectrum_match_distance(s.eigenvalues[0], expected) <= 1e-10
    assert np.isnan(s.residual[0]) and s.reason[0] == ""


def test_dense_companion_cube_roots():
    # the cyclic shift is the lower shift plus the rank-1 corner e_1 e_3^dag
    shift = np.diag(np.ones(2, dtype=complex), -1)
    [lams] = dense_eigenvalues(shift, RankOnePerturbation(_unit(3, 0), _unit(3, 2), 1.0)
                               ).eigenvalues
    expected = np.exp(2j * np.pi * np.arange(3) / 3)
    assert spectrum_match_distance(lams, expected) <= 1e-12


def test_match_distance_identical_and_permuted():
    rng = SeededRng(81, 0)
    x = rng.complex_normals(17)
    assert spectrum_match_distance(x, x) == 0.0
    perm = x[::-1].copy()
    assert spectrum_match_distance(x, perm) == 0.0


def test_match_distance_uniform_shift():
    rng = SeededRng(81, 1)
    x = rng.complex_normals(9)
    h = 0.25 - 0.125j
    assert spectrum_match_distance(x, x + h) == pytest.approx(abs(h), rel=1e-12)


def test_match_distance_rejects_length_mismatch():
    with pytest.raises(ShapeError):
        spectrum_match_distance(np.ones(3, dtype=complex), np.ones(4, dtype=complex))


# Structure kinds under test, each with its own fixed random stream.
_STRUCTURE_STREAMS = {"jordan": 0, "diagonal": 1, "three-cluster": 2, "near-cluster": 3}


# The structure of each kind under test: the three-cluster case has one
# cluster off the real axis, the near-cluster case two clusters 1e-3 apart
# and two off the real axis.
_STRUCTURES = {"jordan": "jordan", "diagonal": "diagonal(2,3)",
               "three-cluster": "diagonal(1,2,3j)",
               "near-cluster": "diagonal(1,1.001,5,7j,2+2j)"}


def _structure_case(kind):
    """Structure and fast route of each structure kind under test."""
    structure = StructureSpec.parse(_STRUCTURES[kind])
    return structure, auto_route(structure)


@pytest.mark.parametrize("kind", list(_STRUCTURE_STREAMS))
def test_oracle_equivalence_sample(kind):
    rng = np.random.default_rng(555)
    structure, route = _structure_case(kind)
    for trial in range(20):
        d = int(rng.integers(5, 51))
        p = rank1_perturbation(d, 2.0, SeededRng(83, trial))
        [fast] = solve(structure, d, p, route).eigenvalues
        [dense] = solve(structure, d, p, "dense-qr").eigenvalues
        scale = 1.0 + np.max(np.abs(dense))
        assert spectrum_match_distance(fast, dense) <= 1e-8 * scale


@pytest.mark.parametrize("kind", list(_STRUCTURE_STREAMS))
def test_trace_conservation(kind):
    d = 24
    structure, route = _structure_case(kind)
    base = structure.base_matrix(d)
    p = rank1_perturbation(d, 2.0, SeededRng(87, _STRUCTURE_STREAMS[kind]))
    [lams] = solve(structure, d, p, route).eigenvalues
    trace = np.trace(base) if base.ndim == 2 else np.sum(base)
    expected = trace + 2.0 * np.vdot(p.v, p.u) / (np.linalg.norm(p.u) * np.linalg.norm(p.v))
    assert np.sum(lams) == pytest.approx(expected, abs=1e-8 * d * (1 + abs(expected)))


def test_determinant_conservation_jordan():
    for d in (5, 12, 30):
        p = rank1_perturbation(d, 2.0, SeededRng(89, d))
        [lams] = poly_roots(charpoly_jordan_rank1(p)).eigenvalues
        q_last = np.conj(p.v[0]) * p.u[-1]
        expected = p.scale * abs(q_last)
        prod = np.abs(np.prod(lams))
        assert prod == pytest.approx(expected, rel=1e-6)


def test_zero_and_trivial_shift_never_eigenvalues():
    for trial in range(50):
        d = 20
        p = rank1_perturbation(d, 2.0, SeededRng(91, trial))
        [lams] = poly_roots(charpoly_jordan_rank1(p)).eigenvalues
        assert np.min(np.abs(lams)) > 1e-12
        [lams] = solve(StructureSpec.parse("toeplitz(3,2)"), d, p, "dense-qr").eigenvalues
        assert np.min(np.abs(lams - 3.0)) > 1e-12


def test_jordan_poly_beats_dense_qr_at_small_eps():
    # why jordan-poly is kept although dense QR is faster: at eps=1e-12 the
    # rounding of dense QR on J + E is as large as the perturbation itself
    mpmath = pytest.importorskip("mpmath")
    d = 48
    p = rank1_perturbation(d, 1e-12, SeededRng(0, 0))
    full = np.append(charpoly_jordan_rank1(p)[0], 1)
    with mpmath.workdps(60):
        desc = [mpmath.mpc(c.real, c.imag) for c in full[::-1]]
        ref = np.array([complex(r) for r in mpmath.polyroots(desc, maxsteps=200, extraprec=200)])
    jordan = StructureSpec("jordan")
    [fast], [dense] = (solve(jordan, d, p, route).eigenvalues
                       for route in ("jordan-poly", "dense-qr"))
    assert spectrum_match_distance(fast, ref) <= 1e-13
    assert spectrum_match_distance(dense, ref) >= 1e-10
