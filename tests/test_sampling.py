import numpy as np
import pytest
from scipy import special

from pseudoscope import (
    RankOnePerturbation,
    SeededRng,
    ShapeError,
    StructureSpec,
    charpoly_jordan_rank1,
    dense_eigenvalues,
    eigen_resolvent_aberth,
    rank1_perturbation,
)
from pseudoscope.experiments import solve

from closed_forms import stack


def _dense(p):
    """The dense perturbation ``scale u v^dag`` of one draw."""
    return p.scale * np.outer(p.u, np.conj(p.v))


def _norms(p):
    return np.linalg.norm(p.u) * np.linalg.norm(p.v)


def test_same_stream_is_bit_identical():
    a = SeededRng(99, 5).complex_normals(64)
    b = SeededRng(99, 5).complex_normals(64)
    assert np.array_equal(a, b)


def test_sequential_draws_differ():
    rng = SeededRng(99, 5)
    a = rng.complex_normals(16)
    b = rng.complex_normals(16)
    assert not np.array_equal(a, b)


def test_distinct_streams_differ_and_decorrelate():
    n = 100_000
    a = SeededRng(3, 0).complex_normals(n).real
    b = SeededRng(3, 1).complex_normals(n).real
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) <= 4.0 / np.sqrt(n)


def test_entry_mean_is_small():
    xs = SeededRng(17, 0).complex_normals(1_000_000)
    assert abs(xs.mean()) <= 0.005


def test_norm_squared_mean():
    d, n = 100, 100_000
    rng = SeededRng(23, 0)
    total = 0.0
    for _ in range(5):
        block = rng.complex_normals(d * (n // 5)).reshape(-1, d)
        total += float(np.sum(np.abs(block) ** 2))
    assert total / n == pytest.approx(d, abs=0.5)


def test_real_part_variance_convention():
    xs = SeededRng(29, 0).complex_normals(1_000_000)
    assert np.var(xs.real) == pytest.approx(0.5, abs=0.01)
    assert np.var(xs.imag) == pytest.approx(0.5, abs=0.01)


def test_norm_squared_matches_gamma_law():
    # oracle: regularized incomplete gamma for a sum of d unit exponentials
    d, n = 100, 100_000
    rng = SeededRng(31, 0)
    norms = np.empty(n)
    done = 0
    while done < n:
        b = min(20_000, n - done)
        block = rng.complex_normals(b * d).reshape(b, d)
        norms[done : done + b] = np.sum(np.abs(block) ** 2, axis=1)
        done += b
    norms.sort()
    cdf = special.gammainc(d, norms)
    i = np.arange(1, n + 1)
    ks = max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n))
    assert ks <= 1.95 / np.sqrt(n)


def test_rank1_norm_is_eps():
    worst = 0.0
    for i in range(1000):
        p = rank1_perturbation(50, 2.5, SeededRng(41, i))
        worst = max(worst, abs(np.linalg.norm(_dense(p), 2) - 2.5))
    assert worst <= 2.5e-9


def test_rank1_eigenvalue_identity():
    p = rank1_perturbation(40, 2.0, SeededRng(43, 0))
    lams = np.linalg.eigvals(_dense(p))
    nonzero = lams[np.argmax(np.abs(lams))]
    expected = 2.0 * np.vdot(p.v, p.u) / _norms(p)
    assert nonzero == pytest.approx(expected, abs=1e-10)


def test_rank1_eigenvalue_variance_clt():
    d, n, eps = 100, 10_000, 2.0
    vals = np.empty(n, dtype=complex)
    for i in range(n):
        p = rank1_perturbation(d, eps, SeededRng(47, i))
        vals[i] = eps * np.vdot(p.v, p.u) / _norms(p)
    var = np.var(vals)
    assert abs(var - eps**2 / d) <= 0.1 * eps**2 / d


class _ZeroFirst:
    """A stream whose first ``zeros`` draws are all-zero vectors, then those
    of ``SeededRng(seed)``."""

    def __init__(self, zeros, seed=53):
        self.zeros, self.rng = zeros, SeededRng(seed)

    def complex_normals(self, n):
        self.zeros -= 1
        return np.zeros(n, dtype=complex) if self.zeros >= 0 else self.rng.complex_normals(n)


def test_rank1_resamples_a_zero_draw_once():
    # a zero u discards both draws of the pair; the next pair is used
    p = rank1_perturbation(8, 2.0, _ZeroFirst(1))
    rng = SeededRng(53)
    rng.complex_normals(8)  # the v drawn with the zero u
    assert np.array_equal(p.u, rng.complex_normals(8))
    assert np.array_equal(p.v, rng.complex_normals(8))
    for zeros in (3, 4):  # both pairs hold a zero vector
        with pytest.raises(ShapeError, match="zero-norm vector twice"):
            rank1_perturbation(8, 2.0, _ZeroFirst(zeros))


def test_rank1_takes_each_norm_once(monkeypatch):
    norm, calls = np.linalg.norm, []
    monkeypatch.setattr(np.linalg, "norm", lambda x, *a, **k: calls.append(1) or norm(x, *a, **k))
    p = rank1_perturbation(16, 2.0, SeededRng(59, 0))
    assert len(calls) == 2
    assert p.scale == 2.0 / (norm(p.u) * norm(p.v))


def test_rank1_draw_is_one_trial():
    # a draw is 1-D u and v and a float scale; a route reads it as a block
    # of one row, and a stacked block row by row
    p = rank1_perturbation(6, 2.0, SeededRng(61, 0))
    assert p.u.shape == p.v.shape == (6,) and isinstance(p.scale, float)
    block = p.checked()
    assert block.u.shape == block.v.shape == (1, 6) and block.scale.shape == (1,)
    draws = [p, rank1_perturbation(6, 2.0, SeededRng(61, 1))]
    stacked = stack(draws).checked(6)
    assert stacked.u.shape == (2, 6) and stacked.scale.tolist() == [q.scale for q in draws]


@pytest.mark.parametrize("eps", [0.0, -1.0, np.inf, np.nan])
def test_rank1_rejects_eps_that_is_not_finite_and_positive(eps):
    with pytest.raises(ShapeError, match="eps must be finite and positive"):
        rank1_perturbation(4, eps, SeededRng(61, 0))


_DIAGONAL = StructureSpec.parse("diagonal(2,3)").diagonal_entries(8)
# Each route as a function of a block of dimension 8.
_ROUTES = {"jordan-poly": charpoly_jordan_rank1,
           "resolvent-aberth": lambda perts: eigen_resolvent_aberth(_DIAGONAL, perts),
           "dense-qr": lambda perts: dense_eigenvalues(_DIAGONAL, perts)}


def _bad_block(defect):
    """A block of two rows of dimension 8 with the defect ``defect``."""
    u, v = (SeededRng(63, k).complex_normals(16).reshape(2, 8) for k in (0, 1))
    scale = np.array([0.5, 0.25])
    if defect == "non-finite u":
        u[1, 3] = np.nan
    elif defect == "non-finite scale":
        scale[1] = np.inf
    elif defect == "zero v":
        v[0] = 0
    elif defect == "shapes":
        v = v[:, 1:]
    elif defect == "scale rows":
        scale = scale[:1]
    return RankOnePerturbation(u, v, scale)


@pytest.mark.parametrize("defect, message", [
    ("non-finite u", "non-finite"), ("non-finite scale", "non-finite"), ("zero v", "positive norm"),
    ("shapes", "of one shape"), ("scale rows", "of one shape")])
@pytest.mark.parametrize("route", list(_ROUTES))
def test_every_route_checks_its_block(route, defect, message):
    # a route refuses a block unless u and v are finite, of one shape and
    # without a zero row, and scale is finite with one entry per row
    block = _bad_block(defect)
    with pytest.raises(ShapeError, match=message):
        _ROUTES[route](block)


@pytest.mark.parametrize("structure, route", [("toeplitz(3,2)", "jordan-poly"),
                                              ("diagonal(1,2,3j)", "resolvent-aberth"),
                                              ("toeplitz(3,2,1)", "dense-qr")])
def test_block_eigenvalue_sums_are_the_perturbed_trace(structure, route):
    # the eigenvalues of T + s u v^dag sum to tr T + s v^dag u, on each row
    # of a block, within 64 d u max(1, |lam|)^2 (u the unit roundoff)
    d, spec = 48, StructureSpec.parse(structure)
    base = spec.base_matrix(d)
    trace = np.sum(base) if base.ndim == 1 else np.trace(base)
    draws = [rank1_perturbation(d, 2.0, SeededRng(65, t)) for t in range(5)]
    s = solve(spec, d, stack(draws), route)
    assert s.reason.tolist() == [""] * len(draws)
    for p, lams in zip(draws, s.eigenvalues):
        bound = 64 * d * (np.finfo(float).eps / 2) * max(1.0, np.abs(lams).max()) ** 2
        assert abs(np.sum(lams) - (trace + p.scale * np.vdot(p.v, p.u))) <= bound
