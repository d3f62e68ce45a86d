import numpy as np
import pytest
from scipy import special

from pseudoscope import (
    SeededRng,
    ShapeError,
    apply_perturbation,
    rank1_perturbation,
)

from closed_forms import jordan_nilpotent


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
        worst = max(worst, abs(np.linalg.norm(p.materialize(), 2) - 2.5))
    assert worst <= 2.5e-9


def test_rank1_eigenvalue_identity():
    p = rank1_perturbation(40, 2.0, SeededRng(43, 0))
    lams = np.linalg.eigvals(p.materialize())
    nonzero = lams[np.argmax(np.abs(lams))]
    expected = 2.0 * np.vdot(p.v, p.u) / (p.norm_u * p.norm_v)
    assert nonzero == pytest.approx(expected, abs=1e-10)


def test_rank1_eigenvalue_variance_clt():
    d, n, eps = 100, 10_000, 2.0
    vals = np.empty(n, dtype=complex)
    for i in range(n):
        p = rank1_perturbation(d, eps, SeededRng(47, i))
        vals[i] = eps * np.vdot(p.v, p.u) / (p.norm_u * p.norm_v)
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
    assert (p.norm_u, p.norm_v) == (norm(p.u), norm(p.v))


def test_apply_perturbation_point_mass():
    p = rank1_perturbation(3, 2.0, SeededRng(61, 0))
    p.u[:] = [1, 0, 0]
    p.v[:] = [1, 0, 0]
    p.norm_u = p.norm_v = 1.0
    a = apply_perturbation(np.zeros((3, 3), dtype=complex), p)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 0] = 2.0
    assert np.allclose(a, expected)
    # a 1-D base is the diagonal of the dense base
    base = np.array([1.0, 2.0, 3j])
    assert np.array_equal(apply_perturbation(base, p), np.diag(base) + p.materialize())


def test_apply_perturbation_is_rank_one_update():
    t = jordan_nilpotent(25)
    p = rank1_perturbation(25, 2.0, SeededRng(61, 1))
    diff = apply_perturbation(t, p) - t
    s = np.linalg.svd(diff, compute_uv=False)
    assert s[1] <= 1e-9 * 2.0


def test_apply_perturbation_trace_shift():
    t = jordan_nilpotent(12)
    p = rank1_perturbation(12, 1.3, SeededRng(61, 2))
    a = apply_perturbation(t, p)
    expected = 1.3 * np.vdot(p.v, p.u) / (p.norm_u * p.norm_v)
    assert np.trace(a) == pytest.approx(expected, abs=1e-12)
