"""Eigenvalue computation for perturbed structured matrices.

Three routes:

* ``jordan-poly``: for a base ``a0 I + a1 J`` (``jordan``, ``p(z) = z``,
  and every degree-1 symbol), the eigenvalues ``a0 + a1 nu``, where ``nu``
  are the roots of the closed-form characteristic polynomial of
  ``J + E / a1``, found by Aberth-Ehrlich iteration from the Newton
  polygon's starting points (6 to 18 sweeps at every d from 64 to 512),
  certified with disjoint Weierstrass inclusion discs, one iteration per
  2^16 roots of a block of trials, in bounded memory,
* ``resolvent-aberth``: for a diagonal base, deflate repeated diagonal
  values exactly and take each trial's moved roots as the eigenvalues of
  one m x m matrix over the m distinct values; a block of trials shares
  one ``np.unique`` of the base, and its matrices are solved as stacks of
  at most 2^16 entries (about 4 ms for a block of 200 ``diagonal(2,3)``
  trials at d=512, one BLAS thread),
* ``dense-qr``: LAPACK's Hessenberg-QR eigensolver, the route for every
  other base and the cross-validation oracle; the only route that builds
  the dense d x d base, and the perturbed matrices in bounded stacks.

Each route checks a block of trials, one ``RankOnePerturbation`` of arrays,
once, and returns one :class:`Spectra` of arrays; a trial it cannot solve
is a row with a nonempty reason.  ``pseudoscope.experiments.auto_route``
picks a structure's route, and ``solve`` dispatches a block to it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ShapeError
from .linalg import as_complex_vector, jordan_quadratic_forms
from .sampling import RankOnePerturbation

__all__ = [
    "Spectra",
    "charpoly_jordan_rank1",
    "poly_roots",
    "eigen_resolvent_aberth",
    "dense_eigenvalues",
    "spectrum_match_distance",
]

_ANGLE_OFFSET = 0.37  # radians; breaks root symmetry in circular starts
# Most complex entries in one block of pairwise root differences, or in one
# stack of matrices (1 MB).
_BLOCK_ENTRIES = 2**16


class Spectra(NamedTuple):
    """A block of n solved trials: row k of ``eigenvalues`` (n, d) is trial
    k's eigenvalue multiset, ``residual[k]`` its certified error bound (NaN
    where the route certifies none) and ``reason[k]`` the empty string, or
    why the trial failed, in which case its row is not a spectrum."""

    eigenvalues: np.ndarray
    residual: np.ndarray
    reason: np.ndarray


def _uncertified(eigenvalues):
    """The block of rows ``eigenvalues``, all solved, none certified."""
    n = len(eigenvalues)
    return Spectra(eigenvalues, np.full(n, np.nan), np.full(n, "", dtype=object))


def charpoly_jordan_rank1(perts: RankOnePerturbation):
    """Characteristic polynomials of ``J + s u v^dag`` for each row of the
    block ``perts``, as the (n, d) stack of their ascending monic tails
    ``(c_0, ..., c_{d-1})``: row k's polynomial is
    ``lam^d + c_{d-1} lam^{d-1} + ... + c_0``.

    The determinant lemma against the nilpotent resolvent collapses the
    determinant to ``lam^d - s * sum_k q_k lam^{d-1-k}`` with
    ``q_k = v^dag J^k u``.
    """
    p = perts.checked()
    q = np.array([jordan_quadratic_forms(u, v) for u, v in zip(p.u, p.v)])
    return -p.scale[:, None] * q[:, ::-1]


def _quadratic_roots(b, c):
    """Roots of ``z^2 + b z + c`` with the cancellation-safe split."""
    disc = np.sqrt(b * b - 4.0 * c + 0j)
    if np.real(np.conj(b) * disc) > 0:
        disc = -disc
    q = -(b - disc) / 2.0
    if q == 0:
        return np.array([0.0 + 0j, -b])
    return np.array([q, c / q])


def _horner(coeffs, rows, x):
    """``polyval(x[e], coeffs[:, rows[e]])`` for each element e by numpy's
    Horner steps in numpy's order, so every value is bitwise ``polyval``'s."""
    acc = coeffs[-1].take(rows) + x * 0
    for c in coeffs[-2::-1]:
        acc = c.take(rows) + acc * x
    return acc


def _differences(x, rows, cols, z, own):
    """Yield ``(r, block, diff)`` for blocks of consecutive elements e of
    ``x`` in one row ``r = rows[e]`` (sorted): ``diff[k, j] = x[e] - z[r, j]``
    for the k-th, but ``own`` at its own column ``cols[e]``.  A block holds
    at most ``_BLOCK_ENTRIES`` entries (or one element)."""
    step = max(1, _BLOCK_ENTRIES // z.shape[1])
    segments, firsts = np.unique(rows, return_index=True)
    for r, first, last in zip(segments, firsts, [*firsts[1:], x.size]):
        for start in range(first, last, step):
            block = slice(start, min(start + step, last))
            diff = x[block, None] - z[r]
            diff[np.arange(diff.shape[0]), cols[block]] = own
            yield r, block, diff


def _aberth(full, z, tol=1e-13, max_sweeps=500):
    """Aberth-Ehrlich iteration on the monic polynomials ``full`` (m, n + 1),
    ascending, from the starts ``z`` (m, n), updated in place.  A sweep moves
    every unconverged root of every row from the previous sweep's roots, so
    no row depends on another; converged roots are frozen but stay in the
    repulsion sums.  Returns (z, conv, sweeps per row)."""
    m, n = z.shape
    # one Horner pass gives p' (numpy's coefficients k c_k) and p but for its
    # last step: pair[j] holds every row's c_{j+1}, then every (j+1) c_{j+1}
    pair = np.concatenate([full[:, 1:], full[:, 1:] * np.arange(1, n + 1)]).T.copy()
    centroid = -full[:, -2] / n
    conv = np.zeros((m, n), dtype=bool)
    sweeps = np.zeros(m, dtype=int)
    for _ in range(max_sweeps):
        rows, cols = np.nonzero(~conv)
        if rows.size == 0:
            break
        sweeps[np.unique(rows)] += 1
        za = z[rows, cols]
        with np.errstate(all="ignore"):
            both = _horner(pair, np.concatenate([rows, rows + m]), np.concatenate([za, za]))
            pv = full[:, 0].take(rows) + both[: za.size] * za
            dv = both[za.size :]
            ok = np.isfinite(pv) & np.isfinite(dv) & (dv != 0)
            newton = np.where(ok, pv / np.where(dv == 0, 1.0, dv), 0.0)
            ok &= (newton != 0) | (pv == 0)  # a zero quotient of p != 0 overflowed
            rep = np.concatenate([np.sum(np.divide(1.0, diff, out=diff), axis=1)
                                  for _, _, diff in _differences(za, rows, cols, z, np.inf)])
            denom = 1.0 - newton * rep
            w = np.where(denom != 0, newton / np.where(denom == 0, 1.0, denom), newton)
        znew = za - w
        # stranded iterate (overflowed evaluation or critical point):
        # contract toward the root centroid with a symmetry-breaking nudge
        bad = ~np.isfinite(znew) | ~ok
        if np.any(bad):
            c, nudge = centroid[rows[bad]], 1e-3 * (1.0 + np.abs(za[bad]))
            znew[bad] = c + 0.7 * (za[bad] - c) + nudge * np.exp(1j * _ANGLE_OFFSET)
        z[rows, cols] = znew
        step = np.abs(znew - za)
        conv[rows, cols] |= (step <= tol * (1.0 + np.abs(znew))) & ~bad
    return z, conv, sweeps


def _newton_polygon_starts(full):
    """Aberth starting points from the Newton polygon of ``full`` (ascending,
    monic, nonzero constant term; Bini & Robol 2014).

    For each edge (i, j) of the upper convex hull of (k, log|c_k|) over the
    nonzero coefficients, j - i points go evenly spaced on the circle of
    radius (|c_i| / |c_j|)^(1/(j-i)).  The hull slopes fall strictly, so
    the circles are distinct and no two points coincide.
    """
    k = np.flatnonzero(full)
    logs = np.log(np.abs(full[k]))
    hull = []
    for a in range(k.size):
        # pop the last vertex while it lies on or below the chord to a
        while len(hull) >= 2:
            b, c = hull[-2], hull[-1]
            if (logs[c] - logs[b]) * (k[a] - k[b]) > (logs[a] - logs[b]) * (k[c] - k[b]):
                break
            hull.pop()
        hull.append(a)
    starts = []
    for b, c in zip(hull[:-1], hull[1:]):
        n = k[c] - k[b]
        radius = np.exp((logs[b] - logs[c]) / n)
        # the offset turns with the edge so that no two circles line up
        angles = 2.0 * np.pi * (np.arange(n) / n + k[b] / k[-1]) + _ANGLE_OFFSET
        starts.append(radius * np.exp(1j * angles))
    return np.concatenate(starts)


def _certify(full, roots):
    """Each row's largest Weierstrass inclusion radius of the approximate
    roots ``roots`` (m, n) of the monic ``full`` (m, n + 1), and its reason:
    empty, or the first pair of discs that overlap, since then a root may
    be duplicated or missed (Braess & Hadeler 1973; Carstensen 1991).

    ``r_i = n (|p(z_i)| + e_i) / prod_{j != i} |z_i - z_j|``, where
    ``e_i = 2 n u sum_k |c_k| |z_i|^k`` bounds the rounding of Horner's
    evaluation.  The union of the discs holds every root, and a connected
    component of m discs holds exactly m of them, so disjoint discs hold
    one root each.  The product is summed as logs so it cannot overflow.
    """
    m, n = roots.shape
    rows, cols = np.divmod(np.arange(m * n), n)
    x, coeffs = roots.reshape(-1), full.T.copy()
    scale = _horner(np.abs(coeffs), rows, np.abs(x))
    bound = np.abs(_horner(coeffs, rows, x)) + 2.0 * n * (np.finfo(float).eps / 2.0) * scale
    logs = np.empty(x.size)
    with np.errstate(divide="ignore", over="ignore"):  # coincident roots: infinite radii
        for _, block, diff in _differences(x, rows, cols, roots, 1.0):
            logs[block] = np.log(np.abs(diff)).sum(axis=1)
        radii = np.exp(np.log(n * bound) - logs).reshape(m, n)
    reason = np.full(m, "", dtype=object)
    # the blocks run in row-major order: a row reports its first overlap;
    # a root's own column is nan, which never overlaps, even at infinite radii
    for r, block, diff in _differences(x, rows, cols, roots, np.nan):
        dist = np.abs(diff)
        overlap = dist <= radii[r, cols[block], None] + radii[r]
        if np.any(overlap) and not reason[r]:
            k, j = np.unravel_index(int(np.argmax(overlap)), overlap.shape)
            i = cols[block][k]
            reason[r] = (f"inclusion discs of roots {i} and {j} overlap (radii {radii[r, i]:.3e}"
                         f" and {radii[r, j]:.3e}, distance {dist[k, j]:.3e})")
    return radii.max(axis=1), reason


def poly_roots(tails, max_sweeps=500):
    """All roots of each monic polynomial in the stack ``tails`` (m, d) of
    ascending tails ``(c_0, ..., c_{d-1})``, each certified by an inclusion
    disc, as one :class:`Spectra` of m rows.

    One Aberth-Ehrlich iteration from the Newton polygon's starting points
    solves at most ``_BLOCK_ENTRIES`` roots (or one row) at a time, and
    pairwise root differences are taken in blocks of at most as many
    entries, so memory stays bounded at any m and no temporary is d x d.
    Each row's roots and residual are bitwise those of the row solved
    alone.  Rows with k vanishing trailing coefficients have k exact zero
    roots, split off first; degrees 1 and 2 of the rest use closed forms.
    The residual is the largest Weierstrass inclusion radius: each disc
    holds exactly one root.  A row fails when a root does not converge
    (its residual is NaN and its roots the last iterate) or when two discs
    overlap.
    """
    stack = np.asarray(tails, dtype=np.complex128)
    if stack.ndim != 2:
        raise ShapeError(f"polynomial tails must be a 2-D stack, got shape {stack.shape}")
    as_complex_vector(stack.reshape(-1), name="polynomial coefficients")
    m, d = stack.shape
    out = Spectra(np.zeros((m, d), dtype=np.complex128), np.zeros(m),
                  np.full(m, "", dtype=object))
    rows_per_solve = max(1, _BLOCK_ENTRIES // d)
    for start in range(0, m, rows_per_solve):
        rows = slice(start, start + rows_per_solve)
        _solve_rows(stack[rows], max_sweeps, Spectra(*(a[rows] for a in out)))
    return out


def _solve_rows(stack, max_sweeps, out):
    """:func:`poly_roots` of one solve's rows, written into the views
    ``out``, whose rows of only zero roots are already solved."""
    m, d = stack.shape
    full = np.concatenate([stack, np.ones((m, 1))], axis=1)
    zero_counts = np.argmax(full != 0, axis=1)
    for k in np.unique(zero_counts[zero_counts < d]):
        rows = np.flatnonzero(zero_counts == k)
        group, n = full[rows, k:], d - k
        if n <= 2:  # closed forms
            roots = (-group[:, :1] if n == 1
                     else np.stack([_quadratic_roots(c[1], c[0]) for c in group]))
            conv = np.ones(roots.shape, dtype=bool)
        else:
            starts = np.stack([_newton_polygon_starts(c) for c in group])
            roots, conv, _ = _aberth(group, starts, max_sweeps=max_sweeps)
        out.eigenvalues[rows, k:] = roots
        done = conv.all(axis=1)
        out.residual[rows[~done]] = np.nan
        out.reason[rows[~done]] = [f"{int((~c).sum())} of {d} roots did not converge"
                                   for c in conv[~done]]
        out.residual[rows[done]], out.reason[rows[done]] = _certify(group[done], roots[done])


def stacked_eigvals(count, size, build):
    """Eigenvalues ``(count, size)`` of ``count`` matrices of order ``size``,
    where ``build(rows)`` gives the matrices of the slice ``rows``.  At most
    ``_BLOCK_ENTRIES`` entries (or one matrix) are built at a time, so the
    stack stays bounded at any count; each matrix is still one LAPACK call,
    so every row is bitwise that matrix's own eigenvalues."""
    step = max(1, _BLOCK_ENTRIES // (size * size))
    out = np.empty((count, size), dtype=np.complex128)
    for start in range(0, count, step):
        rows = slice(start, min(start + step, count))
        out[rows] = np.linalg.eigvals(build(rows))
    return out


def eigen_resolvent_aberth(diag, perts):
    """All eigenvalues of ``D + s u v^dag`` for the diagonal ``D`` with
    entries ``diag`` and each row of the block ``perts``, by exact deflation
    and one small dense eigenproblem per row: one :class:`Spectra` row per
    perturbation, in order, whose residual is NaN (LAPACK certifies none).

    A rank-1 update moves exactly one eigenvalue out of each repeated
    eigenspace, so a value of multiplicity n_c keeps n_c - 1 exact copies.
    The m moved roots are the eigenvalues of the m x m matrix
    ``diag(gamma) + s w 1^T`` over the distinct values ``gamma_c``, with
    cluster weights ``w_c = sum_{k in c} conj(v_k) u_k`` (Golub, SIAM Rev.
    1973): its characteristic function is the secular factor
    ``1 - s sum_c w_c / (lam - gamma_c)`` times ``prod_c (lam - gamma_c)``.
    The distinct values are taken once for the block, and the weights of
    every row in one ``np.add.at``.  The block's m x m matrices are solved
    as stacks by :func:`stacked_eigvals`, so each spectrum is bitwise that
    of its perturbation solved alone.  A 2-D base or a block of another
    dimension raises :class:`ShapeError`; a 2-D base's spectrum is the
    ``dense-qr`` route's.
    """
    diag = as_complex_vector(diag, name="diagonal")
    p = perts.checked(diag.size)
    values, inverse, counts = np.unique(diag, return_inverse=True, return_counts=True)
    n, m = p.scale.size, values.size
    weights = np.zeros((n, m), dtype=np.complex128)
    np.add.at(weights, (np.arange(n)[:, None], inverse), np.conj(p.v) * p.u)
    # one trial's diag(values) + s * outer(w, ones), operation for operation
    base, ones = np.diag(values), np.ones(m)
    moved = stacked_eigvals(n, m, lambda rows: base + p.scale[rows, None, None]
                            * (weights[rows, :, None] * ones))
    eigenvalues = np.empty((n, diag.size), dtype=np.complex128)
    eigenvalues[:, :m] = moved
    eigenvalues[:, m:] = np.repeat(values, counts - 1)
    return _uncertified(eigenvalues)


def dense_eigenvalues(base, perts):
    """All eigenvalues of ``base`` (d x d, or a 1-D diagonal) plus each row
    of the block ``perts`` via the Hessenberg-QR route (LAPACK): one
    :class:`Spectra` row per perturbation, whose residual is NaN (LAPACK
    certifies none).  The matrices ``base + s u v^dag`` are built and solved
    as stacks by :func:`stacked_eigvals`, so each row is bitwise that of
    its matrix solved alone."""
    base = np.asarray(base, dtype=np.complex128)
    base = np.diag(base) if base.ndim == 1 else base
    if base.ndim != 2 or base.shape[0] != base.shape[1]:
        raise ShapeError(f"base must be square or a 1-D diagonal, got shape {base.shape}")
    p = perts.checked(base.shape[0])

    def build(rows):
        out = p.u[rows, :, None] * np.conj(p.v[rows, None, :])
        out *= p.scale[rows, None, None]
        out += base
        return out

    return _uncertified(stacked_eigvals(p.scale.size, base.shape[0], build))


def spectrum_match_distance(a, b):
    """Largest distance between matched eigenvalues of two multisets, the
    vectors ``a`` and ``b``, under the matching of least total distance
    (``linear_sum_assignment``)."""
    # imported here: scipy.optimize adds about 0.2 s to every CLI start-up,
    # and only oracle checks match spectra
    from scipy.optimize import linear_sum_assignment

    x = as_complex_vector(a, name="spectrum")
    y = as_complex_vector(b, name="spectrum")
    if x.size != y.size:
        raise ShapeError(f"spectra have different sizes {x.size} and {y.size}")
    cost = np.abs(x[:, None] - y[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols]))
