"""Eigenvalue computation for perturbed structured matrices.

Three routes:

* ``jordan-poly``: for a base ``a0 I + a1 J`` (``jordan``, ``p(z) = z``,
  and every degree-1 symbol), the eigenvalues ``a0 + a1 nu``, where ``nu``
  are the roots of the closed-form characteristic polynomial of
  ``J + E / a1``, found by Aberth-Ehrlich iteration from the Newton
  polygon's starting points (6 to 18 sweeps at every d from 64 to 512)
  and certified with disjoint Weierstrass inclusion discs,
* ``resolvent-aberth``: for a diagonal base, deflate repeated diagonal
  values exactly and take the moved roots as the eigenvalues of one
  m x m matrix over the m distinct values (about 0.1 ms per trial for
  ``diagonal(2,3)`` at d=512, one BLAS thread),
* ``dense-qr``: LAPACK's Hessenberg-QR eigensolver, the route for every
  other base and the cross-validation oracle.

``pseudoscope.experiments.auto_route`` picks a structure's route, and
``solve`` dispatches to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ShapeError
from .linalg import as_complex_matrix, as_complex_vector, jordan_quadratic_forms
from .sampling import RankOnePerturbation

__all__ = [
    "Spectrum",
    "charpoly_jordan_rank1",
    "poly_roots",
    "eigen_resolvent_aberth",
    "dense_eigenvalues",
    "spectrum_match_distance",
]

_ANGLE_OFFSET = 0.37  # radians; breaks root symmetry in circular starts


@dataclass
class Spectrum:
    """Eigenvalue multiset of one perturbed matrix and the route's residual."""

    eigenvalues: np.ndarray
    residual: float

    def __post_init__(self):
        self.eigenvalues = as_complex_vector(self.eigenvalues, name="eigenvalues")
        self.residual = float(self.residual)


def charpoly_jordan_rank1(p: RankOnePerturbation, scale=None):
    """Characteristic polynomial of ``J + s u v^dag``, with ``s`` the given
    ``scale`` or by default ``p.scale = eps / (|u| |v|)``, as its ascending
    monic tail ``(c_0, ..., c_{d-1})``: the polynomial is
    ``lam^d + c_{d-1} lam^{d-1} + ... + c_0``.

    The determinant lemma against the nilpotent resolvent collapses the
    determinant to ``lam^d - s * sum_k q_k lam^{d-1-k}`` with
    ``q_k = v^dag J^k u``.
    """
    q = jordan_quadratic_forms(p.u, p.v)
    return -(p.scale if scale is None else scale) * q[::-1]


def _quadratic_roots(b, c):
    """Roots of ``z^2 + b z + c`` with the cancellation-safe split."""
    disc = np.sqrt(b * b - 4.0 * c + 0j)
    if np.real(np.conj(b) * disc) > 0:
        disc = -disc
    q = -(b - disc) / 2.0
    if q == 0:
        return np.array([0.0 + 0j, -b])
    return np.array([q, c / q])


def _aberth_polynomial(full, z0, tol=1e-13, max_sweeps=500):
    """Simultaneous root iteration for an explicit monic polynomial.

    Converged roots are frozen but stay in the mutual-repulsion sums;
    sweeps only touch the active set.  Returns (roots, converged, sweeps).
    """
    d = full.size - 1
    dfull = full[1:] * np.arange(1, d + 1)
    centroid = -full[-2] / d
    z = z0.copy()
    conv = np.zeros(d, dtype=bool)
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        act = np.flatnonzero(~conv)
        if act.size == 0:
            break
        za = z[act]
        with np.errstate(all="ignore"):
            pv = np.polynomial.polynomial.polyval(za, full)
            dv = np.polynomial.polynomial.polyval(za, dfull)
            ok = np.isfinite(pv) & np.isfinite(dv) & (dv != 0)
            newton = np.where(ok, pv / np.where(dv == 0, 1.0, dv), 0.0)
            diff = za[:, None] - z[None, :]
            diff[np.arange(act.size), act] = np.inf
            rep = np.sum(1.0 / diff, axis=1)
            denom = 1.0 - newton * rep
            w = np.where(denom != 0, newton / np.where(denom == 0, 1.0, denom), newton)
        znew = za - w
        # stranded iterate (overflowed evaluation or critical point):
        # contract toward the root centroid with a symmetry-breaking nudge
        bad = ~np.isfinite(znew) | ~ok
        if np.any(bad):
            znew[bad] = (
                centroid
                + 0.7 * (za[bad] - centroid)
                + 1e-3 * (1.0 + np.abs(za[bad])) * np.exp(1j * _ANGLE_OFFSET)
            )
        z[act] = znew
        step = np.abs(znew - za)
        conv[act] |= (step <= tol * (1.0 + np.abs(znew))) & ~bad
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


def _certificate_radius(full, roots):
    """Largest Weierstrass inclusion radius of approximate roots of the
    monic ``full`` (Braess & Hadeler 1973; Carstensen 1991).

    ``r_i = d (|p(z_i)| + e_i) / prod_{j != i} |z_i - z_j|``, where
    ``e_i = 2 d u sum_k |c_k| |z_i|^k`` bounds the rounding of Horner's
    evaluation.  The union of the discs holds every root, and a connected
    component of m discs holds exactly m of them, so disjoint discs hold
    one root each.  The product is summed as logs so it cannot overflow.
    Two discs that overlap raise :class:`ConvergenceError`, since then a
    root may be duplicated or missed.
    """
    d = roots.size
    horner = np.abs(np.polynomial.polynomial.polyval(roots, full))
    scale = np.polynomial.polynomial.polyval(np.abs(roots), np.abs(full))
    bound = horner + 2.0 * d * (np.finfo(float).eps / 2.0) * scale
    dist = np.abs(roots[:, None] - roots[None, :])
    np.fill_diagonal(dist, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        radii = np.exp(np.log(d * bound) - np.log(dist).sum(axis=1))
    np.fill_diagonal(dist, np.inf)
    overlap = dist <= radii[:, None] + radii[None, :]
    if np.any(overlap):
        i, j = np.unravel_index(int(np.argmax(overlap)), overlap.shape)
        raise ConvergenceError(
            f"inclusion discs of roots {i} and {j} overlap "
            f"(radii {radii[i]:.3e} and {radii[j]:.3e}, distance {dist[i, j]:.3e})",
            roots=roots,
            radii=radii,
        )
    return float(np.max(radii))


def poly_roots(tail, max_sweeps=500) -> Spectrum:
    """All roots of the monic polynomial with the ascending tail
    ``(c_0, ..., c_{d-1})``, each certified by an inclusion disc.

    Vanishing trailing coefficients ``c_0 = .. = c_{m-1} = 0`` give m exact
    zero roots, which are split off first.  Of the rest, degrees 1 and 2
    use closed forms; higher degrees run Aberth-Ehrlich from the Newton
    polygon's starting points.  The residual is the largest Weierstrass
    inclusion radius of the computed roots: each disc holds exactly one
    root.  A :class:`ConvergenceError` reports roots that did not converge
    or discs that overlap.
    """
    tail = as_complex_vector(tail, name="polynomial coefficients")
    d = tail.size
    full = np.append(tail, 1.0 + 0j)
    m = int(np.argmax(full != 0))
    full = full[m:]
    zeros = np.zeros(m, dtype=np.complex128)
    if m == d:
        return Spectrum(zeros, 0.0)
    if full.size == 2:
        roots = np.array([-full[0]])
    elif full.size == 3:
        roots = _quadratic_roots(full[1], full[0])
    else:
        roots, conv, _ = _aberth_polynomial(
            full, _newton_polygon_starts(full), max_sweeps=max_sweeps
        )
        if not conv.all():
            raise ConvergenceError(
                f"{int((~conv).sum())} of {d} roots did not converge",
                converged=np.concatenate([np.ones(m, dtype=bool), conv]),
                roots=np.concatenate([zeros, roots]),
            )
    radius = _certificate_radius(full, roots)
    return Spectrum(np.concatenate([zeros, roots]), radius)


def eigen_resolvent_aberth(diag, p: RankOnePerturbation) -> Spectrum:
    """All eigenvalues of ``D + eps u v^dag / (|u| |v|)`` for the diagonal
    ``D`` with entries ``diag``, by exact deflation and one small dense
    eigenproblem.

    A rank-1 update moves exactly one eigenvalue out of each repeated
    eigenspace, so a value of multiplicity n_c keeps n_c - 1 exact copies.
    The m moved roots are the eigenvalues of the m x m matrix
    ``diag(gamma) + s w 1^T`` over the distinct values ``gamma_c``, with
    cluster weights ``w_c = sum_{k in c} conj(v_k) u_k`` (Golub, SIAM Rev.
    1973): its characteristic function is the secular factor
    ``1 - s sum_c w_c / (lam - gamma_c)`` times ``prod_c (lam - gamma_c)``.
    A 2-D base raises :class:`ShapeError`; its spectrum is the
    ``dense-qr`` route's.
    """
    diag = as_complex_vector(diag, dim=p.dim, name="diagonal")
    values, inverse, counts = np.unique(diag, return_inverse=True, return_counts=True)
    m = values.size
    weights = np.zeros(m, dtype=np.complex128)
    np.add.at(weights, inverse, np.conj(p.v) * p.u)
    moved = np.linalg.eigvals(np.diag(values) + p.scale * np.outer(weights, np.ones(m)))
    roots = np.concatenate([moved, np.repeat(values, counts - 1)])
    return Spectrum(roots, 0.0)


def dense_eigenvalues(a) -> Spectrum:
    """All eigenvalues via the dense Hessenberg-QR route (LAPACK); the
    residual is reported as 0."""
    return Spectrum(np.linalg.eigvals(as_complex_matrix(a)), 0.0)


def _as_eigenvalue_array(s):
    if isinstance(s, Spectrum):
        return s.eigenvalues
    return as_complex_vector(s, name="spectrum")


def spectrum_match_distance(a, b):
    """Largest distance between matched eigenvalues of two multisets, under
    the matching of least total distance (``linear_sum_assignment``)."""
    # imported here: scipy.optimize adds about 0.2 s to every CLI start-up,
    # and only oracle checks match spectra
    from scipy.optimize import linear_sum_assignment

    x = _as_eigenvalue_array(a)
    y = _as_eigenvalue_array(b)
    if x.size != y.size:
        raise ShapeError(f"spectra have different sizes {x.size} and {y.size}")
    cost = np.abs(x[:, None] - y[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols]))
