"""Concentration regions, symbol-curve geometry, and closed-form corner
spectra.

All membership tests use strict inequalities, so boundary points do not
count as members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .linalg import PolySymbol, as_complex_vector
from .spectra import MonicPolynomial, poly_roots

__all__ = [
    "DiskUnion",
    "Annulus",
    "SymbolBand",
    "ExclusionSet",
    "RootSeparationStats",
    "separation_radius",
    "critical_values",
    "symbol_preimages",
    "root_separation_stats",
    "corner_eigenvalues",
    "two_block_eigenvalues",
    "annulus_prob_limit",
    "symbol_image_curve",
]


def separation_radius(centers):
    """Half the minimum pairwise distance between centers.

    A single center yields the +inf sentinel; duplicate centers yield 0 and
    the caller decides how to proceed.
    """
    c = as_complex_vector(centers, name="centers")
    if c.size == 1:
        return math.inf
    d = np.abs(c[:, None] - c[None, :])
    np.fill_diagonal(d, np.inf)
    return float(np.min(d)) / 2.0


class _Region:
    """Shared membership API of the concentration regions.

    Each region implements ``classify(lams) -> (deviation, outward,
    inside)``: the two-sided distance to its reference set, the outward
    excess beyond it (clipped at zero) and strict membership, all from
    one pass over the values.
    """

    def deviation(self, lams):
        return self.classify(lams)[0]

    def contains_many(self, lams):
        return self.classify(lams)[2]

    def contains(self, lam):
        return bool(self.contains_many(lam)[0])


@dataclass(frozen=True)
class DiskUnion(_Region):
    """Union of open disks of a common radius around the given centers.

    Construction enforces disjointness: the radius may not exceed half the
    minimum center separation.
    """

    centers: np.ndarray
    radius: float

    def __post_init__(self):
        c = as_complex_vector(self.centers, name="centers")
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0:
            raise ShapeError("disk radius must be positive")
        if self.radius > separation_radius(c):
            raise ShapeError(
                f"radius {self.radius} exceeds the separation radius "
                f"{separation_radius(c)}; disks would intersect"
            )

    def classify(self, lams):
        """The deviation is the distance to the nearest center, which is
        already one-sided, so it doubles as the outward excess."""
        lams = np.atleast_1d(np.asarray(lams, dtype=np.complex128))
        dist = np.min(np.abs(lams[:, None] - self.centers[None, :]), axis=1)
        return dist, dist, dist < self.radius


@dataclass(frozen=True)
class Annulus(_Region):
    """Open annulus ``inner < |lam - center| < outer``.

    ``ref`` is the radius of the reference circle used for deviation
    measurements; it defaults to the midpoint and is kept separately so a
    clamped inner radius does not shift it.
    """

    center: complex
    inner: float
    outer: float
    ref: float = None

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "inner", float(self.inner))
        object.__setattr__(self, "outer", float(self.outer))
        if not 0 <= self.inner < self.outer:
            raise ShapeError("annulus needs 0 <= inner < outer")
        if self.ref is None:
            object.__setattr__(self, "ref", (self.inner + self.outer) / 2.0)
        else:
            object.__setattr__(self, "ref", float(self.ref))

    @classmethod
    def from_scale(cls, center, scale, delta):
        """Annulus of relative half-width ``delta`` around the circle of
        radius ``scale``; the inner radius clamps at 0 for ``delta >= 1``."""
        return cls(center, scale * max(0.0, 1.0 - delta), scale * (1.0 + delta), ref=scale)

    @property
    def scale(self):
        return self.ref

    def classify(self, lams):
        """Deviation ``| |lam - center| - ref |`` from the reference circle."""
        lams = np.atleast_1d(np.asarray(lams, dtype=np.complex128))
        r = np.abs(lams - self.center)
        inside = (self.inner < r) & (r < self.outer)
        return np.abs(r - self.ref), np.maximum(r - self.ref, 0.0), inside


@dataclass(frozen=True)
class SymbolBand(_Region):
    """Image of the thin annulus ``||z| - 1| < delta`` under the symbol map;
    membership is decided through preimage moduli."""

    symbol: PolySymbol
    delta: float

    def __post_init__(self):
        if not isinstance(self.symbol, PolySymbol):
            object.__setattr__(self, "symbol", PolySymbol(np.asarray(self.symbol)))
        object.__setattr__(self, "delta", float(self.delta))
        if not 0 < self.delta < 1:
            raise ShapeError("band half-width must lie in (0, 1)")

    def classify(self, lams):
        """Measured at the preimage whose modulus is nearest 1: deviation
        ``min_z ||z| - 1|`` and outward excess ``|z| - 1`` clipped at 0.
        The preimages of all values come from one solve."""
        lams = np.atleast_1d(np.asarray(lams, dtype=np.complex128))
        mods = np.abs(symbol_preimages(self.symbol, lams))
        nearest = np.argmin(np.abs(mods - 1.0), axis=1)
        mod = np.take_along_axis(mods, nearest[:, None], axis=1)[:, 0]
        dev = np.abs(mod - 1.0)
        return dev, np.maximum(mod - 1.0, 0.0), dev < self.delta


@dataclass(frozen=True)
class ExclusionSet:
    """Union of open disks of radius ``tau`` around the symbol's critical
    values, where the preimage equation degenerates to multiple roots."""

    critical_points: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.asarray(self.critical_points, dtype=np.complex128).reshape(-1)
        object.__setattr__(self, "critical_points", c)
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0:
            raise ShapeError("exclusion radius must be positive")

    @classmethod
    def from_symbol(cls, p, tau):
        return cls(critical_values(p), tau)

    def contains(self, lam):
        if self.critical_points.size == 0:
            return False
        return bool(np.min(np.abs(lam - self.critical_points)) < self.radius)

    def mask(self, lams):
        lams = np.atleast_1d(np.asarray(lams, dtype=np.complex128))
        if self.critical_points.size == 0:
            return np.zeros(lams.size, dtype=bool)
        return (
            np.min(np.abs(lams[:, None] - self.critical_points[None, :]), axis=1)
            < self.radius
        )


def critical_values(p: PolySymbol):
    """Images under p of the roots of p' (empty for a linear symbol)."""
    dc = p.derivative_coeffs()
    if dc.size == 1:
        return np.array([], dtype=np.complex128)
    monic_tail = dc[:-1] / dc[-1]
    roots = poly_roots(MonicPolynomial(monic_tail)).eigenvalues
    return p(roots)


def symbol_preimages(p: PolySymbol, lams):
    """All n roots of ``p(z) = lam`` for each value, shape ``(m, n)``, or
    ``(n,)`` for a scalar value.

    Degrees 1 and 2 use closed forms; higher degrees take the eigenvalues
    of the stacked companion matrices in one batched LAPACK call.
    """
    lams = np.asarray(lams, dtype=np.complex128)
    lam = lams.reshape(-1)
    a = p.coeffs
    n = p.degree
    if n == 1:
        z = ((lam - a[0]) / a[1])[:, None]
    elif n == 2:
        disc = np.sqrt(a[1] * a[1] - 4.0 * a[2] * (a[0] - lam) + 0j)
        z = np.stack([(-a[1] + disc) / (2.0 * a[2]), (-a[1] - disc) / (2.0 * a[2])], axis=1)
    else:
        # companion of the descending coefficients (a_n, ..., a_1, a_0 - lam)
        comp = np.zeros((lam.size, n, n), dtype=np.complex128)
        comp[:, 0, :-1] = -a[-2:0:-1] / a[-1]
        comp[:, 0, -1] = -(a[0] - lam) / a[-1]
        comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
        z = np.linalg.eigvals(comp)
    return z[0] if lams.ndim == 0 else z


@dataclass(frozen=True)
class RootSeparationStats:
    """Per-shift separation diagnostics of the preimage configuration."""

    min_pair_distance: float
    min_derivative_modulus: float
    min_root_modulus: float


def root_separation_stats(p: PolySymbol, lam):
    """Minimum pairwise distance, minimum |p'| and minimum modulus over the
    preimages of ``lam``; the pair distance is +inf for a linear symbol."""
    roots = symbol_preimages(p, lam)
    if roots.size < 2:
        pair = math.inf
    else:
        d = np.abs(roots[:, None] - roots[None, :])
        np.fill_diagonal(d, np.inf)
        pair = float(np.min(d))
    dc = p.derivative_coeffs()
    deriv = float(np.min(np.abs(np.polynomial.polynomial.polyval(roots, dc))))
    return RootSeparationStats(
        min_pair_distance=pair,
        min_derivative_modulus=deriv,
        min_root_modulus=float(np.min(np.abs(roots))),
    )


def corner_eigenvalues(d, rho):
    """Closed-form spectrum of the nilpotent block with corner entry rho:
    the d-th roots of rho, uniform on the circle of radius ``|rho|^{1/d}``."""
    if d < 1:
        raise ShapeError("dimension must be positive")
    rho = complex(rho)
    if rho == 0:
        return np.zeros(d, dtype=np.complex128)
    mod = abs(rho) ** (1.0 / d)
    theta = math.atan2(rho.imag, rho.real)
    k = np.arange(d)
    return mod * np.exp(1j * (2.0 * np.pi * k + theta) / d)


def two_block_eigenvalues(d, gamma1, gamma2, rho):
    """Closed-form spectrum of the two-valued corner-perturbed matrix:
    ``(g1 + g2 +- sqrt((g1 - g2)^2 + 4 r_k)) / 2`` over the d-th roots
    ``r_k`` of rho (principal square root)."""
    if d < 1:
        raise ShapeError("block size must be positive")
    g1, g2 = complex(gamma1), complex(gamma2)
    rk = corner_eigenvalues(d, rho)  # d-th roots of rho
    disc = np.sqrt((g1 - g2) ** 2 + 4.0 * rk + 0j)
    plus = (g1 + g2 + disc) / 2.0
    minus = (g1 + g2 - disc) / 2.0
    return np.concatenate([plus, minus])


def annulus_prob_limit(distribution, c):
    """Large-dimension limit of the corner-spectrum annulus probability at
    half-width C/d: ``Pr(e^{-C} < |xi| < e^{C})`` under the modulus law of
    the given scalar distribution (only CN(0,1) is supported, where the
    modulus is Rayleigh with ``Pr(|xi| <= r) = 1 - exp(-r^2)``)."""
    if distribution != "CN(0,1)":
        raise ShapeError(f"unsupported distribution tag {distribution!r}")
    c = float(c)
    if c < 0:
        raise ShapeError("C must be nonnegative")
    # 1 - Pr(|xi| <= e^-C) - Pr(|xi| >= e^C)
    return float(math.exp(-math.exp(-2.0 * c)) - math.exp(-math.exp(2.0 * c)))


def symbol_image_curve(p: PolySymbol, samples):
    """The closed curve ``p(e^{i theta})`` sampled at equi-spaced angles."""
    if samples < 8:
        raise ShapeError("need at least 8 samples")
    theta = 2.0 * np.pi * np.arange(samples) / samples
    return p(np.exp(1j * theta))
