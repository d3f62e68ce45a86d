"""Concentration regions and symbol-curve geometry.

There is one region kind for each framework: a :class:`DiskUnion` around
the eigenvalues of a normal (diagonal) base, and a :class:`SymbolBand`
around the image of the unit circle under a Jordan or Toeplitz base's
symbol.  A second :class:`DiskUnion` excludes the symbol's critical
values, where the preimage equation degenerates to multiple roots.
Each region implements ``classify(lams) -> (deviation, outward, inside)``:
the two-sided distance to its reference set, the outward excess beyond it
(clipped at zero) and strict membership, all from one pass over the
values; and ``outline()``, the sampled closed curves that draw it.  All
membership tests use strict inequalities, so boundary points do not count
as members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .linalg import PolySymbol, as_complex_vector
from .spectra import stacked_eigvals

__all__ = [
    "DiskUnion",
    "SymbolBand",
    "separation_radius",
    "critical_values",
    "symbol_preimages",
    "symbol_image_curve",
]

_OUTLINE_SAMPLES = 512


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


@dataclass(frozen=True)
class DiskUnion:
    """Union of open disks of a common radius around the given centers;
    the disks may overlap."""

    centers: np.ndarray
    radius: float

    def __post_init__(self):
        c = as_complex_vector(self.centers, name="centers")
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0:
            raise ShapeError("disk radius must be positive")

    def classify(self, lams):
        """The deviation is the distance to the nearest center, which is
        already one-sided, so it doubles as the outward excess.  Centers are
        taken one at a time, so no values-by-centers array is built."""
        lams = np.atleast_1d(np.asarray(lams, dtype=np.complex128))
        dist = np.full(lams.shape, np.inf)
        for c in self.centers:
            np.minimum(dist, np.abs(lams - c), out=dist)
        return dist, dist, dist < self.radius

    def outline(self):
        """The boundary circle of each disk."""
        theta = 2.0 * np.pi * np.arange(_OUTLINE_SAMPLES) / _OUTLINE_SAMPLES
        return [complex(c) + self.radius * np.exp(1j * theta) for c in self.centers]


@dataclass(frozen=True)
class SymbolBand:
    """Image of the annulus ``||z| - 1| < delta`` under the symbol map (for
    ``delta >= 1``, of the disk ``|z| < 1 + delta``); membership is decided
    through preimage moduli.  For ``p(z) = r z`` it is the annulus
    ``||lam| / r - 1| < delta`` around the circle of radius r."""

    symbol: PolySymbol
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "delta", float(self.delta))
        if self.delta <= 0:
            raise ShapeError("band half-width must be positive")

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

    def outline(self):
        """The symbol curve ``p(e^{i theta})`` that the band surrounds."""
        return [symbol_image_curve(self.symbol, _OUTLINE_SAMPLES)]


def critical_values(p: PolySymbol):
    """Images under p of the roots of p' (empty for a linear symbol), the
    roots taken as companion-matrix eigenvalues.  A double critical point
    comes out only to about the square root of the rounding unit, but p
    is flat there to third order, so its value stays accurate."""
    return p(np.polynomial.polynomial.polyroots(p.derivative_coeffs()))


def symbol_preimages(p: PolySymbol, lams):
    """All n roots of ``p(z) = lam`` for each value, shape ``(m, n)``, or
    ``(n,)`` for a scalar value.

    Degrees 1 and 2 use closed forms; higher degrees take the eigenvalues
    of the companion matrices by :func:`stacked_eigvals`, which builds and
    solves them in stacks of bounded size.
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
        def companions(rows):
            """Companions of the descending coefficients (a_n, ..., a_1, a_0 - lam)."""
            chunk = lam[rows]
            comp = np.zeros((chunk.size, n, n), dtype=np.complex128)
            comp[:, 0, :-1] = -a[-2:0:-1] / a[-1]
            comp[:, 0, -1] = -(a[0] - chunk) / a[-1]
            comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
            return comp

        z = stacked_eigvals(lam.size, n, companions)
    return z[0] if lams.ndim == 0 else z


def symbol_image_curve(p: PolySymbol, samples):
    """The closed curve ``p(e^{i theta})`` sampled at equi-spaced angles."""
    if samples < 8:
        raise ShapeError("need at least 8 samples")
    theta = 2.0 * np.pi * np.arange(samples) / samples
    return p(np.exp(1j * theta))
