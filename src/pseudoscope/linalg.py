"""Dense complex linear algebra primitives and structured-matrix constructors.

Conventions used throughout the package:

* vectors and matrices are numpy ``complex128`` arrays,
* ``vdot``-style quadratic forms conjugate the *left* vector,
* a base matrix is a plain array in one of two forms: the 1-D diagonal
  of a normal (diagonal) base, or the dense d x d array of a Jordan,
  corner or Toeplitz base.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

__all__ = [
    "PolySymbol",
    "as_complex_vector",
    "jordan_corner",
    "toeplitz_from_symbol",
    "jordan_quadratic_forms",
]


def as_complex_vector(x, dim=None, name="vector"):
    """Validate and convert to a finite 1-D complex128 array."""
    v = np.asarray(x, dtype=np.complex128)
    if v.ndim != 1 or v.size == 0:
        raise ShapeError(f"{name} must be a nonempty 1-D array, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ShapeError(f"{name} must have dimension {dim}, got {v.shape[0]}")
    if not np.all(np.isfinite(v.view(np.float64))):
        raise ShapeError(f"{name} contains non-finite entries")
    return v


@dataclass(frozen=True)
class PolySymbol:
    """Polynomial ``p(z) = a_0 + a_1 z + ... + a_n z^n`` generating a
    triangular Toeplitz matrix; ``coeffs`` is the ascending sequence
    ``(a_0, ..., a_n)`` with ``n >= 1`` and ``a_n != 0``."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = as_complex_vector(self.coeffs, name="symbol coefficients")
        if c.size < 2:
            raise ShapeError("symbol degree must be at least 1")
        if c[-1] == 0:
            raise ShapeError("leading symbol coefficient must be nonzero")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self):
        return self.coeffs.size - 1

    @property
    def nontrivial_count(self):
        """Number of nonzero coefficients above the constant term."""
        return int(np.count_nonzero(self.coeffs[1:]))

    def __call__(self, z):
        return np.polynomial.polynomial.polyval(z, self.coeffs)

    def derivative_coeffs(self):
        """Ascending coefficients of p'(z) (length ``degree``)."""
        return self.coeffs[1:] * np.arange(1, self.coeffs.size)


def jordan_corner(d, rho):
    """Nilpotent block (ones on the first superdiagonal) with one extra
    entry ``rho`` in the bottom-left corner."""
    if d < 1:
        raise ShapeError("dimension must be positive")
    a = np.diag(np.ones(d - 1, dtype=np.complex128), 1)
    a[d - 1, 0] += complex(rho)
    return a


def toeplitz_from_symbol(p, d):
    """Upper-triangular Toeplitz matrix whose k-th superdiagonal carries the
    symbol coefficient ``a_k``; equals the symbol evaluated at the nilpotent
    block."""
    if p.degree > d - 1:
        raise ShapeError(f"symbol degree {p.degree} needs dimension > {p.degree}, got {d}")
    a = np.zeros((d, d), dtype=np.complex128)
    for k, c in enumerate(p.coeffs):
        a += np.diag(np.full(d - k, c), k)
    return a


def jordan_quadratic_forms(u, v):
    """All shifted overlaps ``q_k = v^dag J^k u`` for ``k = 0 .. d-1``.

    ``J`` is the nilpotent block, so ``q_k`` reduces to the inner product of
    ``v`` against ``u`` shifted by ``k`` positions: the cross-correlation of
    ``u`` with ``v`` (which ``np.correlate`` conjugates) at the lags
    ``0 .. d-1``; total cost O(d^2).
    """
    u = as_complex_vector(u, name="u")
    v = as_complex_vector(v, dim=u.size, name="v")
    return np.correlate(u, v, "full")[u.size - 1 :]
