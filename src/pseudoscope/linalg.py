"""Dense complex linear algebra primitives and structured-matrix constructors.

Conventions used throughout the package:

* vectors and matrices are numpy ``complex128`` arrays,
* ``vdot``-style quadratic forms conjugate the *left* vector,
* upper-triangular matrices are stored as packed diagonals (offset ->
  length ``d - offset`` array), which keeps banded Toeplitz matrices at
  O(n d) storage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

__all__ = [
    "PolySymbol",
    "UpperTriangularMatrix",
    "as_complex_vector",
    "as_complex_matrix",
    "jordan_nilpotent",
    "jordan_corner",
    "two_block_corner",
    "toeplitz_from_symbol",
    "spectral_norm",
    "quadratic_form",
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


def as_complex_matrix(a, dim=None, name="matrix"):
    """Validate and convert to a finite square 2-D complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ShapeError(f"{name} must be square and nonempty, got shape {m.shape}")
    if dim is not None and m.shape[0] != dim:
        raise ShapeError(f"{name} must have dimension {dim}, got {m.shape[0]}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise ShapeError(f"{name} contains non-finite entries")
    return m


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


class UpperTriangularMatrix:
    """Square upper-triangular matrix in packed-diagonal storage.

    ``diags`` maps a superdiagonal offset ``k`` (0 for the main diagonal)
    to the length ``d - k`` array of its entries.  Offsets absent from the
    map are identically zero.  The main diagonal is always materialized.
    """

    def __init__(self, dim, diags):
        if dim < 1:
            raise ShapeError("dimension must be positive")
        self.dim = int(dim)
        self._diags = {}
        for k, arr in diags.items():
            k = int(k)
            if not 0 <= k < dim:
                raise ShapeError(f"diagonal offset {k} out of range for dim {dim}")
            a = as_complex_vector(arr, dim=dim - k, name=f"diagonal {k}")
            self._diags[k] = a
        if 0 not in self._diags:
            self._diags[0] = np.zeros(dim, dtype=np.complex128)

    @classmethod
    def from_dense(cls, a):
        m = as_complex_matrix(a)
        if np.any(np.tril(m, -1) != 0):
            raise ShapeError("matrix has nonzero entries below the diagonal")
        d = m.shape[0]
        diags = {}
        for k in range(d):
            band = np.diagonal(m, k)
            if k == 0 or np.any(band != 0):
                diags[k] = band.copy()
        return cls(d, diags)

    @classmethod
    def from_diagonal(cls, entries):
        e = as_complex_vector(entries, name="diagonal entries")
        return cls(e.size, {0: e})

    def diagonal(self, k=0):
        arr = self._diags.get(k)
        if arr is None:
            return np.zeros(self.dim - k, dtype=np.complex128)
        return arr

    @property
    def is_diagonal(self):
        return all(k == 0 or not np.any(v) for k, v in self._diags.items())

    def to_dense(self):
        a = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for k, arr in self._diags.items():
            a += np.diag(arr, k)
        return a

    def matvec(self, x):
        x = as_complex_vector(x, dim=self.dim)
        y = np.zeros(self.dim, dtype=np.complex128)
        for k, arr in self._diags.items():
            y[: self.dim - k] += arr * x[k:]
        return y

    def trace(self):
        return complex(np.sum(self.diagonal()))


def jordan_nilpotent(d):
    """Nilpotent single block: ones on the first superdiagonal."""
    if d < 1:
        raise ShapeError("dimension must be positive")
    diags = {0: np.zeros(d, dtype=np.complex128)}
    if d > 1:
        diags[1] = np.ones(d - 1, dtype=np.complex128)
    return UpperTriangularMatrix(d, diags)


def jordan_corner(d, rho):
    """Nilpotent block with one extra entry ``rho`` in the bottom-left corner."""
    if d < 1:
        raise ShapeError("dimension must be positive")
    a = np.zeros((d, d), dtype=np.complex128)
    if d > 1:
        a += np.diag(np.ones(d - 1), 1)
    a[d - 1, 0] += complex(rho)
    return a


def two_block_corner(d, gamma1, gamma2, rho):
    """2d x 2d matrix: two diagonal values of multiplicity d each, a full
    superdiagonal of ones, and ``rho`` in the bottom-left corner."""
    if d < 1:
        raise ShapeError("block size must be positive")
    n = 2 * d
    a = np.zeros((n, n), dtype=np.complex128)
    a[np.arange(d), np.arange(d)] = complex(gamma1)
    a[np.arange(d, n), np.arange(d, n)] = complex(gamma2)
    a += np.diag(np.ones(n - 1), 1)
    a[n - 1, 0] += complex(rho)
    return a


def toeplitz_from_symbol(p, d):
    """Upper-triangular Toeplitz matrix whose k-th superdiagonal carries the
    symbol coefficient ``a_k``; equals the symbol evaluated at the nilpotent
    block."""
    if not isinstance(p, PolySymbol):
        p = PolySymbol(np.asarray(p))
    if p.degree > d - 1:
        raise ShapeError(f"symbol degree {p.degree} needs dimension > {p.degree}, got {d}")
    diags = {0: np.full(d, p.coeffs[0], dtype=np.complex128)}
    for k in range(1, p.degree + 1):
        if p.coeffs[k] != 0:
            diags[k] = np.full(d - k, p.coeffs[k], dtype=np.complex128)
    return UpperTriangularMatrix(d, diags)


def spectral_norm(a):
    """Largest singular value of a dense or packed upper-triangular matrix."""
    if isinstance(a, UpperTriangularMatrix):
        a = a.to_dense()
    return float(np.linalg.norm(as_complex_matrix(a), 2))


def quadratic_form(v, a, u):
    """``v^dag A u`` with the conjugate transpose applied to ``v``."""
    if isinstance(a, UpperTriangularMatrix):
        u = as_complex_vector(u, dim=a.dim, name="u")
        v = as_complex_vector(v, dim=a.dim, name="v")
        return complex(np.vdot(v, a.matvec(u)))
    a = as_complex_matrix(a)
    u = as_complex_vector(u, dim=a.shape[0], name="u")
    v = as_complex_vector(v, dim=a.shape[0], name="v")
    return complex(np.vdot(v, a @ u))


def jordan_quadratic_forms(u, v):
    """All shifted overlaps ``q_k = v^dag J^k u`` for ``k = 0 .. d-1``.

    ``J`` is the nilpotent block, so ``q_k`` reduces to the inner product of
    ``v`` against ``u`` shifted by ``k`` positions; total cost O(d^2).
    """
    u = as_complex_vector(u, name="u")
    v = as_complex_vector(v, dim=u.size, name="v")
    d = u.size
    return np.array([np.vdot(v[: d - k], u[k:]) for k in range(d)])
