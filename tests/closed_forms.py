"""Closed-form matrices and spectra that the tests check the solvers
against, and the stacking of one-trial draws into a block.  No part of the
package uses them."""

import math

import numpy as np

from pseudoscope import RankOnePerturbation


def stack(draws):
    """The one-trial draws ``draws`` as one block, row k being draw k."""
    return RankOnePerturbation(*map(np.array, zip(*draws)))


def jordan_nilpotent(d):
    """Nilpotent single block: ones on the first superdiagonal."""
    return np.diag(np.ones(d - 1, dtype=np.complex128), 1)


def two_block_corner(d, gamma1, gamma2, rho):
    """2d x 2d matrix: two diagonal values of multiplicity d each, a full
    superdiagonal of ones, and ``rho`` in the bottom-left corner."""
    n = 2 * d
    a = np.zeros((n, n), dtype=np.complex128)
    a[np.arange(d), np.arange(d)] = complex(gamma1)
    a[np.arange(d, n), np.arange(d, n)] = complex(gamma2)
    a += np.diag(np.ones(n - 1), 1)
    a[n - 1, 0] += complex(rho)
    return a


def corner_eigenvalues(d, rho):
    """Spectrum of the nilpotent block with corner entry rho: the d-th
    roots of rho, uniform on the circle of radius ``|rho|^{1/d}``."""
    rho = complex(rho)
    if rho == 0:
        return np.zeros(d, dtype=np.complex128)
    mod = abs(rho) ** (1.0 / d)
    theta = math.atan2(rho.imag, rho.real)
    k = np.arange(d)
    return mod * np.exp(1j * (2.0 * np.pi * k + theta) / d)


def two_block_eigenvalues(d, gamma1, gamma2, rho):
    """Spectrum of :func:`two_block_corner`:
    ``(g1 + g2 +- sqrt((g1 - g2)^2 + 4 r_k)) / 2`` over the d-th roots
    ``r_k`` of rho (principal square root)."""
    g1, g2 = complex(gamma1), complex(gamma2)
    disc = np.sqrt((g1 - g2) ** 2 + 4.0 * corner_eigenvalues(d, rho) + 0j)
    return np.concatenate([(g1 + g2 + disc) / 2.0, (g1 + g2 - disc) / 2.0])
