"""Reproducible generation of complex normal vectors and normalized
rank-1 perturbations.

Reproducibility contract: a stream is keyed by the 128-bit pair
``(seed, stream)`` fed to a counter-based Philox generator, so trial ``i``
of a run always uses stream ``i`` and produces the same draws regardless
of worker count or scheduling.  Normal variates come from Box-Muller on
Philox uniforms rather than the generator's own ziggurat path, keeping the
byte-level output a function of (seed, stream) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ShapeError

__all__ = [
    "SeededRng",
    "RankOnePerturbation",
    "rank1_perturbation",
]


@dataclass
class SeededRng:
    """Stateful pseudorandom stream keyed by ``(seed, stream)``.

    Instances are cheap to create; fork one per trial with
    ``SeededRng(seed, trial_index)``.  Draws within one instance are
    sequential and deterministic.
    """

    seed: int
    stream: int = 0
    _gen: np.random.Generator = field(default=None, repr=False, compare=False)

    def generator(self):
        if self._gen is None:
            key = ((int(self.seed) & 0xFFFFFFFFFFFFFFFF) << 64) | (
                int(self.stream) & 0xFFFFFFFFFFFFFFFF
            )
            self._gen = np.random.Generator(np.random.Philox(key=key))
        return self._gen

    def complex_normals(self, n):
        """n i.i.d. complex normals with unit total variance.

        Box-Muller in polar form: squared modulus is Exp(1), phase is
        uniform, hence real and imaginary parts are independent
        N(0, 1/2).
        """
        w = self.generator().random((2, n))
        radius = np.sqrt(-np.log1p(-w[0]))  # 1 - U in (0, 1], avoids log(0)
        return radius * np.exp(2j * np.pi * w[1])


class RankOnePerturbation(NamedTuple):
    """A block of n factored rank-1 perturbations ``scale[k] u[k] v[k]^dag``:
    ``u`` and ``v`` are (n, d), ``scale`` is (n,), and row k is trial k.  A
    :func:`rank1_perturbation` draw is one trial, 1-D ``u`` and ``v`` and a
    float ``scale``; ``map(np.array, zip(*draws))`` stacks draws."""

    u: np.ndarray
    v: np.ndarray
    scale: np.ndarray

    def checked(self, dim=None):
        """This block with complex (n, d) ``u`` and ``v`` and an (n,)
        ``scale``, a one-trial draw being a block of one row; a
        :class:`ShapeError` unless u and v are finite, of one shape (d =
        ``dim`` when given) and without a zero row, and scale is finite."""
        u, v = (np.atleast_2d(np.asarray(x, dtype=np.complex128)) for x in self[:2])
        scale = np.atleast_1d(np.asarray(self.scale))
        if u.ndim != 2 or u.size == 0 or v.shape != u.shape or scale.shape != u.shape[:1]:
            raise ShapeError(f"u, v and scale must be of one shape (n, d), (n, d) and (n,), "
                             f"got {u.shape}, {v.shape} and {scale.shape}")
        if dim is not None and u.shape[1] != dim:
            raise ShapeError(f"perturbations of dimension {u.shape[1]} do not fit a base of {dim}")
        if not (np.isfinite(u).all() and np.isfinite(v).all() and np.isfinite(scale).all()):
            raise ShapeError("perturbation factors contain non-finite entries")
        if not (u.any(axis=1).all() and v.any(axis=1).all()):
            raise ShapeError("perturbation factors must have positive norm")
        return RankOnePerturbation(u, v, scale)


def rank1_perturbation(d, eps, rng):
    """Draw independent u, v and wrap them as one normalized rank-1
    perturbation of spectral norm ``eps``, with ``scale = eps / (|u| |v|)``;
    the entries are CN(0, 1)."""
    if d < 1:
        raise ShapeError("dimension must be positive")
    if not (math.isfinite(eps) and eps > 0):
        raise ShapeError("eps must be finite and positive")
    # A zero draw has probability zero; resample once, then give up.
    for _ in range(2):
        u, v = rng.complex_normals(d), rng.complex_normals(d)
        norm_u, norm_v = float(np.linalg.norm(u)), float(np.linalg.norm(v))
        if norm_u != 0.0 and norm_v != 0.0:
            return RankOnePerturbation(u, v, float(eps) / (norm_u * norm_v))
    raise ShapeError("drew a zero-norm vector twice in a row")
