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

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .linalg import as_complex_vector

__all__ = [
    "SeededRng",
    "RankOnePerturbation",
    "rank1_perturbation",
    "apply_perturbation",
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


@dataclass
class RankOnePerturbation:
    """Factored perturbation ``eps * u v^dag / (|u| |v|)``.

    Kept in (u, v, eps) form; the dense matrix is materialized only on
    request, so a trial costs O(d) storage.
    """

    u: np.ndarray
    v: np.ndarray
    eps: float

    def __post_init__(self):
        self.u = as_complex_vector(self.u, name="u")
        self.v = as_complex_vector(self.v, dim=self.u.size, name="v")
        if self.eps <= 0:
            raise ShapeError("eps must be positive")
        self.norm_u = float(np.linalg.norm(self.u))
        self.norm_v = float(np.linalg.norm(self.v))
        if self.norm_u == 0.0 or self.norm_v == 0.0:
            raise ShapeError("perturbation factors must have positive norm")

    @property
    def dim(self):
        return self.u.size

    @property
    def scale(self):
        """eps / (|u| |v|), the coefficient in front of ``u v^dag``."""
        return self.eps / (self.norm_u * self.norm_v)

    def materialize(self):
        return self.scale * np.outer(self.u, np.conj(self.v))


def rank1_perturbation(d, eps, rng):
    """Draw independent u, v and wrap them as a normalized rank-1
    perturbation of spectral norm ``eps``; the entries are CN(0, 1)."""
    if d < 1:
        raise ShapeError("dimension must be positive")
    if eps <= 0:
        raise ShapeError("eps must be positive")
    # A zero draw has probability zero; resample once, then give up.  The
    # draws are finite and of one dimension, and eps was checked, so the
    # only ShapeError the constructor, which takes both norms, can raise is
    # the zero-norm one.
    for _ in range(2):
        u, v = rng.complex_normals(d), rng.complex_normals(d)
        try:
            return RankOnePerturbation(u, v, float(eps))
        except ShapeError:
            pass
    raise ShapeError("drew a zero-norm vector twice in a row")


def apply_perturbation(t, p):
    """Dense sum ``T + eps u v^dag / (|u| |v|)``; a 1-D ``t`` is the
    diagonal of ``T``."""
    t = np.asarray(t, dtype=np.complex128)
    if t.ndim == 1:
        t = np.diag(t)
    if t.shape != (p.dim, p.dim):
        raise ShapeError(f"matrix shape {t.shape} does not match perturbation dim {p.dim}")
    return t + p.materialize()
