"""Monte Carlo trial orchestration, containment statistics, scaling fits,
and empirical tail tables.

Reproducibility: trial ``i`` of a run always draws from the stream
``(seed, i)``; results are gathered in trial order and all statistics are
computed single-threaded on the ordered records, so reports are identical
for any worker count.
"""

from __future__ import annotations

import math
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import fixtures
from .errors import ConfigError, ConvergenceError, ExperimentError, ShapeError
from .geometry import (
    Annulus,
    DiskUnion,
    ExclusionSet,
    SymbolBand,
    separation_radius,
)
from .linalg import PolySymbol, jordan_corner, jordan_nilpotent, toeplitz_from_symbol
from .sampling import SeededRng, apply_perturbation, rank1_perturbation
from .spectra import (
    SOLVER_DENSE,
    SOLVER_JORDAN_POLY,
    SOLVER_RESOLVENT,
    charpoly_jordan_rank1,
    dense_eigenvalues,
    eigen_resolvent_aberth,
    poly_roots,
)

__all__ = [
    "StructureSpec",
    "ExperimentConfig",
    "TrialRecord",
    "ConcentrationReport",
    "build_region",
    "run_experiment",
    "scaling_fit",
    "tail_norm_concentration",
    "tail_hanson_wright",
    "tail_carbery_wright",
    "tail_quadratic_form_diag",
    "corner_annulus_probability",
]

STRUCTURE_KINDS = ("zero", "scalar", "diagonal", "jordan", "jordan-corner", "toeplitz")

_FAILURE_CAP = 0.01


def _parse_complex(text):
    text = text.strip()
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex number {text!r}") from exc


@dataclass(frozen=True)
class StructureSpec:
    """Which base matrix a run perturbs.

    kind        one of zero | scalar | diagonal | jordan | jordan-corner | toeplitz
    value       the scalar C (kind scalar)
    entries     the distinct diagonal values, split evenly (kind diagonal)
    rho         the corner entry (kind jordan-corner)
    coeffs      ascending symbol coefficients (kind toeplitz)
    """

    kind: str
    value: complex = 0j
    entries: tuple = ()
    rho: complex = 0j
    coeffs: tuple = ()

    def __post_init__(self):
        if self.kind not in STRUCTURE_KINDS:
            raise ConfigError(f"unknown structure kind {self.kind!r}")
        if self.kind == "diagonal" and len(self.entries) == 0:
            raise ConfigError("diagonal structure needs at least one entry")
        if self.kind == "toeplitz" and len(self.coeffs) < 2:
            raise ConfigError("toeplitz structure needs symbol coefficients (a0, a1, ...)")

    @classmethod
    def parse(cls, text):
        """Parse forms like ``jordan``, ``scalar(1+2j)``, ``diagonal(2,3)``,
        ``jordan-corner(0.5)``, ``toeplitz(3,2,1)``."""
        text = text.strip()
        m = re.fullmatch(r"([a-z-]+)\s*(?:\(([^)]*)\))?", text)
        if not m:
            raise ConfigError(f"cannot parse structure {text!r}")
        kind, args = m.group(1), m.group(2)
        parts = [s for s in (args.split(",") if args else []) if s.strip()]
        values = [_parse_complex(s) for s in parts]
        if kind == "zero":
            return cls("zero")
        if kind == "scalar":
            if len(values) != 1:
                raise ConfigError("scalar(C) takes exactly one value")
            return cls("scalar", value=values[0])
        if kind == "diagonal":
            return cls("diagonal", entries=tuple(values))
        if kind == "jordan":
            return cls("jordan")
        if kind == "jordan-corner":
            if len(values) != 1:
                raise ConfigError("jordan-corner(rho) takes exactly one value")
            return cls("jordan-corner", rho=values[0])
        if kind == "toeplitz":
            return cls("toeplitz", coeffs=tuple(values))
        raise ConfigError(f"unknown structure kind {kind!r}")

    def label(self):
        if self.kind == "scalar":
            return f"scalar({_fmt_complex(self.value)})"
        if self.kind == "diagonal":
            return "diagonal(" + ",".join(_fmt_complex(e) for e in self.entries) + ")"
        if self.kind == "jordan-corner":
            return f"jordan-corner({_fmt_complex(self.rho)})"
        if self.kind == "toeplitz":
            return "toeplitz(" + ",".join(_fmt_complex(c) for c in self.coeffs) + ")"
        return self.kind

    def symbol(self):
        if self.kind != "toeplitz":
            raise ShapeError("only toeplitz structures carry a symbol")
        return PolySymbol(np.asarray(self.coeffs))

    def diagonal_entries(self, d):
        """Full length-d diagonal with the entries split as evenly as
        possible (earlier entries absorb the remainder)."""
        if self.kind in ("zero", "scalar"):
            return np.full(d, complex(self.value) if self.kind == "scalar" else 0j)
        if self.kind != "diagonal":
            raise ShapeError(f"{self.kind} has no prescribed diagonal")
        m = len(self.entries)
        if m > d:
            raise ConfigError(f"more diagonal entries ({m}) than dimension {d}")
        counts = [d // m + (1 if i < d % m else 0) for i in range(m)]
        return np.concatenate(
            [np.full(c, complex(e)) for e, c in zip(self.entries, counts)]
        )

    def base_matrix(self, d):
        if self.kind in ("zero", "scalar", "diagonal"):
            from .linalg import UpperTriangularMatrix

            return UpperTriangularMatrix.from_diagonal(self.diagonal_entries(d))
        if self.kind == "jordan":
            return jordan_nilpotent(d)
        if self.kind == "jordan-corner":
            return jordan_corner(d, self.rho)
        if self.kind == "toeplitz":
            return toeplitz_from_symbol(self.symbol(), d)
        raise ConfigError(f"unknown structure kind {self.kind!r}")


def _fmt_complex(z):
    z = complex(z)
    if z.imag == 0:
        return repr(z.real) if z.real != int(z.real) else repr(int(z.real))
    return repr(z).strip("()")


def default_trials(d):
    """Trial-count default: 1000 up to d=256, 100 beyond."""
    return 1000 if d <= 256 else 100


@dataclass(frozen=True)
class ExperimentConfig:
    structure: StructureSpec
    d: int
    eps: float
    trials: int
    seed: int
    solver: str = "auto"
    region: object = "auto"  # float delta or the string "auto"

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError("d must be positive")
        if self.eps <= 0:
            raise ConfigError("eps must be positive")
        if self.trials < 1:
            raise ConfigError("trials must be positive")
        if self.structure.kind == "toeplitz" and len(self.structure.coeffs) - 1 > self.d - 1:
            raise ConfigError("symbol degree must be below the dimension")

    def resolved_solver(self):
        """The route for ``solver = auto``.  Symbols of degree 3 and above
        go to dense QR: the resolvent route returns wrong spectra for them
        with a small residual and no error."""
        if self.solver != "auto":
            return self.solver
        kind = self.structure.kind
        if kind == "jordan":
            return SOLVER_JORDAN_POLY
        if kind == "jordan-corner":
            return SOLVER_DENSE
        if kind == "toeplitz" and self.structure.symbol().degree >= 3:
            return SOLVER_DENSE
        return SOLVER_RESOLVENT

    def resolved_delta(self):
        if self.region == "auto":
            delta = fixtures.AUTO_DELTA[self.structure.kind]
            if self.structure.kind == "diagonal":
                centers = np.unique(np.asarray(self.structure.entries, dtype=complex))
                delta = min(delta, 0.999 * separation_radius(centers))
            return delta
        return float(self.region)


def build_region(cfg: ExperimentConfig):
    """The containment region and (for general symbols) the exclusion set."""
    kind = cfg.structure.kind
    delta = cfg.resolved_delta()
    if kind in ("zero", "scalar", "diagonal"):
        centers = np.unique(np.asarray(cfg.structure.diagonal_entries(cfg.d)))
        return DiskUnion(centers, delta), None
    if kind == "jordan":
        return Annulus.from_scale(0j, 1.0, delta), None
    if kind == "jordan-corner":
        scale = abs(complex(cfg.structure.rho)) ** (1.0 / cfg.d)
        return Annulus.from_scale(0j, scale, delta), None
    if kind == "toeplitz":
        p = cfg.structure.symbol()
        band = SymbolBand(p, delta)
        exclusion = ExclusionSet.from_symbol(p, cfg.eps) if p.nontrivial_count >= 2 else None
        return band, exclusion
    raise ConfigError(f"unknown structure kind {kind!r}")


@dataclass
class TrialRecord:
    index: int
    eigenvalues: np.ndarray
    contained: bool
    max_deviation: float
    max_outward_deviation: float
    n_contained: int
    n_exclusion_only: int
    deviations: np.ndarray = None
    failed: bool = False
    solver: str = ""
    residual: float = 0.0


@dataclass
class ConcentrationReport:
    structure: str
    d: int
    eps: float
    trials: int
    seed: int
    solver: str
    delta: float
    containment_fraction: float
    eigenvalue_containment_fraction: float
    deviation_quantiles: dict
    pooled_eigenvalue_quantiles: dict
    exclusion_only_fraction: float
    failed_trials: int
    wall_time_s: float
    records: list = field(default_factory=list, repr=False)


def run_experiment(cfg: ExperimentConfig, threads=1) -> ConcentrationReport:
    """Run N independent perturbation trials and classify each spectrum
    against the structure's concentration region.

    Solver failures are recorded per trial and excluded from statistics;
    more than 1% failed trials aborts the run.
    """
    start = time.perf_counter()
    solver = cfg.resolved_solver()
    structure = cfg.structure
    region, exclusion = build_region(cfg)
    base = structure.base_matrix(cfg.d)
    if solver == SOLVER_JORDAN_POLY and structure.kind != "jordan":
        raise ConfigError("the jordan-poly solver applies only to the jordan structure")
    if solver == SOLVER_RESOLVENT and structure.kind == "jordan-corner":
        raise ConfigError("the corner structure is not upper triangular; use dense-qr")

    def one_trial(i):
        rng = SeededRng(cfg.seed, i)
        pert = rank1_perturbation(cfg.d, cfg.eps, rng)
        try:
            if solver == SOLVER_JORDAN_POLY:
                spectrum = poly_roots(charpoly_jordan_rank1(pert))
            elif solver == SOLVER_RESOLVENT:
                spectrum = eigen_resolvent_aberth(base, pert)
            else:
                spectrum = dense_eigenvalues(apply_perturbation(base, pert))
        except ConvergenceError:
            return TrialRecord(
                index=i,
                eigenvalues=np.array([], dtype=np.complex128),
                contained=False,
                max_deviation=math.nan,
                max_outward_deviation=math.nan,
                n_contained=0,
                n_exclusion_only=0,
                failed=True,
                solver=solver,
            )
        lams = spectrum.eigenvalues
        devs, outward, in_region = region.classify(lams)
        if exclusion is not None:
            in_exclusion = exclusion.mask(lams)
        else:
            in_exclusion = np.zeros(lams.size, dtype=bool)
        inside = in_region | in_exclusion
        return TrialRecord(
            index=i,
            eigenvalues=lams,
            contained=bool(inside.all()),
            max_deviation=float(np.max(devs)),
            max_outward_deviation=float(np.max(outward)),
            n_contained=int(np.count_nonzero(inside)),
            n_exclusion_only=int(np.count_nonzero(in_exclusion & ~in_region)),
            deviations=devs,
            failed=False,
            solver=solver,
            residual=spectrum.residual,
        )

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(one_trial, range(cfg.trials)))
    else:
        records = [one_trial(i) for i in range(cfg.trials)]

    failed = sum(r.failed for r in records)
    if failed > _FAILURE_CAP * cfg.trials:
        raise ExperimentError(
            f"{failed} of {cfg.trials} trials failed, above the {_FAILURE_CAP:.0%} cap"
        )
    good = [r for r in records if not r.failed]
    max_devs = np.array([r.max_deviation for r in good])
    pooled = np.concatenate([r.deviations for r in good])
    total_eigs = sum(r.eigenvalues.size for r in good)
    contained_eigs = sum(r.n_contained for r in good)
    exclusion_only = sum(r.n_exclusion_only for r in good)

    def quantiles(x):
        return {
            "q50": float(np.quantile(x, 0.50)),
            "q90": float(np.quantile(x, 0.90)),
            "q99": float(np.quantile(x, 0.99)),
            "max": float(np.max(x)),
        }

    return ConcentrationReport(
        structure=structure.label(),
        d=cfg.d,
        eps=cfg.eps,
        trials=cfg.trials,
        seed=cfg.seed,
        solver=solver,
        delta=cfg.resolved_delta(),
        containment_fraction=sum(r.contained for r in good) / max(len(good), 1),
        eigenvalue_containment_fraction=contained_eigs / max(total_eigs, 1),
        deviation_quantiles=quantiles(max_devs),
        pooled_eigenvalue_quantiles=quantiles(pooled),
        exclusion_only_fraction=(exclusion_only / max(total_eigs, 1))
        if exclusion is not None
        else None,
        failed_trials=failed,
        wall_time_s=time.perf_counter() - start,
        records=records,
    )


def scaling_fit(structure: StructureSpec, dims, eps, trials, seed, threads=1):
    """Median per-trial max deviation against dimension on a log-log grid.

    Fits ``log(median max-deviation) = slope * log(d) + intercept``; the
    outward-excess variant of the same fit is reported alongside because
    the two-sided maximum is dominated by inward outliers for the
    translation-invariant structures.
    """
    dims = [int(d) for d in dims]
    if len(dims) < 3:
        raise ConfigError("scaling needs at least 3 dimensions")
    if min(dims) < 16:
        raise ConfigError("scaling dimensions must be at least 16")
    per_dim = []
    for d in dims:
        cfg = ExperimentConfig(
            structure=structure, d=d, eps=eps, trials=trials, seed=seed
        )
        report = run_experiment(cfg, threads=threads)
        good = [r for r in report.records if not r.failed]
        max_devs = np.array([r.max_deviation for r in good])
        out_devs = np.array([r.max_outward_deviation for r in good])
        per_dim.append(
            {
                "d": d,
                "median_deviation": float(np.median(max_devs)),
                "q90_deviation": float(np.quantile(max_devs, 0.90)),
                "median_outward_deviation": float(np.median(out_devs)),
            }
        )
    logd = np.log([row["d"] for row in per_dim])
    med = np.log([row["median_deviation"] for row in per_dim])
    slope, intercept = np.polyfit(logd, med, 1)
    out = np.array([row["median_outward_deviation"] for row in per_dim])
    if np.all(out > 0):
        slope_out, intercept_out = np.polyfit(logd, np.log(out), 1)
    else:
        slope_out, intercept_out = math.nan, math.nan
    return {
        "structure": structure.label(),
        "dims": dims,
        "eps": eps,
        "trials": trials,
        "seed": seed,
        "slope": float(slope),
        "intercept": float(intercept),
        "slope_outward": float(slope_out),
        "intercept_outward": float(intercept_out),
        "per_dim": per_dim,
    }


def _stream_pairs(d, trials, seed, chunk=20000):
    """Yield (u, v) chunks drawn trial-contiguously from stream (seed, 0),
    so results do not depend on the chunk size."""
    rng = SeededRng(seed, 0)
    done = 0
    while done < trials:
        b = min(chunk, trials - done)
        flat = rng.complex_normals(2 * b * d).reshape(b, 2, d)
        yield flat[:, 0, :], flat[:, 1, :]
        done += b


def tail_norm_concentration(d, t_grid, trials, seed):
    """Empirical one-sided tails of ``|xi|^2`` about its mean d, next to the
    exact values from the Gamma(d, 1) law of a sum of d unit exponentials.
    """
    if d < 2:
        raise ShapeError("d must be at least 2")
    t_grid = np.asarray(t_grid, dtype=float)
    rng = SeededRng(seed, 0)
    upper = np.zeros(t_grid.size)
    lower = np.zeros(t_grid.size)
    done = 0
    chunk = max(1, min(20000, trials))
    while done < trials:
        b = min(chunk, trials - done)
        sq = np.abs(rng.complex_normals(b * d).reshape(b, d)) ** 2
        norms = sq.sum(axis=1)
        for j, t in enumerate(t_grid):
            upper[j] += np.count_nonzero(norms - d >= t * d)
            lower[j] += np.count_nonzero(norms - d <= -t * d)
        done += b
    rows = []
    for j, t in enumerate(t_grid):
        upper_exact = float(1.0 - special.gammainc(d, d * (1.0 + t)))
        lower_exact = float(special.gammainc(d, max(d * (1.0 - t), 0.0)))
        rows.append(
            {
                "t": float(t),
                "upper_empirical": upper[j] / trials,
                "upper_exact": upper_exact,
                "lower_empirical": lower[j] / trials,
                "lower_exact": lower_exact,
            }
        )
    return {"d": d, "trials": trials, "seed": seed, "rows": rows}


def tail_hanson_wright(d, k, t_grid, trials, seed):
    """Empirical exceedance ``Pr(|v^dag J^k u| >= t)`` with the
    sub-exponential envelope ``4 exp(-c min(t^2/(d-k), t))``; c is fitted by
    least squares on the grid and recorded."""
    if not 0 <= k <= d - 1:
        raise ShapeError("need 0 <= k <= d-1")
    t_grid = np.asarray(t_grid, dtype=float)
    counts = np.zeros(t_grid.size)
    for u, v in _stream_pairs(d, trials, seed):
        q = np.einsum("ij,ij->i", np.conj(v[:, : d - k]), u[:, k:])
        mags = np.abs(q)
        for j, t in enumerate(t_grid):
            counts[j] += np.count_nonzero(mags >= t)
    emp = counts / trials
    m = np.minimum(t_grid**2 / (d - k), t_grid)
    ok = emp > 0
    if np.any(ok):
        fitted_c = float(
            np.sum(m[ok] * (np.log(4.0) - np.log(emp[ok]))) / np.sum(m[ok] ** 2)
        )
    else:
        fitted_c = math.nan
    rows = [
        {
            "t": float(t),
            "empirical": float(e),
            "envelope": float(4.0 * np.exp(-fitted_c * mm)) if not math.isnan(fitted_c) else math.nan,
        }
        for t, e, mm in zip(t_grid, emp, m)
    ]
    return {"d": d, "k": k, "trials": trials, "seed": seed, "fitted_c": fitted_c, "rows": rows}


def tail_carbery_wright(d, t_grid, trials, seed, k=1):
    """Empirical small-ball probabilities ``Pr(|v^dag J^k u| <= t |J^k|_F)``
    with the log-log slope fitted over grid points that received hits."""
    if not 0 <= k <= d - 1:
        raise ShapeError("need 0 <= k <= d-1")
    t_grid = np.asarray(t_grid, dtype=float)
    frob = math.sqrt(d - k)
    counts = np.zeros(t_grid.size)
    for u, v in _stream_pairs(d, trials, seed):
        q = np.einsum("ij,ij->i", np.conj(v[:, : d - k]), u[:, k:])
        mags = np.abs(q)
        for j, t in enumerate(t_grid):
            counts[j] += np.count_nonzero(mags <= t * frob)
    emp = counts / trials
    ok = emp > 0
    if np.count_nonzero(ok) >= 2:
        slope = float(np.polyfit(np.log(t_grid[ok]), np.log(emp[ok]), 1)[0])
    else:
        slope = math.nan
    rows = [{"t": float(t), "smallball": float(e)} for t, e in zip(t_grid, emp)]
    return {
        "d": d,
        "k": k,
        "trials": trials,
        "seed": seed,
        "frobenius": frob,
        "slope": slope,
        "rows": rows,
    }


def tail_quadratic_form_diag(entries, t_grid, trials, seed):
    """Empirical exceedance ``Pr(|v^dag D u| >= t d)`` for a fixed diagonal
    D, with the exponential decay rate fitted against ``t sqrt(d)``."""
    gam = np.asarray(entries, dtype=np.complex128).reshape(-1)
    d = gam.size
    t_grid = np.asarray(t_grid, dtype=float)
    counts = np.zeros(t_grid.size)
    for u, v in _stream_pairs(d, trials, seed):
        q = np.einsum("ij,j,ij->i", np.conj(v), gam, u)
        mags = np.abs(q)
        for j, t in enumerate(t_grid):
            counts[j] += np.count_nonzero(mags >= t * d)
    emp = counts / trials
    x = t_grid * math.sqrt(d)
    ok = (emp > 0) & (x > 0)
    if np.any(ok):
        rate = float(np.sum(x[ok] * (-np.log(emp[ok]))) / np.sum(x[ok] ** 2))
    else:
        rate = math.nan
    delta = 1.0 / float(np.max(np.abs(gam)))
    rows = [{"t": float(t), "empirical": float(e)} for t, e in zip(t_grid, emp)]
    return {
        "d": d,
        "trials": trials,
        "seed": seed,
        "delta": delta,
        "fitted_rate": rate,
        "rows": rows,
    }


def corner_annulus_probability(d, delta, trials, seed):
    """Empirical probability that the closed-form corner spectrum with a
    CN(0,1) corner entry lies in the annulus of half-width delta, next to
    the exact value from the Rayleigh modulus law."""
    if d < 1:
        raise ShapeError("dimension must be positive")
    delta = float(delta)
    rng = SeededRng(seed, 0)
    rho = rng.complex_normals(trials)
    mod = np.abs(rho)
    lo = max(1.0 - delta, 0.0) ** d
    hi = (1.0 + delta) ** d
    empirical = float(np.mean((mod > lo) & (mod < hi)))
    exact = float(math.exp(-(lo**2)) - math.exp(-(hi**2)))
    return {
        "d": d,
        "delta": delta,
        "trials": trials,
        "seed": seed,
        "empirical": empirical,
        "exact": exact,
    }
