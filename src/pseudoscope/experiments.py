"""Monte Carlo trial orchestration, containment statistics, scaling fits,
and empirical tail tables.

Reproducibility: trial ``i`` of a run always draws from the stream
``(seed, i)``.  Worker threads only sample and solve; their blocks of
solved spectra are joined in trial order into one ``(n, d)`` array, which
is classified in one pass, and every statistic is a reduction of that
array, so reports are identical for any worker count.
"""

from __future__ import annotations

import math
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import fixtures
from .errors import ConfigError, ExperimentError, ShapeError
from .geometry import DiskUnion, SymbolBand, critical_values, separation_radius
from .linalg import PolySymbol, jordan_corner, toeplitz_from_symbol
from .sampling import RankOnePerturbation, SeededRng, rank1_perturbation
from .spectra import (
    Spectra,
    charpoly_jordan_rank1,
    dense_eigenvalues,
    eigen_resolvent_aberth,
    poly_roots,
)

__all__ = [
    "StructureSpec",
    "ExperimentConfig",
    "ConcentrationReport",
    "build_region",
    "auto_route",
    "check_route",
    "solve",
    "run_experiment",
    "scaling_fit",
    "tail_norm_concentration",
    "tail_hanson_wright",
    "tail_carbery_wright",
    "tail_quadratic_form_diag",
    "corner_annulus_probability",
]

SOLVER_JORDAN_POLY = "jordan-poly"
SOLVER_RESOLVENT = "resolvent-aberth"
SOLVER_DENSE = "dense-qr"
_ROUTES = (SOLVER_DENSE, SOLVER_JORDAN_POLY, SOLVER_RESOLVENT)

# Fewest and most arguments of each structure kind.
_ARITY = {
    "zero": (0, 0),
    "scalar": (1, 1),
    "diagonal": (1, math.inf),
    "jordan": (0, 0),
    "jordan-corner": (1, 1),
    "toeplitz": (2, math.inf),
}

# Kinds whose base is its 1-D diagonal; zero and scalar are one-entry
# diagonals.
_DIAGONAL_KINDS = ("zero", "scalar", "diagonal")

_FAILURE_CAP = 0.01


def auto_route(structure):
    """The route for ``solver = auto``: resolvent-aberth for a diagonal base,
    jordan-poly for a degree-1 symbol (jordan too), dense QR otherwise."""
    if structure.kind in _DIAGONAL_KINDS:
        return SOLVER_RESOLVENT
    symbol = structure.symbol()
    if symbol is not None and symbol.degree == 1:
        return SOLVER_JORDAN_POLY
    return SOLVER_DENSE


def check_route(solver, structure):
    """``solver`` itself if it is ``auto``, the structure's
    :func:`auto_route` or dense QR; a :class:`ConfigError` otherwise."""
    if solver in ("auto", auto_route(structure), SOLVER_DENSE):
        return solver
    if solver not in _ROUTES:
        raise ConfigError(f"unknown solver {solver!r}; expected auto, " + ", ".join(_ROUTES))
    raise ConfigError(f"the {solver} solver does not apply to the {structure.label()} structure")


def solve(structure, d, perts, route):
    """The base of ``structure`` at dimension ``d`` plus each row of the
    block ``perts`` (a :class:`~pseudoscope.sampling.RankOnePerturbation`
    of arrays), solved by one route as one :class:`Spectra` block, a row per
    perturbation, in order.

    ``jordan-poly`` takes ``(a0, a1)`` from a degree-1 symbol (any other
    structure is a :class:`ShapeError`) and makes one :func:`poly_roots`
    call; the other routes build the base once (only ``dense-qr`` the dense
    d x d array) and solve the block in one call.  A row with a non-finite
    eigenvalue fails with the reason ``"non-finite eigenvalue"`` unless it
    failed already.  Route functions are looked up in this module at call
    time, so a patch here reaches every solve.
    """
    if route == SOLVER_JORDAN_POLY:
        if auto_route(structure) != SOLVER_JORDAN_POLY:
            raise ShapeError(f"jordan-poly needs a degree-1 symbol, not {structure.label()}")
        # a0 I + a1 J + E has the eigenvalues a0 + a1 nu of J + E / a1
        a0, a1 = structure.symbol().coeffs
        nu = poly_roots(charpoly_jordan_rank1(perts._replace(scale=perts.scale / a1)))
        out = Spectra(a0 + a1 * nu.eigenvalues, abs(a1) * nu.residual, nu.reason)
    elif route == SOLVER_RESOLVENT:
        out = eigen_resolvent_aberth(structure.base_matrix(d), perts)
    elif route == SOLVER_DENSE:
        out = dense_eigenvalues(structure.base_matrix(d), perts)
    else:
        raise ConfigError(f"unknown solver route {route!r}")
    out.reason[~np.isfinite(out.eigenvalues).all(axis=1) & (out.reason == "")] = (
        "non-finite eigenvalue")
    return out


def _parse_complex(text):
    text = text.strip()
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex number {text!r}") from exc


@dataclass(frozen=True)
class StructureSpec:
    """Which base matrix a run perturbs: a kind and its complex arguments.

    zero                   no arguments; the zero matrix
    scalar(C)              exactly one: C times the identity
    diagonal(g1, .., gm)   one or more distinct values, split evenly down
                           the diagonal
    jordan                 no arguments; the nilpotent block, symbol p(z) = z
    jordan-corner(rho)     exactly one, rho != 0: the block with rho in the
                           bottom-left corner
    toeplitz(a0, .., an)   two or more ascending symbol coefficients, the
                           last nonzero

    zero and scalar are one-entry diagonals, ``args or (0j,)``.
    """

    kind: str
    args: tuple = ()

    def __post_init__(self):
        if self.kind not in _ARITY:
            raise ConfigError(f"unknown structure kind {self.kind!r}")
        fewest, most = _ARITY[self.kind]
        if not fewest <= len(self.args) <= most:
            wanted = f"exactly {fewest}" if fewest == most else f"at least {fewest}"
            raise ConfigError(f"{self.kind} takes {wanted} argument(s), got {len(self.args)}")
        if self.kind == "toeplitz":
            self.symbol()  # PolySymbol rejects a zero last coefficient
        if self.kind == "jordan-corner" and self.args[0] == 0:
            raise ShapeError("jordan-corner needs a nonzero corner entry rho")

    @classmethod
    def parse(cls, text):
        """Parse forms like ``jordan``, ``scalar(1+2j)``, ``diagonal(2,3)``,
        ``jordan-corner(0.5)``, ``toeplitz(3,2,1)``."""
        text = text.strip()
        m = re.fullmatch(r"([a-z-]+)\s*(?:\(([^)]*)\))?", text)
        if not m:
            raise ConfigError(f"cannot parse structure {text!r}")
        parts = m.group(2).split(",") if m.group(2) else []
        return cls(m.group(1), tuple(_parse_complex(s) for s in parts if s.strip()))

    def label(self):
        if not self.args:
            return self.kind
        return f"{self.kind}(" + ",".join(_fmt_complex(a) for a in self.args) + ")"

    def symbol(self):
        """The symbol of a jordan or toeplitz base; None for the others."""
        if self.kind not in ("jordan", "toeplitz"):
            return None
        return PolySymbol(np.asarray(self.args or (0, 1)))

    def diagonal_entries(self, d):
        """Full length-d diagonal with the entries split as evenly as
        possible (earlier entries absorb the remainder)."""
        if self.kind not in _DIAGONAL_KINDS:
            raise ShapeError(f"{self.kind} has no prescribed diagonal")
        entries = self.args or (0j,)
        m = len(entries)
        if m > d:
            raise ConfigError(f"more diagonal entries ({m}) than dimension {d}")
        counts = [d // m + (1 if i < d % m else 0) for i in range(m)]
        return np.concatenate([np.full(c, complex(e)) for e, c in zip(entries, counts)])

    def base_matrix(self, d):
        """The 1-D diagonal for zero, scalar and diagonal; the dense d x d
        array otherwise."""
        if self.kind in _DIAGONAL_KINDS:
            return self.diagonal_entries(d)
        if self.kind == "jordan-corner":
            return jordan_corner(d, self.args[0])
        return toeplitz_from_symbol(self.symbol(), d)


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
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ConfigError(f"eps must be finite and positive, got {self.eps}")
        if self.region != "auto" and not (math.isfinite(self.region) and self.region > 0):
            raise ConfigError(f"region must be auto or finite and positive, got {self.region}")
        if self.trials < 1:
            raise ConfigError("trials must be positive")
        symbol = self.structure.symbol()
        if symbol is not None and symbol.degree > self.d - 1:
            raise ConfigError("symbol degree must be below the dimension")
        check_route(self.solver, self.structure)

    def resolved_solver(self):
        """The route for ``solver = auto``, from :func:`auto_route`."""
        if self.solver != "auto":
            return self.solver
        return auto_route(self.structure)

    def resolved_delta(self):
        """The region half-width.  A diagonal base's disks stay disjoint:
        ``auto`` is capped below the separation radius, and a larger
        explicit half-width is a :class:`ShapeError`."""
        auto = self.region == "auto"
        delta = fixtures.AUTO_DELTA[self.structure.kind] if auto else float(self.region)
        if self.structure.kind in _DIAGONAL_KINDS:
            separation = separation_radius(np.unique(self.structure.diagonal_entries(self.d)))
            if auto:
                delta = min(delta, 0.999 * separation)
            elif delta > separation:
                raise ShapeError(f"radius {delta} exceeds the separation radius "
                                 f"{separation}; disks would intersect")
        return delta


def build_region(cfg: ExperimentConfig):
    """The containment region and (for symbols with critical values) the
    exclusion disks of radius eps around them, a :class:`DiskUnion`;
    jordan's band is the annulus ``||lam| - 1| < delta``.

    The corner block's eigenvalues are the d-th roots of rho, so its
    region is the band of ``r z``, ``r = |rho|^(1/d)``.  Only the region
    has that symbol: the corner base is no Toeplitz matrix, so
    :meth:`StructureSpec.symbol` gives None for it and no route treats it
    as one.
    """
    kind = cfg.structure.kind
    delta = cfg.resolved_delta()
    if kind in _DIAGONAL_KINDS:
        centers = np.unique(np.asarray(cfg.structure.diagonal_entries(cfg.d)))
        return DiskUnion(centers, delta), None
    if kind == "jordan-corner":
        r = abs(cfg.structure.args[0]) ** (1.0 / cfg.d)
        return SymbolBand(PolySymbol([0, r]), delta), None
    p = cfg.structure.symbol()
    # with two nonzero terms above the constant, p' has a root: the disks have a center
    exclusion = DiskUnion(critical_values(p), cfg.eps) if p.nontrivial_count >= 2 else None
    return SymbolBand(p, delta), exclusion


@dataclass
class ConcentrationReport:
    """A run's statistics, and its solved trials as arrays: row k of
    ``eigenvalues`` and ``deviations`` (n, d) and ``max_outward[k]`` belong
    to trial ``indices[k]``; failed trials have no row."""

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
    indices: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)
    deviations: np.ndarray = field(repr=False)
    max_outward: np.ndarray = field(repr=False)
    # the classifying region and exclusion set, for the overlay; not serialised
    region: object = field(default=None, repr=False)
    exclusion: object = field(default=None, repr=False)


def _quantiles(x):
    return {
        "q50": float(np.quantile(x, 0.50)),
        "q90": float(np.quantile(x, 0.90)),
        "q99": float(np.quantile(x, 0.99)),
        "max": float(np.max(x)),
    }


def run_experiment(cfg: ExperimentConfig, threads=1) -> ConcentrationReport:
    """Run N independent perturbation trials, then classify every solved
    eigenvalue of the run against the structure's concentration region in
    one pass.

    Worker threads only sample and solve, each one contiguous block of
    trials: its draws are stacked into one block of perturbations and
    solved in one :func:`solve` call.  A trial whose row has a nonempty
    reason is a failed trial and has no row in the report's arrays; more
    than 1% failed trials aborts the run.
    """
    start = time.perf_counter()
    solver = cfg.resolved_solver()
    region, exclusion = build_region(cfg)

    def solve_block(block):
        # each draw is copied into the block and dropped, so the draws are never held twice
        u, v = np.empty((2, block.size, cfg.d), dtype=np.complex128)
        scale = np.empty(block.size)
        for k, i in enumerate(block):
            u[k], v[k], scale[k] = rank1_perturbation(cfg.d, cfg.eps, SeededRng(cfg.seed, i))
        return solve(cfg.structure, cfg.d, RankOnePerturbation(u, v, scale), solver)

    blocks = np.array_split(np.arange(cfg.trials), max(1, min(threads, cfg.trials)))
    if len(blocks) == 1:
        solved = solve_block(blocks[0])
    else:
        with ThreadPoolExecutor(max_workers=len(blocks)) as pool:
            parts = list(pool.map(solve_block, blocks))
        solved = Spectra(*map(np.concatenate, zip(*parts)))
        del parts  # the joined arrays replace them before classification

    indices = np.flatnonzero(solved.reason == "")
    failed = cfg.trials - indices.size
    if failed > _FAILURE_CAP * cfg.trials:
        raise ExperimentError(
            f"{failed} of {cfg.trials} trials failed, above the {_FAILURE_CAP:.0%} cap"
        )
    # the cap leaves at least one trial; without failures the rows are kept, not copied
    eigenvalues = solved.eigenvalues if failed == 0 else solved.eigenvalues[indices]
    flat = eigenvalues.reshape(-1)
    devs, outward, in_region = region.classify(flat)
    in_exclusion = np.zeros_like(in_region) if exclusion is None else exclusion.classify(flat)[2]
    inside = in_region | in_exclusion
    contained = inside.reshape(eigenvalues.shape).all(axis=1)
    deviations = devs.reshape(eigenvalues.shape)
    exclusion_only = np.count_nonzero(in_exclusion & ~in_region) / flat.size

    return ConcentrationReport(
        structure=cfg.structure.label(),
        d=cfg.d,
        eps=cfg.eps,
        trials=cfg.trials,
        seed=cfg.seed,
        solver=solver,
        delta=cfg.resolved_delta(),
        containment_fraction=np.count_nonzero(contained) / indices.size,
        eigenvalue_containment_fraction=np.count_nonzero(inside) / flat.size,
        deviation_quantiles=_quantiles(deviations.max(axis=1)),
        pooled_eigenvalue_quantiles=_quantiles(devs),
        exclusion_only_fraction=exclusion_only if exclusion is not None else None,
        failed_trials=failed,
        wall_time_s=time.perf_counter() - start,
        indices=indices,
        eigenvalues=eigenvalues,
        deviations=deviations,
        max_outward=outward.reshape(eigenvalues.shape).max(axis=1),
        region=region,
        exclusion=exclusion,
    )


def scaling_fit(structure: StructureSpec, dims, eps, trials, seed, threads=1,
                solver="auto"):
    """Median per-trial max deviation against dimension on a log-log grid.

    Fits ``log(median max-deviation) = slope * log(d) + intercept``; the
    outward-excess variant of the same fit is reported alongside because
    the two-sided maximum is dominated by inward outliers for the
    translation-invariant structures.
    """
    dims = [int(d) for d in dims]
    if len(set(dims)) < len(dims):
        raise ConfigError(f"scaling dimensions must be distinct, got {dims}")
    if len(dims) < 3:
        raise ConfigError("scaling needs at least 3 distinct dimensions")
    if min(dims) < 16:
        raise ConfigError("scaling dimensions must be at least 16")
    per_dim = []
    for d in dims:
        cfg = ExperimentConfig(
            structure=structure, d=d, eps=eps, trials=trials, seed=seed,
            solver=solver,
        )
        report = run_experiment(cfg, threads=threads)
        max_devs = report.deviations.max(axis=1)
        per_dim.append(
            {
                "d": d,
                "median_deviation": float(np.median(max_devs)),
                "q90_deviation": float(np.quantile(max_devs, 0.90)),
                "median_outward_deviation": float(np.median(report.max_outward)),
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


def _check_trials(trials):
    """Every tail table is a fraction over its trials, so it needs one."""
    if trials < 1:
        raise ConfigError("trials must be positive")


def _stream_pairs(d, trials, seed, vectors=2, chunk=20000):
    """Yield chunks of ``vectors`` arrays of shape (b, d), each trial's
    vectors drawn contiguously from stream (seed, 0).  The chunk size is
    part of the draw: Box-Muller splits each chunk's uniforms into radii
    and phases, so another chunk size gives other draws."""
    rng = SeededRng(seed, 0)
    done = 0
    while done < trials:
        b = min(chunk, trials - done)
        yield rng.complex_normals(vectors * b * d).reshape(b, vectors, d).swapaxes(0, 1)
        done += b


def _shifted_overlap_moduli(d, k, trials, seed):
    """Yield ``|v^dag J^k u|`` chunk by chunk, one entry per trial."""
    for u, v in _stream_pairs(d, trials, seed):
        yield np.abs(np.einsum("ij,ij->i", np.conj(v[:, : d - k]), u[:, k:]))


def tail_norm_concentration(d, t_grid, trials, seed):
    """Empirical one-sided tails of ``|xi|^2`` about its mean d, next to the
    exact values from the Gamma(d, 1) law of a sum of d unit exponentials.
    """
    # imported here: loading scipy would add about 0.2 s to every CLI start-up
    from scipy import special

    if d < 2:
        raise ShapeError("d must be at least 2")
    _check_trials(trials)
    t_grid = np.asarray(t_grid, dtype=float)
    upper = np.zeros(t_grid.size)
    lower = np.zeros(t_grid.size)
    for (xi,) in _stream_pairs(d, trials, seed, vectors=1):
        excess = (np.abs(xi) ** 2).sum(axis=1) - d
        upper += np.count_nonzero(excess >= t_grid[:, None] * d, axis=1)
        lower += np.count_nonzero(excess <= -t_grid[:, None] * d, axis=1)
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
    _check_trials(trials)
    t_grid = np.asarray(t_grid, dtype=float)
    counts = np.zeros(t_grid.size)
    for mags in _shifted_overlap_moduli(d, k, trials, seed):
        counts += np.count_nonzero(mags >= t_grid[:, None], axis=1)
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
    _check_trials(trials)
    t_grid = np.asarray(t_grid, dtype=float)
    frob = math.sqrt(d - k)
    counts = np.zeros(t_grid.size)
    for mags in _shifted_overlap_moduli(d, k, trials, seed):
        counts += np.count_nonzero(mags <= t_grid[:, None] * frob, axis=1)
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
    _check_trials(trials)
    gam = np.asarray(entries, dtype=np.complex128).reshape(-1)
    if not np.any(gam):
        raise ShapeError("entries must hold a nonzero value")
    d = gam.size
    t_grid = np.asarray(t_grid, dtype=float)
    counts = np.zeros(t_grid.size)
    for u, v in _stream_pairs(d, trials, seed):
        mags = np.abs(np.einsum("ij,j,ij->i", np.conj(v), gam, u))
        counts += np.count_nonzero(mags >= t_grid[:, None] * d, axis=1)
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
    _check_trials(trials)
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
