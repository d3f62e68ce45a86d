"""Checks of the CLI's output files against computations made apart from
the program.

The perturbation of trial ``i`` is regenerated from the rule the README
documents: a Philox generator keyed by ``(seed << 64) | i``, then
Box-Muller on its uniforms, ``u`` drawn before ``v``.  Spectra, region
deviations, containment and scaling fits are recomputed here with numpy
(``numpy.roots`` for band preimages, closed forms for annuli and disks),
never with the program's own functions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MASK64 = (1 << 64) - 1

# Power sums of a correct spectrum agree to rounding (about 1e-16 of this);
# a root off by 1e-6 moves them by more than this, scaled by
# d * (1 + radius)^k, for every workload up to d=512.
POWER_SUM_TOL = 1e-10
# Matched distance to the dense spectrum, relative to 1 + max|lambda|.
DENSE_TOL = 1e-8
# Recomputed statistics (quantiles, medians) against the reported ones.
STAT_TOL = 1e-9
SLOPE_TOL = 1e-7
# Deviations this close to a region boundary may round either way.
BOUNDARY_MARGIN = 1e-9
# The paper's containment bound, as acceptance criteria 05 and 07 use it.
MIN_CONTAINMENT = 0.99


def draws(seed, trial, d):
    """The (u, v) pair of one trial."""
    key = ((seed & MASK64) << 64) | (trial & MASK64)
    gen = np.random.Generator(np.random.Philox(key=key))
    pair = []
    for _ in range(2):
        w = gen.random((2, d))
        pair.append(np.sqrt(-np.log1p(-w[0])) * np.exp(2j * np.pi * w[1]))
    return pair


def base_diagonal(wl, d):
    if wl.diagonal:
        m = len(wl.diagonal)
        counts = [d // m + (1 if i < d % m else 0) for i in range(m)]
        return np.repeat(np.asarray(wl.diagonal, dtype=complex), counts)
    return np.full(d, complex(wl.symbol[0]))


def base_times(wl, x):
    """T @ x without forming T."""
    d = x.size
    y = base_diagonal(wl, d) * x
    for k, a in enumerate(wl.symbol[1:], start=1):
        y[: d - k] += a * x[k:]
    return y


def base_dense(wl, d):
    t = np.diag(base_diagonal(wl, d))
    for k, a in enumerate(wl.symbol[1:], start=1):
        t += a * np.eye(d, k=k, dtype=complex)
    return t


def radius_bound(wl):
    """Bound on the spectral radius of T + E: ||T|| + eps."""
    if wl.diagonal:
        return max(abs(g) for g in wl.diagonal) + wl.eps
    return sum(abs(a) for a in wl.symbol) + wl.eps


def power_sum_error(wl, u, v, lams):
    """Scaled misfit of sum(lam) and sum(lam^2) against the exact values
    tr T + s v^dag u and tr T^2 + 2 s v^dag T u + s^2 (v^dag u)^2."""
    d = u.size
    s = wl.eps / (np.linalg.norm(u) * np.linalg.norm(v))
    diag = base_diagonal(wl, d)
    vu = np.vdot(v, u)
    p1 = diag.sum() + s * vu
    p2 = (diag * diag).sum() + 2.0 * s * np.vdot(v, base_times(wl, u)) + (s * vu) ** 2
    m = 1.0 + radius_bound(wl)
    return max(abs(lams.sum() - p1) / (d * m), abs((lams * lams).sum() - p2) / (d * m * m))


def dense_spectrum(wl, seed, trial, d):
    u, v = draws(seed, trial, d)
    s = wl.eps / (np.linalg.norm(u) * np.linalg.norm(v))
    return np.linalg.eigvals(base_dense(wl, d) + s * np.outer(u, np.conj(v)))


def deviations(wl, lams):
    """Distance of each eigenvalue to the region's reference set."""
    if wl.diagonal:
        centers = np.unique(np.asarray(wl.diagonal, dtype=complex))
        return np.min(np.abs(lams[:, None] - centers[None, :]), axis=1)
    if tuple(wl.symbol) == (0.0, 1.0):
        return np.abs(np.abs(lams) - 1.0)
    desc = np.asarray(wl.symbol[::-1], dtype=complex)
    out = np.empty(lams.size)
    for i, lam in enumerate(lams):
        poly = desc.copy()
        poly[-1] -= lam
        out[i] = np.min(np.abs(np.abs(np.roots(poly)) - 1.0))
    return out


def exclusion_distances(wl, lams):
    """Distance to the nearest critical value of the symbol, or None when
    the symbol has fewer than two nonzero non-constant coefficients."""
    coeffs = np.asarray(wl.symbol, dtype=complex)
    if coeffs.size < 3 or np.count_nonzero(coeffs[1:]) < 2:
        return None
    deriv = coeffs[1:] * np.arange(1, coeffs.size)
    crit = np.polyval(coeffs[::-1], np.roots(deriv[::-1]))
    return np.min(np.abs(lams[:, None] - crit[None, :]), axis=1)


def _quantiles(x):
    return {"q50": np.quantile(x, 0.50), "q90": np.quantile(x, 0.90),
            "q99": np.quantile(x, 0.99), "max": np.max(x)}


def _close(a, b, tol):
    return abs(a - b) <= tol * (1.0 + abs(b))


def read_eigenvalues(path, trials, d):
    """eigenvalues.csv as a (trials, d) array; checks the row layout."""
    with open(path) as fh:
        header = fh.readline().strip()
    if header != "trial,index,re,im":
        raise ValueError(f"unexpected header {header!r}")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape != (trials * d, 4):
        raise ValueError(f"{rows.shape[0]} rows, expected {trials * d}")
    if not (np.array_equal(rows[:, 0], np.repeat(np.arange(trials), d))
            and np.array_equal(rows[:, 1], np.tile(np.arange(d), trials))):
        raise ValueError("rows are not in (trial, index) order")
    return (rows[:, 2] + 1j * rows[:, 3]).reshape(trials, d)


@dataclass
class Sample:
    """One trial kept for the dense comparison after the timed rounds."""

    seed: int
    trial: int
    eigenvalues: np.ndarray


@dataclass
class Digest:
    errors: list = field(default_factory=list)
    samples: list = field(default_factory=list)


def check_experiment(wl, seed, out, dense):
    """Check one `experiment` command's outputs in directory ``out``; with
    ``dense`` keep one trial for the comparison with a dense spectrum."""
    out = Path(out)
    dig = Digest()
    d = wl.dims[0]
    report = json.loads((out / "report.json").read_text())
    if report["failed_trials"] != 0:
        dig.errors.append(f"failed_trials = {report['failed_trials']}")
    if report["config"]["trials"] != wl.trials:
        dig.errors.append(f"report.json trials {report['config']['trials']} != {wl.trials}")
    try:
        lams = read_eigenvalues(out / "eigenvalues.csv", wl.trials, d)
    except ValueError as exc:
        dig.errors.append(f"eigenvalues.csv: {exc}")
        return dig
    circles = (out / "scatter.svg").read_bytes().count(b"<circle ")
    if circles != lams.size:
        dig.errors.append(f"scatter.svg has {circles} points, expected {lams.size}")

    for i in range(wl.trials):
        u, v = draws(seed, i, d)
        err = power_sum_error(wl, u, v, lams[i])
        if not err <= POWER_SUM_TOL:
            dig.errors.append(f"seed {seed} trial {i}: power sums off by {err:.3e}")
    if dense:
        trial = seed % wl.trials
        dig.samples.append(Sample(seed, trial, lams[trial]))

    flat = lams.reshape(-1)
    dev = deviations(wl, flat)
    inside_lo = dev < wl.delta - BOUNDARY_MARGIN
    inside_hi = dev < wl.delta + BOUNDARY_MARGIN
    excl = exclusion_distances(wl, flat)
    if excl is not None:
        inside_lo |= excl < wl.eps - BOUNDARY_MARGIN
        inside_hi |= excl < wl.eps + BOUNDARY_MARGIN
    frac = report["eigenvalue_containment_fraction"]
    count = round(frac * flat.size)
    if not (abs(count / flat.size - frac) < 1e-12
            and np.count_nonzero(inside_lo) <= count <= np.count_nonzero(inside_hi)):
        dig.errors.append(
            f"containment {frac!r} does not match the recomputed "
            f"{np.count_nonzero(inside_lo)}..{np.count_nonzero(inside_hi)} of {flat.size}")
    if frac < MIN_CONTAINMENT:
        dig.errors.append(f"containment {frac} below {MIN_CONTAINMENT}")
    for key, want in _quantiles(dev).items():
        got = report["pooled_eigenvalue_quantiles"][key]
        if not _close(got, want, STAT_TOL):
            dig.errors.append(f"pooled {key} {got!r} != recomputed {want!r}")
    return dig


def check_scaling(wl, seed, out, dense):
    """Check one `scaling` command's outputs: the fitted slopes against the
    reported medians, and with ``dense`` the medians themselves against
    dense spectra of the same draws."""
    dig = Digest()
    fit = json.loads((Path(out) / "scaling.json").read_text())
    rows = fit["per_dim"]
    if (fit["dims"] != list(wl.dims) or fit["trials"] != wl.trials
            or [row["d"] for row in rows] != list(wl.dims)):
        dig.errors.append(f"scaling.json dims/trials {fit['dims']}/{fit['trials']}")
        return dig
    for d, row in zip(wl.dims if dense else (), rows):
        devs, outward = [], []
        for i in range(wl.trials):
            lams = dense_spectrum(wl, seed, i, d)
            devs.append(np.max(deviations(wl, lams)))
            outward.append(max(np.max(np.abs(lams)) - 1.0, 0.0))
        want = {"median_deviation": np.median(devs), "q90_deviation": np.quantile(devs, 0.90),
                "median_outward_deviation": np.median(outward)}
        for key, value in want.items():
            if not _close(row[key], value, STAT_TOL):
                dig.errors.append(f"d={d} {key} {row[key]!r} != recomputed {value!r}")
    logd = np.log(wl.dims)
    meds = [row["median_deviation"] for row in rows]
    outs = [row["median_outward_deviation"] for row in rows]
    slopes = {"slope": np.polyfit(logd, np.log(meds), 1)[0]}
    if min(outs) > 0:
        slopes["slope_outward"] = np.polyfit(logd, np.log(outs), 1)[0]
    for key, value in slopes.items():
        if not _close(fit[key], value, SLOPE_TOL):
            dig.errors.append(f"{key} {fit[key]!r} != refitted {value!r}")
    return dig


def check_samples(wl, samples):
    """Dense ``numpy.linalg.eigvals`` spectra of the kept trials, matched to
    the reported ones by ``scipy.optimize.linear_sum_assignment``."""
    from scipy.optimize import linear_sum_assignment

    errors = []
    for smp in samples:
        dense = dense_spectrum(wl, smp.seed, smp.trial, smp.eigenvalues.size)
        cost = np.abs(smp.eigenvalues[:, None] - dense[None, :])
        rows, cols = linear_sum_assignment(cost)
        dist = float(np.max(cost[rows, cols]))
        if not dist <= DENSE_TOL * (1.0 + float(np.max(np.abs(dense)))):
            errors.append(f"seed {smp.seed} trial {smp.trial}: matched distance "
                          f"{dist:.3e} to the dense spectrum")
    return errors


def check_round(wl, seed, out, dense):
    if wl.command == "scaling":
        return check_scaling(wl, seed, out, dense)
    return check_experiment(wl, seed, out, dense)
