"""Command-line surface: experiment, scaling, tails, and oracle-check
subcommands over a flat key-value config with one [experiment] section.

Exit codes: 0 success, 1 oracle-equivalence violation, 2 malformed
configuration or arguments, 3 solver failure cap exceeded.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .errors import ConfigError, ExperimentError, ShapeError
from .experiments import (
    SOLVER_DENSE,
    ExperimentConfig,
    StructureSpec,
    auto_route,
    check_route,
    corner_annulus_probability,
    default_trials,
    run_experiment,
    scaling_fit,
    solve,
    tail_carbery_wright,
    tail_hanson_wright,
    tail_norm_concentration,
    tail_quadratic_form_diag,
)
from . import report as rp
from .sampling import SeededRng, rank1_perturbation
from .spectra import spectrum_match_distance

EXIT_OK = 0
EXIT_ORACLE = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

THREADS_ENV = "PSEUDOSCOPE_THREADS"

# Each tails kind and the keys it reads besides which, d, seed and trials.
TAIL_KEYS = {
    "norm": ("t_grid",),
    "hw": ("k", "t_grid"),
    "cw": ("k", "t_grid"),
    "qf-diag": ("entries", "t_grid"),
    "corner": ("delta",),
}
TAIL_KINDS = tuple(TAIL_KEYS)

# oracle-check covers every structure whose auto route is not dense QR:
# one or two of each kind, and two linear symbols besides jordan.
ORACLE_STRUCTURES = ("zero", "scalar(1+2j)", "diagonal(2,3)", "diagonal(1,2,3j)", "jordan",
                     "toeplitz(3,2)", "toeplitz(1+1j,0.5-2j)")
ORACLE_D_MAX = 512


def _read_config(path):
    """Parse the single-section key-value config; returns (values, lines)
    where lines maps each key to its 1-based line for error anchoring."""
    try:
        with open(path) as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    values = {}
    lines = {}
    section = None
    for i, line in enumerate(raw, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if text.startswith("["):
            if not text.endswith("]"):
                raise ConfigError("unterminated section header", line=i)
            section = text[1:-1].strip()
            if section != "experiment":
                raise ConfigError(f"unknown section [{section}]", line=i)
            continue
        if section is None:
            raise ConfigError("key outside the [experiment] section", line=i)
        if "=" not in text:
            raise ConfigError(f"expected key = value, got {text!r}", line=i)
        key, _, value = text.partition("=")
        key = key.strip()
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", line=i)
        values[key] = value.strip()
        lines[key] = i
    if section is None:
        raise ConfigError("missing [experiment] section", line=1)
    return values, lines


def _take(values, lines, key, conv, default=None, required=False):
    if key not in values:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return conv(values.pop(key))
    except ConfigError as exc:
        raise ConfigError(str(exc), line=lines.get(key)) from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}", line=lines.get(key)) from exc


def _float_list(text):
    items = [s.strip() for s in text.split(",") if s.strip()]
    return [float(s) for s in items]


def _int_list(text):
    items = [s.strip() for s in text.split(",") if s.strip()]
    return [int(s) for s in items]


def _dims(text):
    dims = _int_list(text)
    if len(set(dims)) < len(dims):
        raise ConfigError(f"dims repeats a dimension: {text}")
    return dims


def _complex_list(text):
    items = [s.strip() for s in text.split(",") if s.strip()]
    return [complex(s.replace(" ", "")) for s in items]


def _region_value(text):
    if text == "auto":
        return "auto"
    return float(text)


def _check_leftover(values, lines):
    for key in values:
        raise ConfigError(f"unknown key {key!r}", line=lines.get(key))


def _threads(args):
    """Worker threads from --threads, else $PSEUDOSCOPE_THREADS, else 1."""
    if args.threads is not None:
        threads, source = args.threads, "--threads"
    else:
        env = os.environ.get(THREADS_ENV)
        if not env:
            return 1
        try:
            threads, source = int(env), THREADS_ENV
        except ValueError:
            raise ConfigError(f"bad {THREADS_ENV} value {env!r}")
    if threads < 1:
        raise ConfigError(f"{source} must be at least 1, got {threads}")
    return threads


def _outdir(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _experiment_config(args, need_dims=False):
    values, lines = _read_config(args.config)
    structure = _take(values, lines, "structure", StructureSpec.parse, required=True)
    # scaling runs the dims it lists, and its fit reads each trial's maximum
    # deviation, which no half-width changes; experiment runs one dimension
    command, foreign = ("scaling", ("d", "region")) if need_dims else ("experiment", ("dims",))
    for key in foreign:
        if key in values:
            raise ConfigError(f"{command} takes no {key} key", line=lines[key])
    d = _take(values, lines, "d", int, required=not need_dims, default=0)
    eps = _take(values, lines, "eps", float, required=True)
    seed = _take(values, lines, "seed", int, default=0)
    if args.seed is not None:
        seed = args.seed
    trials = _take(values, lines, "trials", int)
    solver = _take(
        values, lines, "solver", lambda s: check_route(s, structure), default="auto"
    )
    region = _take(values, lines, "region", _region_value, default="auto")
    dims = _take(values, lines, "dims", _dims, default=None)
    _check_leftover(values, lines)
    if need_dims:
        if not dims:
            raise ConfigError("scaling needs a dims key with at least 3 entries")
        return structure, dims, eps, trials, seed, solver
    if trials is None:
        trials = default_trials(d)
    return ExperimentConfig(
        structure=structure, d=d, eps=eps, trials=trials, seed=seed,
        solver=solver, region=region,
    )


def cmd_experiment(args):
    cfg = _experiment_config(args)
    threads = _threads(args)
    out = _outdir(args)
    report = run_experiment(cfg, threads=threads)
    csv_path = os.path.join(out, "eigenvalues.csv")
    rp.write_eigenvalue_csv(csv_path, report.indices, report.eigenvalues)
    rp.write_json(os.path.join(out, "report.json"), rp.report_to_json_dict(report))
    rp.write_scatter_svg(
        os.path.join(out, "scatter.svg"),
        report.eigenvalues,
        rp.region_overlay_curves(report.region, report.exclusion),
    )
    rp.write_manifest(out, ["eigenvalues.csv", "report.json", "scatter.svg"])
    print(
        f"{report.structure} d={report.d} eps={report.eps} trials={report.trials}: "
        f"eigenvalue containment {report.eigenvalue_containment_fraction:.4f} "
        f"at delta={report.delta}, {report.wall_time_s:.2f}s, outputs in {out}"
    )
    return EXIT_OK


def cmd_scaling(args):
    structure, dims, eps, trials, seed, solver = _experiment_config(
        args, need_dims=True
    )
    if trials is None:
        trials = 200
    threads = _threads(args)
    out = _outdir(args)
    fit = scaling_fit(structure, dims, eps, trials, seed, threads=threads, solver=solver)
    rp.write_scaling_csv(os.path.join(out, "scaling.csv"), fit["per_dim"])
    rp.write_json(
        os.path.join(out, "scaling.json"),
        {"schema_version": rp.REPORT_SCHEMA_VERSION, "kind": "scaling", **fit},
    )
    rp.write_scaling_svg(os.path.join(out, "scaling.svg"), fit)
    rp.write_manifest(out, ["scaling.csv", "scaling.json", "scaling.svg"])
    print(
        f"{fit['structure']} dims={fit['dims']}: slope={fit['slope']:+.3f} "
        f"(outward {fit['slope_outward']:+.3f}), outputs in {out}"
    )
    return EXIT_OK


def _binomial_ok(emp, exact, n):
    se = math.sqrt(max(exact * (1.0 - exact), 0.0) / n)
    return abs(emp - exact) <= 3.0 * se + 2.0 / n


def cmd_tails(args):
    values, lines = _read_config(args.config)
    which = _take(values, lines, "which", str, required=True)
    if which not in TAIL_KINDS:
        raise ConfigError(f"which must be one of {TAIL_KINDS}, got {which!r}",
                          line=lines.get("which"))
    for key in ("k", "entries", "delta", "t_grid"):
        if key in values and key not in TAIL_KEYS[which]:
            raise ConfigError(f"tails {which} takes no {key} key", line=lines[key])
    if "entries" in values and "d" in values:
        raise ConfigError("tails qf-diag takes no d key with entries: d is their count",
                          line=lines["d"])
    d = _take(values, lines, "d", int, default=100)
    if d < 1:  # before any kind's default reads it (corner's delta is 3 / d)
        raise ConfigError("d must be positive", line=lines.get("d"))
    seed = _take(values, lines, "seed", int, default=0)
    if args.seed is not None:
        seed = args.seed
    trials = _take(values, lines, "trials", int, default=100000)
    if trials < 1:
        raise ConfigError("trials must be positive", line=lines.get("trials"))
    k = _take(values, lines, "k", int, default=None)
    entries = _take(values, lines, "entries", _complex_list, default=None)
    if entries is not None and not any(entries):  # 1 / max|entries| sets the decay scale
        raise ConfigError("entries must hold a nonzero value", line=lines["entries"])
    delta = _take(values, lines, "delta", float, default=None)
    t_grid = _take(values, lines, "t_grid", _float_list, default=None)
    _check_leftover(values, lines)
    out = _outdir(args)

    fitted = {}
    if which == "norm":
        table = tail_norm_concentration(d, t_grid or [0.1, 0.3, 0.5], trials, seed)
        ok = all(
            _binomial_ok(r["upper_empirical"], r["upper_exact"], trials)
            and _binomial_ok(r["lower_empirical"], r["lower_exact"], trials)
            for r in table["rows"]
        )
        columns = ["t", "upper_empirical", "upper_exact", "lower_empirical", "lower_exact"]
    elif which == "hw":
        kk = (d - 1) if k is None else k
        grid = t_grid or list(np.sqrt(d - kk) * np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0]))
        table = tail_hanson_wright(d, kk, grid, trials, seed)
        fitted["fitted_c"] = table["fitted_c"]
        ok = table["fitted_c"] > 0 and all(
            r["empirical"] <= math.e * r["envelope"] + 2.0 / trials
            for r in table["rows"]
        )
        columns = ["t", "empirical", "envelope"]
    elif which == "cw":
        grid = t_grid or list(np.logspace(-3, -1, 9))
        table = tail_carbery_wright(d, grid, trials, seed, k=1 if k is None else k)
        fitted["slope"] = table["slope"]
        ok = 0.4 <= table["slope"] <= 0.6
        columns = ["t", "smallball"]
    elif which == "qf-diag":
        ent = entries if entries is not None else [1.0] * d
        grid = t_grid or [0.1, 0.2, 0.3, 0.5, 0.75, 1.0]
        table = tail_quadratic_form_diag(ent, grid, trials, seed)
        fitted["fitted_rate"] = table["fitted_rate"]
        dd = table["d"]
        ok = all(
            r["empirical"]
            <= min(1.0, 3.0 * math.exp(-table["delta"] * r["t"] * math.sqrt(dd) / 2.0))
            + 2.0 / trials
            for r in table["rows"]
        )
        columns = ["t", "empirical"]
    else:  # corner
        dl = delta if delta is not None else 3.0 / d
        result = corner_annulus_probability(d, dl, trials, seed)
        table = {"rows": [
            {"delta": result["delta"], "empirical": result["empirical"], "exact": result["exact"]}
        ]}
        ok = _binomial_ok(result["empirical"], result["exact"], trials)
        columns = ["delta", "empirical", "exact"]

    verdict = "pass" if ok else "fail"
    rp.write_tails_csv(os.path.join(out, "tails.csv"), table, columns, verdict)
    rp.write_manifest(out, ["tails.csv"], extra={"which": which, "verdict": verdict, **fitted})
    print(f"tails {which}: verdict {verdict}" + (f" {fitted}" if fitted else ""))
    return EXIT_OK


def cmd_oracle_check(args):
    if not 5 <= args.d_max <= ORACLE_D_MAX:
        raise ConfigError(f"d-max must be between 5 and {ORACLE_D_MAX}")
    if args.trials < 1:
        raise ConfigError("trials must be positive")
    rng = np.random.default_rng(12345)
    failed = False
    for spec in map(StructureSpec.parse, ORACLE_STRUCTURES):
        route = auto_route(spec)
        # drawn up front, so a structure that stops early moves no later one's
        dims = [int(rng.integers(5, args.d_max + 1)) for _ in range(args.trials)]
        dist_max = 0.0
        for trial, d in enumerate(dims):
            pert = rank1_perturbation(d, 2.0, SeededRng(777, trial))
            fast, dense = (solve(spec, d, pert, r) for r in (route, SOLVER_DENSE))
            reason = fast.reason[0] or dense.reason[0]
            if reason:
                print(f"oracle-check {spec.label()} ({route}): trial {trial} failed: {reason}")
                failed = True
                break
            dist = spectrum_match_distance(fast.eigenvalues[0], dense.eigenvalues[0])
            scale = 1.0 + float(np.max(np.abs(dense.eigenvalues)))
            if dist > 1e-8 * scale:
                failed = True
            dist_max = max(dist_max, dist)
        else:
            print(f"oracle-check {spec.label()} ({route}): max matched distance {dist_max:.3e}")
    return EXIT_ORACLE if failed else EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pseudoscope",
        description="Eigenvalue clouds of triangular matrices under normalized "
        "rank-1 random perturbations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def run_command(name, func, summary, threads=True):
        """A command that reads a config; only experiment and scaling run
        worker threads."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="path to the run config")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if threads:
            p.add_argument("--threads", type=int, default=None,
                           help=f"worker threads (default ${THREADS_ENV} or 1)")
        p.set_defaults(func=func)

    run_command("experiment", cmd_experiment, "run one eigenvalue-cloud experiment")
    run_command("scaling", cmd_scaling, "fit the deviation-vs-dimension slope")
    run_command("tails", cmd_tails, "empirical tail tables against oracles", threads=False)

    p = sub.add_parser("oracle-check", help="cross-validate fast solvers against dense QR")
    p.add_argument("--d-max", type=int, default=50,
                   help=f"largest dimension drawn, 5 to {ORACLE_D_MAX}")
    p.add_argument("--trials", type=int, default=20, help="trials per structure")
    p.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ExperimentError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
