"""Benchmark of the pseudoscope CLI on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; see README.md.  One process pins BLAS to
one thread, imports ``pseudoscope`` from the checkout's ``src`` and parses
the workload's command line with the program's own parser: that is the
set-up.  Then the workload's CLI command runs in-process with
``--threads 1``, in rounds, until the rounds' wall time reaches S seconds.
Each round is timed alone; its outputs are checked and deleted between
rounds, outside every timed interval.  Peak memory is read after the last
round, before the sampled trials are matched to dense spectra (the only
check that imports scipy).  With ``--trace 1`` every round runs twice on
the same seed, plain and traced, and the per-layer metrics are medians
over the traced rounds.

Times are process CPU seconds (user + system).  The command is
single-threaded and writes only to the page cache, so on an idle machine
CPU time and wall time agree; on a shared host CPU time leaves out the
time the host takes the CPU away.  Wall times are printed alongside.
``trials_per_s`` is taken at the run's slowest round, which a burst of
extra speed from the host does not move (README.md has the figures).

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count trials, ``metrics`` holds the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, round_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
# The first rounds' outputs are also checked against dense spectra: one
# trial of an experiment, every trial of a scaling fit.  At d=512 one dense
# solve costs about a second.
DENSE_ROUNDS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description="Benchmark of the pseudoscope CLI.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_cli():
    """pseudoscope.cli from this checkout, never from an installed copy."""
    if not (SRC / "pseudoscope" / "__init__.py").is_file():
        raise SystemExit(f"no pseudoscope sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from pseudoscope import cli

    if Path(cli.__file__).resolve().parent != SRC / "pseudoscope":
        raise SystemExit(f"imported {cli.__file__}, not the checkout's sources")
    return cli


def run_command(cli, argv):
    """CPU and wall time of one CLI command, and whether it exited with 0."""
    cpu, wall = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(argv)
    except Exception:
        traceback.print_exc()
        code = None
    return time.process_time() - cpu, time.perf_counter() - wall, code == 0


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_runtime():
    """Thread count each loaded OpenBLAS reports, read through ctypes."""
    import ctypes

    found = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads_pinned": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads_runtime": blas_runtime(),
    }


def dir_bytes(path):
    return sum(f.stat().st_size for f in Path(path).iterdir() if f.is_file())


def measure(args, wl, cli, config, run_dir, setup_s):
    """The timed rounds, the checks, and the result object."""
    import checker
    import tracer as tracing

    from pseudoscope import errors

    tracer = tracing.Tracer(getattr(errors, "ConvergenceError", ()))
    errs, samples, cpus, walls, layers = [], [], [], [], []
    attempted = 0
    measured = 0.0
    r = 0
    while measured < args.seconds:
        seed = round_seed(args.seed, r)
        runs = [("plain", contextlib.nullcontext())]
        if args.trace:
            runs.append(("traced", tracer.installed()))
        for label, ctx in runs:
            out = run_dir / f"round-{r}-{label}"
            tracer.reset()
            with ctx:
                cpu, wall, ok = run_command(cli, wl.argv(config, out, seed))
            measured += wall
            attempted += wl.trials_per_round
            if label == "plain":
                cpus.append(cpu)
                walls.append(wall)
            if not ok:
                errs.append(f"round {r} ({label}, seed {seed}): command failed")
                continue
            if label == "traced":
                layers.append({**tracer.values(), "report.bytes": dir_bytes(out),
                               "trace.overhead_s": cpu - cpus[-1]})
            digest = checker.check_round(wl, seed, out, label == "plain" and r < DENSE_ROUNDS)
            errs += [f"round {r} ({label}): {e}" for e in digest.errors]
            samples += digest.samples
            shutil.rmtree(out)
        r += 1

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errs += checker.check_samples(wl, samples)

    if args.trace:
        metrics = {name: {"value": statistics.median_low(x[name] for x in layers),
                          "unit": tracing.UNITS[name]}
                   for name in tracing.UNITS} if layers else {}
    else:
        # The slowest round: the rate every round of the run reached.
        metrics = {"trials_per_s": {"value": wl.trials_per_round / max(cpus), "unit": "trials/s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_mb, "unit": "MB"}}
    for e in errs[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    notes = {"rounds": r, "round_cpu_s": [round(c, 4) for c in cpus],
             "round_wall_s": [round(w, 4) for w in walls]}
    if args.trace:
        notes["unmeasured"] = tracer.unmeasured()
    return notes, {"correct": not errs, "attempted": attempted,
                   "failed": attempted if errs else 0, "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    # Before numpy is first imported, so the pin holds for the whole process.
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    os.environ.pop("PSEUDOSCOPE_THREADS", None)
    cli = import_cli()
    RUNS.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=wl.name + "-", dir=RUNS))
    try:
        config = run_dir / "run.cfg"
        config.write_text(wl.config_text())
        cli.build_parser().parse_args(wl.argv(config, run_dir / "out", 0))
        setup_s = time.process_time()
        notes, result = measure(args, wl, cli, config, run_dir, setup_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUNS.rmdir()
    print(json.dumps({"environment": environment()}))
    print(json.dumps(notes))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
