#!/usr/bin/env python3
"""Check that two source trees write byte-identical outputs.

    python tools/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are ``src`` directories holding a ``pseudoscope``
package.  Every run below is made once from each tree, each in its own
subprocess with that tree on ``PYTHONPATH`` and one BLAS thread, at seed
2025: ``experiment`` on every structure kind (two diagonal and three
Toeplitz cases, one of them the linear ``toeplitz(3,2)`` on the
``jordan-poly`` route) at d=100 with 100 trials, ``experiment`` on
``diagonal(2,3)`` at d=512 with 200 trials (the largest files a run writes:
about 5 MB of CSV and 8 MB of SVG), ``experiment`` on a diagonal of 40
distinct values at d=100 with 100 trials (whose 40 x 40 deflated matrices
``resolvent-aberth`` solves in several stacks), ``experiment`` on
``diagonal(2,3)`` with ``solver = dense-qr`` at d=100 with 100 trials (the
one run that sends a 1-D diagonal base down ``dense-qr``), ``experiment``
on ``jordan`` at d=1024 with 10 trials (where ``jordan-poly`` splits each
trial's pairwise root differences into several blocks), ``experiment`` on
``jordan`` at d=100 with one trial (where every column holds the same bits
in every row, so the writers format the whole row into their templates)
and ``scaling`` on
``jordan``, all with ``--threads 1``, the five ``tails`` kinds (which take no
``--threads``), plus ``experiment`` on ``jordan``, ``diagonal(2,3)`` and
``toeplitz(0,1,0.5,0.25)`` with ``--threads 3``, so that a tree that splits
work across threads differently is held to the same bytes, and
``oracle-check --d-max 60 --trials 20``, which writes no files: its stdout,
one line per structure, is saved as the run's ``stdout.txt`` and compared.
The script prints each output file whose sha256 differs, or that only one
tree wrote, and exits 1 if there is any; a run that fails in either tree
counts as a difference.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = 2025
EXPERIMENT_STRUCTURES = (
    "zero", "scalar(1+2j)", "diagonal(2,3)", "diagonal(1,2,3j)", "jordan",
    "jordan-corner(0.5)", "toeplitz(3,2)", "toeplitz(3,2,1)", "toeplitz(0,1,0.5,0.25)",
)
THREADED_STRUCTURES = ("jordan", "diagonal(2,3)", "toeplitz(0,1,0.5,0.25)")
# 40 distinct values on a complex grid
FORTY_VALUES = "diagonal(" + ",".join(f"{k % 8}+{k // 8}j" for k in range(40)) + ")"
TAIL_KINDS = ("norm", "hw", "cw", "qf-diag", "corner")
ORACLE_CHECK_ARGS = ["--d-max", "60", "--trials", "20"]
SINGLE_THREAD = {name: "1" for name in
                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def runs():
    """(name, command, config body or None, threads or None) of every
    compared run; a run without a config is compared by its stdout."""
    for structure in EXPERIMENT_STRUCTURES:
        yield (f"experiment-{structure}", "experiment",
               f"structure = {structure}\nd = 100\neps = 2.0\ntrials = 100\n", 1)
    yield ("experiment-diagonal(2,3)-d512", "experiment",
           "structure = diagonal(2,3)\nd = 512\neps = 2.0\ntrials = 200\n", 1)
    yield ("experiment-diagonal-40-values", "experiment",
           f"structure = {FORTY_VALUES}\nd = 100\neps = 2.0\ntrials = 100\n", 1)
    yield ("experiment-diagonal(2,3)-dense-qr", "experiment",
           "structure = diagonal(2,3)\nd = 100\neps = 2.0\ntrials = 100\nsolver = dense-qr\n", 1)
    yield ("experiment-jordan-d1024", "experiment",
           "structure = jordan\nd = 1024\neps = 2.0\ntrials = 10\n", 1)
    yield ("experiment-jordan-one-trial", "experiment",
           "structure = jordan\nd = 100\neps = 2.0\ntrials = 1\n", 1)
    for structure in THREADED_STRUCTURES:
        yield (f"experiment-{structure}-threads3", "experiment",
               f"structure = {structure}\nd = 100\neps = 2.0\ntrials = 100\n", 3)
    yield ("scaling-jordan", "scaling",
           "structure = jordan\ndims = 64,128,256\neps = 2.0\ntrials = 20\n", 1)
    for which in TAIL_KINDS:
        # 45000 trials draw in three chunks of at most 20000
        yield f"tails-{which}", "tails", f"which = {which}\nd = 40\ntrials = 45000\n", None
    yield "oracle-check", "oracle-check", None, None


def run_tree(src, root):
    """Run every config from the tree ``src`` into ``root``; return the
    names of the runs that failed."""
    env = {**os.environ, **SINGLE_THREAD, "PYTHONPATH": str(Path(src).resolve())}
    root.mkdir()
    failed = []
    for name, command, body, threads in runs():
        argv = [sys.executable, "-m", "pseudoscope.cli", command]
        if body is None:  # oracle-check reads no config and writes no files
            argv += ORACLE_CHECK_ARGS
        else:
            cfg = root / f"{name}.cfg"
            cfg.write_text(f"[experiment]\n{body}seed = {SEED}\n")
            argv += ["--config", str(cfg), "--out", str(root / name)]
        if threads is not None:
            argv += ["--threads", str(threads)]
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
        if body is None:
            (root / name).mkdir()
            (root / name / "stdout.txt").write_text(proc.stdout)
        if proc.returncode != 0:
            print(f"{src}: {name} exited {proc.returncode}: {proc.stderr.strip()}")
            failed.append(name)
    return failed


def digests(root):
    """sha256 of every file under each run directory of ``root``."""
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.glob("*/*"))
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        old_root, new_root = Path(tmp, "old"), Path(tmp, "new")
        failed = run_tree(args.old_src, old_root) + run_tree(args.new_src, new_root)
        old, new = digests(old_root), digests(new_root)
    differing = sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))
    for name in differing:
        print(f"differs: {name}")
    identical = sum(digest == new.get(name) for name, digest in old.items())
    print(f"{identical} files identical, {len(differing)} differ, {len(failed)} runs failed")
    return 1 if differing or failed else 0


if __name__ == "__main__":
    sys.exit(main())
