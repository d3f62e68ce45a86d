#!/usr/bin/env python3
"""Fit the scaling of ``jordan``'s deviation at large dimensions.

    PYTHONPATH=src python tools/outward_fit.py [--trials 12]

Runs ``scaling_fit``, the fit behind the ``scaling`` command, on ``jordan``
at eps=2 and seed 2025 over d=512, 1024, 2048 and 4096 on the
``jordan-poly`` route, with one BLAS thread and one worker thread.  It prints one JSON object: the fit
(the two-sided and the outward-excess slopes and the per-dimension medians),
the process CPU seconds and the process's peak RSS in MB, which the d=4096
solves set.  A measurement, not a test: it runs for about a minute.
"""

import argparse
import json
import os
import resource
import time

DIMS = (512, 1024, 2048, 4096)
SEED = 2025


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=12)
    args = parser.parse_args(argv)
    # before numpy is first imported, so the pin holds for the whole process
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    from pseudoscope import StructureSpec, scaling_fit

    start = time.process_time()
    fit = scaling_fit(StructureSpec.parse("jordan"), DIMS, 2.0, args.trials, SEED)
    fit["cpu_s"] = round(time.process_time() - start, 2)
    fit["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    print(json.dumps(fit, indent=1))


if __name__ == "__main__":
    main()
