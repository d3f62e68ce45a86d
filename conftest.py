"""Pin numpy's BLAS to one thread for the whole test run.

This file is loaded before any test module imports numpy.  With a second
BLAS thread, a busy neighbouring process stalls the many small dense
solves: on a 2-vCPU VM beside a single-threaded numpy loop,
``test_criterion_07_general_symbol_band`` took 25.5 s unpinned and 7.5 s
pinned (10.0 s and 7.8 s alone).
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
