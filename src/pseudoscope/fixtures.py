"""Frozen calibration constants for the automatic region width.

The values are the 99.9th percentile of the per-eigenvalue deviation
measured by the dense-solver pilot at d=100, eps=2, N=1000 trials,
seed 20250809, rounded up to two decimals.  Regenerate with::

    python tools/pilot.py

and update this file if the pilot setup changes.  The diagonal value is
additionally capped below the separation radius of the diagonal values,
so that the disks stay disjoint.  ``zero`` is the ``scalar(0)`` base, so the pilot's scalar case
calibrates both.  The ``jordan-corner`` value is copied from ``jordan``;
no pilot case measures it.
"""

PILOT_SEED = 20250809
PILOT_DIM = 100
PILOT_EPS = 2.0
PILOT_TRIALS = 1000

# 99.9th percentile of per-eigenvalue deviation, by structure kind.
AUTO_DELTA = {
    "jordan": 0.79,
    "jordan-corner": 0.79,
    "toeplitz": 0.79,
    "diagonal": 0.26,
    "scalar": 0.31,
    "zero": 0.31,
}
