#!/usr/bin/env python3
"""Regenerate the calibration constants in src/pseudoscope/fixtures.py.

Runs the dense eigensolver (never the fast paths) at the reference setting
d=100, eps=2, N=1000 and prints the 99.9th percentile of the per-eigenvalue
deviation for each structure kind.  The frozen AUTO_DELTA values are these
numbers rounded up to two decimals.
"""

import numpy as np

from pseudoscope import fixtures
from pseudoscope.experiments import ExperimentConfig, StructureSpec, run_experiment

D = fixtures.PILOT_DIM
EPS = fixtures.PILOT_EPS
TRIALS = fixtures.PILOT_TRIALS
SEED = fixtures.PILOT_SEED

CASES = {
    "jordan": StructureSpec.parse("jordan"),
    "toeplitz": StructureSpec.parse("toeplitz(3,2,1)"),
    "diagonal": StructureSpec.parse("diagonal(2,3)"),
    "scalar": StructureSpec.parse("scalar(0)"),
}


def main():
    print(f"pilot: d={D} eps={EPS} trials={TRIALS} seed={SEED} (dense solver)")
    for kind, spec in CASES.items():
        cfg = ExperimentConfig(
            structure=spec, d=D, eps=EPS, trials=TRIALS, seed=SEED,
            solver="dense-qr", region=0.5,
        )
        devs = run_experiment(cfg).deviations
        q999 = float(np.quantile(devs, 0.999))
        frozen = fixtures.AUTO_DELTA[kind]
        status = "ok" if q999 <= frozen else "STALE"
        print(
            f"  {kind:9s} q99={np.quantile(devs, 0.99):.4f} q99.9={q999:.4f} "
            f"max={devs.max():.4f} frozen={frozen} [{status}]"
        )


if __name__ == "__main__":
    main()
