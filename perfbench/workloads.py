"""The four benchmark workloads.

Each workload is one ``pseudoscope`` command line and config, run again
and again in rounds.  Round ``r`` of a run with benchmark seed ``n`` passes
``--seed 1000*n + r`` to the CLI, so the draws (trial ``i`` uses the Philox
stream ``(seed, i)``) differ between rounds and between runs, and the same
benchmark seed always gives the same inputs.

Besides the config, a workload describes its base matrix in plain numbers
(``symbol`` or ``diagonal``) so that the checker can rebuild it without the
program's own structure parser.
"""

from __future__ import annotations

from dataclasses import dataclass

SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    command: str           # "experiment" or "scaling"
    structure: str         # the structure as written in the config
    dims: tuple            # (d,) for experiment, the fitted dimensions for scaling
    trials: int            # trials per round (per dimension for scaling)
    eps: float = 2.0
    delta: float = None    # explicit region half-width (experiment only)
    solver: str = "auto"
    symbol: tuple = ()     # ascending Toeplitz symbol coefficients; jordan is (0, 1)
    diagonal: tuple = ()   # distinct diagonal values, split evenly over d

    @property
    def trials_per_round(self):
        return self.trials * len(self.dims)

    def config_text(self):
        lines = ["[experiment]", f"structure = {self.structure}", f"eps = {self.eps!r}",
                 f"trials = {self.trials}"]
        if self.command == "scaling":
            lines.append("dims = " + ",".join(str(d) for d in self.dims))
        else:
            lines += [f"d = {self.dims[0]}", f"solver = {self.solver}",
                      f"region = {self.delta!r}"]
        return "\n".join(lines) + "\n"

    def argv(self, config, out, seed):
        return [self.command, "--config", str(config), "--out", str(out),
                "--seed", str(seed), "--threads", "1"]


def round_seed(seed, r):
    return SEED_STRIDE * seed + r


# Region half-widths are written out (the values `region = auto` resolves
# to: 0.79 for bands, 0.26 for diagonal(2,3)) so the checker knows them
# without reading the program's fixtures.
WORKLOADS = {w.name: w for w in (
    # The command behind the delta_d ~ 1/sqrt(d) fit: jordan-poly route from
    # overhead-bound (d=64) to repulsion-bound (d=256); writes no eigenvalues.
    Workload("scaling-jordan", "scaling", "jordan", (64, 128, 256), 4,
             symbol=(0.0, 1.0)),
    # Criterion 07's configuration; `auto` picks resolvent-aberth, whose
    # back-substitution loop dominates.
    Workload("toeplitz-d100", "experiment", "toeplitz(3,2,1)", (100,), 8,
             delta=0.79, symbol=(3.0, 2.0, 1.0)),
    # Degree-3 band: classification (preimage solves, exclusion disks)
    # dominates.  dense-qr because `auto` (resolvent-aberth) returns wrong
    # spectra for this symbol.
    Workload("cubic-dense-d100", "experiment", "toeplitz(0,1,0.5,0.25)", (100,), 5,
             delta=0.79, solver="dense-qr", symbol=(0.0, 1.0, 0.5, 0.25)),
    # Deflation makes the solve ~1 ms, so sampling and the eigenvalues.csv /
    # scatter.svg writers carry the time and the memory.
    Workload("diagonal-d512", "experiment", "diagonal(2,3)", (512,), 200,
             delta=0.26, diagonal=(2.0, 3.0)),
)}
