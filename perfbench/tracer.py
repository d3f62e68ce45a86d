"""Per-layer tracing from outside the program.

Each traced name is patched in the namespace of the module that calls it,
so one function counts toward the layer its caller implies: ``poly_roots``
looked up in ``experiments`` is the jordan-poly solve, looked up in
``geometry`` it is a band preimage solve.  A call made while a span of the
same group is open is not a span of its own (``write_manifest`` calling
``write_json`` is manifest time; a region's ``contains_many`` calling its
``deviation`` is containment time).  Busy time is the process CPU time a
span covers; self time subtracts the spans opened beneath it.

A name missing from the program is skipped; a metric none of whose names
exists is reported as unmeasured.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

P = "pseudoscope."
REGIONS = ("DiskUnion", "Annulus", "SymbolBand")

# (owner, attribute, span, group or None for the span itself, counts calls,
#  counts ConvergenceError).  An owner "module:Class" patches a method.
PATCHES = [
    (P + "cli", "run_experiment", "experiments", None, True, False),
    (P + "cli", "scaling_fit", "experiments", None, True, False),
    (P + "experiments", "run_experiment", "experiments", None, True, False),
    (P + "experiments", "rank1_perturbation", "sampling", None, True, False),
    (P + "spectra", "jordan_quadratic_forms", "linalg.quadratic_forms", None, True, False),
    (P + "experiments", "charpoly_jordan_rank1", "spectra.jordan_poly", None, False, True),
    (P + "experiments", "poly_roots", "spectra.jordan_poly", None, True, True),
    (P + "experiments", "eigen_resolvent_aberth", "spectra.resolvent", None, True, True),
    (P + "experiments", "apply_perturbation", "spectra.dense", None, False, True),
    (P + "experiments", "dense_eigenvalues", "spectra.dense", None, True, True),
    *[(f"{P}geometry:{c}", "deviation", "geometry.deviation", "geometry.region", True, False)
      for c in REGIONS],
    *[(f"{P}geometry:{c}", "contains_many", "geometry.contains", "geometry.region", True, False)
      for c in REGIONS],
    (P + "geometry:ExclusionSet", "mask", "geometry.exclusion", None, True, False),
    (P + "geometry", "poly_roots", "geometry.preimage", None, True, False),
    (P + "geometry", "symbol_preimages", "geometry.preimage_solves", None, True, False),
    (P + "experiments", "symbol_preimages", "geometry.preimage_solves", None, True, False),
    (P + "report", "write_eigenvalue_csv", "report.csv", "report", True, False),
    (P + "report", "write_scaling_csv", "report.csv", "report", True, False),
    (P + "report", "write_scatter_svg", "report.svg", "report", True, False),
    (P + "report", "write_scaling_svg", "report.svg", "report", True, False),
    (P + "report", "write_json", "report.json", "report", True, False),
    (P + "report", "write_manifest", "report.manifest", "report", True, False),
]

# Reported per-layer metric -> (span, statistic).
SPAN_METRICS = {
    "sampling.calls": ("sampling", "calls"),
    "sampling.busy_s": ("sampling", "busy"),
    "linalg.quadratic_forms.busy_s": ("linalg.quadratic_forms", "busy"),
    "spectra.jordan_poly.calls": ("spectra.jordan_poly", "calls"),
    "spectra.jordan_poly.busy_s": ("spectra.jordan_poly", "busy"),
    "spectra.resolvent.calls": ("spectra.resolvent", "calls"),
    "spectra.resolvent.busy_s": ("spectra.resolvent", "busy"),
    "spectra.dense.calls": ("spectra.dense", "calls"),
    "spectra.dense.busy_s": ("spectra.dense", "busy"),
    "spectra.convergence_failures": ("spectra.*", "failures"),
    "geometry.deviation.busy_s": ("geometry.deviation", "busy"),
    "geometry.contains.busy_s": ("geometry.contains", "busy"),
    "geometry.exclusion.busy_s": ("geometry.exclusion", "busy"),
    "geometry.preimage.busy_s": ("geometry.preimage", "busy"),
    "geometry.preimage_solves": ("geometry.preimage_solves", "calls"),
    "experiments.self_s": ("experiments", "self"),
    "report.csv.busy_s": ("report.csv", "busy"),
    "report.svg.busy_s": ("report.svg", "busy"),
    "report.json.busy_s": ("report.json", "busy"),
    "report.manifest.busy_s": ("report.manifest", "busy"),
}


UNITS = {**{name: "count" if stat in ("calls", "failures") else "s"
            for name, (_, stat) in SPAN_METRICS.items()},
         "report.bytes": "bytes", "trace.overhead_s": "s"}


def _owner(path):
    module, _, cls = path.partition(":")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


class Tracer:
    def __init__(self, failure_type):
        self.failure_type = failure_type
        self.installed_spans = set()
        self.reset()

    def reset(self):
        self.busy = defaultdict(float)
        self.own = defaultdict(float)
        self.calls = defaultdict(int)
        self.failures = 0
        self._stack = []

    def _wrap(self, fn, span, group, counts, watch_failures):
        def traced(*args, **kwargs):
            stack = self._stack
            if any(frame[0] == group for frame in stack):
                return fn(*args, **kwargs)
            frame = [group, 0.0]
            stack.append(frame)
            start = time.process_time()
            try:
                return fn(*args, **kwargs)
            except self.failure_type:
                if watch_failures:
                    self.failures += 1
                raise
            finally:
                took = time.process_time() - start
                stack.pop()
                self.busy[span] += took
                self.own[span] += took - frame[1]
                self.calls[span] += counts
                if stack:
                    stack[-1][1] += took

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for path, attr, span, group, counts, failures in PATCHES:
                owner = _owner(path)
                if owner is None or attr not in vars(owner):
                    continue
                fn = vars(owner)[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, span, group or span, counts, failures))
                self.installed_spans.add(span)
                if failures:
                    self.installed_spans.add("spectra.*")
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def values(self):
        """Per-layer metrics of the spans recorded since the last reset."""
        stats = {"busy": self.busy, "self": self.own, "calls": self.calls}
        return {name: self.failures if stat == "failures" else stats[stat][span]
                for name, (span, stat) in SPAN_METRICS.items()}

    def unmeasured(self):
        return sorted(name for name, (span, _) in SPAN_METRICS.items()
                      if span not in self.installed_spans)
