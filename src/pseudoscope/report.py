"""File emitters: per-trial CSV, summary JSON, scatter/scaling SVG, and the
checksum manifest.

Numbers are serialized with Python's shortest round-trip representation,
so parsing an emitted CSV reproduces the in-memory values exactly.

The eigenvalue CSV and scatter SVG writers stream one trial row at a
time: a row is formatted by one ``%`` template built once per file for the
row's length, then written in one piece, so no writer holds an object per
value of the whole run.  Columns whose value has the same bits in every
row, such as the deflated copies of a repeated diagonal value, are
formatted once per file, from the first row, into that template; each row
converts to Python floats and formats only its other columns.  The
manifest hashes each file in 1 MiB reads.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

REPORT_SCHEMA_VERSION = 2

_HASH_READ_BYTES = 1 << 20


def _fixed_columns(eigenvalues):
    """Mask of the columns whose value has the same bits in every row.

    Bits, not values: 0.0 and -0.0 compare equal but print differently.
    Each row is compared with row 0 in turn, so no temporary of the
    cloud's size is built, and the pass stops once no column is left.
    """
    re, im = (part.view(f"u{part.itemsize}") for part in (eigenvalues.real, eigenvalues.imag))
    fixed = np.full(eigenvalues.shape[1], len(eigenvalues) > 0)
    for k in range(1, len(eigenvalues)):
        fixed &= re[k] == re[0]
        fixed &= im[k] == im[0]
        if not fixed.any():
            break
    return fixed


def _row_template(eigenvalues, slots, args):
    """One row's ``%`` template, and the columns each row still fills.

    ``slots(a, b)`` is the template of columns a..b-1 and ``args(z)`` the
    arguments it takes for those columns' values ``z``.  Each run of
    columns with the same bits in every row is formatted once, from row 0,
    and kept as literal text with ``%`` escaped; every other run keeps its
    slots.
    """
    fixed = _fixed_columns(eigenvalues)
    cuts = [0, *(np.flatnonzero(np.diff(fixed)) + 1).tolist(), len(fixed)]
    parts = []
    for a, b in zip(cuts, cuts[1:]):
        text = slots(a, b)
        if fixed[a:b].any():  # a run is fixed in every column or in none
            text = (text % args(eigenvalues[0, a:b])).replace("%", "%%")
        parts.append(text)
    return "".join(parts), np.flatnonzero(~fixed)


def _interleaved(xs, ys):
    """The tuple x0, y0, x1, y1, ... of two lists of one length."""
    args = xs + ys
    args[0::2], args[1::2] = xs, ys
    return tuple(args)


def write_eigenvalue_csv(path, indices, eigenvalues):
    """Columns trial,index,re,im; one row per eigenvalue, trial order.
    Row k of ``eigenvalues`` belongs to trial ``indices[k]``.  Each trial
    row is formatted with one template and written in one piece: the
    columns fixed across rows are formatted into the template, and a
    marker stands for the trial number of every line.  No field ever needs
    CSV quoting (ints and float reprs hold no comma, quote or line
    break)."""

    def pairs(lams):
        return _interleaved(lams.real.tolist(), lams.imag.tolist())

    row, var = _row_template(  # "\0" marks the trial number
        eigenvalues, lambda a, b: "".join([f"\0,{j},%r,%r\r\n" for j in range(a, b)]), pairs
    )
    with open(path, "w", newline="") as fh:
        fh.write("trial,index,re,im\r\n")
        for trial, lams in zip(indices.tolist(), eigenvalues):
            fh.write((row % pairs(lams[var])).replace("\0", str(trial)))


def report_to_json_dict(report):
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": "experiment",
        "config": {
            "structure": report.structure,
            "d": report.d,
            "eps": report.eps,
            "trials": report.trials,
            "seed": report.seed,
            "solver": report.solver,
            "delta": report.delta,
        },
        "containment_fraction": report.containment_fraction,
        "eigenvalue_containment_fraction": report.eigenvalue_containment_fraction,
        "deviation_quantiles": report.deviation_quantiles,
        "pooled_eigenvalue_quantiles": report.pooled_eigenvalue_quantiles,
        "exclusion_only_fraction": report.exclusion_only_fraction,
        "failed_trials": report.failed_trials,
        "eigenvalues_csv": "eigenvalues.csv",
    }


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_HASH_READ_BYTES):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir, filenames, extra=None):
    """run_manifest.json listing every emitted file with a sha256 checksum."""
    files = {name: "sha256:" + _sha256(os.path.join(out_dir, name)) for name in sorted(filenames)}
    payload = {"schema_version": REPORT_SCHEMA_VERSION, "files": files}
    if extra:
        payload.update(extra)
    path = os.path.join(out_dir, "run_manifest.json")
    write_json(path, payload)
    return path


def region_overlay_curves(region, exclusion=None):
    """Closed polylines outlining the region and the exclusion disks, if any."""
    return region.outline() + (exclusion.outline() if exclusion is not None else [])


_CIRCLE = '<circle cx="%.2f" cy="%.2f" r="1.4" fill="#1f4e9c" fill-opacity="0.5"/>\n'


def write_scatter_svg(path, eigenvalues, curves, size=800, margin_frac=0.10):
    """Eigenvalue cloud as one circle element per point plus overlay paths.

    Axis ranges auto-fit the points and overlays with a 10% margin; the
    vertical axis is flipped so the upper half plane is on top.  Row k of
    ``eigenvalues`` is trial k's spectrum.  The circles of the columns
    fixed across rows are formatted into the template once; each row
    scales its other points as one array (elementwise, so a point's pixel
    coordinates do not depend on which others are scaled with it) and is
    written in one piece.
    """
    curves = [np.asarray(c) for c in curves]
    parts = [eigenvalues, *curves]  # extremes read in place, with no joined copy
    lo_x = min(float(z.real.min()) for z in parts)
    hi_x = max(float(z.real.max()) for z in parts)
    lo_y = min(float(z.imag.min()) for z in parts)
    hi_y = max(float(z.imag.max()) for z in parts)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    pad = margin_frac * span
    lo_x, hi_x = lo_x - pad, hi_x + pad
    lo_y, hi_y = lo_y - pad, hi_y + pad

    def scaled(z):
        """Pixel x and y coordinates of the points ``z``, as two lists."""
        xs = (z.real - lo_x) / (hi_x - lo_x) * size
        ys = size - (z.imag - lo_y) / (hi_y - lo_y) * size
        return xs.tolist(), ys.tolist()

    def points(z):
        """The ``%`` arguments of the circles of the points ``z``."""
        return _interleaved(*scaled(z))

    with open(path, "w") as fh:
        fh.write(
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">\n'
        )
        for z in curves:
            coords = " L".join(["%.2f %.2f" % xy for xy in zip(*scaled(z))])
            fh.write(
                f'<path d="M{coords} Z" fill="none" stroke="#c02020" stroke-width="1.2"/>\n'
            )
        circles, var = _row_template(eigenvalues, lambda a, b: _CIRCLE * (b - a), points)
        for row in eigenvalues:
            fh.write(circles % points(row[var]))
        fh.write("</svg>\n")


def write_scaling_csv(path, per_dim):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(["d", "median_deviation", "q90_deviation", "median_outward_deviation"])
        for row in per_dim:
            writer.writerow(
                [
                    row["d"],
                    repr(row["median_deviation"]),
                    repr(row["q90_deviation"]),
                    repr(row["median_outward_deviation"]),
                ]
            )


def write_scaling_svg(path, fit, size=640):
    """Log-log medians with the fitted line as paths, points as circles."""
    dims = np.array([row["d"] for row in fit["per_dim"]], dtype=float)
    med = np.array([row["median_deviation"] for row in fit["per_dim"]], dtype=float)
    lx, ly = np.log(dims), np.log(med)
    fy = fit["slope"] * lx + fit["intercept"]
    lo_x, hi_x = lx.min(), lx.max()
    lo_y = min(ly.min(), fy.min())
    hi_y = max(ly.max(), fy.max())
    pad_x = 0.10 * max(hi_x - lo_x, 1e-9)
    pad_y = 0.10 * max(hi_y - lo_y, 1e-9)
    lo_x, hi_x, lo_y, hi_y = lo_x - pad_x, hi_x + pad_x, lo_y - pad_y, hi_y + pad_y

    def sx(x):
        return (x - lo_x) / (hi_x - lo_x) * size

    def sy(y):
        return size - (y - lo_y) / (hi_y - lo_y) * size

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">\n'
    ]
    coords = " L".join(f"{sx(x):.2f} {sy(y):.2f}" for x, y in zip(lx, fy))
    parts.append(f'<path d="M{coords}" fill="none" stroke="#c02020" stroke-width="1.5"/>\n')
    for x, y in zip(lx, ly):
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" fill="#1f4e9c"/>\n')
    parts.append("</svg>\n")
    with open(path, "w") as fh:
        fh.write("".join(parts))


def write_tails_csv(path, table, columns, verdict):
    """Empirical-vs-oracle tail table with a per-row verdict column."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(columns + ["verdict"])
        for row in table["rows"]:
            out = []
            for col in columns:
                val = row.get(col, "")
                out.append(repr(float(val)) if isinstance(val, (int, float)) and not isinstance(val, bool) else val)
            writer.writerow(out + [verdict])
