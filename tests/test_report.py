"""The experiment writers against reference copies of their earlier,
one-object-per-value implementations, byte for byte, on clouds with and
without columns that hold the same bits in every row, and their traced
memory peaks on full-size clouds."""

import csv
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from pseudoscope import ExperimentConfig, StructureSpec, run_experiment
from pseudoscope import report as rp
from pseudoscope.geometry import DiskUnion


def reference_eigenvalue_csv(path, indices, eigenvalues):
    """The csv.writer loop the streaming writer replaced."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(["trial", "index", "re", "im"])
        for trial, lams in zip(indices.tolist(), eigenvalues.tolist()):
            writer.writerows(
                [trial, j, repr(lam.real), repr(lam.imag)] for j, lam in enumerate(lams)
            )


def reference_scatter_svg(path, eigenvalues, curves, size=800, margin_frac=0.10):
    """The per-point formatter the streaming writer replaced."""
    pts = eigenvalues.reshape(-1)
    allz = [pts] + [np.asarray(c) for c in curves]
    re = np.concatenate([z.real for z in allz])
    im = np.concatenate([z.imag for z in allz])
    lo_x, hi_x = float(re.min()), float(re.max())
    lo_y, hi_y = float(im.min()), float(im.max())
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    pad = margin_frac * span
    lo_x, hi_x = lo_x - pad, hi_x + pad
    lo_y, hi_y = lo_y - pad, hi_y + pad

    def sx(x):
        return (x - lo_x) / (hi_x - lo_x) * size

    def sy(y):
        return size - (y - lo_y) / (hi_y - lo_y) * size

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">\n'
    ]
    for curve in curves:
        z = np.asarray(curve)
        coords = " L".join(f"{sx(x):.2f} {sy(y):.2f}" for x, y in zip(z.real, z.imag))
        parts.append(
            f'<path d="M{coords} Z" fill="none" stroke="#c02020" stroke-width="1.2"/>\n'
        )
    for lam in pts:
        parts.append(
            f'<circle cx="{sx(lam.real):.2f}" cy="{sy(lam.imag):.2f}" '
            f'r="1.4" fill="#1f4e9c" fill-opacity="0.5"/>\n'
        )
    parts.append("</svg>\n")
    with open(path, "w") as fh:
        fh.write("".join(parts))


def _cloud(trials, d, seed=3):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((trials, d)) + 1j * rng.standard_normal((trials, d))


def _deflated(trials, d, seed=3):
    """A cloud shaped like a ``resolvent-aberth`` block of ``diagonal(2,3)``:
    two moved values per row, then the same d - 2 deflated copies."""
    lams = _cloud(trials, d, seed)
    lams[:, 2:] = np.repeat([2.0 + 0j, 3.0 + 0j], [d // 2 - 1, d - d // 2 - 1])
    return lams


def _signed_zero_column():
    lams = _cloud(3, 5)
    lams[:, 1] = 0.25 + 0j
    lams[:, 3] = complex(1.5, 0.0)
    lams[1, 3] = complex(1.5, -0.0)  # equal to the others, printed differently
    lams[:, 4] = complex(-0.0, 0.0)
    lams[2, 4] = complex(0.0, 0.0)
    return lams


def _fixed_but_last():
    lams = _cloud(4, 6)
    lams[:, 1:5] = lams[0, 1:5]
    lams[-1, 2] += 2**-40
    return lams


CURVES = [
    *DiskUnion([0.5 - 0.25j], 2.0).outline(),
    [complex(-1, 1), complex(1, 1), complex(0, -1)],  # a plain list is accepted too
    *(circle for radius in (0.5, 1.5, 1.0) for circle in DiskUnion([0j], radius).outline()),
    *rp.region_overlay_curves(
        DiskUnion(np.array([2.5 + 0.5j, -1.5j]), 0.2),
        DiskUnion(np.array([0.25 + 0.5j, -0.75j]), 0.1),
    ),
]

CLOUDS = {
    "negative-zero": np.array([[-0.0 + 0j, complex(0.0, -0.0), complex(-0.0, -0.0), 1 - 1j]]),
    "exponent-reprs": np.array([
        [5e-324 + 1e16j, 1e-7 - 5e-324j, -1e16 + 1e-7j],
        [1e-5 + 1e15j, 9.999999999999999e15 - 1e-4j, 0.1 + 0.2j],
    ]),
    "single-d1": np.array([[2.5 - 0.5j]]),
    "seeded": _cloud(20, 64),
    "deflated": _deflated(20, 64),
    "signed-zero-column": _signed_zero_column(),
    "fixed-but-last": _fixed_but_last(),
}

# the columns of each cloud whose value has the same bits in every row
FIXED_COLUMNS = {
    "negative-zero": [0, 1, 2, 3],  # one row: every column
    "exponent-reprs": [],
    "single-d1": [0],
    "seeded": [],
    "deflated": list(range(2, 64)),
    "signed-zero-column": [1],
    "fixed-but-last": [1, 3, 4],
}


@pytest.mark.parametrize("name", sorted(CLOUDS))
def test_fixed_columns_compare_bits(name):
    assert np.flatnonzero(rp._fixed_columns(CLOUDS[name])).tolist() == FIXED_COLUMNS[name]


def _same_bytes(tmp_path, writer, reference, *args, **kwargs):
    new, ref = tmp_path / "new", tmp_path / "ref"
    writer(new, *args, **kwargs)
    reference(ref, *args, **kwargs)
    return new.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("name", sorted(CLOUDS))
def test_eigenvalue_csv_matches_csv_writer(tmp_path, name):
    lams = CLOUDS[name]
    indices = np.arange(3, 3 + len(lams))
    assert _same_bytes(tmp_path, rp.write_eigenvalue_csv, reference_eigenvalue_csv, indices, lams)


@pytest.mark.parametrize("name", sorted(CLOUDS))
@pytest.mark.parametrize("curves", [[], CURVES[:1], CURVES], ids=["no-curve", "one-curve", "curves"])
def test_scatter_svg_matches_per_point_formatter(tmp_path, name, curves):
    lams = CLOUDS[name]
    assert _same_bytes(tmp_path, rp.write_scatter_svg, reference_scatter_svg, lams, curves)


def test_scatter_svg_negative_zero_coordinates(tmp_path):
    # a slightly negative margin puts the extreme points just outside the
    # frame, at scaled coordinates that print as -0.00
    lams = CLOUDS["seeded"]
    kwargs = {"margin_frac": -2e-6}
    assert _same_bytes(tmp_path, rp.write_scatter_svg, reference_scatter_svg, lams, CURVES, **kwargs)
    assert b'cx="-0.00"' in (tmp_path / "new").read_bytes()
    assert b'cy="-0.00"' in (tmp_path / "new").read_bytes()


def test_manifest_hashes_across_read_boundaries(tmp_path):
    sizes = {"empty.bin": 0, "one.bin": 1, "chunk.bin": 1 << 20, "long.bin": (5 << 19) + 7}
    rng = np.random.default_rng(0)
    for name, n in sizes.items():
        (tmp_path / name).write_bytes(rng.bytes(n))
    path = rp.write_manifest(str(tmp_path), list(sizes), extra={"note": "x"})
    manifest = json.loads(open(path).read())
    assert manifest["note"] == "x"
    assert list(manifest["files"]) == sorted(sizes)
    for name in sizes:
        expected = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert manifest["files"][name] == "sha256:" + expected


def test_diagonal_run_formats_its_deflated_columns_once(tmp_path):
    cfg = ExperimentConfig(
        structure=StructureSpec.parse("diagonal(2,3)"), d=64, eps=2.0, trials=30, seed=7,
    )
    report = run_experiment(cfg)
    assert report.solver == "resolvent-aberth"
    # the rank-1 update moves one copy of each of the 2 values; the other
    # 64 - 2 = 62 copies come out of the deflation with the same bits in
    # every row
    assert np.flatnonzero(rp._fixed_columns(report.eigenvalues)).tolist() == list(range(2, 64))
    curves = rp.region_overlay_curves(report.region, report.exclusion)
    assert _same_bytes(tmp_path, rp.write_eigenvalue_csv, reference_eigenvalue_csv,
                       report.indices, report.eigenvalues)
    assert _same_bytes(tmp_path, rp.write_scatter_svg, reference_scatter_svg,
                       report.eigenvalues, curves)


# Traced peaks on a (200, 512) cloud, with Python 3.11 and numpy 2.4:
# 0.08 MB (CSV), 0.15 MB (SVG, one row's strings; an axis fit that
# concatenated every coordinate peaked at 1.8 MB) and 2.1 MB (manifest,
# two 1 MiB reads alive at once).  Writers that build one
# object per value peaked at 4.3, 31 and 7.8 MB.  On the deflated cloud,
# whose templates hold 510 formatted columns, the peaks are 0.06, 0.15 and
# 2.1 MB: the SVG writer formats a fixed run from one repeated circle
# template, with no list of one string per circle.
MEMORY_BOUNDS_MB = {"csv": 0.3, "svg": 0.2, "manifest": 3.2}


def test_writer_memory_stays_bounded(tmp_path):
    for cloud in (_cloud, _deflated):
        lams = cloud(200, 512, seed=11)
        writers = {
            "csv": lambda: rp.write_eigenvalue_csv(tmp_path / "e.csv", np.arange(200), lams),
            "svg": lambda: rp.write_scatter_svg(tmp_path / "s.svg", lams, CURVES),
            "manifest": lambda: rp.write_manifest(str(tmp_path), ["e.csv", "s.svg"]),
        }
        peaks = {}
        for name, write in writers.items():
            tracemalloc.start()
            try:
                write()
                peaks[name] = tracemalloc.get_traced_memory()[1] / 1e6
            finally:
                tracemalloc.stop()
        assert (tmp_path / "s.svg").stat().st_size > 7e6  # both files span several reads
        for name, bound in MEMORY_BOUNDS_MB.items():
            assert peaks[name] < bound, (cloud.__name__, name, peaks[name])
