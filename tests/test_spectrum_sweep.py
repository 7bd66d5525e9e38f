"""`latticewave spectrum` against a per-point reference sweep.

``_ref_spectrum`` walks the momentum zones one point at a time with the
public ``multiplier_z``, ``multiplier_d2`` and ``Multivector`` products and
writes ``spectrum.csv`` and ``metadata.json`` with the standard library's
CSV writer.  The command evaluates the same symbols as arrays, one slab of
the first axis at a time, and squares and sums the coefficients in another
order.  So both files must match byte for byte except in the computed
values, each of which must lie within 2 ulps of the reference.
"""

import csv
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from latticewave import GridSpec, Multivector, multiplier_d2, multiplier_z
from latticewave.cli import main
from latticewave.spectral import frequencies


def _component_norms(z, n):
    vel = math.sqrt(sum(abs(z.coeffs[1 << j]) ** 2 for j in range(n)))
    mas = math.sqrt(sum(abs(z.coeffs[1 << (n + j)]) ** 2 for j in range(n)))
    return vel, mas


def _ref_spectrum(dim, points, spacing, alphas, outdir, config_text, tolerance=None):
    """Per-point sweep: writes both files into ``outdir``; returns the exit code."""
    grid = GridSpec((points,) * dim, spacing)
    sig, h = grid.sig, grid.h
    summary = {}
    worst_err = 0.0
    with open(outdir / "spectrum.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# shape={','.join(str(N) for N in grid.shape)}\n")
        fh.write(f"# spacing={h!r}\n")
        fh.write(f"# alphas={','.join(repr(float(a)) for a in alphas)}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["zone", "alpha"] + [f"xi{a + 1}" for a in range(dim)]
            + ["d2", "z_norm", "velocity_norm", "mass_norm", "z2_err"]
        )
        for zone_name, zone_grid in (("fundamental", grid), ("refined", grid.refined())):
            axes = [np.sort(frequencies(N, zone_grid.h)) for N in zone_grid.shape]
            edge = tuple(float(ax[-1]) for ax in axes)
            for alpha in alphas:
                alpha = float(alpha)
                min_d2 = min_z = math.inf
                max_err = 0.0
                for point in np.ndindex(*(len(ax) for ax in axes)):
                    xi = tuple(float(ax[i]) for ax, i in zip(axes, point))
                    d2 = float(multiplier_d2(xi, h))
                    z = multiplier_z(xi, alpha, h)
                    z_norm = z.norm()
                    vel, mas = _component_norms(z, dim)
                    err = (z * z - Multivector.scalar(sig, complex(d2))).norm()
                    writer.writerow(
                        [zone_name, repr(alpha)] + [repr(x) for x in xi]
                        + [repr(d2), repr(z_norm), repr(vel), repr(mas), repr(err)]
                    )
                    if any(x != 0.0 for x in xi):
                        min_d2 = min(min_d2, d2)
                        min_z = min(min_z, z_norm)
                    max_err = max(max_err, err)
                _, edge_mass = _component_norms(multiplier_z(edge, alpha, h), dim)
                summary[f"{zone_name}:alpha={alpha!r}"] = {
                    "min_d2_nonzero": float(min_d2),
                    "min_z_norm_nonzero": float(min_z),
                    "edge_mass_norm": float(edge_mass),
                    "max_z2_err": float(max_err),
                }
                worst_err = max(worst_err, max_err)
    raw = {}
    for line in config_text.splitlines():
        key, _, value = line.partition("=")
        raw[key.strip()] = value.strip()
    meta = {
        "command": "spectrum",
        "config": raw,
        "alphas": [float(a) for a in alphas],
        "files": ["spectrum.csv"],
        "summary": summary,
        "tolerance": tolerance,
    }
    text = json.dumps(meta, indent=2, sort_keys=True, allow_nan=False)
    (outdir / "metadata.json").write_text(text + "\n", encoding="utf-8")
    return 3 if tolerance is not None and worst_err > tolerance else 0


_NUMBER = re.compile(r"-?[0-9][0-9.e+-]*")


def _values_within_2_ulps(got, want):
    """Equal JSON except for numbers, which may differ by 2 ulps."""
    if isinstance(want, float):
        assert isinstance(got, float)
        np.testing.assert_array_max_ulp(got, want, maxulp=2)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys()
        for key in want:
            _values_within_2_ulps(got[key], want[key])
    else:
        assert got == want


def _assert_same_outputs(got, ref, dim):
    """The header, zone labels, momenta and row order exact; the values within 2 ulps."""
    got_lines = (got / "spectrum.csv").read_text(encoding="utf-8").split("\n")
    ref_lines = (ref / "spectrum.csv").read_text(encoding="utf-8").split("\n")
    assert len(got_lines) == len(ref_lines)
    for g, r in zip(got_lines, ref_lines):
        if r.startswith(("#", "zone")) or not r:
            assert g == r
            continue
        keys = 2 + dim  # zone, alpha and the momentum coordinates
        g_cells, r_cells = g.split(","), r.split(",")
        assert g_cells[:keys] == r_cells[:keys] and len(g_cells) == len(r_cells)
        np.testing.assert_array_max_ulp(np.array(g_cells[keys:], dtype=float),
                                        np.array(r_cells[keys:], dtype=float), maxulp=2)
    got_meta, ref_meta = ((d / "metadata.json").read_text(encoding="utf-8") for d in (got, ref))
    assert _NUMBER.sub("#", got_meta) == _NUMBER.sub("#", ref_meta)  # the layout around the numbers
    _values_within_2_ulps(json.loads(got_meta), json.loads(ref_meta))


def _run_both(tmp_path, dim, points, spacing, alphas, tolerance=None):
    text = f"dim = {dim}\npoints = {points}\nspacing = {spacing}\nalphas = {alphas}\n"
    cfg = tmp_path / "spectrum.cfg"
    cfg.write_text(text, encoding="utf-8")
    ref, got = tmp_path / "ref", tmp_path / "got"
    ref.mkdir()
    values = [float(tok) for tok in alphas.split(",")]
    want_rc = _ref_spectrum(dim, points, spacing, values, ref, text, tolerance)
    extra = [] if tolerance is None else ["--tolerance", repr(tolerance)]
    rc = main(["spectrum", "--config", str(cfg), "--out", str(got)] + extra)
    return want_rc, rc, ref, got


_CASES = [
    (dim, points, spacing, alphas)
    for dim, sizes in ((1, (2, 4, 8)), (2, (2, 4, 6)), (3, (2, 4)))
    for points in sizes
    for spacing in (0.5, 1.7)
    for alphas in ("-0.0", "0.5", "0.1,0.3,0.45")
]


@pytest.mark.parametrize("dim,points,spacing,alphas", _CASES)
def test_spectrum_matches_per_point_reference(tmp_path, dim, points, spacing, alphas):
    want_rc, rc, ref, got = _run_both(tmp_path, dim, points, spacing, alphas)
    assert rc == want_rc == 0
    _assert_same_outputs(got, ref, dim)


@pytest.mark.parametrize("tolerance", [1e-12, 1e-30])
def test_spectrum_matches_reference_with_tolerance(tmp_path, tolerance):
    want_rc, rc, ref, got = _run_both(tmp_path, 2, 4, 1.7, "0.0,0.25,0.5", tolerance)
    assert rc == want_rc
    _assert_same_outputs(got, ref, 2)


def test_spectrum_memory_is_bounded_by_one_slab(tmp_path):
    # the refined zone is 32**3 points; one dense 4**3-blade array over it would be 33.5 MB
    cfg = tmp_path / "big.cfg"
    cfg.write_text("dim = 3\npoints = 16\nspacing = 1.0\nalphas = 0.25\n", encoding="utf-8")
    tracemalloc.start()
    try:
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
