"""The four benchmark workloads: seeded inputs, the child command, and the
output validator that decides whether an operation failed.

Inputs are made from the seed alone, before any timing starts, with the
package's own ``random_field`` and ``store_field``.  The seed changes the
field values and the spectrum's alphas, never the amount of work.

The validators run in the parent, outside the timed region, and compare
each operation's outputs with an independent oracle of the package.  They
also reject any non-finite number in ``metadata.json`` or an output file,
because the CLI's ``--tolerance`` gate lets a NaN residual through with
exit code 0.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from latticewave import (
    GridSpec,
    LatticeField,
    leapfrog_march,
    random_field,
    relative_gap,
)
from latticewave.cli import load_field, store_field

# Acceptance limits of the oracle checks.
KG_LEAPFROG_GAP = 1e-8
DIRAC_RESIDUAL = 1e-9
SPECTRUM_Z2_ERR = 1e-12
SUBORDINATION_GAP = 1e-6
HEAT_KERNEL_GAP = 1e-10


@dataclass
class Prepared:
    """Generated inputs of one run plus what the validator needs to know."""

    child_args: Callable[[str], list[str]]  # output dir -> child arguments
    inputs: dict[str, str]  # file name -> sha256
    output_fields: int  # fields (or momentum sweeps) one operation produces
    state: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[np.random.Generator, str, bool], Prepared]
    validate: Callable[[Prepared, str], list[str]]


# -- helpers ------------------------------------------------------------------------


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_config(path: str, keys: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{k} = {v}\n" for k, v in keys.items())


def _hashes(paths: list[str]) -> dict[str, str]:
    return {os.path.basename(p): _sha256(p) for p in paths}


def _non_finite(obj, where: str) -> list[str]:
    """Paths of non-finite numbers inside a parsed JSON document."""
    if isinstance(obj, float):
        return [] if math.isfinite(obj) else [f"{where} = {obj!r}"]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _non_finite(v, f"{where}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _non_finite(v, f"{where}[{i}]")]
    return []


def read_metadata(outdir: str, problems: list[str]) -> dict | None:
    """metadata.json of a CLI run; records missing files and non-finite values."""
    path = os.path.join(outdir, "metadata.json")
    try:
        with open(path, encoding="utf-8") as fh:
            meta = json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"metadata.json unreadable: {exc}")
        return None
    problems.extend(f"non-finite metadata value {p}" for p in _non_finite(meta, "metadata"))
    return meta


def read_fields(outdir: str, meta: dict, count: int, problems: list[str]) -> list:
    """Output field CSVs named in the metadata, each checked for finite values."""
    names = meta.get("files", [])
    if len(names) != count:
        problems.append(f"expected {count} output fields, metadata lists {len(names)}")
        return []
    fields = []
    for name in names:
        try:
            f = load_field(os.path.join(outdir, name))
        except Exception as exc:  # any load failure fails the operation
            problems.append(f"{name} unreadable: {exc}")
            return []
        if not np.all(np.isfinite(f.values)):
            problems.append(f"{name} holds a non-finite coefficient")
        fields.append(f)
    return fields


def csv_stats(outdir: str) -> tuple[int, int]:
    """Data rows (no comments, no header) and bytes of the CSV files in outdir."""
    rows = size = 0
    for name in sorted(os.listdir(outdir)):
        if not name.endswith(".csv"):
            continue
        path = os.path.join(outdir, name)
        size += os.path.getsize(path)
        with open(path, encoding="utf-8") as fh:
            rows += sum(1 for line in fh if line.strip() and not line.startswith("#")) - 1
    return rows, size


# -- evolve-kg3d --------------------------------------------------------------------

KG_TIMES = (0.5, 1.0, 1.5)
KG_TAU = 0.5
KG_MASS = 1.0


def _prepare_kg(rng: np.random.Generator, workdir: str, tiny: bool) -> Prepared:
    grid = GridSpec((4 if tiny else 32,) * 3, 1.0, 0.0, KG_MASS)
    phi0 = random_field(grid, rng, scalar=True)
    phi1 = random_field(grid, rng, scalar=True)
    p0, p1, cfg = (os.path.join(workdir, n) for n in ("phi0.csv", "phi1.csv", "kg.cfg"))
    store_field(phi0, p0)
    store_field(phi1, p1)
    _write_config(cfg, {
        "equation": "klein_gordon", "dim": 3, "points": grid.shape[0], "spacing": grid.h,
        "mass": KG_MASS, "time_model": "central_difference", "tau": KG_TAU,
        "times": ", ".join(repr(t) for t in KG_TIMES),
        "initial_data": "file", "path": p0, "initial_velocity": "file", "velocity_path": p1,
    })
    return Prepared(
        child_args=lambda out: ["cli", "evolve", "--config", cfg, "--out", out, "--tolerance", "1e-9"],
        inputs=_hashes([cfg, p0, p1]),
        output_fields=len(KG_TIMES),
        state={"phi0": phi0},
    )


def _validate_kg(prep: Prepared, outdir: str) -> list[str]:
    problems: list[str] = []
    meta = read_metadata(outdir, problems)
    if meta is None:
        return problems
    fields = read_fields(outdir, meta, len(KG_TIMES), problems)
    if len(fields) == len(KG_TIMES):
        # leapfrog oracle started from (Phi0, Psi(tau)) as read back from disk;
        # the second step continues from the oracle's own first step
        prev, cur = prep.state["phi0"], fields[0]
        for t, got in zip(KG_TIMES[1:], fields[1:]):
            prev, cur = cur, leapfrog_march(prev, cur, KG_MASS, KG_TAU, 1)
            gap = relative_gap(got, cur)
            if not gap <= KG_LEAPFROG_GAP:
                problems.append(f"t={t}: leapfrog gap {gap:.3e} > {KG_LEAPFROG_GAP}")
    return problems


# -- evolve-dirac3d -----------------------------------------------------------------

DIRAC_TIMES = (0.5, 1.0, 1.5, 2.0)


def _prepare_dirac(rng: np.random.Generator, workdir: str, tiny: bool) -> Prepared:
    grid = GridSpec((4 if tiny else 16,) * 3, 1.0, 0.25, 1.0)
    phi0 = random_field(grid, rng, scalar=True)
    p0, cfg = os.path.join(workdir, "phi0.csv"), os.path.join(workdir, "dirac.cfg")
    store_field(phi0, p0)
    _write_config(cfg, {
        "equation": "dirac", "dim": 3, "points": grid.shape[0], "spacing": grid.h,
        "alpha": grid.alpha, "mass": grid.mass, "time_model": "central_difference", "tau": 0.5,
        "times": ", ".join(repr(t) for t in DIRAC_TIMES), "initial_data": "file", "path": p0,
    })
    return Prepared(
        child_args=lambda out: ["cli", "evolve", "--config", cfg, "--out", out, "--tolerance", "1e-9"],
        inputs=_hashes([cfg, p0]),
        output_fields=len(DIRAC_TIMES),
    )


def _validate_dirac(prep: Prepared, outdir: str) -> list[str]:
    problems: list[str] = []
    meta = read_metadata(outdir, problems)
    if meta is None:
        return problems
    read_fields(outdir, meta, len(DIRAC_TIMES), problems)
    residuals = meta.get("residuals", {})
    for kind in ("dirac_residual", "kg_residual"):
        per_time = residuals.get(kind, {})
        if len(per_time) != len(DIRAC_TIMES):
            problems.append(f"{kind}: {len(per_time)} entries, expected {len(DIRAC_TIMES)}")
        for t, r in per_time.items():
            if not r <= DIRAC_RESIDUAL:
                problems.append(f"{kind} at t={t}: {r!r} > {DIRAC_RESIDUAL}")
    return problems


# -- spectrum3d ---------------------------------------------------------------------


def _prepare_spectrum(rng: np.random.Generator, workdir: str, tiny: bool) -> Prepared:
    points = 2 if tiny else 6
    alphas = [float(a) for a in rng.uniform(0.0, 0.5, size=3)]
    cfg = os.path.join(workdir, "spectrum.cfg")
    _write_config(cfg, {
        "dim": 3, "points": points, "spacing": 0.5, "alphas": ", ".join(repr(a) for a in alphas),
    })
    return Prepared(
        child_args=lambda out: ["cli", "spectrum", "--config", cfg, "--out", out, "--tolerance", "1e-12"],
        inputs=_hashes([cfg]),
        output_fields=2 * len(alphas),  # fundamental and refined zone per alpha
        # fundamental zone points^3 plus refined zone (2 points)^3, per alpha
        state={"rows": len(alphas) * 9 * points**3},
    )


def _validate_spectrum(prep: Prepared, outdir: str) -> list[str]:
    problems: list[str] = []
    meta = read_metadata(outdir, problems)
    if meta is None:
        return problems
    summary = meta.get("summary", {})
    if len(summary) != prep.output_fields:
        problems.append(f"summary has {len(summary)} sweeps, expected {prep.output_fields}")
    for key, entry in summary.items():
        err = entry.get("max_z2_err")
        if not (isinstance(err, float) and err <= SPECTRUM_Z2_ERR):
            problems.append(f"{key}: max_z2_err {err!r} > {SPECTRUM_Z2_ERR}")
    rows = 0
    try:
        with open(os.path.join(outdir, "spectrum.csv"), encoding="utf-8") as fh:
            body = [line for line in fh if not line.startswith("#")]
    except OSError as exc:
        return problems + [f"spectrum.csv unreadable: {exc}"]
    for line in body[1:]:
        rows += 1
        try:
            values = [float(tok) for tok in line.rstrip("\n").split(",")[1:]]
        except ValueError:
            problems.append(f"spectrum.csv: malformed row {line.strip()!r}")
            break
        if not all(math.isfinite(v) for v in values):
            problems.append(f"spectrum.csv: non-finite value in row {line.strip()!r}")
            break
    if rows != prep.state["rows"]:
        problems.append(f"spectrum.csv has {rows} rows, expected {prep.state['rows']}")
    return problems


# -- frac-heat ------------------------------------------------------------------------

FRAC_ALPHA = 0.25
FRAC_MASS = 1.0
KERNEL_SPACING = 1.0


def _heat_times(tiny: bool) -> list[float]:
    # 2 s / h^2 runs over 25, 50, ..., 700: the whole range the Bessel guard admits
    us = (25.0, 350.0, 700.0) if tiny else tuple(25.0 * k for k in range(1, 29))
    return [u * KERNEL_SPACING**2 / 2.0 for u in us]


def _prepare_frac_heat(rng: np.random.Generator, workdir: str, tiny: bool) -> Prepared:
    grid = GridSpec((4 if tiny else 16,) * 3, 0.8)
    field_path = os.path.join(workdir, "field.csv")
    store_field(random_field(grid, rng), field_path)
    s_values = _heat_times(tiny)
    points = 16 if tiny else 256
    return Prepared(
        child_args=lambda out: [
            "frac-heat", "--field", field_path, "--out", out,
            "--alpha", repr(FRAC_ALPHA), "--mass", repr(FRAC_MASS),
            "--kernel-points", str(points), "--kernel-spacing", repr(KERNEL_SPACING),
            "--s-values", ",".join(repr(s) for s in s_values),
        ],
        inputs=_hashes([field_path]),
        output_fields=2 + 2 * len(s_values),
        state={"grid": grid, "kernels": len(s_values), "points": points},
    )


def _validate_frac_heat(prep: Prepared, outdir: str) -> list[str]:
    try:
        with np.load(os.path.join(outdir, "results.npz")) as npz:
            res = {k: npz[k] for k in npz.files}
    except (OSError, ValueError) as exc:
        return [f"results.npz unreadable: {exc}"]
    problems = [f"{k} holds a non-finite value" for k, v in res.items() if not np.all(np.isfinite(v))]
    if problems:
        return problems
    grid = prep.state["grid"]
    try:
        sub = LatticeField(grid, res["subordination"])
        spec = LatticeField(grid, res["spectral"])
    except (KeyError, ValueError) as exc:
        return [f"fractional results malformed: {exc}"]
    gap = relative_gap(sub, spec)
    if not gap <= SUBORDINATION_GAP:
        problems.append(f"subordination vs spectral gap {gap:.3e} > {SUBORDINATION_GAP}")
    kb, ks = res.get("kernel_bessel"), res.get("kernel_spectral")
    shape = (prep.state["kernels"], prep.state["points"], 4)
    if kb is None or ks is None or kb.shape != shape or ks.shape != shape:
        return problems + [f"heat kernels malformed, expected shape {shape}"]
    kgap = float(np.max(np.abs(kb - ks)))
    if not kgap <= HEAT_KERNEL_GAP:
        problems.append(f"Bessel vs spectral heat kernel gap {kgap:.3e} > {HEAT_KERNEL_GAP}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "evolve-kg3d",
            "scalar Klein-Gordon on the dense 4^n-blade layout: 63 of 64 transformed columns are zero; largest arrays",
            _prepare_kg, _validate_kg,
        ),
        Workload(
            "evolve-dirac3d",
            "Dirac evolve: Clifford products and 5 solves per output time; blade-sparse products and shared plans show here",
            _prepare_dirac, _validate_dirac,
        ),
        Workload(
            "spectrum3d",
            "per-point Multivector products and CSV rows, no FFT or solver; control for transform and solver changes",
            _prepare_spectrum, _validate_spectrum,
        ),
        Workload(
            "frac-heat",
            "Python API: subordination (200 heat transforms, all 64 blades active) and Bessel vs spectral heat kernels",
            _prepare_frac_heat, _validate_frac_heat,
        ),
    )
}
