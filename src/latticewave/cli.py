"""Command-line front end: evolve lattice fields, export kernels and spectra.

Subcommands
    evolve    solve the configured equation, one field CSV per output time
    kernel    export propagator kernels (wave, fractional wave, heat)
    spectrum  sweep the Dirac symbol over the momentum zone and its refinement
    selftest  run the built-in checks and print a pass/fail table

Configuration is a flat ``key=value`` text file; ``#`` starts a comment line
and every value is validated with a named error before any computation runs.
Exit codes: 0 success, 2 configuration error, 3 numerical guard (CFL
violation, special-function domain guard, or ``--tolerance`` exceeded).

Field CSV layout: leading ``#`` lines pin the grid (shape, spacing, alpha,
mass), then a header ``x1,...,xn,blade,re,im`` and one row per site and
nonzero blade coefficient.  Sites are integer lattice indices (multiply by
the spacing for physical coordinates); blades are middle-dot joined 1-based
generator indices ("" for the scalar part, "1", "1·3", ...); floats are
written with ``repr`` so ``load_field(store_field(f))`` is bit-exact for
finite values; rows are ordered lexicographically by site, then blade.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import re
import sys
import warnings
from typing import Callable, Sequence

import numpy as np

from .clifford import blade_indices, blade_mask, mul_columns
from .fractional import (
    FracParams,
    fractional_kernels,
    heat_kernel_bessel,
    heat_kernel_spectral,
    heat_semigroup,
    solve_kg_fractional,
)
from .lattice import GridSpec, LatticeField, align, relative_gap
from .propagators import (
    CauchyData,
    TimeModel,
    continuous_dirac_residual,
    continuous_kg_residual,
    dirac_residual,
    kg_residual,
    lambda_max,
    solve_dirac,
    solve_kg,
    wave_kernels,
)
from .spectral import _d2_on, _z_on, frequencies
from .spectral import multiplier_d2, multiplier_z  # noqa: F401  (bench/child.py's set-up hook wraps them here)
from .umbral import CflViolationError

__all__ = [
    "ConfigError",
    "parse_config",
    "load_config",
    "store_field",
    "load_field",
    "main",
]


class ConfigError(Exception):
    """Invalid or incomplete run configuration (exit code 2)."""


# -- config schema --------------------------------------------------------------

_EQUATIONS = ("klein_gordon", "dirac", "heat", "fractional_kg")
_TIME_MODELS = ("continuous", "central_difference")
_DATA_KINDS = ("delta", "plane_wave", "gaussian", "file")
_VELOCITY_KINDS = ("zero",) + _DATA_KINDS


def _as_int(key: str, raw: str, lo: int, hi: int) -> int:
    try:
        v = int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if not (lo <= v <= hi):
        raise ConfigError(f"{key}: must lie in {lo}..{hi}, got {v}")
    return v


def _as_float(key: str, raw: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"{key}: must be finite, got {raw!r}")
    return v


def _positive(key: str, raw: str) -> float:
    v = _as_float(key, raw)
    if not v > 0:
        raise ConfigError(f"{key}: must be positive, got {v}")
    return v


def _nonnegative(key: str, raw: str) -> float:
    v = _as_float(key, raw)
    if v < 0:
        raise ConfigError(f"{key}: must be nonnegative, got {v}")
    return v


def _alpha_range(key: str, raw: str) -> float:
    v = _as_float(key, raw)
    if not (0.0 <= v <= 0.5):
        raise ConfigError(f"{key}: must lie in [0, 1/2], got {v}")
    return v


def _open_unit_half(key: str, raw: str) -> float:
    v = _as_float(key, raw)
    if not (0.0 < v < 0.5):
        raise ConfigError(f"{key}: must lie strictly between 0 and 1/2, got {v}")
    return v


def _choice(key: str, raw: str, options: tuple[str, ...]) -> str:
    if raw not in options:
        raise ConfigError(f"{key}: must be one of {', '.join(options)}, got {raw!r}")
    return raw


def _float_list(key: str, raw: str) -> list[float]:
    out = [_as_float(key, tok.strip()) for tok in raw.split(",")]
    if not out:
        raise ConfigError(f"{key}: needs at least one value")
    return out


def _int_list(key: str, raw: str) -> list[int]:
    try:
        return [int(tok.strip()) for tok in raw.split(",")]
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated integers, got {raw!r}") from None


def _alpha_list(key: str, raw: str) -> list[float]:
    out = [_alpha_range(key, tok.strip()) for tok in raw.split(",")]
    if len(set(out)) < len(out):  # 0.0 == -0.0, so a signed zero repeats too
        raise ConfigError(f"{key}: repeats a value in {raw!r}")
    return out


def _points(key: str, raw: str) -> int:
    v = _as_int(key, raw, 2, 64)
    if v % 2 != 0:
        raise ConfigError(f"{key}: must be even, got {v}")
    return v


_PARSERS: dict[str, Callable[[str, str], object]] = {
    "equation": lambda k, v: _choice(k, v, _EQUATIONS),
    "dim": lambda k, v: _as_int(k, v, 1, 3),
    "points": _points,
    "spacing": _positive,
    "alpha": _alpha_range,
    "mass": _nonnegative,
    "time_model": lambda k, v: _choice(k, v, _TIME_MODELS),
    "tau": _positive,
    "times": _float_list,
    "frac_alpha": _open_unit_half,
    "initial_data": lambda k, v: _choice(k, v, _DATA_KINDS),
    "modes": _int_list,
    "width": _positive,
    "path": lambda k, v: v,
    "initial_velocity": lambda k, v: _choice(k, v, _VELOCITY_KINDS),
    "velocity_modes": _int_list,
    "velocity_width": _positive,
    "velocity_path": lambda k, v: v,
    "alphas": _alpha_list,
}


def parse_config(text: str) -> dict[str, str]:
    """Raw key=value mapping with line-numbered syntax errors."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        raw[key] = value
    return raw


def _cross_validate(cfg: dict[str, object]) -> None:
    if cfg.get("time_model") == "central_difference" and "tau" not in cfg:
        raise ConfigError("tau: required when time_model=central_difference")
    if "tau" in cfg and cfg.get("time_model") != "central_difference":
        raise ConfigError("tau: only meaningful with time_model=central_difference")

    for kind_key, kinds, modes_key, width_key, path_key in (
        ("initial_data", _DATA_KINDS, "modes", "width", "path"),
        ("initial_velocity", _VELOCITY_KINDS, "velocity_modes", "velocity_width", "velocity_path"),
    ):
        kind = cfg.get(kind_key)
        for sub, need in ((modes_key, "plane_wave"), (width_key, "gaussian"), (path_key, "file")):
            if kind == need and sub not in cfg:
                raise ConfigError(f"{sub}: required when {kind_key}={need}")
            if sub in cfg and kind != need:
                raise ConfigError(f"{sub}: only meaningful with {kind_key}={need}")
    for modes_key in ("modes", "velocity_modes"):
        if modes_key in cfg and "dim" in cfg and len(cfg[modes_key]) != cfg["dim"]:
            raise ConfigError(f"{modes_key}: needs {cfg['dim']} components, got {len(cfg[modes_key])}")

    equation = cfg.get("equation")
    if equation == "heat":
        if cfg.get("time_model") == "central_difference":
            raise ConfigError("time_model: heat flow runs in continuous time only")
        if cfg.get("initial_velocity", "zero") != "zero":
            raise ConfigError("initial_velocity: heat flow is first order; only 'zero' makes sense")
    if equation == "dirac":
        if "alpha" not in cfg:
            raise ConfigError("alpha: required for the dirac equation")
        if cfg.get("initial_velocity", "zero") != "zero":
            raise ConfigError("initial_velocity: the dirac solver derives the first-order data itself")
    if equation == "fractional_kg":
        if "frac_alpha" not in cfg:
            raise ConfigError("frac_alpha: required for the fractional_kg equation")
        if not cfg.get("mass", 0.0) > 0:
            raise ConfigError("mass: fractional_kg needs mass > 0")


def load_config(path: str) -> tuple[dict[str, object], dict[str, str]]:
    """Parse and validate a config file; returns (typed values, raw strings)."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    raw = parse_config(text)
    cfg = {key: _PARSERS[key](key, value) for key, value in raw.items()}
    _cross_validate(cfg)
    return cfg, raw


def _require(cfg: dict[str, object], command: str, *keys: str) -> None:
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ConfigError(f"{command}: missing required key(s): {', '.join(missing)}")


def _grid(cfg: dict[str, object], refined: bool = False) -> GridSpec:
    shape = (cfg["points"],) * cfg["dim"]
    try:
        grid = GridSpec(shape, cfg["spacing"], float(cfg.get("alpha", 0.0)), float(cfg.get("mass", 0.0)))
        return grid.refined() if refined else grid
    except ValueError as exc:  # every other key is range-checked when it is parsed
        raise ConfigError(f"spacing: {'on the refined zone, ' if refined else ''}{exc}") from None


def _time_model(cfg: dict[str, object]) -> TimeModel:
    if cfg["time_model"] == "continuous":
        return TimeModel.continuous()
    return TimeModel.central_difference(cfg["tau"])


def build_field(cfg: dict[str, object], grid: GridSpec, role: str) -> LatticeField:
    """Construct the configured initial position or velocity field."""
    if role == "initial":
        kind = cfg["initial_data"]
        modes_key, width_key, path_key = "modes", "width", "path"
    else:
        kind = cfg.get("initial_velocity", "zero")
        modes_key, width_key, path_key = "velocity_modes", "velocity_width", "velocity_path"
    if kind == "zero":
        return LatticeField.zeros(grid)
    if kind == "delta":
        return LatticeField.delta(grid)
    if kind == "plane_wave":
        try:
            return LatticeField.plane_wave(grid, cfg[modes_key])
        except ValueError as exc:
            raise ConfigError(f"{modes_key}: {exc}") from None
    if kind == "gaussian":
        return LatticeField.gaussian(grid, cfg[width_key])
    f = load_field(cfg[path_key])
    if f.grid != grid:
        raise ConfigError(f"{path_key}: stored grid {f.grid} does not match the configured grid {grid}")
    if not np.isfinite(f.columns).all():
        raise ConfigError(f"{path_key}: field file {cfg[path_key]} holds non-finite values")
    return f


# -- field CSV ------------------------------------------------------------------


def _blade_label(mask: int) -> str:
    return "·".join(str(j) for j in blade_indices(mask))


def _grid_comments(grid: GridSpec) -> str:
    return (
        f"# shape={','.join(str(N) for N in grid.shape)}\n"
        f"# spacing={grid.h!r}\n"
        f"# alpha={grid.alpha!r}\n"
        f"# mass={grid.mass!r}\n"
    )


def _write_rows(fh, grid: GridSpec, columns: Sequence[str], *fields: LatticeField) -> None:
    """Header plus one row per site and blade where any of ``fields`` is nonzero.

    Each field contributes a ``repr`` real and imaginary column.  Blades run
    in canonical order over the union of the fields' supports.  Values are
    gathered one slab of the leading axis at a time and rows are streamed
    to ``fh``, so no row strings accumulate in memory.
    """
    fh.write(",".join([f"x{a + 1}" for a in range(grid.n)] + list(columns)) + "\n")
    support, cols = align(*fields)
    order = sorted(range(len(support)), key=lambda c: blade_indices(support[c]))
    labels = [_blade_label(support[c]) + "," for c in order]
    tails = ["".join(f"{j}," for j in site) for site in np.ndindex(grid.shape[1:])]
    for i in range(grid.shape[0]):
        slabs = [f[i].reshape(len(tails), -1)[:, order] for f in cols]
        hit = slabs[0] != 0
        for slab in slabs[1:]:
            hit |= slab != 0
        sites, blades = np.nonzero(hit)
        parts = []
        for slab in slabs:
            v = slab[sites, blades]
            parts += [map(repr, v.real.tolist()), map(repr, v.imag.tolist())]
        head = f"{i},"
        fh.writelines(
            f"{head}{tails[site]}{labels[b]}{vals}\n"
            for site, b, vals in zip(sites.tolist(), blades.tolist(), map(",".join, zip(*parts)))
        )


def store_field(f: LatticeField, path: str) -> None:
    """Write a field as CSV; exactly-zero coefficients are omitted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_grid_comments(f.grid))
        _write_rows(fh, f.grid, ["blade", "re", "im"], f)


_CHUNK_CHARS = 1 << 18  # text handed to one np.loadtxt call; bounds the reader's memory
_BLANK_LINE = re.compile(r"\n[ \t\f\v\r]+(?=\n|$)")


def _read_grid(fh, path: str) -> GridSpec:
    """Grid from the ``#`` lines before the header; reads through the header."""
    meta: dict[str, str] = {}
    header = None
    for line in fh:
        if line.startswith("#"):
            inner = line[1:].strip()
            if "=" in inner:
                k, _, v = inner.partition("=")
                meta[k.strip()] = v.strip()
        elif line.strip():
            header = line.rstrip("\r\n").split(",")
            break
    for key in ("shape", "spacing", "alpha", "mass"):
        if key not in meta:
            raise ConfigError(f"{path}: missing '# {key}=' comment")
    try:
        shape = tuple(int(tok) for tok in meta["shape"].split(","))
        grid = GridSpec(shape, float(meta["spacing"]), float(meta["alpha"]), float(meta["mass"]))
    except ValueError as exc:
        raise ConfigError(f"{path}: bad grid metadata: {exc}") from None
    if header != [f"x{a + 1}" for a in range(grid.n)] + ["blade", "re", "im"]:
        raise ConfigError(f"{path}: unexpected header {header!r}")
    return grid


def _data_lines(text: str) -> list[str]:
    """The lines of ``text`` that np.loadtxt reads as rows, in order."""
    lines = (line.rstrip("\r") for line in text.split("\n"))
    return [line for line in lines if line and not line.startswith("#")]


def _inline_comment(text: str) -> str | None:
    """First line of ``text`` (which starts with a newline) holding a ``#`` after column 0."""
    at = text.find("#")
    while at >= 0:
        start = text.rfind("\n", 0, at) + 1
        end = text.find("\n", at)
        if at != start:
            return text[start : end if end >= 0 else None].rstrip("\r")
        if end < 0:
            return None
        at = text.find("#", end)
    return None


def _first_bad_line(lines: list[str], dtype: np.dtype) -> str:
    """The first line that np.loadtxt refuses, found by bisection; ``lines`` holds one."""
    while len(lines) > 1:
        half = len(lines) // 2
        try:
            np.loadtxt(lines[:half], dtype=dtype, delimiter=",", comments=None, ndmin=1)
            lines = lines[half:]
        except ValueError:
            lines = lines[:half]
    return lines[0]


def _parse_rows(path: str, text: str, dtype: np.dtype) -> np.ndarray:
    """Rows of ``text`` (whole lines after a leading newline, no blank ones) as a record array."""
    bad = _inline_comment(text)
    if bad is None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # text of comments only holds no rows
            try:
                return np.loadtxt(io.StringIO(text), dtype=dtype, delimiter=",", comments="#", ndmin=1)
            except ValueError:
                bad = _first_bad_line(_data_lines(text), dtype)
    raise ConfigError(f"{path}: malformed row {bad.split(',')!r}")


def _parse_blade(path: str, grid: GridSpec, label: str) -> int:
    try:
        return blade_mask(grid.sig, [int(tok) for tok in label.split("·")]) if label else 0
    except ValueError as exc:
        raise ConfigError(f"{path}: bad blade label {label!r}: {exc}") from None


def load_field(path: str) -> LatticeField:
    """Inverse of store_field (bit-exact for finite values).

    Rows are parsed ``_CHUNK_CHARS`` of text at a time by ``np.loadtxt``, then
    range-checked, mapped to blade masks through a sorted table of the grid's
    canonical labels and scattered into the columns of the blades with rows.
    A label outside the table (another spelling or an invalid one) is parsed
    from its line as written; a repeated (site, blade) row keeps its last value.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            grid = _read_grid(fh, path)
            canonical = [_blade_label(mask) for mask in range(grid.blades)]
            width = max(map(len, canonical)) + 1  # spare character: a truncated long label matches none
            dtype = np.dtype(
                [(f"x{a + 1}", np.int64) for a in range(grid.n)]
                + [("blade", f"U{width}"), ("re", np.float64), ("im", np.float64)]
            )
            masks_by_label = np.argsort(canonical)
            labels = np.array(canonical, dtype=dtype["blade"])[masks_by_label]
            f = LatticeField.zeros(grid)
            for chunk in iter(lambda: fh.read(_CHUNK_CHARS), ""):
                # a leading newline puts every line, the first too, after a "\n"
                text = _BLANK_LINE.sub("\n", "\n" + chunk + fh.readline())
                rows = _parse_rows(path, text, dtype)
                sites = tuple(rows[f"x{a + 1}"] for a in range(grid.n))
                for axis, (col, N) in enumerate(zip(sites, grid.shape)):
                    outside = (col < 0) | (col >= N)
                    if outside.any():
                        j = col[outside.argmax()]
                        raise ConfigError(f"{path}: site index {j} outside axis {axis + 1} (0..{N - 1})")
                at = np.minimum(np.searchsorted(labels, rows["blade"]), grid.blades - 1)
                masks = masks_by_label[at]
                unmatched = np.flatnonzero(labels[at] != rows["blade"])
                if unmatched.size:
                    lines = _data_lines(text)
                    for i in unmatched:
                        masks[i] = _parse_blade(path, grid, lines[i].split(",")[grid.n])
                f = f._widened(masks)  # rows of a new blade widen the support
                at = np.searchsorted(f.support, masks)
                f.columns.real[sites + (at,)] = rows["re"]
                f.columns.imag[sites + (at,)] = rows["im"]
    except OSError as exc:
        raise ConfigError(f"cannot read field file {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    return f


def _store_heat_pair(kb: LatticeField, ks: LatticeField, s: float, path: str) -> None:
    # dual-route kernel export: Bessel product columns next to spectral ones
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_grid_comments(kb.grid))
        fh.write(f"# s={float(s)!r}\n")
        columns = ["blade", "re_bessel", "im_bessel", "re_spectral", "im_spectral"]
        _write_rows(fh, kb.grid, columns, kb, ks)


def _write_json(path: str, payload: dict) -> None:
    # serialise first: a non-finite value must not leave a half-written file
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise ValueError(f"{path}: run metadata holds a non-finite value; not written") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# -- subcommands ----------------------------------------------------------------


def _ensure_outdir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _validate_times(time: TimeModel, times: Sequence[float]) -> None:
    if time.kind != "central_difference":
        return
    for t in times:
        try:
            time.validate_time(t)
        except ValueError as exc:
            raise ConfigError(f"times: {exc}") from None


def _cfl_info(time: TimeModel | None, grid: GridSpec, m: float):
    if time is None or time.kind != "central_difference":
        return None
    bound = time.cfl_bound()
    lam = lambda_max(grid, m)
    return {"bound": float(bound), "lambda_max": float(lam), "margin": float(bound - lam)}


def _worst(residuals: dict[str, dict[str, float]], exclude: tuple[str, ...] = ("richardson_order",)):
    """Largest residual, or the first non-finite one; None if there are none."""
    values = [v for kind, per_time in residuals.items() if kind not in exclude for v in per_time.values()]
    for v in values:
        if not math.isfinite(v):
            return v
    return max(values, default=None)


def _enforce_tolerance(args, worst) -> int:
    if worst is not None and not math.isfinite(worst):
        print(f"numerical guard: non-finite residual {worst!r}", file=sys.stderr)
        return 3
    if args.tolerance is None or worst is None:
        return 0
    if worst > args.tolerance:
        print(
            f"tolerance exceeded: worst residual {worst:.6e} > {args.tolerance:.6e}",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_evolve(args) -> int:
    cfg, raw = load_config(args.config)
    _require(cfg, "evolve", "equation", "dim", "points", "spacing", "mass", "times", "initial_data")
    equation = cfg["equation"]
    if equation != "heat":
        _require(cfg, "evolve", "time_model")
    grid = _grid(cfg)
    m = float(cfg["mass"])
    times = cfg["times"]
    outdir = _ensure_outdir(args.out)
    phi0 = build_field(cfg, grid, "initial")

    time = None
    if equation != "heat":
        time = _time_model(cfg)
        _validate_times(time, times)
    elif any(t < 0 for t in times):
        raise ConfigError("times: heat flow needs s >= 0")
    cfl = _cfl_info(time, grid, m)

    unstable = args.allow_unstable
    data = frac = None
    if equation in ("klein_gordon", "fractional_kg"):
        data = CauchyData(phi0, build_field(cfg, grid, "velocity"))
    if equation == "fractional_kg":
        frac = FracParams(cfg["frac_alpha"], m)
    tau = None if time is None else time.tau  # set for central differences only

    # Per equation: the field at time t, and the checks of the slice psi at t.
    # The lambdas look the solvers up by name each time they run.
    solvers = {
        "klein_gordon": lambda t: solve_kg(data, time, m, t, allow_unstable=unstable),
        "dirac": lambda t: solve_dirac(phi0, time, grid.alpha, m, t, allow_unstable=unstable),
        "heat": lambda t: heat_semigroup(phi0, t),
        "fractional_kg": lambda t: solve_kg_fractional(data, time, frac, t, allow_unstable=unstable),
    }
    at = solvers[equation]

    def leapfrog(t: float, psi: LatticeField) -> dict[str, float]:
        return {"kg_residual": kg_residual(at(t - tau), psi, at(t + tau), m, tau)} if tau else {}

    def richardson(kind: str, pair: tuple[float, float]) -> dict[str, float]:
        return {kind: pair[0], "richardson_order": pair[1]}

    def dirac_checks(t: float, psi: LatticeField) -> dict[str, float]:
        if not tau:
            return richardson("dirac_residual", continuous_dirac_residual(phi0, grid.alpha, m, t))
        half = dirac_residual(at(t - tau / 2), psi, at(t + tau / 2), grid.alpha, m, tau)
        return {"dirac_residual": half, **leapfrog(t, psi)}

    checks = {
        "klein_gordon": lambda t, psi: (
            leapfrog(t, psi) if tau else richardson("continuous_residual", continuous_kg_residual(data, m, t))
        ),
        "dirac": dirac_checks,
        "heat": lambda t, psi: {"semigroup_gap": relative_gap(heat_semigroup(at(t / 2.0), t / 2.0), psi)},
        "fractional_kg": lambda t, psi: {
            "fractional_equivalence_gap": relative_gap(psi, solvers["klein_gordon"](t)), **leapfrog(t, psi)
        },
    }[equation]

    files: list[str] = []
    residuals: dict[str, dict[str, float]] = {}
    for idx, t in enumerate(times):
        # overflow ends in a non-finite residual, which the guard below reports
        with np.errstate(over="ignore", invalid="ignore"):
            psi = at(t)
            found = checks(t, psi)
        for kind, value in found.items():
            residuals.setdefault(kind, {})[repr(float(t))] = float(value)
        worst = _worst(residuals)
        if worst is not None and not math.isfinite(worst):
            for name in files:  # a failed run leaves no field behind
                os.remove(os.path.join(outdir, name))
            return _enforce_tolerance(args, worst)  # before this slice is written
        name = f"field_{idx:03d}.csv"
        store_field(psi, os.path.join(outdir, name))
        files.append(name)

    status = _enforce_tolerance(args, _worst(residuals))
    _write_json(
        os.path.join(outdir, "metadata.json"),
        {
            "command": "evolve",
            "equation": equation,
            "config": raw,
            "times": [float(t) for t in times],
            "files": files,
            "residuals": residuals,
            "cfl": cfl,
            "allow_unstable": bool(args.allow_unstable),
            "threads": args.threads,
            "tolerance": args.tolerance,
        },
    )
    return status


def cmd_kernel(args) -> int:
    cfg, raw = load_config(args.config)
    _require(cfg, "kernel", "dim", "points", "spacing", "mass", "times")
    kind = args.kind
    grid = _grid(cfg)
    m = float(cfg["mass"])
    times = cfg["times"]
    outdir = _ensure_outdir(args.out)

    time = None
    frac = None
    if kind != "heat":
        _require(cfg, "kernel", "time_model")
        time = _time_model(cfg)
        _validate_times(time, times)
    elif any(t < 0 for t in times):
        raise ConfigError("times: heat kernels need s >= 0")
    if kind in ("K0_alpha", "K1_alpha"):
        _require(cfg, "kernel", "frac_alpha")
        if not m > 0:
            raise ConfigError("mass: fractional kernels need mass > 0")
        frac = FracParams(cfg["frac_alpha"], m)
    cfl = _cfl_info(time, grid, m)

    files: list[str] = []
    residuals: dict[str, dict[str, float]] = {}
    for idx, t in enumerate(times):
        name = f"kernel_{kind}_{idx:03d}.csv"
        path = os.path.join(outdir, name)
        if kind == "heat":
            kb = heat_kernel_bessel(grid, t)
            ks = heat_kernel_spectral(grid, t)
            _store_heat_pair(kb, ks, t, path)
            disc = float(np.max(np.abs(kb.values - ks.values)))
            residuals.setdefault("heat_discrepancy", {})[repr(float(t))] = disc
        elif kind in ("K0", "K1"):
            k0, k1 = wave_kernels(grid, time, m, t, allow_unstable=args.allow_unstable)
            store_field(k0 if kind == "K0" else k1, path)
        else:
            k0a, k1a = fractional_kernels(grid, time, frac, t, allow_unstable=args.allow_unstable)
            store_field(k0a if kind == "K0_alpha" else k1a, path)
        files.append(name)

    status = _enforce_tolerance(args, _worst(residuals))
    _write_json(
        os.path.join(outdir, "metadata.json"),
        {
            "command": "kernel",
            "kind": kind,
            "config": raw,
            "times": [float(t) for t in times],
            "files": files,
            "residuals": residuals,
            "cfl": cfl,
            "allow_unstable": bool(args.allow_unstable),
            "threads": args.threads,
            "tolerance": args.tolerance,
        },
    )
    return status


def _blade_norms(n: int, support: tuple[int, ...], cols: np.ndarray) -> np.ndarray:
    # the two-norm of each row's 4**n coefficients, summed in Multivector.norm's order
    sq = np.zeros(cols.shape[:-1] + (1 << (2 * n),))
    sq[..., support] = np.abs(cols) ** 2
    return np.sqrt(sq.sum(axis=-1))


def cmd_spectrum(args) -> int:
    cfg, raw = load_config(args.config)
    _require(cfg, "spectrum", "dim", "points", "spacing")
    grid = _grid(cfg)
    zones = (("fundamental", grid), ("refined", _grid(cfg, refined=True)))
    alphas = [float(a) for a in cfg.get("alphas", [0.0, 0.25, 0.5])]
    outdir = _ensure_outdir(args.out)
    n, h = grid.n, grid.h  # the symbol keeps the fundamental spacing on the refined zone too
    gens = tuple(1 << k for k in range(2 * n))

    summary: dict[str, dict[str, float]] = {}
    worst_err = 0.0
    with open(os.path.join(outdir, "spectrum.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# shape={','.join(str(N) for N in grid.shape)}\n")
        fh.write(f"# spacing={h!r}\n")
        fh.write(f"# alphas={','.join(map(repr, alphas))}\n")
        values = ["d2", "z_norm", "velocity_norm", "mass_norm", "z2_err"]
        fh.write(",".join(["zone", "alpha"] + [f"xi{a + 1}" for a in range(n)] + values) + "\n")
        for zone_name, zone_grid in zones:
            # rows run over the sorted zone in C order, one slab of the first axis at a time
            axes = [np.sort(frequencies(N, zone_grid.h)) for N in zone_grid.shape]
            rest = list(itertools.product(*(ax.tolist() for ax in axes[1:])))
            tails = ["".join(f"{x!r}," for x in xi) for xi in rest]
            rest_away = np.array([any(xi) for xi in rest])  # whether a point of a slab has any nonzero xi_2..n
            for alpha in alphas:
                min_d2, min_z, max_err = math.inf, math.inf, 0.0
                for xi1 in axes[0].tolist():
                    slab = [np.array([xi1])] + axes[1:]
                    d2 = _d2_on(slab, h).ravel()
                    z = _z_on(slab, alpha, h).reshape(-1, 2 * n)
                    support, zz = mul_columns(n, gens, z, gens, z)
                    zz[:, 0] -= d2  # support[0] is the scalar blade
                    # each coefficient squared by libm pow, as Python's ** does; numpy's x * x can differ by an ulp
                    sq = (np.abs(z).astype(object) ** 2).astype(float)
                    vel = np.sqrt(sum(sq[:, j] for j in range(n)))
                    mas = np.sqrt(sum(sq[:, n + j] for j in range(n)))
                    z_norm, err = _blade_norms(n, gens, z), _blade_norms(n, support, zz)
                    head = f"{zone_name},{alpha!r},{xi1!r},"
                    rows = zip(*(map(repr, v.tolist()) for v in (d2, z_norm, vel, mas, err)))
                    fh.writelines(f"{head}{tail}{','.join(row)}\n" for tail, row in zip(tails, rows))
                    away = rest_away | (xi1 != 0.0)  # every point but the origin; as in min(), a NaN never wins
                    min_d2 = float(np.fmin.reduce(d2[away], initial=min_d2))
                    min_z = float(np.fmin.reduce(z_norm[away], initial=min_z))
                    max_err = float(np.fmax.reduce(err, initial=max_err))
                summary[f"{zone_name}:alpha={alpha!r}"] = {
                    "min_d2_nonzero": min_d2,
                    "min_z_norm_nonzero": min_z,
                    "edge_mass_norm": float(mas[-1]),  # the last point is the zone's upper edge
                    "max_z2_err": max_err,
                }
                worst_err = max(worst_err, max_err)

    status = _enforce_tolerance(args, worst_err)
    _write_json(
        os.path.join(outdir, "metadata.json"),
        {
            "command": "spectrum",
            "config": raw,
            "alphas": alphas,
            "files": ["spectrum.csv"],
            "summary": summary,
            "threads": args.threads,
            "tolerance": args.tolerance,
        },
    )
    return status


def cmd_selftest(args) -> int:
    from .selftest import run_all

    results = run_all()
    width = max(len(name) for name, _, _ in results)
    passed = 0
    for name, ok, detail in results:
        print(f"{name:<{width}}  {'pass' if ok else 'FAIL'}  {detail}")
        passed += ok
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


# -- entry point ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticewave",
        description="Lattice Klein-Gordon/Dirac evolution, kernels, and momentum spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="path to a key=value run configuration")
        p.add_argument("--out", default=".", help="output directory, created if missing")
        p.add_argument(
            "--allow-unstable",
            action="store_true",
            help="evolve past the CFL bound through the analytic continuation",
        )
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help="worker count recorded in run metadata (numerics use numpy's own pools)",
        )
        p.add_argument(
            "--tolerance",
            type=float,
            default=None,
            help="exit 3 if the worst reported residual exceeds this value",
        )

    p_evolve = sub.add_parser("evolve", help="solve the configured equation at the requested times")
    common(p_evolve)
    p_evolve.set_defaults(func=cmd_evolve)

    p_kernel = sub.add_parser("kernel", help="export propagator kernels as CSV")
    common(p_kernel)
    p_kernel.add_argument(
        "--kind",
        required=True,
        choices=["K0", "K1", "K0_alpha", "K1_alpha", "heat"],
        help="which kernel family to export",
    )
    p_kernel.set_defaults(func=cmd_kernel)

    p_spectrum = sub.add_parser("spectrum", help="sweep Dirac symbol magnitudes over momentum zones")
    common(p_spectrum)
    p_spectrum.set_defaults(func=cmd_spectrum)

    p_selftest = sub.add_parser("selftest", help="run the built-in checks and print a pass/fail table")
    p_selftest.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        threads = getattr(args, "threads", None)
        if threads is not None and threads < 1:
            raise ConfigError(f"--threads: must be at least 1, got {threads}")
        tolerance = getattr(args, "tolerance", None)
        if tolerance is not None and not 0.0 <= tolerance < math.inf:
            raise ConfigError(f"--tolerance: must be finite and at least 0, got {tolerance}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CflViolationError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
