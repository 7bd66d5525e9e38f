"""Command-line front end: evolve lattice fields, export kernels and spectra.

Subcommands
    evolve    solve the configured equation, one field CSV per output time
    kernel    export propagator kernels (wave, fractional wave, heat)
    spectrum  sweep the Dirac symbol over the momentum zone and its refinement
    selftest  run the built-in checks and print a pass/fail table

Configuration is a flat ``key=value`` text file; ``#`` starts a comment line
and every value is validated with a named error before any computation runs.
Exit codes: 0 success, 2 configuration error (also an ``--out`` that cannot
be a directory, or a failed output write), 3 numerical guard (CFL violation,
special-function domain guard, a non-finite kernel, or ``--tolerance``
exceeded).  The field CSV format and the row writer of every output CSV live
in ``fieldio``; ``store_field``, ``load_field`` and ``ConfigError`` are re-exported.
On Linux, ``evolve`` and ``kernel`` hand each large output field to
``fieldio.Writers``, which writes it in a forked process while a CPU is
spare, and compute the next one meanwhile; ``fieldio`` owns every fork.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import math
import os
import sys
from typing import Callable, Sequence

import numpy as np

from .clifford import _alpha, _frac_alpha, _nonnegative, _positive, mul_columns
from .fieldio import ConfigError, Writers, cells, load_field, open_csv, store_field, write_rows
from .fractional import (
    FracParams,
    fractional_symbols,
    heat_kernel_bessel,
    heat_kernel_spectral,
    heat_semigroup,
    solve_kg_fractional,
)
from .lattice import GridSpec, LatticeField, align, relative_gap
from .propagators import (
    CauchyData,
    Propagator,
    TimeModel,
    continuous_dirac_residual,
    continuous_kg_residual,
    dirac_residual,
    kg_residual,
    lambda_max,
    solve_dirac,
    solve_kg,
    wave_symbols,
)
from .spectral import _d2_on, _z_on, frequencies, scalar_kernel
from .umbral import CflViolationError

# bench/child.py's set-up hook looks these names up here; no command calls them
from .fractional import fractional_kernels  # noqa: F401
from .propagators import wave_kernels  # noqa: F401
from .spectral import multiplier_d2, multiplier_z  # noqa: F401

__all__ = ["ConfigError", "parse_config", "load_config", "store_field", "load_field", "main"]


# -- config schema --------------------------------------------------------------

_EQUATIONS = ("klein_gordon", "dirac", "heat", "fractional_kg")
_TIME_MODELS = ("continuous", "central_difference")
_DATA_KINDS = ("delta", "plane_wave", "gaussian", "file")
_VELOCITY_KINDS = ("zero",) + _DATA_KINDS
# each field role: its kind key, then the keys of its modes, width and path
_ROLES = {
    "initial": ("initial_data", "modes", "width", "path"),
    "velocity": ("initial_velocity", "velocity_modes", "velocity_width", "velocity_path"),
}


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


def _ruled(rule: Callable[[float, str], float]) -> Callable[[str, str], float]:
    """Parser of a number held to one of the library's argument rules, its error named by the key."""

    def parse(key: str, raw: str) -> float:
        try:
            return rule(_as_float(key, raw), f"{key}:")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    return parse


def _choice(key: str, raw: str, options: tuple[str, ...]) -> str:
    if raw not in options:
        raise ConfigError(f"{key}: must be one of {', '.join(options)}, got {raw!r}")
    return raw


def _float_list(key: str, raw: str) -> list[float]:
    return [_as_float(key, tok.strip()) for tok in raw.split(",")]


def _int_list(key: str, raw: str) -> list[int]:
    try:
        return [int(tok.strip()) for tok in raw.split(",")]
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated integers, got {raw!r}") from None


def _alpha_list(key: str, raw: str) -> list[float]:
    out = [_ruled(_alpha)(key, tok.strip()) for tok in raw.split(",")]
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
    "spacing": _ruled(_positive),
    "alpha": _ruled(_alpha),
    "mass": _ruled(_nonnegative),
    "time_model": lambda k, v: _choice(k, v, _TIME_MODELS),
    "tau": _ruled(_positive),
    "times": _float_list,
    "frac_alpha": _ruled(_frac_alpha),
    "initial_data": lambda k, v: _choice(k, v, _DATA_KINDS),
    "modes": _int_list,
    "width": _ruled(_positive),
    "path": lambda k, v: v,
    "initial_velocity": lambda k, v: _choice(k, v, _VELOCITY_KINDS),
    "velocity_modes": _int_list,
    "velocity_width": _ruled(_positive),
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

    for kind_key, modes_key, width_key, path_key in _ROLES.values():
        kind = cfg.get(kind_key)
        for sub, need in ((modes_key, "plane_wave"), (width_key, "gaussian"), (path_key, "file")):
            if kind == need and sub not in cfg:
                raise ConfigError(f"{sub}: required when {kind_key}={need}")
            if sub in cfg and kind != need:
                raise ConfigError(f"{sub}: only meaningful with {kind_key}={need}")
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


def _grid(cfg: dict[str, object], refined: bool = False) -> GridSpec:
    shape = (cfg["points"],) * cfg["dim"]
    try:
        grid = GridSpec(shape, cfg["spacing"], float(cfg.get("alpha", 0.0)), float(cfg.get("mass", 0.0)))
        return grid.refined() if refined else grid
    except ValueError as exc:  # every other key is range-checked when it is parsed
        raise ConfigError(f"spacing: {'on the refined zone, ' if refined else ''}{exc}") from None


def build_field(cfg: dict[str, object], grid: GridSpec, role: str) -> LatticeField:
    """Construct the configured initial position or velocity field; an unset kind is zero."""
    kind_key, modes_key, width_key, path_key = _ROLES[role]
    kind = cfg.get(kind_key, "zero")
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


def _write_json(path: str, payload: dict) -> None:
    # serialise first: a non-finite value must not leave a half-written file
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise ValueError(f"{path}: run metadata holds a non-finite value; not written") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# -- subcommands ----------------------------------------------------------------


def _worst(residuals: dict[str, dict[str, float]]):
    """Largest residual, or the first non-finite one; None if there are none.  Richardson orders are not residuals."""
    values = [v for kind, per_time in residuals.items() if kind != "richardson_order" for v in per_time.values()]
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


class _Run:
    """The pipeline that evolve, kernel and spectrum share: validate, compute, export.

    Construction loads the config and checks the command's required keys; the
    command then makes the rest of its checks.  Entering the run creates
    ``--out``, so a config error never leaves a directory behind, and an
    ``--out`` that cannot be a directory is one.  ``path`` names an output
    file and records it; ``finish`` applies ``--tolerance`` and writes
    ``metadata.json`` with the shared keys.  A run that ends without
    ``metadata.json`` (a guard tripped, a residual came out non-finite, or
    a write failed) removes the files at the output names it recorded; a
    directory at such a name, which made its write fail, stays.

    ``store`` writes one output field through ``fieldio.Writers``.  Its
    writers are reaped by ``finish`` before ``metadata.json`` and on exit
    before any file is removed, so no writer outlives the run; a writer's
    failure is raised as the inline write would have raised it.
    """

    def __init__(self, args, command: str, *keys: str):
        self.args, self.command = args, command
        self.cfg, self.raw = load_config(args.config)
        self.require(*keys)
        self.files: list[str] = []
        self.residuals: dict[str, dict[str, float]] = {}
        self.record: dict[str, object] = {}
        self.kept = False
        self.writers = Writers()

    def require(self, *keys: str) -> None:
        missing = [k for k in keys if k not in self.cfg]
        if missing:
            raise ConfigError(f"{self.command}: missing required key(s): {', '.join(missing)}")

    def time_model(self, grid: GridSpec, stepped: bool, heat_error: str) -> TimeModel | None:
        """The time model of evolve and kernel (None for heat flow); records their shared keys.

        Central-difference output times must lie on the tau/2 grid, heat times
        must be nonnegative (``heat_error`` is the command's text for that).
        """
        cfg, time, cfl = self.cfg, None, None
        if not stepped:
            if any(t < 0 for t in cfg["times"]):
                raise ConfigError(f"times: {heat_error}")
        elif cfg["time_model"] == "continuous":
            time = TimeModel.continuous()
        else:
            time = TimeModel.central_difference(cfg["tau"], allow_unstable=self.args.allow_unstable)
            for t in cfg["times"]:
                try:
                    time.validate_time(t)
                except ValueError as exc:
                    raise ConfigError(f"times: {exc}") from None
            bound, lam = time.cfl_bound(), lambda_max(grid, float(cfg["mass"]))
            cfl = {"bound": float(bound), "lambda_max": float(lam), "margin": float(bound - lam)}
        self.record.update(
            times=[float(t) for t in cfg["times"]],
            residuals=self.residuals,
            cfl=cfl,
            allow_unstable=bool(self.args.allow_unstable),
        )
        return time

    def __enter__(self) -> "_Run":
        try:
            os.makedirs(self.args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out: cannot create directory {self.args.out}: {exc.strerror or exc}") from None
        return self

    def path(self, name: str) -> str:
        self.files.append(name)
        return os.path.join(self.args.out, name)

    def store(self, field: LatticeField, name: str, **kw) -> None:
        """``store_field(field, self.path(name), **kw)``, in a forked writer or here."""
        self.writers.store(field, self.path(name), **kw)

    def finish(self, worst, **record) -> int:
        self.writers.reap(block=True)  # every file is whole, or its failure raised, before metadata.json
        status = _enforce_tolerance(self.args, worst)
        if worst is None or math.isfinite(worst):  # a non-finite residual keeps no output
            record.update(
                self.record, command=self.command, config=self.raw, files=self.files, tolerance=self.args.tolerance
            )
            _write_json(os.path.join(self.args.out, "metadata.json"), record)
            self.kept = True
        return status

    def __exit__(self, kind, *exc) -> None:
        try:
            self.writers.reap(block=True)  # no writer outlives the run, or writes a file after the cleanup
        except Exception:
            # a writer's file came before the error in flight, so an inline write would have failed
            # first; an interrupt or exit still ends the run as such
            if kind is None or issubclass(kind, Exception):
                raise
        finally:
            if not self.kept:
                for path in (os.path.join(self.args.out, name) for name in self.files):
                    if os.path.isfile(path):
                        os.remove(path)


def cmd_evolve(args) -> int:
    run = _Run(args, "evolve", "equation", "dim", "points", "spacing", "mass", "times", "initial_data")
    cfg = run.cfg
    equation = cfg["equation"]
    if equation != "heat":
        run.require("time_model")
    grid = _grid(cfg)
    m = float(cfg["mass"])
    phi0 = build_field(cfg, grid, "initial")
    time = run.time_model(grid, equation != "heat", "heat flow needs s >= 0")

    data = frac = plan = None
    if equation in ("klein_gordon", "fractional_kg"):
        data = CauchyData(phi0, build_field(cfg, grid, "velocity"))
        plan = Propagator(data, m)
    if equation == "dirac":
        plan = Propagator.dirac(phi0, grid.alpha, m)
    if equation == "fractional_kg":
        frac = FracParams(cfg["frac_alpha"], m)
    tau = None if time is None else time.tau  # set for central differences only

    # Per equation: the field at time t.  The lambdas look the solvers up by name each
    # time they run.  A plan transforms the Cauchy data inside its first solve, and once
    # per run: the continuous-time checks read the same plan.
    solvers = {
        "klein_gordon": lambda t: solve_kg(plan, time, m, t),
        "dirac": lambda t: solve_dirac(plan, time, grid.alpha, m, t),
        "heat": lambda t: heat_semigroup(phi0, t),
        "fractional_kg": lambda t: solve_kg_fractional(data, time, frac, t),
    }

    def leapfrog(t, psi, before, after):
        return {"kg_residual": kg_residual(before, psi, after, m, tau)}

    def half_step(t, psi, before, after):
        return {"dirac_residual": dirac_residual(before, psi, after, grid.alpha, m, tau)}

    def semigroup(t, psi, half):
        return {"semigroup_gap": relative_gap(heat_semigroup(half, t / 2.0), psi)}

    def equivalence(t, psi):
        return {"fractional_equivalence_gap": relative_gap(psi, solvers["klein_gordon"](t))}

    def richardson(t, psi):
        if equation == "dirac":
            pair = continuous_dirac_residual(plan, grid.alpha, m, t, psi=psi)
            return {"dirac_residual": pair[0], "richardson_order": pair[1]}
        pair = continuous_kg_residual(plan, m, t, psi=psi)
        return {"continuous_residual": pair[0], "richardson_order": pair[1]}

    # Each equation's checks, run in order, as (reads, check): check(t, psi, *slices) gets the slices
    # at the times reads(t) just before it runs, and the solve-once schedule below counts those reads.
    steps = [(lambda t: (t - tau, t + tau), leapfrog)] if tau else []
    checks = {
        "klein_gordon": steps or [(lambda t: (), richardson)],
        "dirac": [(lambda t: (t - tau / 2, t + tau / 2), half_step), *steps] if tau else [(lambda t: (), richardson)],
        "heat": [(lambda t: (t / 2.0,), semigroup)],
        "fractional_kg": [(lambda t: (), equivalence), *steps],
    }[equation]

    # Each slice is solved once and kept until its last read; the keys tell -0.0 from 0.0
    unread = collections.Counter(repr(t) for t in cfg["times"])
    unread.update(repr(x) for t in cfg["times"] for reads, _ in checks for x in reads(t))
    kept: dict[str, LatticeField] = {}

    def at(t: float) -> LatticeField:
        key = repr(t)
        psi = kept.pop(key, None)
        if psi is None:
            psi = solvers[equation](t)
        unread[key] -= 1
        if unread[key] > 0:
            kept[key] = psi
        return psi

    with run:
        for idx, t in enumerate(cfg["times"]):
            # overflow ends in a non-finite residual, which finish() reports
            with np.errstate(over="ignore", invalid="ignore"):
                psi = at(t)
                for reads, check in checks:  # a check's slices are released when it returns
                    for kind, value in check(t, psi, *map(at, reads(t))).items():
                        run.residuals.setdefault(kind, {})[repr(float(t))] = float(value)
            worst = _worst(run.residuals)
            if worst is not None and not math.isfinite(worst):
                break  # the run ends before this slice is written, and keeps no output
            run.store(psi, f"field_{idx:03d}.csv")
        return run.finish(_worst(run.residuals), equation=equation)


def cmd_kernel(args) -> int:
    run = _Run(args, "kernel", "dim", "points", "spacing", "mass", "times")
    cfg, kind = run.cfg, args.kind
    grid = _grid(cfg)
    m = float(cfg["mass"])
    if kind != "heat":
        run.require("time_model")
    time = run.time_model(grid, kind != "heat", "heat kernels need s >= 0")
    frac = None
    if kind in ("K0_alpha", "K1_alpha"):
        run.require("frac_alpha")
        if not m > 0:
            raise ConfigError("mass: fractional kernels need mass > 0")
        frac = FracParams(cfg["frac_alpha"], m)

    with run:
        for idx, t in enumerate(cfg["times"]):
            name = f"kernel_{kind}_{idx:03d}.csv"
            if kind == "heat":
                kb = heat_kernel_bessel(grid, t)
                ks = heat_kernel_spectral(grid, t)
                run.store(kb, name, s=t, spectral=ks)
                _, (bessel, spectral) = align(kb, ks)  # active columns only, not two dense 4**n-blade arrays
                disc = float(np.max(np.abs(bessel - spectral)))
                run.residuals.setdefault("heat_discrepancy", {})[repr(float(t))] = disc
            else:
                # only the stored multiplier is made; past the CFL bound it can overflow, and is then refused
                with np.errstate(over="ignore", invalid="ignore"):
                    pair = wave_symbols(grid, time, m, t) if frac is None else fractional_symbols(grid, time, frac, t)
                    kernel = scalar_kernel(grid, pair[kind.startswith("K1")])
                if not np.isfinite(kernel.columns).all():
                    raise ValueError(f"kernel {kind} at t={t!r} holds non-finite values")
                run.store(kernel, name)
        return run.finish(_worst(run.residuals), kind=kind)


def cmd_spectrum(args) -> int:
    run = _Run(args, "spectrum", "dim", "points", "spacing")
    grid = _grid(run.cfg)
    zones = (("fundamental", grid), ("refined", _grid(run.cfg, refined=True)))
    alphas = [float(a) for a in run.cfg.get("alphas", [0.0, 0.25, 0.5])]
    n, h = grid.n, grid.h  # the symbol keeps the fundamental spacing on the refined zone too
    gens = tuple(1 << k for k in range(2 * n))

    summary: dict[str, dict[str, float]] = {}
    worst_err = 0.0
    meta = {"shape": ",".join(map(str, grid.shape)), "spacing": repr(h), "alphas": ",".join(map(repr, alphas))}
    values = ["d2", "z_norm", "velocity_norm", "mass_norm", "z2_err"]
    columns = ["zone", "alpha"] + [f"xi{a + 1}" for a in range(n)] + values
    with run:
        with open_csv(run.path("spectrum.csv"), "spectrum file", meta, columns) as fh:
            for zone_name, zone_grid in zones:
                # rows run over the sorted zone in C order, one slab of the first axis at a time
                axes = [np.sort(frequencies(N, zone_grid.h)) for N in zone_grid.shape]
                rest = list(itertools.product(*(ax.tolist() for ax in axes[1:])))
                tails = [cells(xi) for xi in rest]
                rest_away = np.array([any(xi) for xi in rest])  # whether a point of a slab has any nonzero xi_2..n
                for alpha in alphas:
                    min_d2, min_z, max_err = math.inf, math.inf, 0.0
                    for xi1 in axes[0].tolist():
                        slab = [np.array([xi1])] + axes[1:]
                        d2 = _d2_on(slab, h).ravel()
                        z = _z_on(slab, alpha, h).reshape(-1, 2 * n)
                        _, zz = mul_columns(n, gens, z, gens, z)
                        zz[:, 0] -= d2  # the product's support starts with the scalar blade
                        sq = np.abs(z) ** 2  # columns e_1..e_n, then e_{n+1}..e_{2n}
                        vel, mas = np.sqrt(sq[:, :n].sum(axis=1)), np.sqrt(sq[:, n:].sum(axis=1))
                        z_norm, err = np.sqrt(sq.sum(axis=1)), np.sqrt((np.abs(zz) ** 2).sum(axis=1))
                        write_rows(fh, (zone_name, alpha, xi1), tails, [], (d2, z_norm, vel, mas, err))
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
        return run.finish(worst_err, alphas=alphas, summary=summary)


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

    def common(p: argparse.ArgumentParser, stepped: bool = True) -> None:
        p.add_argument("--config", required=True, help="path to a key=value run configuration")
        p.add_argument("--out", default=".", help="output directory, created if missing")
        if stepped:
            p.add_argument(
                "--allow-unstable",
                action="store_true",
                help="evolve past the CFL bound through the analytic continuation",
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
    common(p_spectrum, stepped=False)
    p_spectrum.set_defaults(func=cmd_spectrum)

    p_selftest = sub.add_parser("selftest", help="run the built-in checks and print a pass/fail table")
    p_selftest.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        tolerance = getattr(args, "tolerance", None)
        if tolerance is not None and not 0.0 <= tolerance < math.inf:
            raise ConfigError(f"--tolerance: must be finite and at least 0, got {tolerance}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CflViolationError, ValueError) as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
