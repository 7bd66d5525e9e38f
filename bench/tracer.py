"""Span recorder for traced benchmark runs, and the arithmetic that turns
spans into per-layer metrics.

The package has no instrumentation of its own, so a traced child wraps the
public functions of each ``latticewave`` module from the outside.  Functions
are replaced in every ``latticewave.*`` namespace that holds them, because
``cli``, ``propagators`` and ``fractional`` import by name.  One exception:
``mul_arrays`` stays unwrapped inside ``clifford`` itself, so the product
inside ``Multivector.__mul__`` counts as a multivector product
(``clifford.mv``) and not a second time as an array product.

Spans live in memory as ``[bucket, parent index, start ns, end ns]`` and are
written out once, when the child ends.  A bucket's self time is the sum over
its spans of the span's duration minus the part of it that child spans
cover.  Counters (blade columns, product pairs, bytes) are computed in a
``trace.counters`` span of their own, so their cost shows up as tracing
overhead instead of inflating the self time of the caller.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Iterable

import numpy as np

# -- recording ---------------------------------------------------------------


class Tracer:
    """In-memory span stack for one child process (one benchmark operation)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def _open(self, bucket: str) -> list:
        rec = [bucket, self.stack[-1] if self.stack else -1, time.perf_counter_ns(), 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, fn: Callable, bucket, count: Callable | None = None, span: bool = True) -> Callable:
        """Wrapper that records a span around ``fn``.

        ``bucket`` is a name, or a callable of (args, kwargs) returning a name
        or None (no span for this call).  ``count(counters, args, kwargs)``
        adds counters before the call; with ``span=False`` only ``count``
        runs, which keeps very hot scalar functions cheap to trace.
        """
        tracer = self

        def traced(*args, **kwargs):
            if count is not None:
                if span:
                    rec = tracer._open("trace.counters")
                    try:
                        count(tracer.counters, args, kwargs)
                    finally:
                        tracer._close(rec)
                else:
                    count(tracer.counters, args, kwargs)
            if not span:
                return fn(*args, **kwargs)
            name = bucket(args, kwargs) if callable(bucket) else bucket
            if name is None:
                return fn(*args, **kwargs)
            rec = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec)

        traced.__wrapped__ = fn
        return traced

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [
                {"name": n, "parent": p, "start": s, "end": e, "run": self.run_id}
                for n, p, s, e in self.spans
            ],
            "counters": dict(self.counters),
        }


# -- counters ------------------------------------------------------------------


def active_blades(arr) -> int:
    """Blade columns (last axis) holding at least one nonzero value."""
    a = np.asarray(arr)
    return int(np.count_nonzero(np.any(a.reshape(-1, a.shape[-1]) != 0, axis=0)))


def _count_mul(c, args, kwargs) -> None:
    n, a, b = args[:3]
    size = 1 << (2 * int(n))
    c["clifford.pairs_useful"] += active_blades(a) * active_blades(b)
    c["clifford.pairs_total"] += size * size


def _count_fft(c, args, kwargs) -> None:
    vals = np.asarray(args[0].values)
    c["spectral.columns"] += vals.shape[-1]
    c["spectral.active_columns"] += active_blades(vals)
    # computed, not measured: one read of the input plus one write of the output
    c["spectral.bytes"] += 2 * vals.nbytes


def _count_bessel(c, args, kwargs) -> None:
    c["fractional.bessel_calls"] += 1


def _mv_bucket(args, kwargs):
    # Multivector * scalar is a rescale, not a geometric product
    return "clifford.mv" if isinstance(args[1], type(args[0])) else None


def _frac_bucket(args, kwargs):
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "spectral")
    return "fractional.subordination" if mode == "subordination" else "fractional.power"


# (module, attribute, bucket, counter, span).  A dotted attribute names a
# method or classmethod, patched once on its class.
TARGETS: tuple = (
    ("clifford", "mul_arrays", "clifford.mul", _count_mul, True),
    ("clifford", "Multivector.__mul__", _mv_bucket, None, True),
    ("spectral", "dft", "spectral.fft", _count_fft, True),
    ("spectral", "idft", "spectral.fft", _count_fft, True),
    ("spectral", "d2_field", "spectral.symbol", None, True),
    ("spectral", "z_field", "spectral.symbol", None, True),
    ("spectral", "multiplier_d2", "spectral.symbol", None, True),
    ("spectral", "multiplier_z", "spectral.symbol", None, True),
    ("umbral", "wave_multiplier_arrays", "umbral.multiplier", None, True),
    ("umbral", "DeltaOperator.central_difference", "umbral.delta_build", None, True),
    ("umbral", "DeltaOperator.derivative", "umbral.delta_build", None, True),
    ("propagators", "TimeModel.central_difference", "umbral.delta_build", None, True),
    ("propagators", "TimeModel.continuous", "umbral.delta_build", None, True),
    ("lattice", "discrete_laplacian", "lattice.stencil", None, True),
    ("lattice", "dirac_kahler", "lattice.stencil", None, True),
    ("lattice", "dirac_kahler_dagger", "lattice.stencil", None, True),
    ("lattice", "norm", "lattice.norm", None, True),
    ("lattice", "relative_gap", "lattice.norm", None, True),
    ("lattice", "random_field", "lattice.build", None, True),
    ("lattice", "LatticeField.zeros", "lattice.build", None, True),
    ("lattice", "LatticeField.delta", "lattice.build", None, True),
    ("lattice", "LatticeField.from_scalar", "lattice.build", None, True),
    ("lattice", "LatticeField.constant", "lattice.build", None, True),
    ("lattice", "LatticeField.plane_wave", "lattice.build", None, True),
    ("lattice", "LatticeField.gaussian", "lattice.build", None, True),
    ("propagators", "solve_kg", "propagators.solve", None, True),
    ("propagators", "solve_dirac", "propagators.solve", None, True),
    ("propagators", "dirac_data", "propagators.solve", None, True),
    ("propagators", "kg_residual", "propagators.residual", None, True),
    ("propagators", "dirac_residual", "propagators.residual", None, True),
    ("propagators", "continuous_kg_residual", "propagators.residual", None, True),
    ("propagators", "continuous_dirac_residual", "propagators.residual", None, True),
    ("fractional", "heat_semigroup", "fractional.heat", None, True),
    ("fractional", "frac_power", _frac_bucket, None, True),
    ("fractional", "heat_kernel_bessel", "fractional.bessel", None, True),
    ("fractional", "heat_kernel_spectral", "fractional.kernel", None, True),
    ("fractional", "bessel_i", None, _count_bessel, False),
    ("cli", "load_config", "cli.load", None, True),
    ("cli", "load_field", "cli.load", None, True),
    ("cli", "store_field", "cli.store", None, True),
    ("cli", "cmd_evolve", "cli.command", None, True),
    ("cli", "cmd_kernel", "cli.command", None, True),
    ("cli", "cmd_spectrum", "cli.command", None, True),
)


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "latticewave" or name.startswith("latticewave."))]


def install(tracer: Tracer) -> None:
    """Wrap every target in every latticewave namespace that holds it."""
    import importlib

    modules = _package_modules()
    for mod_name, attr, bucket, count, span in TARGETS:
        home = importlib.import_module(f"latticewave.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(tracer.wrap(raw.__func__, bucket, count, span)))
            else:
                setattr(cls, meth, tracer.wrap(raw, bucket, count, span))
            continue
        orig = getattr(home, attr)
        wrapped = tracer.wrap(orig, bucket, count, span)
        for mod in modules:
            if mod_name == "clifford" and mod is home:
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)


# -- analysis -------------------------------------------------------------------


def self_times(spans: Iterable[dict]) -> list[float]:
    """Self time in seconds of each span: duration minus the part of it
    covered by its direct children (overlapping children are merged)."""
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for sp in spans:
        if sp["parent"] >= 0:
            children[sp["parent"]].append((sp["start"], sp["end"]))
    out = []
    for idx, sp in enumerate(spans):
        lo, hi = sp["start"], sp["end"]
        covered = 0
        cur_lo = cur_hi = None
        for a, b in sorted(children.get(idx, ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo - covered) / 1e9)
    return out


def bucket_totals(spans: list[dict]) -> tuple[dict[str, float], dict[str, int]]:
    """Self seconds and span counts per bucket."""
    secs: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for sp, st in zip(spans, self_times(spans)):
        secs[sp["name"]] += st
        calls[sp["name"]] += 1
    return secs, calls


def outermost_times(spans: list[dict]) -> dict[str, list]:
    """Per bucket: [calls, inclusive seconds] over spans with no ancestor of
    the same bucket, e.g. whole solve_dirac calls, not their inner solve_kg."""
    out: dict[str, list] = {}
    for sp in spans:
        anc = sp["parent"]
        while anc >= 0 and spans[anc]["name"] != sp["name"]:
            anc = spans[anc]["parent"]
        if anc < 0:
            entry = out.setdefault(sp["name"], [0, 0.0])
            entry[0] += 1
            entry[1] += (sp["end"] - sp["start"]) / 1e9
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Self-time metrics: name -> bucket.  Together with trace.counter_s and
# trace.remainder_s they add up to the traced wall time.
SELF_TIME_METRICS = {
    "clifford.mul_s": "clifford.mul",
    "clifford.mv_s": "clifford.mv",
    "spectral.fft_s": "spectral.fft",
    "spectral.symbol_s": "spectral.symbol",
    "umbral.multiplier_s": "umbral.multiplier",
    "umbral.delta_build_s": "umbral.delta_build",
    "lattice.stencil_s": "lattice.stencil",
    "lattice.norm_s": "lattice.norm",
    "lattice.build_s": "lattice.build",
    "propagators.self_s": "propagators.solve",
    "propagators.residual_s": "propagators.residual",
    "fractional.heat_s": "fractional.heat",
    "fractional.subordination_s": "fractional.subordination",
    "fractional.bessel_s": "fractional.bessel",
    "cli.load_s": "cli.load",
    "cli.store_s": "cli.store",
    "cli.self_s": "cli.command",
}


def layer_metrics(report: dict, wall_s: float, output_fields: int, csv_rows: int, csv_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced operation."""
    secs, calls = bucket_totals(report["spans"])
    c = report["counters"]
    out = {name: secs.get(bucket, 0.0) for name, bucket in SELF_TIME_METRICS.items()}
    out.update({
        "clifford.mul_calls": calls.get("clifford.mul", 0),
        "clifford.pair_ratio": _ratio(c.get("clifford.pairs_useful", 0), c.get("clifford.pairs_total", 0)),
        "clifford.mv_products": calls.get("clifford.mv", 0),
        "spectral.fft_calls": calls.get("spectral.fft", 0),
        "spectral.columns": c.get("spectral.columns", 0),
        "spectral.active_ratio": _ratio(c.get("spectral.active_columns", 0), c.get("spectral.columns", 0)),
        "spectral.fft_mb": c.get("spectral.bytes", 0) / 1e6,
        "umbral.multiplier_calls": calls.get("umbral.multiplier", 0),
        "lattice.stencil_calls": calls.get("lattice.stencil", 0),
        "propagators.solve_calls": calls.get("propagators.solve", 0),
        "propagators.ffts_per_field": calls.get("spectral.fft", 0) / output_fields,
        "fractional.heat_calls": calls.get("fractional.heat", 0),
        "fractional.bessel_calls": c.get("fractional.bessel_calls", 0),
        "cli.csv_rows": csv_rows,
        "cli.csv_mb": csv_bytes / 1e6,
        "trace.counter_s": secs.get("trace.counters", 0.0),
    })
    attributed = sum(out[name] for name in SELF_TIME_METRICS) + out["trace.counter_s"]
    out["trace.remainder_s"] = wall_s - attributed
    out["trace.wall_s"] = wall_s
    return out


# Every per-layer metric a traced run reports: name -> (unit, better).
# Ratios of an empty denominator (no call of that layer) read 0.
PER_LAYER = {
    "clifford.mul_calls": ("count", "lower"),
    "clifford.mul_s": ("s", "lower"),
    "clifford.pair_ratio": ("ratio", "higher"),
    "clifford.mv_products": ("count", "lower"),
    "clifford.mv_s": ("s", "lower"),
    "spectral.fft_calls": ("count", "lower"),
    "spectral.fft_s": ("s", "lower"),
    "spectral.columns": ("count", "lower"),
    "spectral.active_ratio": ("ratio", "higher"),
    "spectral.fft_mb": ("MB", "lower"),
    "spectral.symbol_s": ("s", "lower"),
    "umbral.multiplier_calls": ("count", "lower"),
    "umbral.multiplier_s": ("s", "lower"),
    "umbral.delta_build_s": ("s", "lower"),
    "lattice.stencil_calls": ("count", "lower"),
    "lattice.stencil_s": ("s", "lower"),
    "lattice.norm_s": ("s", "lower"),
    "lattice.build_s": ("s", "lower"),
    "propagators.solve_calls": ("count", "lower"),
    "propagators.self_s": ("s", "lower"),
    "propagators.residual_s": ("s", "lower"),
    "propagators.ffts_per_field": ("count", "lower"),
    "fractional.heat_calls": ("count", "lower"),
    "fractional.heat_s": ("s", "lower"),
    "fractional.subordination_s": ("s", "lower"),
    "fractional.bessel_calls": ("count", "lower"),
    "fractional.bessel_s": ("s", "lower"),
    "cli.load_s": ("s", "lower"),
    "cli.store_s": ("s", "lower"),
    "cli.csv_rows": ("count", "lower"),
    "cli.csv_mb": ("MB", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.counter_s": ("s", "lower"),
    "trace.remainder_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
