"""Tests of the benchmark itself: validator, smoke runs, self-time arithmetic."""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from latticewave import GridSpec, LatticeField, random_field  # noqa: E402
from latticewave.cli import store_field  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


# -- validator ------------------------------------------------------------------------


def _dirac_outputs(tmp_path, residual: float, bad_field: bool) -> str:
    grid = GridSpec((2, 2), 1.0, 0.25, 1.0)
    rng = np.random.default_rng(7)
    files = []
    for idx in range(len(workloads.DIRAC_TIMES)):
        f = random_field(grid, rng)
        if bad_field and idx == 2:
            vals = f.values.copy()
            vals[1, 0, 3] = complex(math.nan, 0.0)
            f = LatticeField(grid, vals)
        name = f"field_{idx:03d}.csv"
        store_field(f, str(tmp_path / name))
        files.append(name)
    per_time = {repr(t): 1e-15 for t in workloads.DIRAC_TIMES}
    residuals = {"dirac_residual": dict(per_time), "kg_residual": dict(per_time)}
    residuals["dirac_residual"]["1.0"] = residual
    with open(tmp_path / "metadata.json", "w", encoding="utf-8") as fh:
        json.dump({"files": files, "residuals": residuals}, fh)  # json writes bare NaN
    return str(tmp_path)


def _dirac_prepared() -> workloads.Prepared:
    return workloads.Prepared(child_args=lambda out: [], inputs={}, output_fields=len(workloads.DIRAC_TIMES))


def test_validator_accepts_clean_outputs(tmp_path):
    outdir = _dirac_outputs(tmp_path, 1e-14, bad_field=False)
    assert workloads.WORKLOADS["evolve-dirac3d"].validate(_dirac_prepared(), outdir) == []


def test_validator_flags_nan_residual(tmp_path):
    outdir = _dirac_outputs(tmp_path, math.nan, bad_field=False)
    problems = workloads.WORKLOADS["evolve-dirac3d"].validate(_dirac_prepared(), outdir)
    assert any("non-finite metadata value" in p for p in problems)


def test_validator_flags_nan_field_coefficient(tmp_path):
    outdir = _dirac_outputs(tmp_path, 1e-14, bad_field=True)
    problems = workloads.WORKLOADS["evolve-dirac3d"].validate(_dirac_prepared(), outdir)
    assert problems == ["field_002.csv holds a non-finite coefficient"]


# -- self-time arithmetic ---------------------------------------------------------------


def _span(name, parent, start, end):
    return {"name": name, "parent": parent, "start": start, "end": end, "run": "r"}


def test_self_times_on_nested_trace():
    spans = [
        _span("cli.command", -1, 0, 100),
        _span("propagators.solve", 0, 10, 40),
        _span("spectral.fft", 1, 20, 30),
        _span("propagators.solve", 0, 50, 90),
        _span("cli.store", 0, 80, 95),  # overlaps its sibling: the union counts once
    ]
    assert tracer.self_times(spans) == pytest.approx([25e-9, 20e-9, 10e-9, 40e-9, 15e-9])
    secs, calls = tracer.bucket_totals(spans)
    assert secs["propagators.solve"] == pytest.approx(60e-9)
    assert calls == {"cli.command": 1, "propagators.solve": 2, "spectral.fft": 1, "cli.store": 1}


def test_layer_metrics_add_up_to_wall():
    spans = [
        _span("cli.command", -1, 0, 1_000_000_000),
        _span("spectral.fft", 0, 100_000_000, 400_000_000),
        _span("trace.counters", 0, 50_000_000, 100_000_000),
    ]
    report = {"spans": spans, "counters": {"spectral.columns": 64, "spectral.active_columns": 1}}
    m = tracer.layer_metrics(report, wall_s=1.5, output_fields=2, csv_rows=10, csv_bytes=2_000_000)
    assert m["spectral.fft_s"] == pytest.approx(0.3)
    assert m["cli.self_s"] == pytest.approx(0.65)
    assert m["trace.counter_s"] == pytest.approx(0.05)
    assert m["trace.remainder_s"] == pytest.approx(0.5)
    assert m["spectral.active_ratio"] == 1 / 64
    assert m["propagators.ffts_per_field"] == 0.5
    assert m["cli.csv_mb"] == 2.0


# -- the benchmark's contract -------------------------------------------------------------


def test_benchmark_json_names_every_metric():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == tracer.PER_LAYER


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1 + trace
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if workload == "evolve-kg3d" and trace:
        assert result["metrics"]["spectral.active_ratio"]["value"] == 1 / 64
        assert result["metrics"]["clifford.mul_calls"]["value"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "spectrum3d", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
