"""latticewave benchmark: one workload, one seed, one measuring window.

    python3 bench/run.py --workload evolve-kg3d --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The seed makes the inputs (before timing
starts); then operations run back to back, each in a fresh process, until
``--seconds`` have passed.  Every operation's outputs are checked against an
independent oracle outside the timed region.

``--trace 0`` prints the end-to-end metrics (medians over the operations):
wall_s, setup_s, cpu_s and peak_rss_mb.  ``--trace 1`` alternates untraced
and traced operations and prints the per-layer split of the traced ones,
plus the tracing overhead.  A JSON record of the machine, the inputs and
every sample comes first; the last line of stdout is the result:

    {"correct": true, "attempted": 4, "failed": 0, "metrics": {"wall_s": {"value": ..., "unit": "s"}, ...}}

``--tiny`` shrinks every grid, for smoke tests.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".bench_work")

# Every child is single-threaded, so the benchmark is one load-generating
# process and CPU time equals busy time.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def _commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }


def run_op(argv: list[str], env: dict, log_path: str) -> dict:
    """Run one child to completion; wall, CPU and peak RSS of that process."""
    with open(log_path, "w", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "t0": t0,
        "exit": proc.returncode,
        "wall_s": t1 - t0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
    }


def _tail(path: str, lines: int = 5) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return "".join(fh.readlines()[-lines:]).strip()
    except OSError:
        return ""


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload, prep, args, env, workdir: str) -> tuple[list[dict], list[dict]]:
    """Operations back to back until the window closes.  Returns (ops, layer samples)."""
    from tracer import layer_metrics, outermost_times
    from workloads import csv_stats

    ops: list[dict] = []
    layers: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 1
        idx = len(ops)
        run_id = f"{workload.name}-s{args.seed}-op{idx}"
        outdir = os.path.join(workdir, f"op{idx}")
        os.makedirs(outdir)
        report_path = os.path.join(workdir, f"op{idx}.report.json")
        argv = [sys.executable, CHILD, "--report", report_path, "--run-id", run_id]
        argv += ["--trace"] if traced else []
        op = run_op(argv + prep.child_args(outdir), env, os.path.join(workdir, f"op{idx}.log"))
        op["traced"] = traced
        problems = []
        report = None
        try:
            with open(report_path, encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            problems.append(f"no child report: {exc}")
        if op["exit"] != 0:
            problems.append(f"exit code {op['exit']}: {_tail(os.path.join(workdir, f'op{idx}.log'))}")
        if report is not None and report["setup_at"] is not None:
            op["setup_s"] = report["setup_at"] - op["t0"]
        elif not problems:
            problems.append("no call into a numeric layer was recorded")
        if not problems:
            v0 = time.perf_counter()
            problems = workload.validate(prep, outdir)
            op["validate_s"] = time.perf_counter() - v0
        if traced and not problems:
            rows, size = csv_stats(outdir)
            layers.append(layer_metrics(report["trace"], op["wall_s"], prep.output_fields, rows, size))
            op["outermost"] = outermost_times(report["trace"]["spans"])
        op["problems"] = problems
        del op["t0"]
        ops.append(op)
        shutil.rmtree(outdir)
        for leftover in (report_path, os.path.join(workdir, f"op{idx}.log")):
            if os.path.exists(leftover):
                os.remove(leftover)
        if time.perf_counter() - start >= args.seconds and (not args.trace or traced):
            return ops, layers


def summarize(ops: list[dict], layers: list[dict], trace: bool) -> dict[str, dict]:
    from tracer import PER_LAYER

    if not trace:
        return {
            name: {"value": _median([op[name] for op in ops if name in op]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    metrics = {}
    for name, (unit, _) in PER_LAYER.items():
        if name == "trace.overhead_s":
            traced = _median([op["wall_s"] for op in ops if op["traced"]])
            plain = _median([op["wall_s"] for op in ops if not op["traced"]])
            value = traced - plain
        else:
            value = _median([sample[name] for sample in layers])
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="latticewave benchmark (see bench/README.md)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every grid (smoke tests)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "latticewave", "__init__.py")):
        print(f"bench: no latticewave sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import numpy as np

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    workdir = os.path.join(WORK, f"{workload.name}-s{args.seed}-p{os.getpid()}")
    os.makedirs(os.path.join(workdir, "inputs"))
    try:
        prep = workload.prepare(np.random.default_rng(args.seed), os.path.join(workdir, "inputs"), args.tiny)
        # compile bytecode and warm the page cache once, outside the window
        subprocess.run([sys.executable, "-c", "import latticewave.cli"], env=env, check=False)
        ops, layers = measure(workload, prep, args, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for op in ops if op["problems"])
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "inputs_sha256": prep.inputs,
        "output_fields": prep.output_fields,
        "machine": machine_record(),
        "ops": ops,
        "layer_samples": layers,
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": summarize(ops, layers, bool(args.trace)),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
