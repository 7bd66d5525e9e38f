"""One benchmark operation, run in its own process.

    python3 bench/child.py --report R.json --run-id ID [--trace] cli evolve --config ...
    python3 bench/child.py --report R.json --run-id ID [--trace] frac-heat --field F.csv --out DIR ...

``cli`` runs ``latticewave.cli.main`` on the remaining arguments, exactly as
the ``latticewave`` console script does.  ``frac-heat`` runs a Python API
session (fractional powers by two routes, heat kernels by two routes) and
saves its results for the parent's validator.

Every run records when set-up ended: a timestamp-only hook wraps the entry
points into the numeric layers and, on the first call into any of them,
notes ``time.perf_counter()`` (CLOCK_MONOTONIC, shared with the parent) and
puts the original functions back.  With ``--trace`` the public functions of
every module are wrapped with span recorders (see tracer.py).  The report is
written once, when the operation ends.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

# First calls into a numeric layer.  Everything before one of them is set-up:
# interpreter start, imports, config parsing, loading the initial fields and
# building the TimeModel.
CLI_ENTRY = (
    "solve_kg", "solve_dirac", "solve_kg_fractional", "heat_semigroup",
    "heat_kernel_bessel", "heat_kernel_spectral", "wave_kernels", "fractional_kernels",
    "frequencies", "multiplier_d2", "multiplier_z",
)
API_ENTRY = ("frac_power", "heat_semigroup", "heat_kernel_bessel", "heat_kernel_spectral")


class SetupHook:
    """Records the first call into any of ``names`` in ``namespace``, then unhooks."""

    def __init__(self, namespace, names):
        self.at: float | None = None
        self._namespace = namespace
        self._saved = {name: getattr(namespace, name) for name in names}
        for name, fn in self._saved.items():
            setattr(namespace, name, self._first_call(fn))

    def _first_call(self, fn):
        def hook(*args, **kwargs):
            if self.at is None:
                self.at = time.perf_counter()
                for name, orig in self._saved.items():
                    setattr(self._namespace, name, orig)
            return fn(*args, **kwargs)

        return hook


def frac_heat_session(argv) -> int:
    """Python API session of the frac-heat workload."""
    import numpy as np

    import latticewave as lw
    from latticewave import cli

    p = argparse.ArgumentParser(prog="frac-heat")
    p.add_argument("--field", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--mass", type=float, required=True)
    p.add_argument("--kernel-points", type=int, required=True)
    p.add_argument("--kernel-spacing", type=float, required=True)
    p.add_argument("--s-values", required=True, help="comma list of heat times")
    args = p.parse_args(argv)

    field = cli.load_field(args.field)
    params = lw.FracParams(args.alpha, args.mass)
    line = lw.GridSpec((args.kernel_points,), args.kernel_spacing)
    s_values = [float(tok) for tok in args.s_values.split(",")]

    sub = lw.frac_power(field, params, "subordination")
    spec = lw.frac_power(field, params, "spectral")
    bessel = [lw.heat_kernel_bessel(line, s).values for s in s_values]
    spectral = [lw.heat_kernel_spectral(line, s).values for s in s_values]
    np.savez(
        f"{args.out}/results.npz",
        subordination=sub.values,
        spectral=spec.values,
        kernel_bessel=np.stack(bessel),
        kernel_spectral=np.stack(spectral),
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True, help="JSON file written when the operation ends")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("kind", choices=("cli", "frac-heat"))
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    import latticewave
    import latticewave.cli

    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer(args.run_id)
        install(tracer)
    cli = args.kind == "cli"
    hook = SetupHook(latticewave.cli, CLI_ENTRY) if cli else SetupHook(latticewave, API_ENTRY)
    rc = 1
    try:
        rc = latticewave.cli.main(args.rest) if cli else frac_heat_session(args.rest)
    finally:
        report = {"setup_at": hook.at, "exit": rc, "trace": tracer.dump() if tracer else None}
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
