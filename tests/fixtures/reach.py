"""What the commands reach: each function of the package as run, check, twin or unreached.

    python tests/fixtures/reach.py

runs, in this process under ``sys.setprofile`` (standard library only):

* the run path: every golden run of ``golden_runs.txt``, ``kernel`` of every
  kind, a file-input ``evolve`` (inline, then with its field reader and
  output writers forced, and on three files that exercise the reader's
  other paths) and the ``frac-heat`` workload's API session from
  ``bench/child.py``, on small inputs;
* the checks: ``latticewave selftest``.

It then prints every function that ``src/latticewave`` defines, nested ones
too, as ``run`` (the run path enters it), ``twin`` (``oracles`` defines it),
``check`` (only ``selftest`` enters it) or ``unreached``, and a count per
module.  A forked worker hands the calls it saw to this process before it
exits.  The package is imported from this checkout's ``src``.  Like
``line_hits.py`` the script only measures: it exits 0.
"""

import ast
import contextlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "latticewave"
KINDS = ("K0", "K1", "K0_alpha", "K1_alpha", "heat")
SMALL = """dim = {dim}
points = 8
spacing = 0.5
mass = 1.0
time_model = continuous
times = 0.5
"""


def functions(path: Path) -> list[tuple[int, str, str]]:
    """(first line, name, qualified name) of every function in the module at ``path``; a
    decorated function starts at its first decorator, as its code object does."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((first, child.name, prefix + child.name))
                visit(child, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return sorted(found)


class Calls:
    """The (file, first line, name) of every Python function entered while ``recording``, forked
    workers' included: a worker writes its own into ``spool`` when it calls ``os._exit``."""

    def __init__(self, spool: str):
        self.seen: set[tuple[str, int, str]] = set()
        self.spool, self.parent = spool, os.getpid()
        real_exit = os._exit

        def _exit(code: int) -> None:
            try:
                if os.getpid() != self.parent:
                    sys.setprofile(None)
                    with open(os.path.join(spool, f"{os.getpid()}.txt"), "w", encoding="utf-8") as fh:
                        fh.writelines(f"{f}\t{line}\t{name}\n" for f, line, name in self.seen)
            finally:
                real_exit(code)

        os._exit = _exit

    def _profile(self, frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            self.seen.add((code.co_filename, code.co_firstlineno, code.co_name))

    @contextlib.contextmanager
    def recording(self):
        self.seen = set()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            sys.setprofile(self._profile)
            try:
                yield self.seen
            finally:
                sys.setprofile(None)
        for name in os.listdir(self.spool):
            with open(os.path.join(self.spool, name), encoding="utf-8") as fh:
                for row in fh:
                    f, line, fn = row.rstrip("\n").split("\t")
                    self.seen.add((f, int(line), fn))
            os.remove(os.path.join(self.spool, name))


def run_path(tmp: str) -> None:
    """The commands and the API session, each writing under ``tmp``."""
    import numpy as np

    from latticewave import GridSpec, fieldio, random_field
    from latticewave.cli import main, store_field

    sys.path.insert(0, str(ROOT / "bench"))
    from child import frac_heat_session

    with open(ROOT / "tests" / "fixtures" / "golden_runs.txt", encoding="utf-8") as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                name, args = line.split(maxsplit=1)
                main(shlex.split(args) + ["--out", os.path.join(tmp, "golden", name)])

    cfg = os.path.join(tmp, "kernel.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(SMALL.format(dim=1) + "frac_alpha = 0.25\n")
    for kind in KINDS:
        main(["kernel", "--kind", kind, "--config", cfg, "--out", os.path.join(tmp, f"kernel_{kind}")])

    def evolve(field: str, dim: int, out: str) -> None:
        cfg = os.path.join(tmp, f"{out}.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(SMALL.format(dim=dim) + f"equation = klein_gordon\ninitial_data = file\npath = {field}\n")
        main(["evolve", "--config", cfg, "--out", os.path.join(tmp, out)])

    field = os.path.join(tmp, "field.csv")
    store_field(random_field(GridSpec((8, 8), 0.5, mass=1.0), np.random.default_rng(7)), field)
    evolve(field, 2, "file_inline")
    saved = fieldio._WRITER_ROWS, fieldio._READER_BYTES, fieldio._CHUNK_BYTES
    fieldio._WRITER_ROWS, fieldio._READER_BYTES, fieldio._CHUNK_BYTES = 0, 0, 1 << 10
    try:
        evolve(field, 2, "file_forked")
    finally:
        fieldio._WRITER_ROWS, fieldio._READER_BYTES, fieldio._CHUNK_BYTES = saved
    # a blade label spelled another way, which loads, then two files that evolve refuses
    for name, rows in (("spelled", "0,01,1.0,0.0\n"), ("malformed", "0,,1.0\n"), ("bare_cr", "0,,1.0,0.0\r1,,2.0,0.0\n")):
        field = os.path.join(tmp, f"{name}.csv")
        with open(field, "w", encoding="utf-8", newline="") as fh:
            fh.write("# shape=8\n# spacing=0.5\n# alpha=0.0\n# mass=1.0\nx1,blade,re,im\n" + rows)
        evolve(field, 1, name)

    out = os.path.join(tmp, "frac_heat")
    os.makedirs(out)
    frac_heat_session(["--field", os.path.join(tmp, "field.csv"), "--out", out, "--alpha", "0.25", "--mass", "1.0",
                       "--kernel-points", "16", "--kernel-spacing", "0.5", "--s-values", "0.1,2.0"])


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)  # golden_runs.txt names its configs from the repo root
    from latticewave.cli import main as cli

    with tempfile.TemporaryDirectory() as tmp:
        spool = os.path.join(tmp, "spool")
        os.makedirs(spool)
        calls = Calls(spool)
        with calls.recording() as run:
            run_path(tmp)
        with calls.recording() as check:
            cli(["selftest"])
    run, check = ({(os.path.realpath(f), line, name) for f, line, name in seen} for seen in (run, check))

    counts: dict[str, dict[str, int]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = counts.setdefault(path.stem, dict.fromkeys(("run", "check", "twin", "unreached"), 0))
        for line, name, qualname in functions(path):
            key = (os.path.realpath(path), line, name)
            kind = ("run" if key in run else "twin" if path.stem == "oracles"
                    else "check" if key in check else "unreached")
            module[kind] += 1
            print(f"{kind:<9}  {path.stem}.{qualname}  (line {line})")
    print()
    for module, n in counts.items():
        print(f"{module}: " + ", ".join(f"{n[kind]} {kind}" for kind in n))
    total = {kind: sum(n[kind] for n in counts.values()) for kind in ("run", "check", "twin", "unreached")}
    print("all: " + ", ".join(f"{total[kind]} {kind}" for kind in total))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
