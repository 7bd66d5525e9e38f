"""Lines of the package that no tier-1 test runs.

    python tests/fixtures/line_hits.py [PYTEST_ARGS ...]

runs the tier-1 suite (``tests`` and ``bench``, with tier-1's options, or
the pytest arguments given) in this process under a line tracer
(``sys.settrace`` and ``threading.settrace``, standard library only).  It
then prints, for each module of ``src/latticewave``, the executable lines
(those that ``co_lines`` maps an instruction to, in any code object the
module compiles to) that no test ran, as ranges.  A forked worker keeps
the tracer, and hands the lines it ran to this process when it calls
``os._exit``.  Code that the suite reaches only in a started child process,
such as ``cmd_selftest`` through the console script or the benchmark's
children, counts as not run.  The package
is imported from this checkout's ``src``, which also leads the children's
``PYTHONPATH``, as in tier-1's command.  Like ``golden_gap.py``, the
script only measures: it exits 0 whatever the suite's outcome.
"""

import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "latticewave"
TIER1 = ["-q", "--continue-on-collection-errors", str(ROOT / "tests"), str(ROOT / "bench")]


def executable_lines(path: Path) -> set[int]:
    """Every line that an instruction of the module's code objects maps to."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as ``a-b`` runs: ``[1, 2, 3, 7]`` is ``1-3, 7``."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv: list[str]) -> int:
    hits = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}
    resolved: dict[str, set | None] = {}  # co_filename -> the hit set of its module, None outside the package

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in resolved:
            resolved[filename] = hits.get(os.path.realpath(filename))
        seen = resolved[filename]
        if seen is None:
            return None
        seen.add(frame.f_lineno)

        def local(frame, event, arg):
            seen.add(frame.f_lineno)
            return local

        return local

    # as tier-1's PYTHONPATH=src, for this process and the tests' child processes
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    import pytest

    parent, real_exit = os.getpid(), os._exit

    def spooling_exit(code: int) -> None:
        # a forked worker's hits die with it: it writes them into the spool first
        try:
            if os.getpid() != parent:
                sys.settrace(None)
                with open(os.path.join(spool, f"{os.getpid()}.txt"), "w", encoding="utf-8") as fh:
                    fh.writelines(f"{name}\t{line}\n" for name, seen in hits.items() for line in seen)
        finally:
            real_exit(code)

    with tempfile.TemporaryDirectory() as spool:
        os._exit = spooling_exit
        threading.settrace(tracer)
        sys.settrace(tracer)
        try:
            status = pytest.main(argv or TIER1)
        finally:
            sys.settrace(None)
            threading.settrace(None)
            os._exit = real_exit
        for entry in os.listdir(spool):
            with open(os.path.join(spool, entry), encoding="utf-8") as fh:
                for row in fh:
                    name, line = row.rstrip("\n").split("\t")
                    hits[name].add(int(line))

    total = modules = 0
    print(f"\npytest exit status {int(status)}; lines no test ran, per module:")
    for name, seen in hits.items():
        missed = sorted(executable_lines(Path(name)) - seen)
        if missed:
            total, modules = total + len(missed), modules + 1
            print(f"{Path(name).relative_to(ROOT)}: {len(missed)}: {ranges(missed)}")
    print(f"{total} lines in {modules} of {len(hits)} modules")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
