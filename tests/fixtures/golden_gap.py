"""Size of the drift between two trees of committed runs.

    python tests/fixtures/golden_gap.py OLD NEW

prints one line per file of either tree, by its path relative to the tree:

* a field CSV (any file ``load_field`` reads): max |new - old| over every
  site and blade, divided by max |old|;
* ``metadata.json``: the largest absolute change of any number in it, and
  where; a change to anything but a number is named instead;
* any other file: whether the bytes are identical.

Byte-identical files print ``identical`` whatever their kind.  The script
only measures: it exits 0 once it has compared the trees, however far they
drifted.
"""

import json
import sys
from pathlib import Path

from latticewave.cli import ConfigError, load_field
from latticewave.lattice import align


def field_gap(old: Path, new: Path) -> str:
    a, b = load_field(str(old)), load_field(str(new))
    if a.grid != b.grid:
        return f"grid changed: {a.grid} -> {b.grid}"
    _, (x, y) = align(a, b)
    delta = float(abs(x - y).max(initial=0.0))
    peak = float(abs(x).max(initial=0.0))
    return f"field max|d|/max|value| = {delta / peak if peak else delta:.3g}"


def _numbers(old, new, path: str, out: list) -> None:
    """Collect (|new - old|, path) of every number; raise ValueError on any other change."""
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)):
        out.append((abs(new - old), path))
    elif isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for key in old:
            _numbers(old[key], new[key], f"{path}.{key}" if path else key, out)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (u, v) in enumerate(zip(old, new)):
            _numbers(u, v, f"{path}[{i}]", out)
    elif old != new:
        raise ValueError(path or "the top level")


def metadata_gap(old: Path, new: Path) -> str:
    out: list = []
    try:
        _numbers(json.loads(old.read_text()), json.loads(new.read_text()), "", out)
    except ValueError as exc:
        return f"metadata changed beyond its numbers at {exc}"
    delta, where = max(out, default=(0.0, ""))
    return f"metadata max|d| = {delta:.3g}" + (f" at {where}" if delta else "")


def gap(old: Path, new: Path) -> str:
    if not new.is_file() or not old.is_file():
        return "only in " + ("OLD" if old.is_file() else "NEW")
    if old.read_bytes() == new.read_bytes():
        return "identical"
    if old.name == "metadata.json":
        return metadata_gap(old, new)
    try:
        return field_gap(old, new)
    except ConfigError:
        return "bytes differ"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: golden_gap.py OLD NEW", file=sys.stderr)
        return 2
    old, new = map(Path, argv)
    names = sorted({p.relative_to(root) for root in (old, new) for p in root.rglob("*") if p.is_file()})
    for name in names:
        print(f"{name}: {gap(old / name, new / name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
