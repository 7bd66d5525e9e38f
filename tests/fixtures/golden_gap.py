"""Size of the drift between two trees of committed runs.

    python tests/fixtures/golden_gap.py OLD NEW

prints one line per file of either tree, by its path relative to the tree:

* a field CSV (any file ``load_field`` reads): max |new - old| over every
  site and blade, divided by max |old|;
* a heat-kernel CSV, whose rows pair the Bessel and spectral routes: that
  ratio for each route's columns;
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

import numpy as np

from latticewave.cli import ConfigError, load_field
from latticewave.lattice import align

ROUTES = ("bessel", "spectral")
PAIRED = [f"{part}_{route}" for route in ROUTES for part in ("re", "im")]


def field_gap(old: Path, new: Path) -> str:
    a, b = load_field(str(old)), load_field(str(new))
    if a.grid != b.grid:
        return f"grid changed: {a.grid} -> {b.grid}"
    _, (x, y) = align(a, b)
    delta = float(abs(x - y).max(initial=0.0))
    peak = float(abs(x).max(initial=0.0))
    return f"field max|d|/max|value| = {delta / peak if peak else delta:.3g}"


def _paired(path: Path):
    """The ``#`` lines, the header and {(site, blade): row of the four values} of a heat-kernel CSV."""
    lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
    meta = [line for line in lines if line.startswith("#")]
    header, *rows = [line.split(",") for line in lines if line and not line.startswith("#")] or [[]]
    try:
        if header[-4:] == PAIRED:
            return meta, header, {tuple(row[:-4]): np.array(row[-4:], dtype=float) for row in rows}
    except ValueError:
        pass
    raise ConfigError(f"{path}: not a heat-kernel file")


def paired_gap(old: Path, new: Path) -> str:
    (meta_a, head_a, a), (meta_b, head_b, b) = _paired(old), _paired(new)
    if (meta_a, head_a) != (meta_b, head_b):
        return "grid, time or header changed"
    # a row that one side omits holds exact zeros
    keys, zero = sorted(a.keys() | b.keys()), np.zeros(4)
    x, y = (np.array([rows.get(k, zero) for k in keys]).reshape(-1, 2, 2) for rows in (a, b))
    x, y = x[..., 0] + 1j * x[..., 1], y[..., 0] + 1j * y[..., 1]  # one complex column per route
    gaps = []
    for route, u, v in zip(ROUTES, x.T, y.T):
        delta, peak = float(abs(u - v).max(initial=0.0)), float(abs(u).max(initial=0.0))
        gaps.append(f"{route} max|d|/max|value| = {delta / peak if peak else delta:.3g}")
    return ", ".join(gaps)


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
    for measure in (field_gap, paired_gap):
        try:
            return measure(old, new)
        except ConfigError:
            pass
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
