"""Field CSV files: the text format of lattice fields, its reader and its one row writer.

Layout: leading ``#`` lines pin the grid (shape, spacing, alpha, mass), then
a header ``x1,...,xn,blade,re,im`` and one row per site and nonzero blade
coefficient.  Sites are integer lattice indices (multiply by the spacing
for physical coordinates); blades are middle-dot joined 1-based generator
indices ("" for the scalar part, "1", "1·3", ...); floats are written with
``repr`` so ``load_field(store_field(f))`` is bit-exact for finite values;
rows are ordered lexicographically by site, then blade.  The reader skips
blank lines and lines that start with ``#``; a ``#`` anywhere else belongs
to its cell, so the row is malformed.  ``write_rows`` emits every CSV row
the package writes: field rows, heat-kernel pairs and the ``spectrum``
sweep.  A file that cannot be read or written is a ``ConfigError``.
"""

from __future__ import annotations

import contextlib
import io
import re
from typing import Iterable, Sequence

import numpy as np

from .clifford import blade_indices, blade_mask
from .lattice import GridSpec, LatticeField, align

__all__ = ["ConfigError", "store_field", "load_field", "open_csv", "write_rows", "cells"]


class ConfigError(Exception):
    """Invalid or incomplete run configuration, or an unusable file (exit code 2)."""


def _blade_label(mask: int) -> str:
    return "·".join(str(j) for j in blade_indices(mask))


def cells(values: Iterable) -> str:
    """``values`` as leading cells of a row, each followed by a comma (floats as ``repr``)."""
    return "".join(f"{v}," for v in values)


@contextlib.contextmanager
def open_csv(path: str, what: str, meta: dict[str, str], columns: Sequence[str]):
    """``path`` open for writing, its ``# key=value`` lines and header written.

    A failed write is a ``ConfigError`` that names the file as ``what``.
    """
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(f"# {k}={v}\n" for k, v in meta.items()) + ",".join(columns) + "\n")
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {what} {path}: {exc.strerror or exc}") from None


def write_rows(fh, head: Sequence, tails: Iterable[str], keys: Sequence[Iterable[str]],
               values: Sequence[np.ndarray]) -> None:
    """One row per entry of ``tails``: the cells of ``head``, that entry (cells ending in a comma),
    a cell of each ``keys`` column, then the ``repr`` of each value; one f-string per row, as a store is hot."""
    head = cells(head)
    rows = map(",".join, zip(*keys, *(map(repr, v.tolist()) for v in values)))
    fh.writelines(f"{head}{tail}{row}\n" for tail, row in zip(tails, rows))


def store_field(f: LatticeField, path: str, *, s: float | None = None, spectral: LatticeField | None = None) -> None:
    """Write a field as CSV; exactly-zero coefficients are omitted.

    A heat kernel export passes its time ``s``, written as a ``# s=`` line
    after the grid, and its ``spectral`` twin: ``f`` is then the Bessel
    route, and each row holds the columns of both routes.  Blades run in
    canonical order over the union of the fields' supports.  Values are
    gathered one slab of the leading axis at a time and rows are streamed
    to the file, so no row strings accumulate in memory.
    """
    fields, columns = (f,), ["re", "im"]
    if spectral is not None:
        fields, columns = (f, spectral), ["re_bessel", "im_bessel", "re_spectral", "im_spectral"]
    grid = f.grid
    meta = {"shape": ",".join(map(str, grid.shape)), "spacing": repr(grid.h),
            "alpha": repr(grid.alpha), "mass": repr(grid.mass)}
    if s is not None:
        meta["s"] = repr(float(s))
    support, cols = align(*fields)
    order = sorted(range(len(support)), key=lambda c: blade_indices(support[c]))
    labels = np.array([_blade_label(support[c]) for c in order], dtype=object)
    tails = np.array([cells(site) for site in np.ndindex(grid.shape[1:])], dtype=object)
    with open_csv(path, "field file", meta, [f"x{a + 1}" for a in range(grid.n)] + ["blade"] + columns) as fh:
        for i in range(grid.shape[0]):
            slabs = [c[i].reshape(len(tails), -1)[:, order] for c in cols]
            sites, blades = np.nonzero(np.any([slab != 0 for slab in slabs], axis=0))
            values = []
            for slab in slabs:
                v = slab[sites, blades]
                values += [v.real, v.imag]
            write_rows(fh, (i,), tails[sites].tolist(), [labels[blades].tolist()], values)


_CHUNK_CHARS = 1 << 18  # text handed to one np.loadtxt call; bounds the reader's memory
# a comment line, or one of whitespace only (str.isspace, as str.strip sees it); the lookahead turns a
# data line away at its first character
_SKIPPED_LINE = re.compile(r"\n(?=[#\s])(?:#[^\n]*|[^\S\n]+(?=\n|$))")


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
    """The lines of ``text`` (comment and blank lines emptied) that np.loadtxt reads as rows."""
    return [line.rstrip("\r") for line in text.split("\n") if line]


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
    """Rows of ``text`` (data lines and empty ones, each after a newline) as a record array."""
    if text.isspace():
        return np.empty(0, dtype)  # the chunk held comments and blank lines only
    try:
        return np.loadtxt(io.StringIO(text), dtype=dtype, delimiter=",", comments=None, ndmin=1)
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
    A label outside the table (another spelling or an invalid one), or in a chunk with a
    NUL, is parsed from its line as written; a repeated (site, blade) keeps its last value.
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
                text = _SKIPPED_LINE.sub("\n", "\n" + chunk + fh.readline())
                rows = _parse_rows(path, text, dtype)
                sites = tuple(rows[f"x{a + 1}"] for a in range(grid.n))
                for axis, (col, N) in enumerate(zip(sites, grid.shape)):
                    outside = (col < 0) | (col >= N)
                    if outside.any():
                        j = col[outside.argmax()]
                        raise ConfigError(f"{path}: site index {j} outside axis {axis + 1} (0..{N - 1})")
                at = np.minimum(np.searchsorted(labels, rows["blade"]), grid.blades - 1)
                masks = masks_by_label[at]
                unmatched = labels[at] != rows["blade"]
                if "\x00" in text:  # the text dtype drops a label's trailing NULs: read such rows as written
                    unmatched |= ["\x00" in line for line in _data_lines(text)]
                if unmatched.any():
                    lines = _data_lines(text)
                    for i in np.flatnonzero(unmatched):
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
