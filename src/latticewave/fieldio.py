"""Field CSV files: the text format of lattice fields, its reader and its one row writer.

Layout: leading ``#`` lines pin the grid (shape, spacing, alpha, mass), then
a header ``x1,...,xn,blade,re,im`` and one row per site and nonzero blade
coefficient.  Sites are integer lattice indices (multiply by the spacing
for physical coordinates); blades are middle-dot joined 1-based generator
indices ("" for the scalar part, "1", "1·3", ...); floats are written with
``repr`` so ``load_field(store_field(f))`` is bit-exact for finite values;
rows are ordered lexicographically by site, then blade.  Lines end in ``\\n``
or ``\\r\\n``; any other ``\\r``, in a grid line, a comment or a row, is
refused by name (``_newlines``, which sees every line before it is decoded).
The reader skips lines that start with ``#`` and lines of whitespace only; a
``#`` anywhere else belongs to its cell, so the row is malformed.
``write_rows`` emits every CSV row the package writes: field rows,
heat-kernel pairs and the ``spectrum`` sweep.  A file that cannot be read or
written is a ``ConfigError``.

The reader parses the data in chunks of bytes, each completed to a line end.
On Linux, ``_Worker`` forks every process the package runs, under one rule.
A file with at least ``_READER_BYTES`` of data has every odd chunk parsed by a
forked reader, and the parent scatters every chunk in file order, so the result
and the first error are those of an inline parse; ``Writers`` writes each
``cli`` output field of at least ``_WRITER_ROWS`` rows in a forked writer.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import re
import sys
import threading
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

import numpy as np

from .clifford import blade_indices, blade_mask
from .lattice import GridSpec, LatticeField, align

__all__ = ["ConfigError", "store_field", "load_field", "open_csv", "write_rows", "cells", "Writers"]


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


_CHUNK_BYTES = 1 << 18  # bytes handed to one np.loadtxt call, completed to a line end; bounds the reader's memory
# a comment line, or one of whitespace only (str.isspace, as str.strip sees it); the lookahead turns a
# data line away at its first character
_SKIPPED_LINE = re.compile(r"\n(?=[#\s])(?:#[^\n]*|[^\S\n]+(?=\n|$))")
# A field of at least this many rows (sites x support) goes to a forked writer: on a 2-vCPU Xeon a
# forked write costs 2-6 ms more CPU than inline, about a quarter of the 23 ms that 2**14 rows take
_WRITER_ROWS = 1 << 14
# Data of at least this many bytes (after the header) is split with a forked reader: on a 2-vCPU Xeon
# the split's extra CPU (7-33 ms) is a quarter of the half parse it moves or less from 2**23 bytes up
_READER_BYTES = 1 << 23


def _send(pipe: int, *arrays: np.ndarray) -> None:
    """The bytes of each array down ``pipe``, in order."""
    for array in arrays:
        view = memoryview(np.ascontiguousarray(array).reshape(-1).view(np.uint8))
        while view:
            view = view[os.write(pipe, view):]


class _Worker:
    """A forked process that runs one body and ends in ``os._exit``, and the read end of its pipe.

    It exits 0 when the body returns or meets a closed pipe (the parent stopped early); 2 with ``head``
    and a ConfigError's message sent down the pipe; 1 on anything else, its traceback printed."""

    def __init__(self, pid: int, pipe: io.BufferedReader, what: str):
        self.pid, self.pipe, self.what = pid, pipe, what
        self.failure: Exception | None = None

    @classmethod
    def start(cls, what: str, body: Callable[[int], object], head: bytes = b"", running: int = 0) -> _Worker | None:
        """A worker, named ``what`` in its failure, that runs ``body`` on the write end of its pipe; None
        unless ``os`` can fork, no other thread runs (forking a threaded process is unsafe) and a CPU is
        spare beside this process and ``running`` workers, or when no process can be forked."""
        if (not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or threading.active_count() > 1
                or len(os.sched_getaffinity(0)) - 1 <= running):
            return None
        read, write = os.pipe()
        try:
            pid = os.fork()
            if pid == 0:
                os.close(read)
                cls._child(write, body, head)
        except OSError:  # no process to spare: the caller does the work itself
            os.close(read)
            return None
        finally:
            os.close(write)
        return cls(pid, open(read, "rb"), what)

    @staticmethod
    def _child(pipe: int, body: Callable[[int], object], head: bytes) -> NoReturn:
        """The forked process's whole life: ``body``, then _exit, so none of the parent's cleanup runs here."""
        code = 0
        try:
            body(pipe)
        except BrokenPipeError:  # the parent stopped early and closed its end: nothing to tell it
            pass
        except ConfigError as exc:
            code = 2
            _send(pipe, np.frombuffer(head + str(exc).encode(errors="surrogatepass"), np.uint8))
        except BaseException:
            code = 1
            sys.excepthook(*sys.exc_info())
            sys.stderr.flush()
        finally:  # also when a handler above raises
            os._exit(code)

    def reap(self, block: bool = True) -> bool:
        """Whether the child has ended, waited for if ``block``; an open pipe is read to its end first, as
        a message longer than the pipe holds the child.  Exit 2 with a message read is a ConfigError of it;
        any other nonzero exit a RuntimeError."""
        if not block:
            done, status = os.waitpid(self.pid, os.WNOHANG)
            if not done:
                return False
        message = b"" if self.pipe.closed else self.pipe.read()
        self.pipe.close()
        if block:
            status = os.waitpid(self.pid, 0)[1]
        code = os.waitstatus_to_exitcode(status)
        if code == 2 and message:
            self.failure = ConfigError(message.decode(errors="surrogatepass"))
        elif code:
            self.failure = RuntimeError(f"the {self.what} ended with exit code {code}")
        return True


class Writers:
    """The forked output writers of one run, in the order of their files."""

    def __init__(self):
        self.running: list[_Worker] = []

    def store(self, field: LatticeField, path: str, **kw) -> None:
        """``store_field(field, path, **kw)``, in a forked writer when ``field`` has at least
        ``_WRITER_ROWS`` rows and the rule allows one beside the writers still running; else here."""
        if field.columns.size >= _WRITER_ROWS:
            writer = _Worker.start(f"output writer of {path}", lambda pipe: store_field(field, path, **kw),
                                   running=self.reap(block=False))
            if writer is not None:
                self.running.append(writer)
                return
        store_field(field, path, **kw)

    def reap(self, block: bool) -> int:
        """Collect the writers that have ended, or every writer if ``block``, then raise the first failure
        among them in file order; returns how many run on."""
        ended = [writer.reap(block) for writer in self.running]
        failures = [w.failure for w, done in zip(self.running, ended) if done and w.failure]
        self.running = [w for w, done in zip(self.running, ended) if not done]
        if failures:
            raise failures[0]
        return len(self.running)


@contextlib.contextmanager
def _reading(path: str):
    """A field file that cannot be read, or is not UTF-8, as a ConfigError that names it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot read field file {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None


def _newlines(path: str, data: bytes) -> bytes:
    """``data``, lines of a field file, with each ``\\r\\n`` made ``\\n``; any other ``\\r`` is a ConfigError."""
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
        if b"\r" in data:
            raise ConfigError(f"{path}: a line ends in a bare carriage return (\\r); end lines in \\n or \\r\\n")
    return data


def _read_grid(fh, path: str) -> GridSpec:
    """Grid from the ``#`` lines before the header; reads ``fh`` (binary) through the header."""
    meta: dict[str, str] = {}
    header = None
    for raw in fh:
        line = _newlines(path, raw).decode("utf-8")
        if line.startswith("#"):
            inner = line[1:].strip()
            if "=" in inner:
                k, _, v = inner.partition("=")
                meta[k.strip()] = v.strip()
        elif line.strip():
            header = line.rstrip("\n").split(",")
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


def _chunks(fh) -> Iterator[bytes]:
    """The rest of ``fh`` (binary) in chunks of ``_CHUNK_BYTES``, each completed to a line end."""
    return iter(lambda: fh.read(_CHUNK_BYTES) + fh.readline(), b"")


def _data_lines(text: str) -> list[str]:
    """The lines of ``text`` (comment and blank lines emptied) that np.loadtxt reads as rows."""
    return [line for line in text.split("\n") if line]


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


_Rows = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]  # flat site index, blade mask, re, im


def _row_parser(path: str, grid: GridSpec) -> Callable[[bytes], _Rows]:
    """The parse of one chunk of a field file's data lines into its rows.

    ``np.loadtxt`` parses the chunk; sites are range-checked and labels mapped
    to blade masks through a sorted table of the grid's canonical labels.  A
    label outside the table (another spelling or an invalid one), or in a
    chunk with a NUL, is parsed from its line as written.
    """
    canonical = [_blade_label(mask) for mask in range(grid.blades)]
    width = max(map(len, canonical)) + 1  # spare character: a truncated long label matches none
    dtype = np.dtype(
        [(f"x{a + 1}", np.int64) for a in range(grid.n)]
        + [("blade", f"U{width}"), ("re", np.float64), ("im", np.float64)]
    )
    masks_by_label = np.argsort(canonical)
    labels = np.array(canonical, dtype=dtype["blade"])[masks_by_label]

    def parse(chunk: bytes) -> _Rows:
        # a leading newline puts every line, the first too, after a "\n"
        text = _SKIPPED_LINE.sub("\n", "\n" + _newlines(path, chunk).decode("utf-8"))
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
        return np.ravel_multi_index(sites, grid.shape), masks, rows["re"], rows["im"]

    return parse


def _scatter(f: LatticeField, flat: np.ndarray, masks: np.ndarray, real: np.ndarray, imag: np.ndarray) -> LatticeField:
    """``f`` with one chunk's rows written in, in row order: a repeated (site, blade) keeps its last value."""
    f = f._widened(masks)  # rows of a new blade widen the support; load_field's columns are its own
    at = np.searchsorted(f.support, masks)
    cols = f.columns.reshape(f.grid.site_count, len(f.support))
    cols.real[flat, at] = real
    cols.imag[flat, at] = imag
    return f


def _fill(pipe, array: np.ndarray, path: str) -> None:
    """``array`` filled from the reader's buffered ``pipe``; a pipe that ends first is a RuntimeError."""
    if pipe.readinto(array) < array.nbytes:
        raise RuntimeError(f"the field reader of {path} ended before sending its rows")


def _receive(pipe, path: str) -> _Rows:
    """The rows of the reader's next chunk; a ConfigError it sent in their place, after a row count of -1,
    is raised here."""
    head = np.empty(1, np.int64)
    _fill(pipe, head, path)
    if head[0] < 0:
        raise ConfigError(pipe.read().decode(errors="surrogatepass"))
    flat, masks, real, imag = body = np.empty((4, int(head[0])), np.int64)
    _fill(pipe, body, path)
    return flat, masks, real.view(np.float64), imag.view(np.float64)


def _read_odd_chunks(pipe: int, path: str, start: int, parse: Callable[[bytes], _Rows]) -> None:
    """The forked reader's body: the rows of every odd chunk of ``path``'s data from byte ``start`` sent down
    ``pipe``, from the file opened again (a forked descriptor shares its offset); sends are no reads."""

    def odd_rows() -> Iterator[_Rows]:
        with _reading(path), open(path, "rb") as fh:
            fh.seek(start)
            yield from map(parse, itertools.islice(_chunks(fh), 1, None, 2))

    for flat, masks, real, imag in odd_rows():
        _send(pipe, np.array([len(flat)], np.int64), flat.astype(np.int64), masks.astype(np.int64), real, imag)


def _chunk_rows(path: str, fh, parse: Callable[[bytes], _Rows]) -> Iterator[_Rows]:
    """The rows of each chunk of ``fh``'s data, in file order; every odd chunk's from a forked reader
    when the data has at least ``_READER_BYTES`` and ``_Worker`` forks one.  It is reaped on every path."""
    start = fh.tell()
    reader = None
    if os.fstat(fh.fileno()).st_size - start >= _READER_BYTES:
        reader = _Worker.start(f"field reader of {path}", lambda pipe: _read_odd_chunks(pipe, path, start, parse),
                               np.int64(-1).tobytes())
    if reader is None:
        yield from map(parse, _chunks(fh))
        return
    try:
        for k, chunk in enumerate(_chunks(fh)):
            yield _receive(reader.pipe, path) if k % 2 else parse(chunk)
    finally:  # a reader still at work meets the closed pipe at its next send, and ends
        reader.pipe.close()
        reader.reap()
    if reader.failure:
        raise reader.failure


def load_field(path: str) -> LatticeField:
    """Inverse of store_field (bit-exact for finite values).

    The data lines are parsed ``_CHUNK_BYTES`` at a time, each chunk completed
    to a line end, and each chunk's rows are scattered into the columns of the
    blades with rows, in file order: a repeated (site, blade) keeps its last
    value and the first bad row names the error.  A file of at least
    ``_READER_BYTES`` has its odd chunks parsed by a forked reader on Linux.
    """
    with _reading(path), open(path, "rb") as fh:
        grid = _read_grid(fh, path)
        f = LatticeField.zeros(grid)
        with contextlib.closing(_chunk_rows(path, fh, _row_parser(path, grid))) as chunks:
            for rows in chunks:
                f = _scatter(f, *rows)
    return f
