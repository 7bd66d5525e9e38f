"""Forked field readers of ``load_field``: when the reader stays inline, how a failed reader
is raised, how a reader ends when its parent stops early, that no descriptor outlives a load,
and the reader's and the output writer's child bodies run in this process.

The child bodies end in ``os._exit``; here it is patched to raise ``Exited``, so the tests can
read the exit code, and what the body sent down its pipe, without forking.
"""

import errno
import filecmp
import os
import threading
import types

import numpy as np
import pytest

import test_acceptance
import test_field_csv
from latticewave import GridSpec, cli, fieldio, random_field
from latticewave.cli import ConfigError, load_field, main, store_field

FIXTURES = test_acceptance.FIXTURES
HEAD = test_field_csv.HEAD
ROWS = "".join(f"{i % 4},{'' if i % 3 else '1'},{i}.5,-{i}.25\n" for i in range(40))


class Exited(BaseException):
    def __init__(self, code):
        super().__init__(code)
        self.code = code


@pytest.fixture
def exits(monkeypatch):
    def _exit(code):
        raise Exited(code)

    monkeypatch.setattr(os, "_exit", _exit)


@pytest.fixture
def forced(monkeypatch):
    monkeypatch.setattr(fieldio, "_READER_BYTES", 0)
    monkeypatch.setattr(fieldio, "_CHUNK_BYTES", 97)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _file(tmp_path, text=HEAD + ROWS):
    path = tmp_path / "f.csv"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _never(*args):
    raise AssertionError("os.fork was called")


@pytest.mark.parametrize("host", ["one-cpu", "no-fork", "no-affinity", "threaded", "below"])
def test_the_reader_stays_inline(host, tmp_path, monkeypatch, forced):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if host == "one-cpu" else {0, 1, 2, 3})
    monkeypatch.setattr(os, "fork", _never, raising=False)
    if host == "no-fork":
        monkeypatch.delattr(os, "fork")
    if host == "no-affinity":
        monkeypatch.delattr(os, "sched_getaffinity")
    path = _file(tmp_path)
    if host == "below":
        monkeypatch.setattr(fieldio, "_READER_BYTES", os.path.getsize(path))  # the data is smaller than the file
    release = threading.Event()
    worker = threading.Thread(target=release.wait)
    if host == "threaded":
        worker.start()  # load_field is public API: a caller may run threads
    try:
        got = load_field(path)
    finally:
        release.set()
        if worker.is_alive():
            worker.join()
    assert got.values.tobytes() == test_field_csv._ref_load_field(path).values.tobytes()


def test_the_threshold_counts_the_data_bytes(tmp_path, monkeypatch, forced):
    path = _file(tmp_path)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(fieldio, "_READER_BYTES", len(ROWS.encode()))
    load_field(path)
    assert forks == [1]
    _no_child_left()


def test_a_fork_that_fails_leaves_the_parse_inline(tmp_path, monkeypatch, forced):
    def no_process():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process)
    path = _file(tmp_path)
    assert load_field(path).values.tobytes() == test_field_csv._ref_load_field(path).values.tobytes()


def test_a_reader_that_dies_before_its_rows_is_a_runtime_error(tmp_path, monkeypatch, forced, capfd):
    def broken(*args):
        raise RuntimeError("planted")

    monkeypatch.setattr(fieldio, "_send", broken)  # the reader inherits it
    path = _file(tmp_path)
    with pytest.raises(RuntimeError, match=rf"the field reader of {path} ended before sending its rows"):
        load_field(path)
    _no_child_left()
    assert "RuntimeError: planted" in capfd.readouterr().err


def test_a_reader_that_fails_after_its_rows_is_a_runtime_error(tmp_path, monkeypatch, forced, capfd):
    parent, reading = os.getpid(), fieldio._reading

    def fails_in_the_reader(path):
        if os.getpid() == parent:
            return reading(path)
        raise RuntimeError("planted")

    path = _file(tmp_path)
    monkeypatch.setattr(fieldio, "_reading", fails_in_the_reader)  # the reader inherits it
    monkeypatch.setattr(fieldio, "_CHUNK_BYTES", 1 << 18)  # one chunk: the reader has no rows to send
    with pytest.raises(RuntimeError, match=rf"the field reader of {path} ended with exit code 1"):
        load_field(path)
    _no_child_left()


def test_a_parent_that_stops_early_leaves_its_reader_to_end_quietly(tmp_path, monkeypatch, capfd):
    # a bad row in the parent's first chunk: the reader, with over a full pipe of rows still to
    # send, meets the closed pipe at its next send and exits 0, with nothing on stderr
    monkeypatch.setattr(fieldio, "_READER_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    rows = [f"{i % 4},,1.0,0.0\n" for i in range(200_000)]
    rows[10] = "1,,1.0,0.0x\n"
    path = _file(tmp_path, HEAD + "".join(rows))
    codes, waitpid = [], os.waitpid

    def spied(pid, options):
        done, status = waitpid(pid, options)
        codes.append(os.waitstatus_to_exitcode(status))
        return done, status

    monkeypatch.setattr(os, "waitpid", spied)
    with pytest.raises(ConfigError, match=r"malformed row \['1', '', '1.0', '0.0x'\]"):
        load_field(path)
    monkeypatch.undo()
    assert codes == [0]
    assert capfd.readouterr().err == ""
    _no_child_left()


@pytest.mark.parametrize("case", ["clean", "bad-row-in-a-parent-chunk", "bad-row-in-a-reader-chunk", "closed-early"])
def test_no_descriptor_outlives_a_forced_reader(case, tmp_path, monkeypatch, forced, open_fds):
    monkeypatch.setattr(fieldio, "_CHUNK_BYTES", 1)  # one line per chunk: the reader parses rows 1, 3, ...
    rows = [f"{i % 4},,1.0,0.0\n" for i in range(12)]
    if case.startswith("bad-row"):
        rows[4 if "parent" in case else 5] = "1,,1.0,0.0x\n"
    path = _file(tmp_path, HEAD + "".join(rows))
    before = open_fds()
    if case == "closed-early":
        with open(path, "rb") as fh:
            chunks = fieldio._chunk_rows(path, fh, fieldio._row_parser(path, fieldio._read_grid(fh, path)))
            next(chunks)
            chunks.close()
    elif case == "clean":
        load_field(path)
    else:
        with pytest.raises(ConfigError, match="malformed row"):
            load_field(path)
    assert open_fds() == before
    _no_child_left()


# -- the child bodies, in this process ---------------------------------------------


@pytest.fixture
def child(monkeypatch, exits):
    """``os.fork`` answers 0, so this process takes the child's path.  Yields the pipes made, as
    (read end, a copy of it): a worker's child closes its read end, and the copy stays open to
    read what the body sent."""
    pipes, pipe = [], os.pipe

    def pipe_kept_open():
        read, write = pipe()
        pipes.append((read, os.dup(read)))
        return read, write

    monkeypatch.setattr(os, "pipe", pipe_kept_open)
    monkeypatch.setattr(os, "fork", lambda: 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return pipes


def _pipe_bytes(fd):
    with open(fd, "rb") as fh:
        return fh.read()


def _read_in_a_child(path, pipes):
    """Exit code of the reader's body on ``path`` and what it sent, as the parent reads it: the
    rows of each chunk it sent, then the message of a ConfigError it sent in place of a chunk."""
    with pytest.raises(Exited) as exited:
        load_field(path)
    sent = []
    with open(pipes[0][1], "rb", buffering=0) as pipe:
        try:
            while True:
                sent.append(fieldio._receive(pipe, path))
        except RuntimeError:  # the end of what it sent
            pass
        except ConfigError as exc:
            sent.append(str(exc))
    return exited.value.code, sent


def test_the_reader_body_sends_the_rows_of_every_odd_chunk(tmp_path, forced, child):
    path = _file(tmp_path)
    code, sent = _read_in_a_child(path, child)
    assert code == 0
    with open(path, "rb") as fh:
        grid = fieldio._read_grid(fh, path)
        chunks = list(fieldio._chunks(fh))
    parse = fieldio._row_parser(path, grid)
    assert len(chunks) >= 4 and len(sent) == len(chunks) // 2
    for rows, chunk in zip(sent, chunks[1::2]):
        for got, want in zip(rows, parse(chunk)):
            assert got.tobytes() == np.asarray(want, dtype=got.dtype).tobytes()


def test_the_reader_body_sends_a_config_error_in_place_of_its_chunk(tmp_path, monkeypatch, forced, child):
    monkeypatch.setattr(fieldio, "_CHUNK_BYTES", 1)  # one line per chunk: the body parses lines 1, 3, ...
    path = _file(tmp_path, HEAD + "0,,1.0,0.0\n1,,1.0,0.0\n2,,1.0,0.0\n3,,1.0,0.0x\n")
    code, sent = _read_in_a_child(path, child)
    assert code == 2 and len(sent) == 2 and sent[0][0].tolist() == [1]
    assert sent[1] == f"{path}: malformed row ['3', '', '1.0', '0.0x']"


def test_the_reader_body_reports_any_other_failure_with_exit_1(tmp_path, monkeypatch, forced, child, capsys):
    def broken(*args):
        raise KeyError("planted")

    monkeypatch.setattr(fieldio, "_send", broken)
    code, sent = _read_in_a_child(_file(tmp_path), child)
    assert code == 1 and sent == []
    assert "KeyError: 'planted'" in capsys.readouterr().err


def _field():
    return random_field(GridSpec((4, 4), 0.5), np.random.default_rng(3))


def _store_in_a_child(tmp_path, monkeypatch, pipes):
    """Exit code of the output writer's body storing ``_field()`` as ``f.csv``, and what it sent."""
    monkeypatch.setattr(fieldio, "_WRITER_ROWS", 0)
    run = object.__new__(cli._Run)
    run.args, run.files, run.writers = types.SimpleNamespace(out=str(tmp_path)), [], fieldio.Writers()
    with pytest.raises(Exited) as exited:
        run.store(_field(), "f.csv")
    assert run.files == ["f.csv"] and run.writers.running == []
    return exited.value.code, _pipe_bytes(pipes[0][1])


def test_the_writer_body_writes_the_bytes_of_an_inline_write(tmp_path, monkeypatch, child):
    assert _store_in_a_child(tmp_path, monkeypatch, child) == (0, b"")
    store_field(_field(), str(tmp_path / "inline.csv"))
    assert filecmp.cmp(tmp_path / "f.csv", tmp_path / "inline.csv", shallow=False)


def test_the_writer_body_sends_a_config_error_and_exits_2(tmp_path, monkeypatch, child):
    (tmp_path / "f.csv").mkdir()
    code, sent = _store_in_a_child(tmp_path, monkeypatch, child)
    assert code == 2 and sent.decode().startswith(f"cannot write field file {tmp_path / 'f.csv'}: ")


def test_the_writer_body_reports_any_other_failure_with_exit_1(tmp_path, monkeypatch, child, capsys):
    def broken(*args, **kwargs):
        raise KeyError("planted")

    monkeypatch.setattr(fieldio, "store_field", broken)
    assert _store_in_a_child(tmp_path, monkeypatch, child) == (1, b"")
    assert "KeyError: 'planted'" in capsys.readouterr().err


# -- a whole run from a stored field above the threshold ------------------------------


def test_an_evolve_from_a_large_stored_field_gives_the_same_bytes_forked_and_inline(tmp_path, monkeypatch):
    # the tier-1 twin of CI's pinned-and-unpinned diff: a 16**3 all-blade field, above the threshold
    grid = GridSpec((16, 16, 16), 1.0, mass=1.0)  # CI stores the same field
    store_field(random_field(grid, np.random.default_rng(7)), str(tmp_path / "field.csv"))
    assert os.path.getsize(tmp_path / "field.csv") >= fieldio._READER_BYTES
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(fieldio, "_WRITER_ROWS", 1 << 40)  # count the reader alone
    monkeypatch.chdir(tmp_path)
    cfg = str(FIXTURES / "kg3d_16_file.cfg")  # reads field.csv in the working directory
    assert main(["evolve", "--config", cfg, "--out", "forked"]) == 0
    assert forks == [1]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert main(["evolve", "--config", cfg, "--out", "inline"]) == 0
    assert forks == [1]
    for name in sorted(os.listdir(tmp_path / "forked")):
        assert filecmp.cmp(tmp_path / "forked" / name, tmp_path / "inline" / name, shallow=False), name
    _no_child_left()
