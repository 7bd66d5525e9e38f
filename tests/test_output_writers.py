"""Forked output writers of ``evolve`` and ``kernel``: the same bytes and exit codes as inline
writes, no file after a failed run, and no writer or descriptor left behind.

"Writers forced" means every field goes to a writer (the row threshold is 0) and four CPUs
are reported, so up to three writers run at once.
"""

import errno
import filecmp
import os
import sys
import threading
import time

import numpy as np
import pytest

import test_acceptance
import test_cli
from latticewave import GridSpec, LatticeField, cli, fieldio, random_field
from latticewave.cli import main

FIXTURES = test_acceptance.FIXTURES


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The number of writers forked, counted in the parent; four CPUs are reported.  A field
    reader that ``load_field`` forks is not counted."""
    count = [0]
    fork = os.fork

    def counted():
        pid = fork()
        count[0] += pid != 0 and sys._getframe(2).f_code is fieldio.Writers.store.__code__
        return pid

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    return count


@pytest.fixture
def forced(monkeypatch, forks):
    monkeypatch.setattr(fieldio, "_WRITER_ROWS", 0)
    return forks


def _same_as_golden(out, name):
    golden = FIXTURES / "golden" / name
    names = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    for fname in names:
        assert filecmp.cmp(out / fname, golden / fname, shallow=False), f"{name}/{fname} drifted"


@pytest.mark.parametrize("name, argv", test_acceptance.golden_runs(), ids=[n for n, _ in test_acceptance.golden_runs()])
def test_golden_runs_with_writers_forced_are_byte_identical(name, argv, tmp_path, monkeypatch, forced):
    monkeypatch.chdir(FIXTURES.parent.parent)  # the list's config paths are relative to the repo root
    assert main(argv + ["--out", str(tmp_path / name)]) == 0
    _same_as_golden(tmp_path / name, name)
    assert forced[0] == (0 if argv[0] == "spectrum" else len(list((tmp_path / name).glob("*.csv"))))
    _no_child_left()


@pytest.mark.parametrize(
    "fixture, blocked, what",
    [("dirac.cfg", "field_001.csv", "field file"), ("spectrum.cfg", "spectrum.csv", "spectrum file")],
    ids=["evolve", "spectrum"],
)
def test_failed_write_with_writers_forced(tmp_path, capsys, fixture, blocked, what, forced):
    test_cli.test_failed_write_is_a_config_error_and_cleanup_keeps_the_directory(
        tmp_path, capsys, fixture, blocked, what
    )
    assert forced[0] == (2 if what == "field file" else 0)
    _no_child_left()


def _kg(tmp_path, **keys):
    return test_cli._config(tmp_path, **{**test_cli.KG, **keys})


def test_guard_after_a_writer_started_exits_3_and_keeps_no_file(tmp_path, capsys, monkeypatch, forced):
    solve = cli.solve_kg

    def trips_late(plan, time, m, t):
        if t > 0.5:
            raise ValueError("planted guard")
        return solve(plan, time, m, t)

    monkeypatch.setattr(cli, "solve_kg", trips_late)
    out = tmp_path / "o"
    assert main(["evolve", "--config", _kg(tmp_path, times="0.0, 0.5, 1.0"), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "numerical guard: planted guard\n"
    assert forced[0] == 2 and list(out.iterdir()) == []
    _no_child_left()


def test_a_writer_that_fails_otherwise_is_raised_and_its_run_keeps_no_file(tmp_path, monkeypatch, forced):
    def broken(*args, **kwargs):
        raise RuntimeError("broken writer")

    monkeypatch.setattr(fieldio, "store_field", broken)  # the writers inherit it
    out = tmp_path / "o"
    with pytest.raises(RuntimeError, match=r"the output writer of .*field_000\.csv ended with exit code 1"):
        main(["evolve", "--config", _kg(tmp_path), "--out", str(out)])
    assert forced[0] == 1 and list(out.iterdir()) == []
    _no_child_left()


def test_a_busy_cpu_gets_no_second_writer(tmp_path, monkeypatch, forks):
    # two CPUs: one writer at a time; while it sleeps, the parent writes the later fields itself
    monkeypatch.setattr(fieldio, "_WRITER_ROWS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent, store, inline = os.getpid(), fieldio.store_field, []

    def slow_in_a_writer(f, path, **kw):
        if os.getpid() != parent:
            time.sleep(1.0)
        else:
            inline.append(os.path.basename(path))
        store(f, path, **kw)

    monkeypatch.setattr(fieldio, "store_field", slow_in_a_writer)
    out = tmp_path / "o"
    assert main(["evolve", "--config", _kg(tmp_path, times="0.0, 0.5, 1.0"), "--out", str(out)]) == 0
    assert forks[0] == 1 and inline == ["field_001.csv", "field_002.csv"]
    assert sorted(p.name for p in out.iterdir()) == ["field_000.csv", "field_001.csv", "field_002.csv", "metadata.json"]
    _no_child_left()


@pytest.mark.parametrize("blades, writers", [(15, 0), (16, 1)], ids=["below", "at"])
def test_the_row_threshold_picks_the_writer(blades, writers, tmp_path, forks):
    # a 32 x 32 field on 16 blades has 2**14 rows, the threshold itself; on 15 blades it stays inline
    grid = GridSpec((32, 32), 1.0, mass=1.0)
    full = random_field(grid, np.random.default_rng(5))
    path = str(tmp_path / "data.csv")
    cli.store_field(LatticeField._of(grid, full.support[:blades], full.columns[..., :blades].copy()), path)
    cfg = _kg(tmp_path, dim=2, points=32, initial_data="file", path=path)
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert forks[0] == writers
    _no_child_left()


def _never(*args):
    raise AssertionError("os.fork was called")


@pytest.mark.parametrize("host", ["one-cpu", "no-fork", "no-affinity"])
def test_without_a_spare_cpu_or_fork_every_write_is_inline(host, tmp_path, monkeypatch):
    monkeypatch.setattr(fieldio, "_WRITER_ROWS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if host == "one-cpu" else {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(os, "fork", _never, raising=False)
    if host == "no-fork":
        monkeypatch.delattr(os, "fork")
    if host == "no-affinity":
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.chdir(FIXTURES.parent.parent)
    assert main(["evolve", "--config", "tests/fixtures/dirac.cfg", "--out", str(tmp_path / "dirac")]) == 0
    _same_as_golden(tmp_path / "dirac", "dirac")


def test_a_fork_that_fails_leaves_the_write_inline(tmp_path, monkeypatch, forced):
    def no_process():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process)
    monkeypatch.chdir(FIXTURES.parent.parent)
    assert main(["kernel", "--kind", "heat", "--config", "tests/fixtures/heat_kernel.cfg", "--out", str(tmp_path / "k")]) == 0
    _same_as_golden(tmp_path / "k", "heat_kernel")


def test_a_32_cubed_run_writes_the_same_bytes_forked_and_inline(tmp_path, monkeypatch, forks):
    # the tier-1 twin of CI's pinned-and-unpinned diff: 32**3 rows per field, above the threshold
    argv = ["evolve", "--config", str(FIXTURES / "kg3d_32.cfg"), "--out"]
    assert main(argv + [str(tmp_path / "forked")]) == 0
    assert forks[0] == 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert main(argv + [str(tmp_path / "inline")]) == 0
    assert forks[0] == 3
    names = sorted(p.name for p in (tmp_path / "forked").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "inline").iterdir())
    for name in names:
        assert filecmp.cmp(tmp_path / "forked" / name, tmp_path / "inline" / name, shallow=False), name
    _no_child_left()


@pytest.mark.parametrize("later", [ValueError, KeyboardInterrupt], ids=["guard", "interrupt"])
def test_a_failed_writer_outranks_a_later_guard_but_not_an_interrupt(later, tmp_path, capsys, monkeypatch, forced):
    # inline, the failed write of field_000.csv would have ended the run before the second slice
    store, solve = fieldio.store_field, cli.solve_kg

    def refused(f, path, **kw):
        raise cli.ConfigError(f"cannot write field file {path}: planted")

    def trips_late(plan, time, m, t):
        if t > 0.0:
            raise later("planted")
        return solve(plan, time, m, t)

    monkeypatch.setattr(fieldio, "store_field", refused)  # the writers inherit it
    monkeypatch.setattr(cli, "solve_kg", trips_late)
    out = tmp_path / "o"
    argv = ["evolve", "--config", _kg(tmp_path, times="0.0, 0.5"), "--out", str(out)]
    if later is ValueError:
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: cannot write field file {out / 'field_000.csv'}: planted\n"
    else:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    assert forced[0] == 1 and list(out.iterdir()) == []
    _no_child_left()


def test_a_second_thread_keeps_every_write_inline(tmp_path, monkeypatch, forced):
    # forking a process that runs threads is unsafe: the writers obey the field reader's rule
    release = threading.Event()
    worker = threading.Thread(target=release.wait)
    worker.start()
    monkeypatch.chdir(FIXTURES.parent.parent)
    try:
        assert main(["evolve", "--config", "tests/fixtures/dirac.cfg", "--out", str(tmp_path / "dirac")]) == 0
    finally:
        release.set()
        worker.join(timeout=10)
    assert not worker.is_alive() and forced[0] == 0
    _same_as_golden(tmp_path / "dirac", "dirac")


@pytest.mark.parametrize("blocked", [None, "field_001.csv"], ids=["clean", "failed-write"])
def test_no_descriptor_outlives_a_run_with_writers_forced(blocked, tmp_path, capsys, forced, open_fds):
    out = tmp_path / "o"
    if blocked:
        (out / blocked).mkdir(parents=True)
    before = open_fds()
    argv = ["evolve", "--config", _kg(tmp_path, times="0.0, 0.5, 1.0"), "--out", str(out)]
    assert main(argv) == (2 if blocked else 0)
    assert open_fds() == before
    # a failed write is raised by the first reap that finds its writer ended, before or after the third fork
    assert forced[0] in ((2, 3) if blocked else (3,))
    if blocked:
        assert capsys.readouterr().err.startswith(f"config error: cannot write field file {out / blocked}: ")
    _no_child_left()


def test_of_several_failed_writers_the_first_file_is_named(tmp_path, capsys, monkeypatch, forced):
    # every writer fails after a pause, so one blocking reap collects all three failures
    parent = os.getpid()

    def refused_late(f, path, **kw):
        if os.getpid() != parent:
            time.sleep(0.3)
        raise cli.ConfigError(f"cannot write field file {path}: planted")

    monkeypatch.setattr(fieldio, "store_field", refused_late)  # the writers inherit it
    out = tmp_path / "o"
    assert main(["evolve", "--config", _kg(tmp_path, times="0.0, 0.5, 1.0"), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: cannot write field file {out / 'field_000.csv'}: planted\n"
    assert forced[0] == 3 and list(out.iterdir()) == []
    _no_child_left()
