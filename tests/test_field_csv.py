"""The column-wise field CSV reader, pinned to the row-by-row reader it replaced.

``_ref_load_field`` is the row-by-row ``load_field`` that ``cli`` once held, kept verbatim.  On
every valid file the tests demand the same grid and identical bytes
(``tobytes()``, so the sign of a zero counts); on invalid files they demand
a ``ConfigError`` with the same message.  Most cases also run with a tiny
chunk size, so rows, comments and errors fall on either side of the chunk
boundaries the reader parses at, and with one line per chunk.  Every case
runs twice: with the reader inline, and with it forced (threshold 0, four
CPUs reported), so that a forked reader parses every odd chunk; no reader
is left unreaped after a case.
"""

import csv
import os
import re
import types
import warnings

import numpy as np
import pytest

import latticewave.fieldio as fieldio
from latticewave import GridSpec, LatticeField, random_field
from latticewave.cli import ConfigError, load_field, store_field
from latticewave.clifford import blade_mask


def _ref_load_field(path: str) -> LatticeField:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read field file {path}: {exc.strerror or exc}") from None
    meta: dict[str, str] = {}
    body: list[str] = []
    for line in lines:
        if line.startswith("#"):
            inner = line[1:].strip()
            if "=" in inner:
                k, _, v = inner.partition("=")
                meta[k.strip()] = v.strip()
        elif line.strip():
            body.append(line)
    for key in ("shape", "spacing", "alpha", "mass"):
        if key not in meta:
            raise ConfigError(f"{path}: missing '# {key}=' comment")
    try:
        shape = tuple(int(tok) for tok in meta["shape"].split(","))
        grid = GridSpec(shape, float(meta["spacing"]), float(meta["alpha"]), float(meta["mass"]))
    except ValueError as exc:
        raise ConfigError(f"{path}: bad grid metadata: {exc}") from None
    expected = [f"x{a + 1}" for a in range(grid.n)] + ["blade", "re", "im"]
    reader = csv.reader(body)
    header = next(reader, None)
    if header != expected:
        raise ConfigError(f"{path}: unexpected header {header!r}")
    vals = np.zeros(grid.shape + (grid.blades,), dtype=complex)
    for row in reader:
        if len(row) != len(expected):
            raise ConfigError(f"{path}: malformed row {row!r}")
        try:
            site = tuple(int(tok) for tok in row[: grid.n])
            re, im = float(row[-2]), float(row[-1])
        except ValueError:
            raise ConfigError(f"{path}: malformed row {row!r}") from None
        for axis, (j, N) in enumerate(zip(site, grid.shape)):
            if not (0 <= j < N):
                raise ConfigError(f"{path}: site index {j} outside axis {axis + 1} (0..{N - 1})")
        label = row[grid.n]
        try:
            mask = blade_mask(grid.sig, [int(tok) for tok in label.split("·")]) if label else 0
        except ValueError as exc:
            raise ConfigError(f"{path}: bad blade label {label!r}: {exc}") from None
        vals[site + (mask,)] = complex(re, im)
    return LatticeField(grid, vals)


@pytest.fixture(autouse=True, params=["inline", "forked"])
def reader(request, monkeypatch):
    """Whether the reader is forced, and how many readers were forked: forced, one for every
    load that reaches the file's data."""
    state = types.SimpleNamespace(forced=request.param == "forked", forks=0)
    if state.forced:
        fork = os.fork

        def counted():
            pid = fork()
            state.forks += pid != 0
            return pid

        monkeypatch.setattr(os, "fork", counted)
        monkeypatch.setattr(fieldio, "_READER_BYTES", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    yield state
    with pytest.raises(ChildProcessError):  # every forked reader was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(params=["default", "tiny", "line"])
def chunk(request, monkeypatch):
    """Reader chunk size: the shipped one, a few rows per chunk, or one line per chunk, so that
    a forced split falls between every pair of lines."""
    monkeypatch.setattr(fieldio, "_CHUNK_BYTES", {"default": fieldio._CHUNK_BYTES, "tiny": 97, "line": 1}[request.param])
    return request.param


def _write(tmp_path, name, text, newline="\n"):
    p = tmp_path / name
    p.write_bytes(text.replace("\n", newline).encode("utf-8"))
    return str(p)


def _assert_same(path):
    ref, got = _ref_load_field(path), load_field(path)
    assert got.grid == ref.grid
    assert got.values.tobytes() == ref.values.tobytes()
    return got


def _assert_same_error(path):
    with pytest.raises(ConfigError) as ref:
        _ref_load_field(path)
    with pytest.raises(ConfigError) as got:
        load_field(path)
    assert str(got.value) == str(ref.value)
    return str(got.value)


# -- valid files: same grid, same bytes ----------------------------------------------

SHAPES = [(6,), (4, 6), (4, 2, 4)]
EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
            1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308, 1.0 / 3.0]


def _field(shape, support, rng):
    grid = GridSpec(shape, 0.75, alpha=0.25, mass=1.5)
    if support == "scalar":
        return random_field(grid, rng, scalar=True)
    f = random_field(grid, rng)
    if support == "dirac":
        # scalar data under the Dirac flow: {1, e_j, e_{n+j}, pseudoscalar}
        keep = np.zeros(grid.blades)
        keep[[0, grid.blades - 1] + [1 << j for j in range(2 * grid.n)]] = 1.0
        f = LatticeField(grid, f.values * keep)
    return f


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{len(s)}d")
@pytest.mark.parametrize("support", ["scalar", "dirac", "all"])
def test_random_fields_load_bit_for_bit(tmp_path, rng, chunk, shape, support):
    f = _field(shape, support, rng)
    vals = f.values.copy()
    flat = vals.reshape(-1)
    hit = np.flatnonzero(flat)
    k = min(len(hit), len(EXTREMES))
    # extremes in both parts, never a zero next to a zero: each row is written
    flat.real[hit[:k]] = EXTREMES[:k]
    flat.imag[hit[-k:]] = EXTREMES[::-1][:k]
    path = str(tmp_path / "f.csv")
    store_field(LatticeField(f.grid, vals), path)
    got = _assert_same(path)
    # zero coefficients are not written, so they come back as +0
    assert got.values.tobytes() == np.where(vals == 0, 0j, vals).tobytes()


def test_random_bit_patterns_round_trip(tmp_path, rng):
    # repr then np.loadtxt must give back every finite double exactly
    doubles = rng.integers(0, 2**64, size=(2, 4096), dtype=np.uint64).view(np.float64)
    doubles[~np.isfinite(doubles)] = 1.0
    grid = GridSpec((1024,), 1.0)
    vals = np.empty((1024, grid.blades), dtype=complex)
    vals.real, vals.imag = doubles.reshape(2, 1024, grid.blades)
    path = str(tmp_path / "bits.csv")
    store_field(LatticeField(grid, vals), path)
    assert _assert_same(path).values.tobytes() == vals.tobytes()


def test_header_only_file_loads_without_warning(tmp_path, chunk):
    path = str(tmp_path / "zeros.csv")
    store_field(LatticeField.zeros(GridSpec((4, 4), 0.5)), path)
    with open(path, encoding="utf-8") as fh:
        comments_only = _write(tmp_path, "c.csv", fh.read() + "# one\n# two\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (path, comments_only):
            got = _assert_same(p)
            assert not got.values.any()


HEAD = "# shape=4\n# spacing=1.0\n# alpha=0.0\n# mass=0.0\nx1,blade,re,im\n"


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_comments_and_blank_lines_between_rows_are_skipped(tmp_path, chunk, newline):
    text = HEAD + (
        "0,,1.0,0.5\n"
        "# a full-line comment, with commas, 1,2,3\n"
        "\n"
        "   \n"
        "\t \n"
        "1,1,2.0,-0.0\n"
        "#\n"
        "2,1·2,3.0,4.0\n"
        "  \t"
    )
    got = _assert_same(_write(tmp_path, "f.csv", text, newline))
    assert got.values[0, 0] == 1.0 + 0.5j and got.values[1, 1] == 2.0 and got.values[2, 3] == 3.0 + 4.0j
    assert np.count_nonzero(got.values) == 3


@pytest.mark.parametrize("space", ["\xa0", "\u3000", "\x1c", "\x85"], ids=["nbsp", "ideographic", "fs", "nel"])
def test_lines_of_unicode_whitespace_are_skipped(tmp_path, chunk, space):
    text = HEAD + f"0,,1.0,0.5\n{space}\n{space} \t{space}\n1,1,2.0,-0.0\n{space}"
    got = _assert_same(_write(tmp_path, "f.csv", text))
    assert got.values[0, 0] == 1.0 + 0.5j and got.values[1, 1] == 2.0
    assert np.count_nonzero(got.values) == 2


def test_repeated_row_keeps_its_last_value(tmp_path, chunk):
    text = HEAD + "0,,1.0,0.0\n1,2,5.0,5.0\n0,,2.0,3.0\n3,,1.0,1.0\n0,,-4.0,-0.0\n"
    got = _assert_same(_write(tmp_path, "f.csv", text))
    assert got.values[0, 0] == -4.0 and np.signbit(got.values[0, 0].imag)


def test_a_file_of_bare_cr_lines_is_refused_naming_its_line_ending(tmp_path, chunk):
    # the row-by-row reader splits on a bare \r too; this reader refuses the file, since its grid
    # lines would run together
    path = _write(tmp_path, "f.csv", HEAD + GOOD, "\r")
    with pytest.raises(ConfigError) as got:
        load_field(path)
    assert str(got.value) == f"{path}: a line ends in a bare carriage return (\\r); end lines in \\n or \\r\\n"


def test_data_lines_of_bare_cr_are_refused_naming_their_line_ending(tmp_path, chunk):
    # the grid lines end in \n, so only the rows run together
    path = _write(tmp_path, "f.csv", HEAD + GOOD.replace("\n", "\r") + "2,,3.0,0.0\n")
    with pytest.raises(ConfigError) as got:
        load_field(path)
    assert str(got.value) == f"{path}: a line ends in a bare carriage return (\\r); end lines in \\n or \\r\\n"


@pytest.mark.parametrize("text", [
    HEAD + "0,,1.0,0.0\n# note\r1,,2.0,0.0\n",
    HEAD.replace("# alpha=0.0\n", "# alpha=0.0\r# note\n") + "0,,1.0,0.0\n",
], ids=["data-comment", "grid-comment"])
def test_a_comment_that_ends_in_a_bare_cr_is_refused_naming_its_line_ending(tmp_path, chunk, text):
    # a comment runs to its line's end; were it to run through the \r, it would swallow the row
    # after it, which the row-by-row reader reads
    path = _write(tmp_path, "f.csv", text)
    with pytest.raises(ConfigError) as got:
        load_field(path)
    assert str(got.value) == f"{path}: a line ends in a bare carriage return (\\r); end lines in \\n or \\r\\n"


def test_other_spellings_of_a_blade(tmp_path, chunk):
    # labels outside the canonical table but valid to the previous reader
    text = HEAD + "1, 1,2.0,0.0\n2,01,3.0,0.0\n3,1·2,4.0,0.0\n"
    got = _assert_same(_write(tmp_path, "f.csv", text))
    assert list(got.values[:, 1]) == [0.0, 2.0, 3.0, 0.0]
    assert list(got.values[:, 3]) == [0.0, 0.0, 0.0, 4.0]


def test_a_large_file_loads_the_same(tmp_path, rng):
    # several chunks at the shipped size, each ending inside a row
    f = random_field(GridSpec((32, 32), 0.5), rng)
    path = str(tmp_path / "big.csv")
    store_field(f, path)
    assert _assert_same(path).values.tobytes() == f.values.tobytes()


# -- invalid files: the same named error -------------------------------------------

GOOD = "0,,1.0,0.0\n1,1,2.0,0.0\n"


@pytest.mark.parametrize(
    "row, pattern",
    [
        ("1,,1.0,0.0 # x", r"malformed row \['1', '', '1.0', '0.0 # x'\]"),
        ("1,,1.0 # x,0.0", r"malformed row \['1', '', '1.0 # x', '0.0'\]"),
        ("1,,1.0,0.0x", r"malformed row \['1', '', '1.0', '0.0x'\]"),
        ("1,,1.0", r"malformed row \['1', '', '1.0'\]"),
        ("1,,1.0,0.0,", r"malformed row \['1', '', '1.0', '0.0', ''\]"),
        ("a,,1.0,0.0", r"malformed row \['a', '', '1.0', '0.0'\]"),
        ("1.0,,1.0,0.0", r"malformed row \['1.0', '', '1.0', '0.0'\]"),
        ("-1,,1.0,0.0", r"site index -1 outside axis 1 \(0..3\)"),
        ("4,,1.0,0.0", r"site index 4 outside axis 1 \(0..3\)"),
        ("1,7,1.0,0.0", r"bad blade label '7': generator index 7 outside 1..2"),
        ("1,x,1.0,0.0", r"bad blade label 'x'"),
        ("1,1·2·1·2·1·2,1.0,0.0", r"bad blade label '1·2·1·2·1·2': repeated generator index 1"),
        ("1,1·1,1.0,0.0", r"bad blade label '1·1': repeated generator index 1"),
        ("0,2·1,1.0,0.0", r"bad blade label '2·1': generator index 1 follows 2; blade indices must ascend"),
        ("1,1#,1.0,0.0", r"bad blade label '1#': invalid literal for int\(\) with base 10: '1#'"),
        ("1,#,1.0,0.0", r"bad blade label '#': invalid literal for int\(\) with base 10: '#'"),
        ("1,1\x00,1.0,0.0", r"bad blade label '1\\x00': invalid literal for int\(\) with base 10: '1\\x00'"),
        ("1,\x00,1.0,0.0", r"bad blade label '\\x00': invalid literal for int\(\) with base 10: '\\x00'"),
    ],
)
@pytest.mark.parametrize("where", ["first", "after"])
def test_bad_row_raises_the_same_error(tmp_path, chunk, row, pattern, where):
    body = row + "\n" + GOOD if where == "first" else GOOD + "# c\n\n  \n" + GOOD + row + "\n" + GOOD
    message = _assert_same_error(_write(tmp_path, "bad.csv", HEAD + body))
    assert re.search(pattern, message), message


def test_first_of_several_bad_rows_is_named(tmp_path, chunk):
    rows = [f"{i % 4},,1.0,0.0" for i in range(40)]
    rows[13], rows[29] = "1,,1.0,0.0x", "2,,one,0.0"
    message = _assert_same_error(_write(tmp_path, "bad.csv", HEAD + "\n".join(rows) + "\n"))
    assert "'0.0x'" in message


def test_tiny_chunk_splits_the_file_into_several_parses(tmp_path, monkeypatch, chunk, reader):
    # guards the fixture: the tiny chunk must reach the reader in its own module
    parses = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: parses.append(1) or loadtxt(*args, **kwargs))
    rows = [f"{i % 4},,1.0,0.0" for i in range(40)]
    path = _write(tmp_path, "f.csv", HEAD + "\n".join(rows) + "\n")
    got = _assert_same(path)
    assert np.count_nonzero(got.values) == 4
    with open(path, "rb") as fh:
        fieldio._read_grid(fh, path)
        chunks = len(list(fieldio._chunks(fh)))
    assert chunks == 1 if chunk == "default" else chunks >= 4
    assert len(parses) == ((chunks + 1) // 2 if reader.forced else chunks)  # forced, the even chunks


def test_a_forced_reader_forks_once_per_load(tmp_path, reader):
    # guards the fixture: forced, the reader must fork in the reader's own module
    _assert_same(_write(tmp_path, "f.csv", HEAD + GOOD))
    assert reader.forks == reader.forced


def _one_line_per_chunk(monkeypatch, rows):
    """Rows split one line per chunk: forced, the parent parses rows 0, 2, ... and the reader 1, 3, ..."""
    monkeypatch.setattr(fieldio, "_CHUNK_BYTES", 1)
    return HEAD + "".join(row + "\n" for row in rows)


@pytest.mark.parametrize("last", ["parent", "reader"])
def test_a_row_repeated_across_the_processes_keeps_its_last_value(tmp_path, monkeypatch, last):
    rows = ["0,,1.0,0.0", "0,,2.0,3.0", "1,1,5.0,5.0", "0,,-4.0,-0.0"]
    text = _one_line_per_chunk(monkeypatch, rows if last == "reader" else rows + ["2,,1.0,1.0", "0,,7.0,0.5"])
    got = _assert_same(_write(tmp_path, "f.csv", text))
    assert got.values[0, 0] == (-4.0 if last == "reader" else 7.0 + 0.5j)


@pytest.mark.parametrize("first", ["parent", "reader"])
def test_bad_rows_in_both_processes_name_the_earlier(tmp_path, monkeypatch, first):
    rows = [f"{i % 4},,1.0,0.0" for i in range(12)]
    early, late = (4, 7) if first == "parent" else (5, 8)  # even rows are the parent's
    rows[early], rows[late] = "1,,1.0,0.0x", "9,,1.0,0.0"
    message = _assert_same_error(_write(tmp_path, "bad.csv", _one_line_per_chunk(monkeypatch, rows)))
    assert "'0.0x'" in message


def test_bad_site_in_a_later_axis(tmp_path, chunk):
    text = "# shape=4,2\n# spacing=1.0\n# alpha=0.0\n# mass=0.0\nx1,x2,blade,re,im\n0,0,,1.0,0.0\n3,2,,1.0,0.0\n"
    assert "site index 2 outside axis 2 (0..1)" in _assert_same_error(_write(tmp_path, "bad.csv", text))


def test_over_long_label_is_quoted_as_written(tmp_path, chunk):
    label = "1·2·3·4·5·6·1"  # longer than any 3D blade label
    text = (
        "# shape=2,2,2\n# spacing=1.0\n# alpha=0.0\n# mass=0.0\nx1,x2,x3,blade,re,im\n"
        f"0,0,0,,1.0,0.0\n1,1,1,{label},1.0,0.0\n"
    )
    message = _assert_same_error(_write(tmp_path, "bad.csv", text))
    assert f"bad blade label {label!r}" in message


@pytest.mark.parametrize(
    "edit",
    [
        lambda t: t.replace("# mass=0.0\n", ""),
        lambda t: t.replace("# shape=4\n", "# shape=four\n"),
        lambda t: t.replace("x1,blade,re,im\n", "x1,blade,im,re\n"),
        lambda t: t.replace("x1,blade,re,im\n" + GOOD, ""),
    ],
    ids=["missing-meta", "bad-meta", "header", "no-header"],
)
def test_bad_preamble_raises_the_same_error(tmp_path, edit):
    _assert_same_error(_write(tmp_path, "bad.csv", edit(HEAD + GOOD)))


@pytest.mark.parametrize("key, value", [("spacing", "inf"), ("mass", "nan"), ("mass", "inf")])
def test_non_finite_grid_metadata_is_bad_metadata(tmp_path, key, value):
    text = re.sub(rf"# {key}=[^\n]*", f"# {key}={value}", HEAD + GOOD)
    message = _assert_same_error(_write(tmp_path, "bad.csv", text))
    assert "bad grid metadata" in message
