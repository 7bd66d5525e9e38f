"""``tests/fixtures/golden_gap.py``, the report of how far two trees of runs drifted."""

import importlib.util
import json
import shutil
from pathlib import Path

from latticewave.cli import load_field, store_field
from latticewave.fractional import heat_kernel_bessel, heat_kernel_spectral
from latticewave.lattice import GridSpec

FIXTURES = Path(__file__).parent / "fixtures"
spec = importlib.util.spec_from_file_location("golden_gap", FIXTURES / "golden_gap.py")
golden_gap = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden_gap)


def test_reports_each_kind_of_file(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    shutil.copytree(FIXTURES / "golden" / "dirac", old / "dirac")
    shutil.copytree(FIXTURES / "golden" / "spectrum", new / "spectrum")
    shutil.copytree(old / "dirac", new / "dirac")
    f = load_field(str(old / "dirac" / "field_001.csv"))
    store_field(f + f * 1e-3, str(new / "dirac" / "field_001.csv"))
    meta = json.loads((old / "dirac" / "metadata.json").read_text())
    meta["residuals"]["kg_residual"]["1.0"] += 2.5e-16
    (new / "dirac" / "metadata.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    (new / "dirac" / "field_000.csv").write_text("# not a field\n")

    assert golden_gap.main([str(old), str(new)]) == 0
    lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert lines["dirac/field_000.csv"] == "bytes differ"
    assert lines["dirac/field_001.csv"] == "field max|d|/max|value| = 0.001"
    assert lines["dirac/metadata.json"].startswith("metadata max|d| = 2.5")
    assert lines["dirac/metadata.json"].endswith(" at residuals.kg_residual.1.0")
    assert lines["spectrum/spectrum.csv"] == "only in NEW"


def test_names_a_change_beyond_the_numbers(tmp_path, capsys):
    for side, equation in (("old", "dirac"), ("new", "klein_gordon")):
        (tmp_path / side).mkdir()
        (tmp_path / side / "metadata.json").write_text(json.dumps({"config": {"equation": equation}}))
    assert golden_gap.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 0
    assert capsys.readouterr().out == "metadata.json: metadata changed beyond its numbers at config.equation\n"


def test_reports_each_route_of_a_heat_kernel(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    shutil.copytree(FIXTURES / "golden" / "heat_kernel", old)
    shutil.copytree(old, new)
    grid, s = GridSpec((16,), 0.5), 0.5  # tests/fixtures/heat_kernel.cfg
    kb, ks = heat_kernel_bessel(grid, s), heat_kernel_spectral(grid, s)
    store_field(kb * (1 + 1e-3), str(new / "kernel_heat_000.csv"), s=s, spectral=ks)
    store_field(kb, str(new / "kernel_heat_001.csv"), s=s, spectral=ks)
    store_field(kb, str(old / "kernel_heat_001.csv"), s=2 * s, spectral=ks)

    assert golden_gap.main([str(old), str(new)]) == 0
    lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert lines["kernel_heat_000.csv"].startswith("bessel max|d|/max|value| = 0.001, spectral max|d|/max|value| = ")
    spectral_gap = float(lines["kernel_heat_000.csv"].rpartition(" = ")[2])
    assert spectral_gap <= 1e-12  # the golden's spectral column against the same route, rerun
    assert lines["kernel_heat_001.csv"] == "grid, time or header changed"
