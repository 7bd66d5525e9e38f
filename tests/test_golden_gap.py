"""``tests/fixtures/golden_gap.py``, the report of how far two trees of runs drifted."""

import importlib.util
import json
import shutil
from pathlib import Path

from latticewave.cli import load_field, store_field

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
