"""The public surface: every exported name exists, and README's example runs."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import latticewave

MODULES = ["latticewave"] + [f"latticewave.{m.name}" for m in pkgutil.iter_modules(latticewave.__path__)]
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []


def test_the_readme_example_runs_without_warnings():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    src = os.path.dirname(os.path.dirname(latticewave.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, "-W", "error", "-c", blocks[0]],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
