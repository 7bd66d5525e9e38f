"""The public surface: every exported name exists, every import is read, and README's example runs."""

import ast
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
SOURCES = sorted(Path(latticewave.__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_every_module_level_import_is_read(path):
    # exempt: the names of the module's __all__, and imports marked "# noqa: F401" (re-exports)
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = {name for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name) and target.id == "__all__"
                for name in ast.literal_eval(node.value)}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unread = [
        f"{path.stem}.{alias.asname or alias.name}"
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        and not any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names
        if (alias.asname or alias.name).split(".")[0] not in read | exported
    ]
    assert unread == []


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
