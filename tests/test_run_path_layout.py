"""The run-path modules stay on the compact blade layout, read from their source.

A field keeps its active blade columns: ``support`` and ``columns``.  Its
``values`` property builds the dense ``(*shape, 4**n)`` array on access, and
``mul_arrays`` reads the supports off two dense arrays before it multiplies;
both cost up to ``4**n`` times the field's own bytes.  The checks
(``oracles``, ``selftest``) may use them.  In the modules that the commands
and the public API run, this test allows

* an uncalled ``.values`` attribute only in ``spectral.z_field`` and
  ``spectral.dirac_symbol``, whose contract is to return the dense symbol;
* a call of ``mul_arrays`` only in ``Multivector.__mul__``, whose operands
  are one multivector of ``4**n`` coefficients each.

A called ``.values()`` is a dict's, and is not counted.
"""

import ast
from pathlib import Path

import latticewave

PACKAGE = Path(latticewave.__file__).resolve().parent
RUN_PATH = ("cli", "clifford", "fieldio", "fractional", "lattice", "propagators", "spectral", "umbral")
ALLOWED = {
    "values": {"spectral.z_field", "spectral.dirac_symbol"},
    "mul_arrays": {"clifford.Multivector.__mul__"},
}


def _dense_uses(module: str, source: str) -> set[tuple[str, str]]:
    """(rule, qualified name of the enclosing definition) for each dense read in ``source``."""
    found = set()

    def visit(node: ast.AST, scope: str, called: bool) -> None:
        if isinstance(node, ast.Attribute) and node.attr == "values" and not called:
            found.add(("values", scope))
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name == "mul_arrays":
                found.add(("mul_arrays", scope))
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            visit(child, inner, isinstance(node, ast.Call) and child is node.func)

    visit(ast.parse(source), module, False)
    return found


def _violations(sources: dict) -> list[str]:
    return sorted(f"{rule} in {scope}" for module, source in sources.items()
                  for rule, scope in _dense_uses(module, source) if scope not in ALLOWED[rule])


def _sources() -> dict:
    return {module: (PACKAGE / f"{module}.py").read_text(encoding="utf-8") for module in RUN_PATH}


def test_the_run_path_reads_no_dense_layout():
    assert _violations(_sources()) == []


def test_the_allowed_reads_are_still_there():
    # an allowance that no longer matches anything would hide a rename
    found = {use for module, source in _sources().items() for use in _dense_uses(module, source)}
    assert {(rule, scope) for rule, scopes in ALLOWED.items() for scope in scopes} <= found


def test_a_planted_values_read_in_norm_is_found():
    sources = _sources()
    line = "    return float(np.sqrt(f.grid.h**f.grid.n * np.sum(np.abs(f.columns) ** 2)))"
    assert sources["lattice"].count(line) == 1
    sources["lattice"] = sources["lattice"].replace(line, line.replace("f.columns", "f.values"))
    assert _violations(sources) == ["values in lattice.norm"]


def test_a_planted_mul_arrays_call_in_spectral_is_found():
    sources = _sources()
    sources["spectral"] += "\n\ndef _square(grid, a):\n    return clifford.mul_arrays(grid.n, a, a)\n"
    assert _violations(sources) == ["mul_arrays in spectral._square"]
