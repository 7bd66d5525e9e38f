"""Each closed form and its independent twin, held apart by a call trace.

Every closed form in the package is checked by a twin that computes the same
thing another way.  A speed-up that lets a twin call into the code it checks
turns the check into a comparison of a result with itself.  ``ROWS`` holds
one row per (closed form, twin) pair:

* ``path``: what the closed form must enter, so that a row cannot pass
  without running the code it guards;
* ``never``: what the twin must not enter (functions, classes, meaning any
  of their methods, or whole modules);
* ``shared``: what the twin does enter although the closed form uses it
  too, and why that does not weaken the check.

Each row runs on 1D-3D grids under ``sys.setprofile``, which sees every call
of a Python function.  The rows look the twins up on their modules when they
run, so a planted fault that reroutes a twin fails here.

The trace sees only the paths its inputs take, so the source of every twin
in ``latticewave.oracles`` is read too: the static pass walks the body of the
twin and of each ``oracles`` helper it names, resolves every name through
the module's globals, and fails on anything in the row's ``never``.  No
module but ``latticewave`` and ``selftest`` may import ``oracles``.
"""

import ast
import math
import sys
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

import latticewave.clifford as clifford
import latticewave.fractional as fractional
import latticewave.lattice as lattice
import latticewave.oracles as oracles
import latticewave.propagators as propagators
import latticewave.spectral as spectral
import latticewave.umbral as umbral
from latticewave import CauchyData, FracParams, GridSpec, Multivector, TimeModel, pseudoscalar, random_field

GRIDS = [GridSpec((8,), 0.7, 0.25, 0.9), GridSpec((6, 4), 0.5, 0.1, 1.3), GridSpec((4, 4, 2), 0.8, 0.5, 0.6)]
TAU = 0.1  # inside the CFL bound of every grid above
PARAMS = FracParams(0.3, 1.1)
POLY = (1, -2, 0, 3, 1)  # a polynomial in t, lowest power first

TRANSFORMS = "criterion 4 checks the transforms against the dense sums, which call no FFT"
SYMBOL = "criterion 3 checks the symbol: z(xi) squares to d(xi)^2"


def _inputs(grid: GridSpec) -> types.SimpleNamespace:
    """Every input a row needs, made before any trace starts."""
    rng = np.random.default_rng(7 * grid.n)
    f, g = random_field(grid, rng), random_field(grid, rng)
    data = CauchyData(random_field(grid, rng), random_field(grid, rng, scalar=True))
    s = Multivector.generator(grid.sig, grid.n + 1) * 0.3 + pseudoscalar(grid.sig) * 0.4  # s^2 = 0.25
    return types.SimpleNamespace(grid=grid, m=grid.mass, f=f, g=g, F=spectral.dft(f), G=spectral.dft(g), data=data,
                                 time=TimeModel.central_difference(TAU), s=s)


@dataclass(frozen=True)
class Row:
    id: str
    closed: Callable[[types.SimpleNamespace], object]
    twin: Callable[[types.SimpleNamespace], object]
    path: tuple
    never: tuple
    shared: dict = field(default_factory=dict)


def _solve_kg(x):
    """The closed form both ways: a one-shot solve and a plan's slice."""
    propagators.solve_kg(x.data, x.time, x.m, 3 * TAU)
    propagators.solve_kg(propagators.Propagator(x.data, x.m), x.time, x.m, 3 * TAU)


def _solve_dirac(x):
    alpha = x.grid.alpha
    propagators.solve_dirac(x.data.phi0, x.time, alpha, x.m, TAU)
    propagators.solve_dirac(propagators.Propagator.dirac(x.data.phi0, alpha, x.m), x.time, alpha, x.m, TAU)


KG_PATH = (propagators.Propagator, propagators._combine, umbral.wave_multiplier_arrays)

ROWS = [
    Row(
        "transforms",
        lambda x: (spectral.dft(x.f), spectral.idft(x.F)),
        lambda x: (oracles.dft_direct(x.f), oracles.idft_direct(x.F)),
        path=(spectral._transform, np.fft),
        never=(spectral.dft, spectral.idft, spectral._transform, np.fft),
    ),
    Row(
        "kg-leapfrog",
        _solve_kg,
        lambda x: oracles.leapfrog_march(x.data.phi0, x.data.phi1, x.m, TAU, 3),
        path=KG_PATH,
        never=(propagators.Propagator, propagators._combine, propagators.solve_kg, propagators.TimeModel,
               spectral, umbral, np.fft),
        shared={lattice.discrete_laplacian: "the position-space stencil; "
                "criterion 2 checks (D - m gamma)^2 against it"},
    ),
    Row(
        "kg-chebyshev",
        _solve_kg,
        lambda x: oracles.chebyshev_solve(x.data, TAU, x.m, 3 * TAU),
        path=KG_PATH,
        never=(propagators.Propagator, propagators._combine, propagators.solve_kg, propagators.lambda_field,
               propagators.TimeModel, umbral),
        shared={spectral.dft: TRANSFORMS, spectral.idft: TRANSFORMS, spectral.d2_field: SYMBOL},
    ),
    Row(
        "kg-kernels",
        _solve_kg,
        lambda x: oracles.solve_kg_by_kernels(x.data, x.time, x.m, 3 * TAU),
        path=KG_PATH,
        never=(propagators.Propagator, propagators._combine, propagators.solve_kg),
        shared={
            umbral.wave_multiplier_arrays: "the kernels transform the same multiplier pair, so this row checks the "
            "convolution route; criterion 5 checks the pair against the leapfrog recurrence",
            spectral.dft: TRANSFORMS,
        },
    ),
    Row(
        "kg-custom-series",
        _solve_kg,
        lambda x: propagators.solve_kg(x.data, umbral.DeltaOperator.from_series(x.time.series), x.m, 3 * TAU),
        path=KG_PATH + (umbral._central_phase,),
        never=(umbral._central_phase,),
        shared={
            propagators._combine: "the solver route, which kg-leapfrog and kg-chebyshev check, so this row "
            "checks the multipliers",
            umbral.wave_multiplier_arrays: "the entry of both multiplier routes: the twin solves the operator's "
            "own series by Newton's method, never the closed-form arcsin branch",
        },
    ),
    Row(
        "convolution",
        lambda x: spectral.convolve(x.f, x.g),
        lambda x: oracles.convolve_direct(x.f, x.g),
        path=(spectral.dft, spectral.idft, clifford.mul_columns),
        never=(spectral.convolve, spectral.dft, spectral.idft, spectral._transform, spectral.reflect, np.fft),
        shared={clifford.mul_columns: "the pointwise geometric product; "
                "criterion 1 checks it against the algebra relations"},
    ),
    Row(
        "heat-kernel",
        lambda x: fractional.heat_kernel_spectral(x.grid, 0.4),
        lambda x: fractional.heat_kernel_bessel(x.grid, 0.4),
        path=(spectral.scalar_kernel, spectral.idft),
        never=(fractional.heat_kernel_spectral, fractional.heat_semigroup, spectral, np.fft),
    ),
    Row(
        "bessel-recurrence",
        lambda x: fractional.bessel_i(3, 0.8 / x.grid.h**2),  # u = 2s/h^2 of the heat-kernel row
        lambda x: oracles._bessel_quadrature(3, 0.8 / x.grid.h**2),
        path=(fractional._scaled_bessel,),
        never=(fractional,),
    ),
    Row(
        "frac-power",
        lambda x: fractional.frac_power(x.f, PARAMS, "spectral"),
        lambda x: fractional.frac_power(x.f, PARAMS, "subordination"),
        path=(fractional._power_multiplier,),
        never=(fractional._power_multiplier,),
        shared={
            spectral.multiply_field: "one transform pair applies either route's symbol; " + TRANSFORMS,
            spectral.d2_field: SYMBOL,
        },
    ),
    Row(
        "dirac-residual",
        _solve_dirac,
        lambda x: propagators.dirac_residual(x.f, x.data.phi0, x.g, x.grid.alpha, x.m, TAU),
        path=(propagators.Propagator, propagators._combine, propagators._velocity_spectrum,
              umbral.wave_multiplier_arrays),
        never=(propagators.Propagator, propagators.solve_dirac, propagators.solve_kg, propagators.dirac_data,
               propagators._combine, propagators.TimeModel, umbral),
        shared={
            propagators._dirac_velocity: "i(D - m gamma), the equation's own right-hand side; "
            "criterion 2 checks its square against the Laplacian stencil",
            propagators._velocity_spectrum: "the transform i(z - m gamma) F of that right-hand side, "
            "which _dirac_velocity inverts",
        },
    ),
    Row(
        "heat-euler",
        lambda x: fractional.heat_semigroup(x.f, 0.3),
        lambda x: oracles.heat_euler(x.f, 0.3, 8),
        path=(fractional.heat_semigroup, spectral.multiply_field),
        never=(fractional.heat_semigroup, spectral, np.fft),
        shared={
            lattice.discrete_laplacian: "the position-space stencil; "
            "criterion 2 checks (D - m gamma)^2 against it",
            fractional._heat_time: "the check that the heat time is finite and nonnegative",
        },
    ),
    Row(
        "egf-series",
        lambda x: umbral.egf_eval(x.time, x.s, 3 * TAU),
        lambda x: oracles.egf_series_eval(x.time, x.s, 3 * TAU),
        path=(umbral._split_square_root, umbral._central_phase),
        never=(umbral._split_square_root, umbral._central_phase),
    ),
    Row(
        "difference-quotient",
        lambda x: x.time.apply(POLY),
        lambda x: oracles.difference_quotient(POLY, x.time.tau),
        path=(umbral.DeltaOperator,),
        never=(umbral.DeltaOperator,),
    ),
    Row(
        "momentum-pairing",
        lambda x: lattice.inner_product(x.f, x.g),
        lambda x: oracles.momentum_pairing(x.F, x.G),
        path=(lattice.inner_product, clifford.mul_columns, clifford.dagger_columns),
        never=(lattice.inner_product,),
        shared={
            clifford.mul_columns: "the pointwise geometric product, which the twin reaches through mul_arrays on "
            "dense arrays; criterion 1 checks it against the algebra relations",
            clifford.dagger_columns: "the dagger sign rule, which the twin reaches through dagger_arrays; "
            "criterion 1 checks it against the algebra relations",
        },
    ),
]
ROW = {row.id: row for row in ROWS}


# -- the call trace ----------------------------------------------------------------


def _entered(call) -> tuple[set, set]:
    """Code objects and module names of every Python function that ``call`` enters."""
    codes, modules = set(), set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)
            modules.add(frame.f_globals.get("__name__", ""))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return codes, modules


def _functions(target) -> list:
    """The plain functions behind a function, a method wrapper or every attribute of a class."""
    if isinstance(target, type):
        return [fn for attr in vars(target).values() for fn in _functions(attr)]
    if isinstance(target, (classmethod, staticmethod)):
        return [target.__func__]
    if isinstance(target, property):
        return [fn for fn in (target.fget, target.fset) if fn is not None]
    return [target] if isinstance(target, types.FunctionType) else []


def _name(target) -> str:
    return target.__name__ if isinstance(target, types.ModuleType) else f"{target.__module__}.{target.__qualname__}"


def _hit(target, entered: tuple[set, set]) -> bool:
    codes, modules = entered
    if isinstance(target, types.ModuleType):
        return any(m == target.__name__ or m.startswith(target.__name__ + ".") for m in modules)
    functions = _functions(target)
    assert functions, f"{_name(target)} holds no Python function to trace"
    return any(fn.__code__ in codes for fn in functions)


def _violations(row: Row, x: types.SimpleNamespace) -> list[str]:
    """Names of what ``row``'s twin entered although the row forbids it."""
    entered = _entered(lambda: row.twin(x))
    return [_name(t) for t in row.never if _hit(t, entered)]


# -- the table ----------------------------------------------------------------------


def test_every_row_is_distinct_and_documents_what_it_shares():
    assert len(ROW) == len(ROWS)
    for row in ROWS:
        assert row.path and row.never
        assert not set(row.shared) & set(row.never), f"{row.id} both shares and forbids a function"
        assert all(why.strip() for why in row.shared.values())


@pytest.mark.parametrize("grid", GRIDS, ids=[f"{g.n}d" for g in GRIDS])
@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_twin_stays_off_the_closed_form(row, grid):
    x = _inputs(grid)
    entered = _entered(lambda: row.closed(x))
    missing = [_name(t) for t in row.path if not _hit(t, entered)]
    assert not missing, f"{row.id}: the closed form never entered {missing}, so the row checks nothing"
    assert not _violations(row, x), f"{row.id}: the twin entered code it checks"
    entered = _entered(lambda: row.twin(x))
    unused = [_name(t) for t in row.shared if not _hit(t, entered)]
    assert not unused, f"{row.id}: the row says the twin shares {unused}, which it never enters"


# -- planted faults -----------------------------------------------------------------


def _kg_through_the_plan(data, tau, m, t):
    return propagators.Propagator(data, m).at(TimeModel.central_difference(tau), t)


def _leapfrog_through_solve_kg(prev, cur, m, tau, steps):
    return propagators.solve_kg(CauchyData(prev, cur), TimeModel.central_difference(tau), m, steps * tau)


def _subordination_through_the_power(f, p):
    return spectral.multiply_field(f, fractional._power_multiplier(f.grid, p.m, -p.alpha))


def _euler_through_the_semigroup(f, s, steps):
    return fractional.heat_semigroup(f, s)


def _quadrature_through_bessel_i(k, u):
    return math.exp(-u) * fractional.bessel_i(k, u)


def _series_through_the_closed_form(series):
    return umbral.DeltaOperator.central_difference(TAU)


def _egf_through_the_closed_form(op, s, t):
    return umbral.egf_eval(op, s, t)


def _quotient_through_apply(p, tau):
    return umbral.DeltaOperator.central_difference(tau).apply(p)


def _pairing_through_the_inner_product(F, G):
    return lattice.inner_product(spectral.idft(F), spectral.idft(G))


PLANTED = [
    ("kg-custom-series", umbral.DeltaOperator, "from_series", _series_through_the_closed_form, "_central_phase"),
    ("kg-chebyshev", oracles, "chebyshev_solve", _kg_through_the_plan, "propagators.Propagator"),
    ("kg-leapfrog", oracles, "leapfrog_march", _leapfrog_through_solve_kg, "propagators.solve_kg"),
    ("frac-power", fractional, "_frac_power_subordination", _subordination_through_the_power, "_power_multiplier"),
    ("heat-euler", oracles, "heat_euler", _euler_through_the_semigroup, "fractional.heat_semigroup"),
    ("bessel-recurrence", oracles, "_bessel_quadrature", _quadrature_through_bessel_i, "latticewave.fractional"),
    ("egf-series", oracles, "egf_series_eval", _egf_through_the_closed_form, "_split_square_root"),
    ("difference-quotient", oracles, "difference_quotient", _quotient_through_apply, "umbral.DeltaOperator"),
    ("momentum-pairing", oracles, "momentum_pairing", _pairing_through_the_inner_product, "lattice.inner_product"),
]


@pytest.mark.parametrize("row_id,module,name,fault,caught", PLANTED, ids=[p[0] for p in PLANTED])
def test_a_planted_fault_fails_its_row(monkeypatch, row_id, module, name, fault, caught):
    x = _inputs(GRIDS[0])
    assert not _violations(ROW[row_id], x)
    monkeypatch.setattr(module, name, fault)
    found = _violations(ROW[row_id], x)
    assert any(caught in v for v in found), found


# -- the source ----------------------------------------------------------------------

SOURCE = Path(oracles.__file__).read_text(encoding="utf-8")
IMPORTERS = {"__init__", "selftest"}


def _resolve(node: ast.AST, namespace: dict):
    """The object that a name, or a dotted attribute chain on one, names in ``namespace``; None if none."""
    if isinstance(node, ast.Name):
        return namespace.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _resolve(node.value, namespace)
        return None if base is None else getattr(base, node.attr, None)
    return None


def _is(obj, target) -> bool:
    """Whether ``obj`` is ``target``, one of its methods, or lives in it.

    An exception class counts for nothing: raising the error type of a
    module runs none of the code a row checks.
    """
    if obj is target:
        return True
    if isinstance(target, type):
        return any(getattr(obj, "__func__", obj) is fn for fn in _functions(target))
    if not isinstance(target, types.ModuleType) or (isinstance(obj, type) and issubclass(obj, BaseException)):
        return False
    home = obj.__name__ if isinstance(obj, types.ModuleType) else getattr(obj, "__module__", None)
    return isinstance(home, str) and (home == target.__name__ or home.startswith(target.__name__ + "."))


def _static_violations(row: Row, source: str, namespace: dict) -> list[str]:
    """What the bodies of ``row``'s twin in ``source``, and of the helpers there it names, name against the row.

    Every name and attribute chain is resolved through ``namespace``, the
    module's globals, so a local that shadows a global counts as that global.
    """
    defs = {node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    todo = [name for name in row.twin.__code__.co_names if name in defs]
    seen, found = set(), []
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in (n for stmt in defs[name].body for n in ast.walk(stmt)):
            if isinstance(node, ast.Name) and node.id in defs:
                todo.append(node.id)
            obj = _resolve(node, namespace)
            found += [f"{name}: {ast.unparse(node)} is {_name(t)}" for t in row.never if obj is not None and _is(obj, t)]
    return found


STATIC_ROWS = [row for row in ROWS
               if any(getattr(getattr(oracles, name, None), "__module__", None) == oracles.__name__
                      for name in row.twin.__code__.co_names)]


@pytest.mark.parametrize("row", STATIC_ROWS, ids=[row.id for row in STATIC_ROWS])
def test_the_twin_source_names_nothing_its_row_forbids(row):
    assert not _static_violations(row, SOURCE, vars(oracles))


def _run_as_oracles(source: str) -> dict:
    """The globals of ``source`` run as a module of the package, as ``oracles`` is."""
    namespace = {"__name__": "latticewave._planted", "__package__": "latticewave"}
    exec(compile(source, "<planted oracles>", "exec"), namespace)
    return namespace


def test_a_planted_transform_in_the_leapfrog_source_fails_its_row():
    assert not _static_violations(ROW["kg-leapfrog"], SOURCE, _run_as_oracles(SOURCE))
    march = "        nxt = 2.0 * cur - prev"
    assert SOURCE.count(march) == 1
    planted = SOURCE.replace(march, "        dft(cur)\n" + march)
    found = _static_violations(ROW["kg-leapfrog"], planted, _run_as_oracles(planted))
    assert found == ["leapfrog_march: dft is latticewave.spectral"], found


def _importers(sources: dict) -> set:
    """The modules among ``sources`` (module name: source) that import ``oracles``."""
    found = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module or ''}.{alias.name}" for alias in node.names]
            else:
                continue
            if any("oracles" in name.split(".") for name in names):
                found.add(module)
    return found


def _package_sources() -> dict:
    return {path.stem: path.read_text(encoding="utf-8") for path in Path(oracles.__file__).parent.glob("*.py")}


def test_only_the_package_and_selftest_import_the_oracles():
    assert _importers(_package_sources()) == IMPORTERS


def test_a_planted_oracles_import_in_propagators_is_found():
    sources = _package_sources()
    sources["propagators"] += "\nfrom .oracles import leapfrog_march\n"
    assert _importers(sources) == IMPORTERS | {"propagators"}
