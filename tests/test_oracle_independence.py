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
"""

import math
import sys
import types
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pytest

import latticewave.clifford as clifford
import latticewave.fractional as fractional
import latticewave.lattice as lattice
import latticewave.propagators as propagators
import latticewave.selftest as selftest
import latticewave.spectral as spectral
import latticewave.umbral as umbral
from latticewave import CauchyData, FracParams, GridSpec, TimeModel, random_field

GRIDS = [GridSpec((8,), 0.7, 0.25, 0.9), GridSpec((6, 4), 0.5, 0.1, 1.3), GridSpec((4, 4, 2), 0.8, 0.5, 0.6)]
TAU = 0.1  # inside the CFL bound of every grid above
PARAMS = FracParams(0.3, 1.1)

TRANSFORMS = "criterion 4 checks the transforms against the dense sums, which call no FFT"
SYMBOL = "criterion 3 checks the symbol: z(xi) squares to d(xi)^2"


def _inputs(grid: GridSpec) -> types.SimpleNamespace:
    """Every input a row needs, made before any trace starts."""
    rng = np.random.default_rng(7 * grid.n)
    f, g = random_field(grid, rng), random_field(grid, rng)
    data = CauchyData(random_field(grid, rng), random_field(grid, rng, scalar=True))
    return types.SimpleNamespace(grid=grid, m=grid.mass, f=f, g=g, F=spectral.dft(f), data=data,
                                 time=TimeModel.central_difference(TAU))


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
        lambda x: (spectral.dft_direct(x.f), spectral.idft_direct(x.F)),
        path=(spectral._transform, np.fft),
        never=(spectral.dft, spectral.idft, spectral._transform, np.fft),
    ),
    Row(
        "kg-leapfrog",
        _solve_kg,
        lambda x: propagators.leapfrog_march(x.data.phi0, x.data.phi1, x.m, TAU, 3),
        path=KG_PATH,
        never=(propagators.Propagator, propagators._combine, propagators.solve_kg, propagators.TimeModel,
               spectral, umbral, np.fft),
        shared={lattice.discrete_laplacian: "the position-space stencil; "
                "criterion 2 checks (D - m gamma)^2 against it"},
    ),
    Row(
        "kg-chebyshev",
        _solve_kg,
        lambda x: propagators.chebyshev_solve(x.data, TAU, x.m, 3 * TAU),
        path=KG_PATH,
        never=(propagators.Propagator, propagators._combine, propagators.solve_kg, propagators.lambda_field,
               propagators.TimeModel, umbral),
        shared={spectral.dft: TRANSFORMS, spectral.idft: TRANSFORMS, spectral.d2_field: SYMBOL},
    ),
    Row(
        "kg-kernels",
        _solve_kg,
        lambda x: propagators.solve_kg_by_kernels(x.data, x.time, x.m, 3 * TAU),
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
        lambda x: spectral.convolve_direct(x.f, x.g),
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
        lambda x: selftest._bessel_quadrature(3, 0.8 / x.grid.h**2),
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
        lambda x: fractional.heat_euler(x.f, 0.3, 8),
        path=(fractional.heat_semigroup, spectral.multiply_field),
        never=(fractional.heat_semigroup, spectral, np.fft),
        shared={
            lattice.discrete_laplacian: "the position-space stencil; "
            "criterion 2 checks (D - m gamma)^2 against it",
            fractional._heat_time: "the check that the heat time is finite and nonnegative",
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


PLANTED = [
    ("kg-custom-series", umbral.DeltaOperator, "from_series", _series_through_the_closed_form, "_central_phase"),
    ("kg-chebyshev", propagators, "chebyshev_solve", _kg_through_the_plan, "propagators.Propagator"),
    ("kg-leapfrog", propagators, "leapfrog_march", _leapfrog_through_solve_kg, "propagators.solve_kg"),
    ("frac-power", fractional, "_frac_power_subordination", _subordination_through_the_power, "_power_multiplier"),
    ("heat-euler", fractional, "heat_euler", _euler_through_the_semigroup, "fractional.heat_semigroup"),
    ("bessel-recurrence", selftest, "_bessel_quadrature", _quadrature_through_bessel_i, "latticewave.fractional"),
]


@pytest.mark.parametrize("row_id,module,name,fault,caught", PLANTED, ids=[p[0] for p in PLANTED])
def test_a_planted_fault_fails_its_row(monkeypatch, row_id, module, name, fault, caught):
    x = _inputs(GRIDS[0])
    assert not _violations(ROW[row_id], x)
    monkeypatch.setattr(module, name, fault)
    found = _violations(ROW[row_id], x)
    assert any(caught in v for v in found), found
