"""The time model alone decides what happens past the CFL bound.

``DeltaOperator.central_difference(tau, allow_unstable=...)`` keeps the
decision beside the bound 2/tau it governs; every multiplier, symbol, kernel
and solver entry point reads it from the model it is given.
"""

import inspect

import numpy as np
import pytest

import latticewave as lw
from latticewave import CauchyData, CflViolationError, DeltaOperator, FracParams, GridSpec, Propagator, random_field

GRID = GridSpec((8,), 0.25, 0.25, 1.0)  # lambda_max = 8.06
TAU = 1.0  # the bound 2/tau = 2 lies far below lambda_max
T = 1.5  # three half steps: the growing branch is complex here
P = FracParams(0.3, 1.0)


def _data(grid: GridSpec) -> CauchyData:
    rng = np.random.default_rng(11)
    return CauchyData(random_field(grid, rng), random_field(grid, rng))


ENTRY_POINTS = {
    "wave_multiplier_arrays": lambda time, data, lam: lw.wave_multiplier_arrays(time, lam, T),
    "wave_multipliers": lambda time, data, lam: lw.wave_multipliers(time, float(lam.max()), T),
    "DeltaOperator.multipliers": lambda time, data, lam: time.multipliers(lam, T),
    "DeltaOperator.phase": lambda time, data, lam: time.phase(lam, T),
    "wave_symbols": lambda time, data, lam: lw.wave_symbols(GRID, time, GRID.mass, T),
    "Propagator.at": lambda time, data, lam: Propagator(data, GRID.mass).at(time, T),
    "solve_kg": lambda time, data, lam: lw.solve_kg(data, time, GRID.mass, T),
    "solve_dirac": lambda time, data, lam: lw.solve_dirac(data.phi0, time, GRID.alpha, GRID.mass, T),
    "wave_kernels": lambda time, data, lam: lw.wave_kernels(GRID, time, GRID.mass, T),
    "solve_kg_by_kernels": lambda time, data, lam: lw.solve_kg_by_kernels(data, time, GRID.mass, T),
    "fractional_symbols": lambda time, data, lam: lw.fractional_symbols(GRID, time, P, T),
    "fractional_kernels": lambda time, data, lam: lw.fractional_kernels(GRID, time, P, T),
    "solve_kg_fractional": lambda time, data, lam: lw.solve_kg_fractional(data, time, P, T),
    "p_t_operator": lambda time, data, lam: lw.p_t_operator(data.phi0, time, P, T),
}


def _arrays(result) -> list[np.ndarray]:
    if isinstance(result, tuple):
        return [a for part in result for a in _arrays(part)]
    if isinstance(result, lw.LatticeField):
        return [result.columns]
    return [np.asarray(result)]


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_every_entry_point_takes_the_policy_from_the_time_model(name):
    data, lam = _data(GRID), lw.lambda_field(GRID, GRID.mass)
    call = ENTRY_POINTS[name]
    with pytest.raises(CflViolationError, match="--allow-unstable .*allow_unstable=True"):
        call(DeltaOperator.central_difference(TAU), data, lam)
    grown = _arrays(call(DeltaOperator.central_difference(TAU, allow_unstable=True), data, lam))
    assert all(np.isfinite(a).all() for a in grown)
    assert max(np.abs(a).max() for a in grown) > 5.0  # the growing branch, not a clamp


@pytest.mark.parametrize("grid,time", [
    (GridSpec((8,), 1.0, 0.25, 1.0), DeltaOperator.central_difference(TAU / 2)),  # lambda_max = 2.2 < 2/tau = 4
    (GRID, DeltaOperator.central_difference(TAU, allow_unstable=True)),
], ids=["stable", "unstable"])
def test_plan_slices_equal_one_shot_solves_on_either_branch(grid, time):
    data = _data(grid)
    kg, dirac = Propagator(data, grid.mass), Propagator.dirac(data.phi0, grid.alpha, grid.mass)
    for t in (0.5, T, 3.0):
        for plan, one_shot in ((kg.at(time, t), lw.solve_kg(data, time, grid.mass, t)),
                               (dirac.at(time, t), lw.solve_dirac(data.phi0, time, grid.alpha, grid.mass, t))):
            assert plan.support == one_shot.support
            assert plan.columns.tobytes() == one_shot.columns.tobytes()


def _takes_the_flag(fn) -> bool:
    return "allow_unstable" in inspect.signature(fn).parameters


def test_only_central_difference_takes_allow_unstable():
    takers = {name for name in lw.__all__
              if inspect.isfunction(getattr(lw, name)) and _takes_the_flag(getattr(lw, name))}
    for cls in (DeltaOperator, Propagator):
        for attr, raw in vars(cls).items():
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if not attr.startswith("_") and inspect.isfunction(fn) and _takes_the_flag(fn):
                takers.add(f"{cls.__name__}.{attr}")
    assert takers == {"DeltaOperator.central_difference"}


@pytest.mark.parametrize("shape,h", [((8,), 0.7), ((6, 4), 0.5), ((4, 4, 2), 0.8)])
def test_p_t_operator_is_the_dirac_flow_bit_for_bit(shape, h):
    grid = GridSpec(shape, h, 0.3, 1.1)
    phi = random_field(grid, np.random.default_rng(len(shape)))
    for time in (DeltaOperator.continuous(), DeltaOperator.central_difference(0.1)):
        for t in (0.0, 0.1, -0.3, 0.5):
            got = lw.p_t_operator(phi, time, P, t)
            want = lw.solve_dirac(phi, time, P.alpha, P.m, t)
            assert got.support == want.support and got.columns.tobytes() == want.columns.tobytes()
