"""Hypothesis properties of the Dirac symbol and the central-difference solvers.

Random dimension n <= 3, small even shapes, spacing h, splitting parameter
alpha, mass m, and a step tau inside the CFL bound; times lie on the tau/2
grid.  The tolerances are the ones the acceptance suite applies to the same
identities (criteria 3, 5 and 6).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from latticewave import CauchyData, GridSpec, TimeModel, dirac_residual, kg_residual, random_field, solve_dirac, solve_kg
from latticewave.clifford import mul_arrays
from latticewave.propagators import lambda_max
from latticewave.spectral import d2_field, z_field


@st.composite
def grids(draw):
    n = draw(st.integers(1, 3))
    sizes = [2, 4, 6, 8] if n < 3 else [2, 4]
    shape = tuple(draw(st.sampled_from(sizes)) for _ in range(n))
    return GridSpec(shape, draw(st.floats(0.5, 1.5)))


@st.composite
def runs(draw):
    """Grid, mass, a central-difference step with a CFL margin, and a half-step index."""
    grid = draw(grids())
    m = draw(st.floats(0.05, 2.0))
    tau = draw(st.floats(0.1, 0.9)) * 2.0 / lambda_max(grid, m)
    return grid, m, tau, draw(st.integers(-12, 12)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(grid=grids(), alpha=st.floats(0.0, 0.5))
def test_z_squared_is_d_squared(grid, alpha):
    z = z_field(grid, alpha)
    z2 = mul_arrays(grid.n, z, z)
    z2[..., 0] -= d2_field(grid)
    assert float(np.max(np.abs(z2))) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(run=runs())
def test_kg_slices_satisfy_the_leapfrog(run):
    grid, m, tau, k, seed = run
    rng = np.random.default_rng(seed)
    data = CauchyData(random_field(grid, rng), random_field(grid, rng))
    time = TimeModel.central_difference(tau)
    t = k * tau / 2.0
    psi = [solve_kg(data, time, m, t + j * tau) for j in (-1, 0, 1)]
    assert kg_residual(*psi, m, tau) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(run=runs(), alpha=st.floats(0.0, 0.5))
def test_dirac_half_steps_satisfy_the_first_order_flow(run, alpha):
    grid, m, tau, k, seed = run
    phi0 = random_field(grid, np.random.default_rng(seed))
    time = TimeModel.central_difference(tau)
    t = k * tau / 2.0
    psi = [solve_dirac(phi0, time, alpha, m, t + j * tau / 2.0) for j in (-1, 0, 1)]
    assert dirac_residual(*psi, alpha, m, tau) <= 1e-9
