"""Wave-equation solvers: closed-form plane-wave oracles, kernel route,
Chebyshev route, leapfrog march, and the first-order (Dirac-type) flow."""

import math

import numpy as np
import pytest

from latticewave import (
    CauchyData,
    CflViolationError,
    DeltaOperator,
    GridSpec,
    LatticeField,
    TimeModel,
    chebyshev_solve,
    chebyshev_t,
    chebyshev_u,
    continuous_dirac_residual,
    continuous_kg_residual,
    dirac_data,
    dirac_residual,
    kg_residual,
    lambda_max,
    leapfrog_march,
    multiplier_d2,
    pseudoscalar,
    random_field,
    relative_gap,
    solve_dirac,
    solve_kg,
    solve_kg_by_kernels,
    wave_kernels,
)
from latticewave.lattice import norm


def _grid1(N=16, h=0.5):
    return GridSpec((N,), h)


# -- time models ----------------------------------------------------------------


def test_time_model_validation():
    with pytest.raises(ValueError):
        TimeModel(kind="adaptive", delta=DeltaOperator.derivative())
    with pytest.raises(ValueError):
        TimeModel(kind="continuous")  # bypassing the constructors loses the operator
    with pytest.raises(ValueError):
        TimeModel.central_difference(0.0)


@pytest.mark.parametrize("tau", [math.inf, -math.inf, math.nan])
def test_central_difference_rejects_non_finite_tau(tau):
    # an infinite tau used to escape as an OverflowError from Fraction
    with pytest.raises(ValueError, match="tau"):
        TimeModel.central_difference(tau)


def test_validate_time_half_step_grid():
    tm = TimeModel.central_difference(0.5)
    assert tm.validate_time(0.75) == 0.75
    assert tm.validate_time(-1.25) == -1.25
    assert tm.validate_time(0.0) == 0.0
    with pytest.raises(ValueError):
        tm.validate_time(0.6)
    assert TimeModel.continuous().validate_time(0.137) == 0.137


def test_cfl_bound_values():
    assert TimeModel.continuous().cfl_bound() == np.inf
    assert TimeModel.central_difference(0.25).cfl_bound() == pytest.approx(8.0)


def test_lambda_max_closed_form():
    grid = GridSpec((8, 8), 0.5)
    # largest d^2 is 4n/h^2, attained at the zone corner
    assert lambda_max(grid, 1.5) == pytest.approx(math.sqrt(4 * 2 / 0.25 + 1.5**2))


# -- plane-wave closed forms ------------------------------------------------------


def test_solve_kg_continuous_plane_wave():
    grid = _grid1()
    pw = LatticeField.plane_wave(grid, (2,))
    xi = 2 * math.pi * 2 / (16 * 0.5)
    lam = math.sqrt(multiplier_d2(xi, 0.5) + 1.2**2)
    t = 0.9
    got = solve_kg(CauchyData.rest(pw), TimeModel.continuous(), 1.2, t)
    assert relative_gap(got, pw * math.cos(t * lam)) <= 1e-12
    got_v = solve_kg(CauchyData(LatticeField.zeros(grid), pw), TimeModel.continuous(), 1.2, t)
    assert relative_gap(got_v, pw * (math.sin(t * lam) / lam)) <= 1e-12


def test_solve_kg_central_plane_wave():
    grid = _grid1()
    pw = LatticeField.plane_wave(grid, (3,))
    xi = 2 * math.pi * 3 / (16 * 0.5)
    lam = math.sqrt(multiplier_d2(xi, 0.5) + 1.0)
    tau = 0.25
    assert tau * lam / 2 < 1  # stable setup
    theta = math.asin(tau * lam / 2)
    t = 5 * tau / 2  # k = 5 half-steps
    got = solve_kg(CauchyData.rest(pw), TimeModel.central_difference(tau), 1.0, t)
    assert relative_gap(got, pw * math.cos(5 * theta)) <= 1e-12
    got_v = solve_kg(CauchyData(LatticeField.zeros(grid), pw), TimeModel.central_difference(tau), 1.0, t)
    assert relative_gap(got_v, pw * (math.sin(5 * theta) / lam)) <= 1e-12


def test_time_parity(rng):
    grid = _grid1()
    f = random_field(grid, rng)
    for tm, t in ((TimeModel.continuous(), 0.7), (TimeModel.central_difference(0.25), 1.5)):
        even = solve_kg(CauchyData.rest(f), tm, 1.0, t)
        assert relative_gap(solve_kg(CauchyData.rest(f), tm, 1.0, -t), even) <= 1e-12
        odd = solve_kg(CauchyData(LatticeField.zeros(grid), f), tm, 1.0, t)
        assert relative_gap(solve_kg(CauchyData(LatticeField.zeros(grid), f), tm, 1.0, -t), -odd) <= 1e-12


def test_solve_kg_at_zero_returns_data(rng):
    grid = _grid1()
    f = random_field(grid, rng)
    data = CauchyData(f, random_field(grid, rng))
    for tm in (TimeModel.continuous(), TimeModel.central_difference(0.25)):
        assert relative_gap(solve_kg(data, tm, 0.7, 0.0), f) <= 1e-13


# -- kernel route (dual path) ------------------------------------------------------


@pytest.mark.parametrize("shape,h", [((16,), 0.5), ((8, 8), 0.7)])
def test_kernel_route_matches_spectral_route(rng, shape, h):
    grid = GridSpec(shape, h)
    data = CauchyData(random_field(grid, rng), random_field(grid, rng))
    for tm, t in ((TimeModel.continuous(), 0.8), (TimeModel.central_difference(0.2), 1.0)):
        a = solve_kg(data, tm, 1.0, t)
        b = solve_kg_by_kernels(data, tm, 1.0, t)
        assert relative_gap(b, a) <= 1e-10


def test_wave_kernels_at_time_zero():
    grid = _grid1(h=0.5)
    K0, K1 = wave_kernels(grid, TimeModel.continuous(), 1.0, 0.0)
    assert norm(K1) <= 1e-13
    want = np.zeros(grid.shape + (grid.blades,), dtype=complex)
    want[0, 0] = math.sqrt(2 * math.pi) / 0.5  # identity kernel: one spike at the origin
    assert np.max(np.abs(K0.values - want)) <= 1e-12


def test_kernels_are_even_in_space():
    grid = _grid1()
    K0, _ = wave_kernels(grid, TimeModel.continuous(), 1.0, 0.9)
    vals = K0.values[..., 0]
    assert np.max(np.abs(vals - np.roll(vals[::-1], 1))) <= 1e-12


# -- residuals and the brute-force march ------------------------------------------


def test_leapfrog_march_matches_solver(rng):
    grid = _grid1()
    tau = 0.2
    m = 1.0
    assert lambda_max(grid, m) < 2 / tau
    tm = TimeModel.central_difference(tau)
    data = CauchyData(random_field(grid, rng), random_field(grid, rng))
    prev = solve_kg(data, tm, m, -tau)
    cur = solve_kg(data, tm, m, 0.0)
    got = leapfrog_march(prev, cur, m, tau, 10)
    want = solve_kg(data, tm, m, 10 * tau)
    assert relative_gap(got, want) <= 1e-9


def test_kg_residual_on_solver_slices(rng):
    grid = _grid1()
    tau = 0.2
    tm = TimeModel.central_difference(tau)
    data = CauchyData(random_field(grid, rng), random_field(grid, rng))
    slices = [solve_kg(data, tm, 1.0, k * tau) for k in (2, 3, 4)]
    assert kg_residual(*slices, 1.0, tau) <= 1e-12


def test_kg_residual_zero_fields_is_zero():
    grid = _grid1(N=8)
    z = LatticeField.zeros(grid)
    assert kg_residual(z, z, z, 1.0, 0.5) == 0.0


def test_continuous_kg_residual_richardson(rng):
    grid = _grid1()
    data = CauchyData(random_field(grid, rng), random_field(grid, rng))
    extrap, order = continuous_kg_residual(data, 1.0, 0.6)
    assert extrap <= 1e-8
    assert 1.7 <= order <= 2.3


def test_leapfrog_rejects_negative_steps():
    grid = _grid1(N=8)
    z = LatticeField.zeros(grid)
    with pytest.raises(ValueError):
        leapfrog_march(z, z, 1.0, 0.5, -1)


# -- stability ---------------------------------------------------------------------


def test_cfl_violation_and_unstable_growth(rng):
    grid = _grid1(h=0.25)  # lambda_max ~ 8, bound 2/tau = 4
    tau = 0.5
    tm = TimeModel.central_difference(tau)
    data = CauchyData.rest(random_field(grid, rng))
    with pytest.raises(CflViolationError):
        solve_kg(data, tm, 1.0, tau)
    grown = solve_kg(data, tm, 1.0, 20 * tau, allow_unstable=True)
    assert norm(grown) > 1e3 * norm(data.phi0)


# -- Chebyshev route ----------------------------------------------------------------


def test_chebyshev_polynomials_match_trig():
    theta = np.linspace(0.1, 3.0, 17)
    x = np.cos(theta)
    for k in (0, 1, 2, 5, 11):
        assert np.max(np.abs(chebyshev_t(k, x) - np.cos(k * theta))) <= 1e-12
        assert np.max(np.abs(chebyshev_u(k - 1, x) - np.sin(k * theta) / np.sin(theta))) <= 1e-11


def test_chebyshev_degree_validation():
    with pytest.raises(ValueError):
        chebyshev_t(-1, np.array([0.5]))
    with pytest.raises(ValueError):
        chebyshev_u(-2, np.array([0.5]))


def test_chebyshev_solve_matches_central_solver(rng):
    grid = _grid1()
    tau = 0.2
    data = CauchyData(random_field(grid, rng), random_field(grid, rng))
    want = solve_kg(data, TimeModel.central_difference(tau), 1.0, 7 * tau / 2)
    got = chebyshev_solve(data, tau, 1.0, 7 * tau / 2)
    assert relative_gap(got, want) <= 1e-10


def test_chebyshev_solve_guards():
    grid = _grid1(N=8)
    data = CauchyData.rest(LatticeField.delta(grid))
    with pytest.raises(ValueError):
        chebyshev_solve(data, 0.2, 1.0, 0.03)  # off the half-step grid
    with pytest.raises(ValueError):
        chebyshev_solve(data, 0.2, 1.0, -0.2)  # this route is forward-only
    fine = GridSpec((8,), 0.25)
    with pytest.raises(CflViolationError):
        chebyshev_solve(CauchyData.rest(LatticeField.delta(fine)), 0.5, 1.0, 0.5)


# -- first-order flow ----------------------------------------------------------------


def test_dirac_data_velocity_is_symbol_action(rng):
    from latticewave import dirac_h_alpha

    grid = _grid1()
    f = random_field(grid, rng)
    data = dirac_data(f, 0.25, 0.8)
    gamma = pseudoscalar(grid.sig)
    want = (dirac_h_alpha(f, 0.25) - f.left_mul(gamma) * 0.8) * 1j
    assert relative_gap(data.phi1, want) <= 1e-12


def test_dirac_data_alpha_range():
    grid = _grid1(N=8)
    f = LatticeField.delta(grid)
    with pytest.raises(ValueError):
        dirac_data(f, 0.75, 1.0)
    with pytest.raises(ValueError):
        dirac_data(f, -0.1, 1.0)


def test_solve_dirac_constant_mode_closed_form():
    # on a constant field the momentum is zero, so the flow is a pure mass
    # rotation: Psi(t) = (cos(mt) - i sin(mt) gamma) Phi0
    grid = _grid1()
    m, t = 1.3, 0.7
    f = LatticeField.plane_wave(grid, (0,))
    gamma = pseudoscalar(grid.sig)
    got = solve_dirac(f, TimeModel.continuous(), 0.25, m, t)
    want = f * math.cos(m * t) - f.left_mul(gamma) * (1j * math.sin(m * t))
    assert relative_gap(got, want) <= 1e-12


def test_dirac_residual_on_half_step_slices(rng):
    grid = _grid1()
    tau = 0.2
    alpha, m = 0.25, 1.0
    tm = TimeModel.central_difference(tau)
    f = random_field(grid, rng)
    slices = [solve_dirac(f, tm, alpha, m, 3 * tau / 2 + d) for d in (-tau / 2, 0.0, tau / 2)]
    assert dirac_residual(slices[0], slices[1], slices[2], alpha, m, tau) <= 1e-12


def test_dirac_residual_zero_fields_is_zero():
    grid = _grid1(N=8)
    z = LatticeField.zeros(grid)
    assert dirac_residual(z, z, z, 0.25, 1.0, 0.5) == 0.0


def test_continuous_dirac_residual_richardson(rng):
    grid = _grid1()
    f = random_field(grid, rng)
    extrap, order = continuous_dirac_residual(f, 0.25, 1.0, 0.5)
    assert extrap <= 1e-8
    assert 1.7 <= order <= 2.3


def test_dirac_data_alpha_zero_matches_position_stencil(rng):
    # at alpha = 0 the momentum symbol coincides with the one-sided
    # position-space operator, so the derived velocity has a stencil twin
    from latticewave import dirac_kahler

    grid = _grid1()
    f = random_field(grid, rng)
    data = dirac_data(f, 0.0, 0.0)
    want = dirac_kahler(f) * 1j
    assert relative_gap(data.phi1, want) <= 1e-12
