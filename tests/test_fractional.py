"""Heat semigroup, Bessel/Mittag-Leffler special functions, fractional powers,
and the fractional Klein-Gordon route.  The heat multiplier is pinned against a
dense matrix exponential; every closed-form kernel has a second route."""

import math

import numpy as np
import pytest

from latticewave import (
    CauchyData,
    FracParams,
    GridSpec,
    LatticeField,
    TimeModel,
    bessel_i,
    convolve,
    dirac_data,
    discrete_laplacian,
    frac_power,
    fractional_kernels,
    heat_kernel_bessel,
    heat_kernel_spectral,
    heat_semigroup,
    kg_residual,
    mittag_leffler,
    multiplier_d2,
    p_t_operator,
    random_field,
    relative_gap,
    riesz,
    riesz_inverse,
    solve_kg,
    solve_kg_fractional,
)
from latticewave import oracles
from latticewave.lattice import norm


def _grid1(N=16, h=0.5):
    return GridSpec((N,), h)


# -- heat kernels: closed form vs spectral ----------------------------------------


@pytest.mark.parametrize("shape,h", [((16,), 0.5), ((8, 8), 0.7)])
@pytest.mark.parametrize("s", [0.1, 0.5, 2.0])
def test_heat_kernel_dual_routes_agree(shape, h, s):
    grid = GridSpec(shape, h)
    kb = heat_kernel_bessel(grid, s)
    ks = heat_kernel_spectral(grid, s)
    assert np.max(np.abs(kb.values - ks.values)) <= 1e-12


def test_heat_kernel_at_zero_is_identity():
    grid = _grid1(N=8)
    for K in (heat_kernel_bessel(grid, 0.0), heat_kernel_spectral(grid, 0.0)):
        want = np.zeros((8, 4), dtype=complex)
        want[0, 0] = 1.0 / 0.5  # h^-n spike
        assert np.max(np.abs(K.values - want)) <= 1e-12


def test_heat_kernel_is_positive_and_real():
    grid = _grid1()
    K = heat_kernel_bessel(grid, 0.7)
    assert np.max(np.abs(K.values[..., 1:])) == 0.0
    vals = K.values[..., 0]
    assert np.max(np.abs(vals.imag)) <= 1e-16
    assert np.min(vals.real) > 0.0


def test_heat_kernel_convolution_is_semigroup(rng):
    grid = _grid1()
    f = random_field(grid, rng)
    s = 0.4
    got = convolve(heat_kernel_spectral(grid, s), f)
    assert relative_gap(got, heat_semigroup(f, s)) <= 1e-12


def test_heat_rejects_negative_time():
    grid = _grid1(N=8)
    f = LatticeField.delta(grid)
    with pytest.raises(ValueError):
        heat_semigroup(f, -0.1)
    with pytest.raises(ValueError):
        heat_kernel_spectral(grid, -0.1)
    with pytest.raises(ValueError):
        heat_kernel_bessel(grid, -0.1)


def test_heat_kernel_bessel_agrees_with_spectral_past_the_old_cap():
    # u = 2s/h^2 = 700 -+ 1e-9 and 4000 on the recurrence; 20000 is past the flat limit of N = 16,
    # where u stops at about 562; 1e6 runs the recurrence over some 11,000 orders
    for grid, s in (
        (GridSpec((64,), 0.5), 87.5 - 1.25e-10),
        (GridSpec((64,), 0.5), 87.5 + 1.25e-10),
        (GridSpec((64,), 0.05), 5.0),
        (GridSpec((8, 16), 0.05), 5.0),
        (_grid1(h=0.01), 1.0),
        (GridSpec((1024,), 0.05), 1250.0),
    ):
        kb, ks = heat_kernel_bessel(grid, s), heat_kernel_spectral(grid, s)
        peak = np.max(np.abs(ks.values))
        assert np.max(np.abs(kb.values - ks.values)) <= 1e-10 * peak, (grid, s)


def test_heat_kernel_bessel_at_a_huge_time_is_flat():
    # 2s/h^2 overflows to inf; the kernel is the uniform 1/(N h)^n to rounding
    for grid in (_grid1(N=8), GridSpec((4, 6), 0.3)):
        K = heat_kernel_bessel(grid, 1e307).values[..., 0]
        want = 1.0 / (grid.site_count * grid.h**grid.n)
        assert np.max(np.abs(K - want)) <= 4e-16 * want


# -- heat semigroup vs dense matrix exponential ------------------------------------


def test_heat_semigroup_matches_matrix_exponential(rng):
    # independent oracle: assemble the Laplacian as a dense matrix from the
    # position stencil, exponentiate by eigendecomposition, compare
    N, h, s = 6, 0.8, 0.7
    grid = GridSpec((N,), h)
    L = np.empty((N, N))
    for j in range(N):
        basis = np.zeros((N, grid.blades), dtype=complex)
        basis[j, 0] = 1.0
        L[:, j] = discrete_laplacian(LatticeField(grid, basis)).values[:, 0].real
    assert np.max(np.abs(L - L.T)) == 0.0
    w, V = np.linalg.eigh(L)
    x = rng.standard_normal(N)
    want = V @ (np.exp(s * w) * (V.T @ x))
    f = LatticeField.from_scalar(grid, x.astype(complex))
    got = heat_semigroup(f, s).values[:, 0]
    assert np.max(np.abs(got - want)) <= 1e-12


def test_heat_semigroup_properties(rng):
    grid = _grid1()
    f = random_field(grid, rng)
    a = heat_semigroup(heat_semigroup(f, 0.3), 0.5)
    b = heat_semigroup(f, 0.8)
    assert relative_gap(a, b) <= 1e-12
    assert relative_gap(heat_semigroup(f, 0.0), f) <= 1e-13
    # the zero mode (total mass per blade) is conserved
    before = f.values.sum(axis=0)
    after = heat_semigroup(f, 1.7).values.sum(axis=0)
    assert np.max(np.abs(after - before)) <= 1e-12 * max(1.0, np.max(np.abs(before)))


def test_explicit_euler_converges_first_order(rng):
    grid = _grid1(N=8)
    f = random_field(grid, rng, scalar=True)
    s = 0.3
    want = heat_semigroup(f, s)

    def euler_error(K: int) -> float:
        delta = s / K
        cur = f
        for _ in range(K):
            cur = cur + delta * discrete_laplacian(cur)
        return relative_gap(cur, want)

    e64, e128 = euler_error(64), euler_error(128)
    assert 1.8 <= e64 / e128 <= 2.2


# -- special functions --------------------------------------------------------------


def test_bessel_matches_integral_representation():
    theta = np.linspace(0.0, math.pi, 20001)
    for u in (0.5, 2.5, 10.0):
        for k in (0, 1, 3):
            quad = np.trapezoid(np.exp(u * np.cos(theta)) * np.cos(k * theta), theta) / math.pi
            assert abs(bessel_i(k, u) - quad) <= 1e-10 * abs(quad)


def test_bessel_recurrence_and_symmetry():
    # the recurrence's own relation: a consistency check, not an oracle (the quadrature above is one)
    for u in (0.3, 4.0, 50.0):
        for k in (1, 2, 5):
            lhs = bessel_i(k - 1, u) - bessel_i(k + 1, u)
            rhs = 2.0 * k / u * bessel_i(k, u)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
    assert bessel_i(-3, 1.7) == bessel_i(3, 1.7)


def test_bessel_edge_cases():
    assert bessel_i(0, 0.0) == 1.0
    assert bessel_i(2, 0.0) == 0.0
    assert bessel_i(300, 0.1) == 0.0  # true value far below double precision
    with pytest.raises(ValueError):
        bessel_i(0, -1.0)
    # finite up to the u where e^u overflows, about 709.78, and a named error past it
    theta = np.linspace(0.0, math.pi, 20001)
    for u in (700.5, 709.0):
        quad = np.trapezoid(np.exp(u * (np.cos(theta) - 1.0)) * np.cos(2.0 * theta), theta) / math.pi
        assert abs(bessel_i(2, u) * math.exp(-u) - quad) <= 1e-10 * quad
    for k, u in ((0, 710.0), (5, 1e6)):
        with pytest.raises(ValueError, match=r"Bessel I_\d+\(u\) overflows at u = "):
            bessel_i(k, u)


def test_bessel_i_past_the_reach_of_its_order_returns_at_once():
    # past u + 1100 the scaled value is below 2^-1100: no recurrence of 10^12 orders runs
    assert bessel_i(10**12, 1.0) == 0.0
    assert bessel_i(-(10**12), 709.0) == 0.0
    # I_1200(709) = 2.5e-73, but e^-709 of it underflows: bessel_i is e^u times the scaled value
    assert bessel_i(1809, 709.0) == 0.0 and bessel_i(1200, 709.0) == 0.0
    assert bessel_i(1000, 709.0) == pytest.approx(3.8394119e33, rel=1e-7)  # mpmath's besseli(1000, 709)


# -- the recurrence against the power series it replaced --------------------------------


def _ref_bessel_i(k, u):
    k = abs(int(k))
    u = float(u)
    if u == 0.0:
        return 1.0 if k == 0 else 0.0
    half = u / 2.0
    lead = k * math.log(half) - math.lgamma(k + 1)
    if lead < -745.0:
        return 0.0
    term = math.exp(lead)
    acc = term
    h2 = half * half
    for j in range(1, 20000):
        term *= h2 / (j * (j + k))
        acc += term
        if term <= acc * 1e-17:
            return acc
    raise RuntimeError("Bessel series failed to converge")


def _ref_periodized_bessel(N, u):
    out = np.empty(N)
    for x in range(N):
        acc = _ref_bessel_i(x, u)
        w = 1
        while True:
            ring = _ref_bessel_i(x + w * N, u) + _ref_bessel_i(x - w * N, u)
            acc += ring
            if ring < 1e-16 * max(acc, 1e-300):
                break
            w += 1
        out[x] = acc
    return out


BESSEL_US = [0.0, 1e-300, 1e-9] + [float(u) for u in np.linspace(25.0, 700.0, 10)]


# The series references are e^-u times the true values to about 1e-16 relative
# for u <= 700.  Measured gaps on the scaled values, before the bounds were set:
# periodized lines 4.9e-15 at N = 2, 1.4e-15 at N = 8, below 4e-16 at N >= 64
# (against the spectral sum, the recurrence's own gap at N = 2 is 3.3e-16: the
# reference's rings carry the larger error); single orders 1.2e-16.


@pytest.mark.parametrize("N", [2, 8, 64, 256])
def test_periodized_bessel_matches_the_scalar_loop(N):
    for u in BESSEL_US:
        line = heat_kernel_bessel(GridSpec((N,), 1.0), u / 2.0).values[:, 0]  # h = 1: the line itself
        assert np.max(np.abs(line - math.exp(-u) * _ref_periodized_bessel(N, u))) <= 1e-14, u


def test_bessel_i_matches_the_scalar_loop():
    # negative orders, and orders whose leading term underflows (lead < -745)
    orders = [-300, -7, -1, 0, 1, 2, 5, 37, 255, 300, 400, 900, 2000, 5000]
    for u in BESSEL_US:
        gaps = [abs(bessel_i(k, u) - _ref_bessel_i(k, u)) * math.exp(-u) for k in orders]
        assert max(gaps) <= 5e-16, u
    assert _ref_bessel_i(400, 25.0) == 0.0 and _ref_bessel_i(2, 1e-300) == 0.0  # the underflow rule is exercised


# -- non-finite heat times and Bessel arguments ---------------------------------------

NON_FINITE_CALLS = {
    "heat_semigroup": (lambda v: heat_semigroup(LatticeField.delta(_grid1(N=8)), v), "heat time s must be finite"),
    "heat_kernel_spectral": (lambda v: heat_kernel_spectral(_grid1(N=8), v), "heat time s must be finite"),
    "heat_kernel_bessel": (lambda v: heat_kernel_bessel(_grid1(N=8), v), "heat time s must be finite"),
    "bessel_i": (lambda v: bessel_i(0, v), "Bessel argument u must be finite"),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", list(NON_FINITE_CALLS))
def test_non_finite_argument_is_rejected(name, value):
    call, message = NON_FINITE_CALLS[name]
    with pytest.raises(ValueError, match=message):
        call(value)


@pytest.mark.parametrize("z", [math.nan, complex(0.5, math.nan), math.inf, complex(0.0, -math.inf)],
                         ids=["nan", "nan-imag", "inf", "-inf-imag"])
def test_mittag_leffler_rejects_non_finite_argument(z):
    with pytest.raises(ValueError, match="z must be finite"):
        mittag_leffler(0.5, 1.0, z)


@pytest.mark.parametrize("m", [math.inf, math.nan])
def test_frac_params_reject_non_finite_mass(m):
    with pytest.raises(ValueError, match="mass must be positive and finite"):
        FracParams(0.25, m)


def test_mittag_leffler_classical_identities():
    for z in (0.5, -2.0, 3.0j, 1.0 - 1.0j):
        assert abs(mittag_leffler(1.0, 1.0, z) - np.exp(z)) <= 1e-13 * abs(np.exp(z))
    x = 1.3
    assert mittag_leffler(2.0, 1.0, x**2) == pytest.approx(math.cosh(x), rel=1e-13)
    assert mittag_leffler(2.0, 2.0, x**2) == pytest.approx(math.sinh(x) / x, rel=1e-13)
    z = 0.7
    assert mittag_leffler(1.0, 2.0, z) == pytest.approx((math.exp(z) - 1.0) / z, rel=1e-13)
    u = 0.4
    assert mittag_leffler(0.5, 1.0, u) == pytest.approx(math.exp(u * u) * math.erfc(-u), rel=1e-12)


def test_mittag_leffler_guards():
    with pytest.raises(ValueError):
        mittag_leffler(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        mittag_leffler(1.0, -1.0, 0.5)
    with pytest.raises(ValueError):
        mittag_leffler(1.0, 1.0, 40.0)  # outside the series domain guard
    with pytest.raises(ValueError):
        mittag_leffler(1.0, 1.0, -25.0)  # refuses to return cancellation noise


def test_mittag_leffler_refuses_a_term_that_overflows():
    with pytest.raises(ValueError, match="Mittag-Leffler series term overflow"):
        mittag_leffler(0.01, 1.0, 30.0)


def test_mittag_leffler_refuses_a_series_that_does_not_settle():
    with pytest.raises(ValueError, match="Mittag-Leffler series did not converge within 2000 terms"):
        mittag_leffler(0.001, 1.0, 0.99)


# -- fractional powers ---------------------------------------------------------------


def test_frac_params_validation():
    FracParams(0.25, 1.0)
    for alpha in (0.0, 0.5, 0.6, -0.1):
        with pytest.raises(ValueError):
            FracParams(alpha, 1.0)
    with pytest.raises(ValueError):
        FracParams(0.25, 0.0)


def test_frac_power_spectral_plane_wave_eigenvalue():
    grid = _grid1()
    pw = LatticeField.plane_wave(grid, (2,))
    xi = 2 * math.pi * 2 / (16 * 0.5)
    mu = (multiplier_d2(xi, 0.5) + 1.0) ** (-0.25)
    p = FracParams(0.25, 1.0)
    assert relative_gap(frac_power(pw, p), pw * mu) <= 1e-13


def test_frac_power_mode_validation(rng):
    grid = _grid1(N=8)
    f = random_field(grid, rng)
    with pytest.raises(ValueError):
        frac_power(f, FracParams(0.25, 1.0), mode="magic")


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4])
def test_subordination_quadrature_matches_spectral(rng, alpha):
    grid = _grid1()
    f = random_field(grid, rng)
    p = FracParams(alpha, 1.0)
    got = frac_power(f, p, mode="subordination")
    want = frac_power(f, p, mode="spectral")
    assert relative_gap(got, want) <= 1e-6


def test_subordination_quadrature_2d(rng):
    grid = GridSpec((8, 8), 0.7)
    f = random_field(grid, rng)
    p = FracParams(0.25, 1.0)
    got = frac_power(f, p, mode="subordination")
    want = frac_power(f, p, mode="spectral")
    assert relative_gap(got, want) <= 1e-6


def test_empty_quadrature_window_names_mass_and_alpha():
    # a mass this large puts the head bound t0 past the cutoff 40/m^2
    f = LatticeField.delta(_grid1())
    with pytest.raises(ValueError, match=r"quadrature window is empty at m = 1e\+16, alpha = 0.45"):
        frac_power(f, FracParams(0.45, 1e16), "subordination")


def test_riesz_round_trips(rng):
    grid = _grid1()
    f = random_field(grid, rng)
    p = FracParams(0.25, 1.0)
    assert relative_gap(riesz_inverse(riesz(f, p), p), f) <= 1e-9
    assert relative_gap(riesz(riesz_inverse(f, p), p), f) <= 1e-9


def test_riesz_squared_is_power_multiplier():
    # (D - m gamma)^2 = d^2 + m^2 turns two riesz applications into a plain power
    grid = _grid1()
    pw = LatticeField.plane_wave(grid, (3,))
    xi = 2 * math.pi * 3 / (16 * 0.5)
    p = FracParams(0.2, 1.0)
    mu = (multiplier_d2(xi, 0.5) + 1.0) ** (1.0 - 2 * p.alpha)
    assert relative_gap(riesz(riesz(pw, p), p), pw * mu) <= 1e-12


# -- fractional Klein-Gordon ----------------------------------------------------------


@pytest.mark.parametrize("make_tm,t", [(TimeModel.continuous, 0.8),
                                       (lambda: TimeModel.central_difference(0.2), 1.0)])
def test_fractional_route_reproduces_plain_solver(rng, make_tm, t):
    grid = _grid1()
    tm = make_tm()
    data = CauchyData(random_field(grid, rng), random_field(grid, rng))
    p = FracParams(0.25, 1.0)
    want = solve_kg(data, tm, p.m, t)
    got = solve_kg_fractional(data, tm, p, t)
    assert relative_gap(got, want) <= 1e-9


def test_fractional_kernels_at_zero(rng):
    grid = _grid1()
    p = FracParams(0.25, 1.0)
    _, K1a = fractional_kernels(grid, TimeModel.continuous(), p, 0.0)
    assert norm(K1a) <= 1e-13


def test_p_t_splits_into_wave_solutions(rng):
    grid = _grid1()
    p = FracParams(0.25, 1.0)
    tm = TimeModel.continuous()
    phi = random_field(grid, rng)
    t = 0.6
    plus = p_t_operator(phi, tm, p, t)
    minus = p_t_operator(phi, tm, p, -t)
    even = (plus + minus) * 0.5
    odd = (plus - minus) * 0.5
    assert relative_gap(even, solve_kg(CauchyData.rest(phi), tm, p.m, t)) <= 1e-12
    vel = dirac_data(phi, p.alpha, p.m).phi1
    assert relative_gap(odd, solve_kg(CauchyData(LatticeField.zeros(grid), vel), tm, p.m, t)) <= 1e-12
    assert relative_gap(p_t_operator(phi, tm, p, 0.0), phi) <= 1e-13


def test_p_t_slices_solve_the_wave_equation(rng):
    grid = _grid1()
    p = FracParams(0.25, 1.0)
    tau = 0.2
    tm = TimeModel.central_difference(tau)
    phi = random_field(grid, rng)
    slices = [p_t_operator(phi, tm, p, k * tau) for k in (1, 2, 3)]
    assert kg_residual(*slices, p.m, tau) <= 1e-11


@pytest.mark.parametrize("steps", [0, -1])
def test_heat_euler_needs_a_step(steps):
    with pytest.raises(ValueError, match=f"steps must be at least 1, got {steps}"):
        oracles.heat_euler(LatticeField.delta(GridSpec((4,), 1.0)), 0.5, steps)
