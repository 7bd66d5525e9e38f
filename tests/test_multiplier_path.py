"""The shared spectral multiplier path, pinned bit for bit.

Every public function that transforms, multiplies by a momentum-space symbol
and transforms back goes through ``spectral.multiply_field``,
``spectral.apply_multiplier``, ``spectral.dirac_symbol`` or
``spectral.scalar_kernel``.  The ``_ref_*`` functions below spell each of
them out by hand, the way each function used to do it, and the tests demand
identical bytes (``tobytes()``, so even the sign of a zero counts) on 1D-3D
grids, for real scalar, random scalar-only and random all-blade fields.

Subordination is the exception: its reference sums the quadrature weights on
the symbol, as the function now does, and ``_per_node_subordination`` keeps
the per-node rule it replaced, which the new one must match to 1e-14.
"""

import math

import numpy as np
import pytest

import latticewave.spectral as spectral
from latticewave import (
    CauchyData,
    FracParams,
    GridSpec,
    LatticeField,
    TimeModel,
    dirac_data,
    dirac_h_alpha,
    dirac_residual,
    factorization_check,
    frac_power,
    fractional_kernels,
    heat_kernel_spectral,
    heat_semigroup,
    p_t_operator,
    random_field,
    riesz,
    riesz_inverse,
    solve_dirac,
    solve_kg,
    wave_kernels,
)
from latticewave.clifford import mul_arrays, pseudoscalar
from latticewave.fractional import SUBORDINATION_DECAY, SUBORDINATION_HEAD_TOL, SUBORDINATION_NODES
from latticewave.lattice import discrete_laplacian, norm, relative_gap
from latticewave.propagators import continuous_dirac_residual, continuous_kg_residual, lambda_field, lambda_max
from latticewave.spectral import SpectralField, apply_multiplier, d2_field, dft, idft, z_field

GRIDS = [GridSpec((8,), 0.7, 0.25, 0.9), GridSpec((6, 4), 0.5, 0.1, 1.3), GridSpec((4, 4, 4), 0.8, 0.5, 0.6)]
KINDS = ("real-scalar", "scalar", "all-blades")
CASES = [(grid, kind) for grid in GRIDS for kind in KINDS]
IDS = [f"{grid.n}d-{kind}" for grid, kind in CASES]
PARAMS = FracParams(0.3, 1.1)
CENTRAL = TimeModel.central_difference(0.3)


@pytest.fixture(params=CASES, ids=IDS)
def field(request):
    grid, kind = request.param
    if kind == "real-scalar":
        # real data: exact zeros in the imaginary parts, where the sign of a zero shows
        return LatticeField.gaussian(grid, 1.5)
    return random_field(grid, np.random.default_rng(97 + grid.n), scalar=kind == "scalar")


def _same(got, want):
    got = got.values if isinstance(got, LatticeField) else np.asarray(got)
    want = want.values if isinstance(want, LatticeField) else np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# -- references: the hand-written transform-multiply-invert of each function --


def _ref_dirac_symbol(grid, alpha, m):
    gam = pseudoscalar(grid.sig).coeffs
    return z_field(grid, alpha) - float(m) * gam


def _ref_dirac_velocity(f, alpha, m):
    grid = f.grid
    F = dft(f)
    return idft(SpectralField(grid, 1j * mul_arrays(grid.n, _ref_dirac_symbol(grid, alpha, m), F.values)))


def _ref_heat_semigroup(f, s):
    mult = np.exp(-s * d2_field(f.grid))
    F = dft(f)
    return idft(SpectralField(f.grid, F.values * mult[..., None]))


def _ref_power(grid, m, exponent):
    return (d2_field(grid) + float(m) ** 2) ** exponent


def _ref_frac_power_spectral(f, p):
    mult = _ref_power(f.grid, p.m, -p.alpha)
    F = dft(f)
    return idft(SpectralField(f.grid, F.values * mult[..., None]))


def _subordination_window(f, p):
    alpha, m = p.alpha, p.m
    gamma_a = math.gamma(alpha)
    lam4 = lambda_max(f.grid, m) ** 4
    t0 = (SUBORDINATION_HEAD_TOL * 2.0 * (2.0 + alpha) * gamma_a / lam4) ** (1.0 / (2.0 + alpha))
    lo, hi = math.log(t0), math.log(SUBORDINATION_DECAY / m**2)
    return gamma_a, t0, lo, hi, np.linspace(lo, hi, SUBORDINATION_NODES)


def _subordination_head(f, p, t0):
    alpha, m = p.alpha, p.m
    return (t0**alpha / alpha) * f + (t0 ** (1.0 + alpha) / (1.0 + alpha)) * (discrete_laplacian(f) - m * m * f)


def _ref_frac_power_subordination(f, p):
    # the trapezoid weights summed on the momentum grid, applied by one transform pair
    alpha, m = p.alpha, p.m
    gamma_a, t0, lo, hi, u = _subordination_window(f, p)
    du = u[1] - u[0]
    d2 = d2_field(f.grid)

    def weight(uv):
        t = math.exp(uv)
        return (t**alpha * math.exp(-t * m * m)) * np.exp(-t * d2)

    def weight_prime(uv):
        t = math.exp(uv)
        return (alpha - t * (d2 + m * m)) * weight(uv)

    acc = 0.5 * (weight(u[0]) + weight(u[-1]))
    for uv in u[1:-1]:
        acc += weight(float(uv))
    q = du * acc - du * du / 12.0 * (weight_prime(hi) - weight_prime(lo))
    total = idft(SpectralField(f.grid, dft(f).values * q[..., None]))
    return (1.0 / gamma_a) * (total + _subordination_head(f, p, t0))


def _per_node_subordination(f, p):
    # the rule as it was first written: one heat semigroup per node, in position space
    alpha, m = p.alpha, p.m
    gamma_a, t0, lo, hi, u = _subordination_window(f, p)
    du = u[1] - u[0]

    def g(uv):
        t = math.exp(uv)
        return (t**alpha * math.exp(-t * m * m)) * _ref_heat_semigroup(f, t)

    def g_prime(uv, gv):
        t = math.exp(uv)
        return alpha * gv + t * (discrete_laplacian(gv) - m * m * gv)

    g_lo = g(u[0])
    g_hi = g(u[-1])
    acc = 0.5 * (g_lo + g_hi)
    for uv in u[1:-1]:
        acc = acc + g(float(uv))
    total = du * acc
    total = total - du * du / 12.0 * (g_prime(hi, g_hi) - g_prime(lo, g_lo))
    return (1.0 / gamma_a) * (total + _subordination_head(f, p, t0))


def _ref_riesz_like(f, p, exponent):
    grid = f.grid
    gam = pseudoscalar(grid.sig).coeffs
    zm = z_field(grid, p.alpha) - p.m * gam
    mult = zm * _ref_power(grid, p.m, exponent)[..., None]
    F = dft(f)
    return idft(SpectralField(grid, mul_arrays(grid.n, mult, F.values)))


def _ref_p_t_operator(phi, time, p, t):
    grid = phi.grid
    gam = pseudoscalar(grid.sig).coeffs
    zm = z_field(grid, p.alpha) - p.m * gam
    c, s = time.multipliers(lambda_field(grid, p.m), t)
    F = dft(phi)
    vals = c[..., None] * F.values + 1j * s[..., None] * mul_arrays(grid.n, zm, F.values)
    return idft(SpectralField(grid, vals))


def _ref_scalar_kernels(grid, c, s):
    K0 = np.zeros(grid.shape + (grid.blades,), dtype=complex)
    K1 = np.zeros_like(K0)
    K0[..., 0] = c
    K1[..., 0] = s
    return idft(SpectralField(grid, K0)), idft(SpectralField(grid, K1))


def _ref_heat_kernel_spectral(grid, s):
    mult = np.exp(-s * d2_field(grid))
    e = np.zeros((grid.blades,), dtype=complex)
    e[0] = 1.0
    K = idft(SpectralField(grid, mult[..., None] * e))
    return (2.0 * np.pi) ** (-grid.n / 2.0) * K


def _ref_factorization_check(f, alpha, m):
    g = f.grid
    zm = _ref_dirac_symbol(g, alpha, m)
    twice = mul_arrays(g.n, zm, mul_arrays(g.n, zm, dft(f).values))
    lhs = idft(SpectralField(g, twice))
    rhs = -discrete_laplacian(f) + (m * m) * f
    scale = norm(f)
    return norm(lhs - rhs) / scale if scale > 1e-300 else norm(lhs - rhs)


def _ref_richardson(at, mid, rhs, t, second_order):
    delta = 1e-3 * max(1.0, abs(t))
    scale = max(norm(rhs), norm(mid), 1e-300)

    def resid(d):
        plus, minus = at(t + d), at(t - d)
        if second_order:
            quot = (plus - 2.0 * mid + minus) * (1.0 / d**2)
        else:
            quot = (plus - minus) * (1.0 / (2.0 * d))
        return norm(quot - rhs) / scale

    r1 = resid(delta)
    r2 = resid(delta / 2.0)
    order = np.log2(r1 / r2) if r2 > 0 else np.inf
    return abs(4.0 * r2 - r1) / 3.0, float(order)


# -- the merged path against the references ------------------------------------


def test_dirac_symbol(field):
    _same(spectral.dirac_symbol(field.grid, 0.2, 0.9), _ref_dirac_symbol(field.grid, 0.2, 0.9))


def test_heat_semigroup(field):
    _same(heat_semigroup(field, 0.37), _ref_heat_semigroup(field, 0.37))


def test_frac_power_spectral(field):
    _same(frac_power(field, PARAMS, "spectral"), _ref_frac_power_spectral(field, PARAMS))


def test_frac_power_subordination(field):
    _same(frac_power(field, PARAMS, "subordination"), _ref_frac_power_subordination(field, PARAMS))


def test_symbol_side_subordination_matches_per_node_rule(field):
    got = frac_power(field, PARAMS, "subordination")
    assert relative_gap(got, _per_node_subordination(field, PARAMS)) <= 1e-14


def test_riesz_and_inverse(field):
    _same(riesz(field, PARAMS), _ref_riesz_like(field, PARAMS, -PARAMS.alpha))
    _same(riesz_inverse(field, PARAMS), _ref_riesz_like(field, PARAMS, PARAMS.alpha - 1.0))


@pytest.mark.parametrize("time, t", [(CENTRAL, 0.6), (TimeModel.continuous(), 0.45)])
def test_p_t_operator(field, time, t):
    _same(p_t_operator(field, time, PARAMS, t), _ref_p_t_operator(field, time, PARAMS, t))


def test_dirac_data_velocity(field):
    _same(dirac_data(field, 0.2, 0.9).phi1, _ref_dirac_velocity(field, 0.2, 0.9))


def test_dirac_residual(field):
    psi = [solve_dirac(field, CENTRAL, 0.2, 0.9, t) for t in (0.45, 0.6, 0.75)]
    quot = (psi[2] - psi[0]) * (1.0 / 0.3)
    rhs = _ref_dirac_velocity(psi[1], 0.2, 0.9)
    want = norm(quot - rhs) / max(norm(quot), norm(rhs))
    _same(np.float64(dirac_residual(*psi, 0.2, 0.9, 0.3)), np.float64(want))


def test_continuous_kg_residual(field):
    data = CauchyData(field, random_field(field.grid, np.random.default_rng(5), scalar=True))
    time = TimeModel.continuous()
    mid = solve_kg(data, time, 0.9, 0.8)
    rhs = discrete_laplacian(mid) - 0.81 * mid
    want = _ref_richardson(lambda tt: solve_kg(data, time, 0.9, tt), mid, rhs, 0.8, True)
    _same(np.array(continuous_kg_residual(data, 0.9, 0.8)), np.array(want))


def test_continuous_dirac_residual(field):
    time = TimeModel.continuous()

    def at(tt):
        return solve_dirac(field, time, 0.2, 0.9, tt)

    mid = at(0.8)
    want = _ref_richardson(at, mid, _ref_dirac_velocity(mid, 0.2, 0.9), 0.8, False)
    _same(np.array(continuous_dirac_residual(field, 0.2, 0.9, 0.8)), np.array(want))


@pytest.mark.parametrize("time, t", [(CENTRAL, 0.6), (TimeModel.continuous(), 0.45)])
def test_wave_and_fractional_kernels(field, time, t):
    grid = field.grid
    c, s = time.multipliers(lambda_field(grid, 0.9), t)
    for got, want in zip(wave_kernels(grid, time, 0.9, t), _ref_scalar_kernels(grid, c, s)):
        _same(got, want)
    c, s = time.multipliers(lambda_field(grid, PARAMS.m), t)
    boost = _ref_power(grid, PARAMS.m, PARAMS.alpha)
    for got, want in zip(fractional_kernels(grid, time, PARAMS, t), _ref_scalar_kernels(grid, boost * c, boost * s)):
        _same(got, want)


def test_heat_kernel_spectral(field):
    for s in (0.0, 0.4, 3.0):
        _same(heat_kernel_spectral(field.grid, s), _ref_heat_kernel_spectral(field.grid, s))


def test_factorization_check(field):
    # both sides are norm quotients, and norm's summation order follows each field's own support
    for alpha, m in ((0.0, 0.0), (0.2, 0.9), (0.5, 1.7)):
        np.testing.assert_array_max_ulp(factorization_check(field, alpha, m),
                                        _ref_factorization_check(field, alpha, m), maxulp=2)


def test_dirac_h_alpha(field):
    for alpha in (None, 0.0, 0.4):
        a = field.grid.alpha if alpha is None else alpha
        _same(dirac_h_alpha(field, alpha), idft(apply_multiplier(dft(field), z_field(field.grid, a))))


def test_multiply_field_applies_multipliers_in_order(field):
    zm = spectral.dirac_symbol(field.grid, 0.2, 0.9)
    power = _ref_power(field.grid, 0.9, -0.3)
    want = idft(apply_multiplier(apply_multiplier(dft(field), zm), power))
    _same(spectral.multiply_field(field, zm, power), want)
    _same(spectral.multiply_field(field), idft(dft(field)))


# -- transform counts -------------------------------------------------------------


def test_subordination_transforms_its_field_once(transforms):
    f = random_field(GridSpec((4, 4), 0.8), np.random.default_rng(3))
    frac_power(f, FracParams(0.25, 1.0), "subordination")
    assert transforms == {"dft": 1, "idft": 1}

