"""Independent twins of the closed forms, for ``latticewave selftest`` and the test suite.

Each twin computes what a closed form computes, by another route: dense DFT
sums, the quadratic convolution sum, the momentum-space pairing, the
leapfrog and Euler marches, the Chebyshev recurrence, the kernel
convolution, exact polynomial shifts, the truncated generating series and a
Bessel quadrature.  A twin never calls the code it checks:
``tests/test_oracle_independence.py`` holds each to its row of the oracle
table by a call trace and by reading this source.  Only ``latticewave`` and
``selftest`` import this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .clifford import Multivector, _finite, _integer, _positive, dagger_arrays, mul_arrays
from .fractional import _heat_time
from .lattice import GridSpec, LatticeField, align, discrete_laplacian, norm
from .propagators import CauchyData, TimeModel, _convolve_pair, wave_kernels
from .spectral import SpectralField, _dirac_symbol, d2_field, dft, idft, multiply_field
from .umbral import CflViolationError, DeltaOperator, _F0, _finite_egf_input, _poly, basic_sequence, poly_eval

__all__ = [
    "dft_direct",
    "idft_direct",
    "convolve_direct",
    "momentum_weight",
    "momentum_pairing",
    "factorization_check",
    "solve_kg_by_kernels",
    "chebyshev_t",
    "chebyshev_u",
    "chebyshev_solve",
    "leapfrog_march",
    "heat_euler",
    "poly_shift",
    "difference_quotient",
    "egf_series_eval",
]


def _fourier_matrix(N: int, sign: float) -> np.ndarray:
    a = np.arange(N)
    return np.exp(sign * 2j * np.pi * np.outer(a, a) / N)


def _apply_axis_matrices(values: np.ndarray, grid: GridSpec, sign: float) -> np.ndarray:
    # direct per-axis summation; quadratic per axis, reference path
    out = values.astype(complex)
    for axis in range(grid.n):
        M = _fourier_matrix(grid.shape[axis], sign)
        out = np.moveaxis(np.tensordot(M, out, axes=([1], [axis])), 0, axis)
    return out


def dft_direct(f: LatticeField) -> SpectralField:
    """Definitional per-axis summation of the forward transform."""
    g = f.grid
    scale = g.h**g.n / (2.0 * np.pi) ** (g.n / 2.0)
    return SpectralField(g, _apply_axis_matrices(f.values, g, +1.0) * scale)


def idft_direct(F: SpectralField) -> LatticeField:
    """Definitional per-axis summation of the inverse transform."""
    g = F.grid
    scale = (2.0 * np.pi) ** (g.n / 2.0) / (g.site_count * g.h**g.n)
    return LatticeField(g, _apply_axis_matrices(F.values, g, -1.0) * scale)


def convolve_direct(f: LatticeField, g: LatticeField) -> LatticeField:
    """Quadratic-cost reference evaluation of the same convolution sum."""
    f._check(g)
    gr = f.grid
    n = gr.n
    hn = gr.h**n
    out = np.zeros_like(f.values)
    for x in np.ndindex(*gr.shape):
        # f(y - x) as a field over y is f rolled forward by x
        fyx = np.roll(f.values, shift=x, axis=tuple(range(n)))
        prod = mul_arrays(n, g.values, fyx)
        out[x] = hn * prod.reshape(-1, gr.blades).sum(axis=0)
    return LatticeField(gr, out)


def momentum_weight(grid: GridSpec) -> float:
    """Riemann weight per momentum point, (2 pi / (N h))**n."""
    w = 1.0
    for N in grid.shape:
        w *= 2.0 * np.pi / (N * grid.h)
    return w


def momentum_pairing(F: SpectralField, G: SpectralField) -> Multivector:
    """sum_xi w F(xi)^† G(xi); equals the position-space inner product."""
    if F.grid != G.grid:
        raise ValueError("grid mismatch")
    n = F.grid.n
    prod = mul_arrays(n, dagger_arrays(n, F.values), G.values)
    total = prod.reshape(-1, F.grid.blades).sum(axis=0) * momentum_weight(F.grid)
    return Multivector(F.grid.sig, total)


def factorization_check(f: LatticeField, alpha: float, m: float) -> float:
    """Relative residual of (D - m gamma)**2 f = (-Laplacian + m**2) f.

    The squared operator is applied through momentum multipliers while the
    right-hand side uses the position-space stencil.
    """
    zm = _dirac_symbol(f.grid, alpha, m)
    lhs = multiply_field(f, zm, zm)
    rhs = -discrete_laplacian(f) + (m * m) * f
    scale = norm(f)
    return norm(lhs - rhs) / scale if scale > 1e-300 else norm(lhs - rhs)


def solve_kg_by_kernels(data: CauchyData, time: TimeModel, m: float, t: float) -> LatticeField:
    """Kernel-convolution route to solve_kg (cross-validation path).

    (2 pi)^(-n/2) [ K0 * Phi0 + K1 * Phi1 ] with * the h^n-weighted discrete
    convolution; the prefactor undoes the grid convolution theorem's
    (2 pi)^(n/2).
    """
    K0, K1 = wave_kernels(data.grid, time, m, t)
    return _convolve_pair(K0, K1, data.phi0, data.phi1)


def _chebyshev(k: int, x: np.ndarray, p1: float) -> np.ndarray:
    """P_k of the recurrence P_{j+1} = 2x P_j - P_{j-1} from P_0 = 1 and P_1 = p1 * x."""
    prev = np.ones_like(x)
    if k == 0:
        return prev
    cur = p1 * x
    for _ in range(k - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def chebyshev_t(k: int, x: np.ndarray) -> np.ndarray:
    """T_k by the three-term recurrence (no trigonometric shortcuts)."""
    k = _integer(k, "degree", 0)
    return _chebyshev(k, np.asarray(x, dtype=float), 1.0)


def chebyshev_u(k: int, x: np.ndarray) -> np.ndarray:
    """U_k by recurrence; U_{-1} = 0."""
    k = _integer(k, "degree", -1)
    x = np.asarray(x, dtype=float)
    return np.zeros_like(x) if k == -1 else _chebyshev(k, x, 2.0)


def chebyshev_solve(data: CauchyData, tau: float, m: float, t: float) -> LatticeField:
    """Central-difference solution via Chebyshev multipliers.

    Applies T_k(chi) and (tau/2) U_{k-1}(chi) with chi = sqrt(1 -
    (tau^2/4)(d^2 + m^2)) and k = 2t/tau a nonnegative integer; requires the
    stability bound (chi real) and must agree with solve_kg on the
    central-difference model.
    """
    tau, t = _positive(tau, "tau"), _finite(t, "time t")
    kf = 2.0 * t / tau
    k = round(kf)
    if abs(kf - k) > 1e-9 * max(1.0, abs(kf)) or k < 0:
        raise ValueError(f"2t/tau must be a nonnegative integer, got {kf}")
    lam2 = d2_field(data.grid) + _finite(m, "mass m") ** 2
    arg = 1.0 - tau**2 / 4.0 * lam2
    if np.any(arg < 0.0):
        raise CflViolationError(float(np.sqrt(lam2.max())), 2.0 / tau)
    chi = np.sqrt(arg)
    c = chebyshev_t(k, chi)
    s = tau / 2.0 * chebyshev_u(k - 1, chi)
    support, (F0, F1) = align(dft(data.phi0), dft(data.phi1))
    return idft(SpectralField._of(data.grid, support, c[..., None] * F0 + s[..., None] * F1))


def leapfrog_march(psi_prev: LatticeField, psi_cur: LatticeField, m: float, tau: float, steps: int) -> LatticeField:
    """Position-space leapfrog: advance `steps` full steps from (t-tau, t).

    Psi(t+tau) = 2 Psi(t) - Psi(t-tau) + tau^2 (Laplacian - m^2) Psi(t).
    Returns the slice at t + steps*tau.
    """
    steps = _integer(steps, "steps", 0)
    tau = _positive(tau, "tau")
    m2 = _finite(m, "mass m") ** 2
    prev, cur = psi_prev, psi_cur
    for _ in range(steps):
        nxt = 2.0 * cur - prev + tau**2 * (discrete_laplacian(cur) - m2 * cur)
        prev, cur = cur, nxt
    return cur


def heat_euler(f: LatticeField, s: float, steps: int) -> LatticeField:
    """Explicit Euler march to time s in ``steps`` steps: heat_semigroup's first-order twin, without transforms."""
    s, steps = _heat_time(s), _integer(steps, "steps", 1)
    for _ in range(steps):
        f = f + (s / steps) * discrete_laplacian(f)
    return f


def poly_shift(p: Sequence, a) -> tuple[Fraction, ...]:
    """Coefficients of p(t + a), exact for rational a."""
    a = Fraction(a)
    out = [_F0] * len(p)
    for k, c in enumerate(Fraction(c) for c in p):
        if not c:
            continue
        # c (t + a)^k expanded binomially
        for j in range(k + 1):
            out[j] += c * math.comb(k, j) * a ** (k - j)
    return _poly(out)


def difference_quotient(p: Sequence, tau) -> tuple[Fraction, ...]:
    """[p(t + tau/2) - p(t - tau/2)] / tau, exactly."""
    tau = Fraction(tau)
    plus = poly_shift(p, tau / 2)
    minus = poly_shift(p, -tau / 2)
    n = max(len(plus), len(minus))
    plus += (_F0,) * (n - len(plus))
    minus += (_F0,) * (n - len(minus))
    return _poly([(a - b) / tau for a, b in zip(plus, minus)])


def egf_series_eval(op: DeltaOperator, s: Multivector, t: float) -> Multivector:
    """Truncated-series reference for egf_eval: explicit sum of m_k(t) s^k / k!."""
    t = _finite_egf_input(s, t)
    polys = basic_sequence(op)
    acc = Multivector.scalar(s.sig, 0.0)
    power = Multivector.scalar(s.sig, 1.0)
    for k, p in enumerate(polys):
        if k:
            power = power * s
        acc = acc + complex(poly_eval(p, t)) / math.factorial(k) * power
    return acc


def _bessel_quadrature(k: int, u: float) -> float:
    """e^{-u} I_k(u) = (1/pi) int_0^pi e^{u (cos theta - 1)} cos(k theta) dtheta by the trapezoid rule.

    The integrand is smooth and even in theta, so the rule converges
    geometrically.
    """
    theta = np.linspace(0.0, math.pi, 20001)
    return float(np.trapezoid(np.exp(u * (np.cos(theta) - 1.0)) * np.cos(k * theta), theta)) / math.pi
