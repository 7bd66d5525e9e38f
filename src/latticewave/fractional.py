"""Heat semigroup, special functions, and fractional-power operators.

The heat flow d/ds Psi = Laplacian Psi is solved by the spectral multiplier
exp(-s d(xi)^2).  Its kernel has a closed product form in modified Bessel
functions,

    K_s(x) = h^-n e^{-2ns/h^2} prod_j I~_{x_j/h}(2s/h^2),

where I~ periodizes the Bessel index over the N-site circle (I~_k =
sum_w I_{k + wN}); the prefactor is fixed so that the h^n-weighted
convolution of K_s with the data reproduces the semigroup, which also
forces unit site-sum (mass conservation).  One route computes every
modified Bessel value: Miller's backward recurrence, normalized by
e^{-u}(I_0 + 2 sum_k I_k) = 1, gives the scaled e^{-u} I_k(u) of all orders
at once, for every u, and the kernel folds them onto the circle.

Fractional powers (-Laplacian + m^2)^{-alpha} come in two deliberately
independent flavors: the closed spectral multiplier (d^2 + m^2)^{-alpha},
and the subordination integral

    1/Gamma(alpha) * int_0^inf t^{alpha-1} e^{-t m^2} exp(t Laplacian) dt

evaluated by a log-substituted trapezoid rule over heat multipliers, with
a two-term analytic head below the first node and an endpoint
(Euler-Maclaurin) correction; cross-checking the two is the point.  The
rule is linear in the heat multiplier, so its weights are summed on the
momentum grid and the field is transformed once.

The Riesz-type operator (D - m gamma)(-Laplacian + m^2)^{-alpha} and its
inverse share the exponent machinery, and the fractional kernel route
rebuilds the ordinary Klein-Gordon solution with the alpha-powers
cancelling spectrally; P_t = c + i s (z - m gamma) is the Dirac flow.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .clifford import _frac_alpha, _integer, _nonnegative, _positive
from .lattice import GridSpec, LatticeField, discrete_laplacian
from .propagators import CauchyData, TimeModel, _convolve_pair, lambda_max, solve_dirac, wave_symbols
from .spectral import _dirac_symbol, apply_multiplier, d2_field, multiply_field, scalar_kernel

__all__ = [
    "FracParams",
    "heat_semigroup",
    "heat_kernel_spectral",
    "heat_kernel_bessel",
    "bessel_i",
    "mittag_leffler",
    "frac_power",
    "riesz",
    "riesz_inverse",
    "fractional_symbols",
    "fractional_kernels",
    "solve_kg_fractional",
    "p_t_operator",
]

ML_MAX_ABS = 30.0
# the subordination rule: trapezoid nodes in log t, the error bound of its
# analytic head, and the decay e^{-t m^2} = e^-40 that places its cutoff
SUBORDINATION_NODES = 200
SUBORDINATION_HEAD_TOL = 1e-10
SUBORDINATION_DECAY = 40.0


# -- heat ----------------------------------------------------------------------


def _heat_time(s: float) -> float:
    return _nonnegative(s, "heat time s")


def heat_semigroup(f: LatticeField, s: float) -> LatticeField:
    """exp(s Laplacian) f via the multiplier e^{-s d(xi)^2}; s >= 0."""
    s = _heat_time(s)
    return multiply_field(f, np.exp(-s * d2_field(f.grid)))


def heat_kernel_spectral(grid: GridSpec, s: float) -> LatticeField:
    """Heat kernel as the (2 pi)^(-n/2)-normalized inverse transform of e^{-s d^2}.

    Normalized so that convolve(kernel, f) equals heat_semigroup(f, s); at
    s = 0 this is the convolution identity h^-n delta.
    """
    s = _heat_time(s)
    return (2.0 * np.pi) ** (-grid.n / 2.0) * scalar_kernel(grid, np.exp(-s * d2_field(grid)))


def heat_kernel_bessel(grid: GridSpec, s: float) -> LatticeField:
    """Closed-form heat kernel h^-n prod_j e^{-u} I~_{x_j}(u), u = 2s/h^2, for every finite s >= 0.

    Each axis folds the scaled orders by k mod N and -k mod N.  By the
    Poisson sum of A&S 9.6.19 over the N-th roots of unity,
    |N e^{-u} I~_x(u) - 1| <= (N - 1) e^{-u (1 - cos(2 pi/N))}.  Where that
    bound reaches e^-40, below rounding, u stops growing: the recurrence
    stays O(N) orders long, and a 2s/h^2 that overflows is harmless.
    """
    s = _heat_time(s)
    u = 2.0 * s / grid.h**2
    vals = np.ones(grid.shape)
    for axis, N in enumerate(grid.shape):
        flat = (40.0 + math.log(N)) / (2.0 * math.sin(math.pi / N) ** 2)  # 2 sin^2(pi/N) = 1 - cos(2 pi/N)
        scaled = _scaled_bessel(min(u, flat), N - 1)
        k = np.arange(scaled.size)
        line = np.bincount(k % N, scaled, N) + np.bincount(-k[1:] % N, scaled[1:], N)
        shape = [1] * grid.n
        shape[axis] = -1
        vals = vals * line.reshape(shape)
    return LatticeField.from_scalar(grid, vals / grid.h**grid.n)


# -- special functions -----------------------------------------------------------


def _scaled_bessel(u: float, K: int) -> np.ndarray:
    """e^{-u} I_k(u) for k = 0..K + 10 sqrt(u) + 60 at one finite u >= 0; accurate to rounding for k <= K.

    Miller's backward recurrence I_{k-1} = (2k/u) I_k + I_{k+1} starts from
    zero past the top order, where the values lie below e^-50 of the peak.
    It runs on the ratios r_k = I_k / I_{k-1} = u / (2k + u r_{k+1}), which
    rescales I_k to 1 at every step: no value overflows, and u = 0 gives
    r = 0.  The products r_1 ... r_k = I_k / I_0 are then normalized by
    e^{-u} (I_0 + 2 sum_{k>=1} I_k) = 1 (Abramowitz & Stegun 9.6.37, 9.12).
    """
    top = K + int(10.0 * math.sqrt(u)) + 60
    ratios = np.empty(top)
    r = 0.0
    for k in range(top, 0, -1):
        r = u / (2.0 * k + u * r)
        ratios[k - 1] = r
    rel = np.cumprod(ratios)  # I_k / I_0, k = 1..top
    i0 = 1.0 / (1.0 + 2.0 * rel.sum())
    return np.concatenate(([i0], i0 * rel))


def bessel_i(k: int, u: float) -> float:
    """Modified Bessel I_k(u) for integer k and finite u >= 0: e^u times the recurrence's scaled value.

    Its absolute error is therefore about 1e-16 e^u: an order whose scaled
    value underflows gives 0.  Raises ValueError where the product is not
    finite, i.e. past u = log of the largest double (about 709.78), where
    e^u overflows.
    """
    k, u = abs(_integer(k, "Bessel order k")), _nonnegative(u, "Bessel argument u")
    try:
        scale = math.exp(u)
    except OverflowError:
        raise ValueError(f"Bessel I_{k}(u) overflows at u = {u:.6g}: e^u is past the largest double") from None
    # every ratio I_j / I_{j-1} is below u / 2j, so at most 1/2 from j = u on: the scaled value
    # of an order past u + 1100 is below about 2^-1100, zero in double precision
    if k > u + 1100.0:
        return 0.0
    return scale * float(_scaled_bessel(u, k)[k])


def mittag_leffler(alpha: float, beta: float, z: complex) -> complex:
    """E_{alpha,beta}(z) = sum_k z^k / Gamma(beta + alpha k), |z| <= 30.

    Plain series with a term-ratio stopping rule; raises when the series
    would lose more than the guaranteed 1e-10 relative accuracy to
    cancellation (large negative arguments) or would overflow.
    """
    if not (alpha > 0 and beta > 0):
        raise ValueError("alpha and beta must be positive")
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    if abs(z) > ML_MAX_ABS:
        raise ValueError(f"|z| = {abs(z):.3g} outside the series domain guard {ML_MAX_ABS}")
    # advance by the exact term ratio z * Gamma(beta+alpha k)/Gamma(beta+alpha(k+1))
    # so z^k is never materialized on its own
    term = complex(math.exp(-math.lgamma(beta)))
    acc = term
    biggest = abs(term)
    lg = math.lgamma(beta)
    tiny_run = 0
    for k in range(1, 2000):
        lg_next = math.lgamma(beta + alpha * k)
        term *= z * math.exp(lg - lg_next)
        lg = lg_next
        acc += term
        mag = abs(term)
        if mag > 1e305:
            raise ValueError("Mittag-Leffler series term overflow")
        biggest = max(biggest, mag)
        if mag <= 1e-16 * max(abs(acc), 1e-300):
            tiny_run += 1
            if tiny_run >= 2:
                break
        else:
            tiny_run = 0
    else:
        raise ValueError("Mittag-Leffler series did not converge within 2000 terms")
    if biggest * 5e-17 > 1e-10 * max(abs(acc), 1e-300):
        raise ValueError("Mittag-Leffler series loses too much precision to cancellation here")
    return acc


# -- fractional powers -----------------------------------------------------------


@dataclass(frozen=True)
class FracParams:
    """Exponent alpha and mass m of the fractional operators.

    alpha is restricted to (0, 1/2): it doubles as the Dirac splitting
    parameter of the Riesz operator, and the massless endpoint alpha = 1/2
    has no absolutely convergent subordination integral.  m > 0 keeps the
    integrand exponentially decaying.  The subordination rule's settings
    are the module constants ``SUBORDINATION_*``: 200 nodes, a head bound
    of 1e-10 and the cutoff 40/m^2.
    """

    alpha: float
    m: float

    def __post_init__(self) -> None:
        _frac_alpha(self.alpha)
        _positive(self.m, "mass")


def _power_multiplier(grid: GridSpec, m: float, exponent: float) -> np.ndarray:
    return (d2_field(grid) + float(m) ** 2) ** exponent


def frac_power(f: LatticeField, p: FracParams, mode: str = "spectral") -> LatticeField:
    """(-Laplacian + m^2)^{-alpha} f, spectrally or by subordination quadrature."""
    if mode == "spectral":
        return multiply_field(f, _power_multiplier(f.grid, p.m, -p.alpha))
    if mode != "subordination":
        raise ValueError(f"mode must be 'spectral' or 'subordination', got {mode!r}")
    return _frac_power_subordination(f, p)


def _subordination_head(f: LatticeField, t0: float, alpha: float, m: float) -> np.ndarray:
    """Columns of the two-term head (t0^a/a) f + (t0^(1+a)/(1+a)) (Laplacian f - m^2 f).

    Built in place in two field-sized buffers.  Each step has the operand
    order of the field arithmetic in that formula (``c * f`` is
    ``f.columns * complex(c)``), so the bits are the formula's.
    """
    head = discrete_laplacian(f).columns
    scratch = f.columns * complex(m * m)
    head -= scratch
    head *= complex(t0 ** (1.0 + alpha) / (1.0 + alpha))
    np.multiply(f.columns, complex(t0**alpha / alpha), out=scratch)
    scratch += head
    return scratch


def _frac_power_subordination(f: LatticeField, p: FracParams) -> LatticeField:
    alpha, m = p.alpha, p.m
    gamma_a = math.gamma(alpha)
    lam4 = (lambda_max(f.grid, m)) ** 4
    # truncating the series head e^{-t mu} ~ 1 - t mu after two terms costs
    # at most lam_max^4 t0^{2+alpha} / (2 (2+alpha) Gamma(alpha))
    t0 = (SUBORDINATION_HEAD_TOL * 2.0 * (2.0 + alpha) * gamma_a / lam4) ** (1.0 / (2.0 + alpha))
    T = SUBORDINATION_DECAY / m**2
    lo, hi = math.log(t0), math.log(T)
    if hi <= lo:
        raise ValueError(f"quadrature window is empty at m = {m}, alpha = {alpha}: "
                         f"the head ends at t0 = {t0:.3g}, past the cutoff {SUBORDINATION_DECAY:g}/m^2 = {T:.3g}")
    u = np.linspace(lo, hi, SUBORDINATION_NODES)
    du = u[1] - u[0]
    # built before the quadrature's transform, so the two are the only fields held at once
    head = _subordination_head(f, t0, alpha, m)
    # the rule is linear in the heat multiplier, so it is summed on the symbol
    # and applied to f with one transform pair
    d2 = d2_field(f.grid)

    def w(uv: float) -> np.ndarray:
        t = math.exp(uv)
        return (t**alpha * math.exp(-t * m * m)) * np.exp(-t * d2)

    def w_prime(uv: float, wv: np.ndarray) -> np.ndarray:
        # symbol of alpha g + t (Laplacian g - m^2 g)
        t = math.exp(uv)
        return (alpha - t * (d2 + m * m)) * wv

    w_lo = w(u[0])
    w_hi = w(u[-1])
    acc = 0.5 * (w_lo + w_hi)
    for uv in u[1:-1]:
        acc += w(float(uv))
    # endpoint (Euler-Maclaurin) correction removes the O(du^2) trapezoid bias
    weights = du * acc - du * du / 12.0 * (w_prime(hi, w_hi) - w_prime(lo, w_lo))
    total = multiply_field(f, weights)  # a fresh field: (total + head) / Gamma(a) overwrites it
    out = total.columns
    out += head
    out *= complex(1.0 / gamma_a)
    return total


def _riesz_like(f: LatticeField, p: FracParams, exponent: float) -> LatticeField:
    zm = _dirac_symbol(f.grid, p.alpha, p.m)
    return multiply_field(f, apply_multiplier(zm, _power_multiplier(f.grid, p.m, exponent)))


def riesz(f: LatticeField, p: FracParams) -> LatticeField:
    """(D - m gamma)(-Laplacian + m^2)^{-alpha} f by left multiplication."""
    return _riesz_like(f, p, -p.alpha)


def riesz_inverse(f: LatticeField, p: FracParams) -> LatticeField:
    """(D - m gamma)(-Laplacian + m^2)^{alpha - 1} f; inverts riesz exactly."""
    return _riesz_like(f, p, p.alpha - 1.0)


# -- fractional Klein-Gordon ------------------------------------------------------


def fractional_symbols(grid: GridSpec, time: TimeModel, p: FracParams, t: float):
    """The wave-multiplier pair boosted by (d^2 + m^2)^{alpha}; see fractional_kernels."""
    c, s = wave_symbols(grid, time, p.m, t)
    boost = _power_multiplier(grid, p.m, p.alpha)
    return boost * c, boost * s


def fractional_kernels(grid: GridSpec, time: TimeModel, p: FracParams, t: float):
    """Kernels K0/K1 boosted by (d^2 + m^2)^{alpha}: inverse transforms of ``fractional_symbols``.

    Convolving them with alpha-damped data cancels the powers spectrally,
    so the fractional route reproduces the plain solver.
    """
    c, s = fractional_symbols(grid, time, p, t)
    return scalar_kernel(grid, c), scalar_kernel(grid, s)


def solve_kg_fractional(data: CauchyData, time: TimeModel, p: FracParams, t: float) -> LatticeField:
    """Klein-Gordon solution via fractional kernels and damped data.

    (2 pi)^(-n/2) [ K0a * (-Lap+m^2)^{-alpha} Phi0 + K1a * (-Lap+m^2)^{-alpha} Phi1 ],
    with the spectral damping.  Must agree with solve_kg.
    """
    K0a, K1a = fractional_kernels(data.grid, time, p, t)
    return _convolve_pair(K0a, K1a, frac_power(data.phi0, p), frac_power(data.phi1, p))


def p_t_operator(phi: LatticeField, time: TimeModel, p: FracParams, t: float) -> LatticeField:
    """One-parameter family P_t = c(lambda,t) + i s(lambda,t) (z - m gamma), the Dirac flow of phi.

    Its even part in t is the K0 propagation of phi and its odd part over i
    the first-order (Riesz-direction) term; at t = 0 it is the identity.
    """
    return solve_dirac(phi, time, p.alpha, p.m, t)
