"""Heat semigroup, special functions, and fractional-power operators.

The heat flow d/ds Psi = Laplacian Psi is solved by the spectral multiplier
exp(-s d(xi)^2).  Its kernel has a closed product form in modified Bessel
functions,

    K_s(x) = h^-n e^{-2ns/h^2} prod_j I~_{x_j/h}(2s/h^2),

where I~ periodizes the Bessel index over the N-site circle (I~_k =
sum_w I_{k + wN}); the prefactor is fixed so that the h^n-weighted
convolution of K_s with the data reproduces the semigroup, which also
forces unit site-sum (mass conservation).

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
cancelling spectrally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import GridSpec, LatticeField, discrete_laplacian
from .propagators import CauchyData, TimeModel, lambda_field, lambda_max
from .spectral import apply_multiplier, convolve, d2_field, dft, dirac_symbol, idft, multiply_field, scalar_kernel

__all__ = [
    "FracParams",
    "heat_semigroup",
    "heat_kernel_spectral",
    "heat_kernel_bessel",
    "bessel_i",
    "mittag_leffler",
    "erfc",
    "frac_power",
    "riesz",
    "riesz_inverse",
    "fractional_kernels",
    "solve_kg_fractional",
    "p_t_operator",
]

BESSEL_MAX_ARG = 700.0  # e^700 is still finite in double precision
ML_MAX_ABS = 30.0


# -- heat ----------------------------------------------------------------------


def _heat_time(s: float) -> float:
    s = float(s)
    if not math.isfinite(s):
        raise ValueError(f"heat time s must be finite, got {s}")
    if s < 0:
        raise ValueError(f"heat time s must be nonnegative, got {s}")
    return s


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


def _periodized_bessel(N: int, u: float) -> np.ndarray:
    """I~_x(u) = sum_{w in Z} I_{x + wN}(u) for x = 0..N-1, truncated at 1e-16.

    Site x adds the ring I_{x+wN} + I_{|x-wN|} for w = 1, 2, ... and stops
    after the first ring below 1e-16 of its sum.  The first series
    evaluation covers the orders below 3N, i.e. the rings w <= 2: sites near
    N/2 always need ring 2, since I_{N-x} is as large as I_x there.  It is
    extended (at least doubled) when a ring runs past it.
    """
    vals = _bessel_series(np.arange(3 * N), u)
    out = vals[:N].copy()
    live = np.arange(N)
    w = 1
    while live.size:
        need = (w + 1) * N
        if need > vals.size:
            vals = np.concatenate([vals, _bessel_series(np.arange(vals.size, max(need, 2 * vals.size)), u)])
        ring = vals[live + w * N] + vals[w * N - live]
        acc = out[live] + ring
        out[live] = acc
        live = live[~(ring < 1e-16 * np.maximum(acc, 1e-300))]
        w += 1
    return out


def heat_kernel_bessel(grid: GridSpec, s: float) -> LatticeField:
    """Closed-form heat kernel h^-n e^{-2ns/h^2} prod_j I~_{x_j}(2s/h^2)."""
    s = _heat_time(s)
    u = 2.0 * s / grid.h**2
    if u > BESSEL_MAX_ARG:
        raise ValueError(f"2s/h^2 = {u:.3g} exceeds the Bessel overflow guard {BESSEL_MAX_ARG}")
    vals = np.ones(grid.shape)
    for axis, N in enumerate(grid.shape):
        line = _periodized_bessel(N, u) * np.exp(-u)
        shape = [1] * grid.n
        shape[axis] = -1
        vals = vals * line.reshape(shape)
    return LatticeField.from_scalar(grid, vals / grid.h**grid.n)


# -- special functions -----------------------------------------------------------


def _bessel_series(orders: np.ndarray, u: float) -> np.ndarray:
    """I_k(u) for an array of orders k >= 0 at one finite u in [0, 700].

    All series terms are positive, so no cancellation occurs.  The leading
    term of each order is seeded through lgamma and underflow is returned as
    exact zero (the true value is then far below double precision).  Every
    order runs the same scalar recurrence and stops at its own term.
    """
    orders = np.asarray(orders, dtype=np.int64)
    if u == 0.0:
        return (orders == 0).astype(float)
    half = u / 2.0
    out = np.zeros(orders.shape)
    # seeded with the math module per order: np.exp can differ in the last bit
    lead = np.array([int(k) * math.log(half) - math.lgamma(int(k) + 1) for k in orders])
    live = np.flatnonzero(lead >= -745.0)
    if not live.size:
        return out
    term = np.array([math.exp(x) for x in lead[live]])
    acc = term.copy()
    k = orders[live]
    h2 = half * half
    for j in range(1, 20000):
        term *= h2 / (j * (j + k))
        acc += term
        done = term <= acc * 1e-17
        if done.any():
            out[live[done]] = acc[done]
            keep = ~done
            live, term, acc, k = live[keep], term[keep], acc[keep], k[keep]
            if not live.size:
                return out
    raise RuntimeError("Bessel series failed to converge")  # pragma: no cover


def bessel_i(k: int, u: float) -> float:
    """Modified Bessel I_k(u) for integer k, 0 <= u <= 700, by its power series."""
    k = abs(int(k))
    u = float(u)
    if not math.isfinite(u):
        raise ValueError(f"Bessel argument u must be finite, got {u}")
    if u < 0:
        raise ValueError(f"Bessel argument u must be nonnegative, got {u}")
    if u > BESSEL_MAX_ARG:
        raise ValueError(f"Bessel argument u = {u:.3g} exceeds the overflow guard {BESSEL_MAX_ARG}")
    return float(_bessel_series(np.array([k]), u)[0])


def mittag_leffler(alpha: float, beta: float, z: complex) -> complex:
    """E_{alpha,beta}(z) = sum_k z^k / Gamma(beta + alpha k), |z| <= 30.

    Plain series with a term-ratio stopping rule; raises when the series
    would lose more than the guaranteed 1e-10 relative accuracy to
    cancellation (large negative arguments) or would overflow.
    """
    if not (alpha > 0 and beta > 0):
        raise ValueError("alpha and beta must be positive")
    z = complex(z)
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


def erfc(u: float) -> float:
    """Complementary error function; delegates to the C library implementation."""
    return math.erfc(float(u))


# -- fractional powers -----------------------------------------------------------


@dataclass(frozen=True)
class FracParams:
    """Exponent and quadrature settings for the fractional operators.

    alpha is restricted to (0, 1/2): it doubles as the Dirac splitting
    parameter of the Riesz operator, and the massless endpoint alpha = 1/2
    has no absolutely convergent subordination integral.  m > 0 keeps the
    integrand exponentially decaying.
    """

    alpha: float
    m: float
    nodes: int = 200
    t_max: float | None = None
    head_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 0.5):
            raise ValueError(f"alpha must lie strictly between 0 and 1/2, got {self.alpha}")
        if not self.m > 0:
            raise ValueError(f"mass must be positive, got {self.m}")
        if int(self.nodes) != self.nodes or self.nodes < 10:
            raise ValueError(f"need at least 10 quadrature nodes, got {self.nodes}")
        if self.t_max is not None and not self.t_max > 0:
            raise ValueError("t_max must be positive")
        if not self.head_tol > 0:
            raise ValueError("head_tol must be positive")

    def upper_cutoff(self) -> float:
        # e^{-t m^2} has decayed to e^-40 here
        return self.t_max if self.t_max is not None else 40.0 / self.m**2


def _power_multiplier(grid: GridSpec, m: float, exponent: float) -> np.ndarray:
    return (d2_field(grid) + float(m) ** 2) ** exponent


def frac_power(f: LatticeField, p: FracParams, mode: str = "spectral") -> LatticeField:
    """(-Laplacian + m^2)^{-alpha} f, spectrally or by subordination quadrature."""
    if mode == "spectral":
        return multiply_field(f, _power_multiplier(f.grid, p.m, -p.alpha))
    if mode != "subordination":
        raise ValueError(f"mode must be 'spectral' or 'subordination', got {mode!r}")
    return _frac_power_subordination(f, p)


def _frac_power_subordination(f: LatticeField, p: FracParams) -> LatticeField:
    alpha, m = p.alpha, p.m
    gamma_a = math.gamma(alpha)
    lam4 = (lambda_max(f.grid, m)) ** 4
    # truncating the series head e^{-t mu} ~ 1 - t mu after two terms costs
    # at most lam_max^4 t0^{2+alpha} / (2 (2+alpha) Gamma(alpha))
    t0 = (p.head_tol * 2.0 * (2.0 + alpha) * gamma_a / lam4) ** (1.0 / (2.0 + alpha))
    T = p.upper_cutoff()
    lo, hi = math.log(t0), math.log(T)
    if hi <= lo:
        raise ValueError("quadrature window is empty; raise t_max or loosen head_tol")
    u = np.linspace(lo, hi, int(p.nodes))
    du = u[1] - u[0]
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
    total = multiply_field(f, weights)
    head = (t0**alpha / alpha) * f + (t0 ** (1.0 + alpha) / (1.0 + alpha)) * (
        discrete_laplacian(f) - m * m * f
    )
    return (1.0 / gamma_a) * (total + head)


def _riesz_like(f: LatticeField, p: FracParams, exponent: float) -> LatticeField:
    zm = dirac_symbol(f.grid, p.alpha, p.m)
    return multiply_field(f, zm * _power_multiplier(f.grid, p.m, exponent)[..., None])


def riesz(f: LatticeField, p: FracParams) -> LatticeField:
    """(D - m gamma)(-Laplacian + m^2)^{-alpha} f by left multiplication."""
    return _riesz_like(f, p, -p.alpha)


def riesz_inverse(f: LatticeField, p: FracParams) -> LatticeField:
    """(D - m gamma)(-Laplacian + m^2)^{alpha - 1} f; inverts riesz exactly."""
    return _riesz_like(f, p, p.alpha - 1.0)


# -- fractional Klein-Gordon ------------------------------------------------------


def fractional_kernels(grid: GridSpec, time: TimeModel, p: FracParams, t: float, allow_unstable: bool = False):
    """Kernels K0/K1 boosted by (d^2 + m^2)^{alpha}.

    Convolving them with alpha-damped data cancels the powers spectrally,
    so the fractional route reproduces the plain solver.
    """
    lam = lambda_field(grid, p.m)
    c, s = time.multipliers(lam, t, allow_unstable=allow_unstable)
    boost = _power_multiplier(grid, p.m, p.alpha)
    return scalar_kernel(grid, boost * c), scalar_kernel(grid, boost * s)


def solve_kg_fractional(data: CauchyData, time: TimeModel, p: FracParams, t: float,
                        mode: str = "spectral", allow_unstable: bool = False) -> LatticeField:
    """Klein-Gordon solution via fractional kernels and damped data.

    (2 pi)^(-n/2) [ K0a * (-Lap+m^2)^{-alpha} Phi0 + K1a * (-Lap+m^2)^{-alpha} Phi1 ].
    Must agree with solve_kg; the mode picks how the damping is computed.
    """
    K0a, K1a = fractional_kernels(data.grid, time, p, t, allow_unstable=allow_unstable)
    d0 = frac_power(data.phi0, p, mode=mode)
    d1 = frac_power(data.phi1, p, mode=mode)
    n = data.grid.n
    return (2.0 * np.pi) ** (-n / 2.0) * (convolve(K0a, d0) + convolve(K1a, d1))


def p_t_operator(phi: LatticeField, time: TimeModel, p: FracParams, t: float,
                 allow_unstable: bool = False) -> LatticeField:
    """One-parameter family P_t = c(lambda,t) + i s(lambda,t) (z - m gamma).

    Its even part in t is the K0 propagation of phi and its odd part over i
    the first-order (Riesz-direction) term; at t = 0 it is the identity.
    """
    zm = dirac_symbol(phi.grid, p.alpha, p.m)
    c, s = time.multipliers(lambda_field(phi.grid, p.m), t, allow_unstable=allow_unstable)
    F = dft(phi)
    return idft(apply_multiplier(F, c) + apply_multiplier(apply_multiplier(F, zm), 1j * s))
