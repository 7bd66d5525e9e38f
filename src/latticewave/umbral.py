"""Delta-operator calculus: truncated power series, basic polynomial
sequences, and the scalar propagator multipliers they generate.

A delta operator is a formal series L(s) = sum_k b_k s^k / k! with b_0 = 0
and b_1 != 0, read as a series in the time derivative.  Its compositional
inverse M = L^{-1} generates the basic polynomial sequence through

    m_k(t) = k! [s^k] exp(t M(s)),

so m_0 = 1, m_k(0) = 0 for k >= 1, and L_t m_k = k m_{k-1} (equivalently,
the normalized sequence m_k/k! is lowered with coefficient one).  All
series/polynomial arithmetic is exact over rationals; floats appear only
when a series or polynomial is evaluated at a point.

The generating function G(s, t) = sum_k m_k(t) s^k / k! equals
exp(t M(s)); for an argument c*omega with omega a Clifford element
squaring to +1 it splits into cosh(t M(c)) + omega sinh(t M(c)) whenever
M is odd (true for both built-in operators).

The wave multipliers c = cosh(t M(i lambda)) and s = sinh(t M(i lambda)) /
(i lambda) are the spectral coefficients of the second-order evolution
solvers.  Both read one phase, phi = t theta(lambda) with M(i lambda) =
i theta(lambda): c = cos phi and s = sin phi / lambda, and the inverse
symbol is M(w) = i theta(-i w).  The phase is t lambda for the derivative
and (2t/tau) asin(tau lambda/2) for the central difference, which is real
only under the stability bound tau*lambda/2 <= 1; beyond it evaluation
continues analytically (exponentially growing, complex on half-integer
steps), requested by ``central_difference(tau, allow_unstable=True)``.

``DeltaOperator`` is the one time-axis class: the solvers take it as their
time model (``propagators.TimeModel``), and it owns its time lattice, its
CFL bound, that stability policy and its multipliers.  The built-ins evaluate
closed forms and build their exact series only when the polynomial tools
ask, so a solver run never enters ``fractions``.  A custom series is solved
over a whole frequency array by Newton's method on L(u) = i lambda, covering
the central-difference series' stable band up to tau*lambda/2 = 0.999.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .clifford import Multivector, _finite, _integer, _nonnegative, _positive, _real_array

__all__ = [
    "DEFAULT_ORDER",
    "CflViolationError",
    "PowerSeries",
    "DeltaOperator",
    "compositional_inverse",
    "basic_sequence",
    "poly_eval",
    "poly_derivative",
    "egf_eval",
    "wave_multipliers",
    "wave_multiplier_arrays",
]

DEFAULT_ORDER = 16
_NEWTON_STEPS = 60  # a cap: a root inside the band converges in under ten

_F0 = Fraction(0)
_F1 = Fraction(1)


class CflViolationError(RuntimeError):
    """Raised when tau*lambda/2 > 1 on a central difference that does not allow unstable evaluation."""

    def __init__(self, lam_max: float, bound: float):
        self.lam_max = lam_max
        self.bound = bound
        super().__init__(f"stability bound violated: max frequency {lam_max:.6g} exceeds 2/tau = {bound:.6g}")


# -- formal power series (exponential coefficients) ---------------------------


@dataclass(frozen=True)
class PowerSeries:
    """Truncated series sum_k coeffs[k] s^k / k! with exact rational coeffs."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @classmethod
    def from_ordinary(cls, coeffs: Iterable) -> "PowerSeries":
        return cls(tuple(Fraction(c) * math.factorial(k) for k, c in enumerate(coeffs)))

    @classmethod
    def identity(cls, order: int = DEFAULT_ORDER) -> "PowerSeries":
        # the series "s"
        cs = [_F0] * order
        if order > 1:
            cs[1] = _F1
        return cls(tuple(cs))

    def ordinary(self) -> tuple[Fraction, ...]:
        return tuple(c / math.factorial(k) for k, c in enumerate(self.coeffs))

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        K = min(self.order, other.order)
        return PowerSeries.from_ordinary(_ord_mul(list(self.ordinary()), list(other.ordinary()), K))

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """self(inner(s)); inner must have zero constant term."""
        if inner.coeffs[0] != 0:
            raise ValueError("composition requires a series with zero constant term")
        K = min(self.order, inner.order)
        return PowerSeries.from_ordinary(_ord_compose(list(self.ordinary()), list(inner.ordinary()), K))

    def evaluate(self, x):
        """Horner evaluation of the truncated polynomial; exact for Fraction x."""
        return poly_eval(self.ordinary(), x)


def _ord_mul(a: list[Fraction], b: list[Fraction], K: int) -> list[Fraction]:
    out = [_F0] * K
    for i, ai in enumerate(a[:K]):
        if not ai:
            continue
        for j, bj in enumerate(b[: K - i]):
            if bj:
                out[i + j] += ai * bj
    return out


def _ord_compose(f: list[Fraction], g: list[Fraction], K: int) -> list[Fraction]:
    out = [_F0] * K
    out[0] = f[0]
    power = [_F1] + [_F0] * (K - 1)
    for k in range(1, min(len(f), K)):
        power = _ord_mul(power, g, K)
        if f[k]:
            out = [o + f[k] * p for o, p in zip(out, power)]
    return out


def compositional_inverse(L: PowerSeries) -> PowerSeries:
    """Series M with L(M(s)) = M(L(s)) = s up to the truncation order.

    Requires the delta-operator condition: zero constant term, nonzero
    linear term.  Solved triangularly in ordinary coefficients; both
    round-trip identities are verified exactly before returning.
    """
    K = L.order
    l = list(L.ordinary())
    if l[0] != 0 or l[1] == 0:
        raise ValueError("compositional inverse needs c_0 = 0 and c_1 != 0")
    m = [_F0] * K
    m[1] = 1 / l[1]
    for k in range(2, K):
        comp = _ord_compose(l, m, k + 1)
        m[k] = -comp[k] / l[1]
    ident = [_F0] * K
    if K > 1:
        ident[1] = _F1
    if _ord_compose(l, m, K) != ident or _ord_compose(m, l, K) != ident:
        raise AssertionError("inversion round trip failed; series is not a delta series")
    return PowerSeries.from_ordinary(m)


# -- polynomials in t (tuples of Fraction, index = power) ----------------------


def _poly(p: Sequence) -> tuple[Fraction, ...]:
    out = tuple(Fraction(c) for c in p)
    while len(out) > 1 and out[-1] == 0:
        out = out[:-1]
    return out if out else (_F0,)


def poly_eval(p: Sequence, x):
    """Horner evaluation of a polynomial; exact for Fraction x, floats lift exactly."""
    acc = 0 * x if not isinstance(x, Fraction) else _F0
    for c in reversed([Fraction(c) for c in p]):
        acc = acc * x + c
    return acc


def poly_derivative(p: Sequence) -> tuple[Fraction, ...]:
    q = [Fraction(c) * k for k, c in enumerate(p)][1:]
    return _poly(q) if q else (_F0,)


# -- delta operators -----------------------------------------------------------


@dataclass(frozen=True)
class DeltaOperator:
    """A delta operator L(d/dt), which is also the time axis a solver runs on.

    ``derivative()`` (alias ``continuous()``) is the plain derivative and
    admits any real time.  ``central_difference(tau)`` is the symmetric
    quotient of step tau: it admits integer multiples of tau/2 (exact up to
    1e-9 relative) and frequencies up to its CFL bound 2/tau, or past it if
    built with ``allow_unstable=True``.  Both have closed-form symbols, and
    their exact series (of order ``DEFAULT_ORDER``) and its inverse are built
    only when the exact polynomial tools ask for them.  ``from_series(L)``
    takes an explicit delta series, whose length is its order, admits any
    real time, and evaluates its inverse symbol by Newton's method under a
    round-trip guard.
    """

    tau: float | None = None  # the step of a central difference
    custom: PowerSeries | None = field(default=None, repr=False)
    allow_unstable: bool = False  # a central difference evaluates past its CFL bound

    @classmethod
    def derivative(cls) -> "DeltaOperator":
        return cls()

    @classmethod
    def continuous(cls) -> "DeltaOperator":
        """The plain derivative, under the name the solvers' time models use."""
        return cls.derivative()

    @classmethod
    def central_difference(cls, tau: float, allow_unstable: bool = False) -> "DeltaOperator":
        """L(s) = (2/tau) sinh(tau s / 2); past the CFL bound it raises unless ``allow_unstable``."""
        return cls(tau=_positive(tau, "tau"), allow_unstable=bool(allow_unstable))  # None would be the derivative

    @classmethod
    def from_series(cls, series: PowerSeries) -> "DeltaOperator":
        return cls(custom=series)

    def __post_init__(self) -> None:
        if self.tau is not None:
            object.__setattr__(self, "tau", _positive(self.tau, "tau"))
        if self.custom is not None:
            cs = self.custom.coeffs
            if self.tau is not None:
                raise ValueError("a custom delta series has no step tau")
            if cs[0] != 0 or len(cs) < 2 or cs[1] == 0:
                raise ValueError("delta operator requires b_0 = 0 and b_1 != 0")

    @cached_property
    def series(self) -> PowerSeries:
        """The exact delta series, built on first use: to ``DEFAULT_ORDER`` for the built-ins."""
        if self.custom is not None:
            return self.custom
        if self.tau is None:
            return PowerSeries.identity(DEFAULT_ORDER)
        # exponential coefficient of (2/tau) * (tau/2)^k s^k / k! at odd k
        half = Fraction(self.tau) / 2
        return PowerSeries(tuple(half ** (k - 1) if k % 2 else _F0 for k in range(DEFAULT_ORDER)))

    @cached_property
    def inverse(self) -> PowerSeries:
        """The compositional inverse M = L^{-1}, built on first use."""
        return compositional_inverse(self.series)

    def validate_time(self, t: float) -> float:
        t = _finite(t, "time t")
        if self.tau is not None:
            k = 2.0 * t / self.tau
            if abs(k - round(k)) > 1e-9 * max(1.0, abs(k)):
                raise ValueError(f"time {t} is not an integer multiple of tau/2 = {self.tau / 2}")
        return t

    def cfl_bound(self) -> float:
        """Largest admissible frequency: 2/tau for central differences, else infinite."""
        return np.inf if self.tau is None else 2.0 / self.tau

    def multipliers(self, lam: np.ndarray, t: float):
        """The wave-multiplier pair (c, s) over the frequencies lam at an admissible time t."""
        return wave_multiplier_arrays(self, lam, t)

    def apply(self, p: Sequence) -> tuple[Fraction, ...]:
        """Apply L(d/dt) to a polynomial in t; exact, truncation-free.

        The series terminates on polynomials (each derivative drops the
        degree), so the truncation order only needs to exceed deg p.
        """
        p = _poly(p)
        out = [_F0] * len(p)
        cur = p
        for k in range(1, self.series.order):
            cur = poly_derivative(cur)
            bk = self.series.coeffs[k]
            if bk:
                w = Fraction(bk, math.factorial(k))
                for j, c in enumerate(cur):
                    out[j] += w * c
            if cur == (_F0,):
                break
        return _poly(out)

    def phase(self, lam: np.ndarray, t: float) -> np.ndarray:
        """phi = t theta(lam), where M(i lam) = i theta(lam): the wave multipliers are cos phi and sin phi / lam.

        Real frequencies past a central difference's CFL bound raise unless
        the operator allows unstable evaluation; complex ones pass unguarded.
        """
        if self.custom is not None:
            return -1j * (t * self._custom_inverse(1j * lam))
        if self.tau is None:
            return t * lam
        return _central_phase(self.tau, lam, t, self.allow_unstable)

    @property
    def inverse_slope(self) -> float | complex:
        """M'(0), the sine multiplier's value t M'(0) at lam = 0: 1 for the built-ins, which build no series."""
        return 1.0 if self.custom is None else complex(self.inverse.coeffs[1])

    def inverse_symbol(self, w: complex) -> complex:
        """L^{-1}(w) = i theta(-i w) through the wave multipliers' phase, whose branch it takes past the CFL bound."""
        return complex(1j * self.phase(np.asarray([-1j * complex(w)]), 1.0)[0])

    def _custom_inverse(self, w: np.ndarray) -> np.ndarray:
        """M(w) of a custom series: Newton's method on the truncated L(u) = w, from the truncated M(w).

        The guard asks L(u) to round-trip to w within 1e-9 relative, counting
        the series' last two orders at u as error too: a root counts only
        where the truncated series has converged, which refuses the spurious
        roots that truncation grows far from the origin, and NaN.
        """
        l = np.array([complex(c) for c in self.series.ordinary()])
        dl = l[1:] * np.arange(1, len(l))
        u = _horner([complex(c) for c in self.inverse.ordinary()], w)
        with np.errstate(all="ignore"):
            for _ in range(_NEWTON_STEPS):
                step = (_horner(l, u) - w) / _horner(dl, u)
                u = u - step
                if np.all(np.abs(step) <= 1e-12 * np.abs(u)):
                    break
            tail = sum(l[k] * u**k for k in range(max(2, len(l) - 2), len(l)))
            miss = np.abs(_horner(l, u) - w) + np.abs(tail)
        bad = ~(miss <= 1e-9 * np.maximum(1.0, np.abs(w)))
        if np.any(bad):
            raise ValueError(
                f"series evaluation of the inverse symbol at {complex(w[bad][0])} is outside the convergence guard"
            )
        return u


def _horner(coeffs, x: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(x)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def basic_sequence(op: DeltaOperator, count: int | None = None) -> list[tuple[Fraction, ...]]:
    """Polynomials m_0..m_{count-1} with m_k(t) = k! [s^k] exp(t M(s)).

    m_0 = 1, m_k(0) = 0, and L_t m_k = k m_{k-1}, all exact in rational
    arithmetic (so the normalized m_k/k! are lowered with unit coefficient).
    """
    K = op.series.order if count is None else _integer(count, "count", 0)
    if K > op.series.order:
        raise ValueError(f"requested {K} polynomials but series order is {op.series.order}")
    Mo = list(op.inverse.ordinary())[:K] + [_F0] * max(0, K - op.inverse.order)
    # accumulate exp(t M(s)) = sum_j t^j M(s)^j / j!  by powers of M
    polys = [[_F0] * K for _ in range(K)]  # polys[k][j] = coeff of t^j in m_k / k!
    power = [_F1] + [_F0] * (K - 1)  # M^0
    for k in range(K):
        polys[k][0] = power[k]
    for j in range(1, K):
        power = _ord_mul(power, Mo, K)
        w = Fraction(1, math.factorial(j))
        for k in range(j, K):
            polys[k][j] = w * power[k]
    out = []
    for k in range(K):
        fact = math.factorial(k)
        out.append(_poly([fact * c for c in polys[k]]))
    return out


# -- generating-function evaluation -------------------------------------------


def _split_square_root(s: Multivector) -> tuple[complex, Multivector]:
    """Factor s = c * omega with omega**2 = +1, c the principal root of s**2."""
    sq = s * s
    scalar = complex(sq.coeffs[0])
    rest = sq - Multivector.scalar(s.sig, scalar)
    scale = max(1.0, abs(scalar))
    if rest.norm() > 1e-10 * scale:
        raise ValueError("argument does not square to a scalar; cannot factor omega with omega**2 = 1")
    if s.norm() <= 1e-14:
        return 0.0, Multivector.scalar(s.sig, 1.0)
    c = cmath.sqrt(scalar)
    if abs(c) <= 1e-14 * s.norm():
        raise ValueError("argument squares to zero (nilpotent); omega**2 = +1 is unattainable")
    omega = s * (1.0 / c)
    check = omega * omega - Multivector.scalar(s.sig, 1.0)
    if check.norm() > 1e-10:
        raise ValueError(f"omega**2 deviates from +1 by {check.norm():.3e}")
    return c, omega


def _finite_egf_input(s: Multivector, t: float) -> float:
    """The time t as a float, once s and t are finite: otherwise the sum is NaN or overflows."""
    if not np.all(np.isfinite(s.coeffs)):
        raise ValueError("generating-function argument s must have finite coefficients")
    return _finite(t, "time t")


def egf_eval(op: DeltaOperator, s: Multivector, t: float) -> Multivector:
    """Closed-form generating function sum_k m_k(t) s^k / k!.

    The argument is factored as c*omega with omega**2 = +1; the value is
    cosh(t M(c)) + omega sinh(t M(c)).  s = 0 gives the scalar 1.
    """
    t = _finite_egf_input(s, t)
    c, omega = _split_square_root(s)
    if c == 0.0:
        return Multivector.scalar(s.sig, 1.0)
    u = op.inverse_symbol(c)
    ch = cmath.cosh(t * u)
    sh = cmath.sinh(t * u)
    return Multivector.scalar(s.sig, ch) + sh * omega


# -- wave multipliers ----------------------------------------------------------


def _central_phase(tau: float, lam: np.ndarray, t: float, allow_unstable: bool) -> np.ndarray:
    """(2t/tau) asin(tau lam/2); past the CFL bound through the complex arcsin, which grows."""
    u = tau * lam / 2.0
    k = 2.0 * t / tau
    if not np.iscomplexobj(u) and np.any(u > 1.0):
        if not allow_unstable:
            err = CflViolationError(float(lam.max()), 2.0 / tau)
            # only the time model has a growing branch to offer
            err.args = (f"{err}; pass --allow-unstable (CLI) or allow_unstable=True (time model) "
                        "to evaluate the growing branch anyway",)
            raise err
        u = u.astype(complex)
    return k * np.arcsin(u)


def wave_multipliers(op: DeltaOperator, lam: float, t: float):
    """Scalar propagator pair (c, s) = (cosh(t M(i lam)), sinh(t M(i lam))/(i lam)).

    Real for the built-in kinds under the central-difference stability bound
    tau*lam/2 <= 1; beyond it a CflViolationError is raised unless the operator
    allows unstable evaluation, and then the analytic continuation through
    complex asin is returned (growing, complex off integer steps).
    """
    c, s = wave_multiplier_arrays(op, np.asarray([_nonnegative(lam, "frequencies")]), t)
    cv, sv = c[0], s[0]
    if not np.iscomplexobj(c):
        return float(cv), float(sv)
    return complex(cv), complex(sv)


def wave_multiplier_arrays(op: DeltaOperator, lam: np.ndarray, t: float):
    """Vectorized wave_multipliers over an array of nonnegative frequencies."""
    lam = _real_array(lam, "frequencies")
    if not np.all(np.isfinite(lam)):  # first, as _nonnegative: -inf is not finite
        raise ValueError("frequencies must be finite")
    if np.any(lam < 0):
        raise ValueError("frequencies must be nonnegative")
    t = op.validate_time(t)
    phi = op.phase(lam, t)
    safe = np.where(lam == 0.0, 1.0, lam)
    return np.cos(phi), np.where(lam == 0.0, t * op.inverse_slope, np.sin(phi) / safe)
