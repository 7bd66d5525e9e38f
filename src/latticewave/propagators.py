"""Closed-form solvers for the lattice Klein-Gordon and Dirac equations.

Everything is spectral: initial data are transformed, multiplied pointwise
by scalar functions of lambda(xi) = sqrt(d(xi)**2 + m**2) (and, for Dirac,
by the first-order symbol), and transformed back.

    Psi(t) = idft[ c(lambda, t) F Phi0 + s(lambda, t) F Phi1 ]

with (c, s) the wave-multiplier pair of the chosen time model.  For the
central-difference model the result satisfies the three-level leapfrog
recurrence exactly (per mode), which the residual helpers check; an
independent position-space leapfrog marcher is provided as a brute-force
cross-check.  The kernel path (inverse transforms of c and s, combined by
discrete convolution with a (2 pi)^|-n/2| normalization) is a second,
deliberately separate route to the same solution.

Admissible times: any real for the continuous model; integer multiples of
tau/2 for the central-difference model (negative multiples run the
evolution backwards, which the recurrences support).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import GridSpec, LatticeField, align, discrete_laplacian, norm
from .spectral import SpectralField, _dirac_symbol, apply_multiplier, convolve, d2_field, dft, idft, scalar_kernel
from .umbral import (
    CflViolationError,
    DeltaOperator,
    wave_multiplier_arrays,
)

__all__ = [
    "TimeModel",
    "CauchyData",
    "lambda_field",
    "lambda_max",
    "solve_kg",
    "solve_kg_by_kernels",
    "wave_kernels",
    "kg_residual",
    "continuous_kg_residual",
    "dirac_data",
    "solve_dirac",
    "dirac_residual",
    "continuous_dirac_residual",
    "chebyshev_t",
    "chebyshev_u",
    "chebyshev_solve",
    "leapfrog_march",
]


@dataclass(frozen=True)
class TimeModel:
    """Continuous or central-difference time evolution.

    kind "continuous" admits any real time; kind "central_difference"
    admits integer multiples of tau/2 (exact up to 1e-9 relative).
    """

    kind: str
    tau: float | None = None
    delta: DeltaOperator = field(repr=False, default=None)

    @classmethod
    def continuous(cls) -> "TimeModel":
        return cls(kind="continuous", delta=DeltaOperator.derivative())

    @classmethod
    def central_difference(cls, tau: float) -> "TimeModel":
        if not 0 < tau < np.inf:
            raise ValueError(f"tau must be positive and finite, got {tau}")
        return cls(kind="central_difference", tau=float(tau), delta=DeltaOperator.central_difference(tau))

    def __post_init__(self) -> None:
        if self.kind not in ("continuous", "central_difference"):
            raise ValueError(f"unknown time model kind {self.kind!r}")
        if self.delta is None:
            raise ValueError("construct via TimeModel.continuous() or TimeModel.central_difference(tau)")

    def validate_time(self, t: float) -> float:
        t = float(t)
        if self.kind == "central_difference":
            k = 2.0 * t / self.tau
            if abs(k - round(k)) > 1e-9 * max(1.0, abs(k)):
                raise ValueError(
                    f"time {t} is not an integer multiple of tau/2 = {self.tau / 2}"
                )
        return t

    def cfl_bound(self) -> float:
        """Largest admissible frequency, 2/tau (infinite for continuous time)."""
        if self.kind == "continuous":
            return np.inf
        return 2.0 / self.tau

    def multipliers(self, lam: np.ndarray, t: float, allow_unstable: bool = False):
        return wave_multiplier_arrays(self.delta, lam, self.validate_time(t), allow_unstable=allow_unstable)


@dataclass(frozen=True)
class CauchyData:
    """Initial position Phi0 and initial (delta-operator) velocity Phi1."""

    phi0: LatticeField
    phi1: LatticeField

    def __post_init__(self) -> None:
        if self.phi0.grid != self.phi1.grid:
            raise ValueError("phi0 and phi1 live on different grids")

    @classmethod
    def rest(cls, phi0: LatticeField) -> "CauchyData":
        return cls(phi0, LatticeField.zeros(phi0.grid))

    @property
    def grid(self) -> GridSpec:
        return self.phi0.grid


def lambda_field(grid: GridSpec, m: float) -> np.ndarray:
    """sqrt(d(xi)**2 + m**2) over the momentum grid."""
    return np.sqrt(d2_field(grid) + float(m) ** 2)


def lambda_max(grid: GridSpec, m: float) -> float:
    return float(np.sqrt(4.0 * grid.n / grid.h**2 + float(m) ** 2))


def _combine(data: CauchyData, c: np.ndarray, s: np.ndarray) -> LatticeField:
    support, (F0, F1) = align(dft(data.phi0), dft(data.phi1))
    return idft(SpectralField._of(data.grid, support, c[..., None] * F0 + s[..., None] * F1))


def solve_kg(data: CauchyData, time: TimeModel, m: float, t: float, allow_unstable: bool = False) -> LatticeField:
    """Klein-Gordon evolution: L_t^2 Psi = (Laplacian - m^2) Psi with data (Phi0, Phi1)."""
    lam = lambda_field(data.grid, m)
    c, s = time.multipliers(lam, t, allow_unstable=allow_unstable)
    return _combine(data, c, s)


def wave_kernels(grid: GridSpec, time: TimeModel, m: float, t: float, allow_unstable: bool = False):
    """Propagation kernels (K0, K1): inverse transforms of the multipliers.

    K0 at t = 0 is the inverse transform of the constant 1; both kernels are
    real for real-even multipliers.  solve_kg_by_kernels shows the exact
    convolution recipe that rebuilds the solution from them.
    """
    lam = lambda_field(grid, m)
    c, s = time.multipliers(lam, t, allow_unstable=allow_unstable)
    return scalar_kernel(grid, c), scalar_kernel(grid, s)


def solve_kg_by_kernels(data: CauchyData, time: TimeModel, m: float, t: float, allow_unstable: bool = False) -> LatticeField:
    """Kernel-convolution route to solve_kg (cross-validation path).

    (2 pi)^(-n/2) [ K0 * Phi0 + K1 * Phi1 ] with * the h^n-weighted discrete
    convolution; the prefactor undoes the grid convolution theorem's
    (2 pi)^(n/2).
    """
    K0, K1 = wave_kernels(data.grid, time, m, t, allow_unstable=allow_unstable)
    n = data.grid.n
    out = convolve(K0, data.phi0) + convolve(K1, data.phi1)
    return (2.0 * np.pi) ** (-n / 2.0) * out


def kg_residual(psi_prev: LatticeField, psi_mid: LatticeField, psi_next: LatticeField, m: float, tau: float) -> float:
    """Relative leapfrog residual of three consecutive slices (t-tau, t, t+tau).

    norm([next - 2 mid + prev]/tau^2 - Laplacian mid + m^2 mid), divided by
    the larger of the two sides' norms; zero fields give zero.
    """
    quot = (psi_next - 2.0 * psi_mid + psi_prev) * (1.0 / float(tau) ** 2)
    rhs = discrete_laplacian(psi_mid) - (float(m) ** 2) * psi_mid
    scale = max(norm(quot), norm(rhs))
    if scale == 0.0:
        return 0.0
    return norm(quot - rhs) / scale


def _richardson(data: CauchyData, m: float, t: float, delta: float | None, rhs_of, quotient):
    """(extrapolated residual, estimated order) of a central quotient in t.

    ``quotient(plus, minus, mid, d)`` of the continuous-time solve_kg
    slices at t + d, t - d and t is compared against ``rhs_of(mid)`` at
    steps delta and delta/2.
    """
    time = TimeModel.continuous()
    if delta is None:
        delta = 1e-3 * max(1.0, abs(t))
    mid = solve_kg(data, time, m, t)
    rhs = rhs_of(mid)
    scale = max(norm(rhs), norm(mid), 1e-300)

    def resid(d: float) -> float:
        quot = quotient(solve_kg(data, time, m, t + d), solve_kg(data, time, m, t - d), mid, d)
        return norm(quot - rhs) / scale

    r1 = resid(delta)
    r2 = resid(delta / 2.0)
    order = np.log2(r1 / r2) if r2 > 0 else np.inf
    extrap = abs(4.0 * r2 - r1) / 3.0
    return extrap, float(order)


def continuous_kg_residual(data: CauchyData, m: float, t: float, delta: float | None = None):
    """Richardson check of the continuous-time equation at time t.

    Returns (extrapolated residual, estimated order): central second
    differences in t at steps delta and delta/2 are compared against
    (Laplacian - m^2) Psi(t); the plain residuals shrink like delta^2, so
    the order estimate should sit near 2 and the extrapolation well below
    either.
    """
    return _richardson(data, m, t, delta,
                       lambda mid: discrete_laplacian(mid) - (float(m) ** 2) * mid,
                       lambda plus, minus, mid, d: (plus - 2.0 * mid + minus) * (1.0 / d**2))


# -- Dirac ---------------------------------------------------------------------


def _dirac_velocity(f: LatticeField, alpha: float, m: float) -> LatticeField:
    """i (D - m gamma) f, the factor i applied after the Clifford product."""
    return idft(1j * apply_multiplier(dft(f), _dirac_symbol(f.grid, alpha, m)))


def dirac_data(phi0: LatticeField, alpha: float, m: float) -> CauchyData:
    """Cauchy pair (Phi0, i(D - m gamma)Phi0) that drives the first-order flow."""
    if not (0.0 <= alpha <= 0.5):
        raise ValueError(f"alpha must lie in [0, 1/2], got {alpha}")
    return CauchyData(phi0, _dirac_velocity(phi0, alpha, m))


def solve_dirac(phi0: LatticeField, time: TimeModel, alpha: float, m: float, t: float, allow_unstable: bool = False) -> LatticeField:
    """First-order evolution -i L_t Psi = (D - m gamma) Psi, Psi(0) = Phi0.

    Realized by feeding the Klein-Gordon solver the derived velocity
    Phi1 = i (D - m gamma) Phi0; the factorization (D - m gamma)^2 =
    -Laplacian + m^2 makes the pair solve the first-order equation on the
    t-grid.
    """
    return solve_kg(dirac_data(phi0, alpha, m), time, m, t, allow_unstable=allow_unstable)


def dirac_residual(psi_minus: LatticeField, psi_mid: LatticeField, psi_plus: LatticeField,
                   alpha: float, m: float, tau: float) -> float:
    """Relative residual of [Psi(t+tau/2) - Psi(t-tau/2)]/tau = i(D - m gamma) Psi(t)."""
    quot = (psi_plus - psi_minus) * (1.0 / float(tau))
    rhs = _dirac_velocity(psi_mid, alpha, m)
    scale = max(norm(quot), norm(rhs))
    if scale == 0.0:
        return 0.0
    return norm(quot - rhs) / scale


def continuous_dirac_residual(phi0: LatticeField, alpha: float, m: float, t: float,
                              delta: float | None = None):
    """Richardson check of d/dt Psi = i(D - m gamma) Psi at time t.

    Same contract as continuous_kg_residual: returns (extrapolated residual,
    estimated order), the plain central-quotient residuals being O(delta^2).
    """
    return _richardson(dirac_data(phi0, alpha, m), m, t, delta,
                       lambda mid: _dirac_velocity(mid, alpha, m),
                       lambda plus, minus, mid, d: (plus - minus) * (1.0 / (2.0 * d)))


# -- Chebyshev route -----------------------------------------------------------


def chebyshev_t(k: int, x: np.ndarray) -> np.ndarray:
    """T_k by the three-term recurrence (no trigonometric shortcuts)."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if k == 0:
        return prev
    cur = x.copy()
    for _ in range(k - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def chebyshev_u(k: int, x: np.ndarray) -> np.ndarray:
    """U_k by recurrence; U_{-1} = 0."""
    if k < -1:
        raise ValueError("degree must be >= -1")
    x = np.asarray(x, dtype=float)
    if k == -1:
        return np.zeros_like(x)
    prev = np.ones_like(x)  # U_0
    if k == 0:
        return prev
    cur = 2.0 * x
    for _ in range(k - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def chebyshev_solve(data: CauchyData, tau: float, m: float, t: float) -> LatticeField:
    """Central-difference solution via Chebyshev multipliers.

    Applies T_k(chi) and (tau/2) U_{k-1}(chi) with chi = sqrt(1 -
    (tau^2/4)(d^2 + m^2)) and k = 2t/tau a nonnegative integer; requires the
    stability bound (chi real) and must agree with solve_kg on the
    central-difference model.
    """
    tau = float(tau)
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    kf = 2.0 * t / tau
    k = round(kf)
    if abs(kf - k) > 1e-9 * max(1.0, abs(kf)) or k < 0:
        raise ValueError(f"2t/tau must be a nonnegative integer, got {kf}")
    lam2 = d2_field(data.grid) + float(m) ** 2
    arg = 1.0 - tau**2 / 4.0 * lam2
    if np.any(arg < 0.0):
        raise CflViolationError(float(np.sqrt(lam2.max())), 2.0 / tau)
    chi = np.sqrt(arg)
    c = chebyshev_t(k, chi)
    s = tau / 2.0 * chebyshev_u(k - 1, chi)
    return _combine(data, c, s)


# -- brute-force oracle ---------------------------------------------------------


def leapfrog_march(psi_prev: LatticeField, psi_cur: LatticeField, m: float, tau: float, steps: int) -> LatticeField:
    """Position-space leapfrog: advance `steps` full steps from (t-tau, t).

    Psi(t+tau) = 2 Psi(t) - Psi(t-tau) + tau^2 (Laplacian - m^2) Psi(t).
    Returns the slice at t + steps*tau.  Deliberately shares no code with
    the spectral path beyond the Laplacian stencil.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    tau = float(tau)
    m2 = float(m) ** 2
    prev, cur = psi_prev, psi_cur
    for _ in range(steps):
        nxt = 2.0 * cur - prev + tau**2 * (discrete_laplacian(cur) - m2 * cur)
        prev, cur = cur, nxt
    return cur
