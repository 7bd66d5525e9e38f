"""Closed-form solvers for the lattice Klein-Gordon and Dirac equations.

Everything is spectral: initial data are transformed, multiplied pointwise
by scalar functions of lambda(xi) = sqrt(d(xi)**2 + m**2) (and, for Dirac,
by the first-order symbol), and transformed back.

    Psi(t) = idft[ c(lambda, t) F Phi0 + s(lambda, t) F Phi1 ]

with (c, s) the wave-multiplier pair of the chosen time model, a
``umbral.DeltaOperator`` (exported here as ``TimeModel``) that also owns
its time lattice, its CFL bound and whether to evaluate past it, so no
solver takes a stability flag of its own.  Only c and s depend on t.  A
``Propagator`` is the plan of one run: it transforms the Cauchy data once,
on its first slice, keeps F Phi0, F Phi1 and lambda, and then evaluates
every slice with one multiplier pair, one combine and one inverse
transform; a Dirac plan takes F Phi1 = i(z - m gamma) F Phi0 from F Phi0.
``solve_kg`` and ``solve_dirac`` take either the data, for a one-shot
solve that combines in its own transforms, or a plan.  Both routes run the
same ``_combine``, so a slice has the same bits either way.

For the central-difference model the result satisfies the three-level
leapfrog recurrence exactly (per mode), which the residual helpers check;
an independent position-space leapfrog marcher is provided as a brute-force
cross-check.  The kernel path (inverse transforms of c and s, combined by
discrete convolution with a (2 pi)^|-n/2| normalization) is a second,
deliberately separate route to the same solution.  None of these twins
touches a plan or ``_combine`` (see tests/test_oracle_independence.py).

Admissible times: any real for the continuous model; integer multiples of
tau/2 for the central-difference model (negative multiples run the
evolution backwards, which the recurrences support).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import _alpha, _finite, _integer, _positive
from .lattice import GridSpec, LatticeField, align, discrete_laplacian, norm
from .spectral import SpectralField, _dirac_symbol, apply_multiplier, convolve, d2_field, dft, idft, scalar_kernel
from .umbral import CflViolationError, DeltaOperator

# The time axis of every solver is a delta operator: TimeModel.continuous() or
# TimeModel.central_difference(tau), which owns its time lattice, its CFL bound
# and its multipliers.
TimeModel = DeltaOperator

__all__ = [
    "TimeModel",
    "CauchyData",
    "Propagator",
    "lambda_field",
    "lambda_max",
    "solve_kg",
    "solve_kg_by_kernels",
    "wave_symbols",
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
    return np.sqrt(d2_field(grid) + _finite(m, "mass m") ** 2)  # any sign: the sign of -m gamma matters for Dirac


def lambda_max(grid: GridSpec, m: float) -> float:
    return float(np.sqrt(4.0 * grid.n / grid.h**2 + _finite(m, "mass m") ** 2))


def wave_symbols(grid: GridSpec, time: TimeModel, m: float, t: float):
    """The wave-multiplier pair (c, s) at time t, sampled on the momentum grid."""
    return time.multipliers(lambda_field(grid, m), t)


def _combine(F0: SpectralField, F1: SpectralField, c: np.ndarray, s: np.ndarray, owned: bool) -> LatticeField:
    """idft(c F0 + s F1) on the union of the two supports.

    ``owned`` says that F0 and F1 were made for this call, so the combine
    may overwrite them.  Otherwise it writes only into buffers it allocates
    (``align`` pads a missing column into a fresh copy), and F0 and F1 keep
    their values for the next slice.
    """
    support, (A, B) = align(F0, F1)
    # c[..., None] * F0 + s[..., None] * F1 in that operand order, which fixes the bits
    A = np.multiply(c[..., None], A, out=A if owned or A is not F0.columns else None)
    B = np.multiply(s[..., None], B, out=B if owned or B is not F1.columns else None)
    A += B
    return idft(SpectralField._of(F0.grid, support, A), out=A)


class Propagator:
    """Propagation plan of one run: the Cauchy data transformed once, for every slice.

    ``Propagator(data, m)`` plans the Klein-Gordon flow of ``data``;
    ``Propagator.dirac(phi0, alpha, m)`` plans the first-order flow from
    Phi0, whose velocity transform F Phi1 = i(z - m gamma) F Phi0 it takes
    from its own F Phi0.  Nothing is transformed until the first slice.  Then
    the plan keeps lambda, F Phi0 on Phi0's own support and F Phi1, and each
    slice ``at(time, t)`` costs one multiplier pair, one ``_combine`` into
    fresh buffers and one ``idft``.
    """

    def __init__(self, data: CauchyData, m: float):
        self.grid, self.m, self.alpha = data.grid, _finite(m, "mass m"), None
        self._data = data
        self._spectra = None  # (lambda, F Phi0, F Phi1), made by the first slice

    @classmethod
    def dirac(cls, phi0: LatticeField, alpha: float, m: float) -> "Propagator":
        alpha = _alpha(alpha)
        plan = cls(CauchyData.rest(phi0), m)  # its zero Phi1 is never read: the first slice derives Phi1
        plan.alpha = alpha
        return plan

    def _checked(self, m: float, alpha: float | None = None) -> "Propagator":
        """The plan itself, if it was built for this mass and flow."""
        if (_finite(m, "mass m"), alpha) != (self.m, self.alpha):
            raise ValueError(f"plan built for m={self.m}, alpha={self.alpha}; asked for m={m}, alpha={alpha}")
        return self

    def at(self, time: TimeModel, t: float) -> LatticeField:
        """The slice Psi(t) of the planned flow under ``time``."""
        if self._spectra is None:
            F0 = dft(self._data.phi0)
            F1 = dft(self._data.phi1) if self.alpha is None else _velocity_spectrum(F0, self.alpha, self.m)
            self._spectra = (lambda_field(self.grid, self.m), F0, F1)
        lam, F0, F1 = self._spectra
        c, s = time.multipliers(lam, t)
        return _combine(F0, F1, c, s, owned=False)


def solve_kg(data: CauchyData | Propagator, time: TimeModel, m: float, t: float) -> LatticeField:
    """Klein-Gordon evolution: L_t^2 Psi = (Laplacian - m^2) Psi with data (Phi0, Phi1).

    ``data`` may be a ``Propagator`` of the same mass, which evaluates the
    slice from the transforms it keeps.
    """
    if isinstance(data, Propagator):
        return data._checked(m).at(time, t)
    c, s = wave_symbols(data.grid, time, m, t)
    return _combine(dft(data.phi0), dft(data.phi1), c, s, owned=True)


def wave_kernels(grid: GridSpec, time: TimeModel, m: float, t: float):
    """Propagation kernels (K0, K1): inverse transforms of the multipliers ``wave_symbols``.

    K0 at t = 0 is the inverse transform of the constant 1; both kernels are
    real for real-even multipliers.  solve_kg_by_kernels shows the exact
    convolution recipe that rebuilds the solution from them.
    """
    c, s = wave_symbols(grid, time, m, t)
    return scalar_kernel(grid, c), scalar_kernel(grid, s)


def _convolve_pair(K0: LatticeField, K1: LatticeField, f0: LatticeField, f1: LatticeField) -> LatticeField:
    """(2 pi)^(-n/2) [ K0 * f0 + K1 * f1 ]: the kernel routes' recipe, shared by the plain and fractional kernels."""
    return (2.0 * np.pi) ** (-K0.grid.n / 2.0) * (convolve(K0, f0) + convolve(K1, f1))


def solve_kg_by_kernels(data: CauchyData, time: TimeModel, m: float, t: float) -> LatticeField:
    """Kernel-convolution route to solve_kg (cross-validation path).

    (2 pi)^(-n/2) [ K0 * Phi0 + K1 * Phi1 ] with * the h^n-weighted discrete
    convolution; the prefactor undoes the grid convolution theorem's
    (2 pi)^(n/2).
    """
    K0, K1 = wave_kernels(data.grid, time, m, t)
    return _convolve_pair(K0, K1, data.phi0, data.phi1)


def _relative_residual(quot: LatticeField, rhs: LatticeField) -> float:
    """norm(quot - rhs) over the larger of the two sides' norms; zero fields give zero."""
    scale = max(norm(quot), norm(rhs))
    return norm(quot - rhs) / scale if scale != 0.0 else 0.0


def kg_residual(psi_prev: LatticeField, psi_mid: LatticeField, psi_next: LatticeField, m: float, tau: float) -> float:
    """Relative leapfrog residual of three consecutive slices (t-tau, t, t+tau).

    norm([next - 2 mid + prev]/tau^2 - Laplacian mid + m^2 mid), divided by
    the larger of the two sides' norms; zero fields give zero.
    """
    quot = (psi_next - 2.0 * psi_mid + psi_prev) * (1.0 / _positive(tau, "tau") ** 2)
    return _relative_residual(quot, discrete_laplacian(psi_mid) - (_finite(m, "mass m") ** 2) * psi_mid)


def _richardson(plan: Propagator, t: float, psi: LatticeField | None, rhs_of, quotient):
    """(extrapolated residual, estimated order) of a central quotient in t.

    ``quotient(plus, minus, mid, d)`` of the plan's continuous-time slices
    at t + d, t - d and t is compared against ``rhs_of(mid)`` at steps
    delta = 1e-3 max(1, |t|) and delta/2.  ``psi`` is the slice at t if the
    caller holds it.
    """
    time = TimeModel.continuous()
    delta = 1e-3 * max(1.0, abs(t))
    mid = plan.at(time, t) if psi is None else psi
    rhs = rhs_of(mid)
    scale = max(norm(rhs), norm(mid), 1e-300)

    def resid(d: float) -> float:
        quot = quotient(plan.at(time, t + d), plan.at(time, t - d), mid, d)
        return norm(quot - rhs) / scale

    r1 = resid(delta)
    r2 = resid(delta / 2.0)
    order = np.log2(r1 / r2) if r2 > 0 else np.inf
    extrap = abs(4.0 * r2 - r1) / 3.0
    return extrap, float(order)


def continuous_kg_residual(data: CauchyData | Propagator, m: float, t: float, psi: LatticeField | None = None):
    """Richardson check of the continuous-time equation at time t.

    Returns (extrapolated residual, estimated order): central second
    differences in t at steps delta = 1e-3 max(1, |t|) and delta/2 are
    compared against (Laplacian - m^2) Psi(t); the plain residuals shrink
    like delta^2, so the order estimate should sit near 2 and the
    extrapolation well below either.  ``data`` may be a ``Propagator`` of
    the same mass, as in solve_kg, and ``psi`` the continuous-time slice
    Psi(t) the caller already holds.
    """
    return _richardson(data._checked(m) if isinstance(data, Propagator) else Propagator(data, m), t, psi,
                       lambda mid: discrete_laplacian(mid) - (float(m) ** 2) * mid,
                       lambda plus, minus, mid, d: (plus - 2.0 * mid + minus) * (1.0 / d**2))


# -- Dirac ---------------------------------------------------------------------


def _velocity_spectrum(F: SpectralField, alpha: float, m: float) -> SpectralField:
    """i (z - m gamma) F = dft(i (D - m gamma) f) from F = dft(f), i applied after the product."""
    V = apply_multiplier(F, _dirac_symbol(F.grid, alpha, m))
    cols = V.columns  # a fresh product: scaled in place
    cols *= 1j
    return V


def _dirac_velocity(F: SpectralField, alpha: float, m: float) -> LatticeField:
    """i (D - m gamma) f from F = dft(f)."""
    V = _velocity_spectrum(F, alpha, m)
    return idft(V, out=V.columns)


def dirac_data(phi0: LatticeField, alpha: float, m: float) -> CauchyData:
    """Cauchy pair (Phi0, i(D - m gamma)Phi0) that drives the first-order flow."""
    alpha, m = _alpha(alpha), _finite(m, "mass m")  # before the transform
    return CauchyData(phi0, _dirac_velocity(dft(phi0), alpha, m))


def solve_dirac(phi0: LatticeField | Propagator, time: TimeModel, alpha: float, m: float, t: float) -> LatticeField:
    """First-order evolution -i L_t Psi = (D - m gamma) Psi, Psi(0) = Phi0.

    Realized as the Klein-Gordon flow with the derived velocity Phi1 =
    i (D - m gamma) Phi0, transformed as i(z - m gamma) F Phi0; the
    factorization (D - m gamma)^2 = -Laplacian + m^2 makes the pair solve
    the first-order equation on the t-grid.  ``phi0`` may be a ``Propagator.dirac`` plan of the same alpha
    and mass.
    """
    if isinstance(phi0, Propagator):
        return phi0._checked(m, alpha).at(time, t)
    alpha = _alpha(alpha)
    c, s = wave_symbols(phi0.grid, time, m, t)
    F0 = dft(phi0)
    return _combine(F0, _velocity_spectrum(F0, alpha, m), c, s, owned=True)


def dirac_residual(psi_minus: LatticeField, psi_mid: LatticeField, psi_plus: LatticeField,
                   alpha: float, m: float, tau: float) -> float:
    """Relative residual of [Psi(t+tau/2) - Psi(t-tau/2)]/tau = i(D - m gamma) Psi(t)."""
    quot = (psi_plus - psi_minus) * (1.0 / _positive(tau, "tau"))
    m = _finite(m, "mass m")  # before the transform
    return _relative_residual(quot, _dirac_velocity(dft(psi_mid), alpha, m))


def continuous_dirac_residual(phi0: LatticeField | Propagator, alpha: float, m: float, t: float,
                              psi: LatticeField | None = None):
    """Richardson check of d/dt Psi = i(D - m gamma) Psi at time t.

    Same contract as continuous_kg_residual: returns (extrapolated residual,
    estimated order), the plain central-quotient residuals being O(delta^2).
    ``phi0`` may be a ``Propagator.dirac`` plan of the same alpha and mass,
    and ``psi`` the continuous-time slice Psi(t) the caller already holds.
    """
    plan = phi0._checked(m, alpha) if isinstance(phi0, Propagator) else Propagator.dirac(phi0, alpha, m)
    return _richardson(plan, t, psi,
                       lambda mid: _dirac_velocity(dft(mid), alpha, m),
                       lambda plus, minus, mid, d: (plus - minus) * (1.0 / (2.0 * d)))


# -- Chebyshev route -----------------------------------------------------------


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
    # its own combine, not solve_kg's _combine: a twin must not share the code it checks
    support, (F0, F1) = align(dft(data.phi0), dft(data.phi1))
    return idft(SpectralField._of(data.grid, support, c[..., None] * F0 + s[..., None] * F1))


# -- brute-force oracle ---------------------------------------------------------


def leapfrog_march(psi_prev: LatticeField, psi_cur: LatticeField, m: float, tau: float, steps: int) -> LatticeField:
    """Position-space leapfrog: advance `steps` full steps from (t-tau, t).

    Psi(t+tau) = 2 Psi(t) - Psi(t-tau) + tau^2 (Laplacian - m^2) Psi(t).
    Returns the slice at t + steps*tau.  Deliberately shares no code with
    the spectral path beyond the Laplacian stencil.
    """
    steps = _integer(steps, "steps", 0)
    tau = _positive(tau, "tau")
    m2 = _finite(m, "mass m") ** 2
    prev, cur = psi_prev, psi_cur
    for _ in range(steps):
        nxt = 2.0 * cur - prev + tau**2 * (discrete_laplacian(cur) - m2 * cur)
        prev, cur = cur, nxt
    return cur
