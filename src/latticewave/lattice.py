"""Periodic lattices of multivector values and their stencil operators.

A grid covers ``[0, N_j h)`` per axis with sites ``x = h k``, ``k`` integer,
and periodic wrap-around.  Fields store one dense blade-coefficient vector
per site, shape ``(*shape, 4**n)`` complex.

Sign conventions used throughout:

* ``shift(f, j, s)`` moves field content by ``+s`` sites along axis ``j``,
  i.e. returns ``x -> f(x - s h e_j)``.
* ``discrete_laplacian`` is the symmetric second-difference stencil
  ``sum_j [f(x + h e_j) + f(x - h e_j) - 2 f(x)] / h**2``.
* ``dirac_kahler`` with step ``eps`` applies, by left Clifford
  multiplication,

      sum_j e_j     [f(x + eps e_j) - f(x - eps e_j)] / (2 eps)
    + sum_j e_{n+j} [2 f(x) - f(x + eps e_j) - f(x - eps e_j)] / (2 eps)

  and ``dirac_kahler_dagger`` negates the first (antisymmetric) sum.
* ``inner_product(f, g) = sum_x h**n f(x)^† g(x)`` is multivector valued;
  its scalar part is the positive-definite pairing behind ``norm``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .clifford import Multivector, Signature, dagger_arrays, mul_arrays

__all__ = [
    "GridSpec",
    "LatticeField",
    "shift",
    "discrete_laplacian",
    "dirac_kahler",
    "dirac_kahler_dagger",
    "inner_product",
    "norm",
    "relative_gap",
    "random_field",
]


@dataclass(frozen=True)
class GridSpec:
    """Periodic lattice: per-axis point counts, spacing, and model parameters.

    ``alpha`` is the splitting parameter of the Dirac symbol family (0 for
    the plain forward/backward stencil, 1/2 for the half-step central one)
    and ``mass`` the default mass; both are carried here so a grid fully
    determines the operators a run uses, but every operator also accepts
    them explicitly.
    """

    shape: tuple[int, ...]
    h: float
    alpha: float = 0.0
    mass: float = 0.0

    def __post_init__(self) -> None:
        shape = tuple(int(N) for N in self.shape)
        object.__setattr__(self, "shape", shape)
        Signature(len(shape))  # validates 1 <= n <= 5
        for N in shape:
            if N <= 0 or N % 2 != 0:
                raise ValueError(f"points per axis must be even and positive, got {N}")
        if not (0 < self.h < np.inf):
            raise ValueError(f"spacing h must be positive and finite, got {self.h}")
        if not (0.0 <= self.alpha <= 0.5):
            raise ValueError(f"alpha must lie in [0, 1/2], got {self.alpha}")
        if not (0 <= self.mass < np.inf):
            raise ValueError(f"mass must be nonnegative and finite, got {self.mass}")

    @property
    def n(self) -> int:
        return len(self.shape)

    @property
    def sig(self) -> Signature:
        return Signature(self.n)

    @property
    def blades(self) -> int:
        return self.sig.blades

    @property
    def site_count(self) -> int:
        return int(np.prod(self.shape))

    def coordinates(self, symmetric: bool = False) -> tuple[np.ndarray, ...]:
        """Per-axis site coordinates ``h*k``; symmetric wraps into (-Nh/2, Nh/2]."""
        out = []
        for N in self.shape:
            k = np.arange(N)
            if symmetric:
                k = np.where(k <= N // 2, k, k - N)
            out.append(self.h * k)
        return tuple(out)

    def refined(self) -> "GridSpec":
        """Grid with doubled points and halved spacing (same physical box)."""
        return GridSpec(tuple(2 * N for N in self.shape), self.h / 2, self.alpha, self.mass)


@dataclass(frozen=True)
class LatticeField:
    """Multivector-valued field on a periodic grid: values (*shape, 4**n)."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=complex)
        expect = self.grid.shape + (self.grid.blades,)
        if vals.shape != expect:
            raise ValueError(f"expected values of shape {expect}, got {vals.shape}")
        object.__setattr__(self, "values", vals)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, grid: GridSpec) -> "LatticeField":
        return cls(grid, np.zeros(grid.shape + (grid.blades,), dtype=complex))

    @classmethod
    def delta(cls, grid: GridSpec) -> "LatticeField":
        """Scalar Kronecker delta at the origin (value 1, not h**-n normalized)."""
        vals = np.zeros(grid.shape + (grid.blades,), dtype=complex)
        vals[(0,) * grid.n + (0,)] = 1.0
        return cls(grid, vals)

    @classmethod
    def from_scalar(cls, grid: GridSpec, data: np.ndarray) -> "LatticeField":
        data = np.asarray(data, dtype=complex)
        if data.shape != grid.shape:
            raise ValueError(f"scalar data must have shape {grid.shape}, got {data.shape}")
        vals = np.zeros(grid.shape + (grid.blades,), dtype=complex)
        vals[..., 0] = data
        return cls(grid, vals)

    @classmethod
    def constant(cls, grid: GridSpec, mv: Multivector) -> "LatticeField":
        if mv.sig != grid.sig:
            raise ValueError("signature mismatch between grid and multivector")
        vals = np.broadcast_to(mv.coeffs, grid.shape + (grid.blades,)).copy()
        return cls(grid, vals)

    @classmethod
    def plane_wave(cls, grid: GridSpec, mode: Sequence[int]) -> "LatticeField":
        """Scalar plane wave exp(i xi_k . x) for integer mode numbers k."""
        mode = tuple(int(m) for m in mode)
        if len(mode) != grid.n:
            raise ValueError(f"mode needs {grid.n} components, got {len(mode)}")
        phase = np.zeros(grid.shape)
        for axis, (N, m) in enumerate(zip(grid.shape, mode)):
            if not (-N // 2 < m <= N // 2):
                raise ValueError(f"mode {m} outside (-{N // 2}, {N // 2}] on axis {axis + 1}")
            k = np.arange(N).reshape([-1 if a == axis else 1 for a in range(grid.n)])
            phase = phase + 2 * np.pi * m * k / N
        return cls.from_scalar(grid, np.exp(1j * phase))

    @classmethod
    def gaussian(cls, grid: GridSpec, width: float) -> "LatticeField":
        if width <= 0:
            raise ValueError("gaussian width must be positive")
        r2 = np.zeros(grid.shape)
        for axis, x in enumerate(grid.coordinates(symmetric=True)):
            xs = x.reshape([-1 if a == axis else 1 for a in range(grid.n)])
            r2 = r2 + xs**2
        return cls.from_scalar(grid, np.exp(-r2 / (2.0 * width**2)))

    # -- access and arithmetic ----------------------------------------------

    def at(self, *index: int) -> Multivector:
        """Multivector at a site index (periodic wrap applies)."""
        idx = tuple(int(i) % N for i, N in zip(index, self.grid.shape))
        if len(idx) != self.grid.n:
            raise ValueError(f"need {self.grid.n} indices")
        return Multivector(self.grid.sig, self.values[idx])

    def _check(self, other: "LatticeField") -> None:
        if self.grid != other.grid:
            raise ValueError("grid mismatch between fields")

    def __add__(self, other: "LatticeField") -> "LatticeField":
        self._check(other)
        return LatticeField(self.grid, self.values + other.values)

    def __sub__(self, other: "LatticeField") -> "LatticeField":
        self._check(other)
        return LatticeField(self.grid, self.values - other.values)

    def __neg__(self) -> "LatticeField":
        return LatticeField(self.grid, -self.values)

    def __mul__(self, scalar: complex) -> "LatticeField":
        return LatticeField(self.grid, self.values * complex(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar: complex) -> "LatticeField":
        return LatticeField(self.grid, self.values / complex(scalar))

    def left_mul(self, mv: Multivector) -> "LatticeField":
        """Pointwise left multiplication x -> a f(x) by a constant multivector."""
        if mv.sig != self.grid.sig:
            raise ValueError("signature mismatch")
        return LatticeField(self.grid, mul_arrays(self.grid.n, mv.coeffs, self.values))

    def allclose(self, other: "LatticeField", tol: float = 1e-12) -> bool:
        self._check(other)
        return bool(np.all(np.abs(self.values - other.values) <= tol))


def random_field(grid: GridSpec, rng: np.random.Generator, scalar: bool = False) -> LatticeField:
    """Standard-normal complex field over all blades (or the scalar blade only)."""
    shape = grid.shape + (grid.blades,)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if scalar:
        keep = np.zeros(grid.blades)
        keep[0] = 1.0
        vals = vals * keep
    return LatticeField(grid, vals)


def shift(f: LatticeField, axis: int, steps: int) -> LatticeField:
    """Translate field content by +steps sites along a 1-based axis.

    Returns the field ``x -> f(x - steps*h*e_axis)``; a delta at the origin
    shifted by +1 sits at site index 1 of that axis.
    """
    if not (1 <= axis <= f.grid.n):
        raise ValueError(f"axis must be in 1..{f.grid.n}, got {axis}")
    return LatticeField(f.grid, np.roll(f.values, int(steps), axis=axis - 1))


def discrete_laplacian(f: LatticeField) -> LatticeField:
    """Symmetric second-difference Laplacian with periodic wrap."""
    g = f.grid
    out = np.zeros_like(f.values)
    for axis in range(g.n):
        fp = np.roll(f.values, -1, axis=axis)  # f(x + h e_j)
        fm = np.roll(f.values, +1, axis=axis)  # f(x - h e_j)
        out += (fp + fm - 2.0 * f.values) / g.h**2
    return LatticeField(g, out)


def _dirac_steps(grid: GridSpec, eps: float | None) -> tuple[int, float]:
    eps = grid.h if eps is None else float(eps)
    ratio = eps / grid.h
    k = round(ratio)
    if k < 1 or abs(ratio - k) > 1e-9:
        raise ValueError(f"eps must be a positive integer multiple of h, got eps={eps}, h={grid.h}")
    return k, eps


def _dirac_kahler(f: LatticeField, eps: float | None, first_sign: float) -> LatticeField:
    g = f.grid
    n = g.n
    k, eps = _dirac_steps(g, eps)
    out = np.zeros_like(f.values)
    for j in range(1, n + 1):
        fp = np.roll(f.values, -k, axis=j - 1)  # f(x + eps e_j)
        fm = np.roll(f.values, +k, axis=j - 1)  # f(x - eps e_j)
        odd = first_sign * (fp - fm) / (2.0 * eps)
        even = (2.0 * f.values - fp - fm) / (2.0 * eps)
        ej = Multivector.generator(g.sig, j).coeffs
        enj = Multivector.generator(g.sig, n + j).coeffs
        out += mul_arrays(n, ej, odd) + mul_arrays(n, enj, even)
    return LatticeField(g, out)


def dirac_kahler(f: LatticeField, eps: float | None = None) -> LatticeField:
    """First-order Clifford stencil whose square is minus the Laplacian (eps = h)."""
    return _dirac_kahler(f, eps, +1.0)


def dirac_kahler_dagger(f: LatticeField, eps: float | None = None) -> LatticeField:
    """Adjoint stencil: the antisymmetric e_j sum enters with opposite sign."""
    return _dirac_kahler(f, eps, -1.0)


def inner_product(f: LatticeField, g: LatticeField) -> Multivector:
    """Multivector pairing sum_x h**n f(x)^† g(x)."""
    f._check(g)
    n = f.grid.n
    prod = mul_arrays(n, dagger_arrays(n, f.values), g.values)
    total = prod.reshape(-1, f.grid.blades).sum(axis=0) * f.grid.h**n
    return Multivector(f.grid.sig, total)


def norm(f: LatticeField) -> float:
    """sqrt of the scalar part of <f, f>; h**n weighted two-norm."""
    return float(np.sqrt(f.grid.h**f.grid.n * np.sum(np.abs(f.values) ** 2)))


def relative_gap(got: LatticeField, want: LatticeField) -> float:
    """norm(got - want) / norm(want), with an absolute fallback near zero."""
    scale = norm(want)
    diff = norm(got - want)
    return diff / scale if scale > 1e-300 else diff
