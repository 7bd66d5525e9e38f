"""Periodic lattices of multivector values and their stencil operators.

A grid covers ``[0, N_j h)`` per axis with sites ``x = h k``, ``k`` integer,
and periodic wrap-around.  A field stores only its active blade columns: an
ascending tuple ``support`` of blade masks and a ``(*shape, k)`` complex
array ``columns``, one column per mask.  Every blade outside the support is
exactly zero, so scalar data keeps one column in any dimension and Dirac
data ``2n + 2``.  ``values`` builds the dense ``(*shape, 4**n)`` array on
access; with every blade active it is the column array itself.

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

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .clifford import Multivector, Signature, active_blades, dagger_arrays, mul_arrays, mul_columns

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


class _CompactField:
    """Compact blade layout shared by lattice and momentum-space fields.

    A field keeps ``support``, the ascending tuple of its active blade masks,
    and ``columns``, a ``(*shape, k)`` complex array whose column ``c`` holds
    the coefficients of blade ``support[c]``; every other blade is exactly
    zero.  ``values`` is the dense ``(*shape, 4**n)`` array, built on access
    (read-only); with every blade active it is ``columns`` itself.

    The public constructor takes a dense array and finds its support in one
    reduction.  Operations on two fields run on the union of their supports,
    padding a missing column with zeros, so each active column sees the same
    numpy operations as in the dense layout.  A blade that cancels may stay
    in the support: a superset is always correct.
    """

    __slots__ = ("grid", "support", "columns")

    def __init__(self, grid: GridSpec, values: np.ndarray) -> None:
        vals = np.asarray(values, dtype=complex)
        expect = grid.shape + (grid.blades,)
        if vals.shape != expect:
            raise ValueError(f"expected values of shape {expect}, got {vals.shape}")
        act = active_blades(vals)
        self._set(grid, tuple(act.tolist()), vals if act.size == grid.blades else vals[..., act])

    def _set(self, grid: GridSpec, support: tuple[int, ...], columns: np.ndarray) -> None:
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "columns", columns)

    @classmethod
    def _of(cls, grid: GridSpec, support: tuple[int, ...], columns: np.ndarray):
        """Field from columns already laid out on an ascending ``support``."""
        obj = object.__new__(cls)
        obj._set(grid, support, columns)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self)._of, (self.grid, self.support, self.columns)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(grid={self.grid!r}, support={self.support!r})"

    @property
    def values(self) -> np.ndarray:
        """Dense ``(*shape, 4**n)`` coefficients; ``columns`` itself when every blade is active."""
        if len(self.support) == self.grid.blades:
            return self.columns
        out = np.zeros(self.grid.shape + (self.grid.blades,), dtype=complex)
        out[..., list(self.support)] = self.columns
        out.setflags(write=False)
        return out

    def _widened(self, blades):
        """The same field on the union of its support and ``blades``, zero columns added."""
        # a mask over the 4**n blades, not np.union1d: np.unique imports numpy.ma on first use
        present = np.zeros(self.grid.blades, dtype=bool)
        present[list(self.support)] = True
        present[np.asarray(blades, dtype=np.intp)] = True
        support = tuple(np.flatnonzero(present).tolist())
        if support == self.support:
            return self
        cols = np.zeros(self.grid.shape + (len(support),), dtype=complex)
        cols[..., np.searchsorted(support, self.support)] = self.columns
        return self._like(support, cols)

    def at(self, *index: int) -> Multivector:
        """Multivector at a site index (periodic wrap applies)."""
        idx = tuple(int(i) % N for i, N in zip(index, self.grid.shape))
        if len(idx) != self.grid.n:
            raise ValueError(f"need {self.grid.n} indices")
        coeffs = np.zeros(self.grid.blades, dtype=complex)
        coeffs[list(self.support)] = self.columns[idx]
        return Multivector(self.grid.sig, coeffs)

    def _check(self, other: "_CompactField") -> None:
        if self.grid != other.grid:
            raise ValueError("grid mismatch between fields")

    def _like(self, support: tuple[int, ...], columns: np.ndarray):
        return type(self)._of(self.grid, support, columns)

    def __add__(self, other):
        support, (a, b) = align(self, other)
        return self._like(support, a + b)

    def __sub__(self, other):
        support, (a, b) = align(self, other)
        return self._like(support, a - b)

    def __neg__(self):
        return self._like(self.support, -self.columns)

    def __mul__(self, scalar: complex):
        return self._like(self.support, self.columns * complex(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar: complex):
        return self._like(self.support, self.columns / complex(scalar))


def align(*fields: _CompactField) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """Union support of fields on one grid, and each field's columns on it."""
    for f in fields[1:]:
        fields[0]._check(f)
    support = fields[0].support
    if all(f.support == support for f in fields[1:]):
        return support, [f.columns for f in fields]
    support = tuple(sorted(set().union(*(f.support for f in fields))))
    return support, [f._widened(support).columns for f in fields]


class LatticeField(_CompactField):
    """Multivector-valued field on a periodic grid, in the compact blade layout.

    ``LatticeField(grid, values)`` accepts a dense ``(*shape, 4**n)`` array.
    """

    __slots__ = ()

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, grid: GridSpec) -> "LatticeField":
        return cls._of(grid, (), np.zeros(grid.shape + (0,), dtype=complex))

    @classmethod
    def delta(cls, grid: GridSpec) -> "LatticeField":
        """Scalar Kronecker delta at the origin (value 1, not h**-n normalized)."""
        cols = np.zeros(grid.shape + (1,), dtype=complex)
        cols[(0,) * (grid.n + 1)] = 1.0
        return cls._of(grid, (0,), cols)

    @classmethod
    def from_scalar(cls, grid: GridSpec, data: np.ndarray) -> "LatticeField":
        data = np.array(data, dtype=complex)
        if data.shape != grid.shape:
            raise ValueError(f"scalar data must have shape {grid.shape}, got {data.shape}")
        return cls._of(grid, (0,), data[..., None])

    @classmethod
    def constant(cls, grid: GridSpec, mv: Multivector) -> "LatticeField":
        if mv.sig != grid.sig:
            raise ValueError("signature mismatch between grid and multivector")
        act = np.flatnonzero(mv.coeffs)
        cols = np.broadcast_to(mv.coeffs[act], grid.shape + (act.size,)).copy()
        return cls._of(grid, tuple(act.tolist()), cols)

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
        if not 0 < width < np.inf:
            raise ValueError(f"gaussian width must be positive and finite, got {width}")
        r2 = np.zeros(grid.shape)
        for axis, x in enumerate(grid.coordinates(symmetric=True)):
            xs = x.reshape([-1 if a == axis else 1 for a in range(grid.n)])
            r2 = r2 + xs**2
        return cls.from_scalar(grid, np.exp(-r2 / (2.0 * width**2)))

    # -- products -----------------------------------------------------------

    def left_mul(self, mv: Multivector) -> "LatticeField":
        """Pointwise left multiplication x -> a f(x) by a constant multivector."""
        if mv.sig != self.grid.sig:
            raise ValueError("signature mismatch")
        act = np.flatnonzero(mv.coeffs)
        return self._like(*mul_columns(self.grid.n, act, mv.coeffs[act], self.support, self.columns))

    def allclose(self, other: "LatticeField", tol: float = 1e-12) -> bool:
        _, (a, b) = align(self, other)
        return bool(np.all(np.abs(a - b) <= tol))


def random_field(grid: GridSpec, rng: np.random.Generator, scalar: bool = False) -> LatticeField:
    """Standard-normal complex field over all blades (or the scalar blade only).

    The real parts of every blade are drawn, then the imaginary parts, either
    way, so a seed gives the same scalar column in both cases; only the kept
    columns outlive the draw.
    """
    shape = grid.shape + (grid.blades,)
    support = (0,) if scalar else tuple(range(grid.blades))
    cols = np.empty(grid.shape + (len(support),), dtype=complex)
    cols.real = rng.standard_normal(shape)[..., : len(support)]
    cols.imag = rng.standard_normal(shape)[..., : len(support)]
    return LatticeField._of(grid, support, cols)


def shift(f: LatticeField, axis: int, steps: int) -> LatticeField:
    """Translate field content by +steps sites along a 1-based axis.

    Returns the field ``x -> f(x - steps*h*e_axis)``; a delta at the origin
    shifted by +1 sits at site index 1 of that axis.
    """
    if not (1 <= axis <= f.grid.n):
        raise ValueError(f"axis must be in 1..{f.grid.n}, got {axis}")
    if not float(steps).is_integer():
        raise ValueError(f"steps must be an integer, got {steps!r}")
    return f._like(f.support, np.roll(f.columns, int(steps), axis=axis - 1))


def discrete_laplacian(f: LatticeField) -> LatticeField:
    """Symmetric second-difference Laplacian with periodic wrap."""
    g = f.grid
    vals = f.columns
    out = np.zeros_like(vals)
    for axis in range(g.n):
        fp = np.roll(vals, -1, axis=axis)  # f(x + h e_j)
        fp += np.roll(vals, +1, axis=axis)  # f(x - h e_j)
        fp -= 2.0 * vals
        fp /= g.h**2
        out += fp
    return f._like(f.support, out)


def _dirac_steps(grid: GridSpec, eps: float | None) -> tuple[int, float]:
    eps = grid.h if eps is None else float(eps)
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be a positive finite multiple of h, got eps={eps}, h={grid.h}")
    ratio = eps / grid.h
    k = round(ratio)
    if k < 1 or abs(ratio - k) > 1e-9:
        raise ValueError(f"eps must be a positive integer multiple of h, got eps={eps}, h={grid.h}")
    return k, eps


_ONE = np.ones(1, dtype=complex)


def _dirac_kahler(f: LatticeField, eps: float | None, first_sign: float) -> LatticeField:
    g = f.grid
    n = g.n
    k, eps = _dirac_steps(g, eps)
    gens = [(1 << (j - 1), 1 << (n + j - 1)) for j in range(1, n + 1)]  # e_j, e_{n+j}
    support = tuple(sorted({b ^ e for pair in gens for e in pair for b in f.support}))

    def times(e: int, part: np.ndarray) -> np.ndarray:
        # a generator permutes the columns with signs; laid out on the sum's support
        return f._like(*mul_columns(n, (e,), _ONE, f.support, part))._widened(support).columns

    vals = f.columns
    out = np.zeros(g.shape + (len(support),), dtype=complex)
    for j, (ej, enj) in enumerate(gens, start=1):
        fp = np.roll(vals, -k, axis=j - 1)  # f(x + eps e_j)
        fm = np.roll(vals, +k, axis=j - 1)  # f(x - eps e_j)
        odd = first_sign * (fp - fm) / (2.0 * eps)
        even = (2.0 * vals - fp - fm) / (2.0 * eps)
        out += times(ej, odd) + times(enj, even)
    return f._like(support, out)


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


# numpy sums contiguous doubles pairwise: a block of 8m values splits into
# 8 * (m // 2) and the rest until it holds at most 128 values (16 rows of 8),
# and a leaf block sums 8 interleaved lanes, combined as
# ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)).  A dense field holds
# sites * 4**n values, a multiple of 8, so every block is whole rows.
_LEAF_ROWS = 16


@lru_cache(maxsize=8)
def _pairwise_plan(rows: int) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Leaf starts (in rows of 8 values) and, per tree level from the root,
    which blocks split and the leaf index of each block that does not."""
    starts, sizes = np.zeros(1, dtype=np.int64), np.array([rows], dtype=np.int64)
    levels = []
    while starts.size:
        split = sizes > _LEAF_ROWS
        levels.append((split, starts[~split]))
        half = sizes[split] // 2
        starts = np.stack([starts[split], starts[split] + half], axis=1).ravel()
        sizes = np.stack([half, sizes[split] - half], axis=1).ravel()
    leaf_starts = np.sort(np.concatenate([leaves for _, leaves in levels]))
    return leaf_starts, [(split, np.searchsorted(leaf_starts, leaves)) for split, leaves in levels]


@lru_cache(maxsize=16)
def _lanes(sites: int, blades: int, support: tuple[int, ...]) -> np.ndarray:
    """Flat (leaf, lane) slot of each active entry of the dense layout."""
    pos = (np.arange(sites, dtype=np.int64)[:, None] * blades + np.array(support)).ravel()
    leaf_starts, _ = _pairwise_plan(sites * blades // 8)
    return (np.searchsorted(leaf_starts, pos >> 3, side="right") - 1) * 8 + (pos & 7)


def _dense_sum(sq: np.ndarray, support: tuple[int, ...], blades: int):
    """``np.sum`` over the dense ``(*shape, blades)`` layout of nonnegative
    columns ``sq``, bit for bit, visiting only the active entries.

    Adding +0 leaves a partial sum of nonnegative terms unchanged, so each
    active value only needs its lane of its leaf block: ``np.add.at`` adds
    them in position order, i.e. row by row within a lane, and the leaf
    sums combine up the pairwise tree.
    """
    k = len(support)
    if k == blades:
        return np.sum(sq.reshape(-1))
    if not k:
        return 0.0
    vals = sq.reshape(-1)
    leaf_starts, levels = _pairwise_plan(vals.size // k * blades // 8)
    r = np.zeros((leaf_starts.size, 8))
    np.add.at(r.reshape(-1), _lanes(vals.size // k, blades, support), vals)
    acc = ((r[:, 0] + r[:, 1]) + (r[:, 2] + r[:, 3])) + ((r[:, 4] + r[:, 5]) + (r[:, 6] + r[:, 7]))
    below = None
    for split, leaf_ids in reversed(levels):
        level = np.empty(split.size)
        level[~split] = acc[leaf_ids]
        if below is not None:
            level[split] = below[0::2] + below[1::2]
        below = level
    return below[0]


def norm(f: LatticeField) -> float:
    """sqrt of the scalar part of <f, f>; h**n weighted two-norm.

    The squares are summed in the order of the dense layout, so the norm has
    the same bits whatever the support.
    """
    sq = np.abs(f.columns) ** 2
    return float(np.sqrt(f.grid.h**f.grid.n * _dense_sum(sq, f.support, f.grid.blades)))


def relative_gap(got: LatticeField, want: LatticeField) -> float:
    """norm(got - want) / norm(want), with an absolute fallback near zero."""
    scale = norm(want)
    diff = norm(got - want)
    return diff / scale if scale > 1e-300 else diff
