"""Brillouin-zone transforms and Fourier multipliers on periodic grids.

Transform pair (per axis, N sites, spacing h):

    forward   (F g)(xi)  = h**n (2 pi)**(-n/2) sum_x g(x) exp(+i x.xi)
    inverse   (F' G)(x)  = (2 pi)**(-n/2) sum_xi w G(xi) exp(-i x.xi),
                           w = (2 pi / (N h))**n

with momentum points ``xi_k = 2 pi k / (N h)`` for ``k`` in
``{-N/2 + 1, ..., N/2}``; note the positive Nyquist representative
``+pi/h``, which matters because the Dirac symbol below is not periodic in
``xi`` for general ``alpha``.  On the finite grid the Riemann-weight inverse
is exactly inverse to the forward sum.

``dft``/``idft`` evaluate the definitional per-axis sums through an FFT
(mathematically identical rescaling of ``numpy.fft``); ``dft_direct`` and
``idft_direct`` keep the per-axis matrix summation as an independent
reference path.

Multipliers act by pointwise LEFT Clifford multiplication in momentum space.
The discrete convolution implemented here is

    (f * g)(x) = sum_y h**n g(y) f(y - x)

whose exact transform identity on the grid is

    F[f * g](xi) = (2 pi)**(n/2) (F g)(xi) (F f)(-xi),

mind both the reflection in the second factor and the operand order for
noncommuting values.  ``convolve`` uses that identity; ``convolve_direct``
is the quadratic-cost reference sum.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .clifford import Multivector, Signature, _alpha, mul_arrays, mul_columns, pseudoscalar
from .lattice import GridSpec, LatticeField, _CompactField, discrete_laplacian, norm

__all__ = [
    "SpectralField",
    "frequencies",
    "axis_frequencies",
    "multiplier_d2",
    "multiplier_z",
    "d2_field",
    "z_field",
    "dirac_symbol",
    "dft",
    "idft",
    "dft_direct",
    "idft_direct",
    "apply_multiplier",
    "multiply_field",
    "scalar_kernel",
    "dirac_h_alpha",
    "factorization_check",
    "convolve",
    "convolve_direct",
    "reflect",
    "momentum_pairing",
    "momentum_weight",
]


class SpectralField(_CompactField):
    """Momentum-space field: blade columns per momentum point, compact layout.

    Values are laid out in FFT index order; entry ``b`` along an axis carries
    the frequency ``2 pi wrap(b) / (N h)`` with ``wrap(b) = b`` for
    ``b <= N/2`` and ``b - N`` otherwise.  ``SpectralField(grid, values)``
    accepts a dense ``(*shape, 4**n)`` array, like ``LatticeField``.
    """

    __slots__ = ()


def frequencies(N: int, h: float) -> np.ndarray:
    """Momentum points 2 pi k/(N h), k in {-N/2+1, .., N/2}, in FFT index order."""
    k = np.arange(N)
    k = np.where(k <= N // 2, k, k - N)
    return 2.0 * np.pi * k / (N * h)


def axis_frequencies(grid: GridSpec) -> tuple[np.ndarray, ...]:
    return tuple(frequencies(N, grid.h) for N in grid.shape)


def _axis_view(arr: np.ndarray, axis: int, n: int) -> np.ndarray:
    """Reshape a 1-d per-axis array for broadcasting over an n-d grid."""
    shape = [1] * n
    shape[axis] = -1
    return arr.reshape(shape)


def multiplier_d2(xi: Sequence[float] | float, h: float) -> float:
    """Laplacian symbol d(xi)**2 = (4/h**2) sum_j sin(h xi_j / 2)**2."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return float(np.sum((4.0 / h**2) * np.sin(h * xi / 2.0) ** 2))


def multiplier_z(xi: Sequence[float] | float, alpha: float, h: float) -> Multivector:
    """Dirac symbol z(xi) for splitting parameter alpha, in the signature of dimension len(xi).

    Component along e_j:      -i [sin((1-alpha) h xi_j) + sin(alpha h xi_j)] / h
    Component along e_{n+j}:     [cos(alpha h xi_j) - cos((1-alpha) h xi_j)] / h

    Squares (as a Clifford element) to d(xi)**2 times the scalar unit for
    every alpha in [0, 1/2].
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    n = xi.size
    sig = Signature(n)
    coeffs = np.zeros(sig.blades, dtype=complex)
    for j in range(1, n + 1):
        u = h * xi[j - 1]
        coeffs[1 << (j - 1)] = -1j * (np.sin((1.0 - alpha) * u) + np.sin(alpha * u)) / h
        coeffs[1 << (n + j - 1)] = (np.cos(alpha * u) - np.cos((1.0 - alpha) * u)) / h
    return Multivector(sig, coeffs)


def _d2_on(axes: Sequence[np.ndarray], h: float) -> np.ndarray:
    """Laplacian symbol of spacing ``h`` on the product of the per-axis momenta ``axes``."""
    out = np.zeros(tuple(xi.size for xi in axes))
    for axis, xi in enumerate(axes):
        out = out + _axis_view((4.0 / h**2) * np.sin(h * xi / 2.0) ** 2, axis, len(axes))
    return out


def d2_field(grid: GridSpec) -> np.ndarray:
    """Laplacian symbol sampled on the grid's momentum points, shape (*shape,)."""
    return _d2_on(axis_frequencies(grid), grid.h)


def _z_on(axes: Sequence[np.ndarray], alpha: float, h: float) -> np.ndarray:
    """Dirac symbol's 2n generator columns on the product of the per-axis momenta ``axes``."""
    n = len(axes)
    cols = np.zeros(tuple(xi.size for xi in axes) + (2 * n,), dtype=complex)
    for axis, xi in enumerate(axes):
        u = h * xi
        a = (np.sin((1.0 - alpha) * u) + np.sin(alpha * u)) / h
        b = (np.cos(alpha * u) - np.cos((1.0 - alpha) * u)) / h
        cols[..., axis] = _axis_view(-1j * a, axis, n)  # e_{axis+1}
        cols[..., n + axis] = _axis_view(b.astype(complex), axis, n)  # e_{n+axis+1}
    return cols


def _z_symbol(grid: GridSpec, alpha: float) -> SpectralField:
    """Dirac symbol on its 2n generator columns; see ``z_field``."""
    return SpectralField._of(grid, tuple(1 << k for k in range(2 * grid.n)), _z_on(axis_frequencies(grid), alpha, grid.h))


def z_field(grid: GridSpec, alpha: float) -> np.ndarray:
    """Dirac symbol sampled on the momentum grid, shape (*shape, 4**n)."""
    return _z_symbol(grid, alpha).values


def _dirac_symbol(grid: GridSpec, alpha: float, m: float) -> SpectralField:
    """z(xi) - m gamma on the generator columns and, for m != 0, the pseudoscalar's."""
    z = _z_symbol(grid, alpha)
    if not m:
        return z
    gamma = pseudoscalar(grid.sig).coeffs[-1]  # the pseudoscalar is the blade of every generator
    return z - SpectralField._of(grid, (grid.blades - 1,), np.full(grid.shape + (1,), float(m) * gamma))


def dirac_symbol(grid: GridSpec, alpha: float, m: float) -> np.ndarray:
    """Massive Dirac symbol z(xi) - m gamma on the momentum grid, shape (*shape, 4**n)."""
    return _dirac_symbol(grid, alpha, m).values


# -- transforms --------------------------------------------------------------


def _site_axes(grid: GridSpec) -> tuple[int, ...]:
    return tuple(range(grid.n))


def _transform(f, kind, fft, scale: float, out: np.ndarray | None = None):
    # only the active blade columns are stored, so only they are transformed;
    # every axis pass and the scaling write into ``out``, a fresh buffer
    # unless the caller passes one (possibly ``f.columns``)
    g = f.grid
    if out is None:
        out = np.empty(f.columns.shape, dtype=complex)
    fft(f.columns, axes=_site_axes(g), out=out)
    out *= scale
    return kind._of(g, f.support, out)


def dft(f: LatticeField) -> SpectralField:
    """Forward transform h**n (2 pi)**(-n/2) sum_x f(x) exp(+i x.xi).

    Only the field's active blade columns are transformed; the result has
    the same support.
    """
    g = f.grid
    scale = g.site_count * g.h**g.n / (2.0 * np.pi) ** (g.n / 2.0)
    return _transform(f, SpectralField, np.fft.ifftn, scale)


def idft(F: SpectralField, out: np.ndarray | None = None) -> LatticeField:
    """Riemann-weight inverse; exactly inverts dft on the finite grid.

    Like ``dft`` it transforms only the active blade columns.  The result is
    a new array unless ``out``, a complex array shaped like ``F.columns``,
    is given; ``out=F.columns`` overwrites ``F``, for a transform the caller
    made and no longer needs.
    """
    g = F.grid
    scale = (2.0 * np.pi) ** (g.n / 2.0) / (g.site_count * g.h**g.n)
    return _transform(F, LatticeField, np.fft.fftn, scale, out)


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


# -- multiplier application ---------------------------------------------------


def _scalar_multiplier(F: SpectralField, M) -> np.ndarray | None:
    # a scalar multiplier, shaped (*shape,), broadcast over F's columns; None otherwise
    if isinstance(M, SpectralField):
        return None
    M = np.asarray(M)
    return M[..., None] if M.shape == F.grid.shape else None


def apply_multiplier(F: SpectralField, M) -> SpectralField:
    """Pointwise left multiplication of a spectral field by a multiplier.

    ``M`` may be a scalar array of shape (*shape,), a full coefficient array
    (*shape, 4**n), or a ``SpectralField``.
    Composition order: apply(M2, apply(M1, F)) equals apply of the pointwise
    product M2 M1.
    """
    g = F.grid
    S = _scalar_multiplier(F, M)
    if S is not None:
        return F._like(F.support, F.columns * S)
    if not isinstance(M, SpectralField):
        M = np.asarray(M)
        if M.shape != g.shape + (g.blades,):
            raise ValueError(f"multiplier shape {M.shape} matches neither {g.shape} nor {g.shape + (g.blades,)}")
        M = SpectralField(g, M)
    F._check(M)
    return F._like(*mul_columns(g.n, M.support, M.columns, F.support, F.columns))


def multiply_field(f: LatticeField, *multipliers) -> LatticeField:
    """idft(M_k ... M_1 dft(f)): the multipliers act in order, each from the left.

    Every multiplier takes any form ``apply_multiplier`` accepts.  The
    transform is this call's own buffer: a scalar multiplier scales it in
    place and the inverse transform overwrites it, so neither ``f`` nor a
    multiplier is ever written.
    """
    F = dft(f)
    for M in multipliers:
        S = _scalar_multiplier(F, M)
        if S is not None and np.can_cast(S.dtype, complex):  # the product fits the buffer
            np.multiply(F.columns, S, out=F.columns)  # apply_multiplier's product, in place
        else:
            F = apply_multiplier(F, M)
    return idft(F, out=F.columns)


def scalar_kernel(grid: GridSpec, symbol: np.ndarray) -> LatticeField:
    """Inverse transform of a scalar multiplier of shape (*shape,), on the scalar blade."""
    f = LatticeField.from_scalar(grid, symbol)  # a copy of the symbol, inverted in place
    return idft(SpectralField._of(grid, f.support, f.columns), out=f.columns)


def dirac_h_alpha(f: LatticeField, alpha: float | None = None) -> LatticeField:
    """Dirac operator realized spectrally: idft(z * dft(f)).

    At alpha = 0 it coincides with the position-space ``dirac_kahler``
    stencil; for every alpha its square is minus the discrete Laplacian.
    """
    alpha = _alpha(f.grid.alpha if alpha is None else alpha)
    return multiply_field(f, _z_symbol(f.grid, alpha))


def factorization_check(f: LatticeField, alpha: float, m: float) -> float:
    """Relative residual of (D - m gamma)**2 f = (-Laplacian + m**2) f.

    The squared operator is applied through momentum multipliers while the
    right-hand side uses the position-space stencil, so the two sides share
    no code path beyond the transform.
    """
    zm = _dirac_symbol(f.grid, alpha, m)
    lhs = multiply_field(f, zm, zm)
    rhs = -discrete_laplacian(f) + (m * m) * f
    scale = norm(f)
    return norm(lhs - rhs) / scale if scale > 1e-300 else norm(lhs - rhs)


# -- convolution --------------------------------------------------------------


def reflect(f: LatticeField) -> LatticeField:
    """Field x -> f(-x) on the periodic grid."""
    vals = f.columns
    for axis in range(f.grid.n):
        vals = np.roll(np.flip(vals, axis=axis), 1, axis=axis)
    return f._like(f.support, vals)


def convolve(f: LatticeField, g: LatticeField) -> LatticeField:
    """Discrete convolution (f * g)(x) = sum_y h**n g(y) f(y - x).

    With ``g`` the Kronecker delta at the origin scaled by h**-n this returns
    the reflection x -> f(-x).  Evaluated spectrally through the exact grid
    identity F[f * g] = (2 pi)**(n/2) (F g)(xi) (F f)(-xi); the second factor
    is the transform of the reflected field and the noncommuting product
    keeps (F g) on the left.
    """
    f._check(g)
    gr = f.grid
    Fg = dft(g)
    Ffr = dft(reflect(f))
    support, prod = mul_columns(gr.n, Fg.support, Fg.columns, Ffr.support, Ffr.columns)
    prod *= (2.0 * np.pi) ** (gr.n / 2.0)
    return idft(SpectralField._of(gr, support, prod), out=prod)


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


# -- momentum-space pairing ----------------------------------------------------


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
    from .clifford import dagger_arrays

    prod = mul_arrays(n, dagger_arrays(n, F.values), G.values)
    total = prod.reshape(-1, F.grid.blades).sum(axis=0) * momentum_weight(F.grid)
    return Multivector(F.grid.sig, total)
