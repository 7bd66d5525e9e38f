"""The spectral path writes only into arrays it allocated itself.

``dft`` and ``idft`` run every FFT axis pass and the scaling in one output
buffer.  ``multiply_field`` scales its own transform in place by a scalar
multiplier and inverts it in place; ``solve_kg`` combines its two
transforms in their own buffers, and a ``Propagator`` slice combines into
fresh ones, so that the plan keeps its transforms; ``discrete_laplacian``
builds each axis term from wrapped copies of one block of rows;
subordination builds its position-space head in two buffers; the sum or
difference of two fields takes the buffer of an operand that ``align``
padded.  Three things are pinned here:

* bits: each rewritten expression against the one it replaced (the
  ``_ref_*`` functions), with equal ``tobytes()`` on inputs holding signed
  zeros, subnormals, huge values, infinities and random bit patterns;
* no argument is ever written, by any public function on the path;
* ``chebyshev_solve``, the twin that checks ``solve_kg``, keeps the bits of
  its own combine.  That it never enters ``propagators._combine`` is a row
  of ``tests/test_oracle_independence.py``.

The transient memory these changes save is measured in
``tests/test_transient_memory.py``.
"""

import math

import numpy as np
import pytest

import latticewave.lattice as lattice
from latticewave import (
    CauchyData,
    FracParams,
    GridSpec,
    LatticeField,
    Propagator,
    SpectralField,
    TimeModel,
    apply_multiplier,
    chebyshev_solve,
    chebyshev_t,
    chebyshev_u,
    dft,
    dirac_h_alpha,
    discrete_laplacian,
    frac_power,
    heat_semigroup,
    idft,
    random_field,
    riesz,
    solve_dirac,
    solve_kg,
)
from latticewave.fractional import _subordination_head
from latticewave.lattice import align
from latticewave.propagators import _combine
from latticewave.spectral import d2_field, dirac_symbol, multiply_field, scalar_kernel

GRIDS = [GridSpec((8,), 0.7, 0.25, 0.9), GridSpec((6, 4), 0.5, 0.1, 1.3), GridSpec((4, 4, 2), 0.8, 0.5, 0.6)]
KINDS = ("scalar", "dirac", "all-blades")
CASES = [(grid, kind) for grid in GRIDS for kind in KINDS]
IDS = [f"{grid.n}d-{kind}" for grid, kind in CASES]


def _support(grid, kind):
    n = grid.n
    if kind == "scalar":
        return (0,)
    if kind == "dirac":  # scalar, the 2n generators and the pseudoscalar
        return (0,) + tuple(1 << k for k in range(2 * n)) + (grid.blades - 1,)
    return tuple(range(grid.blades))


def _field(grid, kind, draw):
    """A field of the given support whose columns ``draw(shape)`` fills."""
    support = _support(grid, kind)
    return LatticeField._of(grid, support, draw(grid.shape + (len(support),)))


def _normal(seed):
    rng = np.random.default_rng(seed)
    return lambda shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# -- bit identity against the expressions the in-place code replaced ----------------

SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, -2.5])
POOLS = {
    "finite": SPECIAL,
    "inf": np.concatenate([SPECIAL, [np.inf, -np.inf]]),
    # quiet NaNs of both signs with distinct payloads: a NaN meeting a NaN keeps
    # the first operand's payload, so these show a swapped operand order
    "nan": np.concatenate([SPECIAL, (np.arange(1, 9, dtype=np.uint64) | np.uint64(0x7FF8 << 48)).view(np.float64),
                           (np.arange(1, 9, dtype=np.uint64) | np.uint64(0xFFF8 << 48)).view(np.float64)]),
}


def _special(seed, pool):
    """Draws mixing ``pool`` (signed zeros, subnormals, huge values and, by
    pool, infinities or NaN payloads) with random bit patterns and normals."""
    rng = np.random.default_rng(seed)
    pool = POOLS[pool]

    def draw(shape):
        out = np.empty(shape + (2,))
        pick = rng.integers(0, 3, size=out.shape)
        out[pick == 0] = rng.choice(pool, size=int(np.sum(pick == 0)))
        out[pick == 1] = rng.integers(0, 2**64, size=int(np.sum(pick == 1)), dtype=np.uint64).view(np.float64)
        out[pick == 2] = rng.standard_normal(int(np.sum(pick == 2)))
        return out.view(complex)[..., 0]

    return draw


def _ref_transform(f, kind, fft, scale):
    g = f.grid
    return kind._of(g, f.support, fft(f.columns, axes=tuple(range(g.n))) * scale)


def _ref_dft(f):
    g = f.grid
    return _ref_transform(f, SpectralField, np.fft.ifftn, g.site_count * g.h**g.n / (2.0 * np.pi) ** (g.n / 2.0))


def _ref_idft(F):
    g = F.grid
    return _ref_transform(F, LatticeField, np.fft.fftn, (2.0 * np.pi) ** (g.n / 2.0) / (g.site_count * g.h**g.n))


def _ref_multiply_field(f, *multipliers):
    F = _ref_dft(f)
    for M in multipliers:
        F = apply_multiplier(F, M)
    return _ref_idft(F)


def _ref_combine(data, c, s):
    support, (F0, F1) = align(_ref_dft(data.phi0), _ref_dft(data.phi1))
    return _ref_idft(SpectralField._of(data.grid, support, c[..., None] * F0 + s[..., None] * F1))


def _ref_arith(f, g, op):
    support, (a, b) = align(f, g)
    return f._like(support, op(a, b))


def _ref_laplacian(f):
    vals = f.columns
    out = np.zeros_like(vals)
    for axis in range(f.grid.n):
        fp = np.roll(vals, -1, axis=axis)
        fp += np.roll(vals, +1, axis=axis)
        fp -= 2.0 * vals
        fp /= f.grid.h**2
        out += fp
    return f._like(f.support, out)


def _ref_head(f, t0, alpha, m):
    return (t0**alpha / alpha) * f + (t0 ** (1.0 + alpha) / (1.0 + alpha)) * (_ref_laplacian(f) - m * m * f)


def _same(got, want):
    got = got.columns if hasattr(got, "columns") else got
    want = want.columns if hasattr(want, "columns") else want
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("pool", list(POOLS))
@pytest.mark.parametrize("grid,kind", CASES, ids=IDS)
def test_in_place_paths_keep_the_bits(grid, kind, pool):
    draw = _special(17 * grid.n + len(kind), pool)
    f, f1 = _field(grid, kind, draw), _field(grid, "scalar", draw)
    F = SpectralField._of(grid, f.support, draw(f.columns.shape))
    d2 = d2_field(grid)
    scalar = draw(grid.shape)
    c, s = draw(grid.shape).real, draw(grid.shape).real
    zm = dirac_symbol(grid, grid.alpha, grid.mass)
    # special values overflow and meet 0 * inf on purpose; random bit patterns hold NaNs anyway
    with np.errstate(all="ignore"):
        _same(dft(f), _ref_dft(f))
        _same(idft(F), _ref_idft(F))
        _same(multiply_field(f, d2), _ref_multiply_field(f, d2))
        _same(multiply_field(f, scalar, zm, np.exp(-d2)), _ref_multiply_field(f, scalar, zm, np.exp(-d2)))
        _same(multiply_field(f), _ref_multiply_field(f))
        for data in (CauchyData(f, f1), CauchyData(_field(grid, kind, _normal(3)), f1)):  # a NaN in F0 hides F1's
            want = _ref_combine(data, c, s)
            _same(_combine(dft(data.phi0), dft(data.phi1), c, s, owned=True), want)
            F0, F1 = dft(data.phi0), dft(data.phi1)  # a plan's transforms: kept for the next slice
            spectra = F0.columns.tobytes(), F1.columns.tobytes()
            _same(_combine(F0, F1, c, s, owned=False), want)
            assert (F0.columns.tobytes(), F1.columns.tobytes()) == spectra
        _same(discrete_laplacian(f), _ref_laplacian(f))
        for a, b in ((f, f1), (f1, f)):  # either operand may be the one align pads
            _same(a + b, _ref_arith(a, b, np.add))
            _same(a - b, _ref_arith(a, b, np.subtract))
        _same(_subordination_head(f, 0.03, 0.3, 1.1), _ref_head(f, 0.03, 0.3, 1.1))
        _same(scalar_kernel(grid, scalar), _ref_idft(SpectralField._of(grid, (0,), scalar[..., None].astype(complex))))


def test_laplacian_blocks_cover_long_leading_axes():
    # 36 rows of 512 values run as 32 + 4 rows, of 1024 values as 16 + 16 + 4;
    # 4 rows of 16,384 values (the block size) run one row at a time
    for grid, rows in ((GridSpec((36, 32), 1.7), 32), (GridSpec((36, 4, 4), 0.3), 16), (GridSpec((4, 16, 16), 0.9), 1)):
        f = random_field(grid, np.random.default_rng(grid.n))
        assert lattice._BLOCK_VALUES // f.columns[0].size == rows
        _same(discrete_laplacian(f), _ref_laplacian(f))


def test_laplacian_of_a_field_without_columns():
    f = LatticeField(GridSpec((4, 6), 0.9), np.zeros((4, 6, 16)))
    assert f.columns.shape == (4, 6, 0)
    assert discrete_laplacian(f).columns.shape == (4, 6, 0)


def test_a_non_contiguous_field_keeps_the_bits():
    # the dense constructor keeps an all-blade array as it is, strides and all
    grid = GridSpec((4, 6), 0.9, 0.2, 0.7)
    vals = np.asfortranarray(_normal(5)(grid.shape + (grid.blades,)))
    f = LatticeField(grid, vals)
    assert f.columns is vals and not f.columns.flags.c_contiguous
    _same(dft(f), _ref_dft(f))
    _same(discrete_laplacian(f), _ref_laplacian(f))
    _same(multiply_field(f, d2_field(grid)), _ref_multiply_field(f, d2_field(grid)))


# -- no argument is written ------------------------------------------------------------

PARAMS = FracParams(0.3, 1.1)
TIME = TimeModel.central_difference(0.1)


def _calls(grid, f):
    """(name, call) for every public function on the path, applied to ``f``."""
    other = random_field(grid, np.random.default_rng(3))
    m = grid.mass
    return [
        ("dft", lambda: dft(f)),
        ("idft", lambda: idft(SpectralField._of(grid, f.support, f.columns))),
        ("multiply_field", lambda: multiply_field(f)),
        ("heat_semigroup", lambda: heat_semigroup(f, 0.4)),
        ("frac_power spectral", lambda: frac_power(f, PARAMS, "spectral")),
        ("frac_power subordination", lambda: frac_power(f, PARAMS, "subordination")),
        ("solve_kg", lambda: solve_kg(CauchyData(f, other), TIME, grid.mass, 0.2)),
        ("solve_kg velocity", lambda: solve_kg(CauchyData(other, f), TIME, grid.mass, 0.2)),
        ("solve_dirac", lambda: solve_dirac(f, TIME, grid.alpha, grid.mass, 0.2)),
        ("plan", lambda: solve_kg(Propagator(CauchyData(f, other), m), TIME, m, 0.2)),
        ("plan velocity", lambda: solve_kg(Propagator(CauchyData(other, f), m), TIME, m, 0.2)),
        ("dirac plan", lambda: solve_dirac(Propagator.dirac(f, grid.alpha, m), TIME, grid.alpha, m, 0.2)),
        ("discrete_laplacian", lambda: discrete_laplacian(f)),
        ("add", lambda: f + other),
        ("subtract", lambda: other - f),
        ("riesz", lambda: riesz(f, PARAMS)),
        ("dirac_h_alpha", lambda: dirac_h_alpha(f)),
    ]


@pytest.mark.parametrize("grid,kind", CASES, ids=IDS)
def test_public_functions_never_write_their_field(grid, kind):
    f = _field(grid, kind, _normal(grid.n))
    if kind == "all-blades":
        assert f.values is f.columns
    before = f.columns.tobytes()
    for name, call in _calls(grid, f):
        out = call()
        assert f.columns.tobytes() == before, f"{name} wrote its input"
        assert not np.shares_memory(out.columns, f.columns), f"{name} returned its input's buffer"


@pytest.mark.parametrize("grid,kind", CASES, ids=IDS)
def test_multipliers_passed_in_are_never_written(grid, kind):
    f = _field(grid, kind, _normal(11 * grid.n))
    draw = _normal(13 * grid.n)
    multipliers = [
        d2_field(grid),  # real scalar
        draw(grid.shape),  # complex scalar
        draw(grid.shape).real.astype(np.float32),  # scalar of another dtype
        draw(grid.shape + (grid.blades,)),  # dense coefficients: every blade active
        dirac_symbol(grid, grid.alpha, grid.mass),
        SpectralField(grid, draw(grid.shape + (grid.blades,))),
    ]
    saved = [(M.columns if isinstance(M, SpectralField) else M).tobytes() for M in multipliers]
    F = dft(f)
    spectrum = F.columns.tobytes()
    for M in multipliers:
        apply_multiplier(F, M)
        multiply_field(f, M)
    multiply_field(f, *multipliers)
    multiply_field(f, *multipliers[::-1])
    assert F.columns.tobytes() == spectrum
    for M, was in zip(multipliers, saved):
        assert (M.columns if isinstance(M, SpectralField) else M).tobytes() == was


@pytest.mark.parametrize("grid", GRIDS, ids=[f"{g.n}d" for g in GRIDS])
def test_wrong_multiplier_shape_still_raises(grid):
    f = random_field(grid, np.random.default_rng(7))
    for bad in (np.ones(grid.shape[:-1] + (grid.shape[-1] + 2,)), np.ones(grid.shape + (3,)), d2_field(grid)[..., None]):
        with pytest.raises(ValueError, match="multiplier shape"):
            apply_multiplier(dft(f), bad)
        with pytest.raises(ValueError, match="multiplier shape"):
            multiply_field(f, bad)


# -- the Chebyshev twin keeps its own combine ---------------------------------------------


def _ref_chebyshev_solve(data, tau, m, t):
    k = round(2.0 * t / tau)
    chi = np.sqrt(1.0 - tau**2 / 4.0 * (d2_field(data.grid) + float(m) ** 2))
    return _ref_combine(data, chebyshev_t(k, chi), tau / 2.0 * chebyshev_u(k - 1, chi))


@pytest.mark.parametrize("grid", GRIDS, ids=[f"{g.n}d" for g in GRIDS])
def test_chebyshev_twin_keeps_its_combine_bits(grid):
    rng = np.random.default_rng(29)
    data = CauchyData(random_field(grid, rng), random_field(grid, rng, scalar=True))
    tau, m, t = 0.1, grid.mass, 0.7
    got = chebyshev_solve(data, tau, m, t)
    _same(got, _ref_chebyshev_solve(data, tau, m, t))
    assert math.isfinite(float(np.abs(got.columns).max()))
