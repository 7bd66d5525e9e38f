"""The compact blade layout against the dense one.

A field stores only its active blade columns.  Every operation that works on
those columns must give, on each column active in the dense result, the bits
of the dense computation it replaced, and exact zeros elsewhere.  The dense
references below are the straightforward ``(*shape, 4**n)`` algorithms.
"""

import os
import tempfile
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import latticewave.clifford as clifford
import latticewave.lattice as lattice
from latticewave import (
    CauchyData,
    GridSpec,
    LatticeField,
    Multivector,
    SpectralField,
    TimeModel,
    apply_multiplier,
    convolve,
    dft,
    dirac_kahler,
    dirac_kahler_dagger,
    discrete_laplacian,
    idft,
    kg_residual,
    norm,
    random_field,
    relative_gap,
    shift,
    solve_dirac,
    solve_kg,
)
from latticewave.cli import load_field, store_field
from latticewave.clifford import _tables, blade_indices, mul_columns
from latticewave.propagators import lambda_field
from latticewave.spectral import dirac_symbol

# -- dense references -------------------------------------------------------------


def _active(arr):
    return np.flatnonzero(arr.reshape(-1, arr.shape[-1]).any(axis=0))


def _mul(n, a, b):
    """Product over support(a) x support(b), ascending left blade, into 4**n blades."""
    sign, _ = _tables(n)
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    act_b = _active(b)
    for i in _active(a):
        out[..., act_b ^ i] += a[..., i, None] * (sign[i, act_b] * b[..., act_b])
    return out


def _transform(vals, grid, fft, scale):
    out = np.zeros(vals.shape, dtype=complex)
    act = _active(vals)
    out[..., act] = fft(vals[..., act], axes=tuple(range(grid.n))) * scale
    return out


def _dft(vals, g):
    return _transform(vals, g, np.fft.ifftn, g.site_count * g.h**g.n / (2.0 * np.pi) ** (g.n / 2.0))


def _idft(vals, g):
    return _transform(vals, g, np.fft.fftn, (2.0 * np.pi) ** (g.n / 2.0) / (g.site_count * g.h**g.n))


def _laplacian(vals, g):
    out = np.zeros_like(vals)
    for axis in range(g.n):
        out += (np.roll(vals, -1, axis=axis) + np.roll(vals, 1, axis=axis) - 2.0 * vals) / g.h**2
    return out


def _dirac_kahler(vals, g, first_sign):
    n, eps = g.n, g.h
    out = np.zeros_like(vals)
    for j in range(1, n + 1):
        fp, fm = np.roll(vals, -1, axis=j - 1), np.roll(vals, 1, axis=j - 1)
        odd = first_sign * (fp - fm) / (2.0 * eps)
        even = (2.0 * vals - fp - fm) / (2.0 * eps)
        ej = Multivector.generator(g.sig, j).coeffs
        enj = Multivector.generator(g.sig, n + j).coeffs
        out += _mul(n, ej, odd) + _mul(n, enj, even)
    return out


def _norm(vals, g):
    return float(np.sqrt(g.h**g.n * np.sum(np.abs(vals) ** 2)))


def _combine(g, F0, F1, c, s):
    return _idft(c[..., None] * F0 + s[..., None] * F1, g)


def _csv_rows(vals, g):
    order = sorted(range(g.blades), key=blade_indices)
    label = lambda b: "·".join(map(str, blade_indices(b)))  # noqa: E731
    return [
        ",".join(map(str, site)) + f",{label(b)},{float(vals[site + (b,)].real)!r},{float(vals[site + (b,)].imag)!r}"
        for site in np.ndindex(g.shape)
        for b in order
        if vals[site + (b,)] != 0
    ]


def _same(got, want):
    """Bits on each column active in ``want``; exact zeros on the others."""
    got = got.values if hasattr(got, "values") else np.asarray(got)
    assert got.shape == want.shape and got.dtype == want.dtype
    act = _active(want)
    assert got[..., act].tobytes() == want[..., act].tobytes()
    assert np.all(np.delete(got, act, axis=-1) == 0)


def _dense(g, bits, rng):
    vals = np.zeros(g.shape + (g.blades,), dtype=complex)
    blades = [b for b in range(g.blades) if bits >> b & 1]
    size = g.shape + (len(blades),)
    vals[..., blades] = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return vals


# -- the property -------------------------------------------------------------------

GRIDS = st.lists(st.sampled_from([2, 4]), min_size=1, max_size=3).map(
    lambda shape: GridSpec(tuple(shape), 0.75, alpha=0.25, mass=0.6)
)


@settings(max_examples=40, deadline=None)
@given(
    g=GRIDS,
    bits=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
    seed=st.integers(0, 2**32 - 1),
    scalar=st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0),
)
def test_compact_operations_equal_dense(g, bits, seed, scalar):
    rng = np.random.default_rng(seed)
    a_vals, b_vals = (_dense(g, mask & (2**g.blades - 1), rng) for mask in bits)
    a, b = LatticeField(g, a_vals), LatticeField(g, b_vals)
    assert a.support == tuple(_active(a_vals)) and a.columns.shape[-1] == len(a.support)
    _same(a, a_vals)
    mv = Multivector(g.sig, b_vals[(0,) * g.n])

    # arithmetic on the union of the supports
    _same(a + b, a_vals + b_vals)
    _same(a - b, a_vals - b_vals)
    _same(-a, -a_vals)
    _same(a * scalar, a_vals * complex(scalar))
    _same(a / scalar, a_vals / complex(scalar))
    # stencils and products
    _same(shift(a, g.n, -1), np.roll(a_vals, -1, axis=g.n - 1))
    _same(discrete_laplacian(a), _laplacian(a_vals, g))
    _same(dirac_kahler(a), _dirac_kahler(a_vals, g, 1.0))
    _same(dirac_kahler_dagger(a), _dirac_kahler(a_vals, g, -1.0))
    _same(a.left_mul(mv), _mul(g.n, mv.coeffs, a_vals))
    _same(LatticeField.constant(g, mv), np.broadcast_to(mv.coeffs, a_vals.shape).copy())
    support, cols = mul_columns(g.n, a.support, a.columns, b.support, b.columns)
    _same(LatticeField._of(g, support, cols), _mul(g.n, a_vals, b_vals))
    # norms sum in the dense order, so they keep their bits
    assert norm(a) == _norm(a_vals, g)
    scale, diff = _norm(b_vals, g), _norm(a_vals - b_vals, g)
    assert relative_gap(a, b) == (diff / scale if scale > 1e-300 else diff)
    # transforms, multipliers, the propagators' combination
    A, B = _dft(a_vals, g), _dft(b_vals, g)
    _same(dft(a), A)
    _same(idft(SpectralField(g, b_vals)), _idft(b_vals, g))
    zm = dirac_symbol(g, g.alpha, g.mass)
    _same(apply_multiplier(dft(a), zm), _mul(g.n, zm, A))
    lam = lambda_field(g, g.mass)
    _same(apply_multiplier(dft(a), lam), A * lam[..., None])
    time = TimeModel.central_difference(0.25)  # inside the CFL bound of every grid here
    c, s = time.multipliers(lam, 0.75)
    _same(solve_kg(CauchyData(a, b), time, g.mass, 0.75), _combine(g, A, B, c, s))
    velocity = _idft(1j * _mul(g.n, zm, A), g)
    _same(solve_dirac(a, time, g.alpha, g.mass, 0.75), _combine(g, A, _dft(velocity, g), c, s))
    reflected = a_vals
    for axis in range(g.n):
        reflected = np.roll(np.flip(reflected, axis=axis), 1, axis=axis)
    _same(convolve(a, b), _idft(_mul(g.n, B, _dft(reflected, g)) * (2.0 * np.pi) ** (g.n / 2.0), g))
    # the field CSV: the same rows, read back into the same columns
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.csv")
        store_field(a, path)
        with open(path, encoding="utf-8") as fh:
            rows = [line for line in fh.read().splitlines() if not line.startswith("#")]
        assert rows[1:] == _csv_rows(a_vals, g)
        _same(load_field(path), np.where(a_vals == 0, 0j, a_vals))


# -- what the layout saves ----------------------------------------------------------


def test_scalar_evolution_stays_below_one_dense_field():
    # three slices and their leapfrog residual on scalar 16^3 data
    grid = GridSpec((16, 16, 16), 1.0, 0.0, 1.0)
    rng = np.random.default_rng(11)
    data = CauchyData(random_field(grid, rng, scalar=True), random_field(grid, rng, scalar=True))
    time = TimeModel.central_difference(0.5)
    dense_bytes = grid.site_count * grid.blades * np.dtype(complex).itemsize  # 4.19 MB
    tracemalloc.start()
    try:
        psi = [solve_kg(data, time, 1.0, t) for t in (0.0, 0.5, 1.0)]
        assert kg_residual(*psi, 1.0, 0.5) <= 1e-12
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes, f"peak {peak / 1e6:.2f} MB, one dense field is {dense_bytes / 1e6:.2f} MB"


def test_known_supports_are_never_scanned(monkeypatch, tmp_path):
    """Transforms, the Clifford product behind ``mul_arrays`` and the field CSV
    read the stored support.

    Only a dense array of unknown support (the public constructors and
    ``mul_arrays`` itself) has its support read off the values.
    """
    grid = GridSpec((4, 4), 0.5, 0.25, 1.0)
    f = LatticeField(grid, _dense(grid, 0b1000000000010011, np.random.default_rng(5)))
    w = random_field(grid, np.random.default_rng(6), scalar=True)
    scan = clifford.active_blades

    def refuse(arr):
        # one multivector's coefficients (e.g. inside pseudoscalar()) may be read
        if np.ndim(arr) > 1:
            raise AssertionError("active_blades scanned a field whose support is known")
        return scan(arr)

    monkeypatch.setattr(clifford, "active_blades", refuse)
    monkeypatch.setattr(lattice, "active_blades", refuse)
    F = dft(f)
    assert idft(F).support == f.support
    gam = Multivector.blade(grid.sig, (1, 3), 2.0)
    assert f.left_mul(gam).support == tuple(sorted(b ^ 0b101 for b in f.support))
    support, _ = mul_columns(grid.n, F.support, F.columns, dft(w).support, dft(w).columns)
    assert support == f.support
    assert convolve(f, w).support == f.support
    assert dirac_kahler(w).support == (1, 2, 4, 8)
    assert norm(f - f.left_mul(gam)) > 0
    assert solve_kg(CauchyData(f, w), TimeModel.continuous(), 1.0, 0.3).support == f.support
    assert len(solve_dirac(w, TimeModel.continuous(), 0.25, 1.0, 0.3).support) == 2 * grid.n + 2
    store_field(f, str(tmp_path / "f.csv"))
    assert load_field(str(tmp_path / "f.csv")).support == f.support
