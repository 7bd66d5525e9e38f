"""Momentum-zone transforms and multipliers, each against a brute-force twin."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticewave import (
    GridSpec,
    LatticeField,
    Multivector,
    SpectralField,
    apply_multiplier,
    convolve,
    convolve_direct,
    d2_field,
    dft,
    dft_direct,
    dirac_h_alpha,
    discrete_laplacian,
    factorization_check,
    idft,
    idft_direct,
    inner_product,
    momentum_pairing,
    multiplier_d2,
    multiplier_z,
    pseudoscalar,
    random_field,
    relative_gap,
    z_field,
)
from latticewave.clifford import mul_arrays
from latticewave.spectral import frequencies, reflect

ALPHAS = (0.0, 0.1, 0.25, 0.4, 0.5)


def test_frequencies_cover_the_zone():
    # wrap convention keeps +pi/h (Nyquist) and drops -pi/h
    xs = np.sort(frequencies(8, 0.5))
    step = 2 * math.pi / (8 * 0.5)
    want = step * np.arange(-3, 5)
    assert np.allclose(xs, want, atol=1e-12)
    assert xs[-1] == pytest.approx(math.pi / 0.5)


@pytest.mark.parametrize("shape", [(8,), (4, 6)])
def test_round_trip(shape, rng):
    f = random_field(GridSpec(shape, 0.7), rng)
    assert relative_gap(idft(dft(f)), f) <= 1e-13


def _full_column_transforms(values, grid):
    # the batched all-column FFT, zero columns included
    axes = tuple(range(grid.n))
    fwd = grid.site_count * grid.h**grid.n / (2.0 * np.pi) ** (grid.n / 2.0)
    inv = (2.0 * np.pi) ** (grid.n / 2.0) / (grid.site_count * grid.h**grid.n)
    return np.fft.ifftn(values, axes=axes) * fwd, np.fft.fftn(values, axes=axes) * inv


def _check_partial_transforms(grid, blades, rng):
    vals = np.zeros(grid.shape + (grid.blades,), dtype=complex)
    vals[..., blades] = rng.standard_normal(grid.shape + (len(blades),)) + 1j * rng.standard_normal(
        grid.shape + (len(blades),)
    )
    fwd, inv = _full_column_transforms(vals, grid)
    inactive = np.setdiff1d(np.arange(grid.blades), blades)
    F = dft(LatticeField(grid, vals)).values
    f = idft(SpectralField(grid, vals)).values
    assert np.array_equal(F, fwd) and np.array_equal(f, inv)
    assert np.all(F[..., inactive] == 0) and np.all(f[..., inactive] == 0)


@pytest.mark.parametrize("shape", [(16,), (8, 6), (16, 16, 16)])
@pytest.mark.parametrize("support", ["none", "scalar", "dirac", "full"])
def test_partial_support_transforms_match_full_fft(shape, support, rng):
    grid = GridSpec(shape, 0.7)
    n = grid.n
    blades = {
        "none": [],
        "scalar": [0],
        "dirac": sorted({0, grid.blades - 1} | {1 << j for j in range(2 * n)}),
        "full": list(range(grid.blades)),
    }[support]
    _check_partial_transforms(grid, blades, rng)


@settings(max_examples=40, deadline=None)
@given(
    shape=st.lists(st.sampled_from([2, 4, 6, 8]), min_size=1, max_size=3).map(tuple),
    bits=st.integers(0, 2**64 - 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_partial_support_transforms_property(shape, bits, seed):
    grid = GridSpec(shape, 0.5)
    blades = [k for k in range(grid.blades) if bits >> k & 1]
    _check_partial_transforms(grid, blades, np.random.default_rng(seed))


@pytest.mark.parametrize("shape", [(6,), (4, 4)])
def test_fft_matches_direct_matrices(shape, rng):
    f = random_field(GridSpec(shape, 0.9), rng)
    F = dft(f)
    assert np.max(np.abs(F.values - dft_direct(f).values)) <= 1e-12
    assert relative_gap(idft_direct(F), idft(F)) <= 1e-13


def test_plane_wave_spectrum_is_one_hot():
    # the forward kernel is exp(+i x.xi), so exp(i xi_m x) lands on the
    # bin at -m (mod N), with weight N h / sqrt(2 pi)
    N, h, mode = 8, 0.5, 3
    g = GridSpec((N,), h)
    F = dft(LatticeField.plane_wave(g, (mode,)))
    want = np.zeros(N, dtype=complex)
    want[(-mode) % N] = N * h / math.sqrt(2 * math.pi)
    assert np.max(np.abs(F.values[:, 0] - want)) <= 1e-12
    assert np.max(np.abs(F.values[:, 1:])) == 0.0


def test_parseval(rng):
    g = GridSpec((8, 4), 0.8)
    f, w = random_field(g, rng), random_field(g, rng)
    pos = inner_product(f, w)
    mom = momentum_pairing(dft(f), dft(w))
    assert (pos - mom).norm() / pos.norm() <= 1e-12


def test_multiplier_d2_closed_form():
    h = 0.7
    xi = (0.9, -1.4)
    want = sum(4.0 / h**2 * math.sin(h * x / 2) ** 2 for x in xi)
    assert multiplier_d2(xi, h) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_multiplier_z_square_condition_pointwise(alpha):
    sig = pseudoscalar(GridSpec((4, 4), 1.0).sig).sig
    for xi in ((0.3, -0.8), (1.1, 2.2), (math.pi, math.pi)):
        z = multiplier_z(xi, alpha, 1.0, sig)
        d2 = multiplier_d2(xi, 1.0)
        err = (z * z - Multivector.scalar(sig, complex(d2))).norm()
        assert err <= 1e-12


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("shape", [(16,), (8, 8)])
def test_z_field_square_condition_on_grid(alpha, shape):
    g = GridSpec(shape, 1.3)
    z = z_field(g, alpha)
    z2 = mul_arrays(g.n, z, z)
    z2[..., 0] -= d2_field(g)
    assert float(np.max(np.abs(z2))) <= 1e-12


def test_z_field_agrees_with_pointwise():
    g = GridSpec((6,), 0.8)
    z = z_field(g, 0.25)
    xs = frequencies(6, 0.8)
    for b in range(6):
        zp = multiplier_z((float(xs[b]),), 0.25, 0.8, g.sig)
        assert np.max(np.abs(z[b] - zp.coeffs)) <= 1e-14


def test_z_vanishes_only_at_zero_momentum_in_fundamental_zone():
    g = GridSpec((16,), 1.0)
    z = z_field(g, 0.25)
    norms = np.linalg.norm(z, axis=-1)
    assert norms[0] == 0.0
    # |z| = d pointwise, so the smallest nonzero value is 2 sin(pi/N)/h
    assert np.max(np.abs(norms - np.sqrt(d2_field(g)))) <= 1e-12
    floor = 2.0 * math.sin(math.pi / 16)
    assert np.min(norms[1:]) == pytest.approx(floor, rel=1e-12)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_factorization_on_random_fields(alpha, rng):
    for shape in ((16,), (8, 8)):
        g = GridSpec(shape, 0.7)
        gam = pseudoscalar(g.sig)
        for m in (0.0, 1.0):
            f = random_field(g, rng)

            def op(u):
                return dirac_h_alpha(u, alpha) - u.left_mul(gam) * m

            want = -discrete_laplacian(f) + f * m**2
            assert relative_gap(op(op(f)), want) <= 1e-10


def test_factorization_check_helper(rng):
    g = GridSpec((8,), 1.0)
    f = random_field(g, rng)
    assert factorization_check(f, 0.25, 1.0) <= 1e-10


def test_dirac_h_alpha_kills_constants(rng):
    g = GridSpec((8,), 1.0)
    mv = Multivector(g.sig, rng.standard_normal(4) + 1j * rng.standard_normal(4))
    f = LatticeField.constant(g, mv)
    assert np.max(np.abs(dirac_h_alpha(f, 0.25).values)) <= 1e-13


def test_reflect_is_involution(rng):
    g = GridSpec((6, 4), 1.0)
    f = random_field(g, rng)
    assert reflect(reflect(f)).allclose(f)
    # reflection also fixes the origin
    assert (reflect(f).at(0, 0) - f.at(0, 0)).norm() == 0.0


@pytest.mark.parametrize("shape", [(6,), (4, 4)])
def test_convolution_theorem_vs_direct(shape, rng):
    g = GridSpec(shape, 0.8)
    f, w = random_field(g, rng), random_field(g, rng)
    assert relative_gap(convolve(f, w), convolve_direct(f, w)) <= 1e-10
    # multivector convolution is order-sensitive; both orders must match their oracle
    assert relative_gap(convolve(w, f), convolve_direct(w, f)) <= 1e-10
    assert relative_gap(convolve(f, w), convolve(w, f)) > 1e-3


def test_apply_multiplier_forms(rng):
    g = GridSpec((8,), 0.5)
    F = dft(random_field(g, rng))
    lam = d2_field(g)
    a = apply_multiplier(F, lam)  # scalar array acts on every blade column
    assert np.array_equal(a.values, F.values * lam[:, None])
    with pytest.raises(ValueError, match="multiplier shape"):
        apply_multiplier(F, lambda xi: multiplier_d2(xi, g.h))  # a callable is not a multiplier form
    z = z_field(g, 0.25)
    c = apply_multiplier(F, z)  # multivector-valued array acts by left product
    want = mul_arrays(g.n, z, F.values)
    assert np.max(np.abs(c.values - want)) <= 1e-13


def test_spectral_field_validation():
    g = GridSpec((4,), 1.0)
    with pytest.raises(ValueError):
        SpectralField(g, np.zeros((4, 3), dtype=complex))
