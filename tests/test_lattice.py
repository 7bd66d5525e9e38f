"""Periodic lattice fields: constructors, shifts, Laplacian, Dirac-Kahler stencils."""

import math

import numpy as np
import pytest

from latticewave import (
    GridSpec,
    LatticeField,
    Multivector,
    dirac_kahler,
    dirac_kahler_dagger,
    discrete_laplacian,
    inner_product,
    norm,
    pseudoscalar,
    random_field,
    relative_gap,
    shift,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec((7,), 1.0)  # odd point count
    with pytest.raises(ValueError):
        GridSpec((8,), 0.0)
    with pytest.raises(ValueError):
        GridSpec((8,), 1.0, alpha=0.6)
    with pytest.raises(ValueError):
        GridSpec((8,), 1.0, mass=-1.0)
    with pytest.raises(ValueError, match="even and positive, got 0"):
        GridSpec((0,), 1.0)  # zero is even, so only the sign test refuses it


@pytest.mark.parametrize(
    "kwargs",
    [dict(h=float("inf")), dict(h=float("nan")), dict(mass=float("nan")), dict(mass=float("inf")),
     dict(alpha=float("nan"))],
    ids=["h-inf", "h-nan", "mass-nan", "mass-inf", "alpha-nan"],
)
def test_grid_rejects_non_finite_parameters(kwargs):
    with pytest.raises(ValueError):
        GridSpec((4,), **{"h": 1.0, **kwargs})


def test_grid_refuses_spacing_outside_the_float_range():
    for shape, h in (((4,), 1e-200), ((4,), 1e200), ((4, 4, 4), 1e-110)):
        with pytest.raises(ValueError, match="out of the finite nonzero floats"):
            GridSpec(shape, h)
    GridSpec((4, 4, 4), 1e-100)  # h**3 = 1e-300 still fits


def test_grid_refinement():
    g = GridSpec((8, 4), 0.5, alpha=0.25, mass=1.0)
    r = g.refined()
    assert r.shape == (16, 8)
    assert r.h == 0.25
    assert (r.alpha, r.mass) == (g.alpha, g.mass)


def test_delta_field():
    g = GridSpec((4, 4), 1.0)
    f = LatticeField.delta(g)
    assert f.at(0, 0).scalar_part == 1.0
    assert float(np.sum(np.abs(f.values))) == 1.0


def test_plane_wave_values_and_range():
    g = GridSpec((8,), 0.5)
    f = LatticeField.plane_wave(g, (3,))
    for j in range(8):
        want = complex(np.exp(2j * np.pi * 3 * j / 8))
        assert f.at(j).scalar_part == pytest.approx(want, abs=1e-14)
    with pytest.raises(ValueError):
        LatticeField.plane_wave(g, (5,))  # outside (-N/2, N/2]
    assert LatticeField.plane_wave(g, (4,)) is not None  # Nyquist mode included
    with pytest.raises(ValueError, match=r"mode 3 outside \(-2, 2\] on axis 2$"):
        LatticeField.plane_wave(GridSpec((8, 4), 0.5), (1, 3))
    with pytest.raises(ValueError, match="mode needs 2 components, got 1"):
        LatticeField.plane_wave(GridSpec((8, 4), 0.5), (1,))


def test_plane_wave_orthogonality():
    g = GridSpec((8,), 0.5)
    f = LatticeField.plane_wave(g, (1,))
    w = LatticeField.plane_wave(g, (2,))
    # <pw_k, pw_l> = N h delta_{kl}
    assert inner_product(f, w).norm() <= 1e-13
    assert inner_product(f, f).scalar_part == pytest.approx(8 * 0.5, abs=1e-13)


def test_gaussian_is_symmetric_under_wrap():
    g = GridSpec((8,), 1.0)
    f = LatticeField.gaussian(g, width=1.3)
    for j in range(1, 8):
        assert f.at(j).scalar_part == pytest.approx(f.at(8 - j).scalar_part, abs=1e-15)


@pytest.mark.parametrize("width", [math.nan, math.inf])
def test_gaussian_rejects_non_finite_width(width):
    # a NaN width used to give an all-NaN field
    with pytest.raises(ValueError, match="width"):
        LatticeField.gaussian(GridSpec((8,), 1.0), width)


def test_shift_moves_delta_forward():
    g = GridSpec((6,), 1.0)
    d = LatticeField.delta(g)
    s = shift(d, 1, 1)
    assert s.at(1).scalar_part == 1.0
    assert shift(d, 1, 6).allclose(d)  # full wrap
    assert shift(shift(d, 1, 2), 1, -2).allclose(d)
    with pytest.raises(ValueError):
        shift(d, 2, 1)


@pytest.mark.parametrize("steps", [2.7, -0.5, math.nan, math.inf])
def test_shift_rejects_non_integer_steps(steps):
    # a fractional count used to roll silently by its integer part
    d = LatticeField.delta(GridSpec((6,), 1.0))
    with pytest.raises(ValueError, match="steps"):
        shift(d, 1, steps)
    assert shift(d, 1, 2.0).at(2).scalar_part == 1.0  # an integral float is a count


def test_laplacian_matches_shift_stencil(rng):
    g = GridSpec((6, 4), 0.7)
    f = random_field(g, rng)
    acc = LatticeField.zeros(g)
    for axis in (1, 2):
        acc = acc + (shift(f, axis, -1) + shift(f, axis, 1) - f * 2.0) * (1.0 / g.h**2)
    assert relative_gap(discrete_laplacian(f), acc) <= 1e-14


def test_laplacian_plane_wave_eigenvalue():
    # Delta e^{i xi x} = -d(xi)^2 e^{i xi x} with d^2 = (4/h^2) sin^2(pi m / N)
    g = GridSpec((8,), 0.5)
    for mode in (1, 2, 3):
        f = LatticeField.plane_wave(g, (mode,))
        d2 = 4.0 / g.h**2 * math.sin(math.pi * mode / 8) ** 2
        assert relative_gap(discrete_laplacian(f), f * (-d2)) <= 1e-13


@pytest.mark.parametrize("op", [dirac_kahler, dirac_kahler_dagger])
def test_dirac_kahler_squares_to_minus_laplacian(op, rng):
    for shape in ((12,), (6, 6)):
        g = GridSpec(shape, 0.8)
        f = random_field(g, rng)
        assert relative_gap(op(op(f)), -discrete_laplacian(f)) <= 1e-13


def test_dirac_kahler_symmetric_for_pairing(rng):
    g = GridSpec((8, 6), 0.9)
    f, w = random_field(g, rng), random_field(g, rng)
    a = inner_product(dirac_kahler(f), w)
    b = inner_product(f, dirac_kahler(w))
    assert (a - b).norm() / max(a.norm(), 1e-300) <= 1e-13


def test_inner_product_conjugate_symmetry(rng):
    g = GridSpec((8,), 1.0)
    f, w = random_field(g, rng), random_field(g, rng)
    a = inner_product(f, w)
    b = inner_product(w, f)
    assert (a.dagger() - b).norm() <= 1e-12
    self_pair = inner_product(f, f).scalar_part
    assert self_pair.imag == pytest.approx(0.0, abs=1e-12)
    assert norm(f) == pytest.approx(math.sqrt(self_pair.real), abs=1e-12)


def test_field_arithmetic(rng):
    g = GridSpec((4, 4), 1.0)
    f, w = random_field(g, rng), random_field(g, rng)
    assert ((f + w) - w).allclose(f, tol=1e-13)
    assert ((f * 2.0) / 2.0).allclose(f, tol=1e-13)
    assert (-f + f).allclose(LatticeField.zeros(g))
    gam = pseudoscalar(g.sig)
    h = f.left_mul(gam).left_mul(gam)  # gamma^2 = 1
    assert h.allclose(f, tol=1e-13)


def test_random_field_is_reproducible():
    g = GridSpec((4,), 1.0)
    a = random_field(g, np.random.default_rng(5))
    b = random_field(g, np.random.default_rng(5))
    assert a.allclose(b)
    s = random_field(g, np.random.default_rng(5), scalar=True)
    assert float(np.sum(np.abs(s.values[..., 1:]))) == 0.0


def test_relative_gap_basics(rng):
    g = GridSpec((4,), 1.0)
    f = random_field(g, rng)
    assert relative_gap(f, f) == 0.0
    assert relative_gap(f * 2.0, f) > 0.1


def test_grid_mismatch_rejected(rng):
    f = random_field(GridSpec((4,), 1.0), rng)
    w = random_field(GridSpec((6,), 1.0), rng)
    with pytest.raises(ValueError):
        f + w


def test_site_reads_constructors_and_products_refuse_mismatched_arguments():
    g = GridSpec((4, 4), 0.5)
    f = random_field(g, np.random.default_rng(3))
    for index in [(0,), (0, 0, 0)]:
        with pytest.raises(ValueError, match="need 2 indices"):
            f.at(*index)
    with pytest.raises(ValueError, match=r"scalar data must have shape \(4, 4\), got \(4,\)"):
        LatticeField.from_scalar(g, np.ones(4))
    other = Multivector.scalar(GridSpec((4,), 0.5).sig, 1.0)
    with pytest.raises(ValueError, match="signature mismatch"):
        LatticeField.constant(g, other)
    with pytest.raises(ValueError, match="signature mismatch"):
        f.left_mul(other)


def test_fields_survive_a_pickle_round_trip():
    import pickle

    f = random_field(GridSpec((4, 2), 0.5, alpha=0.25, mass=1.5), np.random.default_rng(4), scalar=True)
    g = pickle.loads(pickle.dumps(f))
    assert type(g) is LatticeField and g.grid == f.grid and g.support == f.support
    assert g.columns.tobytes() == f.columns.tobytes()
