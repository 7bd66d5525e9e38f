"""Cl(n,n) multivectors: generator relations, frozen n=1 tables, dagger, pseudoscalar."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticewave import (
    Multivector,
    Signature,
    blade_indices,
    blade_mask,
    pseudoscalar,
)
from latticewave.clifford import _tables, mul_arrays


def _rand(sig, rng):
    co = rng.standard_normal(sig.blades) + 1j * rng.standard_normal(sig.blades)
    return Multivector(sig, co / np.linalg.norm(co))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generator_squares(n):
    sig = Signature(n)
    for j in range(1, 2 * n + 1):
        g = Multivector.generator(sig, j)
        want = Multivector.scalar(sig, -1.0 if j <= n else 1.0)
        assert (g * g).allclose(want)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generators_anticommute(n):
    sig = Signature(n)
    gens = [Multivector.generator(sig, j) for j in range(1, 2 * n + 1)]
    for i, a in enumerate(gens):
        for b in gens[i + 1 :]:
            assert (a * b + b * a).norm() == 0.0


# hand-computed Cl(1,1) table over the basis (1, e1, e2, e1e2):
# entry (i, j) lists the blade index and sign of basis_i * basis_j
_CL11_TABLE = [
    [(0, 1), (1, 1), (2, 1), (3, 1)],
    [(1, 1), (0, -1), (3, 1), (2, -1)],
    [(2, 1), (3, -1), (0, 1), (1, -1)],
    [(3, 1), (2, 1), (1, 1), (0, 1)],
]


def test_cl11_multiplication_table():
    sig = Signature(1)
    basis = [Multivector(sig, np.eye(4)[k]) for k in range(4)]
    for i in range(4):
        for j in range(4):
            mask, sign = _CL11_TABLE[i][j]
            got = basis[i] * basis[j]
            want = Multivector(sig, sign * np.eye(4)[mask])
            assert got.allclose(want), (i, j)


def test_cl11_dagger_table():
    # e1 -> -e1, e2 -> e2, e1e2 -> e1e2, conjugate-linear throughout
    sig = Signature(1)
    signs = [1, -1, 1, 1]
    for k in range(4):
        a = Multivector(sig, (2 + 3j) * np.eye(4)[k])
        want = Multivector(sig, (2 - 3j) * signs[k] * np.eye(4)[k])
        assert a.dagger().allclose(want)


def test_blade_mask_round_trip():
    sig = Signature(3)
    for mask in range(sig.blades):
        assert blade_mask(sig, blade_indices(mask)) == mask
    with pytest.raises(ValueError):
        blade_mask(sig, [1, 1])
    with pytest.raises(ValueError):
        blade_mask(sig, [7])
    with pytest.raises(ValueError, match="generator index 1 follows 2"):
        Multivector.blade(sig, [2, 1])  # e2 e1 = -e1 e2: the mask of e1 e2 alone would drop that sign


@pytest.mark.parametrize("n", [1, 2, 3])
def test_associativity(n, rng):
    sig = Signature(n)
    for _ in range(20):
        a, b, c = (_rand(sig, rng) for _ in range(3))
        assert (((a * b) * c) - (a * (b * c))).norm() <= 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_dagger_is_conjugate_linear_antiautomorphism(n, rng):
    sig = Signature(n)
    for _ in range(10):
        a, b = _rand(sig, rng), _rand(sig, rng)
        assert ((a * b).dagger() - b.dagger() * a.dagger()).norm() <= 1e-13
        assert (a.dagger().dagger() - a).norm() == 0.0
        assert ((a * (2 - 1j)).dagger() - a.dagger() * (2 + 1j)).norm() <= 1e-13


def test_norm_squared_matches_pairing(rng):
    sig = Signature(2)
    a = _rand(sig, rng)
    paired = (a.dagger() * a).scalar_part
    assert paired.imag == pytest.approx(0.0, abs=1e-13)
    assert a.norm_squared() == pytest.approx(paired.real, abs=1e-13)
    assert a.norm_squared() == pytest.approx(float(np.sum(np.abs(a.coeffs) ** 2)), abs=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pseudoscalar_relations(n):
    sig = Signature(n)
    gam = pseudoscalar(sig)
    assert (gam * gam).allclose(Multivector.scalar(sig, 1.0))
    for j in range(1, 2 * n + 1):
        g = Multivector.generator(sig, j)
        assert (gam * g + g * gam).norm() == 0.0


def test_pseudoscalar_n1_is_minus_e1e2():
    sig = Signature(1)
    gam = pseudoscalar(sig)
    e1e2 = Multivector.blade(sig, [1, 2])
    assert (gam + e1e2).norm() == 0.0


def test_arithmetic_and_scalars(rng):
    sig = Signature(2)
    a, b = _rand(sig, rng), _rand(sig, rng)
    assert ((a + b) - b).allclose(a)
    assert (-a + a).norm() == 0.0
    assert ((a * 2.0) / 2.0).allclose(a)
    assert (2.0 * a).allclose(a * 2.0)
    assert (1.0 - a).allclose(Multivector.scalar(sig, 1.0) - a)


def test_constructor_validation():
    sig = Signature(2)
    with pytest.raises(ValueError):
        Multivector(sig, np.zeros(7))
    with pytest.raises(ValueError):
        Multivector.generator(sig, 5)
    with pytest.raises(ValueError):
        Signature(0)
    with pytest.raises(ValueError):
        Signature(6)


def test_signature_mismatch_rejected(rng):
    a = _rand(Signature(1), rng)
    b = _rand(Signature(2), rng)
    with pytest.raises(ValueError):
        a * b


def test_mul_arrays_matches_scalar_path(rng):
    # the broadcast product must agree with one-at-a-time multivector products
    sig = Signature(2)
    A = rng.standard_normal((5, sig.blades)) + 1j * rng.standard_normal((5, sig.blades))
    B = rng.standard_normal((5, sig.blades)) + 1j * rng.standard_normal((5, sig.blades))
    got = mul_arrays(2, A, B)
    for k in range(5):
        want = Multivector(sig, A[k]) * Multivector(sig, B[k])
        assert np.max(np.abs(got[k] - want.coeffs)) <= 1e-12


# -- sparse product against the dense double loop -----------------------------------


def _dense_mul(n, a, b):
    """Reference product: every left blade times every right blade, zeros included."""
    sign, _ = _tables(n)
    size = 1 << (2 * n)
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    blades = np.arange(size)
    for i in range(size):
        out[..., blades ^ i] += a[..., i, None] * (sign[i] * b)
    return out


def _support(n, kind, rng):
    size = 1 << (2 * n)
    if kind == "empty":
        return []
    if kind == "one":
        return [int(rng.integers(size))]
    if kind == "dirac":
        # scalar data under the Dirac flow: {1, e_j, e_{n+j}, pseudoscalar}
        return sorted({0, size - 1} | {1 << j for j in range(2 * n)})
    return list(range(size))


def _with_support(shape, n, blades, rng):
    vals = np.zeros(shape + (1 << (2 * n),), dtype=complex)
    vals[..., blades] = rng.standard_normal(shape + (len(blades),)) + 1j * rng.standard_normal(shape + (len(blades),))
    return vals


SUPPORTS = ("empty", "one", "dirac", "full")


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("left", SUPPORTS)
@pytest.mark.parametrize("right", SUPPORTS)
def test_mul_arrays_equals_dense_loop(n, left, right, rng):
    assert len(_support(n, "dirac", rng)) == 2 * n + 2
    a = _with_support((3, 2), n, _support(n, left, rng), rng)
    b = _with_support((3, 2), n, _support(n, right, rng), rng)
    assert np.array_equal(mul_arrays(n, a, b), _dense_mul(n, a, b))
    # broadcast: a constant multivector times a field, and the reverse
    assert np.array_equal(mul_arrays(n, a[0, 0], b), _dense_mul(n, a[0, 0], b))
    assert np.array_equal(mul_arrays(n, a, b[1, 1]), _dense_mul(n, a, b[1, 1]))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3),
    shape=st.lists(st.integers(1, 4), max_size=2).map(tuple),
    bits=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
    seed=st.integers(0, 2**32 - 1),
)
def test_mul_arrays_property_random_supports(n, shape, bits, seed):
    size = 1 << (2 * n)
    rng = np.random.default_rng(seed)
    a, b = (_with_support(shape, n, [k for k in range(size) if mask >> k & 1], rng) for mask in bits)
    assert np.array_equal(mul_arrays(n, a, b), _dense_mul(n, a, b))
