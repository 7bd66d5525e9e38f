"""Delta operators, basic polynomial sequences, and wave multipliers.

Frozen oracles: the asinh inversion series, closed-form basic polynomials
t * prod(t + (k/2 - i) tau), and trigonometric multiplier formulas.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from latticewave import (
    CflViolationError,
    DeltaOperator,
    Multivector,
    PowerSeries,
    Signature,
    basic_sequence,
    compositional_inverse,
    egf_eval,
    egf_series_eval,
    multiplier_z,
    pseudoscalar,
    wave_multiplier_arrays,
    wave_multipliers,
)
from latticewave import umbral
from latticewave.oracles import difference_quotient
from latticewave.umbral import poly_eval


def _pad(p, q):
    L = max(len(p), len(q))
    return tuple(p) + (Fraction(0),) * (L - len(p)), tuple(q) + (Fraction(0),) * (L - len(q))


# -- power series ---------------------------------------------------------------


def test_series_product_of_exponentials():
    K = 10
    e = PowerSeries([1] * (K + 1))
    got = e * e
    want = PowerSeries([2**k for k in range(K + 1)])
    assert got.ordinary() == want.ordinary()


def test_series_compose_small_case():
    f = PowerSeries.from_ordinary([0, 1, 1])  # s + s^2
    g = PowerSeries.from_ordinary([0, 2, 0])  # 2s, padded so the quadratic term survives truncation
    assert f.compose(g).ordinary()[:3] == (Fraction(0), Fraction(2), Fraction(4))


def test_series_evaluate_matches_direct_sum():
    p = PowerSeries.from_ordinary([3, -2, 5, 7])
    x = 0.3 - 0.4j
    direct = 3 - 2 * x + 5 * x**2 + 7 * x**3
    assert cmath.isclose(p.evaluate(x), direct, rel_tol=1e-14)


def test_compositional_inverse_is_asinh_series():
    # for tau = 2 the central symbol is sinh(s), so its inverse is asinh:
    # asinh(s) = s - s^3/6 + 3 s^5/40 - 5*3 s^7/336 ...
    op = DeltaOperator.central_difference(2.0)
    assert op.series.ordinary()[:4] == (Fraction(0), Fraction(1), Fraction(0), Fraction(1, 6))
    want = {1: Fraction(1), 3: Fraction(-1, 6), 5: Fraction(3, 40), 7: Fraction(-15, 336)}
    ordinary = op.inverse.ordinary()
    for k, c in want.items():
        assert ordinary[k] == c
    for k in (0, 2, 4, 6):
        assert ordinary[k] == 0


def test_compositional_inverse_round_trips():
    op = DeltaOperator.central_difference(0.5)
    K = op.series.order
    ident = PowerSeries.identity(K).ordinary()
    assert op.series.compose(op.inverse).ordinary() == ident
    assert op.inverse.compose(op.series).ordinary() == ident


def test_compositional_inverse_rejects_bad_leading_terms():
    with pytest.raises(ValueError):
        compositional_inverse(PowerSeries.from_ordinary([1, 1]))  # nonzero constant
    with pytest.raises(ValueError):
        compositional_inverse(PowerSeries.from_ordinary([0, 0, 1]))  # zero linear term


# -- basic sequences ------------------------------------------------------------


def test_derivative_basic_sequence_is_monomials():
    polys = basic_sequence(DeltaOperator.derivative(), 8)
    for k, p in enumerate(polys):
        want = (Fraction(0),) * k + (Fraction(1),)
        a, b = _pad(p, want)
        assert a == b


def test_central_basic_sequence_frozen_tau2():
    # closed form t*(t+1)(t-1) etc. at tau=2, worked out by hand
    polys = basic_sequence(DeltaOperator.central_difference(2.0), 6)
    frozen = {
        0: (1,),
        1: (0, 1),
        2: (0, 0, 1),
        3: (0, -1, 0, 1),
        4: (0, 0, -4, 0, 1),
        5: (0, 9, 0, -10, 0, 1),
    }
    for k, want in frozen.items():
        a, b = _pad(polys[k], tuple(Fraction(c) for c in want))
        assert a == b, k


def test_central_basic_sequence_matches_product_formula():
    # m_k(t) = t * prod_{i=1}^{k-1} (t + (k/2 - i) tau), exact in Fractions
    tau = Fraction(1, 2)
    polys = basic_sequence(DeltaOperator.central_difference(0.5), 9)
    for k in range(1, 9):
        poly = [Fraction(0), Fraction(1)]  # t
        for i in range(1, k):
            root = (Fraction(k, 2) - i) * tau
            shifted = [Fraction(0)] + poly
            poly = [shifted[d] + (poly[d] if d < len(poly) else Fraction(0)) * root for d in range(len(shifted))]
        a, b = _pad(polys[k], tuple(poly))
        assert a == b, k


@pytest.mark.parametrize("make", [DeltaOperator.derivative, lambda: DeltaOperator.central_difference(0.5)])
def test_lowering_is_exact(make):
    op = make()
    polys = basic_sequence(op, 11)
    assert polys[0] == (Fraction(1),)
    for k in range(1, 11):
        assert poly_eval(polys[k], Fraction(0)) == 0
        assert polys[k][-1] == 1  # monic of degree k
        lowered = op.apply(polys[k])
        want = tuple(Fraction(k) * c for c in polys[k - 1])
        a, b = _pad(lowered, want)
        assert a == b, k


def test_apply_matches_shift_quotient():
    # series route vs direct [p(t+tau/2) - p(t-tau/2)]/tau evaluation
    op = DeltaOperator.central_difference(0.75)
    p = (Fraction(3), Fraction(-1, 2), Fraction(0), Fraction(2), Fraction(1, 3))
    a, b = _pad(op.apply(p), difference_quotient(p, Fraction(3, 4)))
    assert a == b


def test_inverse_symbol_closed_form_matches_series():
    op = DeltaOperator.central_difference(0.8)
    for w in (0.1, 0.3 + 0.2j, -0.5j):
        closed = op.inverse_symbol(w)
        series = complex(op.inverse.evaluate(w))
        assert abs(closed - series) <= 1e-10
        assert abs(closed - (2 / 0.8) * cmath.asinh(0.8 * w / 2)) <= 1e-14


def test_custom_operator_from_series():
    # forward difference (e^{tau s} - 1)/tau as an explicit series
    tau = 0.5
    K = 16
    L = PowerSeries([0] + [tau ** (k - 1) for k in range(1, K + 1)])
    op = DeltaOperator.from_series(L)
    polys = basic_sequence(op, 5)
    # falling-factorial-type sequence: m_2 = t(t - tau)
    a, b = _pad(polys[2], (Fraction(0), -Fraction(1, 2), Fraction(1)))
    assert a == b
    for k in range(1, 5):
        lowered = op.apply(polys[k])
        want = tuple(Fraction(k) * c for c in polys[k - 1])
        a, b = _pad(lowered, want)
        assert a == b


TAU = 0.5
CUSTOM_CENTRAL = DeltaOperator.from_series(DeltaOperator.central_difference(TAU).series)


def test_custom_central_difference_passes_its_guard_across_the_band():
    # tau*lambda/2 in [0, 0.999]: Newton's method on the truncated series finds M(i lambda) everywhere
    lam = np.linspace(0.0, 0.999, 2001) * 2.0 / TAU
    for t in (0.0, 1.5, -2.5, 7.0):
        c, s = wave_multiplier_arrays(CUSTOM_CENTRAL, lam, t)
        assert np.all(np.isfinite(c)) and np.all(np.isfinite(s))
    u = CUSTOM_CENTRAL._custom_inverse(1j * lam)
    back = np.array([complex(CUSTOM_CENTRAL.series.evaluate(complex(v))) for v in u[::50]])
    assert np.max(np.abs(back - 1j * lam[::50])) <= 1e-9 * np.max(lam)


def test_custom_central_difference_matches_the_built_in_multipliers():
    built_in = DeltaOperator.central_difference(TAU)
    lam = np.linspace(0.0, 0.9, 901) * 2.0 / TAU
    for t in (0.5, 1.5, 4.0, -3.0):
        c, s = wave_multiplier_arrays(CUSTOM_CENTRAL, lam, t)
        cb, sb = wave_multiplier_arrays(built_in, lam, t)
        assert np.max(np.abs(c - cb)) <= 1e-12 and np.max(np.abs(s - sb)) <= 1e-12
        assert np.max(np.abs(c.imag)) <= 1e-12  # M(i lambda) is imaginary inside the band


@pytest.mark.parametrize("x", [1.0001, 1.01, 1.2, 1.5, 2.0, 3.0, 10.0, 1e3, 1e8])
def test_custom_operator_past_the_band_trips_the_guard(x):
    # the truncated series also has far roots past the band; the guard refuses them, and NaN, by name
    with pytest.raises(ValueError, match="outside the convergence guard"):
        wave_multiplier_arrays(CUSTOM_CENTRAL, np.array([0.3, x * 2.0 / TAU]), 1.5)
    with pytest.raises(ValueError, match="outside the convergence guard"):
        CUSTOM_CENTRAL.inverse_symbol(1j * x * 2.0 / TAU)


def test_custom_inverse_symbol_matches_the_closed_form():
    for w in (0.3, 0.2 + 0.1j, 3.5j, -2.0j):
        want = DeltaOperator.central_difference(TAU).inverse_symbol(w)
        assert abs(CUSTOM_CENTRAL.inverse_symbol(w) - want) <= 1e-12 * max(1.0, abs(want))


def test_built_in_operators_build_their_series_on_demand():
    op = DeltaOperator.central_difference(TAU)
    assert "series" not in vars(op) and "inverse" not in vars(op)
    wave_multiplier_arrays(op, np.array([0.5, 1.0]), 1.5)
    op.inverse_symbol(0.5j)
    assert "series" not in vars(op) and "inverse" not in vars(op)
    assert op.series.ordinary()[3] == Fraction(1, 96)  # (2/tau) sinh(tau s / 2) = s + tau^2 s^3 / 24 + ...
    assert op.inverse is op.inverse


# -- EGF evaluation -------------------------------------------------------------


def _omegas():
    sig = Signature(1)
    z = multiplier_z((0.8,), 0.25, 1.0)
    zm = z - pseudoscalar(sig) * 1.0
    lam = math.sqrt(abs((zm * zm).coeffs[0]))
    return [Multivector.generator(sig, 2), pseudoscalar(sig), zm * (1.0 / lam)]


def test_egf_closed_vs_series():
    op = DeltaOperator.central_difference(0.5)
    worst = 0.0
    for om in _omegas():
        assert ((om * om) - Multivector.scalar(om.sig, 1.0)).norm() <= 1e-12
        for r, t in ((0.5, 2.0), (1.0, 1.0), (0.25, 0.8)):
            s = om * (r * cmath.exp(0.6j))
            closed = egf_eval(op, s, t)
            series = egf_series_eval(op, s, t)
            worst = max(worst, (closed - series).norm() / closed.norm())
    assert worst <= 1e-10


def test_egf_eigenvalue_identity():
    # the operator's own half-step quotient applied to G(s, .) returns s G(s, .)
    tau = 0.5
    op = DeltaOperator.central_difference(tau)
    om = _omegas()[0]
    for r in (0.3, 0.9):
        s = om * r
        for t in (0.4, 1.1):
            lhs = (egf_eval(op, s, t + tau / 2) - egf_eval(op, s, t - tau / 2)) * (1.0 / tau)
            rhs = s * egf_eval(op, s, t)
            assert (lhs - rhs).norm() / rhs.norm() <= 1e-12


def test_egf_at_zero_argument_is_one():
    op = DeltaOperator.central_difference(0.5)
    sig = Signature(1)
    got = egf_eval(op, Multivector.zero(sig), 1.7)
    assert got.allclose(Multivector.scalar(sig, 1.0))


def test_egf_rejects_nilpotent_direction():
    sig = Signature(1)
    s = Multivector.generator(sig, 1) + Multivector.generator(sig, 2)  # squares to 0
    assert ((s * s)).norm() <= 1e-14
    op = DeltaOperator.central_difference(0.5)
    with pytest.raises(ValueError):
        egf_eval(op, s, 1.0)


def test_nilpotent_test_scales_with_the_argument():
    # s = N + delta e4 with N = a (e1 + e3), N^2 = 0 and |N| = 1e3; e4 anticommutes with N, so
    # s^2 = delta^2 exactly.  c = delta = 1e-13 is below 1e-14 |s|: s is nilpotent to working
    # precision, though c is far above 1e-14 / |s|
    sig = Signature(2)
    e1, e3, e4 = (Multivector.generator(sig, j) for j in (1, 3, 4))
    s = (e1 + e3) * (1e3 / math.sqrt(2.0)) + e4 * 1e-13
    assert (s * s).coeffs[0] == 1e-13 * 1e-13 and abs(s.norm() - 1e3) <= 1e-9
    with pytest.raises(ValueError, match="nilpotent"):
        umbral._split_square_root(s)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("egf", [egf_eval, egf_series_eval], ids=["closed", "series"])
def test_egf_rejects_non_finite_argument_and_time(egf, x):
    # a NaN used to give an all-NaN multivector, and an infinite coefficient numpy's invalid-value warning
    op, sig = DeltaOperator.central_difference(0.5), Signature(1)
    s = Multivector.generator(sig, 1) * 0.7
    with pytest.raises(ValueError, match="argument s must have finite coefficients"):
        egf(op, Multivector(sig, [0.0, x, 0.0, 0.0]), 1.0)
    with pytest.raises(ValueError, match="time t must be finite"):
        egf(op, s, x)


# -- wave multipliers -----------------------------------------------------------


@pytest.mark.parametrize("lam", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("op", [DeltaOperator.derivative(), DeltaOperator.central_difference(0.5)],
                         ids=["continuous", "central"])
def test_multipliers_reject_non_finite_frequencies(op, lam):
    # a NaN frequency used to give (nan, nan), and inf numpy's invalid-value warning
    with pytest.raises(ValueError, match="frequencies must be finite"):
        wave_multipliers(op, lam, 1.0)


def test_continuous_multipliers_are_trig():
    op = DeltaOperator.derivative()
    lam = np.array([0.0, 0.5, 2.0])
    c, s = wave_multiplier_arrays(op, lam, 1.3)
    assert np.allclose(c, np.cos(1.3 * lam), atol=1e-14)
    want_s = np.array([1.3, math.sin(1.3 * 0.5) / 0.5, math.sin(1.3 * 2.0) / 2.0])
    assert np.allclose(s, want_s, atol=1e-14)


def test_central_multipliers_closed_form():
    tau, t = 0.5, 1.5
    op = DeltaOperator.central_difference(tau)
    lam = np.array([0.4, 1.0, 3.0])
    c, s = wave_multiplier_arrays(op, lam, t)
    theta = np.arcsin(tau * lam / 2)
    k = 2 * t / tau
    assert np.allclose(c, np.cos(k * theta), atol=1e-13)
    assert np.allclose(s, np.sin(k * theta) / lam, atol=1e-13)


def test_central_multipliers_satisfy_leapfrog_recurrence():
    tau = 0.5
    op = DeltaOperator.central_difference(tau)
    lam = np.linspace(0.0, 3.9, 40)
    for t in (0.5, 1.0, 2.5):
        cm, sm = wave_multiplier_arrays(op, lam, t - tau)
        c0, s0 = wave_multiplier_arrays(op, lam, t)
        cp, sp = wave_multiplier_arrays(op, lam, t + tau)
        factor = 2.0 - tau**2 * lam**2
        assert np.max(np.abs(cp + cm - factor * c0)) <= 1e-12
        assert np.max(np.abs(sp + sm - factor * s0)) <= 1e-12


def test_multipliers_pythagorean_identity_through_series_branch():
    # c^2 + lam^2 s^2 = 1 must survive tiny lambda, where sin(phi)/lam divides two small numbers
    tau = 0.5
    op = DeltaOperator.central_difference(tau)
    lam = np.concatenate([[0.0], np.logspace(-9, 0.5, 25)])
    for t in (0.5, 4.0):
        c, s = wave_multiplier_arrays(op, lam, t)
        assert np.max(np.abs(c**2 + lam**2 * s**2 - 1.0)) <= 1e-12
        assert s[0] == pytest.approx(t, rel=1e-12)  # lam = 0 limit


@pytest.mark.parametrize("tau", [0.5, 0.3, 0.1])
def test_multipliers_are_the_closed_forms_bit_for_bit(tau):
    # the goldens use tau = 0.5 only, where reordering 2t/tau or tau*lam/2 would not show
    lam = np.geomspace(1.001e-4, 0.999, 2001) * 2.0 / tau  # tau*lam/2 in [1e-4, 0.999]
    wide = lam * 3.0  # reaches past the bound 2/tau
    central, derivative = DeltaOperator.central_difference(tau), DeltaOperator.derivative()
    growing = DeltaOperator.central_difference(tau, allow_unstable=True)
    for j in (-7, -2, -1, 1, 3, 10):
        t = j * tau / 2.0
        k = 2.0 * t / tau
        theta = np.arcsin(tau * lam / 2.0)
        unstable = np.arcsin((tau * wide / 2.0).astype(complex))
        for (c, s), (cw, sw) in (
            (wave_multiplier_arrays(central, lam, t), (np.cos(k * theta), np.sin(k * theta) / lam)),
            (wave_multiplier_arrays(derivative, lam, t), (np.cos(t * lam), np.sin(t * lam) / lam)),
            (wave_multiplier_arrays(growing, wide, t),
             (np.cos(k * unstable), np.sin(k * unstable) / wide)),
        ):
            assert c.dtype == cw.dtype and c.tobytes() == cw.tobytes()
            assert s.dtype == sw.dtype and s.tobytes() == sw.tobytes()


def test_inverse_symbol_continues_past_the_bound_like_the_multipliers():
    # s = lam e1 squares to -lam^2, so the generating function reads M(i lam): the multipliers' branch
    tau = 0.5
    op, growing = DeltaOperator.central_difference(tau), DeltaOperator.central_difference(tau, allow_unstable=True)
    sig = Signature(1)
    e1 = Multivector.generator(sig, 1)
    for lam in (5.0, 9.0):
        for t in (0.75, 1.25, 2.0):
            c, s = wave_multipliers(growing, lam, t)
            want = Multivector.scalar(sig, c) + (e1 * lam) * s
            assert (egf_eval(op, e1 * lam, t) - want).norm() <= 1e-12 * want.norm()


def test_cfl_violation_raises_with_diagnostics():
    op = DeltaOperator.central_difference(1.0)
    lam = np.array([0.5, 2.5])  # bound is 2/tau = 2
    with pytest.raises(CflViolationError) as info:
        wave_multiplier_arrays(op, lam, 2.0)
    assert info.value.lam_max == pytest.approx(2.5)
    assert info.value.bound == pytest.approx(2.0)


def test_unstable_continuation_grows():
    op = DeltaOperator.central_difference(1.0, allow_unstable=True)
    lam = np.array([2.5])
    norms = []
    for steps in (2, 4, 6):
        c, s = wave_multiplier_arrays(op, lam, float(steps))
        norms.append(abs(c[0]))
    assert norms[0] < norms[1] < norms[2]
    assert norms[2] > 10.0


def test_scalar_wrapper_matches_arrays():
    op = DeltaOperator.central_difference(0.5)
    c, s = wave_multipliers(op, 1.2, 2.0)
    ca, sa = wave_multiplier_arrays(op, np.array([1.2]), 2.0)
    assert c == pytest.approx(complex(ca[0]))
    assert s == pytest.approx(complex(sa[0]))


@pytest.mark.parametrize("lam", [math.nan, math.inf], ids=["nan", "inf"])
def test_multiplier_arrays_refuse_a_non_finite_frequency(lam):
    # wave_multipliers refuses a non-finite scalar before it reaches the array path
    with pytest.raises(ValueError, match="frequencies must be finite"):
        wave_multiplier_arrays(DeltaOperator.derivative(), np.array([1.0, lam]), 0.5)


def test_multipliers_refuse_a_negative_frequency():
    with pytest.raises(ValueError, match="frequencies must be nonnegative"):
        wave_multiplier_arrays(DeltaOperator.derivative(), np.array([1.0, -1.0]), 0.5)


@pytest.mark.parametrize("route", [
    lambda op: wave_multipliers(op, 1.0, 0.3),
    lambda op: wave_multiplier_arrays(op, np.array([1.0]), 0.3),
    lambda op: op.multipliers(np.array([1.0]), 0.3),
], ids=["scalar", "arrays", "time-model"])
def test_every_multiplier_route_refuses_a_time_off_the_half_step_lattice(route):
    # a central difference lives on t in (tau/2) Z; the scalar and array routes once evaluated it anywhere
    with pytest.raises(ValueError, match=r"^time 0\.3 is not an integer multiple of tau/2 = 0\.25$"):
        route(DeltaOperator.central_difference(0.5))


@pytest.mark.parametrize("coeffs", [[1, 1], [0], [0, 0, 1]], ids=["b0", "short", "b1"])
def test_a_custom_series_must_start_with_a_linear_term(coeffs):
    with pytest.raises(ValueError, match="requires b_0 = 0 and b_1 != 0"):
        DeltaOperator.from_series(PowerSeries(coeffs))


def test_a_custom_series_takes_no_step():
    with pytest.raises(ValueError, match="a custom delta series has no step tau"):
        DeltaOperator(tau=0.5, custom=PowerSeries([0, 1]))


def test_basic_sequence_stops_at_the_series_order():
    op = DeltaOperator.from_series(PowerSeries([0, 1, 0, 0]))
    assert len(basic_sequence(op, 4)) == 4
    with pytest.raises(ValueError, match="requested 5 polynomials but series order is 4"):
        basic_sequence(op, 5)
