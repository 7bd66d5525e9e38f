"""Argument rules.  Counts, orders, degrees, mode numbers and indices: an
integral float or a numpy integer counts as its integer.  Real parameters
(mass, step, time, width, splitting): an int or a numpy real counts as its
float.  Anything else is a named ValueError, never a truncated count, a
silently parsed string or an unnamed TypeError."""

import math
import re

import numpy as np
import pytest

from latticewave import (
    CauchyData,
    DeltaOperator,
    FracParams,
    GridSpec,
    LatticeField,
    Multivector,
    Signature,
    TimeModel,
    basic_sequence,
    bessel_i,
    blade_mask,
    chebyshev_t,
    chebyshev_u,
    dirac_data,
    frac_power,
    heat_euler,
    heat_semigroup,
    kg_residual,
    leapfrog_march,
    lambda_max,
    shift,
    solve_kg,
    wave_multiplier_arrays,
    wave_multipliers,
)

GRID = GridSpec((8,), 1.0)
FIELD = LatticeField.gaussian(GRID, 1.5)
FIELD2 = LatticeField.gaussian(GridSpec((4, 6), 0.5), 0.75)
DATA = CauchyData(FIELD, LatticeField.gaussian(GRID, 0.75))
SIG = Signature(2)
X = np.linspace(-1.0, 1.0, 7)

REFUSED = {
    "grid-points": lambda: GridSpec((8.5,), 1.0),
    "grid-infinite-points": lambda: GridSpec((math.inf,), 1.0),
    "plane-wave-mode": lambda: LatticeField.plane_wave(GRID, (1.5,)),
    "bessel-order": lambda: bessel_i(1.5, 2.0),
    "basic-sequence-count": lambda: basic_sequence(DeltaOperator.derivative(), 2.5),
    "heat-euler-steps": lambda: heat_euler(FIELD, 0.1, 2.5),
    "chebyshev-t-degree": lambda: chebyshev_t(2.5, X),
    "chebyshev-u-degree": lambda: chebyshev_u(1.5, X),
    "signature-dimension": lambda: Signature(2.5),
    "site-index": lambda: FIELD.at(1.5),
    "shift-axis": lambda: shift(FIELD2, 1.5, 1),
    "generator-index": lambda: Multivector.generator(SIG, 1.5),
    "blade-index": lambda: blade_mask(SIG, [1, 2.5]),
}


@pytest.mark.parametrize("call", REFUSED.values(), ids=REFUSED.keys())
def test_a_fractional_count_is_a_named_error(call):
    with pytest.raises(ValueError, match="must be an integer, got"):
        call()


def test_a_negative_basic_sequence_count_is_refused():
    with pytest.raises(ValueError, match="count must be at least 0, got -1"):
        basic_sequence(DeltaOperator.derivative(), -1)


BELOW = {
    "chebyshev-t-degree": (lambda k: chebyshev_t(k, X), "degree", 0),
    "chebyshev-u-degree": (lambda k: chebyshev_u(k, X), "degree", -1),
    "leapfrog-steps": (lambda k: leapfrog_march(FIELD, FIELD, 1.0, 0.5, k), "steps", 0),
    "basic-sequence-count": (lambda k: basic_sequence(DeltaOperator.derivative(), k), "count", 0),
    "heat-euler-steps": (lambda k: heat_euler(FIELD, 0.1, k), "steps", 1),
}


@pytest.mark.parametrize("call,name,lo", BELOW.values(), ids=BELOW.keys())
def test_a_count_below_its_bound_is_refused_in_one_shape(call, name, lo):
    for k in (lo - 1, float(lo - 3), np.int64(lo - 2)):
        with pytest.raises(ValueError, match=f"^{name} must be at least {lo}, got {int(k)}$"):
            call(k)
    call(lo)  # the bound itself is a count


ACCEPTED = {
    "chebyshev-t": lambda k: chebyshev_t(k, X),
    "chebyshev-u": lambda k: chebyshev_u(k, X),
    "heat-euler": lambda k: heat_euler(FIELD, 0.1, k).columns,
    "shift-axis": lambda k: shift(FIELD2, k, 1).columns,
    "generator-index": lambda k: Multivector.generator(SIG, k).coeffs,
    "blade-index": lambda k: np.int64(blade_mask(SIG, [1, k])),
}


@pytest.mark.parametrize("call", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_an_integral_float_counts_as_its_integer(call):
    want = call(2)
    for k in (2.0, np.float32(2.0), np.int64(2)):
        assert call(k).tobytes() == want.tobytes()


def test_a_numpy_dimension_is_its_integer():
    assert Signature(np.int64(2)) == Signature(2) == Signature(2.0)
    assert type(Signature(np.int64(2)).n) is int


CONTINUOUS = TimeModel.continuous()
LAM = np.linspace(0.0, 1.9, 5)
REAL_REFUSED = {
    "solve-kg-time": (lambda v: solve_kg(DATA, CONTINUOUS, 1.0, v), "time t must be finite"),
    "kg-residual-step": (lambda v: kg_residual(FIELD, FIELD, FIELD, 1.0, v), "tau must be positive and finite"),
    "central-difference-step": (lambda v: TimeModel.central_difference(v), "tau must be positive and finite"),
    "heat-semigroup-time": (lambda v: heat_semigroup(FIELD, v), "heat time s must be finite"),
    "bessel-argument": (lambda v: bessel_i(1, v), "Bessel argument u must be finite"),
    "lambda-max-mass": (lambda v: lambda_max(GRID, v), "mass m must be finite"),
    "grid-spacing": (lambda v: GridSpec((4,), v), "spacing h must be positive and finite"),
    "grid-mass": (lambda v: GridSpec((4,), 1.0, mass=v), "mass must be finite"),
    "grid-alpha": (lambda v: GridSpec((4,), 1.0, alpha=v), r"alpha must lie in \[0, 1/2\]"),
    "gaussian-width": (lambda v: LatticeField.gaussian(GRID, v), "gaussian width must be positive and finite"),
    "frac-params-mass": (lambda v: FracParams(0.25, v), "mass must be positive and finite"),
    "frac-params-alpha": (lambda v: FracParams(v, 1.0), "alpha must lie strictly between 0 and 1/2"),
    "wave-multipliers-time": (lambda v: wave_multipliers(CONTINUOUS, 0.5, v), "time t must be finite"),
    "wave-multipliers-frequency": (lambda v: wave_multipliers(CONTINUOUS, v, 1.0), "frequencies must be finite"),
    "wave-multiplier-arrays-time": (lambda v: wave_multiplier_arrays(CONTINUOUS, LAM, v), "time t must be finite"),
    "wave-multiplier-arrays-frequency": (lambda v: wave_multiplier_arrays(CONTINUOUS, v, 1.0), "frequencies must be finite"),
    "dirac-data-mass": (lambda v: dirac_data(FIELD, 0.25, v), "mass m must be finite"),
}


@pytest.mark.parametrize("value", ["0.5", None], ids=["string", "none"])
@pytest.mark.parametrize("call,message", REAL_REFUSED.values(), ids=REAL_REFUSED.keys())
def test_a_real_parameter_that_is_not_a_number_is_a_named_error(call, message, value):
    with pytest.raises(ValueError, match=f"{message}, got {value!r}"):
        call(value)


@pytest.mark.parametrize(
    "lam",
    [["0.5", "1"], np.array(["0.5", "1"]), np.array([0.5, 1.0], dtype=object), [0.5, None]],
    ids=["string-list", "string-array", "object-array", "none-in-list"],
)
def test_a_frequency_array_that_is_not_numbers_is_a_named_error(lam):
    # np.asarray(["0.5", "1"], dtype=float) used to parse the strings as frequencies
    with pytest.raises(ValueError, match=re.escape(f"frequencies must be finite, got {lam!r}")):
        wave_multiplier_arrays(CONTINUOUS, lam, 1.0)


@pytest.mark.parametrize("lam", [[0, 1, 2], np.arange(3), np.array([0.0, 1.1, 2.0], np.float32), [True, 2.5]],
                         ids=["int-list", "int-array", "float32-array", "bool-and-float"])
def test_a_numeric_frequency_array_gives_the_bits_of_its_float_array(lam):
    want = np.stack(wave_multiplier_arrays(CONTINUOUS, np.array(lam, dtype=float), 0.7))
    assert np.stack(wave_multiplier_arrays(CONTINUOUS, lam, 0.7)).tobytes() == want.tobytes()


def test_a_string_step_is_refused_by_the_delta_operator():
    # DeltaOperator(tau=None) is the derivative, so only the string is an error here
    with pytest.raises(ValueError, match="tau must be positive and finite, got '0.5'"):
        DeltaOperator(tau="0.5")


REAL_ACCEPTED = {
    "solve-kg-time": lambda v: solve_kg(DATA, CONTINUOUS, 1.0, v).columns,
    "kg-residual-step": lambda v: np.float64(kg_residual(FIELD, 0.5 * FIELD, FIELD, 1.0, v)),
    "central-difference-step": lambda v: np.stack(TimeModel.central_difference(v / 4).multipliers(LAM, v / 2)),
    "delta-operator-step": lambda v: np.stack(DeltaOperator(tau=v / 4).multipliers(LAM, v / 2)),
    "heat-semigroup-time": lambda v: heat_semigroup(FIELD, v).columns,
    "bessel-argument": lambda v: np.float64(bessel_i(1, v)),
    "lambda-max-mass": lambda v: np.float64(lambda_max(GRID, v)),
    "gaussian-width": lambda v: LatticeField.gaussian(GRID, v).columns,
    "frac-params-mass": lambda v: frac_power(FIELD, FracParams(0.25, v)).columns,
    "wave-multipliers-time": lambda v: np.array(wave_multipliers(CONTINUOUS, 0.7, v)),
    "wave-multipliers-frequency": lambda v: np.array(wave_multipliers(CONTINUOUS, v, 0.7)),
    "wave-multiplier-arrays-time": lambda v: np.stack(wave_multiplier_arrays(CONTINUOUS, LAM, v)),
    "dirac-data-mass": lambda v: dirac_data(FIELD, 0.25, v).phi1.columns,
}


@pytest.mark.parametrize("call", REAL_ACCEPTED.values(), ids=REAL_ACCEPTED.keys())
def test_an_int_or_numpy_real_counts_as_its_float(call):
    for value, same in ((2, 2.0), (np.int64(2), 2.0), (np.float32(1.1), float(np.float32(1.1)))):
        assert call(value).tobytes() == call(same).tobytes(), value


NON_FINITE = {
    "wave-multipliers-time": (lambda v: wave_multipliers(CONTINUOUS, 0.5, v), "time t must be finite"),
    "wave-multipliers-frequency": (lambda v: wave_multipliers(CONTINUOUS, v, 1.0), "frequencies must be finite"),
    "wave-multiplier-arrays-time": (lambda v: wave_multiplier_arrays(CONTINUOUS, LAM, v), "time t must be finite"),
    "dirac-data-mass": (lambda v: dirac_data(FIELD, 0.25, v), "mass m must be finite"),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call,message", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_a_non_finite_real_parameter_is_a_named_error(call, message, value):
    # wave_multipliers(op, 0.5, inf) used to return (nan, nan)
    with pytest.raises(ValueError, match=f"{message}, got {value}"):
        call(value)


def test_a_negative_frequency_is_refused_by_name():
    with pytest.raises(ValueError, match="frequencies must be nonnegative, got -1.0"):
        wave_multipliers(CONTINUOUS, -1.0, 1.0)
