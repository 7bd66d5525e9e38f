"""Counts, orders, degrees and mode numbers: an integral float or a numpy integer
counts as its integer, and anything else is a named ValueError, never a
truncated count or an unnamed TypeError."""

import math

import numpy as np
import pytest

from latticewave import (
    DeltaOperator,
    GridSpec,
    LatticeField,
    basic_sequence,
    bessel_i,
    chebyshev_t,
    chebyshev_u,
    heat_euler,
)

GRID = GridSpec((8,), 1.0)
FIELD = LatticeField.gaussian(GRID, 1.5)
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
}


@pytest.mark.parametrize("call", REFUSED.values(), ids=REFUSED.keys())
def test_a_fractional_count_is_a_named_error(call):
    with pytest.raises(ValueError, match="must be an integer, got"):
        call()


def test_a_negative_basic_sequence_count_is_refused():
    with pytest.raises(ValueError, match="count must be nonnegative, got -1"):
        basic_sequence(DeltaOperator.derivative(), -1)


ACCEPTED = {
    "chebyshev-t": lambda k: chebyshev_t(k, X),
    "chebyshev-u": lambda k: chebyshev_u(k, X),
    "heat-euler": lambda k: heat_euler(FIELD, 0.1, k).columns,
}


@pytest.mark.parametrize("call", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_an_integral_float_counts_as_its_integer(call):
    want = call(2)
    for k in (2.0, np.float32(2.0), np.int64(2)):
        assert call(k).tobytes() == want.tobytes()
