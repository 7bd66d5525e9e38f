"""Transient memory of the spectral path, as multiples of one field.

Each test traces one call on a 3D 16³ field with all 64 blades active (its
columns take 4.19 MB) and bounds the peak of what the call allocates, its
result included, by a multiple of those column bytes.  The inputs exist
before tracing starts, so they are not counted.  Symbols of shape
``(*shape,)`` are 1/128 of such a field and barely show.

| call | before | bound |
|---|---|---|
| ``dft``, ``idft`` | 2.0 | 1.05 |
| ``multiply_field`` by a scalar, ``heat_semigroup``, spectral ``frac_power`` | 3.0 | 1.1 |
| ``solve_kg`` | 5.0 | 2.1 |
| one ``Propagator`` slice, its transforms made | (new) | 2.1 |
| ``discrete_laplacian`` | 3.0 | 2.1 |
| subordination ``frac_power`` | 5.0 | 2.6 |

``inner_product`` is bounded on two scalar 32³ fields instead, by a multiple
of one field's column bytes (0.52 MB): it read 193 when it multiplied the
dense ``(*shape, 64)`` arrays, and 4.0 on the product of the two supports.
"""

import tracemalloc

import numpy as np
import pytest

from latticewave import (
    CauchyData,
    FracParams,
    GridSpec,
    Propagator,
    TimeModel,
    dft,
    discrete_laplacian,
    frac_power,
    heat_semigroup,
    idft,
    inner_product,
    random_field,
    solve_kg,
)
from latticewave.spectral import d2_field, multiply_field

GRID = GridSpec((16, 16, 16), 0.8, 0.25, 1.0)
PARAMS = FracParams(0.25, 1.0)


@pytest.fixture(scope="module")
def fields():
    rng = np.random.default_rng(41)
    f, g = random_field(GRID, rng), random_field(GRID, rng)
    assert f.columns.nbytes == 4_194_304
    return f, g


def _peak_multiple(call, field_bytes: int = GRID.site_count * GRID.blades * np.dtype(complex).itemsize) -> float:
    call()  # FFT plans and cached tables are made once, outside the trace
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / field_bytes


def _check(call, bound):
    multiple = _peak_multiple(call)
    assert multiple <= bound, f"peak {multiple:.3f} fields, bound {bound}"


def test_transforms_hold_one_field(fields):
    f, _ = fields
    F = dft(f)
    _check(lambda: dft(f), 1.05)
    _check(lambda: idft(F), 1.05)


def test_scalar_multipliers_work_in_the_transform(fields):
    f, _ = fields
    d2 = d2_field(GRID)
    _check(lambda: multiply_field(f, d2), 1.1)
    _check(lambda: heat_semigroup(f, 0.3), 1.1)
    _check(lambda: frac_power(f, PARAMS, "spectral"), 1.1)


def test_klein_gordon_holds_its_two_transforms(fields):
    data = CauchyData(*fields)
    time = TimeModel.central_difference(0.25)  # inside the CFL bound: lambda_max = 4.44 < 2/tau
    _check(lambda: solve_kg(data, time, GRID.mass, 1.0), 2.1)


def test_a_plan_slice_holds_two_fresh_buffers(fields):
    # the warm-up call makes the plan's transforms; the traced one is a later slice
    data = CauchyData(*fields)
    plan = Propagator(data, GRID.mass)
    time = TimeModel.central_difference(0.25)
    _check(lambda: solve_kg(plan, time, GRID.mass, 1.0), 2.1)


def test_laplacian_holds_its_result_and_two_blocks(fields):
    f, _ = fields
    _check(lambda: discrete_laplacian(f), 2.1)


def test_subordination_holds_its_head_and_one_transform(fields):
    f, _ = fields
    _check(lambda: frac_power(f, PARAMS, "subordination"), 2.6)


def test_the_pairing_holds_a_few_product_columns():
    grid = GridSpec((32, 32, 32), 0.8)
    rng = np.random.default_rng(43)
    f, g = random_field(grid, rng, scalar=True), random_field(grid, rng, scalar=True)
    multiple = _peak_multiple(lambda: inner_product(f, g), f.columns.nbytes)
    assert multiple <= 5.0, f"peak {multiple:.3f} scalar fields, bound 5.0"
