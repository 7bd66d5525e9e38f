"""Planted faults: every shared acceptance check must fail with CheckFailed when
one routine it exercises is perturbed in the ``latticewave.selftest`` namespace,
and the checks must not rest on ``assert``, which ``python -O`` strips."""

import ast
import importlib
import math
from fractions import Fraction
from pathlib import Path

import pytest

from latticewave import selftest
from latticewave.selftest import CheckFailed


def _scaled(factor):
    return lambda real: lambda *args, **kw: real(*args, **kw) * factor


def _plus_phi0(eps):
    # adds eps * phi0 to a solve whose first argument is its Cauchy data or phi0
    return lambda real: lambda data, *args, **kw: real(data, *args, **kw) + getattr(data, "phi0", data) * eps


def _first_odd_column_negated(real):
    # z = sum_j (-i a_j e_j + b_j e_{n+j}) with e_{n+1} negated still squares to d^2
    def z_on(axes, alpha, h):
        cols = real(axes, alpha, h)
        cols[..., len(axes)] *= -1.0
        return cols

    return z_on


def _one_coefficient_off(real):
    def basic_sequence(op, count=None):
        polys = real(op, count)
        polys[3] = polys[3][:-1] + (polys[3][-1] + Fraction(1, 10**9),)
        return polys

    return basic_sequence


FAULTS = [
    ("algebra_relations", "pseudoscalar", _scaled(1 + 1e-9)),
    ("factorization", "discrete_laplacian", _scaled(1.01)),
    ("multiplier_square", "d2_field", _scaled(1 + 1e-9)),
    ("multiplier_square", "spectral._z_on", _first_odd_column_negated),
    ("transforms", "convolve", lambda real: lambda f, g: real(g, f)),
    ("transforms", "dft_direct", _scaled(1 + 1e-9)),
    ("kg_central_exactness", "solve_kg", _plus_phi0(1e-6)),
    ("dirac_residual", "solve_dirac", _plus_phi0(1e-6)),
    ("chebyshev_equivalence", "chebyshev_solve", _scaled(1 + 1e-9)),
    ("umbral_calculus", "basic_sequence", _one_coefficient_off),
    ("umbral_calculus", "egf_series_eval", _scaled(1 + 1e-9)),
    ("heat_semigroup", "heat_kernel_bessel", _scaled(1 + 1e-9)),
    ("heat_semigroup", "heat_semigroup", _scaled(1 + 1e-9)),
    ("fractional_powers", "riesz_inverse", _scaled(1 + 1e-8)),
    ("fractional_powers", "p_t_operator", _plus_phi0(1e-6)),
    ("continuum_convergence", "solve_kg", _scaled(1 + 1e-3)),
    ("special_functions", "mittag_leffler", lambda real: lambda *args: real(*args) + 1e-9),
    ("special_functions", "bessel_i", lambda real: lambda k, u: real(k, u) + 1e-8),
    ("cli_round_trip", "load_field", _scaled(1 + 1e-15)),
    ("cli_round_trip", "main", lambda real: lambda argv: 0),
]


@pytest.mark.parametrize("check,name,fault", FAULTS, ids=[f"{c}-{n}" for c, n, _ in FAULTS])
def test_planted_fault_fails_its_check(monkeypatch, check, name, fault):
    # a dotted name is patched in its own latticewave module, the rest in selftest's namespace
    module, _, attr = name.rpartition(".")
    owner = importlib.import_module(f"latticewave.{module}") if module else selftest
    monkeypatch.setattr(owner, attr, fault(getattr(owner, attr)))
    with pytest.raises(CheckFailed):
        getattr(selftest, f"check_{check}")()


def test_every_check_has_a_planted_fault():
    assert {name for name, _ in selftest._CHECKS} == {check for check, _, _ in FAULTS}


def test_a_nan_deviation_fails_and_run_all_reports_the_bound(monkeypatch):
    monkeypatch.setattr(selftest, "relative_gap", lambda got, want: math.nan)
    rows = {name: (ok, detail) for name, ok, detail in selftest.run_all()}
    assert rows["transforms"] == (False, "inversion nan, want <= 1e-12")
    assert rows["algebra_relations"][0] and rows["special_functions"][0]


def test_selftest_holds_no_assert_statement():
    tree = ast.parse(Path(selftest.__file__).read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
