"""Acceptance suite: thirteen pinned criteria, one test and one printed
PASS/FAIL line each (collected again in the terminal summary).

Criteria 1-12 run the checks of ``latticewave.selftest``, the same ones
``latticewave selftest`` runs; each holds a closed-form route against an
independent oracle (brute-force product tables, dense transform matrices,
position-space marching, quadrature) and raises ``CheckFailed`` naming the
bound it broke.  Criterion 13 holds the command line to committed output.
"""

import filecmp
import json
import subprocess
import sys
from pathlib import Path

from latticewave import selftest
from latticewave.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def test_criterion_01_algebra_relations(criterion):
    with criterion(1, "Clifford algebra relations"):
        selftest.check_algebra_relations()


def test_criterion_02_dirac_factorization(criterion):
    with criterion(2, "Dirac operator squares to Klein-Gordon"):
        selftest.check_factorization()


def test_criterion_03_multiplier_square_condition(criterion):
    with criterion(3, "symbol square z**2 = d**2 on full grids"):
        selftest.check_multiplier_square()


def test_criterion_04_transforms(criterion):
    with criterion(4, "transforms: inversion, Parseval, convolution"):
        selftest.check_transforms()


def test_criterion_05_central_kg_is_exact(criterion):
    with criterion(5, "central-difference evolution solves the leapfrog exactly"):
        selftest.check_kg_central_exactness()


def test_criterion_06_dirac_half_step_recurrence(criterion):
    with criterion(6, "first-order flow holds on the half-step grid"):
        selftest.check_dirac_residual()


def test_criterion_07_chebyshev_equivalence(criterion):
    with criterion(7, "Chebyshev multipliers equal the central solver"):
        selftest.check_chebyshev_equivalence()


def test_criterion_08_umbral_calculus(criterion):
    with criterion(8, "umbral basis: exact lowering and generating function"):
        selftest.check_umbral_calculus()


def test_criterion_09_heat_semigroup(criterion):
    with criterion(9, "heat kernels: closed form, semigroup law, conservation"):
        selftest.check_heat_semigroup()


def test_criterion_10_fractional_operators(criterion):
    with criterion(10, "fractional powers: subordination, Riesz, equivalence"):
        selftest.check_fractional_powers()


def test_criterion_11_continuum_convergence(criterion):
    with criterion(11, "second-order convergence to the continuum dispersion"):
        selftest.check_continuum_convergence()


def test_criterion_12_special_functions(criterion):
    with criterion(12, "special functions against independent representations"):
        selftest.check_special_functions()


def test_criterion_13_cli_end_to_end(criterion, tmp_path):
    with criterion(13, "command line reproduces committed runs"):
        res = subprocess.run(
            [sys.executable, "-m", "latticewave.cli", "selftest"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert res.returncode == 0, res.stdout + res.stderr
        assert "13/13 checks passed" in res.stdout
        assert "FAIL" not in res.stdout
        assert res.stderr == ""  # a passing selftest is quiet: no stray RuntimeWarning

        runs = [
            ("dirac", ["evolve", "--config", str(FIXTURES / "dirac.cfg")]),
            ("heat_kernel", ["kernel", "--kind", "heat", "--config", str(FIXTURES / "heat_kernel.cfg")]),
            ("spectrum", ["spectrum", "--config", str(FIXTURES / "spectrum.cfg")]),
        ]
        for name, argv in runs:
            out = tmp_path / name
            assert main(argv + ["--out", str(out)]) == 0
            golden = FIXTURES / "golden" / name
            golden_files = sorted(p.name for p in golden.iterdir())
            assert sorted(p.name for p in out.iterdir()) == golden_files
            for fname in golden_files:
                assert filecmp.cmp(out / fname, golden / fname, shallow=False), f"{name}/{fname} drifted"

        code = main(["evolve", "--config", str(FIXTURES / "cfl_violation.cfg"), "--out", str(tmp_path / "cfl")])
        assert code == 3


def test_metadata_is_stable_json():
    # the committed metadata parses and records the run's own configuration
    meta = json.loads((FIXTURES / "golden" / "dirac" / "metadata.json").read_text())
    assert meta["command"] == "evolve"
    assert meta["config"]["equation"] == "dirac"
    assert max(meta["residuals"]["dirac_residual"].values()) <= 1e-9
