"""A solver run never builds an exact series.

The built-in time models evaluate closed forms.  Their ``PowerSeries`` and
its compositional inverse are built only when the exact polynomial tools
(``apply``, ``basic_sequence``, ``egf_series_eval``) or a custom operator ask
for them.  Each run below goes through ``cli.main`` under ``sys.setprofile``,
which sees every call of a Python function, and must enter neither
``compositional_inverse``, a ``PowerSeries`` method nor the ``fractions``
module.  A planted fault that builds the inverse inside the multipliers must
be seen.
"""

import sys
import types

import pytest

import latticewave.umbral as umbral
from latticewave import TimeModel
from latticewave.cli import main

GRID = "dim = 2\npoints = 4\nspacing = 1.0\nmass = 0.5\ntimes = 0.5,1.0\ninitial_data = gaussian\nwidth = 1.0\n"
MODELS = {"continuous": "time_model = continuous\n", "central": "time_model = central_difference\ntau = 0.5\n"}
RUNS = [
    (f"{command}-{model}", argv, GRID + head + MODELS[model])
    for command, argv, head in (
        ("kg", ["evolve"], "equation = klein_gordon\ninitial_velocity = plane_wave\nvelocity_modes = 1,1\n"),
        ("dirac", ["evolve"], "equation = dirac\nalpha = 0.25\n"),
        ("kernel-K0", ["kernel", "--kind", "K0"], ""),
    )
    for model in MODELS
]


def _series_code() -> set:
    """Code objects of compositional_inverse and of every PowerSeries method."""
    codes = {umbral.compositional_inverse.__code__}
    for attr in vars(umbral.PowerSeries).values():
        fn = attr.__func__ if isinstance(attr, (classmethod, staticmethod)) else getattr(attr, "fget", attr)
        if isinstance(fn, types.FunctionType):
            codes.add(fn.__code__)
    return codes


def _series_entered(call) -> list[str]:
    """Names of the series code and of the ``fractions`` functions that ``call`` enters."""
    series, seen = _series_code(), []

    def profile(frame, event, arg):
        if event == "call" and (frame.f_code in series or frame.f_globals.get("__name__") == "fractions"):
            seen.append(f"{frame.f_globals.get('__name__')}.{frame.f_code.co_name}")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return seen


def _run(tmp_path, argv, config) -> None:
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("argv,config", [r[1:] for r in RUNS], ids=[r[0] for r in RUNS])
def test_a_run_never_builds_the_series(tmp_path, argv, config):
    assert _series_entered(lambda: _run(tmp_path, argv, config)) == []


def test_the_trace_sees_a_series_build():
    seen = _series_entered(lambda: umbral.basic_sequence(TimeModel.central_difference(0.5), 4))
    assert "latticewave.umbral.compositional_inverse" in seen
    assert "latticewave.umbral.ordinary" in seen and "fractions.__new__" in seen


def test_a_planted_series_build_in_the_multipliers_is_seen(tmp_path, monkeypatch):
    real = umbral.wave_multiplier_arrays

    def building(op, *args, **kwargs):
        op.inverse  # the exact inverse, which no closed form reads
        return real(op, *args, **kwargs)

    monkeypatch.setattr(umbral, "wave_multiplier_arrays", building)
    _, argv, config = RUNS[1]
    assert "latticewave.umbral.compositional_inverse" in _series_entered(lambda: _run(tmp_path, argv, config))
