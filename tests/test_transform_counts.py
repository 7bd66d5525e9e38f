"""Transform counts of whole command runs, and when the first transform happens.

An ``evolve`` run builds one propagation plan.  The plan transforms each
Cauchy field once (a Dirac plan takes its velocity's transform from F Phi0,
so it transforms Phi0 alone) and evaluates each distinct time slice with one
``idft``; each ``dirac_residual`` adds a transform pair of its own.  No
transform may come before the first call through one of ``cli``'s solver
names, because a benchmark counts everything before that call as set-up.
``kernel`` makes one inverse transform per time, of the one multiplier it
stores.
"""

import filecmp
import sys
from pathlib import Path

import numpy as np
import pytest

import latticewave.cli as cli
import latticewave.fractional as fractional
from latticewave import FracParams, GridSpec, TimeModel, fractional_kernels, random_field, solve_dirac, wave_kernels
from latticewave.cli import main, store_field

FIXTURES = Path(__file__).resolve().parent / "fixtures"
SOLVERS = ("solve_kg", "solve_dirac", "solve_kg_fractional", "heat_semigroup")
TAU = 0.5

KG = "equation = klein_gordon\ninitial_velocity = plane_wave\nvelocity_modes = {modes}\n"
DIRAC = "equation = dirac\nalpha = 0.25\n"
RUNS = [
    ("kg-2d", KG, 2, (0.5, 1.0, 1.5)),
    ("kg-3d", KG, 3, (0.5, 1.0)),
    ("dirac-2d", DIRAC, 2, (0.5, 1.0, 1.5)),
    ("dirac-3d", DIRAC, 3, (0.5, 1.0)),
]


def _config(tmp_path, head: str, dim: int, times) -> str:
    path = tmp_path / "run.cfg"
    path.write_text(
        head.format(modes=",".join(["1"] * dim))
        + f"dim = {dim}\npoints = 4\nspacing = 1.0\nmass = 0.5\ntime_model = central_difference\n"
        + f"tau = {TAU}\ntimes = {','.join(map(repr, times))}\ninitial_data = gaussian\nwidth = 1.0\n"
    )
    return str(path)


def _probe(monkeypatch, names, calls, seen: list) -> None:
    """Record the transform counts at every call through ``names`` on cli."""
    for name in names:
        orig = getattr(cli, name)

        def probe(*args, _orig=orig, _name=name, **kwargs):
            seen.append((_name, dict(calls)))
            return _orig(*args, **kwargs)

        monkeypatch.setattr(cli, name, probe)


@pytest.mark.parametrize("name,head,dim,times", RUNS, ids=[r[0] for r in RUNS])
def test_evolve_transforms_the_data_once_and_each_slice_once(name, head, dim, times, tmp_path, monkeypatch,
                                                              transforms):
    first, residuals = [], []
    _probe(monkeypatch, SOLVERS, transforms, first)
    _probe(monkeypatch, ("dirac_residual",), transforms, residuals)
    before = dict(transforms)
    assert main(["evolve", "--config", _config(tmp_path, head, dim, times), "--out", str(tmp_path / "out")]) == 0

    assert first[0][1] == before, "a transform ran before the first solve"
    offsets = (0.0, -TAU, TAU) + ((-TAU / 2, TAU / 2) if head == DIRAC else ())
    slices = len({t + d for t in times for d in offsets})
    if head == KG:
        assert transforms == {"dft": 2, "idft": slices}  # F Phi0 and F Phi1, then one idft per slice
        assert not residuals
    else:
        # F Phi0 alone, one idft per slice, one pair per residual
        assert transforms == {"dft": 1 + len(times), "idft": slices + len(times)}
        assert len(residuals) == len(times)
        # between two residuals the run solves new slices (idft only), so each adds exactly one dft
        dfts = [counts["dft"] for _, counts in residuals] + [transforms["dft"]]
        assert all(b - a == 1 for a, b in zip(dfts, dfts[1:]))


@pytest.mark.parametrize("head,counts", [(KG, {"dft": 2, "idft": 15}), (DIRAC, {"dft": 4, "idft": 18})],
                         ids=["kg", "dirac"])
def test_continuous_checks_read_the_runs_plan(head, counts, tmp_path, transforms):
    # 2D, 3 times: one idft per output slice and four per Richardson check (t +- delta, t +- delta/2),
    # which reads the run's own slice at t; the Dirac check adds a transform pair for its right-hand
    # side.  Before the checks read the run's plan, each built its own: kg made dft 8, dirac made dft 7;
    # before they read the run's slice at t, kg made idft 18 and dirac idft 21.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(head.format(modes="1,1") + "dim = 2\npoints = 4\nspacing = 1.0\nmass = 0.5\n"
                   "time_model = continuous\ntimes = 0.5,1.0,1.5\ninitial_data = gaussian\nwidth = 1.0\n")
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert transforms == counts


def test_one_shot_dirac_solve_transforms_phi0_once(transforms):
    phi0 = random_field(GridSpec((4, 4), 1.0), np.random.default_rng(5))
    solve_dirac(phi0, TimeModel.central_difference(TAU), 0.25, 0.5, 2 * TAU)
    assert transforms == {"dft": 1, "idft": 1}


@pytest.mark.parametrize("equation", ["klein_gordon", "dirac", "heat", "fractional_kg"])
def test_no_transform_before_the_first_solve(equation, tmp_path, monkeypatch, transforms):
    extra = {"dirac": "alpha = 0.25\n", "fractional_kg": "frac_alpha = 0.3\n"}.get(equation, "")
    model = "" if equation == "heat" else f"time_model = central_difference\ntau = {TAU}\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"equation = {equation}\ndim = 2\npoints = 4\nspacing = 1.0\nmass = 0.5\n{model}{extra}"
                   "times = 0.5,1.0\ninitial_data = gaussian\nwidth = 1.0\n")
    first: list = []
    _probe(monkeypatch, SOLVERS, transforms, first)
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert first and first[0][1] == {"dft": 0, "idft": 0}


KERNEL_GRID = GridSpec((6, 6), 0.8, 0.0, 1.0)
KERNEL_TIMES = (0.0, 0.4, 1.0)


@pytest.mark.parametrize("kind", ["K0", "K1", "K0_alpha", "K1_alpha"])
def test_kernel_transforms_only_the_stored_multiplier(kind, tmp_path, transforms):
    frac = FracParams(0.3, KERNEL_GRID.mass) if kind.endswith("_alpha") else None
    cfg = tmp_path / "kernel.cfg"
    cfg.write_text(f"dim = 2\npoints = 6\nspacing = 0.8\nmass = 1.0\ntime_model = central_difference\ntau = 0.2\n"
                   f"times = {','.join(map(repr, KERNEL_TIMES))}\n" + ("frac_alpha = 0.3\n" if frac else ""))
    out = tmp_path / "out"
    assert main(["kernel", "--kind", kind, "--config", str(cfg), "--out", str(out)]) == 0
    assert transforms == {"dft": 0, "idft": len(KERNEL_TIMES)}

    # the same bytes as building both kernels and storing one, at twice the inverse transforms
    time = TimeModel.central_difference(0.2)
    transforms["idft"] = 0
    for idx, t in enumerate(KERNEL_TIMES):
        if frac is None:
            pair = wave_kernels(KERNEL_GRID, time, KERNEL_GRID.mass, t)
        else:
            pair = fractional_kernels(KERNEL_GRID, time, frac, t)
        ref = tmp_path / f"ref_{idx}.csv"
        store_field(pair[kind.startswith("K1")], str(ref))
        assert filecmp.cmp(out / f"kernel_{kind}_{idx:03d}.csv", ref, shallow=False)
    assert transforms["idft"] == 2 * len(KERNEL_TIMES)


@pytest.mark.parametrize("equation,model", [
    ("heat", ""),
    ("heat", "time_model = continuous\n"),
    ("fractional_kg", "time_model = continuous\n"),
    ("fractional_kg", f"time_model = central_difference\ntau = {TAU}\n"),
], ids=["heat", "heat-continuous", "fractional-continuous", "fractional-central"])
def test_heat_and_fractional_runs_solve_each_slice_once(equation, model, tmp_path, monkeypatch):
    # the slices of each output time t: t and t/2 for the semigroup check of heat flow; t, and
    # t -+ tau under central differences, for the fractional run, whose equivalence check solves
    # Klein-Gordon through solve_kg and reads no slice
    times = (0.5, 1.0, 2.0)
    name = {"heat": "heat_semigroup", "fractional_kg": "solve_kg_fractional"}[equation]
    calls = []
    orig = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda f, *rest: calls.append((f, rest[-1])) or orig(f, *rest))
    extra = "frac_alpha = 0.3\n" if equation == "fractional_kg" else ""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"equation = {equation}\ndim = 2\npoints = 4\nspacing = 1.0\nmass = 0.5\n{model}{extra}"
                   f"times = {','.join(map(repr, times))}\ninitial_data = gaussian\nwidth = 1.0\n")
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    # the solver's calls all take the run's own initial data, the first call's argument
    solved = [t for f, t in calls if f is calls[0][0]]
    if equation == "heat":
        slices = {x for t in times for x in (t, t / 2.0)}
        assert [t for f, t in calls if f is not calls[0][0]] == [t / 2.0 for t in times]  # one check per time
    else:
        slices = {t + d for t in times for d in ((0.0, -TAU, TAU) if "tau" in model else (0.0,))}
        assert len(solved) == len(calls)
    assert sorted(solved) == sorted(slices)


GOLDEN_COUNTS = [
    ("heat2d", {"dft": 5, "idft": 5, "frac_power": 0}),
    ("frac_kg2d", {"dft": 26, "idft": 26, "frac_power": 8}),
]


@pytest.mark.parametrize("name,counts", GOLDEN_COUNTS, ids=[c[0] for c in GOLDEN_COUNTS])
def test_golden_heat_and_fractional_runs_keep_their_transform_counts(name, counts, tmp_path, monkeypatch,
                                                                      transforms):
    # The baseline that a shared propagation path for heat and fractional_kg is to cut down.
    # heat2d, times 0.25 and 0.5: heat_semigroup transforms Phi0 anew at each of the 3 distinct
    # slices (0.125, 0.25, 0.5), a dft and an idft each, and each of the 2 semigroup checks
    # transforms its half-time field once more: 5 of each.
    # frac_kg2d, tau 0.5, times 0.5 and 1.0: solve_kg_fractional runs at 4 slices (0, 0.5, 1.0,
    # 1.5), each 6 dft and 6 idft: frac_power of Phi0 and of Phi1 (a pair each), the K0 and K1
    # kernels (an idft each) and two convolutions (2 dft and an idft each); 24 of each.  The
    # equivalence check's solve_kg plan adds F Phi0 and F Phi1 once, and one idft per output time.
    powers = {"frac_power": 0}
    orig = fractional.frac_power

    def counted(*args, **kwargs):
        powers["frac_power"] += 1
        return orig(*args, **kwargs)

    for mod in [m for key, m in sys.modules.items() if m is not None and key.startswith("latticewave")]:
        for key, value in list(vars(mod).items()):
            if value is orig:
                monkeypatch.setattr(mod, key, counted)
    assert main(["evolve", "--config", str(FIXTURES / f"{name}.cfg"), "--out", str(tmp_path / "out")]) == 0
    assert {**transforms, **powers} == counts
