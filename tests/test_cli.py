"""Config parsing, CSV round trips, and end-to-end runs of every subcommand
through main() with the documented exit codes (0 ok, 2 config, 3 numerical)."""

import json
import math

import numpy as np
import pytest

from latticewave import GridSpec, LatticeField, cli, random_field
from latticewave.cli import ConfigError, load_config, load_field, main, parse_config, store_field


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def _config(tmp_path, name="run.cfg", **keys):
    lines = [f"{k} = {v}" for k, v in keys.items()]
    return _write(tmp_path, name, "\n".join(lines) + "\n")


KG = dict(
    equation="klein_gordon",
    dim=1,
    points=8,
    spacing=1.0,
    mass=1.0,
    time_model="continuous",
    times="0.0",
    initial_data="delta",
)


# -- parsing ---------------------------------------------------------------------


def test_parse_config_happy_path():
    raw = parse_config("# comment\n\npoints = 8\n  spacing=0.5  \n")
    assert raw == {"points": "8", "spacing": "0.5"}


def test_parse_config_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 2.*key=value"):
        parse_config("points = 8\nnonsense\n")
    with pytest.raises(ConfigError, match="line 1.*unknown key 'wavelength'"):
        parse_config("wavelength = 3\n")
    with pytest.raises(ConfigError, match="line 3.*duplicate key 'points'"):
        parse_config("points = 8\nspacing = 1\npoints = 16\n")
    with pytest.raises(ConfigError, match="line 1.*empty value"):
        parse_config("points =\n")


@pytest.mark.parametrize(
    "overrides,fragment",
    [
        (dict(points=7), "points"),  # odd
        (dict(points=0), "points"),
        (dict(dim=4), "dim"),
        (dict(spacing=0.0), "spacing"),
        (dict(mass=-1.0), "mass"),
        (dict(alpha=0.7), "alpha"),
        (dict(times="1.0,abc"), "times"),
        (dict(equation="advection"), "equation"),
        (dict(frac_alpha=0.5), "frac_alpha"),
    ],
)
def test_value_validation(tmp_path, overrides, fragment):
    cfg = {**KG, **overrides}
    with pytest.raises(ConfigError, match=fragment):
        load_config(_config(tmp_path, **cfg))


@pytest.mark.parametrize("overrides,message", [
    (dict(spacing=0.0), "spacing: must be positive and finite, got 0.0"),
    (dict(time_model="central_difference", tau=-0.5), "tau: must be positive and finite, got -0.5"),
    (dict(initial_data="gaussian", width=0), "width: must be positive and finite, got 0.0"),
    (dict(mass=-1), "mass: must be nonnegative, got -1.0"),
    (dict(alpha=0.7), "alpha: must lie in [0, 1/2], got 0.7"),
    (dict(alphas="0.25, 0.6"), "alphas: must lie in [0, 1/2], got 0.6"),
    (dict(frac_alpha=0.5), "frac_alpha: must lie strictly between 0 and 1/2, got 0.5"),
], ids=["spacing", "tau", "width", "mass", "alpha", "alphas", "frac_alpha"])
def test_a_value_outside_its_rule_gets_the_library_message_under_its_key(tmp_path, overrides, message):
    with pytest.raises(ConfigError) as info:
        load_config(_config(tmp_path, **{**KG, **overrides}))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "overrides,fragment",
    [
        (dict(tau=0.5), "tau"),  # tau without central differencing
        (dict(time_model="central_difference"), "tau"),  # and vice versa
        (dict(width=1.0), "width.*gaussian"),
        (dict(initial_data="plane_wave"), "modes.*required"),
        (dict(initial_data="plane_wave", modes="1,2"), "modes.*1 components"),
        (dict(initial_velocity="gaussian"), "velocity_width.*required"),
        (dict(velocity_width=2.0), "velocity_width"),
        (dict(equation="heat", time_model="central_difference", tau="0.5"), "heat"),
        (dict(equation="heat", initial_velocity="delta"), "first order"),
        (dict(equation="dirac"), "alpha.*required"),
        (dict(equation="dirac", alpha=0.25, initial_velocity="delta"), "dirac"),
        (dict(equation="fractional_kg"), "frac_alpha.*required"),
        (dict(equation="fractional_kg", frac_alpha=0.25, mass=0.0), "mass"),
    ],
)
def test_cross_validation(tmp_path, overrides, fragment):
    cfg = {**KG, **overrides}
    with pytest.raises(ConfigError, match=fragment):
        load_config(_config(tmp_path, **cfg))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(tmp_path / "absent.cfg"))


# -- field CSV round trip -----------------------------------------------------------


def test_store_load_round_trip_is_bit_exact(tmp_path, rng):
    grid = GridSpec((6, 4), 0.75, alpha=0.25, mass=1.5)
    f = random_field(grid, rng)
    path = str(tmp_path / "field.csv")
    store_field(f, path)
    g = load_field(path)
    assert g.grid == grid
    assert np.array_equal(g.values, f.values)


def test_store_omits_zero_rows(tmp_path):
    grid = GridSpec((4,), 1.0)
    f = LatticeField.delta(grid)
    path = str(tmp_path / "delta.csv")
    store_field(f, path)
    with open(path, encoding="utf-8") as fh:
        body = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    assert len(body) == 2  # header + the single nonzero site
    assert body[1].startswith("0,,")  # scalar blade has an empty label


def test_load_field_error_paths(tmp_path):
    grid = GridSpec((4,), 1.0)
    path = str(tmp_path / "f.csv")
    store_field(LatticeField.delta(grid), path)
    with open(path, encoding="utf-8") as fh:
        good = fh.read()

    bad = good.replace("# mass=0.0\n", "")
    with pytest.raises(ConfigError, match="missing '# mass='"):
        load_field(_write(tmp_path, "bad1.csv", bad))

    bad = good.replace("x1,blade,re,im", "x1,blade,im,re")
    with pytest.raises(ConfigError, match="unexpected header"):
        load_field(_write(tmp_path, "bad2.csv", bad))

    bad = good + "9,,1.0,0.0\n"
    with pytest.raises(ConfigError, match="site index 9"):
        load_field(_write(tmp_path, "bad3.csv", bad))

    bad = good + "1,7,1.0,0.0\n"
    with pytest.raises(ConfigError, match="bad blade label"):
        load_field(_write(tmp_path, "bad4.csv", bad))

    bad = good + "1,,1.0\n"
    with pytest.raises(ConfigError, match="malformed row"):
        load_field(_write(tmp_path, "bad5.csv", bad))

    with pytest.raises(ConfigError, match="cannot read field file"):
        load_field(str(tmp_path / "absent.csv"))


# -- evolve -----------------------------------------------------------------------


def test_evolve_at_time_zero_returns_data(tmp_path):
    out = tmp_path / "out"
    code = main(["evolve", "--config", _config(tmp_path, **KG), "--out", str(out)])
    assert code == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["command"] == "evolve"
    assert meta["files"] == ["field_000.csv"]
    got = load_field(str(out / "field_000.csv"))
    want = LatticeField.delta(GridSpec((8,), 1.0, mass=1.0))
    assert np.max(np.abs(got.values - want.values)) <= 1e-12


def test_evolve_dirac_residuals_reported(tmp_path):
    cfg = _config(
        tmp_path,
        equation="dirac",
        dim=1,
        points=8,
        spacing=1.0,
        alpha=0.25,
        mass=1.0,
        time_model="central_difference",
        tau=0.5,
        times="0.0,1.0",
        initial_data="gaussian",
        width=1.5,
    )
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    for kind in ("dirac_residual", "kg_residual"):
        vals = meta["residuals"][kind]
        assert set(vals) == {"0.0", "1.0"}
        assert max(vals.values()) <= 1e-9
    assert meta["cfl"]["margin"] > 0
    for name in meta["files"]:
        assert (out / name).exists()


def test_evolve_heat_semigroup_gap(tmp_path):
    cfg = _config(
        tmp_path,
        equation="heat",
        dim=1,
        points=8,
        spacing=1.0,
        mass=0.0,
        times="0.5,2.0",
        initial_data="gaussian",
        width=1.0,
    )
    out = tmp_path / "heat"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert max(meta["residuals"]["semigroup_gap"].values()) <= 1e-12
    assert meta["cfl"] is None


def test_evolve_fractional_matches_plain(tmp_path):
    cfg = _config(
        tmp_path,
        equation="fractional_kg",
        dim=1,
        points=8,
        spacing=1.0,
        mass=1.0,
        frac_alpha=0.25,
        time_model="central_difference",
        tau=0.2,
        times="0.4",
        initial_data="plane_wave",
        modes=1,
        initial_velocity="gaussian",
        velocity_width=1.0,
    )
    out = tmp_path / "frac"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert max(meta["residuals"]["fractional_equivalence_gap"].values()) <= 1e-9
    assert max(meta["residuals"]["kg_residual"].values()) <= 1e-9


SHARED = dict(dim=2, points=4, spacing=1.0, mass=0.5, initial_data="gaussian", width=1.0)
STEPPED = dict(time_model="central_difference", tau=0.5)
EVOLVE = {
    "klein_gordon": dict(equation="klein_gordon", **STEPPED, initial_velocity="plane_wave", velocity_modes="1,0"),
    "continuous": dict(equation="klein_gordon", time_model="continuous", initial_velocity="gaussian",
                       velocity_width=1.5),
    "dirac": dict(equation="dirac", alpha=0.25, **STEPPED),
    "heat": dict(equation="heat"),
    "fractional_kg": dict(equation="fractional_kg", frac_alpha=0.3, **STEPPED),
}


@pytest.mark.parametrize("run", sorted(EVOLVE))
def test_evolve_slices_match_runs_of_each_time_alone(tmp_path, run):
    # the times share slices with each other's checks, repeat one and hold both signed zeros
    times = ["1.0", "0.0", "-0.0", "0.5", "1.0", "1.5"]
    together = tmp_path / "together"
    cfg = _config(tmp_path, **SHARED, **EVOLVE[run], times=",".join(times))
    assert main(["evolve", "--config", cfg, "--out", str(together)]) == 0
    residuals = json.loads((together / "metadata.json").read_text())["residuals"]
    for idx, t in enumerate(times):
        alone = tmp_path / f"alone{idx}"
        cfg = _config(tmp_path, f"alone{idx}.cfg", **SHARED, **EVOLVE[run], times=t)
        assert main(["evolve", "--config", cfg, "--out", str(alone)]) == 0
        assert (together / f"field_{idx:03d}.csv").read_bytes() == (alone / "field_000.csv").read_bytes()
        for kind, per_time in json.loads((alone / "metadata.json").read_text())["residuals"].items():
            assert residuals[kind][t] == per_time[t]


def test_evolve_from_stored_field(tmp_path):
    first = tmp_path / "first"
    assert main(["evolve", "--config", _config(tmp_path, **KG), "--out", str(first)]) == 0
    stored = str(first / "field_000.csv")
    cfg2 = {**KG, "initial_data": "file", "path": stored, "times": "0.0"}
    second = tmp_path / "second"
    assert main(["evolve", "--config", _config(tmp_path, "run2.cfg", **cfg2), "--out", str(second)]) == 0
    a = load_field(stored)
    b = load_field(str(second / "field_000.csv"))
    assert np.max(np.abs(a.values - b.values)) <= 1e-12


def test_evolve_grid_mismatch_on_file_input(tmp_path, capsys):
    first = tmp_path / "first"
    assert main(["evolve", "--config", _config(tmp_path, **KG), "--out", str(first)]) == 0
    cfg2 = {**KG, "points": 16, "initial_data": "file", "path": str(first / "field_000.csv")}
    code = main(["evolve", "--config", _config(tmp_path, "run2.cfg", **cfg2), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "does not match the configured grid" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()  # every config check runs before --out is made


def test_exit_codes(tmp_path, capsys):
    bad = _write(tmp_path, "bad.cfg", "wavelength = 3\n")
    assert main(["evolve", "--config", bad, "--out", str(tmp_path / "o1")]) == 2
    assert "unknown key" in capsys.readouterr().err

    # CFL violation: lambda_max ~ 8 against bound 2/tau = 2
    cfl = {**KG, "spacing": 0.25, "time_model": "central_difference", "tau": 1.0, "times": "1.0"}
    path = _config(tmp_path, "cfl.cfg", **cfl)
    assert main(["evolve", "--config", path, "--out", str(tmp_path / "o2")]) == 3
    assert "numerical guard" in capsys.readouterr().err
    assert main(["evolve", "--config", path, "--out", str(tmp_path / "o3"), "--allow-unstable"]) == 0

    off_grid = {**KG, "time_model": "central_difference", "tau": 1.0, "times": "0.7"}
    assert main(["evolve", "--config", _config(tmp_path, "og.cfg", **off_grid), "--out", str(tmp_path / "o4")]) == 2
    assert "times: time 0.7 is not an integer multiple of tau/2" in capsys.readouterr().err
    assert not (tmp_path / "o4").exists()

    heat_neg = dict(equation="heat", dim=1, points=8, spacing=1.0, mass=0.0,
                    times="-0.5", initial_data="delta")
    assert main(["evolve", "--config", _config(tmp_path, "hn.cfg", **heat_neg), "--out", str(tmp_path / "o5")]) == 2
    assert "times: heat flow needs s >= 0" in capsys.readouterr().err
    assert not (tmp_path / "o5").exists()


@pytest.mark.parametrize(
    "command,option",
    [
        (["evolve"], ["--threads", "1"]),
        (["kernel", "--kind", "K0"], ["--threads", "1"]),
        (["spectrum"], ["--threads", "1"]),
        (["spectrum"], ["--allow-unstable"]),
    ],
    ids=["evolve-threads", "kernel-threads", "spectrum-threads", "spectrum-allow-unstable"],
)
def test_removed_options_are_unknown(tmp_path, capsys, command, option):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(command + ["--config", _config(tmp_path, **KG), "--out", str(out)] + option)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
    assert not out.exists()


COMMANDS = {"evolve": ["evolve"], "kernel": ["kernel", "--kind", "K0"], "spectrum": ["spectrum"]}


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_out_that_cannot_be_a_directory_is_a_config_error(tmp_path, capsys, command, below):
    cfg = _config(tmp_path, **KG)
    (tmp_path / "taken").write_text("not a directory\n")
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / "taken" / "sub" if below else tmp_path / "taken"
    assert main(COMMANDS[command] + ["--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: --out: cannot create directory {out}: "), err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "fixture,blocked,what",
    [("dirac.cfg", "field_001.csv", "field file"), ("spectrum.cfg", "spectrum.csv", "spectrum file")],
    ids=["evolve", "spectrum"],
)
def test_failed_write_is_a_config_error_and_cleanup_keeps_the_directory(tmp_path, capsys, fixture, blocked, what):
    # the dirac run writes field_000.csv first; the failed run must remove it and keep the directory
    import os

    cfg = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", fixture)
    out = tmp_path / "o"
    (out / blocked).mkdir(parents=True)
    assert main(["evolve" if what == "field file" else "spectrum", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: cannot write {what} {out / blocked}: "), err
    assert [p.name for p in out.iterdir()] == [blocked] and (out / blocked).is_dir()


def test_field_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"# shape=8\n# spacing=1.0\n# alpha=0.0\n# mass=1.0\nx1,blade,re,im\n0,\xff,1.0,0.0\n")
    with pytest.raises(ConfigError, match="not UTF-8"):
        load_field(str(path))
    cfg = _config(tmp_path, **{**KG, "initial_data": "file", "path": str(path)})
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "bad.csv" in err
    assert "numerical guard" not in err


def test_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"points = 8\n# \xff\n")
    assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "bad.cfg" in err
    assert "numerical guard" not in err


def test_tolerance_enforcement(tmp_path, capsys):
    cfg = {**KG, "time_model": "central_difference", "tau": 0.5, "times": "1.0"}
    path = _config(tmp_path, "tol.cfg", **cfg)
    assert main(["evolve", "--config", path, "--out", str(tmp_path / "a"), "--tolerance", "1e-12"]) == 0
    assert main(["evolve", "--config", path, "--out", str(tmp_path / "b"), "--tolerance", "1e-30"]) == 3
    assert "tolerance exceeded" in capsys.readouterr().err
    # zero is a valid tolerance: the run goes ahead and any residual breaches it
    assert main(["evolve", "--config", path, "--out", str(tmp_path / "c"), "--tolerance", "0"]) == 3
    assert "tolerance exceeded" in capsys.readouterr().err
    assert json.loads((tmp_path / "c" / "metadata.json").read_text())["tolerance"] == 0.0


@pytest.mark.parametrize("command", ["evolve", "spectrum"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_tolerance_must_be_finite_and_non_negative(tmp_path, capsys, command, value):
    cfg = _config(tmp_path, **KG) if command == "evolve" else _config(tmp_path, dim=1, points=4, spacing=1.0)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--tolerance", value]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"config error: --tolerance: must be finite and at least 0, got {float(value)}"]
    assert not out.exists()


def _stored_1d(tmp_path, name, scalar_column):
    grid = GridSpec((8,), 1.0, 0.0, 1.0)
    vals = np.zeros((8, 4), dtype=complex)
    vals[:, 0] = scalar_column
    path = str(tmp_path / name)
    store_field(LatticeField(grid, vals), path)
    return path


@pytest.mark.parametrize("role", ["initial", "velocity"])
def test_evolve_rejects_non_finite_field_file(tmp_path, capsys, role):
    bad = _stored_1d(tmp_path, "nan.csv", [1.0, 1.0, 1.0, math.nan, 1.0, 1.0, 1.0, 1.0])
    cfg = {**KG, "time_model": "central_difference", "tau": 0.5, "times": "0.5"}
    if role == "initial":
        cfg.update(initial_data="file", path=bad)
    else:
        cfg.update(initial_velocity="file", velocity_path=bad)
    out = tmp_path / "o"
    assert main(["evolve", "--config", _config(tmp_path, **cfg), "--out", str(out), "--tolerance", "1e-9"]) == 2
    err = capsys.readouterr().err
    assert "non-finite" in err and bad in err
    assert not (out / "metadata.json").exists()


def test_non_finite_residual_breaches_the_guard(tmp_path, capsys):
    from argparse import Namespace

    from latticewave.cli import _enforce_tolerance, _worst

    residuals = {"kg_residual": {"0.5": 1e-3, "1.0": math.nan}, "richardson_order": {"0.5": 2.0}}
    assert math.isnan(_worst(residuals))
    assert _worst({}) is None
    for tolerance in (None, 1.0):
        assert _enforce_tolerance(Namespace(tolerance=tolerance), math.nan) == 3
    capsys.readouterr()

    # finite data whose transforms overflow: the residual comes out NaN
    huge = _stored_1d(tmp_path, "huge.csv", [1e308, 1e308, 1e308, -1e308, 1e308, 1e308, 1e308, 1e308])
    cfg = {**KG, "time_model": "central_difference", "tau": 0.5, "times": "0.5", "initial_data": "file", "path": huge}
    with np.errstate(all="ignore"):
        code = main(["evolve", "--config", _config(tmp_path, **cfg), "--out", str(tmp_path / "o"), "--tolerance", "1e-9"])
    assert code == 3
    assert "non-finite residual" in capsys.readouterr().err
    assert not (tmp_path / "o" / "metadata.json").exists()


def test_metadata_with_non_finite_value_is_not_written(tmp_path):
    from latticewave.cli import _write_json

    path = tmp_path / "metadata.json"
    with pytest.raises(ValueError, match="non-finite"):
        _write_json(str(path), {"residuals": {"kg_residual": {"0.5": math.inf}}})
    assert not path.exists()


# -- kernel -----------------------------------------------------------------------


def test_kernel_heat_dual_columns(tmp_path):
    cfg = _config(tmp_path, dim=1, points=16, spacing=0.5, mass=0.0, times="0.5")
    out = tmp_path / "k"
    assert main(["kernel", "--kind", "heat", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert max(meta["residuals"]["heat_discrepancy"].values()) <= 1e-10
    lines = (out / "kernel_heat_000.csv").read_text().splitlines()
    assert "# s=0.5" in lines
    header = next(ln for ln in lines if ln.startswith("x1"))
    assert header == "x1,blade,re_bessel,im_bessel,re_spectral,im_spectral"
    for ln in lines:
        if ln.startswith("#") or ln.startswith("x1"):
            continue
        _, _, rb, ib, rs, im_s = ln.split(",")
        assert abs(float(rb) - float(rs)) <= 1e-12
        assert float(ib) == 0.0  # the Bessel product route is exactly real
        assert abs(float(im_s)) <= 1e-15  # the transform route only up to roundoff


def test_kernel_k0_at_zero_is_identity_spike(tmp_path):
    cfg = _config(tmp_path, dim=1, points=8, spacing=1.0, mass=1.0,
                  time_model="continuous", times="0.0")
    out = tmp_path / "k0"
    assert main(["kernel", "--kind", "K0", "--config", cfg, "--out", str(out)]) == 0
    rows = [ln for ln in (out / "kernel_K0_000.csv").read_text().splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("x1")]
    assert len(rows) == 1
    x, blade, re, im = rows[0].split(",")
    assert (x, blade) == ("0", "")
    assert abs(float(re) - math.sqrt(2 * math.pi)) <= 1e-12
    assert abs(float(im)) <= 1e-16

    out1 = tmp_path / "k1"
    assert main(["kernel", "--kind", "K1", "--config", cfg, "--out", str(out1)]) == 0
    rows = [ln for ln in (out1 / "kernel_K1_000.csv").read_text().splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("x1")]
    assert rows == []  # identically zero kernel stores no coefficients


def test_kernel_fractional_requires_parameters(tmp_path, capsys):
    cfg = _config(tmp_path, dim=1, points=8, spacing=1.0, mass=1.0,
                  time_model="continuous", times="0.5")
    assert main(["kernel", "--kind", "K0_alpha", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "frac_alpha" in capsys.readouterr().err
    massless = _config(tmp_path, "massless.cfg", dim=1, points=8, spacing=1.0, mass=0.0,
                       time_model="continuous", times="0.5", frac_alpha=0.25)
    assert main(["kernel", "--kind", "K0_alpha", "--config", massless, "--out", str(tmp_path / "y")]) == 2
    assert capsys.readouterr().err == "config error: mass: fractional kernels need mass > 0\n"
    assert not (tmp_path / "x").exists() and not (tmp_path / "y").exists()


# -- spectrum ---------------------------------------------------------------------


def test_spectrum_zone_diagnostics(tmp_path):
    cfg = _config(tmp_path, dim=1, points=4, spacing=0.5, alphas="0.25,0.5")
    out = tmp_path / "spec"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    s = meta["summary"]

    # z**2 = d**2 holds everywhere, on both zones, for every alpha
    assert all(v["max_z2_err"] <= 1e-12 for v in s.values())
    # the symbol's only fundamental-zone root is xi = 0
    assert s["fundamental:alpha=0.25"]["min_z_norm_nonzero"] > 0.5
    # but it vanishes again at the refined zone edge, for every alpha:
    # doubling the zone never rescues the symbol from its second root
    assert s["refined:alpha=0.25"]["min_z_norm_nonzero"] <= 1e-12
    assert s["refined:alpha=0.5"]["min_z_norm_nonzero"] <= 1e-12
    # the mass component at the fundamental edge is the alpha-sensitive part:
    # 2|cos(pi alpha)|/h, so the half-step splitting kills it and others keep it
    assert s["fundamental:alpha=0.5"]["edge_mass_norm"] <= 1e-12
    want = 2 * math.cos(math.pi * 0.25) / 0.5
    assert s["fundamental:alpha=0.25"]["edge_mass_norm"] == pytest.approx(want, rel=1e-12)

    rows = [ln.split(",") for ln in (out / "spectrum.csv").read_text().splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("zone")]
    for row in rows:
        zone, alpha, xi, d2, z_norm = row[0], float(row[1]), float(row[2]), float(row[3]), float(row[4])
        if xi == 0.0:
            assert d2 == 0.0 and z_norm <= 1e-15
        assert abs(z_norm**2 - d2) <= 1e-10 * max(1.0, d2)


@pytest.mark.parametrize("alphas", ["0.25, 0.25", "0.0, 0.5, -0.0"])
def test_spectrum_rejects_repeated_alphas(tmp_path, capsys, alphas):
    # repeats would write duplicate rows under one metadata summary key
    out = tmp_path / "o"
    cfg = _config(tmp_path, dim=1, points=4, spacing=1.0, alphas=alphas)
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: alphas: repeats a value")
    assert not out.exists()


def test_spectrum_default_alphas(tmp_path):
    cfg = _config(tmp_path, dim=1, points=4, spacing=1.0)
    out = tmp_path / "spec2"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["alphas"] == [0.0, 0.25, 0.5]


# -- spacings whose h**2 or h**n leave the float range ---------------------------------

_COMMAND_KEYS = {
    "evolve": (["evolve"], KG),
    "kernel": (["kernel", "--kind", "K0"], dict(mass=1.0, time_model="continuous", times="0.5")),
    "spectrum": (["spectrum"], {}),
}


@pytest.mark.parametrize("dim,spacing", [(1, "1e-200"), (2, "1e200"), (3, "1e-110")])
@pytest.mark.parametrize("command", sorted(_COMMAND_KEYS))
def test_extreme_spacing_is_a_config_error(tmp_path, capsys, command, dim, spacing):
    argv, keys = _COMMAND_KEYS[command]
    cfg = _config(tmp_path, **{**keys, "dim": dim, "points": 4, "spacing": spacing})
    out = tmp_path / "o"
    assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: spacing: h={float(spacing)!r} ")
    assert not out.exists()


def test_spectrum_refuses_a_spacing_whose_refined_zone_leaves_the_float_range(tmp_path, capsys):
    # 4/h**2 is finite at h = 1.5e-154 but overflows at the refined zone's h/2
    cfg = _config(tmp_path, dim=1, points=4, spacing="1.5e-154")
    out = tmp_path / "o"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: spacing: on the refined zone, h=7.5e-155 ")
    assert not out.exists()


# -- failing runs leave nothing behind and name one guard ------------------------------


def _huge_run(tmp_path, **extra):
    huge = _stored_1d(tmp_path, "huge.csv", [1e308, 1e308, 1e308, -1e308, 1e308, 1e308, 1e308, 1e308])
    cfg = {**KG, "time_model": "central_difference", "tau": 0.5, "times": "0.5,1.0",
           "initial_data": "file", "path": huge, **extra}
    return _config(tmp_path, **cfg)


def test_non_finite_residual_leaves_no_field_file(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["evolve", "--config", _huge_run(tmp_path), "--out", str(out), "--tolerance", "1e-9"]) == 3
    assert capsys.readouterr().err == "numerical guard: non-finite residual nan\n"
    assert list(out.iterdir()) == []


def test_finite_tolerance_breach_still_writes_fields_and_metadata(tmp_path, capsys):
    cfg = _config(tmp_path, **{**KG, "time_model": "central_difference", "tau": 0.5, "times": "0.5,1.0"})
    out = tmp_path / "o"
    assert main(["evolve", "--config", cfg, "--out", str(out), "--tolerance", "1e-30"]) == 3
    assert "tolerance exceeded" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["field_000.csv", "field_001.csv", "metadata.json"]
    assert json.loads((out / "metadata.json").read_text())["files"] == ["field_000.csv", "field_001.csv"]


def test_failing_run_prints_one_stderr_line(tmp_path):
    # a subprocess, so numpy's RuntimeWarnings reach stderr as they would for a user
    import os
    import subprocess
    import sys

    import latticewave

    src = os.path.dirname(os.path.dirname(latticewave.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONWARNINGS", None)
    code = "import sys; from latticewave.cli import main; sys.exit(main(sys.argv[1:]))"
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-c", code, "evolve", "--config", _huge_run(tmp_path), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == ["numerical guard: non-finite residual nan"]
    assert list(out.iterdir()) == []


def test_non_finite_residual_at_a_later_time_removes_earlier_fields(tmp_path, capsys):
    # the first time is finite and written; the second overflows to a NaN residual
    data = _stored_1d(tmp_path, "big.csv", [1e100, -1e100, 1e100, -1e100, 1e100, -1e100, 1e100, -1e100])
    cfg = {**KG, "time_model": "central_difference", "tau": 1.5, "times": "1.5,300.0",
           "initial_data": "file", "path": data}
    out = tmp_path / "o"
    assert main(["evolve", "--config", _config(tmp_path, **cfg), "--out", str(out), "--allow-unstable"]) == 3
    assert capsys.readouterr().err == "numerical guard: non-finite residual nan\n"
    assert list(out.glob("field_*.csv")) == []
    assert not (out / "metadata.json").exists()


def test_kernel_guard_trip_leaves_no_kernel_file(tmp_path, capsys, monkeypatch):
    # the first time is exported, then a guard trips: no guard of the heat kernel is left to trip
    # on valid times, so one is planted in the Bessel route
    bessel = cli.heat_kernel_bessel

    def trips_late(grid, s):
        if s > 1.0:
            raise ValueError("planted guard")
        return bessel(grid, s)

    monkeypatch.setattr(cli, "heat_kernel_bessel", trips_late)
    cfg = _config(tmp_path, dim=1, points=16, spacing=0.5, mass=0.0, times="0.1, 100.0")
    out = tmp_path / "o"
    assert main(["kernel", "--kind", "heat", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "numerical guard: planted guard\n"
    assert list(out.iterdir()) == []


def test_heat_kernel_past_the_old_bessel_cap_is_exported(tmp_path):
    # 2s/h^2 = 800 and 4000 on 64 points: once refused, now both routes agree
    cfg = _config(tmp_path, dim=1, points=64, spacing=0.5, mass=0.0, times="100.0, 500.0")
    out = tmp_path / "o"
    assert main(["kernel", "--kind", "heat", "--config", cfg, "--out", str(out)]) == 0
    gaps = json.loads((out / "metadata.json").read_text())["residuals"]["heat_discrepancy"]
    assert sorted(gaps) == ["100.0", "500.0"] and max(gaps.values()) <= 1e-15


@pytest.mark.parametrize("kind", ["K0", "K1", "K0_alpha", "K1_alpha"])
def test_kernel_past_the_cfl_bound_needs_allow_unstable(tmp_path, capsys, kind):
    # lambda_max ~ 8.06 against the bound 2/tau = 2
    frac = {"frac_alpha": 0.3} if kind.endswith("_alpha") else {}
    cfg = _config(tmp_path, dim=1, points=8, spacing=0.25, mass=1.0, time_model="central_difference", tau=1.0,
                  times="0.5, 1.5", **frac)
    out = tmp_path / "o"
    assert main(["kernel", "--kind", kind, "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical guard: stability bound violated") and "--allow-unstable" in err
    assert list(out.iterdir()) == []
    assert main(["kernel", "--kind", kind, "--config", cfg, "--out", str(out), "--allow-unstable"]) == 0
    names = [f"kernel_{kind}_000.csv", f"kernel_{kind}_001.csv"]
    assert sorted(p.name for p in out.iterdir()) == names + ["metadata.json"]
    assert json.loads((out / "metadata.json").read_text())["allow_unstable"] is True


def test_kernel_finite_tolerance_breach_still_writes_kernels_and_metadata(tmp_path, capsys):
    cfg = _config(tmp_path, dim=1, points=16, spacing=0.5, mass=0.0, times="0.5, 1.0")
    out = tmp_path / "o"
    assert main(["kernel", "--kind", "heat", "--config", cfg, "--out", str(out), "--tolerance", "1e-30"]) == 3
    assert "tolerance exceeded" in capsys.readouterr().err
    names = ["kernel_heat_000.csv", "kernel_heat_001.csv"]
    assert sorted(p.name for p in out.iterdir()) == names + ["metadata.json"]
    assert json.loads((out / "metadata.json").read_text())["files"] == names


def test_heat_kernel_discrepancy_stays_below_one_dense_field(tmp_path):
    # at 3D 32^3 one dense 4^3-blade field is 33.5 MB; the kernels are scalar
    import tracemalloc

    cfg = _config(tmp_path, dim=3, points=32, spacing=1.0, mass=0.0, times="0.5")
    dense_bytes = 32**3 * 64 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        assert main(["kernel", "--kind", "heat", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"peak {peak / 1e6:.2f} MB, one dense field is {dense_bytes / 1e6:.2f} MB"


@pytest.mark.parametrize("kind", ["K0", "K1", "K0_alpha", "K1_alpha"])
def test_kernel_that_overflows_past_the_cfl_bound_is_refused(tmp_path, capsys, kind):
    # the unstable branch grows like e^{t u}: at t = 400 the multipliers overflow, and the kernel
    # would be NaN in every row; the first time is finite, so its file is written and then removed
    frac = {"frac_alpha": 0.3} if kind.endswith("_alpha") else {}
    cfg = _config(tmp_path, dim=1, points=8, spacing=0.25, mass=1.0, time_model="central_difference", tau=1.0,
                  times="0.5, 400.0", **frac)
    out = tmp_path / "o"
    assert main(["kernel", "--kind", kind, "--config", cfg, "--out", str(out), "--allow-unstable"]) == 3
    assert capsys.readouterr().err == f"numerical guard: kernel {kind} at t=400.0 holds non-finite values\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("overrides,message", [
    (dict(dim="two"), "dim: expected an integer, got 'two'"),
    (dict(spacing="inf"), "spacing: must be finite, got 'inf'"),
    (dict(initial_data="plane_wave", modes="1, x"), "modes: expected comma-separated integers, got '1, x'"),
    (dict(initial_data="plane_wave", modes="5"), "modes: mode 5 outside (-4, 4] on axis 1"),
], ids=["dim", "spacing", "modes-syntax", "modes-range"])
def test_bad_value_exits_2_naming_its_key(tmp_path, capsys, overrides, message):
    out = tmp_path / "o"
    assert main(["evolve", "--config", _config(tmp_path, **{**KG, **overrides}), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()
