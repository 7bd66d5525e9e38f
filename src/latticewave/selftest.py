"""Built-in checks behind ``latticewave selftest``.

Each check exercises one pillar of the library against an independent route
(brute-force oracle, closed form, or conserved quantity) at desk scale and
reports the worst deviation next to its tolerance.  ``run_all`` returns
``(name, passed, detail)`` rows; the CLI prints them as a table.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import tempfile
from fractions import Fraction

import numpy as np

from .clifford import Multivector, Signature, pseudoscalar
from .fractional import (
    FracParams,
    bessel_i,
    erfc,
    frac_power,
    heat_kernel_bessel,
    heat_kernel_spectral,
    heat_semigroup,
    mittag_leffler,
    p_t_operator,
    riesz,
    riesz_inverse,
    solve_kg_fractional,
)
from .lattice import (
    GridSpec,
    LatticeField,
    discrete_laplacian,
    norm,
    random_field,
    relative_gap,
)
from .propagators import (
    CauchyData,
    TimeModel,
    chebyshev_solve,
    dirac_residual,
    kg_residual,
    lambda_max,
    leapfrog_march,
    solve_dirac,
    solve_kg,
)
from .spectral import (
    convolve,
    convolve_direct,
    d2_field,
    dft,
    dft_direct,
    dirac_h_alpha,
    idft,
    momentum_pairing,
    multiplier_z,
    z_field,
)
from .clifford import mul_arrays
from .lattice import inner_product
from .umbral import DeltaOperator, basic_sequence, egf_eval, egf_series_eval

__all__ = ["run_all"]

_ALPHAS = (0.0, 0.1, 0.25, 0.4, 0.5)


def _random_mv(sig: Signature, rng: np.random.Generator) -> Multivector:
    # unit norm keeps absolute tolerances meaningful for products of these
    co = rng.standard_normal(sig.blades) + 1j * rng.standard_normal(sig.blades)
    return Multivector(sig, co / np.linalg.norm(co))


def _verdict(worst: float, tol: float) -> tuple[bool, str]:
    return worst <= tol, f"max deviation {worst:.2e} (tol {tol:.0e})"


def check_algebra() -> tuple[bool, str]:
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in (1, 2, 3):
        sig = Signature(n)
        gens = [Multivector.generator(sig, j) for j in range(1, 2 * n + 1)]
        one = Multivector.scalar(sig, 1.0)
        for i, g in enumerate(gens):
            want = -1.0 if i < n else 1.0
            worst = max(worst, (g * g - Multivector.scalar(sig, want)).norm())
            worst = max(worst, (g.dagger() * g - one).norm())
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                worst = max(worst, (gens[i] * gens[j] + gens[j] * gens[i]).norm())
        gam = pseudoscalar(sig)
        worst = max(worst, (gam * gam - one).norm())
        for g in gens:
            worst = max(worst, (gam * g + g * gam).norm())
        for _ in range(5):
            a, b = _random_mv(sig, rng), _random_mv(sig, rng)
            worst = max(worst, ((a * b).dagger() - b.dagger() * a.dagger()).norm())
            worst = max(worst, (a.dagger().dagger() - a).norm())
        for _ in range(34):
            a, b, c = (_random_mv(sig, rng) for _ in range(3))
            worst = max(worst, ((a * b) * c - a * (b * c)).norm())
    return _verdict(worst, 1e-12)


def check_factorization() -> tuple[bool, str]:
    rng = np.random.default_rng(202)
    worst = 0.0
    for n, N in ((1, 16), (2, 8)):
        grid = GridSpec((N,) * n, 0.7)
        gam = pseudoscalar(grid.sig)
        for alpha in _ALPHAS:
            for m in (0.0, 1.0):
                for _ in range(3):
                    f = random_field(grid, rng)

                    def op(g: LatticeField) -> LatticeField:
                        return dirac_h_alpha(g, alpha) - g.left_mul(gam) * m

                    got = op(op(f))
                    want = -discrete_laplacian(f) + f * m**2
                    worst = max(worst, relative_gap(got, want))
    return _verdict(worst, 1e-10)


def check_multiplier_square() -> tuple[bool, str]:
    worst = 0.0
    for n, N in ((1, 16), (2, 16)):
        grid = GridSpec((N,) * n, 1.3)
        d2 = d2_field(grid)
        for alpha in _ALPHAS:
            z = z_field(grid, alpha)
            z2 = mul_arrays(n, z, z)
            z2[..., 0] -= d2
            worst = max(worst, float(np.max(np.abs(z2))))
    return _verdict(worst, 1e-12)


def check_transforms() -> tuple[bool, str]:
    rng = np.random.default_rng(303)
    worst = 0.0
    for n in (1, 2):
        grid = GridSpec((8,) * n, 0.9)
        f = random_field(grid, rng)
        g = random_field(grid, rng)
        worst = max(worst, relative_gap(idft(dft(f)), f))
        F, G = dft(f), dft(g)
        worst = max(worst, float(np.max(np.abs(F.values - dft_direct(f).values))))
        pos = inner_product(f, g)
        mom = momentum_pairing(F, G)
        worst = max(worst, (pos - mom).norm() / max(pos.norm(), 1e-300))
        worst = max(worst, relative_gap(convolve(f, g), convolve_direct(f, g)))
    return _verdict(worst, 1e-10)


def check_kg_central() -> tuple[bool, str]:
    rng = np.random.default_rng(404)
    grid = GridSpec((16,), 1.0)
    m, tau = 1.0, 0.7
    time = TimeModel.central_difference(tau)
    data = CauchyData(random_field(grid, rng), random_field(grid, rng))
    psi = [solve_kg(data, time, m, k * tau) for k in range(-1, 42)]
    worst = 0.0
    for k in range(1, 41):
        worst = max(worst, kg_residual(psi[k - 1 + 1], psi[k + 1], psi[k + 1 + 1], m, tau))
    ok1 = worst <= 1e-9
    marched = leapfrog_march(psi[0], psi[1], m, tau, 41)
    gap = relative_gap(marched, psi[42])
    ok2 = gap <= 1e-8
    return ok1 and ok2, f"recurrence {worst:.2e} (tol 1e-09), vs marching {gap:.2e} (tol 1e-08)"


def check_dirac() -> tuple[bool, str]:
    rng = np.random.default_rng(505)
    grid = GridSpec((16,), 1.0)
    m, tau, alpha = 1.0, 0.7, 0.25
    time = TimeModel.central_difference(tau)
    phi0 = random_field(grid, rng)
    psi = [solve_dirac(phi0, time, alpha, m, j * tau / 2.0) for j in range(0, 42)]
    worst = 0.0
    for j in range(1, 41):
        worst = max(worst, dirac_residual(psi[j - 1], psi[j], psi[j + 1], alpha, m, tau))
    return _verdict(worst, 1e-9)


def check_chebyshev() -> tuple[bool, str]:
    rng = np.random.default_rng(606)
    grid = GridSpec((16,), 1.0)
    m, tau = 1.0, 0.7
    time = TimeModel.central_difference(tau)
    data = CauchyData(random_field(grid, rng), random_field(grid, rng))
    t = 10 * tau / 2.0
    gap = relative_gap(chebyshev_solve(data, tau, m, t), solve_kg(data, time, m, t))
    return _verdict(gap, 1e-10)


def check_umbral() -> tuple[bool, str]:
    # exact rational lowering L m_k = k m_{k-1} for both operators
    exact = True
    for op in (DeltaOperator.derivative(), DeltaOperator.central_difference(0.5)):
        polys = basic_sequence(op, 11)
        for k in range(1, 11):
            lowered = op.apply(polys[k])
            want = tuple(Fraction(k) * c for c in polys[k - 1])
            L = max(len(lowered), len(want))
            a = tuple(lowered) + (Fraction(0),) * (L - len(lowered))
            b = tuple(want) + (Fraction(0),) * (L - len(want))
            exact = exact and a == b
    # EGF eigenvalue: the operator's own difference quotient of G(s, .) is s G(s, .)
    sig = Signature(1)
    tau = 0.5
    op = DeltaOperator.central_difference(tau)
    omega = Multivector.generator(sig, 2)
    worst = 0.0
    for r in (0.3, 0.9):
        s = omega * r
        for t in (0.4, 1.1):
            lhs = (egf_eval(op, s, t + tau / 2.0) - egf_eval(op, s, t - tau / 2.0)) * (1.0 / tau)
            rhs = s * egf_eval(op, s, t)
            worst = max(worst, (lhs - rhs).norm() / max(rhs.norm(), 1e-300))
    eig_ok = worst <= 1e-12
    # closed form vs truncated series, r|t| <= 1, three distinct omega
    grid = GridSpec((8,), 1.0)
    z = multiplier_z((0.8,), 0.25, 1.0, sig)
    m = 1.0
    zm = z - pseudoscalar(sig) * m
    lam = math.sqrt(abs((zm * zm).coeffs[0]))
    omegas = [Multivector.generator(sig, 2), pseudoscalar(sig), zm * (1.0 / lam)]
    sworst = 0.0
    for om in omegas:
        for r, t in ((0.5, 2.0), (1.0, 1.0), (0.25, 0.8)):
            s = om * (r * complex(math.cos(0.6), math.sin(0.6)))
            closed = egf_eval(op, s, t)
            series = egf_series_eval(op, s, t)
            sworst = max(sworst, (closed - series).norm() / max(closed.norm(), 1e-300))
    series_ok = sworst <= 1e-10
    ok = exact and eig_ok and series_ok
    return ok, (
        f"lowering exact: {exact}, eigenvalue {worst:.2e} (tol 1e-12), "
        f"closed-vs-series {sworst:.2e} (tol 1e-10)"
    )


def check_heat() -> tuple[bool, str]:
    rng = np.random.default_rng(707)
    grid = GridSpec((16,), 0.9)
    worst_kernel = 0.0
    for s in (0.1, 0.5, 2.0):
        kb = heat_kernel_bessel(grid, s)
        ks = heat_kernel_spectral(grid, s)
        scale = float(np.max(np.abs(ks.values)))
        worst_kernel = max(worst_kernel, float(np.max(np.abs(kb.values - ks.values))) / scale)
    f = random_field(grid, rng)
    semi = relative_gap(heat_semigroup(heat_semigroup(f, 0.3), 0.5), heat_semigroup(f, 0.8))
    total0 = complex(np.sum(f.values[..., 0]))
    total1 = complex(np.sum(heat_semigroup(f, 0.7).values[..., 0]))
    mass_dev = abs(total1 - total0) / max(abs(total0), 1e-300)
    # explicit Euler converges (order 1) to the same semigroup normalization
    s = 0.5
    exact = heat_semigroup(f, s)

    def euler(steps: int) -> LatticeField:
        u = f
        dt = s / steps
        for _ in range(steps):
            u = u + discrete_laplacian(u) * dt
        return u

    e1 = relative_gap(euler(64), exact)
    e2 = relative_gap(euler(128), exact)
    ratio = e1 / e2
    euler_ok = 1.8 <= ratio <= 2.2
    ok = worst_kernel <= 1e-10 and semi <= 1e-11 and mass_dev <= 1e-11 and euler_ok
    return ok, (
        f"kernels {worst_kernel:.2e} (tol 1e-10), semigroup {semi:.2e} (tol 1e-11), "
        f"mass {mass_dev:.2e} (tol 1e-11), euler ratio {ratio:.2f} (want 2.0±0.2)"
    )


def check_fractional() -> tuple[bool, str]:
    rng = np.random.default_rng(808)
    grid = GridSpec((12,), 0.8)
    f = random_field(grid, rng)
    m = 1.0
    worst_sub = 0.0
    for alpha in (0.1, 0.25, 0.4):
        p = FracParams(alpha, m)
        worst_sub = max(
            worst_sub,
            relative_gap(frac_power(f, p, mode="subordination"), frac_power(f, p, mode="spectral")),
        )
    p = FracParams(0.25, m)
    round1 = relative_gap(riesz(riesz_inverse(f, p), p), f)
    round2 = relative_gap(riesz_inverse(riesz(f, p), p), f)
    riesz_dev = max(round1, round2)
    time = TimeModel.central_difference(0.5)
    data = CauchyData(f, random_field(grid, rng))
    t = 1.5
    frac_gap = relative_gap(solve_kg_fractional(data, time, p, t), solve_kg(data, time, m, t))
    tau = 0.5
    pt = [p_t_operator(f, time, p, t + k * tau) for k in (-1, 0, 1)]
    recomb = kg_residual(pt[0], pt[1], pt[2], m, tau)
    ok = worst_sub <= 1e-6 and riesz_dev <= 1e-9 and frac_gap <= 1e-9 and recomb <= 1e-9
    return ok, (
        f"subordination {worst_sub:.2e} (tol 1e-06), riesz {riesz_dev:.2e} (tol 1e-09), "
        f"kernel boost {frac_gap:.2e} (tol 1e-09), parity recombination {recomb:.2e} (tol 1e-09)"
    )


def check_continuum() -> tuple[bool, str]:
    m, t, mode = 1.0, 0.4, 1
    xi = float(mode)  # box length 2*pi makes the mode-1 momentum exactly 1
    lam_c = math.sqrt(xi * xi + m * m)
    errs = []
    for N in (8, 16, 32):
        grid = GridSpec((N,), 2.0 * math.pi / N)
        phi0 = LatticeField.plane_wave(grid, (mode,))
        got = solve_kg(CauchyData.rest(phi0), TimeModel.continuous(), m, t)
        exact = phi0 * complex(math.cos(t * lam_c))
        errs.append(float(np.max(np.abs(got.values - exact.values))))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    ok = 3.6 <= r1 <= 4.4 and 3.6 <= r2 <= 4.4
    return ok, f"halving ratios {r1:.2f}, {r2:.2f} (want 4.0±10%)"


def check_special_functions() -> tuple[bool, str]:
    worst_ml = abs(mittag_leffler(1.0, 1.0, 1.0) - math.e)
    worst_ml = max(worst_ml, abs(mittag_leffler(2.0, 1.0, 1.0) - math.cosh(1.0)))
    ml_ok = worst_ml <= 1e-10
    worst_erfc = 0.0
    for u in (0.0, 0.5, 1.5):
        got = mittag_leffler(0.5, 1.0, u)
        want = math.exp(u * u) * erfc(-u)
        worst_erfc = max(worst_erfc, abs(got - want) / abs(want))
    erfc_ok = worst_erfc <= 1e-9
    worst_bessel = 0.0
    theta = np.linspace(0.0, math.pi, 20001)
    for k in (0, 1, 3):
        for u in (0.5, 2.5):
            integrand = np.exp(u * np.cos(theta)) * np.cos(k * theta)
            quad = float(np.trapezoid(integrand, theta) / math.pi)
            worst_bessel = max(worst_bessel, abs(bessel_i(k, u) - quad))
    bessel_ok = worst_bessel <= 1e-10
    ok = ml_ok and erfc_ok and bessel_ok
    return ok, (
        f"mittag-leffler {worst_ml:.2e} (tol 1e-10), erfc identity {worst_erfc:.2e} (tol 1e-09), "
        f"bessel vs quadrature {worst_bessel:.2e} (tol 1e-10)"
    )


def check_cli_round_trip() -> tuple[bool, str]:
    from .cli import load_field, main, store_field

    rng = np.random.default_rng(909)
    grid = GridSpec((6, 4), 0.75, alpha=0.25, mass=1.0)
    f = random_field(grid, rng)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "field.csv")
        store_field(f, path)
        g = load_field(path)
        exact = g.grid == f.grid and bool(np.array_equal(g.values, f.values))

        base = (
            "equation = klein_gordon\ndim = 1\npoints = 8\nspacing = 1.0\nmass = 1.0\n"
            "time_model = central_difference\ntau = {tau}\ntimes = {times}\ninitial_data = delta\n"
        )
        good = os.path.join(tmp, "good.cfg")
        with open(good, "w", encoding="utf-8") as fh:
            fh.write(base.format(tau=0.5, times=0.5))
        bad_key = os.path.join(tmp, "bad.cfg")
        with open(bad_key, "w", encoding="utf-8") as fh:
            fh.write(base.format(tau=0.5, times=0.5) + "wavelength = 3\n")
        cfl = os.path.join(tmp, "cfl.cfg")
        with open(cfl, "w", encoding="utf-8") as fh:
            fh.write(base.format(tau=1.5, times=1.5))

        ok_run = main(["evolve", "--config", good, "--out", os.path.join(tmp, "a")]) == 0
        # the deliberate failures report on stderr; a passing selftest stays quiet
        with contextlib.redirect_stderr(io.StringIO()):
            ok_bad = main(["evolve", "--config", bad_key, "--out", os.path.join(tmp, "b")]) == 2
            ok_cfl = main(["evolve", "--config", cfl, "--out", os.path.join(tmp, "c")]) == 3
        ok_rescue = main(["evolve", "--config", cfl, "--out", os.path.join(tmp, "d"), "--allow-unstable"]) == 0
    ok = exact and ok_run and ok_bad and ok_cfl and ok_rescue
    return ok, (
        f"round trip bit-exact: {exact}, evolve ok: {ok_run}, "
        f"unknown key exit 2: {ok_bad}, cfl exit 3: {ok_cfl}, --allow-unstable: {ok_rescue}"
    )


_CHECKS = [
    ("algebra_relations", check_algebra),
    ("factorization", check_factorization),
    ("multiplier_square", check_multiplier_square),
    ("transforms", check_transforms),
    ("kg_central_exactness", check_kg_central),
    ("dirac_residual", check_dirac),
    ("chebyshev_equivalence", check_chebyshev),
    ("umbral_calculus", check_umbral),
    ("heat_semigroup", check_heat),
    ("fractional_powers", check_fractional),
    ("continuum_convergence", check_continuum),
    ("special_functions", check_special_functions),
    ("cli_round_trip", check_cli_round_trip),
]


def run_all() -> list[tuple[str, bool, str]]:
    results = []
    for name, fn in _CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))
    return results
