"""The acceptance checks behind both ``latticewave selftest`` and
``tests/test_acceptance.py``.

Each check holds one pillar of the library against an independent route.  It
returns a detail line with the range of each bounded quantity, or raises
:class:`CheckFailed` naming the quantity, its value and its bound.  Bounds are
explicit raises, never ``assert``, so the checks also bite under ``python -O``.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import tempfile
from fractions import Fraction
from typing import Callable

import numpy as np

from .cli import load_field, main, store_field
from .clifford import Multivector, Signature, mul_arrays, pseudoscalar
from .fractional import (
    FracParams,
    bessel_i,
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
    dirac_kahler,
    discrete_laplacian,
    inner_product,
    random_field,
    relative_gap,
)
from .oracles import (
    _bessel_quadrature,
    chebyshev_solve,
    convolve_direct,
    dft_direct,
    egf_series_eval,
    heat_euler,
    leapfrog_march,
    momentum_pairing,
)
from .propagators import (
    CauchyData,
    TimeModel,
    dirac_data,
    dirac_residual,
    kg_residual,
    lambda_max,
    solve_dirac,
    solve_kg,
)
from .spectral import (
    convolve,
    d2_field,
    dft,
    dirac_h_alpha,
    idft,
    multiplier_z,
    z_field,
)
from .umbral import DeltaOperator, basic_sequence, egf_eval

__all__ = ["CheckFailed", "run_all"]

_SEED = 1234  # the seed of the ``rng`` fixture in tests/conftest.py
_ALPHAS = (0.0, 0.1, 0.25, 0.4, 0.5)
_CHECKS: list[tuple[str, Callable[[], str]]] = []


class CheckFailed(Exception):
    """A checked quantity broke its bound; the message names both."""


class _Bounds:
    """The bounded quantities of one check.  Each value is tested as soon as it
    is computed, so the first broken bound raises; ``str()`` is the detail line
    with the range of each quantity next to its bound."""

    def __init__(self) -> None:
        self._seen: dict[str, tuple[str, list[float]]] = {}

    def holds(self, name: str, value: float, ok: bool, want: str) -> None:
        if not ok:  # a NaN fails every comparison
            raise CheckFailed(f"{name} {value:.4g}, want {want}")
        self._seen.setdefault(name, (want, []))[1].append(value)

    def at_most(self, name: str, value: float, tol: float, scale: float = 1.0) -> None:
        """``value <= tol * scale``, shown as ``value / scale``."""
        self.holds(name, value / scale, value <= tol * scale, f"<= {tol:.0e}")

    def __str__(self) -> str:
        return "; ".join(
            f"{name} {min(v):.3g}{'' if min(v) == max(v) else f'..{max(v):.3g}'} (want {want})"
            for name, (want, v) in self._seen.items()
        )


def _check(fn: Callable[[_Bounds, np.random.Generator], None]) -> Callable[[], str]:
    """Register ``fn(bounds, rng)`` as a check named after it.  The check takes
    no argument, draws from the suite's seed and returns its detail line."""

    def check() -> str:
        b = _Bounds()
        fn(b, np.random.default_rng(_SEED))
        return str(b)

    _CHECKS.append((fn.__name__.removeprefix("check_"), check))
    return check


@_check
def check_algebra_relations(b: _Bounds, rng: np.random.Generator) -> None:
    for n in (1, 2, 3):
        sig = Signature(n)
        one = Multivector.scalar(sig, 1.0)
        gens = [Multivector.generator(sig, j) for j in range(1, 2 * n + 1)]
        for i, g in enumerate(gens):
            square = -1.0 if i < n else 1.0
            b.at_most("generators", (g * g - Multivector.scalar(sig, square)).norm(), 1e-12)
            b.at_most("generators", (g.dagger() * g - one).norm(), 1e-12)
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                b.at_most("generators", (gens[i] * gens[j] + gens[j] * gens[i]).norm(), 1e-12)
        gam = pseudoscalar(sig)
        b.at_most("pseudoscalar", (gam * gam - one).norm(), 1e-12)
        for g in gens:
            b.at_most("pseudoscalar", (gam * g + g * gam).norm(), 1e-12)
        for _ in range(100):
            # unit norm keeps absolute tolerances meaningful for products of these
            co = [rng.standard_normal(sig.blades) + 1j * rng.standard_normal(sig.blades) for _ in range(3)]
            x, y, z = (Multivector(sig, c / np.linalg.norm(c)) for c in co)
            b.at_most("associativity", ((x * y) * z - x * (y * z)).norm(), 1e-12)
            b.at_most("dagger", ((x * y).dagger() - y.dagger() * x.dagger()).norm(), 1e-12)
            b.at_most("dagger", (x.dagger().dagger() - x).norm(), 1e-12)


@_check
def check_factorization(b: _Bounds, rng: np.random.Generator) -> None:
    count = 0
    for n, N in ((1, 16), (2, 8)):
        grid = GridSpec((N,) * n, 0.7)
        gam = pseudoscalar(grid.sig)
        for alpha in _ALPHAS:
            for m in (0.0, 1.0):
                for _ in range(2):
                    f = random_field(grid, rng)
                    count += 1
                    op = lambda g: dirac_h_alpha(g, alpha) - g.left_mul(gam) * m
                    b.at_most("relative gap", relative_gap(op(op(f)), -discrete_laplacian(f) + f * m**2), 1e-10)
    b.holds("random fields", count, count >= 20, ">= 20")


@_check
def check_multiplier_square(b: _Bounds, rng: np.random.Generator) -> None:
    for shape, h in (((16,), 1.3), ((16, 16), 0.8), ((8, 8, 8), 1.0), ((16, 16), 1.3)):
        grid = GridSpec(shape, h)
        d2 = d2_field(grid)
        for alpha in _ALPHAS:
            z = z_field(grid, alpha)
            z2 = mul_arrays(grid.n, z, z)
            z2[..., 0] -= d2
            b.at_most("max |z^2 - d^2|", float(np.max(np.abs(z2))), 1e-12)
    # a sign flip in one column of z still squares to d^2; at alpha = 0 z is the position-space stencil's symbol
    for shape in ((8,), (6, 4), (4, 4, 2)):
        f = random_field(GridSpec(shape, 0.9), rng)
        b.at_most("alpha = 0 symbol vs dirac_kahler", relative_gap(dirac_h_alpha(f, 0.0), dirac_kahler(f)), 1e-12)


@_check
def check_transforms(b: _Bounds, rng: np.random.Generator) -> None:
    for n in (1, 2):
        grid = GridSpec((8,) * n, 0.9)
        f, g = random_field(grid, rng), random_field(grid, rng)
        b.at_most("inversion", relative_gap(idft(dft(f)), f), 1e-12)
        F, G = dft(f), dft(g)
        b.at_most("vs dense matrix", float(np.max(np.abs(F.values - dft_direct(f).values))), 1e-12)
        pos = inner_product(f, g)
        b.at_most("parseval", (pos - momentum_pairing(F, G)).norm() / pos.norm(), 1e-11)
        b.at_most("convolution", relative_gap(convolve(f, g), convolve_direct(f, g)), 1e-10)
        # the product is genuinely one-sided; swapping factors must move it
        swap = relative_gap(convolve(g, f), convolve(f, g))
        b.holds("swapped factors", swap, swap > 1e-3, "> 1e-3")


@_check
def check_kg_central_exactness(b: _Bounds, rng: np.random.Generator) -> None:
    grid = GridSpec((16,), 1.0)
    m, tau = 1.0, 0.7
    time = TimeModel.central_difference(tau)
    margin = 1.0 - lambda_max(grid, m) / time.cfl_bound()
    b.holds("CFL margin", margin, margin >= 0.10, ">= 0.10")
    data = CauchyData(random_field(grid, rng), random_field(grid, rng))
    psi = [solve_kg(data, time, m, k * tau) for k in range(-1, 42)]
    for k in range(41):
        b.at_most("recurrence", kg_residual(psi[k], psi[k + 1], psi[k + 2], m, tau), 1e-9)
    b.at_most("vs marching", relative_gap(leapfrog_march(psi[0], psi[1], m, tau, 41), psi[42]), 1e-8)


@_check
def check_dirac_residual(b: _Bounds, rng: np.random.Generator) -> None:
    grid = GridSpec((16,), 1.0)
    m, tau, alpha = 1.0, 0.7, 0.25
    time = TimeModel.central_difference(tau)
    phi0 = random_field(grid, rng)
    psi = [solve_dirac(phi0, time, alpha, m, j * tau / 2.0) for j in range(42)]
    for j in range(1, 41):
        b.at_most("half-step residual", dirac_residual(psi[j - 1], psi[j], psi[j + 1], alpha, m, tau), 1e-9)


@_check
def check_chebyshev_equivalence(b: _Bounds, rng: np.random.Generator) -> None:
    grid = GridSpec((16,), 1.0)
    m, tau = 1.0, 0.7
    time = TimeModel.central_difference(tau)
    data = CauchyData(random_field(grid, rng), random_field(grid, rng))
    t = 10 * tau / 2.0
    b.at_most("vs central solver", relative_gap(chebyshev_solve(data, tau, m, t), solve_kg(data, time, m, t)), 1e-10)


@_check
def check_umbral_calculus(b: _Bounds, rng: np.random.Generator) -> None:
    # exact rational lowering L m_k = k m_{k-1} for both built-in operators, k <= 10
    for op in (DeltaOperator.derivative(), DeltaOperator.central_difference(0.5)):
        polys = basic_sequence(op, 11)
        b.holds("basic sequence k", 0, polys[0] == (Fraction(1),), "m_0 = 1 and exact lowering")
        for k in range(1, 11):
            lowered = op.apply(polys[k])
            want = tuple(Fraction(k) * c for c in polys[k - 1])
            L = max(len(lowered), len(want))
            pad = lambda p: tuple(p) + (Fraction(0),) * (L - len(p))
            b.holds("basic sequence k", k, pad(lowered) == pad(want), "m_0 = 1 and exact lowering")
            # normalized m_k/k! is lowered with unit coefficient
            unit = tuple(c / Fraction(math.factorial(k)) for c in lowered)
            prev = tuple(c / Fraction(math.factorial(k - 1)) for c in polys[k - 1])
            b.holds("basic sequence k", k, pad(unit)[: len(prev)] == prev, "m_0 = 1 and exact lowering")

    tau = 0.5
    op = DeltaOperator.central_difference(tau)
    sig = Signature(1)
    zm = multiplier_z((0.8,), 0.25, 1.0) - pseudoscalar(sig) * 1.0
    lam = math.sqrt(abs((zm * zm).coeffs[0]))
    omegas = [Multivector.generator(sig, 2), pseudoscalar(sig), zm * (1.0 / lam)]

    def eigenvalue(s: Multivector, t: float) -> None:
        # the generating function is an eigenfunction of the operator's own
        # half-step quotient, eigenvalue s
        lhs = (egf_eval(op, s, t + tau / 2) - egf_eval(op, s, t - tau / 2)) * (1.0 / tau)
        rhs = s * egf_eval(op, s, t)
        b.at_most("eigenvalue", (lhs - rhs).norm() / rhs.norm(), 1e-12)

    for om in omegas:
        for r, t in ((0.5, 2.0), (1.0, 1.0), (0.25, 0.8)):
            s = om * (r * complex(math.cos(0.6), math.sin(0.6)))
            eigenvalue(s, t)
            closed = egf_eval(op, s, t)
            b.at_most("closed vs series", (closed - egf_series_eval(op, s, t)).norm() / closed.norm(), 1e-10)
    for r, t in ((0.3, 0.4), (0.3, 1.1), (0.9, 0.4), (0.9, 1.1)):
        eigenvalue(omegas[0] * r, t)


@_check
def check_heat_semigroup(b: _Bounds, rng: np.random.Generator) -> None:
    # per grid: the spectral grid, then the grid, blades and time of the Euler march
    for grid, euler_grid, euler_scalar, euler_s in (
        (GridSpec((16,), 0.5), GridSpec((8,), 0.5), True, 0.3),
        (GridSpec((16,), 0.9), GridSpec((16,), 0.9), False, 0.5),
    ):
        for s in (0.1, 0.5, 2.0):
            kb, ks = heat_kernel_bessel(grid, s), heat_kernel_spectral(grid, s)
            b.at_most("kernels", relative_gap(kb, ks), 1e-10)
            peak = float(np.max(np.abs(ks.values)))
            b.at_most("kernels max-abs", float(np.max(np.abs(kb.values - ks.values))) / peak, 1e-10)
        f = random_field(grid, rng)
        twice = heat_semigroup(heat_semigroup(f, 0.3), 0.5)
        b.at_most("semigroup", relative_gap(twice, heat_semigroup(f, 0.8)), 1e-11)
        before = f.values.sum(axis=0)
        after = heat_semigroup(f, 1.7).values.sum(axis=0)
        b.at_most("mass (relative)", np.max(np.abs(after - before)), 1e-11, np.max(np.abs(before)))
        total0 = complex(np.sum(f.values[..., 0]))
        total1 = complex(np.sum(heat_semigroup(f, 0.7).values[..., 0]))
        b.at_most("scalar mass", abs(total1 - total0) / max(abs(total0), 1e-300), 1e-11)
        # explicit Euler converges at first order to the same semigroup
        g = random_field(euler_grid, rng, scalar=euler_scalar)
        want = heat_semigroup(g, euler_s)
        errors = [relative_gap(heat_euler(g, euler_s, K), want) for K in (64, 128)]
        ratio = errors[0] / errors[1]
        b.holds("euler ratio", ratio, 1.8 <= ratio <= 2.2, "in [1.8, 2.2]")


@_check
def check_fractional_powers(b: _Bounds, rng: np.random.Generator) -> None:
    p = FracParams(0.25, 1.0)
    # per grid: the boosted solves, then the step and times of three P_t slices
    for grid, boost_at, tau, times in (
        (GridSpec((16,), 0.5), ((TimeModel.continuous(), 0.8), (TimeModel.central_difference(0.2), 1.0)),
         0.2, [k * 0.2 for k in (1, 2, 3)]),
        (GridSpec((12,), 0.8), ((TimeModel.central_difference(0.5), 1.5),),
         0.5, [1.5 + k * 0.5 for k in (-1, 0, 1)]),
    ):
        f = random_field(grid, rng)
        for alpha in (0.1, 0.25, 0.4):
            q = FracParams(alpha, 1.0)
            got = frac_power(f, q, mode="subordination")
            b.at_most("subordination", relative_gap(got, frac_power(f, q, mode="spectral")), 1e-6)
        b.at_most("riesz round trips", relative_gap(riesz_inverse(riesz(f, p), p), f), 1e-9)
        b.at_most("riesz round trips", relative_gap(riesz(riesz_inverse(f, p), p), f), 1e-9)
        data = CauchyData(f, random_field(grid, rng))
        for tm, t in boost_at:
            want = solve_kg(data, tm, p.m, t)
            b.at_most("kernel boost", relative_gap(solve_kg_fractional(data, tm, p, t), want), 1e-9)
        # P_t splits into the evolutions of rest data and of its Dirac velocity
        tm, t = TimeModel.continuous(), 0.6
        plus, minus = p_t_operator(f, tm, p, t), p_t_operator(f, tm, p, -t)
        even, odd = (plus + minus) * 0.5, (plus - minus) * 0.5
        b.at_most("parity split", relative_gap(even, solve_kg(CauchyData.rest(f), tm, p.m, t)), 1e-9)
        vel = CauchyData(LatticeField.zeros(grid), dirac_data(f, p.alpha, p.m).phi1)
        b.at_most("parity split", relative_gap(odd, solve_kg(vel, tm, p.m, t)), 1e-9)
        # three consecutive central-difference slices of P_t solve the leapfrog
        tmc = TimeModel.central_difference(tau)
        b.at_most("P_t recombination", kg_residual(*(p_t_operator(f, tmc, p, t) for t in times), p.m, tau), 1e-9)


@_check
def check_continuum_convergence(b: _Bounds, rng: np.random.Generator) -> None:
    m, t = 1.0, 0.4
    exact = math.cos(t * math.sqrt(1.0 + m * m))  # continuum frequency of mode 1
    rel, peak = [], []
    for N in (8, 16, 32):
        grid = GridSpec((N,), 2 * math.pi / N)  # fixed box, frequency xi = 1
        pw = LatticeField.plane_wave(grid, (1,))
        got = solve_kg(CauchyData.rest(pw), TimeModel.continuous(), m, t)
        rel.append(relative_gap(got, pw * exact))
        peak.append(float(np.max(np.abs(got.values - (pw * exact).values))))
    b.holds("error at N = 32", rel[2], rel[0] > rel[1] > rel[2] > 0, "e8 > e16 > e32 > 0")
    for name, e in (("halving ratio", rel), ("max-abs halving ratio", peak)):
        for ratio in (e[0] / e[1], e[1] / e[2]):
            b.holds(name, ratio, 3.6 <= ratio <= 4.4, "in [3.6, 4.4]")


@_check
def check_special_functions(b: _Bounds, rng: np.random.Generator) -> None:
    for zv in (0.5, -2.0, 3.0j, 1.0 - 1.0j):
        exp = np.exp(zv)
        b.at_most("mittag-leffler vs exp (relative)", abs(mittag_leffler(1.0, 1.0, zv) - exp), 1e-10, abs(exp))
    x, u = 1.3, 0.4
    for got, want in (
        (mittag_leffler(2.0, 1.0, x * x), math.cosh(x)),
        (mittag_leffler(2.0, 2.0, x * x), math.sinh(x) / x),
        (mittag_leffler(1.0, 2.0, 0.7), (math.exp(0.7) - 1.0) / 0.7),
        (mittag_leffler(0.5, 1.0, u), math.exp(u * u) * math.erfc(-u)),
        (mittag_leffler(1.0, 1.0, 1.0), math.e),
        (mittag_leffler(2.0, 1.0, 1.0), math.cosh(1.0)),
    ):
        b.at_most("mittag-leffler identities", abs(got - want), 1e-10)
    for u in (0.0, 0.5, 1.5):
        want = math.exp(u * u) * math.erfc(-u)
        b.at_most("erfc identity", abs(mittag_leffler(0.5, 1.0, u) - want) / abs(want), 1e-9)
    for uu in (0.5, 2.5):
        for k in (0, 1, 3):
            quad = math.exp(uu) * _bessel_quadrature(k, uu)
            # relative below |I_k| = 1, absolute above it
            b.at_most("bessel vs quadrature", abs(bessel_i(k, uu) - quad), 1e-10, min(1.0, abs(quad)))


@_check
def check_cli_round_trip(b: _Bounds, rng: np.random.Generator) -> None:
    grid = GridSpec((6, 4), 0.75, alpha=0.25, mass=1.0)
    f = random_field(grid, rng)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "field.csv")
        store_field(f, path)
        g = load_field(path)
        changed = int(np.count_nonzero(g.values != f.values)) if g.grid == f.grid else g.values.size
        b.holds("values changed by csv round trip", changed, changed == 0, "0")

        base = (
            "equation = klein_gordon\ndim = 1\npoints = 8\nspacing = 1.0\nmass = 1.0\n"
            "time_model = central_difference\ntau = {tau}\ntimes = {times}\ninitial_data = delta\n"
        )
        good, bad_key, cfl = (os.path.join(tmp, f"{name}.cfg") for name in ("good", "bad", "cfl"))
        for cfg, tau, extra in ((good, 0.5, ""), (bad_key, 0.5, "wavelength = 3\n"), (cfl, 1.5, "")):
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(base.format(tau=tau, times=tau) + extra)
        code = main(["evolve", "--config", good, "--out", os.path.join(tmp, "a")])
        b.holds("evolve exit", code, code == 0, "0")
        # the deliberate failures report on stderr; a passing selftest stays quiet
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(["evolve", "--config", bad_key, "--out", os.path.join(tmp, "b")])
            b.holds("unknown key exit", code, code == 2, "2")
            code = main(["evolve", "--config", cfl, "--out", os.path.join(tmp, "c")])
            b.holds("cfl exit", code, code == 3, "3")
        code = main(["evolve", "--config", cfl, "--out", os.path.join(tmp, "d"), "--allow-unstable"])
        b.holds("--allow-unstable exit", code, code == 0, "0")


def run_all() -> list[tuple[str, bool, str]]:
    results = []
    for name, check in _CHECKS:
        try:
            ok, detail = True, check()
        except Exception as exc:  # a crashed check is a failed check too
            ok, detail = False, str(exc) if isinstance(exc, CheckFailed) else f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
