"""Modular, Luxemburg norm, mixed norm: closed forms, oracles, iff property."""

import math
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

from vexint import _accel
from vexint.errors import InvalidInput
from vexint.exponents import ExponentField, build_exponent
from vexint.grid import cube_mask, make_grid
from vexint.lebesgue import (
    luxemburg_norm,
    mixed_norm,
    modular,
    modular_at,
    stack,
    unit_ball_check,
)
from vexint.seqspaces import DyadicCoefficients, f_norm

G = make_grid(1, 4, 256)
P2 = build_exponent(G, "constant", value=2.0)
RECIPES = [
    ("constant", dict(value=2.0)),
    ("constant", dict(value=3.5)),
    ("sine", dict(base=2.5, amplitude=0.5, frequency=1.0)),
    ("sine", dict(base=3.0, amplitude=1.5, frequency=2.0)),
    ("plateau", dict(left=2.0, right=3.0, width=1.0)),
    ("plateau", dict(left=4.0, right=1.5, width=0.5)),
]


def unit_indicator():
    return cube_mask(G, G.cube(0, (0,))).astype(float)


def random_piecewise(rng, grid=G, scale=1.0):
    """Piecewise-constant on level-2 cubes with log-uniform magnitudes."""
    v = 2
    per_cube = rng.uniform(-3, 3, size=(grid.cubes_per_axis(v),) * grid.n)
    from vexint.grid import cube_broadcast

    return scale * 10.0 ** cube_broadcast(grid, per_cube, v)


def oracle_norm(f, p, lo=1e-8, hi=1e12):
    """Independent route: root of modular(f/lam) - 1 via Brent's method."""
    fv = np.abs(f)
    if fv.max() == 0:
        return 0.0
    return brentq(lambda lam: modular_at(fv, p, lam) - 1.0, lo, hi, xtol=1e-14, rtol=1e-14)


def test_modular_examples():
    chi = unit_indicator()
    assert modular(chi, P2) == pytest.approx(1.0, abs=0)
    assert modular(2.0 * chi, P2) == pytest.approx(4.0, rel=1e-14)
    plateau = build_exponent(G, "plateau", left=2.0, right=3.0, width=1.0)
    assert modular(chi, plateau) == pytest.approx(1.0, abs=0)  # 1^p = 1


def test_luxemburg_closed_form_examples():
    chi = unit_indicator()
    r = luxemburg_norm(2.0 * chi, P2)
    assert r.method == "closed-form"
    assert r.value == pytest.approx(2.0, rel=1e-14)
    z = luxemburg_norm(np.zeros(G.shape), P2)
    assert z.value == 0.0 and z.iterations == 0


def test_constant_exponent_agrees_with_quadrature_norm():
    rng = np.random.default_rng(11)
    for _ in range(50):
        c = rng.uniform(1.0, 6.0)
        p = build_exponent(G, "constant", value=c)
        f = random_piecewise(rng)
        expect = (np.sum(np.abs(f) ** c) * G.h) ** (1.0 / c)
        assert luxemburg_norm(f, p).value == pytest.approx(expect, rel=1e-12)


def test_bisection_against_lambda_scan_oracle():
    rng = np.random.default_rng(5)
    for recipe, params in RECIPES[2:]:
        p = build_exponent(G, recipe, **params)
        for _ in range(10):
            f = random_piecewise(rng)
            got = luxemburg_norm(f, p)
            assert got.method == "bisection"
            assert got.value == pytest.approx(oracle_norm(f, p), rel=1e-8)


def test_variable_exponent_indicator_oracle():
    # f = c * chi_A with p varying on A: lambda* solves an explicit equation
    p = build_exponent(G, "plateau", left=2.0, right=3.0, width=1.0)
    f = 3.0 * unit_indicator()
    got = luxemburg_norm(f, p).value
    assert got == pytest.approx(oracle_norm(f, p), rel=1e-10)
    assert modular_at(f, p, got) <= 1.0 + 1e-12
    assert modular_at(f, p, got * (1 - 1e-9)) > 1.0


def test_bisection_matches_closed_form_on_near_constant_field():
    # force the bisection path with an invisible perturbation of p
    vals = np.full(G.shape, 2.0)
    vals[7] += 1e-12
    p_tweaked = ExponentField(G, vals, 2.0, 2.0 + 1e-12, "integrability")
    rng = np.random.default_rng(23)
    for _ in range(20):
        f = random_piecewise(rng)
        r = luxemburg_norm(f, p_tweaked)
        assert r.method == "bisection"
        assert r.value == pytest.approx(luxemburg_norm(f, P2).value, rel=1e-8)


def test_homogeneity():
    rng = np.random.default_rng(17)
    p = build_exponent(G, "sine", base=2.5, amplitude=0.5, frequency=1.0)
    for _ in range(100):
        f = random_piecewise(rng)
        c = 10.0 ** rng.uniform(-6, 6)
        base = luxemburg_norm(f, p).value
        assert luxemburg_norm(c * f, p).value == pytest.approx(c * base, rel=1e-9)


def test_lattice_monotonicity():
    rng = np.random.default_rng(29)
    p = build_exponent(G, "plateau", left=2.0, right=3.0, width=1.0)
    for _ in range(30):
        f = random_piecewise(rng)
        g = f * rng.uniform(0.0, 1.0, size=G.shape)
        nf = luxemburg_norm(f, p).value
        ng = luxemburg_norm(g, p).value
        assert ng <= nf * (1 + 2e-10)


def test_unit_ball_iff_on_random_corpus():
    rng = np.random.default_rng(41)
    agreements = 0
    for i in range(200):
        recipe, params = RECIPES[i % len(RECIPES)]
        p = build_exponent(G, recipe, **params)
        f = random_piecewise(rng, scale=10.0 ** rng.uniform(-2, 2))
        a, b = unit_ball_check(f, p)
        assert a == b
        agreements += 1
    assert agreements == 200


def test_unit_ball_iff_at_exact_boundary():
    # norm exactly 1: the indicator has modular 1 for every exponent recipe
    for recipe, params in RECIPES:
        p = build_exponent(G, recipe, **params)
        assert unit_ball_check(unit_indicator(), p) == (True, True)
        assert unit_ball_check(1.0000001 * unit_indicator(), p) == (False, False)


def test_mixed_norm_examples():
    chi = unit_indicator()
    single = mixed_norm([3.0 * chi], P2, P2)
    assert single.value == pytest.approx(luxemburg_norm(3.0 * chi, P2).value, rel=1e-14)
    pair = mixed_norm([chi, chi], P2, P2)
    assert pair.value == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert mixed_norm([], P2, P2).value == 0.0


def test_mixed_norm_p_equals_q_modular_identity():
    # when p == q pointwise, rho(stack/lam) telescopes to sum of modulars
    p = build_exponent(G, "sine", base=2.5, amplitude=0.5, frequency=1.0)
    rng = np.random.default_rng(59)
    fam = [random_piecewise(rng) for _ in range(4)]
    got = mixed_norm(fam, p, p).value

    def total_modular(lam):
        return sum(modular_at(f, p, lam) for f in fam)

    lam_star = brentq(lambda lam: total_modular(lam) - 1.0, 1e-8, 1e12, rtol=1e-14)
    assert got == pytest.approx(lam_star, rel=1e-9)


def test_mixed_norm_overflow_safety():
    # huge entries must not overflow the q-power stack
    p = build_exponent(G, "sine", base=2.5, amplitude=0.5, frequency=1.0)
    fam = [np.full(G.shape, 1e200), np.full(G.shape, 1e199)]
    r = mixed_norm(fam, p, p)
    assert np.isfinite(r.value) and r.value > 1e199


def test_holder_inequality():
    rng = np.random.default_rng(61)
    p = build_exponent(G, "sine", base=2.5, amplitude=0.4, frequency=1.0)
    from vexint.exponents import conjugate

    pc = conjugate(p)
    for _ in range(50):
        f = random_piecewise(rng)
        g = random_piecewise(rng)
        lhs = G.integrate(np.abs(f * g))
        rhs = 2.0 * luxemburg_norm(f, p).value * luxemburg_norm(g, pc).value
        assert lhs <= rhs * (1 + 1e-12)


def test_norm_result_reports_bracket_and_residual():
    p = build_exponent(G, "plateau", left=2.0, right=3.0, width=1.0)
    f = random_piecewise(np.random.default_rng(2))
    r = luxemburg_norm(f, p)
    lo, hi = r.bracket
    assert lo <= r.value <= hi
    assert (hi - lo) <= 1e-10 * hi
    assert r.residual == pytest.approx(abs(modular_at(f, p, r.value) - 1.0), rel=1e-6, abs=1e-12)


@pytest.mark.parametrize("n,N", [(1, 64), (2, 32)])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("recipe,params", [
    ("constant", dict(value=2.0)),
    ("plateau", dict(left=2.0, right=3.0, width=1.0)),
])
def test_non_finite_input_is_rejected(n, N, bad, recipe, params):
    g = make_grid(n, 4, N)
    p = build_exponent(g, recipe, **params)
    f = np.ones(g.shape)
    f.flat[3] = bad
    with pytest.raises(InvalidInput):
        luxemburg_norm(f, p)
    with pytest.raises(InvalidInput):
        mixed_norm([f, np.ones(g.shape)], p, p)
    with pytest.raises(InvalidInput):
        unit_ball_check(f, p)
    with pytest.raises(InvalidInput):
        modular(f, p)
    with pytest.raises(InvalidInput):
        modular_at(f, p, 2.0)


@pytest.mark.parametrize("n,N", [(1, 64), (2, 32)])
@pytest.mark.parametrize("lam", [0.0, -1.0, -0.0, math.nan, math.inf])
def test_modular_scale_outside_positive_reals_is_rejected(n, N, lam):
    g = make_grid(n, 4, N)
    p = build_exponent(g, "plateau", left=2.0, right=3.0, width=1.0)
    with pytest.raises(InvalidInput):
        modular_at(np.ones(g.shape), p, lam)


@pytest.mark.parametrize("n,N", [(1, 256), (2, 32)])
def test_zero_and_extreme_magnitudes_keep_their_norms(n, N):
    g = make_grid(n, 4, N)
    p = build_exponent(g, "plateau", left=2.0, right=3.0, width=1.0)
    zero = luxemburg_norm(np.zeros(g.shape), p)
    assert (zero.value, zero.iterations, zero.residual, zero.method) == (0.0, 0, 0.0, "zero")
    f = np.abs(np.random.default_rng(1).normal(size=g.shape)) + 0.1
    base = luxemburg_norm(f, p)
    for scale in (1e300, 1e-300):
        r = luxemburg_norm(scale * f, p)
        assert r.method == "bisection" and r.iterations == base.iterations
        assert r.value == pytest.approx(scale * base.value, rel=1e-12)
    # the modulars of such inputs underflow to 0 without raising; past the
    # float range they are an InvalidInput, not a silent inf
    assert modular(np.zeros(g.shape), p) == 0.0
    with pytest.raises(InvalidInput, match="exceeds the float range"):
        modular(1e300 * f, p)
    assert modular(1e-300 * f, p) == 0.0
    assert modular_at(f, p, 1e300) == 0.0
    with pytest.raises(InvalidInput, match="exceeds the float range"):
        modular_at(f, p, 1e-300)
    # the unit-ball decision still reads the overflowed modular as > 1
    assert unit_ball_check(1e300 * f, p) == (False, False)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-10, 1.0, 2.0])
def test_tolerance_outside_unit_interval_is_rejected_before_any_pass(tol, monkeypatch):
    def no_pass(*args):
        raise AssertionError("a modular pass ran before the tolerance was checked")

    monkeypatch.setattr(_accel, "modular_pow_sum", no_pass)
    monkeypatch.setattr(_accel, "log_modular_step", no_pass)
    p = build_exponent(G, "plateau", left=2.0, right=3.0, width=1.0)
    f = random_piecewise(np.random.default_rng(3))
    with pytest.raises(InvalidInput, match="tolerance"):
        luxemburg_norm(f, p, tol=tol)
    with pytest.raises(InvalidInput, match="tolerance"):
        luxemburg_norm(f, P2, tol=tol)


def test_finite_norm_near_the_float_ceiling_is_returned():
    # 2 ||f||_{p-} + max|f| overflows: the upper bracket end clamps to the
    # largest float, where the modular is still <= 1
    g = make_grid(1, 1.0, 64)
    p = build_exponent(g, "sine", base=1.5, amplitude=0.4, frequency=1.0)
    f = np.full(g.shape, 5e307)
    f[::2] /= 2.0
    r = luxemburg_norm(f, p)
    assert r.method == "bisection" and r.iterations > 0
    assert math.isfinite(r.value) and 5e307 < r.value < sys.float_info.max
    lo, hi = r.bracket
    assert hi == r.value and hi - lo <= 1e-10 * hi
    assert modular_at(f, p, r.value) <= 1.0 < modular_at(f, p, lo)


@pytest.mark.parametrize("recipe,params", [
    # ||f||_{p+} itself overflows, so the lower bracket end is not finite either
    ("sine", dict(base=1.9, amplitude=0.05, frequency=1.0)),
    ("constant", dict(value=1.5)),
])
def test_norm_beyond_the_float_range_is_rejected(recipe, params):
    g = make_grid(1, 8.0, 64)
    p = build_exponent(g, recipe, **params)
    f = np.full(g.shape, 1e308)
    assert modular_at(f, p, sys.float_info.max) > 1.0
    with pytest.raises(InvalidInput, match="exceeds the float range"):
        luxemburg_norm(f, p)


@pytest.mark.parametrize("value", [-1.0, 0.5])
def test_inner_exponent_must_be_an_integrability_exponent(value):
    # a smoothness-role q = -1 stopped on numpy's divide-by-zero warning, and
    # q = 0.5 gave a number
    q = build_exponent(G, "constant", value=value, role="smoothness")
    alpha = build_exponent(G, "constant", value=0.0, role="smoothness")
    lam = DyadicCoefficients(G, 2, {(0, (1,)): 3.0, (2, (5,)): -1.0})
    with pytest.raises(InvalidInput, match="integrability"):
        stack([np.ones(G.shape)], q)
    with pytest.raises(InvalidInput, match="integrability"):
        mixed_norm([np.ones(G.shape)], P2, q)
    with pytest.raises(InvalidInput, match="integrability"):
        f_norm(lam, alpha, P2, q)
