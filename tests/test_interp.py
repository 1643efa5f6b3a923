"""Strip kernels, competitor families, and the interpolation sandwiches."""

import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from vexint.corpus import simple_function_corpus
from vexint.errors import InvalidInput, SolverFailure, UnsupportedParameters
from vexint.exponents import build_exponent
from vexint.grid import GridFunction, make_grid
from vexint.interp import (
    boundary_modulars,
    competitor_family,
    inter_rest_check,
    scalar_interp_sandwich,
    strip_poisson,
    three_lines_bound,
)
from vexint.lebesgue import luxemburg_norm
from vexint.lpf import build_dual_pair, build_admissible_pair, build_resolution_of_unity

G = make_grid(1, 4.0, 256)
X = G.coords()[0]
RNG = np.random.default_rng(0x117)

THETAS = (0.1, 0.25, 0.5, 0.75, 0.9)


def const(grid, value, role="integrability"):
    return build_exponent(grid, "constant", value=value, role=role)


def unit_region():
    return (X >= 0.0) & (X < 1.0)


def two_region_f(a=2.0, b=0.5):
    return [(a, unit_region()), (b, (X >= 2.0) & (X < 3.0))]


def band_limited(grid, radius, rng):
    spec = np.zeros(grid.shape, dtype=np.complex128)
    keep = grid.freq_radius <= radius
    spec[keep] = rng.standard_normal(int(keep.sum())) + 1j * rng.standard_normal(int(keep.sum()))
    return GridFunction(grid, np.fft.ifftn(spec))


# ------------------------------------------------------------------- kernels


def test_poisson_masses():
    for theta in THETAS:
        pair = strip_poisson(theta)
        assert abs(pair.mass0 - (1.0 - theta)) <= 1e-8
        assert abs(pair.mass1 - theta) <= 1e-8


def test_poisson_masses_against_full_line_quadrature():
    # independent oracle: adaptive quadrature of the closed forms over R
    for theta in (0.25, 0.6):
        pair = strip_poisson(theta)
        m0, _ = quad(lambda t: pair.mu0(t), -np.inf, np.inf)
        m1, _ = quad(lambda t: pair.mu1(t), -np.inf, np.inf)
        assert abs(m0 - (1.0 - theta)) <= 1e-10
        assert abs(m1 - theta) <= 1e-10


def test_poisson_reflection_symmetry():
    for theta in (0.2, 0.35, 0.5):
        a = strip_poisson(theta)
        b = strip_poisson(1.0 - theta)
        assert float(np.abs(a.mu0_values - b.mu1_values).max()) <= 1e-12
        assert float(np.abs(a.mu1_values - b.mu0_values).max()) <= 1e-12


def test_poisson_harmonic_reproduction():
    for theta in (0.3, 0.62):
        pair = strip_poisson(theta)
        for k in (0, 1, 2):
            got = pair.integrate(lambda t: np.real((1j * t) ** k),
                                 lambda t: np.real((1.0 + 1j * t) ** k))
            assert abs(got - theta ** k) <= 1e-6


def test_poisson_theta_guard():
    for theta in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(InvalidInput):
            strip_poisson(theta)


@pytest.mark.parametrize("theta", [1e-9, 1.0 - 1e-9])
def test_unrepresentable_strip_kernel_is_invalid_input(theta):
    # cos(pi theta) rounds to +-1, so a t = 0 denominator of mu0 or mu1 is 0.0
    with pytest.raises(InvalidInput, match="strip kernel"):
        strip_poisson(theta)
    with pytest.raises(InvalidInput, match="strip kernel"):
        scalar_interp_sandwich(two_region_f(), const(G, 2.0), const(G, 3.0), theta)


@pytest.mark.parametrize("theta", [1e-8, 0.999999])
def test_nearly_degenerate_strip_kernel_stays_a_solver_failure(theta):
    with pytest.raises(SolverFailure):
        strip_poisson(theta)


# ---------------------------------------------------------------- competitor


def test_family_reproduces_f_at_theta():
    p0 = build_exponent(G, "sine", base=2.2, amplitude=0.3, frequency=1)
    p1 = build_exponent(G, "plateau", left=3.0, right=2.0, width=0.5)
    fam = competitor_family(two_region_f(), p0, p1, 0.4)
    assert np.array_equal(fam.evaluate(0.4), fam.f_values())


def test_family_degenerate_is_z_independent():
    p = const(G, 2.5)
    fam = competitor_family(two_region_f(), p, p, 0.3)
    f = fam.f_values()
    for z in (0.0, 0.3, 1.0, 0.5 + 2.0j):
        assert np.array_equal(fam.evaluate(z), f)


def test_family_boundary_modulus_formula():
    p0 = build_exponent(G, "sine", base=2.2, amplitude=0.3, frequency=1)
    p1 = const(G, 3.0)
    theta = 0.4
    fam = competitor_family(two_region_f(), p0, p1, theta)
    for t in (0.0, 1.3):
        g0 = np.abs(fam.evaluate(1j * t))
        g1 = np.abs(fam.evaluate(1.0 + 1j * t))
        assert np.allclose(g0, fam.boundary_modulus(0), rtol=1e-12, atol=1e-300)
        assert np.allclose(g1, fam.boundary_modulus(1), rtol=1e-12, atol=1e-300)
    for val, mask in zip(fam.values, fam.masks):
        want = abs(val) ** (1.0 - theta * fam.w[mask])
        assert np.allclose(fam.boundary_modulus(0)[mask], want, rtol=1e-12)


def test_family_validation():
    p = const(G, 2.0)
    overlap = [(1.0, unit_region()), (2.0, (X >= 0.5) & (X < 1.5))]
    with pytest.raises(InvalidInput):
        competitor_family(overlap, p, p, 0.5)
    with pytest.raises(InvalidInput):
        competitor_family(GridFunction.zeros(G), p, p, 0.5)
    with pytest.raises(InvalidInput):
        competitor_family([(0.0, unit_region())], p, p, 0.5)
    with pytest.raises(InvalidInput):
        competitor_family(two_region_f(), p, p, 1.0)


# ------------------------------------------------------------------ modulars


def normalized_family(f, p0, p1, theta):
    fam0 = competitor_family(f, p0, p1, theta)
    norm = luxemburg_norm(np.abs(fam0.f_values()), fam0.p).value
    scaled = [(v / norm, m) for v, m in zip(fam0.values, fam0.masks)]
    return competitor_family(scaled, p0, p1, theta)


def test_boundary_modulars_constant_exponents():
    p = const(G, 2.0)
    fam = normalized_family(two_region_f(), p, p, 0.5)
    rho0, rho1 = boundary_modulars(fam)
    assert abs(rho0 - 1.0) <= 1e-9
    assert abs(rho1 - 1.0) <= 1e-9


def test_boundary_modulars_variable_exponents():
    p0 = build_exponent(G, "sine", base=2.2, amplitude=0.3, frequency=1)
    p1 = build_exponent(G, "plateau", left=3.0, right=2.0, width=0.5)
    fam = normalized_family(two_region_f(1.7, 0.23), p0, p1, 0.35)
    rho0, rho1 = boundary_modulars(fam)
    assert rho0 <= 1.0 + 1e-9 and rho1 <= 1.0 + 1e-9
    assert rho0 >= 1.0 - 1e-8 and rho1 >= 1.0 - 1e-8


def test_boundary_modulars_require_normalization():
    p = const(G, 2.0)
    fam = competitor_family(two_region_f(), p, p, 0.5)
    with pytest.raises(InvalidInput):
        boundary_modulars(fam)


# --------------------------------------------------------------- three lines


def test_three_lines_degenerate():
    p = const(G, 2.5)
    fam = competitor_family(two_region_f(), p, p, 0.4)
    for j, val in enumerate(fam.values):
        rhs = three_lines_bound(fam, j)
        assert abs(rhs - abs(val)) <= 1e-9 * abs(val)


def test_three_lines_lower_bounds_f():
    p0 = build_exponent(G, "sine", base=2.2, amplitude=0.3, frequency=1)
    p1 = const(G, 3.0)
    fam = normalized_family(two_region_f(1.7, 0.23), p0, p1, 0.35)
    for j, val in enumerate(fam.values):
        assert three_lines_bound(fam, j) >= abs(val) - 1e-8


def test_three_lines_homogeneity():
    p0 = build_exponent(G, "sine", base=2.2, amplitude=0.3, frequency=1)
    p1 = const(G, 3.0)
    f = two_region_f(1.7, 0.23)
    fam = competitor_family(f, p0, p1, 0.35)
    scaled = competitor_family([(3.7 * v, m) for v, m in f], p0, p1, 0.35)
    for j in range(len(fam.values)):
        a = three_lines_bound(fam, j)
        b = three_lines_bound(scaled, j)
        assert abs(b - 3.7 * a) <= 1e-9 * b


def test_three_lines_region_guard():
    p = const(G, 2.0)
    fam = competitor_family(two_region_f(), p, p, 0.5)
    with pytest.raises(InvalidInput):
        three_lines_bound(fam, 2)


# ------------------------------------------------------------------ sandwich


def test_sandwich_closed_form_case():
    # p0 = 2, p1 = 4, theta = 1/2 gives p = 8/3; the unit indicator already
    # has norm 1, so every certificate collapses to 1
    report = scalar_interp_sandwich([(1.0, unit_region())],
                                    const(G, 2.0), const(G, 4.0), 0.5)
    assert abs(report.norm - 1.0) <= 1e-9
    assert abs(report.upper_ratio - 1.0) <= 1e-9
    assert report.rho0 <= 1.0 + 1e-9 and report.rho1 <= 1.0 + 1e-9


@pytest.mark.parametrize("grid", [make_grid(1, 4.0, 256), make_grid(2, 1.0, 64)],
                         ids=["1d", "2d"])
def test_sandwich_region_slacks_equal_the_three_lines_bound(grid):
    # each slack is read off the sandwich's own three-lines field; it must be
    # the per-region bound three_lines_bound rebuilds from scratch, bit for bit
    p0 = build_exponent(grid, "sine", base=2.2, amplitude=0.3, frequency=1)
    p1 = build_exponent(grid, "plateau", left=3.0, right=2.0, width=0.5)
    for theta in (0.05, 0.35, 0.9):
        for seed in range(5):
            for f in simple_function_corpus(grid, 5, 4, seed):
                report = scalar_interp_sandwich(f, p0, p1, theta)
                # normalized as the sandwich does it, from the family's own values
                fam = competitor_family(f, p0, p1, theta)
                fam = competitor_family([(val / report.norm, mask)
                                         for val, mask in zip(fam.values, fam.masks)],
                                        p0, p1, theta)
                want = [three_lines_bound(fam, j) - abs(val) for j, val in enumerate(fam.values)]
                assert report.region_slacks == want


def test_sandwich_degenerate_exponents():
    p = const(G, 2.5)
    report = scalar_interp_sandwich(two_region_f(), p, p, 0.4)
    assert abs(report.upper_ratio - 1.0) <= 1e-7
    assert abs(report.lower_ratio - 1.0) <= 1e-7


def test_sandwich_brackets_one_and_is_refinement_stable():
    p0c = dict(base=2.2, amplitude=0.3, frequency=1)
    p1c = dict(left=3.0, right=2.0, width=0.5)
    rng = np.random.default_rng(5)
    widths = {}
    for N in (256, 512):
        grid = make_grid(1, 4.0, N)
        x = grid.coords()[0]
        p0 = build_exponent(grid, "sine", **p0c)
        p1 = build_exponent(grid, "plateau", **p1c)
        worst = 1.0
        for _ in range(6):
            vals = 10.0 ** rng.uniform(-1, 1, size=3)
            f = [(vals[0], (x >= 0) & (x < 1)),
                 (vals[1], (x >= 2) & (x < 2.5)),
                 (vals[2], (x >= 5) & (x < 6.5))]
            report = scalar_interp_sandwich(f, p0, p1, 0.35)
            for ratio in (report.upper_ratio, report.lower_ratio):
                assert ratio >= 1.0 - 1e-6
                worst = max(worst, ratio)
            assert all(s >= -1e-8 for s in report.region_slacks)
        widths[N] = worst
    assert widths[512] <= 2.0 * widths[256]
    assert widths[256] <= 2.0 * widths[512]


# ---------------------------------------------------------------- inter-rest


def test_inter_rest_frame_bracket():
    bank = build_resolution_of_unity(G, 3)
    p = const(G, 2.0)
    for _ in range(3):
        f = band_limited(G, 1.0, RNG)
        rep = inter_rest_check(f, 0.0, 0.0, p, p, 2.0, 2.0, 0.5, bank)
        assert 1.0 - 1e-9 <= rep.ratio <= np.sqrt(2.0) + 1e-9


def test_inter_rest_theta_degenerate():
    bank = build_resolution_of_unity(G, 3)
    p = build_exponent(G, "sine", base=2.4, amplitude=0.3, frequency=1)
    f = band_limited(G, 8.0, RNG)
    ratios = [inter_rest_check(f, 0.3, 0.3, p, p, 2.0, 2.0, th, bank).ratio
              for th in (0.2, 0.5, 0.8)]
    for r in ratios[1:]:
        assert abs(r - ratios[0]) <= 1e-9 * ratios[0]


def test_inter_rest_corpus_bracket_stable():
    params = dict(alpha0=0.3, alpha1=-0.1, q0=2.0, q1=4.0, theta=0.4)
    tops = {}
    for N in (256, 512):
        grid = make_grid(1, 4.0, N)
        bank = build_resolution_of_unity(grid, 3)
        p0 = build_exponent(grid, "sine", base=2.2, amplitude=0.3, frequency=1)
        p1 = build_exponent(grid, "constant", value=3.0)
        rng = np.random.default_rng(9)
        ratios = []
        for _ in range(5):
            f = band_limited(grid, 2.0 ** 3, rng)
            rep = inter_rest_check(f, params["alpha0"], params["alpha1"], p0, p1,
                                   params["q0"], params["q1"], params["theta"], bank)
            ratios.append(rep.ratio)
            assert 0.25 <= rep.ratio <= 4.0
        tops[N] = max(ratios)
    assert tops[512] <= 2.0 * tops[256]
    assert tops[256] <= 2.0 * tops[512]


def test_inter_rest_guards():
    bank = build_resolution_of_unity(G, 3)
    p = const(G, 2.0)
    f = band_limited(G, 2.0, RNG)
    sine_q = build_exponent(G, "sine", base=2.0, amplitude=0.3, frequency=1)
    # a variable q is refused as by every entry that reads a constant one
    with pytest.raises(InvalidInput, match="constant q0"):
        inter_rest_check(f, 0.0, 0.0, p, p, sine_q, 2.0, 0.5, bank)
    with pytest.raises(UnsupportedParameters):
        inter_rest_check(f, 0.0, 0.0, p, p, 2.0, 2.0, 0.5,
                         build_dual_pair(build_admissible_pair(G, 3)))
    rep = inter_rest_check(GridFunction.zeros(G), 0.0, 0.0, p, p, 2.0, 2.0, 0.5, bank)
    assert rep.ratio == 1.0 and rep.direct == 0.0


def test_competitor_family_beyond_float_range_is_typed():
    # |g(x, it)| = (1e300)^(1 - theta w) with w = p/p1 - p/p0 < 0 overflows;
    # three_lines_bound used to return the inf, and evaluate an inf g
    f = [(1e300, (X >= 0.0) & (X < 1.0)), (1e-300, (X >= 1.0) & (X < 2.0))]
    fam = competitor_family(f, const(G, 1.01), const(G, 60.0), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvalidInput, match="exceeds the float range"):
            fam.boundary_modulus(0)
        with pytest.raises(InvalidInput, match="exceeds the float range"):
            three_lines_bound(fam, 0)
        with pytest.raises(InvalidInput, match="exceeds the float range"):
            fam.evaluate(0.0)
