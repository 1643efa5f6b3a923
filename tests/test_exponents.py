"""Exponent recipes, regularity constants, conjugation, interpolation."""

import math

import numpy as np
import pytest

from vexint.errors import (
    ConjugateUndefined,
    InvalidConfiguration,
    InvalidExponent,
    InvalidInput,
)
from vexint.exponents import (
    ExponentField,
    build_exponent,
    conjugate,
    interpolate_exponents,
    log_holder_constants,
)
from vexint.exponents import SAMPLE_OFFSETS, _distinct_offsets, _offsets, _scan
from vexint.grid import enumerate_cubes, cube_mask, make_grid
from vexint.lebesgue import luxemburg_norm


def brute_force_c_loc(field):
    """All-pairs regularity constant, O(N^2) double loop (oracle)."""
    g = field.grid
    vals = field.values.ravel()
    if g.n == 1:
        pts = g.axis
        best = 0.0
        for i in range(g.N):
            d = np.abs(pts - pts[i])
            d = np.minimum(d, 2 * g.L - d)
            w = np.where(d > 0, np.log(math.e + 1.0 / np.where(d > 0, d, 1.0)), 0.0)
            best = max(best, float(np.max(np.abs(vals - vals[i]) * w)))
        return best
    xs = [c.ravel() for c in g.coords()]
    best = 0.0
    for i in range(vals.size):
        d2 = np.zeros(vals.size)
        for c in xs:
            dd = np.abs(c - c[i])
            dd = np.minimum(dd, 2 * g.L - dd)
            d2 += dd * dd
        d = np.sqrt(d2)
        w = np.where(d > 0, np.log(math.e + 1.0 / np.where(d > 0, d, 1.0)), 0.0)
        best = max(best, float(np.max(np.abs(vals - vals[i]) * w)))
    return best


def test_recipe_ranges():
    g = make_grid(1, 4, 256)
    c = build_exponent(g, "constant", value=2.0)
    assert c.min == c.max == 2.0
    s = build_exponent(g, "sine", base=3.0, amplitude=0.5, frequency=1.0)
    assert s.min == pytest.approx(2.5, abs=1e-12)
    assert s.max == pytest.approx(3.5, abs=1e-12)
    with pytest.raises(InvalidExponent):
        build_exponent(g, "sine", base=1.2, amplitude=0.5, frequency=1.0)


@pytest.mark.parametrize("recipe, params, missing", [
    ("constant", {}, "value"),
    ("sine", {"base": 2.0}, "amplitude"),
    # the id names the recipe's shape, a plateau with linear ramps
    pytest.param("plateau", {"right": 3.0}, "left, width", id="plateau-ramp-params2-left, width"),
])
def test_recipe_without_a_parameter_is_invalid_exponent(recipe, params, missing):
    # it used to escape as a KeyError
    with pytest.raises(InvalidExponent, match=f"^recipe '{recipe}' needs {missing}$"):
        build_exponent(make_grid(1, 4, 256), recipe, **params)


@pytest.mark.parametrize("recipe, params, unread", [
    ("constant", {"value": 2.0, "amplitude": 0.5, "width": 9.0}, "amplitude, width"),
    ("sine", {"base": 2.0, "amplitude": 0.5, "value": 3.0}, "value"),
    ("plateau", {"left": 2.0, "right": 3.0, "width": 1.0, "frequency": 2}, "frequency"),
])
def test_recipe_refuses_a_parameter_it_does_not_read(recipe, params, unread):
    # it used to be dropped: the constant case returned the constant 2.0
    with pytest.raises(InvalidExponent, match=f"^recipe '{recipe}' does not read {unread}$"):
        build_exponent(make_grid(1, 4, 256), recipe, **params)


@pytest.mark.parametrize("recipe, params, key", [
    ("constant", {"value": 10 ** 400}, "value"),
    ("sine", {"base": 2.0, "amplitude": -10 ** 400}, "amplitude"),
    ("plateau", {"left": 2.0, "right": 3.0, "width": 1e400}, "width"),
])
def test_recipe_number_beyond_float_range_is_invalid_exponent(recipe, params, key):
    # a JSON integer of 401 digits used to escape float() as an OverflowError
    with pytest.raises(InvalidExponent,
                       match=f"^recipe '{recipe}' parameter {key} lies outside the float range$"):
        build_exponent(make_grid(1, 4, 256), recipe, **params)


def test_sine_frequency_defaults_to_one_period():
    g = make_grid(1, 4, 256)
    default = build_exponent(g, "sine", base=2.0, amplitude=0.5)
    assert np.array_equal(default.values,
                          build_exponent(g, "sine", base=2.0, amplitude=0.5, frequency=1).values)


@pytest.mark.parametrize("recipe", ["sine-perturbation", "plateau-ramp", "constant-ramp"])
def test_recipe_names_are_exact(recipe):
    # one spelling per recipe: a suffixed name is an unknown recipe
    with pytest.raises(InvalidExponent, match=f"^unknown recipe '{recipe}'$"):
        build_exponent(make_grid(1, 4, 256), recipe, value=2.0, base=3.0, amplitude=0.5,
                       left=2.0, right=3.0, width=1.0)


def test_plateau_shape():
    g = make_grid(1, 4, 256)
    f = build_exponent(g, "plateau", left=2.0, right=3.0, width=1.0)
    x = g.axis
    assert np.all(f.values[x <= 1.5] == 2.0)       # boundary belt
    mid = (x >= 2.5) & (x <= 5.5)
    assert np.all(f.values[mid] == 3.0)            # middle plateau
    assert f.g_inf == 2.0


def test_smoothness_role_allows_negative_values():
    g = make_grid(1, 4, 256)
    a = build_exponent(g, "sine", base=0.0, amplitude=1.0, frequency=1.0, role="smoothness")
    assert a.min < 0 < a.max
    with pytest.raises(InvalidExponent):
        build_exponent(g, "sine", base=0.0, amplitude=1.0, frequency=1.0)


def test_constant_field_has_zero_constants():
    g = make_grid(1, 4, 256)
    rep = log_holder_constants(build_exponent(g, "constant", value=2.0))
    assert rep.c_loc == 0.0
    assert rep.c_dec == 0.0
    assert rep.exhaustive


def test_c_loc_matches_brute_force_oracle():
    # oracle: O(N^2) all-pairs loop; the implementation scans offsets instead
    g = make_grid(1, 1, 64)
    for recipe, params in [
        ("sine", dict(base=3.0, amplitude=0.5, frequency=1.0)),
        ("plateau", dict(left=2.0, right=3.0, width=0.5)),
    ]:
        f = build_exponent(g, recipe, **params)
        assert log_holder_constants(f).c_loc == pytest.approx(brute_force_c_loc(f), rel=1e-12)


def test_c_loc_matches_brute_force_oracle_2d():
    g = make_grid(2, 2, 16)  # 256 points, oracle loop stays cheap
    f = ExponentField(g, 2.0 + 0.3 * np.sin(2 * np.pi * g.coords()[0] / 4.0)
                      * np.cos(2 * np.pi * g.coords()[1] / 4.0), 1.7, 2.3, "integrability")
    assert log_holder_constants(f).c_loc == pytest.approx(brute_force_c_loc(f), rel=1e-12)


def test_c_loc_grows_as_ramp_sharpens():
    g = make_grid(1, 4, 512)
    cs = [
        log_holder_constants(build_exponent(g, "plateau", left=2.0, right=3.0, width=w)).c_loc
        for w in (2.0, 1.0, 0.5, 0.25)
    ]
    assert all(a < b for a, b in zip(cs, cs[1:]))


def test_c_loc_deterministic_across_reruns():
    g = make_grid(1, 4, 512)
    a = log_holder_constants(build_exponent(g, "sine", base=3.0, amplitude=0.5, frequency=1.0))
    b = log_holder_constants(build_exponent(g, "sine", base=3.0, amplitude=0.5, frequency=1.0))
    assert a.c_loc == b.c_loc
    assert a.c_loc > 0.0


def test_sampled_estimator_stays_below_exhaustive():
    # the sampled path sees a subset of offsets, so it can only undershoot
    g = make_grid(1, 4, 512)
    f = build_exponent(g, "sine", base=3.0, amplitude=0.5, frequency=2.0)
    exact = log_holder_constants(f).c_loc
    k, d = _offsets(g, SAMPLE_OFFSETS)
    distinct, where = _distinct_offsets(k, g.N)
    M = _scan(f, distinct)[where]
    count = M.size - 1
    sampled = max(m * math.log(math.e + 1.0 / dist) for m, dist in zip(M[1:], d[1:]))
    assert count > 0
    assert sampled <= exact + 1e-12
    assert sampled >= 0.5 * exact  # stratified bands should land near the max


def test_decay_constant_uses_center_distance():
    g = make_grid(1, 4, 256)
    f = build_exponent(g, "plateau", left=2.0, right=3.0, width=1.0)
    rep = log_holder_constants(f)
    # the deviation |g - g_inf| = 1 occurs on the middle plateau, whose far
    # edge sits at distance 1.5 from the center
    assert rep.c_dec == pytest.approx(math.log(math.e + 1.5), rel=1e-12)


def test_conjugate_examples_and_involution():
    g = make_grid(1, 4, 256)
    assert np.all(conjugate(build_exponent(g, "constant", value=2.0)).values == 2.0)
    assert conjugate(build_exponent(g, "constant", value=4.0)).values[0] == pytest.approx(4.0 / 3.0)
    p = build_exponent(g, "sine", base=3.0, amplitude=0.5, frequency=1.0)
    pdd = conjugate(conjugate(p))
    assert np.allclose(pdd.values, p.values, rtol=1e-14, atol=0)
    touches_one = build_exponent(g, "sine", base=2.0, amplitude=1.0, frequency=1.0)
    with pytest.raises(ConjugateUndefined):
        conjugate(touches_one)


def test_interpolation_examples():
    g = make_grid(1, 4, 256)
    p0 = build_exponent(g, "constant", value=2.0)
    p1 = build_exponent(g, "constant", value=4.0)
    mid = interpolate_exponents(p0, p1, 0.5)
    assert np.allclose(mid.values, 8.0 / 3.0, rtol=1e-14)
    p3 = build_exponent(g, "constant", value=3.0)
    for theta in (0.1, 0.5, 0.9):
        same = interpolate_exponents(p3, p3, theta)
        assert np.array_equal(same.values, p3.values)
    a = build_exponent(g, "sine", base=0.5, amplitude=0.25, frequency=1.0, role="smoothness")
    same_a = interpolate_exponents(a, a, 0.3)
    assert np.allclose(same_a.values, a.values, rtol=1e-15)
    # the role picks the rule: the same endpoint values interpolate affinely as smoothness
    a0, a1 = (build_exponent(g, "constant", value=v, role="smoothness") for v in (2.0, 4.0))
    mid_a = interpolate_exponents(a0, a1, 0.5)
    assert np.array_equal(mid_a.values, np.full(g.shape, 3.0)) and mid_a.role == "smoothness"


def test_interpolation_rejects_mismatches():
    g = make_grid(1, 4, 256)
    g2 = make_grid(1, 4, 512)
    p = build_exponent(g, "constant", value=2.0)
    with pytest.raises(InvalidInput, match="different grids"):
        interpolate_exponents(p, build_exponent(g2, "constant", value=2.0), 0.5)
    a = build_exponent(g, "constant", value=0.5, role="smoothness")
    with pytest.raises(InvalidInput):
        interpolate_exponents(p, a, 0.5)
    with pytest.raises(InvalidExponent):
        build_exponent(g, "constant", value=math.inf)


def test_unbounded_interpolation_proxy_rejected():
    g = make_grid(1, 4, 256)
    with pytest.raises(InvalidExponent):
        build_exponent(g, "constant", value=1e308 * 10)  # overflows to inf


# -- character-function norm brackets (computed via the lebesgue module) ----


def _char_product_bracket(grid, p, levels):
    lo, hi = math.inf, 0.0
    pc = conjugate(p)
    for v in levels:
        for cube in enumerate_cubes(grid, v)[:: max(1, grid.cubes_per_axis(v) // 4)]:
            chi = cube_mask(grid, cube).astype(float)
            prod = luxemburg_norm(chi, p).value * luxemburg_norm(chi, pc).value
            ratio = prod / cube.measure()
            lo, hi = min(lo, ratio), max(hi, ratio)
    return lo, hi


def test_char_function_product_bracket_stable():
    # |B|-normalized product of the indicator norms stays in a bracket that
    # survives one grid refinement within a factor 2
    p_params = dict(base=2.5, amplitude=0.5, frequency=1.0)
    g1 = make_grid(1, 4, 256)
    g2 = make_grid(1, 4, 512)
    b1 = _char_product_bracket(g1, build_exponent(g1, "sine", **p_params), range(4))
    b2 = _char_product_bracket(g2, build_exponent(g2, "sine", **p_params), range(4))
    # modular Holder puts the ratio in [1/2, 2]; the observed bracket must
    # also survive one refinement within a factor 2
    assert 0.5 - 1e-9 <= b1[0] <= b1[1] <= 2.0 + 1e-9
    assert b2[1] <= 2.0 * b1[1] and b1[1] <= 2.0 * b2[1]
    assert b2[0] >= b1[0] / 2.0 and b1[0] >= b2[0] / 2.0


def test_char_function_pointwise_scaling_bracket():
    g = make_grid(1, 4, 256)
    p = build_exponent(g, "plateau", left=2.0, right=3.0, width=1.0)
    lo, hi = math.inf, 0.0
    for v in range(2, 4):  # small cubes
        for cube in enumerate_cubes(g, v):
            chi = cube_mask(g, cube).astype(float)
            nrm = luxemburg_norm(chi, p).value
            pv = p.values[cube_mask(g, cube)]
            ratios = nrm / cube.measure() ** (1.0 / pv)
            lo = min(lo, float(ratios.min()))
            hi = max(hi, float(ratios.max()))
    assert 0.5 <= lo <= hi <= 2.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("role, params", [
    # 2 pi frequency overflows: two RuntimeWarnings used to come first
    ("integrability", dict(base=2.0, amplitude=0.1, frequency=1e308)),
    # the add base + amplitude sin overflows
    ("smoothness", dict(base=1e308, amplitude=1e308)),
])
def test_sine_beyond_float_range_is_invalid_exponent(role, params):
    g = make_grid(1, 4.0, 256)
    with pytest.raises(InvalidExponent, match="recipe 'sine' field .* exceeds the float range"):
        build_exponent(g, "sine", role=role, **params)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n, L, N", [(1, 4.0, 256), (2, 1.0, 32)])
def test_oscillation_beyond_float_range_is_typed(n, L, N):
    # max - min = 2e308: c_loc used to be inf, after a RuntimeWarning of the offset scan
    field = build_exponent(make_grid(n, L, N), "sine", base=0.0, amplitude=1e308,
                           role="smoothness")
    with pytest.raises(InvalidInput, match="oscillation max - min, times a log weight, "
                                           "exceeds the float range"):
        log_holder_constants(field)
