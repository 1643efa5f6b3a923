"""The public callables outside the level families: a finite result or a typed error.

Every public entry of `kernels`, `interp`, `lebesgue` and `corpus`, the
exponent recipes, `log_holder_constants` and `interpolate_exponents` returns
a result whose every number is finite, or raises a VexintError; numpy's
RuntimeWarning is an error here, and a PreconditionWarning is allowed.  The
draws reach levels up to 2000, decay exponents in (0, inf], exponents near 1
and up to 60, magnitudes from 1e-300 to 1e300 (and the float-range edge
1e308), theta near both ends, zero inputs and both grid dimensions.  Counts
and item numbers stay small: a large draw allocates that much.
"""

import dataclasses
import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vexint import corpus, interp, kernels, lebesgue
from vexint.errors import PreconditionWarning, VexintError
from vexint.exponents import build_exponent, conjugate, interpolate_exponents, \
    log_holder_constants
from vexint.grid import GridFunction, make_grid
from vexint.lpf import build_resolution_of_unity

GRIDS = {1: make_grid(1, 4.0, 256), 2: make_grid(2, 1.0, 32)}
BANKS = {n: build_resolution_of_unity(g, g.v_max) for n, g in GRIDS.items()}

grids = st.sampled_from([1, 2]).map(GRIDS.get)
levels = st.integers(0, 3) | st.sampled_from([1023, 1024, 2000]) | st.integers(0, 2000)
decays = st.sampled_from([1e-300, 0.5, 1.0, 2.0, 3.0, 60.0, 1e300, math.inf]) | st.floats(
    0.0, math.inf, exclude_min=True)
ps = st.sampled_from([1.0, 1.0 + 1e-15, 1.0 + 1e-9, 1.01, 2.0, 60.0]) | st.floats(1.0, 60.0)
magnitudes = st.sampled_from([0.0, 1e-300, 1.0, 1e300]) | st.floats(-300.0, 300.0).map(
    lambda e: 10.0 ** e)
edges = magnitudes | st.just(1e308)
thetas = st.sampled_from([1e-12, 1e-9, 1e-3, 0.5, 1.0 - 1e-3, 1.0 - 1e-9, 1.0 - 1e-12]) | st.floats(
    0.0, 1.0, exclude_min=True, exclude_max=True)
# counts, item numbers and seeds: small, with the negative probe value
counts = st.integers(-1, 4)
seeds = st.sampled_from([-1, 0, 7])
radii = st.sampled_from([math.inf, math.nan, 1e300, -1.0, 0.0, 2.0, 8.0])
half_lengths = st.sampled_from([0.0, 0.5, 4.0])


@st.composite
def recipes(draw, grid, role="integrability", wild=False):
    """A recipe and its parameters: integrability fields take values in [1, 60],
    smoothness fields any magnitude, and a wild draw also the float-range edge."""
    recipe = draw(st.sampled_from(["constant", "sine", "plateau"]))
    frequency = draw(st.sampled_from([1, 3, 10 ** 308] if wild else [1, 3]))
    signed = (edges if wild else magnitudes).flatmap(
        lambda m: st.sampled_from([m, -m]))
    if role == "integrability":
        a, b = draw(ps), draw(ps)
        params = {"constant": {"value": a},
                  "sine": {"base": (a + b) / 2, "amplitude": (b - a) / 2,
                           "frequency": frequency},
                  "plateau": {"left": a, "right": b, "width": grid.L / 4}}[recipe]
    else:
        params = {"constant": {"value": draw(signed)},
                  "sine": {"base": draw(signed), "amplitude": draw(signed),
                           "frequency": frequency},
                  "plateau": {"left": draw(signed), "right": draw(signed),
                              "width": grid.L / draw(st.sampled_from([1, 4, 2 ** 40]))}}[recipe]
    return {"recipe": recipe, "role": role, **params}


def functions(grid):
    """Zero, a spike, or a cosine, at a drawn magnitude."""
    return st.tuples(st.sampled_from(["zero", "spike", "cos"]), edges).map(
        lambda c: GridFunction(grid, {"zero": np.zeros(grid.shape),
                                      "spike": np.eye(1, grid.size, 5).reshape(grid.shape),
                                      "cos": np.cos(np.pi * grid.coords()[0] / grid.L)}[c[0]]
                               * c[1]))


@st.composite
def simple(draw, grid):
    """A simple function: values on the first-axis slabs of a few cuts."""
    cuts = sorted(draw(st.sets(st.integers(1, grid.N - 1), max_size=3)))
    bounds = [0, *cuts, grid.N]
    axis = grid.coords()[0] / grid.h
    return [(draw(magnitudes) * draw(st.sampled_from([1, -1, 1j])), (axis >= lo) & (axis < hi))
            for lo, hi in zip(bounds, bounds[1:])]


def _call(draw, grid):
    """One public callable, by name, and a thunk calling it on drawn arguments.
    The exponent fields are built first, so a recipe error ends the example typed."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    p0, p1 = (build_exponent(grid, **draw(recipes(grid))) for _ in range(2))
    a0, a1 = (build_exponent(grid, **draw(recipes(grid, "smoothness"))) for _ in range(2))
    f, g = draw(functions(grid)), draw(functions(grid))
    theta, m_exp, v = draw(thetas), draw(decays), draw(levels)
    vs = draw(st.lists(levels, min_size=1, max_size=3) | st.just([]))
    n, L, radius = grid.n, draw(half_lengths), draw(radii)
    modes = draw(st.dictionaries(
        st.sampled_from([(1,), (2,), (1, 1), (1.5,), ("a",), (200,)]), magnitudes, max_size=3))
    s = draw(simple(grid))
    # norm + sup <= 1, as the Jensen check requires
    small = GridFunction(grid, f.values / max(1.0, (1.0 + grid.size * grid.h ** grid.n)
                                              * float(np.abs(f.values).max())))
    def fam(normalized=False):
        family = interp.competitor_family(s, p0, p1, theta)
        if not normalized:
            return family
        norm = lebesgue.luxemburg_norm(np.abs(family.f_values()), family.p).value
        return interp.competitor_family([(val / norm, mask) for val, mask in s], p0, p1, theta)
    calls = {
        "random_coefficients": lambda: corpus.random_coefficients(grid, v, draw(counts), rng),
        "coefficient_corpus": lambda: corpus.coefficient_corpus(
            grid, draw(st.integers(0, 3)), draw(counts), draw(counts), draw(seeds)),
        "random_modes": lambda: corpus.random_modes(n, L, radius, draw(counts), rng),
        "mode_corpus": lambda: corpus.mode_corpus(n, L, radius, draw(counts), draw(counts),
                                                  draw(seeds)),
        "band_limited_corpus": lambda: corpus.band_limited_corpus(
            grid, radius, draw(counts), draw(counts), draw(seeds)),
        "trig_polynomial": lambda: corpus.trig_polynomial(grid, modes),
        "simple_function_corpus": lambda: corpus.simple_function_corpus(
            grid, draw(counts), draw(st.integers(0, 4)), draw(seeds)),
        "build_exponent": lambda: build_exponent(grid, **draw(recipes(grid, "smoothness", True))),
        "log_holder_constants": lambda: log_holder_constants(
            build_exponent(grid, **draw(recipes(grid, "smoothness", True)))),
        "interpolate_exponents": lambda: interpolate_exponents(a0, a1, theta),
        "interpolate_exponents-p": lambda: interpolate_exponents(p0, p1, theta),
        "conjugate": lambda: conjugate(p0),
        "modular": lambda: lebesgue.modular(f, p0),
        "modular_at": lambda: lebesgue.modular_at(f, p0, draw(magnitudes)),
        "luxemburg_norm": lambda: lebesgue.luxemburg_norm(f, p0),
        "mixed_norm": lambda: lebesgue.mixed_norm([f, g], p0, p1),
        "unit_ball_check": lambda: lebesgue.unit_ball_check(f, p0),
        "eta": lambda: kernels.eta(v, m_exp, grid),
        "convolve": lambda: kernels.convolve(f, kernels.eta(0, m_exp, grid)),
        "verify_alpha_shift": lambda: kernels.verify_alpha_shift(a0, m_exp, draw(magnitudes),
                                                                 vs),
        "verify_eta_maximal": lambda: kernels.verify_eta_maximal(p0, p1, m_exp, [[f, g]]),
        "verify_jensen_gamma": lambda: kernels.verify_jensen_gamma(
            p0, m_exp, small, vs, draw(st.none() | st.floats(0.0, 1.0, exclude_min=True)
                                       | st.sampled_from([0.0, math.nan, math.inf, 2.0]))),
        "strip_poisson": lambda: interp.strip_poisson(theta),
        "competitor_family": fam,
        "boundary_modulars": lambda: interp.boundary_modulars(fam(normalized=True)),
        "three_lines_bound": lambda: interp.three_lines_bound(fam(), 0),
        "scalar_interp_sandwich": lambda: interp.scalar_interp_sandwich(s, p0, p1, theta),
        "inter_rest_check": lambda: interp.inter_rest_check(
            f, draw(magnitudes), -draw(magnitudes), p0, p1, draw(ps), draw(ps), theta, BANKS[n]),
    }
    name = draw(st.sampled_from(sorted(calls)))
    return name, calls[name]


def _numbers_finite(x, depth=0) -> bool:
    """Whether every number reachable from x, through containers, arrays and
    dataclass or object fields, is finite."""
    if depth > 6 or x is None or isinstance(x, (str, bool, np.random.Generator)):
        return True
    if isinstance(x, (int, np.integer)):
        return True
    if isinstance(x, (float, complex, np.floating, np.complexfloating)):
        return bool(np.isfinite(x))
    if isinstance(x, np.ndarray):
        return x.dtype.kind not in "fc" or bool(np.isfinite(x).all())
    if isinstance(x, dict):
        return all(_numbers_finite(k, depth + 1) and _numbers_finite(val, depth + 1)
                   for k, val in x.items())
    if isinstance(x, (list, tuple)):
        return all(_numbers_finite(item, depth + 1) for item in x)
    if dataclasses.is_dataclass(x) or hasattr(x, "__dict__"):
        return all(_numbers_finite(val, depth + 1) for val in vars(x).values())
    return True


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_public_callables_are_finite_or_typed(data):
    grid = data.draw(grids)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", PreconditionWarning)
        try:
            name, call = _call(data.draw, grid)
            result = call()
        except VexintError:
            return
    assert _numbers_finite(result), (name, result)
