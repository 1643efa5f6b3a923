"""Sequence-space norms: closed-form oracles, exhaustive subset enumeration,
and lattice/homogeneity/scaling invariants."""

import itertools
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexint.corpus import coefficient_corpus
from vexint.errors import (
    InvalidConfiguration,
    InvalidInput,
    InvalidSelection,
    ResolutionExceeded,
)
from vexint.exponents import build_exponent
from vexint.grid import cube_cells, cube_mask, enumerate_cubes, make_grid
from vexint.seqspaces import (
    DyadicCoefficients,
    SubsetSelection,
    _coefficient_levels,
    _level_sum,
    _pow_each,
    coefficient_bound_check,
    f_infty_norm,
    f_infty_subset_norm,
    f_norm,
    full_selection,
    greedy_selection,
    level_function,
    prop1_equivalence_check,
)

G = make_grid(1, 4, 256)  # v_max = 3, h = 1/32


def const_fields(grid, alpha=0.0, p=2.0, q=2.0):
    a = build_exponent(grid, "constant", value=alpha, role="smoothness")
    pf = build_exponent(grid, "constant", value=p)
    qf = build_exponent(grid, "constant", value=q)
    return a, pf, qf


def single(grid, v, m, val=1.0, V=None):
    return DyadicCoefficients(grid, grid.v_max if V is None else V, {(v, m): val})


def random_coeffs(grid, rng, count, V=None):
    V = grid.v_max if V is None else V
    data = {}
    for _ in range(count):
        v = int(rng.integers(0, V + 1))
        top = grid.cubes_per_axis(v)
        m = tuple(int(rng.integers(0, top)) for _ in range(grid.n))
        mag = 10.0 ** rng.uniform(-3, 3)
        phase = rng.uniform(0, 2 * math.pi)
        data[(v, m)] = mag * complex(math.cos(phase), math.sin(phase))
    return DyadicCoefficients(grid, V, data)


# -- independent oracles ---------------------------------------------------


def constant_exponent_f_norm(lam, alpha, p):
    """Closed form for constant alpha and p = q: a single p-sum over cubes."""
    n = lam.grid.n
    total = sum(
        (2.0 ** (v * (alpha + 0.5 * n)) * abs(val)) ** p * 2.0 ** (-v * n)
        for (v, _m), val in lam.items()
    )
    return total ** (1.0 / p)


def direct_f_infty(lam, alpha, q):
    """Literal cube scan: every dyadic cube of side <= 1, tails summed per cube."""
    grid = lam.grid
    n = grid.n
    hn = grid.h ** n
    best = 0.0
    for w in range(grid.v_max + 1):
        for cube in enumerate_cubes(grid, w):
            sl = grid.cube_slices(cube)
            tot = 0.0
            for (v, m), val in lam.items():
                if v < w:
                    continue
                inside = cube_mask(grid, grid.cube(v, m))[sl]
                weight = 2.0 ** (v * q * (alpha.values[sl] + 0.5 * n))
                tot += float((weight * inside).sum()) * hn * abs(val) ** q
            if tot > 0.0:
                best = max(best, cube.measure() ** (-1.0 / q) * tot ** (1.0 / q))
    return best


def admissible_masks(cells):
    """Every cell subset keeping strictly more than half of the cube."""
    out = []
    for k in range(cells // 2 + 1, cells + 1):
        for combo in itertools.combinations(range(cells), k):
            mask = np.zeros(cells, dtype=bool)
            mask[list(combo)] = True
            out.append(mask)
    return out


# -- f_norm ------------------------------------------------------------------


def test_unit_cube_indicator_norm_is_one():
    a, p, q = const_fields(G)
    lam = single(G, 0, 0, 1.0)
    assert f_norm(lam, a, p, q).value == pytest.approx(1.0, rel=1e-10)


def test_single_coefficient_closed_form_all_levels():
    a, p, q = const_fields(G, alpha=0.3, p=2.5, q=2.5)
    for j in range(G.v_max + 1):
        lam = single(G, j, 2 * j + 1, val=1.7j)
        want = 1.7 * 2.0 ** (j * (0.3 + 0.5 - 1.0 / 2.5))
        assert f_norm(lam, a, p, q).value == pytest.approx(want, rel=1e-9)


def test_single_coefficient_closed_form_2d():
    g2 = make_grid(2, 2, 64)
    a, p, q = const_fields(g2, alpha=-0.4, p=3.0, q=1.5)
    lam = single(g2, 2, (5, 1), val=0.25)
    want = 0.25 * 2.0 ** (2 * (-0.4 + 1.0 - 2.0 / 3.0))
    assert f_norm(lam, a, p, q).value == pytest.approx(want, rel=1e-9)


def test_zero_coefficients_norm_zero():
    a, p, q = const_fields(G)
    lam = DyadicCoefficients(G, 2, {})
    assert f_norm(lam, a, p, q).value == 0.0
    assert f_infty_norm(lam, a, 2.0) == 0.0


def test_multi_coefficient_constant_exponent_oracle():
    rng = np.random.default_rng(7)
    a, p, q = const_fields(G, alpha=0.2, p=2.5, q=2.5)
    for _ in range(20):
        lam = random_coeffs(G, rng, 30)
        want = constant_exponent_f_norm(lam, 0.2, 2.5)
        assert f_norm(lam, a, p, q).value == pytest.approx(want, rel=1e-8)


def test_level_function_matches_definition():
    a = build_exponent(G, "sine", base=0.5, amplitude=0.25, role="smoothness")
    lam = DyadicCoefficients(G, 2, {(2, 3): 2.0 - 1.0j, (2, 9): 0.5, (1, 0): 9.0})
    F2 = level_function(lam, a, 2)
    sl = G.cube_slices(G.cube(2, 3))
    want = abs(2.0 - 1.0j) * 2.0 ** (2 * (a.values[sl] + 0.5))
    assert np.allclose(F2.values[sl], want, rtol=1e-12)
    outside = np.ones(G.shape, dtype=bool)
    outside[sl] = False
    outside[G.cube_slices(G.cube(2, 9))] = False
    assert np.all(F2.values[outside] == 0.0)


def test_scaling_law_level_shift():
    # same corner at the next level multiplies the norm by 2^{alpha + n/2 - n/p}
    for alpha, pq in [(0.0, 2.0), (0.7, 3.0), (-0.3, 1.5)]:
        a, p, q = const_fields(G, alpha=alpha, p=pq, q=pq)
        for j in range(G.v_max):
            lo = f_norm(single(G, j, 3), a, p, q).value
            hi = f_norm(single(G, j + 1, 6), a, p, q).value
            assert hi / lo == pytest.approx(2.0 ** (alpha + 0.5 - 1.0 / pq), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6,
                          allow_nan=False, allow_infinity=False))
def test_homogeneity(c):
    a, p, q = const_fields(G, alpha=0.1, p=2.2, q=3.1)
    lam = DyadicCoefficients(G, 3, {(0, 1): 1.0, (2, 5): -0.5j, (3, 17): 0.25})
    base = f_norm(lam, a, p, q).value
    assert f_norm(lam.scaled(c), a, p, q).value == pytest.approx(abs(c) * base, rel=1e-9)


def test_homogeneity_variable_exponents():
    rng = np.random.default_rng(21)
    a = build_exponent(G, "sine", base=0.2, amplitude=0.3, role="smoothness")
    p = build_exponent(G, "plateau", left=1.5, right=3.0, width=1.0)
    q = build_exponent(G, "sine", base=2.0, amplitude=0.5)
    lam = random_coeffs(G, rng, 25)
    base = f_norm(lam, a, p, q).value
    for c in [0.003, 7.0, 1e4]:
        assert f_norm(lam.scaled(c), a, p, q).value == pytest.approx(c * base, rel=1e-9)


def test_lattice_monotonicity():
    rng = np.random.default_rng(3)
    a = build_exponent(G, "sine", base=0.0, amplitude=0.4, role="smoothness")
    p = build_exponent(G, "plateau", left=2.0, right=4.0, width=1.0)
    q = build_exponent(G, "constant", value=2.0)
    for _ in range(10):
        lam = random_coeffs(G, rng, 20)
        shrunk = DyadicCoefficients(
            G, lam.V, {k: val * rng.uniform(0.0, 1.0) for k, val in lam.items()}
        )
        # bisection tolerance is the only allowed slack
        assert f_norm(shrunk, a, p, q).value <= f_norm(lam, a, p, q).value * (1 + 2e-10)


# -- f_infty_norm -------------------------------------------------------------


def test_f_infty_single_coefficient_all_levels_and_recipes():
    for alpha in [0.0, 0.7, -0.4]:
        a = build_exponent(G, "constant", value=alpha, role="smoothness")
        for v in range(G.v_max + 1):
            for qc in [1.0, 2.0, 3.5]:
                lam = single(G, v, 5, val=2.0 - 2.0j)
                want = 2.0 ** (v * (alpha + 0.5)) * abs(2.0 - 2.0j)
                assert f_infty_norm(lam, a, qc) == pytest.approx(want, rel=1e-9)


def test_f_infty_two_equal_coefficients_match_single():
    a = build_exponent(G, "constant", value=0.3, role="smoothness")
    one = f_infty_norm(single(G, 2, 4, val=1.5), a, 2.0)
    two = f_infty_norm(DyadicCoefficients(G, 3, {(2, 4): 1.5, (2, 11): 1.5}), a, 2.0)
    assert two == pytest.approx(one, rel=1e-12)


def test_f_infty_matches_cube_scan_oracle():
    small = make_grid(1, 2, 64)  # v_max = 2, 28 candidate cubes
    rng = np.random.default_rng(11)
    a = build_exponent(small, "sine", base=0.1, amplitude=0.5, role="smoothness")
    for _ in range(15):
        lam = random_coeffs(small, rng, 6)
        for qc in [1.0, 1.7, 3.0]:
            assert f_infty_norm(lam, a, qc) == pytest.approx(
                direct_f_infty(lam, a, qc), rel=1e-12)


def test_f_infty_nested_levels_oracle():
    small = make_grid(1, 2, 64)
    a = build_exponent(small, "constant", value=0.2, role="smoothness")
    # a level-0 cube with a large-magnitude level-2 child inside it
    lam = DyadicCoefficients(small, 2, {(0, 1): 0.01, (2, 4): 50.0})
    assert f_infty_norm(lam, a, 2.0) == pytest.approx(direct_f_infty(lam, a, 2.0), rel=1e-12)


def test_f_infty_homogeneity():
    rng = np.random.default_rng(5)
    a = build_exponent(G, "sine", base=0.0, amplitude=0.6, role="smoothness")
    lam = random_coeffs(G, rng, 12)
    base = f_infty_norm(lam, a, 2.0)
    assert f_infty_norm(lam.scaled(256.0), a, 2.0) == pytest.approx(256.0 * base, rel=1e-9)


def test_f_infty_rejects_variable_or_bad_q():
    a, _, _ = const_fields(G)
    lam = single(G, 1, 1)
    with pytest.raises(InvalidInput):
        f_infty_norm(lam, a, build_exponent(G, "sine", base=2.0, amplitude=0.5))
    with pytest.raises(InvalidInput):
        f_infty_norm(lam, a, 0.0)
    with pytest.raises(InvalidInput):
        f_infty_norm(lam, a, math.inf)


def test_coefficient_power_beyond_float_range_is_typed():
    # 1e3 ** 500 overflows the single-coefficient power
    a, _, _ = const_fields(G)
    lam = single(G, 1, 3, val=1e3)
    with pytest.raises(InvalidInput, match="exceeds the float range"):
        f_infty_norm(lam, a, 500.0)
    with pytest.raises(InvalidInput, match="exceeds the float range"):
        prop1_equivalence_check(lam, a, 500.0)
    # |lam|^91 is finite, its product with 2^{v q (alpha + n/2)} is not
    lam = coefficient_corpus(G, 3, 3, 50, 11)[0]
    a = build_exponent(G, "constant", value=0.2, role="smoothness")
    with pytest.raises(InvalidInput, match="exceeds the float range"):
        f_infty_norm(lam, a, 91.0)


def test_subset_routes_beyond_float_range_are_typed():
    # the same integrand on the subset routes: a typed error, never inf or a RuntimeWarning
    lam = coefficient_corpus(G, 3, 3, 50, 11)[0]
    a = build_exponent(G, "constant", value=0.2, role="smoothness")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvalidInput, match=r"exceeds the float range \(q=91.0\)"):
            f_infty_subset_norm(lam, a, 91.0, full_selection(lam))
        with pytest.raises(InvalidInput, match=r"exceeds the float range \(q=91.0\)"):
            greedy_selection(lam, a, 91.0)


def test_f_norm_level_function_beyond_float_range_is_typed():
    # the coefficients are finite, F_3 = 2^{3 (alpha + n/2)} |lam| is not: the
    # norm raises the typed error, for either p, and never returns inf
    a, p, q = const_fields(G)
    sine_p = build_exponent(G, "sine", base=2.0, amplitude=0.5)
    for val in (1e308, 1e308 + 1e308j):
        lam = DyadicCoefficients(G, 3, {(0, (1,)): 1.0, (3, (5,)): val})
        for pf in (p, sine_p):
            with pytest.raises(InvalidInput, match="exceeds the float range"):
                f_norm(lam, a, pf, q)


def test_level_function_weight_beyond_float_range_is_typed():
    # 2^{3 (400 + 1/2)} leaves the float range; it used to escape as numpy's
    # overflow RuntimeWarning and then fail on the non-finite grid function
    lam = DyadicCoefficients(G, 3, {(0, (1,)): 1.0, (3, (5,)): 2.0})
    a = build_exponent(G, "constant", value=400.0, role="smoothness")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvalidInput, match="exceeds the float range"):
            level_function(lam, a, 3)


def test_level_sum_beyond_float_range_is_typed():
    # both integrands are finite, their sum on the shared cells is not; the
    # sum runs inside the float-range guard, so it never comes back as inf
    g = make_grid(1, 1.0, 64)
    a = build_exponent(g, "constant", value=0.0, role="smoothness")
    lam = DyadicCoefficients(g, 1, {(0, 0): 1e308, (1, 0): 1e308})
    with pytest.raises(InvalidInput, match="or its sum exceeds the float range"):
        f_infty_subset_norm(lam, a, 1.0, full_selection(lam))


# -- coefficient bound --------------------------------------------------------


def test_coefficient_bound_single_equals_one():
    a, p, q = const_fields(G, alpha=0.4, p=2.5, q=2.5)
    for j in [0, 2, 3]:
        assert coefficient_bound_check(single(G, j, 1, val=3.0j), a, p, q) == pytest.approx(
            1.0, rel=1e-9)


def test_coefficient_bound_random_constant_exponents():
    rng = np.random.default_rng(13)
    a, p, q = const_fields(G, alpha=0.1, p=2.0, q=2.0)
    for _ in range(10):
        lam = random_coeffs(G, rng, 100)
        assert coefficient_bound_check(lam, a, p, q) <= 1.0 + 1e-9


def test_coefficient_bound_variable_refinement_stable():
    keys = [(0, 2), (1, 5), (2, 11), (3, 40), (2, 20)]
    vals = [1.0, -2.5, 0.5j, 4.0, 0.1 - 0.1j]
    ratios = []
    for N in [256, 512]:
        g = make_grid(1, 4, N)
        a = build_exponent(g, "sine", base=0.3, amplitude=0.2, role="smoothness")
        p = build_exponent(g, "plateau", left=2.0, right=3.0, width=1.0)
        q = build_exponent(g, "constant", value=2.0)
        lam = DyadicCoefficients(g, 3, dict(zip(keys, vals)))
        r = coefficient_bound_check(lam, a, p, q)
        assert math.isfinite(r)
        ratios.append(r)
    assert ratios[1] <= 2.0 * ratios[0]
    assert ratios[0] <= 2.0 * ratios[1]


def test_coefficient_bound_zero_norm_rejected():
    a, p, q = const_fields(G)
    with pytest.raises(InvalidInput):
        coefficient_bound_check(DyadicCoefficients(G, 2, {}), a, p, q)


# -- subset selections --------------------------------------------------------


def test_full_selection_single_coefficient_value():
    a = build_exponent(G, "constant", value=0.5, role="smoothness")
    lam = single(G, 2, 7, val=-3.0)
    sel = full_selection(lam)
    want = 2.0 ** (2 * (0.5 + 0.5)) * 3.0
    assert f_infty_subset_norm(lam, a, 2.0, sel) == pytest.approx(want, rel=1e-12)


def test_selection_measure_condition_enforced():
    lam = single(G, 2, 7)  # 8 cells per level-2 cube
    sel = full_selection(lam)
    bad = np.zeros(8, dtype=bool)
    bad[:4] = True  # exactly half: not strictly more
    ok = np.zeros(8, dtype=bool)
    ok[:5] = True
    levels = [a.copy() for a in sel.levels]
    assert int(levels[2][7].sum()) == 8
    levels[2][7] = bad
    with pytest.raises(InvalidSelection):
        SubsetSelection(G, levels)  # a cube selected at exactly half
    levels[2][7] = ok
    assert np.array_equal(SubsetSelection(G, levels).levels[2][7], ok)
    with pytest.raises(InvalidSelection):
        SubsetSelection(G, [*levels[:2], levels[2][:, :4]])  # wrong level shape
    with pytest.raises(InvalidSelection):
        SubsetSelection(G, [*levels[:2], levels[1]])  # level 2 in the level-1 shape
    finer = np.ones((G.cubes_per_axis(G.v_max + 1), G.cells_per_axis(G.v_max + 1)), dtype=bool)
    with pytest.raises(ResolutionExceeded):
        SubsetSelection(G, [*levels, finer])  # more levels than the grid's v_max allows
    g2 = make_grid(2, 1, 32)
    levels = [np.zeros((g2.cubes_per_axis(v),) * 2 + (g2.cells_per_axis(v) ** 2,), dtype=bool)
              for v in range(2)]
    with pytest.raises(InvalidSelection):
        SubsetSelection(g2, [levels[0], levels[1][..., :32]])  # 2D cell count
    half = np.zeros((8, 8), dtype=bool)
    half[:4] = True
    levels[1][2, 3] = half.ravel()
    with pytest.raises(InvalidSelection):
        SubsetSelection(g2, levels)
    half[4, 0] = True
    levels[1][2, 3] = half.ravel()
    assert np.array_equal(SubsetSelection(g2, levels).levels[1][2, 3], half.ravel())


def test_subset_norm_requires_exact_coverage():
    a = build_exponent(G, "constant", value=0.0, role="smoothness")
    lam = DyadicCoefficients(G, 2, {(2, 3): 1.0, (2, 9): 2.0})
    # a selected cube off the support, at a level past lam.V, and a supported
    # cube left unselected
    levels = full_selection(lam).levels
    for v, m in ((2, 12), (3, 0)):
        wrong = [keep.copy() for keep in levels]
        wrong[v][m] = True
        with pytest.raises(InvalidSelection):
            f_infty_subset_norm(lam, a, 2.0, SubsetSelection(G, wrong))
    wrong = [keep.copy() for keep in levels]
    wrong[2][9] = False
    with pytest.raises(InvalidSelection):
        f_infty_subset_norm(lam, a, 2.0, SubsetSelection(G, wrong))
    assert f_infty_subset_norm(lam, a, 2.0, SubsetSelection(G, levels)) == \
        f_infty_subset_norm(lam, a, 2.0, full_selection(lam))
    with pytest.raises(InvalidSelection):
        f_infty_subset_norm(lam, a, 2.0, full_selection(DyadicCoefficients(G, 3, {(2, 3): 1.0})))


def test_greedy_dominated_by_full_selection():
    rng = np.random.default_rng(17)
    a = build_exponent(G, "sine", base=0.2, amplitude=0.4, role="smoothness")
    for _ in range(10):
        lam = random_coeffs(G, rng, 8)
        qc = float(rng.uniform(0.8, 3.0))
        g_val = f_infty_subset_norm(lam, a, qc, greedy_selection(lam, a, qc))
        f_val = f_infty_subset_norm(lam, a, qc, full_selection(lam))
        assert g_val <= f_val * (1 + 1e-12)


def test_direct_norm_dominated_by_full_subset_value():
    # per-cube averaging of a partial tail never beats the pointwise sup
    rng = np.random.default_rng(19)
    a = build_exponent(G, "sine", base=0.1, amplitude=0.3, role="smoothness")
    for _ in range(10):
        lam = random_coeffs(G, rng, 10)
        full_val = f_infty_subset_norm(lam, a, 2.0, full_selection(lam))
        assert f_infty_norm(lam, a, 2.0) <= full_val * (1 + 1e-12)


def test_greedy_ties_keep_lowest_cell_indices():
    a = build_exponent(G, "constant", value=0.3, role="smoothness")
    lam = single(G, 2, 5)
    sel = greedy_selection(lam, a, 2.0)
    mask = sel.levels[2][5]
    want = np.zeros(8, dtype=bool)
    want[:5] = True  # constant integrand: stable sort keeps cells 0..4
    assert np.array_equal(mask, want)


def test_greedy_matches_exhaustive_enumeration():
    # 2 cubes x 8 cells: 93 admissible masks per cube, full 93^2 search
    q = 1.6
    a = build_exponent(G, "sine", base=0.0, amplitude=0.8, role="smoothness")
    lam = DyadicCoefficients(G, 2, {(2, 3): 2.0, (2, 12): -0.7j})
    masks = admissible_masks(8)
    assert len(masks) == 93

    per_mask_max = []
    for key, val in lam.items():
        sl = G.cube_slices(G.cube(*key))
        w = 2.0 ** (2 * q * (a.values[sl] + 0.5)) * abs(val) ** q
        per_mask_max.append(np.array([w[m].max() for m in masks]))
    pair_values = np.maximum.outer(per_mask_max[0], per_mask_max[1]) ** (1.0 / q)
    brute = float(pair_values.min())

    greedy = f_infty_subset_norm(lam, a, q, greedy_selection(lam, a, q))
    assert brute <= greedy * (1 + 1e-12)
    assert greedy <= 4.0 * brute
    # disjoint same-level cubes: the greedy per-cube rule is exactly optimal
    assert greedy == pytest.approx(brute, rel=1e-12)


# -- equivalence check --------------------------------------------------------


def test_prop1_single_coefficient_bracket_contains_one():
    a = build_exponent(G, "constant", value=0.25, role="smoothness")
    direct, best = prop1_equivalence_check(single(G, 1, 3, val=2.0), a, 2.0)
    want = 2.0 ** (1 * (0.25 + 0.5)) * 2.0
    assert direct == pytest.approx(want, rel=1e-9)
    assert best == pytest.approx(want, rel=1e-9)


def test_prop1_zero_is_zero_pair():
    a = build_exponent(G, "constant", value=0.0, role="smoothness")
    assert prop1_equivalence_check(DyadicCoefficients(G, 1, {}), a, 2.0) == (0.0, 0.0)


def test_prop1_ratio_refinement_stable():
    keys = [(1, 2), (2, 9), (2, 10), (3, 25)]
    vals = [1.0, 3.0, 0.2, -5.0j]
    ratios = []
    for N in [256, 512]:
        g = make_grid(1, 4, N)
        a = build_exponent(g, "sine", base=0.15, amplitude=0.35, role="smoothness")
        lam = DyadicCoefficients(g, 3, dict(zip(keys, vals)))
        direct, best = prop1_equivalence_check(lam, a, 1.7)
        assert direct > 0.0 and best > 0.0
        ratios.append(direct / best)
    assert ratios[1] <= 2.0 * ratios[0]
    assert ratios[0] <= 2.0 * ratios[1]


def test_prop1_budget_enforced(monkeypatch):
    import vexint.seqspaces as sq
    monkeypatch.setattr(sq, "GREEDY_CELL_LIMIT", 4)
    a = build_exponent(G, "constant", value=0.0, role="smoothness")
    with pytest.raises(InvalidInput):
        prop1_equivalence_check(single(G, 0, 0), a, 2.0)


# -- construction and serialization -------------------------------------------


def test_coefficients_validate_levels_and_indices():
    with pytest.raises(ResolutionExceeded):
        DyadicCoefficients(G, G.v_max + 1, {})
    with pytest.raises(InvalidInput):
        DyadicCoefficients(G, 1, {(2, 0): 1.0})  # level above declared V
    with pytest.raises(InvalidConfiguration):
        DyadicCoefficients(G, 2, {(2, 32): 1.0})  # index outside the box
    with pytest.raises(InvalidInput):
        DyadicCoefficients(G, 2, {(1, 1): complex(math.nan, 0.0)})
    for bad in ({(1, (1.7,)): 1.0}, {(1.9, (1,)): 1.0}, {(1, 1.5): 1.0}):
        with pytest.raises(InvalidInput):  # non-integral level or index
            DyadicCoefficients(G, 2, bad)
    with pytest.raises(InvalidInput):
        DyadicCoefficients.from_records(G, 2, [(1, [2.5], 1.0, 0.0)])


def test_level_arrays_validated_as_wholes():
    levels = [np.zeros(G.cubes_per_axis(v), dtype=complex) for v in range(3)]
    levels[2][5] = 1.5 - 2.0j
    lam = DyadicCoefficients(G, 2, levels)
    assert lam.items() == [((2, (5,)), 1.5 - 2.0j)]
    levels[2][5] = 0.0  # the constructor copies
    assert lam.value(2, 5) == 1.5 - 2.0j
    with pytest.raises(InvalidInput):
        DyadicCoefficients(G, 1, levels)  # a level above the declared V
    with pytest.raises(InvalidConfiguration):
        DyadicCoefficients(G, 2, [levels[0], levels[1], levels[1]])
    levels[1][0] = complex(math.inf, 0.0)
    with pytest.raises(InvalidInput):
        DyadicCoefficients(G, 2, levels)


def test_zero_values_dropped_from_support():
    lam = DyadicCoefficients(G, 2, {(1, 1): 0.0, (2, 3): 1.0})
    assert lam.support() == [(2, (3,))]
    assert len(lam) == 1
    assert lam.value(1, 1) == 0.0


def test_grid_mismatch_rejected():
    other = make_grid(1, 4, 512)
    a = build_exponent(other, "constant", value=0.0, role="smoothness")
    p = build_exponent(other, "constant", value=2.0)
    with pytest.raises(InvalidInput):
        f_norm(single(G, 0, 0), a, p, p)


def test_record_roundtrip_preserves_phases():
    rng = np.random.default_rng(23)
    lam = random_coeffs(G, rng, 40)
    back = DyadicCoefficients.from_records(G, lam.V, lam.to_records())
    assert back.items() == lam.items()


def test_restricted_truncation():
    lam = DyadicCoefficients(G, 2, {(0, 1): 1.0, (1, 2): 2.0, (2, 3): 3.0})
    part = lam.restricted([(0, 1), (2, 3)])
    assert part.support() == [(0, (1,)), (2, (3,))]
    assert part.value(1, 2) == 0.0


# -- per-level arrays against the per-cube loops they replaced -------------------

ORACLE_GRIDS = {1: make_grid(1, 4, 256), 2: make_grid(2, 1, 32)}


def level_function_oracle(lam, alpha, v):
    grid = lam.grid
    amp = np.zeros(grid.shape)
    for (lv, m), val in lam.items():
        if lv == v:
            amp[grid.cube_slices(grid.cube(lv, m))] = abs(val)
    return amp * np.exp2(v * (alpha.values + 0.5 * grid.n))


def level_integrand_oracle(lam, alpha, v, q):
    grid = lam.grid
    amp = np.zeros(grid.shape)
    for (lv, m), val in lam.items():
        if lv == v:
            amp[grid.cube_slices(grid.cube(lv, m))] = abs(val) ** q
    return amp * np.exp2(v * q * (alpha.values + 0.5 * grid.n))


def stacked_majorant_oracle(lam, alpha, q):
    grid = lam.grid
    total = np.zeros(grid.shape)
    for (v, m), val in lam.items():
        sl = grid.cube_slices(grid.cube(v, m))
        total[sl] += np.exp2(v * q * (alpha.values[sl] + 0.5 * grid.n)) * abs(val) ** q
    return total ** (1.0 / q)


def greedy_masks_oracle(lam, alpha, q):
    grid = lam.grid
    masks = {}
    for (v, m), val in lam.items():
        sl = grid.cube_slices(grid.cube(v, m))
        block = np.exp2(v * q * (alpha.values[sl] + 0.5 * grid.n)) * abs(val) ** q
        order = np.argsort(block.ravel(), kind="stable")
        mask = np.zeros(block.size, dtype=bool)
        mask[order[:block.size // 2 + 1]] = True
        masks[(v, m)] = mask.reshape(block.shape)
    return masks


def subset_norm_oracle(lam, alpha, q, sel):
    grid = lam.grid
    total = np.zeros(grid.shape)
    for (v, m), val in lam.items():
        sl = grid.cube_slices(grid.cube(v, m))
        contrib = np.exp2(v * q * (alpha.values[sl] + 0.5 * grid.n)) * abs(val) ** q
        total[sl] += np.where(sel.masks[(v, m)], contrib, 0.0)
    return float(total.max()) ** (1.0 / q)


@st.composite
def coefficient_sets(draw):
    """Random supports on a 1D or 2D grid.  Some drawn values are exactly
    zero; the others have moduli log-uniform in [1e-3, 1e3] and uniform
    phases, taken from a drawn seed so they are not the round numbers
    hypothesis favours."""
    n = draw(st.sampled_from([1, 2]))
    grid = ORACLE_GRIDS[n]
    V = draw(st.integers(min_value=0, max_value=grid.v_max))
    entries = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=V),
                  st.tuples(*[st.integers(min_value=0, max_value=2 ** 16)] * n),
                  st.booleans()),
        max_size=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32)))
    data = {}
    for v, m, zero in entries:
        top = grid.cubes_per_axis(v)
        mag = 10.0 ** rng.uniform(-3.0, 3.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        key = (v, tuple(mi % top for mi in m))
        data[key] = 0.0 if zero else mag * complex(math.cos(phase), math.sin(phase))
    return DyadicCoefficients(grid, V, data)


def oracle_alpha(grid, base, amplitude):
    return build_exponent(grid, "sine", base=base, amplitude=amplitude, role="smoothness")


@settings(max_examples=60, deadline=None)
@given(coefficient_sets(),
       st.floats(min_value=-0.8, max_value=0.8),
       st.floats(min_value=0.0, max_value=0.5),
       st.one_of(st.just(1.0), st.integers(min_value=0, max_value=2 ** 32).map(
           lambda seed: float(np.random.default_rng(seed).uniform(1.0, 4.0)))))
def test_level_arrays_match_per_cube_oracles_exactly(lam, base, amplitude, q):
    alpha = oracle_alpha(lam.grid, base, amplitude)
    for v in range(lam.V + 1):
        assert np.array_equal(level_function(lam, alpha, v).values,
                              level_function_oracle(lam, alpha, v))
        assert np.array_equal(_coefficient_levels(lam, alpha, q)[v],
                              level_integrand_oracle(lam, alpha, v, q))
    assert np.array_equal(_level_sum(lam, alpha, q)[0] ** (1.0 / q),
                          stacked_majorant_oracle(lam, alpha, q))
    sel = greedy_selection(lam, alpha, q)
    want = greedy_masks_oracle(lam, alpha, q)
    assert sum(int(keep.any(axis=-1).sum()) for keep in sel.levels) == len(want)
    assert all(np.array_equal(sel.levels[v][m], mask.ravel()) for (v, m), mask in want.items())
    if len(lam):
        assert f_infty_subset_norm(lam, alpha, q, sel) == \
            subset_norm_oracle(lam, alpha, q, SimpleNamespace(masks=want))


@settings(max_examples=60, deadline=None)
@given(coefficient_sets())
def test_records_roundtrip_exact_and_sorted(lam):
    back = DyadicCoefficients.from_records(lam.grid, lam.V, lam.to_records())
    assert back == lam
    assert back.items() == lam.items()
    keys = [key for key, _val in lam.items()]
    assert keys == sorted(keys) == lam.support()
    assert len(lam) == len(keys)
    assert all(val != 0 for _key, val in lam.items())
    assert DyadicCoefficients(lam.grid, lam.V, dict(lam.items())) == lam


@settings(max_examples=60, deadline=None)
@given(coefficient_sets())
def test_flat_array_holds_the_levels_as_views(lam):
    assert np.array_equal(lam.flat, np.concatenate([a.ravel() for a in lam.levels]))
    assert all(np.shares_memory(a, lam.flat) for a in lam.levels)
    # every cube of levels 0..V in the order of the flat array
    cubes = [(v, m) for v, a in enumerate(lam.levels) for m in np.ndindex(a.shape)]
    assert [cubes[i] for i in np.flatnonzero(lam.flat)] == lam.support()
    lam.levels[lam.V][(-1,) * lam.grid.n] = 7.0 - 1.0j
    assert lam.flat[-1] == 7.0 - 1.0j


def coefficient_bound_oracle(lam, alpha, p, q):
    """The level-by-level form of `coefficient_bound_check`."""
    grid = lam.grid
    norm = f_norm(lam, alpha, p, q).value
    n = grid.n
    expo = alpha.values - n / p.values + 0.5 * n
    worst = 0.0
    for j in range(lam.V + 1):
        mod = lam.moduli(j)
        nz = np.nonzero(mod)
        top = cube_cells(grid, expo, j).max(axis=-1)[nz]
        worst = max(worst, float((mod[nz] * _pow_each(2.0, j * top) / norm).max(initial=0.0)))
    return worst


@settings(max_examples=60, deadline=None)
@given(coefficient_sets(),
       st.floats(min_value=-0.8, max_value=0.8),
       st.floats(min_value=0.0, max_value=0.5),
       st.floats(min_value=1.5, max_value=3.0))
def test_coefficient_bound_matches_the_level_loop_exactly(lam, base, amplitude, p_base):
    alpha = oracle_alpha(lam.grid, base, amplitude)
    p = build_exponent(lam.grid, "sine", base=p_base, amplitude=0.4)
    q = build_exponent(lam.grid, "constant", value=2.0)
    if len(lam):
        assert coefficient_bound_check(lam, alpha, p, q) == \
            coefficient_bound_oracle(lam, alpha, p, q)
