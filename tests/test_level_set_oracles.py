"""Per-level level-set classes and subset selections against the per-cube code
they replaced.

The oracles below are the per-cube implementations of the class loop of
`build_level_sets`, of `_corner_factors`, `_subset_from_level_sets`, the
keyed validation `SubsetSelection` once had and `f_infty_subset_norm`, kept
verbatim (bodies unchanged, wrapped as functions over plain dicts).  Their
dict outputs are laid out as the class and selection arrays before they are
compared, and every compared quantity must be `==`, not close.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vexint.calderon import (
    NO_CLASS,
    _subset_from_level_sets,
    build_level_sets,
    factorization_params_pp,
    factorization_params_pq_infty,
    factorize_pp,
    factorize_pq_infty,
)
from vexint.errors import InvalidSelection
from vexint.exponents import ExponentField, build_exponent
from vexint.grid import DyadicCube, GridFunction, common_grid, cube_cells, cube_corners, make_grid
from vexint.seqspaces import (
    DyadicCoefficients,
    _coefficient_levels,
    _constant_exponent,
    _level_sum,
    _normalize_key,
    f_norm,
)

GRIDS = {1: make_grid(1, 4.0, 256), 2: make_grid(2, 1.0, 32)}


# -- per-cube oracles ----------------------------------------------------------


def level_sets_oracle(lam, alpha, p, q, params):
    """build_level_sets with classes as key lists and masks built eagerly."""
    gamma = params.gamma
    qv = float(np.asarray(q.values if isinstance(q, ExponentField) else q).ravel()[0])
    grid = lam.grid
    g_vals = _level_sum(lam, alpha, qv)[0] ** (1.0 / qv)
    g = GridFunction(grid, g_vals)

    def decomposition(masks, classes, unassigned, l_min, l_max, lam_norm):
        index = {key: l for l, keys in classes.items() for key in keys}
        return SimpleNamespace(g=g, masks=masks, classes=classes, unassigned=unassigned,
                               l_min=l_min, l_max=l_max, gamma=gamma, lam_norm=lam_norm,
                               class_of=index.get)

    if not lam:
        return decomposition({}, {}, [], 0, -1, 0.0)
    lam_norm = f_norm(lam, alpha, p, q if isinstance(q, ExponentField) else
                      build_exponent(grid, "constant", value=qv)).value
    positive = g_vals > 0.0
    ratio = np.zeros(grid.shape)
    ratio[positive] = (g_vals[positive] / lam_norm) ** gamma

    classes: dict = {}
    unassigned: list = []
    for j in range(lam.V + 1):
        nz, keys = lam.level_support(j)
        cells = cube_cells(grid, ratio, j)
        k = cells.shape[-1]
        # (K//2+1)-th largest cell value: majority of Q exceeds t iff t < M
        M = np.partition(cells, k - 1 - k // 2, axis=-1)[..., k - 1 - k // 2][nz]
        frac, expo = np.frexp(M)
        level = np.where(frac == 0.5, expo - 2, expo - 1)
        for key, top, l in zip(keys, M.tolist(), level.tolist()):
            if top <= 0.0:
                unassigned.append(key)
            else:
                classes.setdefault(l, []).append(key)

    levels = sorted(classes)
    l_min, l_max = (levels[0], levels[-1]) if levels else (0, -1)
    masks = {
        l: positive & (ratio > 2.0 ** l)
        for l in range(l_min, l_max + 2)
    }
    return decomposition(masks, classes, unassigned, l_min, l_max, lam_norm)


def corner_factors_oracle(lam, norm, params, e0, e1, class_of=lambda key: 0, ratio_l=0.0):
    grid = lam.grid
    levels0 = [np.zeros_like(a) for a in lam.levels]
    levels1 = [np.zeros_like(a) for a in lam.levels]
    left_out = 0
    for j in range(lam.V + 1):
        nz, keys = lam.level_support(j)

        def at(x):
            return cube_corners(grid, np.broadcast_to(x, grid.shape), j)[nz].tolist()

        for key, r, u, v, a, b in zip(keys, (lam.moduli(j)[nz] / norm).tolist(),
                                      at(params.u), at(params.v), at(e0), at(e1)):
            l = class_of(key)
            if l is None:
                left_out += 1
                continue
            levels0[j][key[1]] = 2.0 ** (l + j * u) * r ** a
            levels1[j][key[1]] = 2.0 ** (l * ratio_l + j * v) * r ** b
    return (DyadicCoefficients(grid, lam.V, levels0),
            DyadicCoefficients(grid, lam.V, levels1), left_out)


def selection_oracle(grid, masks):
    """The keyed validation of SubsetSelection; returns its cleaned mask dict."""
    clean = {}
    for (v, m), mask in masks.items():
        v, m = _normalize_key(v, m)
        cube = grid.cube(v, m)
        mask = np.asarray(mask, dtype=bool)
        c = grid.cells_per_axis(v)
        if mask.shape != (c,) * grid.n:
            raise InvalidSelection(
                f"mask for (v={v}, m={m}) has shape {mask.shape}, cube block is {(c,) * grid.n}"
            )
        measure = int(mask.sum()) * grid.h ** grid.n
        if not measure > cube.measure() / 2.0:
            raise InvalidSelection(
                f"selected measure {measure} is not more than half of |Q|={cube.measure()} "
                f"at (v={v}, m={m})"
            )
        clean[(v, m)] = mask
    return clean


def subset_from_level_sets_oracle(lam, decomp):
    grid = lam.grid
    masks = {}
    for (j, m) in lam.support():
        l = decomp.class_of((j, m))
        sl = grid.cube_slices(grid.cube(j, m))
        upper = decomp.masks[l + 1][sl]
        keep = ~upper
        k = keep.size
        if int(keep.sum()) * 2 == k:
            # exact half split: move the smallest excluded cell into E
            ratio_block = (decomp.g.values[sl] / decomp.lam_norm) ** decomp.gamma
            flat_keep = keep.ravel().copy()
            candidates = np.flatnonzero(~flat_keep)
            pick = candidates[np.argmin(ratio_block.ravel()[candidates])]
            flat_keep[pick] = True
            keep = flat_keep.reshape(keep.shape)
        masks[(j, m)] = keep
    return selection_oracle(grid, masks)


def subset_norm_oracle(lam, alpha, q, masks):
    q = _constant_exponent(q)
    common_grid(lam, alpha)
    if set(masks) != set(lam.support()):
        raise InvalidSelection("selection must cover exactly the coefficient support")
    if not lam:
        return 0.0
    grid = lam.grid
    keep = [np.zeros(grid.shape, dtype=bool) for _ in range(lam.V + 1)]
    for (v, m), mask in masks.items():
        keep[v][grid.cube_slices(DyadicCube(v, m))] = mask
    total = np.zeros(grid.shape)
    for v in range(lam.V + 1):
        total += np.where(keep[v], _coefficient_levels(lam, alpha, q)[v], 0.0)
    return float(total.max()) ** (1.0 / q)


def factorize_pq_infty_oracle(lam, params):
    decomp = level_sets_oracle(lam, params.alpha, params.p, params.q, params)
    q_val = float(params.q.values.ravel()[0])
    q0, q1 = params.q0.min, params.q1.min  # the endpoint constants, as floats
    lam0, lam1, zero_count = corner_factors_oracle(lam, decomp.lam_norm, params,
                                                   q_val / q0, q_val / q1,
                                                   decomp.class_of, params.delta / params.gamma)
    masks = subset_from_level_sets_oracle(lam1, decomp)
    return decomp, lam0, lam1, zero_count, masks, subset_norm_oracle(lam1, params.alpha1,
                                                                     q1, masks)


# -- inputs ----------------------------------------------------------------------


@st.composite
def power_of_two_coefficients(draw):
    """Supports clustered near the origin, so cubes nest, with moduli 2^k:
    equal and dyadically spaced values make exact-half splits common."""
    n = draw(st.sampled_from([1, 2]))
    grid = GRIDS[n]
    V = draw(st.integers(min_value=0, max_value=grid.v_max))
    data = {}
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        v = draw(st.integers(min_value=0, max_value=V))
        top = min(grid.cubes_per_axis(v), 2 ** (v + 1))
        m = tuple(draw(st.integers(min_value=0, max_value=top - 1)) for _ in range(n))
        k = draw(st.integers(min_value=-4, max_value=4))
        data[(v, m)] = 2.0 ** k * draw(st.sampled_from([1.0, -1.0, 1j, -1j]))
    return DyadicCoefficients(grid, V, data)


@st.composite
def pq_settings(draw, grid):
    if draw(st.booleans()):
        theta, q0, q1, p0 = 0.5, 2.0, 2.0, 3.0  # gamma = 1
    else:
        theta = draw(st.floats(min_value=0.2, max_value=0.8))
        q0, q1 = (draw(st.floats(min_value=1.0, max_value=4.0)) for _ in range(2))
        p0 = draw(st.floats(min_value=1.2, max_value=4.0))
    if draw(st.booleans()):
        a0 = build_exponent(grid, "constant", value=0.0, role="smoothness")
    else:
        a0 = build_exponent(grid, "sine", base=0.2, amplitude=0.3, role="smoothness")
    a1 = build_exponent(grid, "constant", value=draw(st.sampled_from([0.0, -0.25])),
                        role="smoothness")
    p0f = build_exponent(grid, "constant", value=p0)
    return factorization_params_pq_infty(theta, a0, a1, p0f, q0, q1)


def class_levels_of(grid, V, classes):
    """An oracle's {l: [keys]} as per-level class arrays, NO_CLASS elsewhere."""
    levels = [np.full((grid.cubes_per_axis(j),) * grid.n, NO_CLASS) for j in range(V + 1)]
    for l, keys in classes.items():
        for j, m in keys:
            levels[j][m] = l
    return levels


def selection_levels(grid, masks):
    """An oracle's {(v, m): E_Q} in the SubsetSelection layout, cells in C order."""
    levels = [np.zeros((grid.cubes_per_axis(v),) * grid.n + (grid.cells_per_axis(v) ** grid.n,),
                       dtype=bool) for v in range(grid.v_max + 1)]
    for (v, m), mask in masks.items():
        levels[v][m] = mask.ravel()
    return levels


def assert_levels_equal(got, want):
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


# -- equivalence -------------------------------------------------------------------


def check_against_oracles(lam, params):
    decomp = build_level_sets(lam, params)
    want = level_sets_oracle(lam, params.alpha, params.p, params.q, params)
    assert_levels_equal(decomp.class_levels, class_levels_of(lam.grid, lam.V, want.classes))
    # the unassigned cubes are the supported ones without a class
    assert [key for key in lam.support()
            if decomp.class_levels[key[0]][key[1]] == NO_CLASS] == want.unassigned
    assert (decomp.l_min, decomp.l_max, decomp.lam_norm) == (want.l_min, want.l_max,
                                                             want.lam_norm)
    for l, mask in want.masks.items():
        assert np.array_equal(decomp.ratio > 2.0 ** l, mask)
    if not lam:
        return None
    res = factorize_pq_infty(lam, params)
    _decomp, lam0, lam1, zero_count, masks, norm1 = factorize_pq_infty_oracle(lam, params)
    assert res.lam0 == lam0 and res.lam1 == lam1
    assert res.zero_count == zero_count
    assert res.factor1_norm == norm1
    assert_levels_equal(_subset_from_level_sets(res.lam1, res.level_sets).levels,
                        selection_levels(lam.grid, masks))
    return masks


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_level_sets_and_factors_match_per_cube_oracles(data):
    lam = data.draw(power_of_two_coefficients())
    check_against_oracles(lam, data.draw(pq_settings(lam.grid)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pp_factors_match_per_cube_oracle(data):
    # the corner construction: every cube of class 0, exponents varying in x
    lam = data.draw(power_of_two_coefficients())
    if not lam:
        return
    grid = lam.grid

    def sine(base, role="integrability"):
        return build_exponent(grid, "sine", base=base, amplitude=0.3, role=role)

    params = factorization_params_pp(data.draw(st.floats(min_value=0.1, max_value=0.9)),
                                     sine(0.2, "smoothness"), sine(-0.1, "smoothness"),
                                     sine(2.0), sine(3.5))
    res = factorize_pp(lam, params)
    p = params.p.values
    lam0, lam1, _ = corner_factors_oracle(lam, res.lam_norm, params, p / params.p0.values,
                                          p / params.p1.values)
    assert res.lam0 == lam0 and res.lam1 == lam1


def test_exact_half_ties_match_oracles_1d_and_2d():
    # a coarse cube whose upper half holds finer, larger coefficients
    for n, keys in ((1, [(1, (0,))]), (2, [(1, (0, 0)), (1, (0, 1))])):
        grid = GRIDS[n]
        zero = build_exponent(grid, "constant", value=0.0, role="smoothness")
        params = factorization_params_pq_infty(
            0.5, zero, zero, build_exponent(grid, "constant", value=3.0), 2.0, 2.0)
        lam = DyadicCoefficients(grid, 1, {(0, (0,) * n): 1.0, **{k: 2.0 for k in keys}})
        masks = check_against_oracles(lam, params)
        cells = grid.cells_per_axis(0) ** n
        assert int(masks[(0, (0,) * n)].sum()) == cells // 2 + 1


def test_unassigned_cube_is_left_out_as_in_oracles():
    # |lam|^q underflows to 0 on a cube apart from the rest: its cells never
    # enter a level set, so the cube gets no class and no factor entries
    for n, far in ((1, (2, (20,))), (2, (2, (5, 6)))):
        grid = GRIDS[n]
        zero = build_exponent(grid, "constant", value=0.0, role="smoothness")
        params = factorization_params_pq_infty(
            0.5, zero, zero, build_exponent(grid, "constant", value=3.0), 2.0, 2.0)
        lam = DyadicCoefficients(grid, 2, {(0, (0,) * n): 1.0, far: 1e-200})
        check_against_oracles(lam, params)
        decomp = build_level_sets(lam, params)
        assert decomp.class_levels[far[0]][far[1]] == NO_CLASS
        assert factorize_pq_infty(lam, params).zero_count == 1
