"""Grid geometry: construction rules, cube alignment, exact quadrature."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexint.errors import InvalidConfiguration, InvalidInput, ResolutionExceeded
from vexint.grid import (
    GridFunction,
    cells_to_grid,
    common_grid,
    cube_broadcast,
    cube_cells,
    cube_mask,
    cube_sums,
    enumerate_cubes,
    make_grid,
)


def test_make_grid_examples():
    g = make_grid(1, 4, 256)
    assert g.h == 1.0 / 32.0
    assert g.v_max == 3
    g2 = make_grid(2, 2, 64)
    assert g2.h == 1.0 / 16.0
    assert g2.v_max == 2


def test_make_grid_rejects_bad_parameters():
    with pytest.raises(InvalidConfiguration):
        make_grid(1, 4, 10)  # not a power of two
    with pytest.raises(InvalidConfiguration):
        make_grid(3, 2, 64)
    with pytest.raises(InvalidConfiguration):
        make_grid(1, 3, 64)
    with pytest.raises(InvalidConfiguration):
        make_grid(1, 4, 16)  # N < 8L under-resolves level 0
    for L in (0.25, 2.0 ** -10):
        # no level-0 cube fits in [0, 2L): the CLI ended in a ValueError traceback
        with pytest.raises(InvalidConfiguration, match="below 1/2"):
            make_grid(1, L, 16)


def test_cell_measure_covers_box():
    for n, L, N in [(1, 4, 256), (2, 2, 64), (1, 1, 64)]:
        g = make_grid(n, L, N)
        assert g.h ** g.n * g.size == pytest.approx((2 * L) ** n, rel=1e-14)


def test_enumerate_cubes_examples():
    g = make_grid(1, 1, 64)
    assert len(enumerate_cubes(g, 0)) == 2
    assert all(c.measure() == 1.0 for c in enumerate_cubes(g, 0))
    lvl2 = enumerate_cubes(g, 2)
    assert len(lvl2) == 8
    assert all(c.measure() == 0.25 for c in lvl2)
    with pytest.raises(ResolutionExceeded):
        enumerate_cubes(g, 9)


def test_cube_mask_examples():
    g = make_grid(1, 1, 64)
    m0 = cube_mask(g, g.cube(0, (0,)))
    assert m0.sum() == 32
    assert g.integrate(m0.astype(float)) == pytest.approx(1.0, abs=0)
    m23 = cube_mask(g, g.cube(2, (3,)))
    assert m23.sum() == 8
    assert g.integrate(m23.astype(float)) == pytest.approx(0.25, abs=0)
    with pytest.raises(InvalidConfiguration):
        g.cube(1, (-1,))


def test_level_partition_is_exact():
    # masks of one level sum to the constant one function, no seams
    for n, L, N in [(1, 4, 256), (2, 2, 64)]:
        g = make_grid(n, L, N)
        for v in range(g.v_max + 1):
            total = np.zeros(g.shape)
            for c in enumerate_cubes(g, v):
                total += cube_mask(g, c)
            assert np.array_equal(total, np.ones(g.shape))


def test_cube_nesting():
    g = make_grid(1, 4, 256)
    for v in range(g.v_max):
        coarse = [cube_mask(g, c) for c in enumerate_cubes(g, v)]
        for child in enumerate_cubes(g, v + 1):
            child_mask = cube_mask(g, child)
            parents = [i for i, cm in enumerate(coarse) if np.all(cm[child_mask])]
            assert len(parents) == 1


def test_quadrature_exactness_all_levels():
    g = make_grid(2, 2, 64)
    for v in range(g.v_max + 1):
        c = enumerate_cubes(g, v)[3]
        mass = g.integrate(cube_mask(g, c).astype(float))
        assert mass == pytest.approx(2.0 ** (-v * g.n), rel=1e-14)


def test_cube_sums_and_broadcast_roundtrip():
    g = make_grid(2, 2, 64)
    rng = np.random.default_rng(3)
    vals = rng.normal(size=g.shape)
    for v in range(g.v_max + 1):
        s = cube_sums(g, vals, v)
        assert s.shape == (g.cubes_per_axis(v),) * g.n
        assert s.sum() == pytest.approx(vals.sum(), rel=1e-12)
        back = cube_broadcast(g, s, v)
        assert back.shape == g.shape
        # every cell of a cube carries that cube's sum
        cube = enumerate_cubes(g, v)[5]
        sl = g.cube_slices(cube)
        assert np.all(back[sl] == s[cube.m])


def test_common_grid_needs_a_grid():
    with pytest.raises(InvalidInput, match="no argument carries a grid"):
        common_grid(np.ones(16), 2.0)


@pytest.mark.parametrize("shape", [(5, 4), (4,), (4, 4, 1)])
def test_cube_broadcast_refuses_a_shape_that_does_not_tile(shape):
    # level 1 on [0, 4)^2 has 4 x 4 cubes
    g = make_grid(2, 2, 64)
    with pytest.raises(InvalidInput, match="does not tile level 1"):
        cube_broadcast(g, np.ones(shape), 1)


@st.composite
def grids(draw):
    n = draw(st.sampled_from([1, 2]))
    # L >= 1/2: the box holds at least one level-0 cube
    L = 2.0 ** draw(st.integers(min_value=-1, max_value=3))
    top = 10 if n == 1 else 7  # N up to 1024 points, or 128 per axis
    N = 2 ** draw(st.integers(min_value=max(4, int(np.log2(8 * L))), max_value=top))
    return make_grid(n, L, N)


@settings(max_examples=40, deadline=None)
@given(grids(), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_cube_layout_matches_per_cube_slices(g, seed):
    # integer values, so every sum is exact in any order
    rng = np.random.default_rng(seed)
    x = rng.integers(-1000, 1001, size=g.shape).astype(np.float64)
    for v in range(g.v_max + 1):
        cells = cube_cells(g, x, v)
        sums = cube_sums(g, x, v)
        per_cube = rng.integers(-1000, 1001, size=(g.cubes_per_axis(v),) * g.n)
        spread = cube_broadcast(g, per_cube, v)
        assert cells.shape == (g.cubes_per_axis(v),) * g.n + (g.cells_per_axis(v) ** g.n,)
        assert sums.shape == per_cube.shape and spread.shape == g.shape
        for cube in enumerate_cubes(g, v):
            block = g.cube_slices(cube)
            assert np.array_equal(cells[cube.m], x[block].ravel())
            assert sums[cube.m] == x[block].sum()
            assert np.all(spread[block] == per_cube[cube.m])
        assert np.array_equal(cells_to_grid(g, cells, v), x)


def test_periodic_radius_symmetry():
    g = make_grid(1, 4, 256)
    r = g.periodic_radius()
    assert r[0] == 0.0
    assert np.max(r) == pytest.approx(g.L, abs=g.h)
    # distance to 0 is symmetric under index negation
    assert np.allclose(r[1:], r[1:][::-1])


def mesh_radius(g, per_axis):
    """sqrt of the per-axis squared distances summed over full coordinate meshes."""
    d2 = np.zeros(g.shape)
    for c in g.coords():
        d = per_axis(c)
        d2 = d2 + d * d
    return np.sqrt(d2)


@pytest.mark.parametrize("n, L, N", [(1, 0.5, 16), (1, 1, 1024), (1, 4, 16384), (2, 2, 16),
                                     (2, 1, 256), (2, 8, 128), (2, 2, 512)])
def test_radii_equal_the_mesh_formula_bit_for_bit(n, L, N):
    # the radii are built from one axis, never from coordinate meshes
    g = make_grid(n, L, N)
    pairs = [(g.periodic_radius(), mesh_radius(g, lambda c: np.minimum(c, 2.0 * g.L - c))),
             (g.center_radius(), mesh_radius(g, lambda c: c - g.L))]
    for got, want in pairs:
        assert got.shape == g.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_grid_function_validation():
    g = make_grid(1, 1, 64)
    with pytest.raises(InvalidInput):
        GridFunction(g, np.zeros(65))
    with pytest.raises(InvalidInput):
        GridFunction(g, np.full(64, np.nan))
    gf = GridFunction.zeros(g)
    assert gf.values.shape == (64,)


def _layouts(a):
    """The values of a in C order, Fortran order, as a strided view and transposed."""
    wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],), dtype=a.dtype)
    wide[..., ::2] = a
    return [a, np.asfortranarray(a), wide[..., ::2], np.ascontiguousarray(a.T).T]


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128, np.clongdouble])
@pytest.mark.parametrize("n", [1, 2])
def test_grid_function_finiteness_in_every_layout(dtype, n):
    g = make_grid(n, 1, 16)
    a = (np.arange(g.size).reshape(g.shape) * (1.0 - 0.5j)).astype(dtype)
    for values in _layouts(a):
        assert np.array_equal(GridFunction(g, values).values, a)
    for bad in (complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 1.0),
                complex(1.0, -np.inf)):
        b = a.copy()
        b.flat[5] = bad
        for values in _layouts(b):
            with pytest.raises(InvalidInput):
                GridFunction(g, values)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=63))
def test_cube_corners_land_on_lattice(v, m):
    g = make_grid(1, 4, 256)
    if m >= g.cubes_per_axis(v):
        with pytest.raises(InvalidConfiguration):
            g.cube(v, (m,))
        return
    cube = g.cube(v, (m,))
    corner = cube.corner[0]
    assert corner / g.h == pytest.approx(round(corner / g.h), abs=1e-12)
    assert 0.0 <= corner and corner + cube.side <= 2 * g.L


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=4096))
def test_make_grid_power_of_two_rule(N):
    is_pow2 = (N & (N - 1)) == 0
    if is_pow2 and N >= 32:
        assert make_grid(1, 4, N).N == N
    elif not is_pow2:
        with pytest.raises(InvalidConfiguration):
            make_grid(1, 4, N)
