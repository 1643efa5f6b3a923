"""Periodic sampling grids and dyadic cubes on the box [0, 2L)^n.

The box is sampled at N points per axis, x_i = i*h with h = 2L/N, so that
every dyadic cube corner 2^{-v} m lands exactly on a grid point.  All
quadrature is the rectangle rule (sum times h^n), which on a periodic box
coincides with the trapezoid rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .errors import InvalidConfiguration, InvalidInput, ResolutionExceeded

__all__ = [
    "Grid",
    "DyadicCube",
    "GridFunction",
    "common_grid",
    "make_grid",
    "enumerate_cubes",
    "cube_mask",
    "cube_sums",
    "cube_broadcast",
    "cube_cells",
    "cells_to_grid",
    "cube_corners",
]


def _is_power_of_two(x: float) -> bool:
    if x <= 0 or not math.isfinite(x):
        return False
    mantissa, _ = math.frexp(x)
    return mantissa == 0.5


@dataclass(frozen=True)
class DyadicCube:
    """Dyadic cube of side 2^{-v} with lower corner 2^{-v} m."""

    v: int
    m: tuple[int, ...]

    @property
    def side(self) -> float:
        return 2.0 ** (-self.v)

    @property
    def corner(self) -> tuple[float, ...]:
        return tuple(mi * self.side for mi in self.m)

    def measure(self) -> float:
        return self.side ** len(self.m)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, 2L)^n with N points per axis."""

    n: int
    L: float
    N: int

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n

    @property
    def size(self) -> int:
        return self.N ** self.n

    @property
    def v_max(self) -> int:
        # finest level whose cubes still contain >= 4 grid points per axis
        return int(round(math.log2(self.N / (8.0 * self.L))))

    @cached_property
    def axis(self) -> np.ndarray:
        return np.arange(self.N) * self.h

    def coords(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays of shape `self.shape`, one per axis."""
        return tuple(np.meshgrid(*(self.axis,) * self.n, indexing="ij"))

    def periodic_radius(self) -> np.ndarray:
        """Periodic distance from each grid point to the origin."""
        return self._radius(np.minimum(self.axis, 2.0 * self.L - self.axis))

    def center_radius(self) -> np.ndarray:
        """Distance from each grid point to the box center (L, ..., L)."""
        return self._radius(self.axis - self.L)

    def _radius(self, d: np.ndarray) -> np.ndarray:
        """sqrt(d(x_0)^2 + ... + d(x_{n-1})^2) over the grid, from the per-axis distances
        d, summed in axis order as over full coordinate meshes, with no mesh built."""
        d2 = d * d
        return np.sqrt(reduce(np.add.outer, [d2] * self.n))

    def integrate(self, values: np.ndarray) -> float | complex:
        if values.shape != self.shape:
            raise InvalidInput(f"expected array of shape {self.shape}, got {values.shape}")
        return values.sum() * self.h ** self.n

    @cached_property
    def freq_radius(self) -> np.ndarray:
        """|xi| at the DFT frequencies xi_k = (pi/L) k, shape `self.shape`."""
        xi = 2.0 * math.pi * np.fft.fftfreq(self.N, d=self.h)
        if self.n == 1:
            return np.abs(xi)
        grids = np.meshgrid(*(xi,) * self.n, indexing="ij")
        return np.sqrt(sum(g * g for g in grids))

    # -- dyadic cube bookkeeping ------------------------------------------

    def cubes_per_axis(self, v: int) -> int:
        return int(round(2.0 * self.L * 2.0 ** v))

    def cells_per_axis(self, v: int) -> int:
        # grid points per cube edge; integral for v <= v_max + 2
        return self.N // (self.cubes_per_axis(v))

    def check_level(self, v: int) -> None:
        if v < 0:
            raise ResolutionExceeded(f"negative dyadic level {v}")
        if v > self.v_max:
            raise ResolutionExceeded(
                f"level {v} cube side {2.0**-v} is below 4 grid cells (h={self.h}); "
                f"finest usable level is {self.v_max}"
            )

    def cube(self, v: int, m: tuple[int, ...] | int) -> DyadicCube:
        if isinstance(m, int):
            m = (m,)
        m = tuple(int(mi) for mi in m)
        self.check_level(v)
        if len(m) != self.n:
            raise InvalidConfiguration(f"cube index {m} has wrong dimension for n={self.n}")
        top = self.cubes_per_axis(v)
        if any(mi < 0 or mi >= top for mi in m):
            raise InvalidConfiguration(f"cube (v={v}, m={m}) does not fit in [0, {2*self.L})^{self.n}")
        return DyadicCube(v, m)

    def cube_slices(self, cube: DyadicCube) -> tuple[slice, ...]:
        c = self.cells_per_axis(cube.v)
        return tuple(slice(mi * c, (mi + 1) * c) for mi in cube.m)


@dataclass
class GridFunction:
    """Complex-valued samples on a grid."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values)
        if self.values.shape != self.grid.shape:
            raise InvalidInput(
                f"values of shape {self.values.shape} do not match grid shape {self.grid.shape}"
            )
        values = self.values
        if np.iscomplexobj(values) and values.flags.c_contiguous:
            # one pass over the real and imaginary parts; any other layout
            # takes numpy's complex isfinite
            values = values.view(values.real.dtype)
        if not np.all(np.isfinite(values)):
            raise InvalidInput("grid function contains non-finite values")

    @classmethod
    def zeros(cls, grid: Grid, dtype=np.complex128) -> "GridFunction":
        return cls(grid, np.zeros(grid.shape, dtype=dtype))


def common_grid(*args) -> Grid:
    """The one grid of the arguments: every `.grid` they carry must be equal and
    every ndarray among them must have its shape; anything else, such as a
    float q, is passed over.  A mismatch, or no grid at all, is an InvalidInput."""
    grid = None
    for a in args:
        g = getattr(a, "grid", None)
        if grid is None:
            grid = g
        elif g is not None and g != grid:
            raise InvalidInput(f"arguments live on different grids: {grid} and {g}")
    if grid is None:
        raise InvalidInput("no argument carries a grid")
    for a in args:
        if isinstance(a, np.ndarray) and a.shape != grid.shape:
            raise InvalidInput(f"arguments live on different grids: an array of shape "
                               f"{a.shape} and {grid}")
    return grid


def _within_float_range(what: str, q: float | None = None, error=InvalidInput) -> "_FloatRange":
    """The one float-range rule: a numpy overflow or invalid operation, or a
    Python float overflow, in the block is an `error`, InvalidInput unless
    given, saying that `what` exceeds the float range."""
    return _FloatRange(np.errstate(over="raise", invalid="raise"), what, q, error)


class _FloatRange:
    """The guard `_within_float_range` returns: a plain class, since the norms enter
    thousands of guards a suite pass and a generator-based one costs twice as much."""

    __slots__ = ("state", "what", "q", "error")

    def __init__(self, state: np.errstate, what: str, q: float | None, error) -> None:
        self.state, self.what, self.q, self.error = state, what, q, error

    def __enter__(self) -> None:
        self.state.__enter__()

    def __exit__(self, kind, exc, tb) -> None:
        self.state.__exit__(kind, exc, tb)
        if kind is not None and issubclass(kind, (FloatingPointError, OverflowError)):
            at = "" if self.q is None else f" (q={self.q})"
            raise self.error(f"{self.what} exceeds the float range{at}") from None


def make_grid(n: int, L: float, N: int) -> Grid:
    """Validated grid constructor.

    Requires n in {1, 2}, L and N powers of two, L >= 1/2 so that a level-0
    cube fits in the box, N >= 16, and enough points that level-0 cubes hold
    at least 4 grid points per axis (v_max >= 0).
    """
    if n not in (1, 2):
        raise InvalidConfiguration(f"dimension n={n} not supported (use 1 or 2)")
    if not _is_power_of_two(L):
        raise InvalidConfiguration(f"box half-length L={L} must be a power of two")
    if L < 0.5:
        raise InvalidConfiguration(f"box half-length L={L} is below 1/2: no level-0 cube "
                                   "fits in the box")
    if not (isinstance(N, (int, np.integer)) and N >= 16 and _is_power_of_two(N)):
        raise InvalidConfiguration(f"N={N} must be a power-of-two integer >= 16")
    if N < 8 * L:
        raise InvalidConfiguration(
            f"N={N} under-resolves the box: need N >= 8L = {8*L} so level-0 cubes hold 4 cells"
        )
    return Grid(n=int(n), L=float(L), N=int(N))


def enumerate_cubes(grid: Grid, v: int) -> list[DyadicCube]:
    """All dyadic cubes of level v inside the box, in index order."""
    grid.check_level(v)
    return [DyadicCube(v, m) for m in np.ndindex((grid.cubes_per_axis(v),) * grid.n)]


def cube_mask(grid: Grid, cube: DyadicCube) -> np.ndarray:
    """Boolean indicator of the cube's grid cells; exact by cell alignment."""
    grid.check_level(cube.v)
    mask = np.zeros(grid.shape, dtype=bool)
    mask[grid.cube_slices(cube)] = True
    return mask


def _blocks(grid: Grid, v: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The level-v block shape (C, c) * n of a grid array, and the axis order
    that moves its cube axes first.

    In the block shape, axis 2k runs over the C cubes along grid axis k and
    axis 2k + 1 over the c cells of a cube along that axis.  For n <= 2 the
    order is its own inverse.
    """
    grid.check_level(v)
    n = grid.n
    return ((grid.cubes_per_axis(v), grid.cells_per_axis(v)) * n,
            (*range(0, 2 * n, 2), *range(1, 2 * n, 2)))


def cube_sums(grid: Grid, values: np.ndarray, v: int) -> np.ndarray:
    """Per-cube cell sums at level v, shape (cubes_per_axis,)*n.

    Multiply by h^n for the per-cube integral; cube (m0, m1) lands at
    index [m0, m1].
    """
    blocks, order = _blocks(grid, v)
    if values.shape != grid.shape:
        raise InvalidInput(f"expected array of shape {grid.shape}, got {values.shape}")
    return values.reshape(blocks).sum(axis=order[grid.n:])


def cube_broadcast(grid: Grid, per_cube: np.ndarray, v: int) -> np.ndarray:
    """Expand one value per level-v cube back to full grid shape."""
    blocks, order = _blocks(grid, v)
    per_cube = np.asarray(per_cube)
    if per_cube.shape != blocks[::2]:
        raise InvalidInput(f"per-cube array of shape {per_cube.shape} does not tile level {v}")
    # a cell axis of length 1 after each cube axis, repeated to its c cells
    out = per_cube.reshape((blocks[0], 1) * grid.n)
    for axis in order[grid.n:]:
        out = np.repeat(out, blocks[axis], axis=axis)
    return out.reshape(grid.shape)


def cube_cells(grid: Grid, values: np.ndarray, v: int) -> np.ndarray:
    """Cell values per level-v cube, shape (cubes_per_axis,)*n + (cells**n,).

    Cube (m0, m1) lands at index [m0, m1], its cells in C order along the last axis.
    """
    blocks, order = _blocks(grid, v)
    return values.reshape(blocks).transpose(order).reshape(blocks[::2] + (-1,))


def cells_to_grid(grid: Grid, cells: np.ndarray, v: int) -> np.ndarray:
    """Grid-shaped array of a level-v `cube_cells` layout; the inverse of cube_cells."""
    blocks, order = _blocks(grid, v)
    return cells.reshape(blocks[::2] + blocks[1::2]).transpose(order).reshape(grid.shape)


def cube_corners(grid: Grid, values: np.ndarray, v: int) -> np.ndarray:
    """Writable view of the values at the level-v cube corners, cube (m0, m1) at [m0, m1]."""
    grid.check_level(v)
    return values[(slice(None, None, grid.cells_per_axis(v)),) * grid.n]
