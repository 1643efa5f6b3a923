"""Dyadic coefficient sequences and their weighted sequence-space norms.

A coefficient set keeps lam_{v,m}, v = 0..V, in one flat complex array,
level-major and each level in C order over the cube index m of Q_{v,m}; its
support is the set of nonzero entries.  Norms act on one (V + 1, *grid.shape)
array whose row v, F_v(x) = sum_m 2^{v(alpha(x)+n/2)} |lam_{v,m}| chi_{v,m}(x),
is level v broadcast over its cubes times the weight.  It is built from the
flat array for all levels at once: n `np.repeat` calls spread each entry over
its cube's cells, with repeat counts from a per-(grid, V) layout
(`_entry_layout`) that also gives each entry's level and its cube's corner on
the grid and holds nothing per cell.  The array goes to `lebesgue.stack` and
the Luxemburg solve as it is; the endpoint space replaces the outer norm by a
supremum of cube-averaged tail sums.  Moduli come from `np.hypot` (equal to
`abs(complex)`) and powers of single coefficients from `np.float_power`,
whose float64 loop calls libm `pow` as Python's float pow does, so every
value matches a cube-by-cube evaluation bit for bit.  `_pow_each` is the one
place that takes that pow, here and in the factorizations of `calderon`:
`np.power` has SIMD loops that can differ from it by an ulp.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import InvalidConfiguration, InvalidInput, InvalidSelection
from .exponents import ExponentField, _constant_value
from .grid import (Grid, GridFunction, _within_float_range, cells_to_grid, common_grid,
                   cube_cells, cube_sums)
from .lebesgue import NormResult, luxemburg_norm, stack

__all__ = [
    "DyadicCoefficients",
    "SubsetSelection",
    "level_function",
    "f_norm",
    "dyadic_tail_sup",
    "f_infty_norm",
    "coefficient_bound_check",
    "full_selection",
    "greedy_selection",
    "f_infty_subset_norm",
    "prop1_equivalence_check",
]

Key = tuple[int, tuple[int, ...]]

# cell budget for the subset-selection search routes
GREEDY_CELL_LIMIT = 2 ** 20
# what a float-range error names, for the level integrands and for their sums
_INTEGRAND = "a level integrand 2^(v (alpha + n/2) q) |lam|^q or its sum"


def _as_int(x, what: str) -> int:
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)) and float(x).is_integer():
        return int(x)
    raise InvalidInput(f"{what} {x!r} is not an integer")


def _normalize_key(v, m) -> Key:
    if not isinstance(m, (tuple, list, np.ndarray)):
        m = (m,)
    return _as_int(v, "coefficient level"), tuple(_as_int(mi, "cube index") for mi in m)


@functools.cache
def _level_slices(grid: Grid, V: int) -> tuple[tuple[slice, tuple[int, ...]], ...]:
    """(slice, shape) of each level 0..V in a flat array that holds them level-major."""
    shapes = [(grid.cubes_per_axis(v),) * grid.n for v in range(V + 1)]
    ends = np.cumsum([0] + [math.prod(shape) for shape in shapes]).tolist()
    return tuple(zip(map(slice, ends, ends[1:]), shapes))


@functools.cache
def _entry_layout(grid: Grid, V: int) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Per-entry geometry of a flat array over levels 0..V, held level-major: the level
    of each entry, the flat grid index of its cube's lower corner, and the repeat counts
    that spread the entries over their cells (`_coefficient_levels`).

    Broadcast step k repeats rows of N^k values: level v has C^(n-k) of them, C its
    cubes per axis, each repeated c = N / C times.  All of it is per cube, not per cell.
    """
    n, N = grid.n, grid.N
    cubes = np.array([grid.cubes_per_axis(v) for v in range(V + 1)])
    cells = N // cubes
    level = np.repeat(np.arange(V + 1), cubes ** n)
    corner = np.concatenate([functools.reduce(np.add.outer, [np.arange(0, N, c) * N ** k
                                                             for k in range(n - 1, -1, -1)]).ravel()
                             for c in cells])
    return level, corner, tuple(np.repeat(cells, cubes ** (n - k)) for k in range(n))


def _key_of(grid: Grid, V: int, i: int) -> Key:
    """The key (v, m) of entry i of a flat array over levels 0..V, held level-major."""
    v = int(_entry_layout(grid, V)[0][i])
    part, shape = _level_slices(grid, V)[v]
    return v, tuple(int(mi) for mi in np.unravel_index(i - part.start, shape))


def _split(grid: Grid, V: int, flat: np.ndarray) -> list[np.ndarray]:
    """The level arrays 0..V as reshaped views of `flat`, which holds them level-major."""
    return [flat[part].reshape(shape) for part, shape in _level_slices(grid, V)]


def _levels_from_keys(grid: Grid, V: int, data: Mapping) -> list[np.ndarray]:
    """Level arrays 0..V holding complex(raw) at [m] of level v for each validated key (v, m)."""
    levels = [np.zeros(shape, np.complex128) for _, shape in _level_slices(grid, V)]
    for key, raw in data.items():
        if not (isinstance(key, tuple) and len(key) == 2):
            raise InvalidInput(f"key {key!r} is not a (level, index) pair")
        v, m = _normalize_key(*key)
        if v > V:
            raise InvalidInput(f"level {v} exceeds declared max level {V}")
        grid.check_level(v)
        if len(m) != grid.n or any(mi < 0 or mi >= grid.cubes_per_axis(v) for mi in m):
            raise InvalidConfiguration(f"cube (v={v}, m={m}) is not a cube of the n={grid.n} "
                                       f"box [0, {2 * grid.L})^{grid.n}")
        try:
            levels[v][m] = complex(raw)
        except (TypeError, ValueError):
            raise InvalidInput(f"coefficient {(v, m)} value {raw!r} is not a number") from None
    return levels


@dataclass(eq=False)
class DyadicCoefficients:
    """Coefficients lam_{v,m} on the grid's dyadic cubes of levels 0..V.

    `flat` holds lam_{v,m} level by level, v = 0..V, each level in C order over
    m, the order of sorted keys; zero entries lie outside the support, and
    `levels[v]` is level v's view in `flat`, of shape (cubes_per_axis(v),)*n.
    Level arrays are copied and validated as wholes; the keyed form {(v, m):
    value} (m an index tuple, or an int when n = 1) is accepted in their place
    and checked key by key; `items()` and the records are its sorted views.
    """

    grid: Grid
    V: int
    levels: list[np.ndarray] = dc_field(repr=False)
    flat: np.ndarray = dc_field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.V = int(self.V)
        self.grid.check_level(self.V)
        levels = self.levels
        if isinstance(levels, Mapping):
            levels = _levels_from_keys(self.grid, self.V, levels)
        try:
            levels = [np.asarray(a, dtype=np.complex128) for a in levels]
        except (TypeError, ValueError):
            raise InvalidInput("a level array holds a value that is not a number") from None
        if len(levels) != self.V + 1:
            raise InvalidInput(
                f"{len(levels)} level arrays given for declared max level {self.V}")
        for v, (a, (_, shape)) in enumerate(zip(levels, _level_slices(self.grid, self.V))):
            if a.shape != shape:
                raise InvalidConfiguration(f"level {v} array has shape {a.shape}, not {shape}")
        self.flat = np.concatenate([a.ravel() for a in levels])
        finite = np.isfinite(self.flat.view(np.float64))  # real and imaginary parts
        if not finite.all():
            v, _ = _key_of(self.grid, self.V, np.argmin(finite) // 2)
            raise InvalidInput(f"level {v} holds a non-finite coefficient")
        self.levels = _split(self.grid, self.V, self.flat)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DyadicCoefficients):
            return NotImplemented
        return (self.grid == other.grid and self.V == other.V
                and np.array_equal(self.flat, other.flat))

    def level_support(self, v: int) -> tuple[tuple[np.ndarray, ...], list[Key]]:
        """Index arrays of the nonzero level-v entries and their keys, in index order."""
        nz = np.nonzero(self.levels[v])
        return nz, [(v, m) for m in zip(*(i.tolist() for i in nz))]

    def moduli(self, v: int) -> np.ndarray:
        """|lam_{v,m}| over the level-v cube indices; zeros above V."""
        if v > self.V:
            return np.zeros((self.grid.cubes_per_axis(v),) * self.grid.n)
        a = self.levels[v]
        return np.hypot(a.real, a.imag)

    def items(self) -> list[tuple[Key, complex]]:
        return [(key, complex(self.levels[key[0]][key[1]])) for key in self.support()]

    def support(self) -> list[Key]:
        return [key for v in range(self.V + 1) for key in self.level_support(v)[1]]

    def value(self, v: int, m) -> complex:
        v, m = _normalize_key(v, m)
        top = self.grid.cubes_per_axis(v) if 0 <= v <= self.V else 0
        inside = len(m) == self.grid.n and all(0 <= mi < top for mi in m)
        return complex(self.levels[v][m]) if inside else 0.0 + 0.0j

    def __len__(self) -> int:
        return int(np.count_nonzero(self.flat))

    def scaled(self, c: complex) -> "DyadicCoefficients":
        return DyadicCoefficients(self.grid, self.V, _split(self.grid, self.V, c * self.flat))

    def restricted(self, keys) -> "DyadicCoefficients":
        """Truncation keeping only the given support keys."""
        return DyadicCoefficients(self.grid, self.V, {(v, m): self.value(v, m) for v, m in keys})

    def to_records(self) -> list[tuple[int, list[int], float, float]]:
        return [(v, list(m), val.real, val.imag) for (v, m), val in self.items()]

    @classmethod
    def from_records(cls, grid: Grid, V: int, records) -> "DyadicCoefficients":
        return cls(grid, V, {_normalize_key(v, m): complex(re, im) for v, m, re, im in records})


def _constant_exponent(q) -> float:
    q = _constant_value(q, "q")
    if not (0.0 < q < math.inf):
        raise InvalidInput(f"exponent q={q} must lie in (0, inf)")
    return q


def _pow_each(base, expo) -> np.ndarray:
    """base ** expo elementwise, each value Python's float pow of its pair; the arguments broadcast."""
    with _within_float_range("a coefficient power"):
        return np.float_power(base, expo)


def _coefficient_levels(lam: DyadicCoefficients, alpha: ExponentField,
                        q: float = 1.0) -> np.ndarray:
    """The (V + 1, *grid.shape) array of G_0..G_V, under one float-range guard:
    G_v(x) = 2^{v(alpha(x)+n/2)q} sum_m |lam_{v,m}|^q chi_{v,m}(x), and q = 1 gives F_v."""
    grid = lam.grid
    v = np.arange(1, lam.V + 1).reshape((-1,) + (1,) * grid.n)
    with _within_float_range(_INTEGRAND, q):
        levels = _pow_each(np.hypot(lam.flat.real, lam.flat.imag), q)
        for reps in _entry_layout(grid, lam.V)[2]:
            levels = np.repeat(levels.reshape(reps.size, -1), reps, axis=0)
        levels = levels.reshape((lam.V + 1,) + grid.shape)
        # level 0's weight is 2^0 = 1 exactly, so only the levels above it are weighted
        weighted = levels[1:]
        np.multiply(weighted, np.exp2(v * q * (alpha.values + 0.5 * grid.n)), out=weighted)
        return levels


def _level_sum(lam: DyadicCoefficients, alpha: ExponentField, q: float,
               keep=None) -> tuple[np.ndarray, float]:
    """(S, (max S)^{1/q}) for S = sum_v G_v, added in level order; with `keep`, G_v
    only on the cells keep[v] marks (the `cube_cells` layout of `SubsetSelection.levels`)."""
    mask = True if keep is None else [cells_to_grid(lam.grid, k, v)
                                      for v, k in zip(range(lam.V + 1), keep)]
    with _within_float_range(_INTEGRAND, q):
        total = _coefficient_levels(lam, alpha, q).sum(axis=0, where=mask)
    with _within_float_range("the q-th root of a level sum", q):
        return total, float(total.max()) ** (1.0 / q)


def level_function(lam: DyadicCoefficients, alpha: ExponentField, v: int) -> GridFunction:
    """F_v(x) = sum_m 2^{v(alpha(x)+n/2)} |lam_{v,m}| chi_{v,m}(x); zero above V."""
    grid = common_grid(lam, alpha)
    grid.check_level(v)
    return GridFunction(grid, _coefficient_levels(lam, alpha)[v] if v <= lam.V
                        else np.zeros(grid.shape))


def f_norm(lam: DyadicCoefficients, alpha: ExponentField, p: ExponentField,
           q: ExponentField) -> NormResult:
    """Sequence-space norm: mixed (p, q) norm of the weighted level functions."""
    common_grid(lam, alpha, p, q)
    return luxemburg_norm(stack(_coefficient_levels(lam, alpha), q), p)


def dyadic_tail_sup(grid: Grid, integrands, q: float) -> float:
    """sup over dyadic cubes Q of side <= 1 of |Q|^{-1/q} (sum_{v >= level(Q)} int_Q G_v)^{1/q}.

    `integrands` lists the level arrays G_v for v = 0..V; the tail is cut
    exactly at V.  Levels finer than V contribute empty tails and are skipped.
    """
    hn = grid.h ** grid.n
    n = grid.n
    tail = np.zeros(grid.shape)
    best = 0.0
    # suffix-accumulate the level integrands so level-w cubes see sum_{v>=w}
    with _within_float_range("a tail sum of level integrands", q):
        for w in range(len(integrands) - 1, -1, -1):
            tail = tail + integrands[w]
            per_cube = cube_sums(grid, tail, w) * hn
            top = float(per_cube.max())
            if top > 0.0:
                # numpy's multiply, so that an overflow raises in the guard
                best = max(best, float(np.multiply(2.0 ** (w * n / q), top ** (1.0 / q))))
    return best


def f_infty_norm(lam: DyadicCoefficients, alpha: ExponentField, q) -> float:
    """Endpoint norm: sup over dyadic cubes Q of side <= 1 of the averaged tail

    |Q|^{-1/q} (sum_{v >= level(Q)} int_Q 2^{v(alpha(x)+n/2)q} |lam|^q chi)^{1/q},
    the tail cut exactly at the coefficient max level.
    """
    common_grid(lam, alpha, q)
    q = _constant_exponent(q)
    if not lam:
        return 0.0
    return dyadic_tail_sup(lam.grid, _coefficient_levels(lam, alpha, q), q)


def coefficient_bound_check(lam: DyadicCoefficients, alpha: ExponentField,
                            p: ExponentField, q: ExponentField) -> float:
    """Worst ratio |lam_{j,m}| 2^{j(alpha(x)-n/p(x)+n/2)} / f_norm over support and x in Q."""
    grid = common_grid(lam, alpha, p, q)
    norm = f_norm(lam, alpha, p, q).value
    if norm == 0.0:
        raise InvalidInput("coefficient bound is undefined for zero norm")
    n = grid.n
    expo = alpha.values - n / p.values + 0.5 * n
    mod = np.hypot(lam.flat.real, lam.flat.imag)
    nz = np.flatnonzero(mod)
    # j >= 0, so the pointwise max of 2^{j expo} over a cube sits at max expo
    jtop = np.concatenate([j * cube_cells(grid, expo, j).max(axis=-1).ravel()
                           for j in range(lam.V + 1)])[nz]
    return float((mod[nz] * _pow_each(2.0, jtop) / norm).max(initial=0.0))


def _cells_shape(grid: Grid, v: int) -> tuple[int, ...]:
    return (grid.cubes_per_axis(v),) * grid.n + (grid.cells_per_axis(v) ** grid.n,)


@dataclass(eq=False)
class SubsetSelection:
    """Cell subsets E_Q of the supported cubes, each covering strictly more than half of Q.

    `levels[v]` is a bool array in the `cube_cells` layout
    (cubes_per_axis(v),)*n + (cells**n,): row [m] marks the cells of Q_{v,m}
    in C order, and an all-false row leaves the cube unselected.  So E_Q <= Q
    holds by construction and the measure condition is checked level by
    level.  Levels are padded with empty ones up to grid.v_max.
    """

    grid: Grid
    levels: list[np.ndarray] = dc_field(repr=False)

    def __post_init__(self) -> None:
        grid = self.grid
        empty = [np.zeros(_cells_shape(grid, v), dtype=bool) for v in range(grid.v_max + 1)]
        levels = [np.array(a, dtype=bool) for a in self.levels]
        for v, keep in enumerate(levels):
            grid.check_level(v)
            if keep.shape != _cells_shape(grid, v):
                raise InvalidSelection(
                    f"level {v} selection has shape {keep.shape}, not {_cells_shape(grid, v)}")
            counts = keep.sum(axis=-1)
            bad = np.argwhere((counts > 0) & (2 * counts <= keep.shape[-1]))
            if len(bad):
                m = tuple(bad[0].tolist())
                raise InvalidSelection(f"{counts[m]} of {keep.shape[-1]} cells is not more "
                                       f"than half of the cube (v={v}, m={m})")
        self.levels = levels + empty[len(levels):]


def full_selection(lam: DyadicCoefficients) -> SubsetSelection:
    """The selection E_Q = Q on every supported cube."""
    grid = lam.grid
    return SubsetSelection(grid, [np.repeat((a != 0)[..., None], grid.cells_per_axis(v) ** grid.n,
                                            axis=-1) for v, a in enumerate(lam.levels)])


def greedy_selection(lam: DyadicCoefficients, alpha: ExponentField, q) -> SubsetSelection:
    """Keep the floor(cells/2)+1 cells of smallest integrand per cube.

    Ties are broken by cell index (stable sort on the C-order flattening of
    the cube's block).
    """
    grid = common_grid(lam, alpha, q)
    keep = []
    for v, level in enumerate(_coefficient_levels(lam, alpha, _constant_exponent(q))):
        blocks = cube_cells(grid, level, v)
        ranks = np.argsort(np.argsort(blocks, axis=-1, kind="stable"), axis=-1)
        keep.append((ranks <= blocks.shape[-1] // 2) & (lam.levels[v] != 0)[..., None])
    return SubsetSelection(grid, keep)


def f_infty_subset_norm(lam: DyadicCoefficients, alpha: ExponentField, q,
                        sel: SubsetSelection) -> float:
    """Grid max of (sum_{v,m} 2^{v(alpha(x)+n/2)q} |lam_{v,m}|^q chi_{E_{v,m}}(x))^{1/q}."""
    common_grid(lam, alpha, q, sel)
    q = _constant_exponent(q)
    if any(not np.array_equal(keep.any(axis=-1), lam.moduli(v) != 0)
           for v, keep in enumerate(sel.levels)):
        raise InvalidSelection("selection must cover exactly the coefficient support")
    if not lam:
        return 0.0
    return _level_sum(lam, alpha, q, sel.levels)[1]


def prop1_equivalence_check(lam: DyadicCoefficients, alpha: ExponentField,
                            q) -> tuple[float, float]:
    """(endpoint norm, best subset value found); their ratio is the recorded bracket.

    The subset route tries the greedy rule and the trivial E = Q selection
    and keeps the smaller value.
    """
    grid = common_grid(lam, alpha, q)
    q = _constant_exponent(q)
    if not lam:
        return 0.0, 0.0
    if sum(int(np.count_nonzero(a)) * grid.cells_per_axis(v) ** grid.n
           for v, a in enumerate(lam.levels)) > GREEDY_CELL_LIMIT:
        raise InvalidInput("support too large for the subset search route")
    direct = f_infty_norm(lam, alpha, q)
    best = min(
        f_infty_subset_norm(lam, alpha, q, greedy_selection(lam, alpha, q)),
        f_infty_subset_norm(lam, alpha, q, full_selection(lam)),
    )
    return direct, best
