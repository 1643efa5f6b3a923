"""Dyadic coefficient sequences and their weighted sequence-space norms.

A coefficient set stores one complex array per level v = 0..V, indexed by
the cube index m of Q_{v,m}; its support is the set of nonzero entries.
Norms work level by level: F_v(x) = sum_m 2^{v(alpha(x)+n/2)} |lam_{v,m}| chi_{v,m}(x)
is the level array broadcast over its cubes times the weight, the family
goes to the mixed Lebesgue norm, and the endpoint space replaces the outer
norm by a supremum of cube-averaged tail sums.  Moduli come from `np.hypot`
(equal to `abs(complex)`) and powers of single coefficients from scalar
float pow, so every value matches a cube-by-cube evaluation bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .errors import InvalidConfiguration, InvalidInput, InvalidSelection
from .exponents import ExponentField
from .grid import Grid, GridFunction, cells_to_grid, cube_broadcast, cube_cells, cube_sums
from .lebesgue import DEFAULT_TOL, NormResult, mixed_norm

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


def _level_shape(grid: Grid, v: int) -> tuple[int, ...]:
    return (grid.cubes_per_axis(v),) * grid.n


def _levels_from_keys(grid: Grid, levels: list[np.ndarray], data: Mapping,
                      entry=lambda key, raw: complex(raw)) -> list[np.ndarray]:
    """Write entry(key, raw) at [m] of levels[v] for each validated key (v, m) of data."""
    V = len(levels) - 1
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
        levels[v][m] = entry((v, m), raw)
    return levels


@dataclass(eq=False)
class DyadicCoefficients:
    """Coefficients lam_{v,m} on the grid's dyadic cubes of levels 0..V.

    `levels[v]` is a complex array of shape (cubes_per_axis(v),)*n holding
    lam_{v,m} at [m]; zero entries lie outside the support.  The arrays are
    copied and validated as wholes.  The keyed form {(v, m): value} (m an
    index tuple, or an int when n = 1) is accepted in their place and
    checked key by key; `items()` and the records are its sorted views.
    """

    grid: Grid
    V: int
    levels: list[np.ndarray] = dc_field(repr=False)

    def __post_init__(self) -> None:
        self.V = int(self.V)
        self.grid.check_level(self.V)
        levels = self.levels
        if isinstance(levels, Mapping):
            levels = _levels_from_keys(self.grid, [np.zeros(_level_shape(self.grid, v), np.complex128)
                                                   for v in range(self.V + 1)], levels)
        levels = [np.array(a, dtype=np.complex128) for a in levels]
        if len(levels) != self.V + 1:
            raise InvalidInput(
                f"{len(levels)} level arrays given for declared max level {self.V}")
        for v, a in enumerate(levels):
            if a.shape != _level_shape(self.grid, v):
                raise InvalidConfiguration(
                    f"level {v} array has shape {a.shape}, not {_level_shape(self.grid, v)}")
            if not np.isfinite(a).all():
                raise InvalidInput(f"level {v} holds a non-finite coefficient")
        self.levels = levels

    def __eq__(self, other) -> bool:
        if not isinstance(other, DyadicCoefficients):
            return NotImplemented
        return (self.grid == other.grid and self.V == other.V
                and all(np.array_equal(a, b) for a, b in zip(self.levels, other.levels)))

    def level_support(self, v: int) -> tuple[tuple[np.ndarray, ...], list[Key]]:
        """Index arrays of the nonzero level-v entries and their keys, in index order."""
        nz = np.nonzero(self.levels[v])
        return nz, [(v, m) for m in zip(*(i.tolist() for i in nz))]

    def moduli(self, v: int) -> np.ndarray:
        """|lam_{v,m}| over the level-v cube indices; zeros above V."""
        if v > self.V:
            return np.zeros(_level_shape(self.grid, v))
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
        return sum(int(np.count_nonzero(a)) for a in self.levels)

    def scaled(self, c: complex) -> "DyadicCoefficients":
        return DyadicCoefficients(self.grid, self.V, [c * a for a in self.levels])

    def restricted(self, keys) -> "DyadicCoefficients":
        """Truncation keeping only the given support keys."""
        return DyadicCoefficients(self.grid, self.V, {(v, m): self.value(v, m) for v, m in keys})

    def to_records(self) -> list[tuple[int, list[int], float, float]]:
        return [(v, list(m), val.real, val.imag) for (v, m), val in self.items()]

    @classmethod
    def from_records(cls, grid: Grid, V: int, records) -> "DyadicCoefficients":
        return cls(grid, V, {_normalize_key(v, m): complex(re, im) for v, m, re, im in records})


def _constant_exponent(q) -> float:
    if isinstance(q, ExponentField):
        if not q.is_constant:
            raise InvalidInput("this norm is defined for constant q only")
        q = q.min
    q = float(q)
    if not (0.0 < q < math.inf):
        raise InvalidInput(f"exponent q={q} must lie in (0, inf)")
    return q


def _check_grid(lam: DyadicCoefficients, *fields: ExponentField) -> None:
    for f in fields:
        if f.grid != lam.grid:
            raise InvalidInput("coefficients and exponent fields live on different grids")


def _pow_entries(mod: np.ndarray, q: float) -> np.ndarray:
    """mod**q with one scalar pow per nonzero entry."""
    if q == 1.0:
        return mod
    out = np.zeros_like(mod)
    nz = np.nonzero(mod)
    out[nz] = [x ** q for x in mod[nz].tolist()]
    return out


def _level_integrand(lam: DyadicCoefficients, alpha: ExponentField, v: int,
                     q: float = 1.0) -> np.ndarray:
    """2^{v(alpha(x)+n/2)q} sum_m |lam_{v,m}|^q chi_{v,m}(x); q = 1 gives F_v."""
    grid = lam.grid
    amp = cube_broadcast(grid, _pow_entries(lam.moduli(v), q), v)
    return amp * np.exp2(v * q * (alpha.values + 0.5 * grid.n))


def level_function(lam: DyadicCoefficients, alpha: ExponentField, v: int) -> GridFunction:
    """F_v(x) = sum_m 2^{v(alpha(x)+n/2)} |lam_{v,m}| chi_{v,m}(x)."""
    return GridFunction(lam.grid, _level_integrand(lam, alpha, v))


def f_norm(lam: DyadicCoefficients, alpha: ExponentField, p: ExponentField,
           q: ExponentField, tol: float = DEFAULT_TOL) -> NormResult:
    """Sequence-space norm: mixed (p, q) norm of the weighted level functions."""
    _check_grid(lam, alpha, p, q)
    family = [level_function(lam, alpha, v) for v in range(lam.V + 1)]
    return mixed_norm(family, p, q, tol=tol)


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
    for w in range(len(integrands) - 1, -1, -1):
        tail = tail + integrands[w]
        per_cube = cube_sums(grid, tail, w) * hn
        top = float(per_cube.max())
        if top > 0.0:
            best = max(best, 2.0 ** (w * n / q) * top ** (1.0 / q))
    return best


def f_infty_norm(lam: DyadicCoefficients, alpha: ExponentField, q) -> float:
    """Endpoint norm: sup over dyadic cubes Q of side <= 1 of the averaged tail

    |Q|^{-1/q} (sum_{v >= level(Q)} int_Q 2^{v(alpha(x)+n/2)q} |lam|^q chi)^{1/q},
    the tail cut exactly at the coefficient max level.
    """
    q = _constant_exponent(q)
    _check_grid(lam, alpha)
    if not lam:
        return 0.0
    levels = [_level_integrand(lam, alpha, v, q) for v in range(lam.V + 1)]
    return dyadic_tail_sup(lam.grid, levels, q)


def coefficient_bound_check(lam: DyadicCoefficients, alpha: ExponentField,
                            p: ExponentField, q: ExponentField) -> float:
    """Worst ratio |lam_{j,m}| 2^{j(alpha(x)-n/p(x)+n/2)} / f_norm over support and x in Q."""
    _check_grid(lam, alpha, p, q)
    norm = f_norm(lam, alpha, p, q).value
    if norm == 0.0:
        raise InvalidInput("coefficient bound is undefined for zero norm")
    grid = lam.grid
    n = grid.n
    expo = alpha.values - n / p.values + 0.5 * n
    worst = 0.0
    for j in range(lam.V + 1):
        mod = lam.moduli(j)
        nz = np.nonzero(mod)
        # j >= 0, so the pointwise max of 2^{j expo} over a cube sits at max expo
        top = cube_cells(grid, expo, j).max(axis=-1)[nz]
        for a, e in zip(mod[nz].tolist(), top.tolist()):
            worst = max(worst, a * 2.0 ** (j * e) / norm)
    return worst


def _cells_shape(grid: Grid, v: int) -> tuple[int, ...]:
    return _level_shape(grid, v) + (grid.cells_per_axis(v) ** grid.n,)


def _mask_row(grid: Grid, key: Key, block) -> np.ndarray:
    mask = np.asarray(block, dtype=bool)
    shape = (grid.cells_per_axis(key[0]),) * grid.n
    if mask.shape != shape or not mask.any():
        raise InvalidSelection(f"mask for {key} of shape {mask.shape} is not a nonempty cell "
                               f"subset of the cube block {shape}")
    return mask.ravel()


@dataclass(eq=False)
class SubsetSelection:
    """Cell subsets E_Q of the supported cubes, each covering strictly more than half of Q.

    `levels[v]` is a bool array in the `cube_cells` layout
    (cubes_per_axis(v),)*n + (cells**n,): row [m] marks the cells of Q_{v,m}
    in C order, and an all-false row leaves the cube unselected.  So E_Q <= Q
    holds by construction and the measure condition is checked level by
    level.  Levels are padded with empty ones up to grid.v_max.  The keyed
    form {(v, m): block}, block in the cube's own cell shape, is accepted in
    place of the arrays; `masks` is its view.
    """

    grid: Grid
    levels: list[np.ndarray] = dc_field(repr=False)

    def __post_init__(self) -> None:
        grid = self.grid
        empty = [np.zeros(_cells_shape(grid, v), dtype=bool) for v in range(grid.v_max + 1)]
        levels = self.levels
        if isinstance(levels, Mapping):
            levels = _levels_from_keys(grid, empty, levels,
                                       lambda key, block: _mask_row(grid, key, block))
        levels = [np.array(a, dtype=bool) for a in levels]
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

    @cached_property
    def masks(self) -> dict[Key, np.ndarray]:
        """{(v, m): E_Q in the cube's cell shape} over the selected cubes, in key order."""
        out = {}
        for v, keep in enumerate(self.levels):
            block = (self.grid.cells_per_axis(v),) * self.grid.n
            for m in zip(*(i.tolist() for i in np.nonzero(keep.any(axis=-1)))):
                out[(v, m)] = keep[m].reshape(block)
        return out


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
    q = _constant_exponent(q)
    _check_grid(lam, alpha)
    grid = lam.grid
    levels = []
    for v in range(lam.V + 1):
        blocks = cube_cells(grid, _level_integrand(lam, alpha, v, q), v)
        ranks = np.argsort(np.argsort(blocks, axis=-1, kind="stable"), axis=-1)
        levels.append((ranks <= blocks.shape[-1] // 2) & (lam.levels[v] != 0)[..., None])
    return SubsetSelection(grid, levels)


def f_infty_subset_norm(lam: DyadicCoefficients, alpha: ExponentField, q,
                        sel: SubsetSelection) -> float:
    """Grid max of (sum_{v,m} 2^{v(alpha(x)+n/2)q} |lam_{v,m}|^q chi_{E_{v,m}}(x))^{1/q}."""
    q = _constant_exponent(q)
    _check_grid(lam, alpha)
    if sel.grid != lam.grid:
        raise InvalidSelection("selection built on a different grid")
    if any(not np.array_equal(keep.any(axis=-1), lam.moduli(v) != 0)
           for v, keep in enumerate(sel.levels)):
        raise InvalidSelection("selection must cover exactly the coefficient support")
    if not lam:
        return 0.0
    grid = lam.grid
    total = np.zeros(grid.shape)
    for v in range(lam.V + 1):
        keep = cells_to_grid(grid, sel.levels[v], v)
        total += np.where(keep, _level_integrand(lam, alpha, v, q), 0.0)
    return float(total.max()) ** (1.0 / q)


def _support_cells(lam: DyadicCoefficients) -> int:
    grid = lam.grid
    return sum(int(np.count_nonzero(a)) * grid.cells_per_axis(v) ** grid.n
               for v, a in enumerate(lam.levels))


def prop1_equivalence_check(lam: DyadicCoefficients, alpha: ExponentField,
                            q) -> tuple[float, float]:
    """(endpoint norm, best subset value found); their ratio is the recorded bracket.

    The subset route tries the greedy rule and the trivial E = Q selection
    and keeps the smaller value.
    """
    q = _constant_exponent(q)
    _check_grid(lam, alpha)
    if not lam:
        return 0.0, 0.0
    if _support_cells(lam) > GREEDY_CELL_LIMIT:
        raise InvalidInput("support too large for the subset search route")
    direct = f_infty_norm(lam, alpha, q)
    best = min(
        f_infty_subset_norm(lam, alpha, q, greedy_selection(lam, alpha, q)),
        f_infty_subset_norm(lam, alpha, q, full_selection(lam)),
    )
    return direct, best
