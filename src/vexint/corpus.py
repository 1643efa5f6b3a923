"""Seeded input generators shared by the experiment driver and the suite.

Every generator is deterministic in (parameters, seed): the draw order is
fixed, so a fixed seed reproduces the corpus item for item.  Coefficient
values follow the documented distribution: log-uniform magnitudes in
[1e-3, 1e3] with uniform phases, support uniform over the valid dyadic
cubes up to the requested level.  A count, an item number or a seed that
is not a non-negative integer is an InvalidInput naming it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInput
from .grid import Grid, GridFunction, _within_float_range
from .lpf import _fft
from .seqspaces import DyadicCoefficients, _split

MAG_LOW = 1.0e-3
MAG_HIGH = 1.0e3
# the one coefficient distribution, named in configs
DISTRIBUTIONS = ("log-uniform",)


def _count(name: str, x) -> int:
    """x, which must be a non-negative integer; anything else is an InvalidInput naming it."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or x < 0:
        raise InvalidInput(f"{name} must be a non-negative integer, got {x!r}")
    return int(x)


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(_count("seed", seed))


def random_coefficients(grid: Grid, V: int, count: int, rng) -> DyadicCoefficients:
    """One coefficient set: `count` draws, later draws overwrite on collision.

    Each draw picks one of the cubes of levels 0..V, numbered level by level
    and in C order within a level.
    """
    grid.check_level(V)
    count = _count("count", count)
    total = sum(grid.cubes_per_axis(j) ** grid.n for j in range(int(V) + 1))
    idx = rng.integers(0, total, size=count)
    mags = 10.0 ** rng.uniform(np.log10(MAG_LOW), np.log10(MAG_HIGH), size=count)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=count)
    # the last draw of a repeated cube wins
    last = count - 1 - np.unique(idx[::-1], return_index=True)[1]
    flat = np.zeros(total, dtype=np.complex128)
    flat.real[idx[last]] = mags[last] * np.cos(phases[last])
    flat.imag[idx[last]] = mags[last] * np.sin(phases[last])
    return DyadicCoefficients(grid, V, _split(grid, int(V), flat))


def coefficient_corpus(grid: Grid, V: int, items: int, count: int,
                       seed: int) -> list[DyadicCoefficients]:
    rng = _rng(seed)
    return [random_coefficients(grid, V, count, rng) for _ in range(_count("items", items))]


def random_modes(n: int, L: float, radius: float, count: int, rng) -> dict:
    """Integer Fourier modes k with |pi k / L| <= radius, grid-independent.

    Returned as {k tuple: coefficient}; the same mode set realizes the same
    trigonometric polynomial on every refinement of the box.  L is positive
    and finite, and radius non-negative with radius L / pi below 2^62, so
    that every draw is an int64.
    """
    if not 0.0 < L < math.inf:
        raise InvalidInput(f"box half-length L must be positive and finite, got {L}")
    if not 0.0 <= radius * L / math.pi < 2.0 ** 62:
        raise InvalidInput(f"mode radius {radius} must be non-negative with radius L / pi "
                           f"below 2^62 (L={L})")
    count = _count("count", count)
    kmax = int(radius * L / np.pi)
    draws = rng.integers(-kmax, kmax + 1, size=(count, n))
    coeffs = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    keep = np.hypot.reduce(draws * np.pi / L, axis=1) <= radius
    # a repeated mode keeps its first position and its last coefficient
    return dict(zip(map(tuple, draws[keep].tolist()), coeffs[keep]))


def trig_polynomial(grid: Grid, modes: dict) -> GridFunction:
    """Realize sum_k c_k e^{i pi k.x / L} by placing the modes in FFT bins.

    Each mode k is a tuple of grid.n integers below the Nyquist index N/2 in
    absolute value."""
    spec = np.zeros(grid.shape, dtype=np.complex128)
    with _within_float_range("a trigonometric polynomial's samples"):
        for k, c in modes.items():
            if not (type(k) is tuple and all([isinstance(ki, (int, np.integer)) for ki in k])):
                raise InvalidInput(f"mode {k!r} in modes is not a tuple of integers")
            if len(k) != grid.n:
                raise InvalidInput(f"mode {k} does not match dimension {grid.n}")
            if any(abs(ki) >= grid.N // 2 for ki in k):
                raise InvalidInput(f"mode {k} is beyond the grid Nyquist index")
            spec[tuple(ki % grid.N for ki in k)] += c
        values = _fft(spec, True) * grid.size
    return GridFunction(grid, values)


def mode_corpus(n: int, L: float, radius: float, items: int, count: int,
                seed: int) -> list[dict]:
    rng = _rng(seed)
    return [random_modes(n, L, radius, count, rng) for _ in range(_count("items", items))]


def band_limited_corpus(grid: Grid, radius: float, items: int, count: int,
                        seed: int) -> list[GridFunction]:
    return [trig_polynomial(grid, modes)
            for modes in mode_corpus(grid.n, grid.L, radius, items, count, seed)]


def simple_function_corpus(grid: Grid, items: int, regions: int,
                           seed: int) -> list[list[tuple[complex, np.ndarray]]]:
    """Simple functions as (value, region mask) lists; regions are disjoint
    cell-aligned slabs along the first axis covering the box."""
    if regions < 1 or regions >= grid.N:
        raise InvalidInput(f"region count {regions} must lie in 1..N-1")
    rng = _rng(seed)
    axis = np.arange(grid.N)
    out = []
    for _ in range(_count("items", items)):
        cuts = np.sort(rng.choice(np.arange(1, grid.N), size=regions - 1, replace=False))
        bounds = [0, *cuts.tolist(), grid.N]
        mags = 10.0 ** rng.uniform(np.log10(MAG_LOW), np.log10(MAG_HIGH), size=regions)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=regions)
        pieces = []
        for j in range(regions):
            line = (axis >= bounds[j]) & (axis < bounds[j + 1])
            mask = line if grid.n == 1 else np.broadcast_to(
                line[:, None], grid.shape).copy()
            val = mags[j] * complex(np.cos(phases[j]), np.sin(phases[j]))
            pieces.append((val, mask))
        out.append(pieces)
    return out
