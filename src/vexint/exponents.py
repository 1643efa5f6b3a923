"""Exponent fields p(x), q(x), alpha(x) on a grid, and their regularity constants.

A field is near-constant near the box boundary by recipe design; the box
center plays the role of the origin when the decay constant is estimated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _accel
from .errors import ConjugateUndefined, InvalidConfiguration, InvalidExponent, InvalidInput
from .grid import Grid

__all__ = [
    "ExponentField",
    "LogHolderReport",
    "build_exponent",
    "log_holder_constants",
    "conjugate",
    "interpolate_exponents",
]

# all-pairs enumeration is exact up to this many grid points; beyond it the
# estimator switches to seeded stratified offset sampling
EXHAUSTIVE_POINT_LIMIT = 2 ** 16
SAMPLE_SEED = 0x5EED
SAMPLE_OFFSETS = 4096


@dataclass
class LogHolderReport:
    c_loc: float
    c_dec: float
    g_inf: float
    exhaustive: bool
    offsets_evaluated: int


@dataclass
class ExponentField:
    """Scalar field with declared range and role ('integrability' or 'smoothness')."""

    grid: Grid
    values: np.ndarray = dc_field(repr=False)
    lo: float
    hi: float
    role: str
    g_inf: float | None = None
    _lh_report: LogHolderReport | None = dc_field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.shape:
            raise InvalidInput("exponent field shape does not match grid")
        if not np.all(np.isfinite(self.values)):
            raise InvalidExponent("exponent field contains non-finite values")
        vmin, vmax = float(self.values.min()), float(self.values.max())
        if not (self.lo <= vmin and vmax <= self.hi):
            raise InvalidExponent(
                f"field range [{vmin}, {vmax}] escapes declared range [{self.lo}, {self.hi}]"
            )
        if self.role not in ("integrability", "smoothness"):
            raise InvalidExponent(f"unknown role {self.role!r}")
        if self.role == "integrability" and self.lo < 1.0:
            raise InvalidExponent(f"integrability exponent must satisfy p >= 1, got lo={self.lo}")
        if self.g_inf is None:
            # boundary representative: the corner is the point farthest from the center
            self.g_inf = float(self.values[(0,) * self.grid.n])

    @property
    def min(self) -> float:
        return float(self.values.min())

    @property
    def max(self) -> float:
        return float(self.values.max())

    @property
    def is_constant(self) -> bool:
        return self.values.min() == self.values.max()

    def reciprocal(self) -> "ExponentField":
        vals = 1.0 / self.values
        return ExponentField(
            self.grid, vals, float(vals.min()), float(vals.max()), "smoothness",
            g_inf=1.0 / self.g_inf,
        )


def build_exponent(grid: Grid, recipe: str, *, role: str = "integrability", **params) -> ExponentField:
    """Construct a field from a named recipe.

    constant(value); sine(base, amplitude, frequency): one full period of a
    first-axis sine per `frequency`; plateau(left, right, width): `left` near
    the boundary, `right` on the middle half, linear ramps of the given width.
    """
    name = recipe.replace("-perturbation", "").replace("-ramp", "")
    x1 = grid.coords()[0]
    if name == "constant":
        c = float(params["value"])
        vals = np.full(grid.shape, c)
        lo = hi = c
        g_inf = c
    elif name == "sine":
        base = float(params["base"])
        amp = float(params["amplitude"])
        freq = float(params.get("frequency", 1.0))
        vals = base + amp * np.sin(2.0 * math.pi * freq * x1 / (2.0 * grid.L))
        lo, hi = base - abs(amp), base + abs(amp)
        g_inf = base
    elif name == "plateau":
        left = float(params["left"])
        right = float(params["right"])
        w = float(params["width"])
        if not (0.0 < w <= grid.L):
            raise InvalidExponent(f"plateau transition width {w} must lie in (0, L={grid.L}]")
        L = grid.L
        knots_x = [0.0, L / 2 - w / 2, L / 2 + w / 2, 3 * L / 2 - w / 2, 3 * L / 2 + w / 2, 2 * L]
        knots_y = [left, left, right, right, left, left]
        vals = np.interp(x1, knots_x, knots_y)
        lo, hi = min(left, right), max(left, right)
        g_inf = left
    else:
        raise InvalidExponent(f"unknown recipe {recipe!r}")
    return ExponentField(grid, vals, lo, hi, role, g_inf=g_inf)


def _offset_profile(field: ExponentField, budget: int | None) -> tuple[np.ndarray, np.ndarray]:
    """(max_x |g(x) - g(x+k)|, periodic |k|) per lattice offset k, zero offset first.

    With `budget` None every offset is enumerated once up to the mirror
    symmetry k -> -k.  Otherwise about `budget` offsets are drawn, uniformly
    per dyadic radius band with a fixed seed, so equal budgets see equal
    offsets and budget doublings are comparable across calls.
    """
    grid = field.grid
    N = grid.N
    g = field.values
    if budget is None:
        if grid.n == 1:
            return _accel.offset_abs_max_1d(g), grid.h * np.arange(N // 2 + 1, dtype=np.float64)
        M = _accel.offset_abs_max_2d(g)
        k0 = np.arange(N // 2 + 1, dtype=np.float64)[:, None]
        k1 = np.arange(N, dtype=np.float64)[None, :]
        k1f = np.minimum(k1, N - k1)
        d = grid.h * np.sqrt(k0 * k0 + k1f * k1f)
        keep = M >= 0.0
        return M[keep], d[keep]
    rng = np.random.default_rng(SAMPLE_SEED)
    bands = max(1, int(math.log2(N // 2)))
    per_band = max(1, budget // bands)
    Ms = [0.0]
    ds = [0.0]
    for b in range(bands):
        lo, hi = 2 ** b, min(2 ** (b + 1), N // 2 + 1)
        if lo >= hi:
            continue
        radii = rng.integers(lo, hi, size=per_band)
        if grid.n == 1:
            for k in radii:
                Ms.append(float(np.max(np.abs(g - np.roll(g, -int(k))))))
                ds.append(int(k) * grid.h)
        else:
            angles = rng.uniform(0.0, 2.0 * math.pi, size=per_band)
            for r, t in zip(radii, angles):
                k0 = int(round(r * math.cos(t))) % N
                k1 = int(round(r * math.sin(t))) % N
                if k0 == 0 and k1 == 0:
                    continue
                Ms.append(float(np.max(np.abs(g - np.roll(g, (-k0, -k1), axis=(0, 1))))))
                d0 = min(k0, N - k0) * grid.h
                d1 = min(k1, N - k1) * grid.h
                ds.append(math.hypot(d0, d1))
    return np.asarray(Ms), np.asarray(ds)


def log_holder_constants(field: ExponentField) -> LogHolderReport:
    """Empirical local and decay regularity constants of a field.

    c_loc = max over point pairs of |g(x)-g(y)| log(e + 1/dist(x,y)) with the
    periodic distance; exact all-pairs maximum whenever the grid has at most
    2^16 points, seeded stratified sampling otherwise.  c_dec weights the
    deviation from g_inf by log(e + distance-to-center).  Memoized per field.
    """
    if field._lh_report is not None:
        return field._lh_report
    grid = field.grid
    exhaustive = grid.size <= EXHAUSTIVE_POINT_LIMIT
    M, d = _offset_profile(field, None if exhaustive else SAMPLE_OFFSETS)
    if exhaustive:
        with np.errstate(divide="ignore"):
            w = np.log(math.e + 1.0 / d)
        w[0] = 0.0  # zero-distance pairs carry no constraint
        c_loc = float(np.max(M * w))
    else:
        # math.log, not np.log: recorded references pin the sampled c_loc bit for bit
        c_loc = 0.0
        for m, dist in zip(M[1:], d[1:]):
            c_loc = max(c_loc, float(m * math.log(math.e + 1.0 / dist)))
    evaluated = M.size - 1
    dec_weight = np.log(math.e + grid.center_radius())
    c_dec = float(np.max(np.abs(field.values - field.g_inf) * dec_weight))
    report = LogHolderReport(c_loc=c_loc, c_dec=c_dec, g_inf=field.g_inf,
                             exhaustive=exhaustive, offsets_evaluated=evaluated)
    field._lh_report = report
    return report


def conjugate(field: ExponentField) -> ExponentField:
    """Pointwise conjugate p' = p/(p-1); requires p > 1 everywhere."""
    if field.role != "integrability":
        raise InvalidInput("conjugate is only defined for integrability exponents")
    if field.min <= 1.0:
        raise ConjugateUndefined(f"p touches 1 (min {field.min}); conjugate is unbounded")
    vals = field.values / (field.values - 1.0)
    return ExponentField(
        field.grid, vals, field.hi / (field.hi - 1.0), field.lo / (field.lo - 1.0),
        "integrability", g_inf=field.g_inf / (field.g_inf - 1.0),
    )


def interpolate_exponents(e0: ExponentField, e1: ExponentField, theta: float,
                          mode: str) -> ExponentField:
    """Pointwise interpolation: 'harmonic' 1/p = (1-t)/p0 + t/p1, or 'affine'.

    Harmonic mode serves integrability exponents, affine mode smoothness
    fields; crossing them is rejected.
    """
    if e0.grid != e1.grid:
        raise InvalidConfiguration("exponent fields live on different grids")
    if not (0.0 <= theta <= 1.0):
        raise InvalidInput(f"theta={theta} outside [0, 1]")
    if e0.role != e1.role:
        raise InvalidInput("cannot interpolate fields of different roles")
    if mode == "harmonic" and e0.role != "integrability":
        raise InvalidInput("harmonic interpolation expects integrability exponents")
    if mode == "affine" and e0.role != "smoothness":
        raise InvalidInput("affine interpolation expects smoothness fields")
    if mode == "harmonic":
        vals = 1.0 / ((1.0 - theta) / e0.values + theta / e1.values)
        g_inf = 1.0 / ((1.0 - theta) / e0.g_inf + theta / e1.g_inf)
    elif mode == "affine":
        vals = (1.0 - theta) * e0.values + theta * e1.values
        g_inf = (1.0 - theta) * e0.g_inf + theta * e1.g_inf
    else:
        raise InvalidInput(f"unknown interpolation mode {mode!r}")
    return ExponentField(e0.grid, vals, float(vals.min()), float(vals.max()),
                         e0.role, g_inf=g_inf)
