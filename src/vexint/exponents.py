"""Exponent fields p(x), q(x), alpha(x) on a grid, and their regularity constants.

A field is near-constant near the box boundary by recipe design; the box
center plays the role of the origin when the decay constant is estimated.

The local log-Hoelder constant is max_k fl(M[k] w[k]) over lattice offsets
k, with M[k] = max_x |g(x) - g(x+k)| and w[k] = log(e + 1/|k|).  An exact
scan of an offset costs a float64 pass over the grid, so offsets pass
through tiers of upper bounds on M[k], each cheaper than the next, and only
the offsets that no bound rules out are scanned exactly:

- U, the block bound.  Tile the field into b x b blocks (b in 1D) and keep
  each block's max and min.  Write k = b K + r componentwise.  For x in
  block B, x + k lies in block B + K, or also in B + K + e_i along each
  axis i with r_i != 0.  With lo/hi the min/max of g over the blocks x + k
  can reach, U[k] = max_B max(fl(gmax[B] - lo), fl(hi - gmin[B])).
  Rounding is monotone, so fl(g(x) - g(x+k)) never exceeds the first term
  and fl(g(x+k) - g(x)) never exceeds the second: M[k] <= U[k] <= max g -
  min g.  U depends only on K and on which r_i are nonzero.
- P, the path bound.  With f_i = min(k_i mod N, N - k_i mod N) and M[e_i]
  the maxima at the n unit offsets, P[k] = fl(fl(S) (1 + 2^-40)) with
  S = sum_i f_i M[e_i].  Walking f_i unit steps along each axis, the
  shorter way round, takes x to x + k, so g(x) - g(x+k) is a sum of unit
  differences.  Each is at most M[e_i] / (1 - u) in real arithmetic
  (u = 2^-53; fl(|d|) >= (1 - u) |d|, and a subnormal difference is
  exact), so M[k] <= (1 + u) / (1 - u) S.  If fl(S) is normal, then
  fl(S) >= (1 - u)^n S and P >= (1 - u) (1 + 2^-40) fl(S); with n <= 2,
  (1 + 2^-40) (1 - u)^4 > 1 + u, so P >= M[k].  A subnormal fl(S) may
  lose the slack to absolute rounding, so P is +inf there and U decides.
  fl(S) = 0 means every unit difference on the path is an exact zero
  (fl(a - b) = 0 only for a = b), so M[k] = 0 = P.  A P past the float
  range is +inf, never an error: if the largest P on the grid would pass
  it, every P is +inf.  P costs the scans of the n unit offsets,
  so it is built only where they come for free: on the exhaustive table,
  where they are the heaviest rows, and wherever the field's memo already
  holds them.  A field of zero oscillation has U = 0 and needs neither.
  B = min(U, P) is built for every offset of a scan at once.
- B32, the float32 bound, one float32 pass per offset (about a third of a
  float64 pass at 256 x 256, where the float32 field, its tiling and the
  buffer fit in cache).  With g32 = fl32(g), m32[k] = max_x |fl32(g32(x) -
  g32(x+k))|, G = max |g| and e = 2^-23 G + 2^-149,
  B32[k] = fl(fl(m32 + e) (1 + 2^-20)).  Proof of B32 >= M[k]: a cast errs
  by |g32 - g| <= 2^-24 |g| + 2^-150 (relative half an ulp for a normal
  float32, half of 2^-149 absolute below that, a value under 2^-150 going
  to 0), so the two casts of a pair move its difference by at most e.  The
  float32 difference of g32(x) and g32(x+k) is exact if subnormal, and
  within a factor 1 - 2^-24 of the real one otherwise, so
  |g(x) - g(x+k)| <= m32 / (1 - 2^-24) + e, and rounding that difference
  in float64 gives M[k] <= (1 + u) / (1 - 2^-24) (m32 + e) < (1 + 2^-23)
  (m32 + e).  m32 + e >= 2^-149 is normal in float64, and e is computed
  within a relative (1 - u)^2 (its product 2^-23 G is exact, or errs by at
  most 2^-1075 when subnormal), so fl(m32 + e) >= (1 - u)^3 (m32 + e) and
  B32 >= (1 - u)^4 (1 + 2^-20) (m32 + e) > (1 + 2^-23) (m32 + e) >= M[k].
  A subnormal-scale field, whose steps float32 flushes to 0, gets
  B32 = e: true, and loose, so B decides there.  A field with G above half
  of float32's largest value skips the tier, B32 = +inf, and is never
  cast: below that bound the cast and every float32 difference stay
  finite, so no overflow can rise inside the float-range guard.

Offsets are visited by decreasing fl(B w) in chunks, stopping at the first
with fl(B w) <= best.  Within a chunk, the offsets whose exact maxima are
in the field's memo are scored at once, the others get B32 from one
float32 pass, and they are scanned exactly, one at a time, by decreasing
fl(min(B, B32) w), up to the first whose bound is <= best.  Monotone
rounding gives fl(M w) <= fl(B' w) for any B' >= M, so every skipped offset
scores at most best, and the result is the full-table maximum bit for
bit, with no margin: a bound only decides which offsets are skipped, and
every reported maximum is one of the exactly computed scores.  A nan
bound (inf * 0) bounds nothing, so its offset is scanned; a nan score
ends the scan as it would make np.max over the full table nan.

The same cutoff serves any score fl(lift(M) w) with w >= 0 and lift
nondecreasing up to a known relative error: the bound is
fl(fl(lift(B) s) w) with a slack s that covers that error, for B and B32
alike.  The alpha-shift check of `kernels` scores offset k at level v by
fl(2.0 ** fl(v M) c) with c = (1 + 2^v |k|)^(-R) (`_shift_maxima`); its
slack is 1 + 2^-40 (proof at `_SLACK`).  The sampled log-Hoelder route
orders by np.log weights under the same slack and scores only the scanned
offsets with math.log (`log_holder_constants`).

Each field keeps the maxima M[k] it has scanned, and the bounds B32[k] it
has computed, in two private memos keyed by the offset's canonical index,
so a later scan of the same field (the alpha-shift check after
`log_holder_constants`, or another level) reads them instead of passing
over the grid again.  The memos live on the field, never in the module:
equal offsets of different fields differ.  A bounded scan casts and
tiles the field in float32 at its first float32 pass, and drops both
when it returns.

The block edge is b = 8 for every grid: N is a power of two >= 16, so 8
divides N and each axis holds at least 2 blocks.  Halving b doubles the
cost of the bounds; doubling it leaves them too coarse to prune.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _accel
from .errors import ConjugateUndefined, InvalidExponent, InvalidInput
from .grid import Grid, _within_float_range, common_grid

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
    exhaustive: bool
    offsets_evaluated: int


@dataclass
class ExponentField:
    """Scalar field with declared range and role ('integrability' or 'smoothness').

    `values` is never changed in place, by this package or by its callers:
    the extrema are taken once, at construction, and the log-Hoelder report
    and the scanned offset maxima are memoized on the field.
    """

    grid: Grid
    values: np.ndarray = dc_field(repr=False)
    lo: float
    hi: float
    role: str
    g_inf: float | None = None
    _lh_report: LogHolderReport | None = dc_field(default=None, repr=False, compare=False)
    # scanned offset maxima M[k] and float32 bounds B32[k] by canonical offset
    # index (`_memo_scan`, `_float32_bounds`)
    _scanned: dict[int, float] = dc_field(default_factory=dict, repr=False, compare=False)
    _bounds32: dict[int, float] = dc_field(default_factory=dict, repr=False, compare=False)
    _min: float = dc_field(init=False, repr=False, compare=False)
    _max: float = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.shape:
            raise InvalidInput("exponent field shape does not match grid")
        if not np.all(np.isfinite(self.values)):
            raise InvalidExponent("exponent field contains non-finite values")
        self._min, self._max = vmin, vmax = float(self.values.min()), float(self.values.max())
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
        return self._min

    @property
    def max(self) -> float:
        return self._max

    @property
    def is_constant(self) -> bool:
        return self._min == self._max

    def reciprocal(self) -> "ExponentField":
        vals = 1.0 / self.values
        return ExponentField(
            self.grid, vals, float(vals.min()), float(vals.max()), "smoothness",
            g_inf=1.0 / self.g_inf,
        )


def _constant_value(e, name: str) -> float:
    """The value of a constant exponent: a number as given, or the value of a
    field whose `is_constant` holds; any other field is an InvalidInput."""
    if not isinstance(e, ExponentField):
        return float(e)
    if not e.is_constant:
        raise InvalidInput(f"a constant {name} is required here")
    return e.min


# every parameter of each recipe; sine's frequency may be left out (one period)
_RECIPE_PARAMS = {"constant": ("value",), "sine": ("base", "amplitude", "frequency"),
                  "plateau": ("left", "right", "width")}
_OPTIONAL_PARAMS = ("frequency",)


def _recipe_number(recipe: str, key: str, x) -> float:
    """float(x), where a number beyond the float range is an InvalidExponent naming `key`."""
    try:
        x = float(x)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise InvalidExponent(f"recipe {recipe!r} parameter {key} lies outside the float range")
    return x


def build_exponent(grid: Grid, recipe: str, *, role: str = "integrability", **params) -> ExponentField:
    """Construct a field from a named recipe.

    constant(value); sine(base, amplitude, frequency): one full period of a
    first-axis sine per `frequency` (default 1); plateau(left, right, width):
    `left` near the boundary, `right` on the middle half, linear ramps of the
    given width.  A missing parameter, or one the recipe does not read, is an
    InvalidExponent, and so is a sine whose values leave the float range.
    """
    if recipe not in _RECIPE_PARAMS:
        raise InvalidExponent(f"unknown recipe {recipe!r}")
    missing = [key for key in _RECIPE_PARAMS[recipe]
               if key not in params and key not in _OPTIONAL_PARAMS]
    if missing:
        raise InvalidExponent(f"recipe {recipe!r} needs {', '.join(missing)}")
    unread = [key for key in params if key not in _RECIPE_PARAMS[recipe]]
    if unread:
        raise InvalidExponent(f"recipe {recipe!r} does not read {', '.join(unread)}")
    params = {key: _recipe_number(recipe, key, x) for key, x in params.items()}
    if recipe == "constant":
        c = params["value"]
        vals = np.full(grid.shape, c)
        lo = hi = c
        g_inf = c
    elif recipe == "sine":
        base = params["base"]
        amp = params["amplitude"]
        freq = params.get("frequency", 1.0)
        with _within_float_range("recipe 'sine' field base + amplitude sin(pi frequency x / L)",
                                 error=InvalidExponent):
            vals = base + amp * np.sin(2.0 * math.pi * freq * grid.coords()[0] / (2.0 * grid.L))
        lo, hi = base - abs(amp), base + abs(amp)
        g_inf = base
    else:
        left = params["left"]
        right = params["right"]
        w = params["width"]
        if not (0.0 < w <= grid.L):
            raise InvalidExponent(f"plateau transition width {w} must lie in (0, L={grid.L}]")
        L = grid.L
        knots_x = [0.0, L / 2 - w / 2, L / 2 + w / 2, 3 * L / 2 - w / 2, 3 * L / 2 + w / 2, 2 * L]
        knots_y = [left, left, right, right, left, left]
        vals = np.interp(grid.coords()[0], knots_x, knots_y)
        lo, hi = min(left, right), max(left, right)
        g_inf = left
    return ExponentField(grid, vals, lo, hi, role, g_inf=g_inf)


def _offset_count(grid: Grid) -> int:
    """The number of rows of `_offsets(grid, None)`: N/2 + 1 in 1D, N^2/2 + 2 in 2D."""
    N = grid.N
    return N // 2 + 1 if grid.n == 1 else N * N // 2 + 2


def _offsets(grid: Grid, budget: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Integer lattice offsets k, one per row with the zero offset first, and periodic |k|.

    With `budget` None every offset appears once up to the mirror symmetry
    k -> -k.  Otherwise about `budget` offsets are drawn, uniformly per
    dyadic radius band with a fixed seed, so equal budgets see equal offsets
    and budget doublings are comparable across calls; draws may repeat.
    """
    N = grid.N
    if budget is None:
        if grid.n == 1:
            k = np.arange(_offset_count(grid))[:, None]
        else:
            # half plane k0 in [0, N/2]; on the rows k0 = 0 and k0 = N/2 the
            # mirror of k1 is N - k1 in the same row, so only k1 <= N/2 is kept
            k0, k1 = np.meshgrid(np.arange(N // 2 + 1), np.arange(N), indexing="ij")
            keep = ((k0 != 0) & (k0 != N // 2)) | (k1 <= N // 2)
            k = np.stack([k0[keep], k1[keep]], axis=1)
    else:
        # radius bands [2^b, 2^(b+1)) up to N/2, N a power of two >= 16
        rng = np.random.default_rng(SAMPLE_SEED)
        bands = int(math.log2(N // 2))
        per_band = max(1, budget // bands)
        rows = [np.zeros((1, grid.n), dtype=np.int64)]
        for b in range(bands):
            radii = rng.integers(2 ** b, 2 ** (b + 1), size=per_band)
            if grid.n == 1:
                rows.append(radii[:, None])
                continue
            # recorded references pin these draws: numpy's cos and sin return
            # the math module's bits on them, and np.rint rounds half to even
            # as round() does
            angles = rng.uniform(0.0, 2.0 * math.pi, size=per_band)
            drawn = np.stack([np.rint(radii * np.cos(angles)), np.rint(radii * np.sin(angles))],
                             axis=1).astype(np.int64) % N
            rows.append(drawn[drawn.any(axis=1)])
        k = np.concatenate(rows)
    # per axis the periodic distance min(k, N - k), exact in float64
    f = np.minimum(k, N - k).astype(np.float64)
    return k, grid.h * np.sqrt((f * f).sum(axis=1))


def _distinct_offsets(k: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of k up to periodicity and k -> -k, each once, and where each row went.

    One scan per distinct offset suffices: M[k] = M[-k] exactly, because
    |fl(a - b)| = |fl(b - a)|.
    """
    dims = (N,) * k.shape[1]
    key = np.minimum(np.ravel_multi_index((k % N).T, dims),
                     np.ravel_multi_index((-k % N).T, dims))
    keys, where = np.unique(key, return_inverse=True)
    return np.stack(np.unravel_index(keys, dims), axis=1), where.reshape(-1)


def _scan(field: ExponentField, k: np.ndarray) -> np.ndarray:
    """max_x |g(x) - g(x+k)| for each row of k, exactly, in float64."""
    if field.grid.n == 1:
        return _accel.offset_abs_max_1d(field.values, k[:, 0])
    return _accel.offset_abs_max_2d(field.values, k)


# block edge of the offset bounds (module docstring): 8 divides every
# admissible N and leaves at least 2 blocks per axis
_BLOCK = 8
# block-array entries gathered at once while the bounds are built; small
# enough to stay in cache and to leave peak memory to the offset scans
_BOUND_CHUNK = 2 ** 16
# offsets of the bound-ordered scan handed to one float32 pass; a chunk may
# bound offsets past the cutoff, never short of it
_SCAN_CHUNK = 32
# relative slack of the bounds whose rounding, or whose lift, is not exact.
# The path bound's proof is in the module docstring; np.log's at
# `log_holder_constants`.  For the pow 2.0 ** x: let pow err by at most
# e = 2^-45 relative, and let u = fl(v B) >= fl(v M) = m, by monotone
# rounding since v >= 0 and B >= M.  If u = m the two pows are equal.
# Otherwise 2^m <= 2^u, so
#   pow(m) <= 2^u (1 + e) <= pow(u) (1 + e) / (1 - e) < pow(u) (1 + 2^-43),
# while fl(pow(u) (1 + 2^-40)) >= pow(u) (1 + 2^-40) (1 - 2^-53), which
# exceeds pow(u) (1 + 2^-43).  So fl(pow(u) s) >= pow(m), and multiplying
# both by the same c >= 0 keeps the order under monotone rounding.  (pow is
# taken elementwise, so equal arguments give equal values wherever they sit.)
_SLACK = 1.0 + 2.0 ** -40
_TINY = np.finfo(np.float64).tiny
# the float32 bound's factor (proof in the module docstring), and the largest
# field magnitude whose float32 cast and differences stay finite
_FLOAT32_SLACK = 1.0 + 2.0 ** -20
_FLOAT32_HALF_MAX = float(np.finfo(np.float32).max) / 2.0


def _offset_bounds(g: np.ndarray, k: np.ndarray) -> np.ndarray:
    """U[k] >= max_x |g(x) - g(x+k)| for each row of k, from block extrema.

    Offsets sharing the block offset K = k // b and the pattern of nonzero
    remainders share U, which is computed once per such pair: the min/max
    block arrays over B + K + {0, 1}^pattern are tiled twice per axis, and
    the window starting at K is the shifted array.
    """
    n, N = g.ndim, g.shape[0]
    nb = N // _BLOCK
    tiles = g.reshape((nb, _BLOCK) * n)
    gmax = tiles.max(axis=tuple(range(1, 2 * n, 2)))
    gmin = tiles.min(axis=tuple(range(1, 2 * n, 2)))
    K, r = np.divmod(k % N, _BLOCK)
    pattern = (r != 0) @ (1 << np.arange(n))
    keys, where = np.unique(pattern * nb ** n + np.ravel_multi_index(K.T, gmax.shape),
                            return_inverse=True)
    patterns, cells = np.divmod(keys, nb ** n)
    U = np.empty(len(keys))
    blocks = tuple(range(1, n + 1))
    step = max(1, _BOUND_CHUNK // nb ** n)
    for p in np.unique(patterns).tolist():
        lo, hi = gmin, gmax
        for axis in range(n):
            if p >> axis & 1:
                lo = np.minimum(lo, np.roll(lo, -1, axis=axis))
                hi = np.maximum(hi, np.roll(hi, -1, axis=axis))
        lo_at = sliding_window_view(np.tile(lo, (2,) * n), lo.shape)
        hi_at = sliding_window_view(np.tile(hi, (2,) * n), hi.shape)
        rows = np.flatnonzero(patterns == p)
        for s in range(0, rows.size, step):
            part = rows[s:s + step]
            at = np.unravel_index(cells[part], gmax.shape)
            down = np.subtract(gmax, lo_at[at]).max(axis=blocks)
            up = np.subtract(hi_at[at], gmin).max(axis=blocks)
            U[part] = np.maximum(down, up)
    return U[where.reshape(-1)]


def _offset_keys(field: ExponentField, k: np.ndarray) -> np.ndarray:
    """The memo key of each canonical offset row of k."""
    return np.ravel_multi_index(k.T, (field.grid.N,) * field.grid.n)


def _memoized(field: ExponentField, memo: dict[int, float], k: np.ndarray,
              compute) -> np.ndarray:
    """memo's values at the canonical offset rows k; the rows not yet in it are
    computed by one call compute(rows) and kept."""
    keys = _offset_keys(field, k).tolist()
    todo = [i for i, key in enumerate(keys) if key not in memo]
    if todo:
        memo.update(zip([keys[i] for i in todo], compute(k[todo]).tolist()))
    return np.array([memo[key] for key in keys])


def _memo_scan(field: ExponentField, k: np.ndarray) -> np.ndarray:
    """`_scan` of the canonical offset rows k, each offset at most once per field."""
    return _memoized(field, field._scanned, k, functools.partial(_scan, field))


def _float32_bounds(field: ExponentField, k: np.ndarray, cast) -> np.ndarray:
    """B32[k] >= M[k] for the canonical offset rows k, each from one float32 pass and
    kept in the field's memo (module docstring); +inf for a field that float32 cannot
    hold, with no cast made.  `cast()` returns the float32 field and its tiling, and
    is called only when some row is not in the memo."""
    top = max(abs(field.min), abs(field.max))
    if top > _FLOAT32_HALF_MAX:
        return np.full(len(k), np.inf)
    e = math.ldexp(top, -23) + 2.0 ** -149  # covers the two casts of a difference

    def bound(rows: np.ndarray) -> np.ndarray:
        return (_accel.offset_abs_max_float32(*cast(), rows) + e) * _FLOAT32_SLACK

    return _memoized(field, field._bounds32, k, bound)


def _float32_cast(field: ExponentField) -> tuple[np.ndarray, np.ndarray]:
    """The field rounded to float32, and that tiled twice along every axis.

    np.pad's wrap gives np.tile's array in one allocation; np.tile's
    intermediate copies moved a `regularity-2d` peak RSS by 2 MB.
    """
    g32 = field.values.astype(np.float32)
    return g32, np.pad(g32, [(0, field.grid.N)] * field.grid.n, mode="wrap")


def _scan_bounds(field: ExponentField, k: np.ndarray, exhaustive: bool) -> np.ndarray:
    """B[k] = min(U[k], P[k]) >= M[k] for the canonical offset rows k (module docstring).

    P is taken only where the unit maxima come for free: on an exhaustive
    table, or from the field's memo.  Otherwise, and for a field of zero
    oscillation, B is the block bound U.
    """
    U = _offset_bounds(field.values, k)
    grid = field.grid
    units = np.eye(grid.n, dtype=np.int64)
    keys = _offset_keys(field, units).tolist()
    if field.is_constant or not (exhaustive or all(key in field._scanned for key in keys)):
        return U
    unit = _memo_scan(field, units).tolist()
    # the largest P on the grid, in the order of the sum below: if it is
    # finite, no entry overflows (monotone rounding); if not, P is +inf
    if not math.isfinite(sum(grid.N // 2 * m for m in unit) * _SLACK):
        return U
    f = np.minimum(k % grid.N, grid.N - k % grid.N)
    S = (f * unit).sum(axis=1)
    P = np.where((S >= _TINY) | (S == 0.0), S * _SLACK, np.inf)
    return np.minimum(U, P)


def _bounded_max(field: ExponentField, k: np.ndarray, B: np.ndarray, lift, score) -> float:
    """max of score(M[k[idx]], idx) over the canonical offset rows k, scanning only rows
    that can raise it.

    `B` bounds M from above, row by row, and `lift(b, idx)` turns bounds b of
    the rows idx into bounds of their scores (module docstring).  Rows are
    visited by decreasing lift(B), in chunks, and the scan stops at the first
    with lift(B) <= best.  Within a chunk, rows in the memo are scored at
    once; the others get the float32 bound B32, and are scanned exactly one
    at a time by decreasing lift(min(B, B32)), up to the first that cannot
    raise best.  The field is cast to float32 once per scan, at the first
    row that needs a float32 pass.
    """
    reach = _nan_to_inf(lift(B, slice(None)))
    order = np.argsort(-reach, kind="stable")
    keys = _offset_keys(field, k)
    memo = field._scanned
    cast = functools.cache(functools.partial(_float32_cast, field))
    best = 0.0
    for start in range(0, order.size, _SCAN_CHUNK):
        idx = order[start:start + _SCAN_CHUNK]
        idx = idx[reach[idx] > best]  # a prefix: reach decreases along idx
        if idx.size == 0:
            break
        known = np.array([key in memo for key in keys[idx].tolist()])
        if known.any():
            # a nan score (inf * 0) is kept and ends the scan, as it would
            # make np.max over the whole table nan
            best = max(float(np.max(score(_memo_scan(field, k[idx[known]]), idx[known]))), best)
        rest = idx[~known & (reach[idx] > best)]
        if rest.size == 0:
            continue
        tight = _nan_to_inf(lift(np.minimum(B[rest], _float32_bounds(field, k[rest], cast)),
                                 rest))
        for j in np.argsort(-tight, kind="stable").tolist():
            if not tight[j] > best:
                break
            row = rest[j:j + 1]
            best = max(float(score(_memo_scan(field, k[row]), row)[0]), best)
    return best


def _nan_to_inf(reach: np.ndarray) -> np.ndarray:
    """A nan bound (inf * 0) bounds nothing, so its row must be scanned."""
    return np.where(np.isnan(reach), np.inf, reach)


def _shift_maxima(field: ExponentField, budget: int | None, R: float,
                  levels: list[int]) -> tuple[dict[int, float], int]:
    """Per level v, the max over the offset rows k of `_offsets(grid, budget)` of
    fl(2.0 ** fl(v M[k]) * (1 + 2^v |k|)^(-R)), and the number of rows.

    The factor c = (1 + 2^v |k|)^(-R) is computed over every row, as the
    full profile would; rows that repeat an offset keep their largest c.
    Rows are visited by decreasing fl(fl(2.0 ** fl(v B) * (1 + 2^-40)) * c).
    """
    k, d = _offsets(field.grid, budget)
    distinct, where = _distinct_offsets(k, field.grid.N)
    B = _scan_bounds(field, distinct, budget is None)
    per_level: dict[int, float] = {}
    for v in levels:
        s = 2.0 ** v
        c = np.zeros(len(distinct))
        np.maximum.at(c, where, (1.0 + s * d) ** (-R))
        per_level[v] = _bounded_max(field, distinct, B,
                                    lambda b, idx: 2.0 ** (v * b) * _SLACK * c[idx],
                                    lambda M, idx: 2.0 ** (v * M) * c[idx])
    return per_level, int(d.size)


def _math_log_weights(dist: np.ndarray) -> np.ndarray:
    """log(e + 1/d) by math.log, 0 at d = 0: recorded references pin the sampled
    c_loc bit for bit, and np.log differs from math.log on a few weights."""
    return np.array([math.log(math.e + 1.0 / x) if x > 0.0 else 0.0 for x in dist.tolist()])


def log_holder_constants(field: ExponentField) -> LogHolderReport:
    """Empirical local and decay regularity constants of a field.

    c_loc = max over point pairs of |g(x)-g(y)| log(e + 1/dist(x,y)) with the
    periodic distance; exact all-pairs maximum whenever the grid has at most
    2^16 points, seeded stratified sampling otherwise.  Each distinct offset
    is scanned at most once per field (the memos of the module docstring).
    Offsets pass through the tiers of the module docstring: they are
    visited by decreasing fl(B * w), with w = log(e + 1/|k|) and
    B = min(U, P) >= M[k] the minimum of the 8 x 8 block bound and the path
    bound; within each chunk the float32 bound B32 >= M[k] orders the exact
    float64 scans by fl(min(B, B32) * w); and each tier stops at the first
    offset whose bound times its weight is at most the best exact score.
    The result equals the full-table maximum bit for bit, since monotone
    rounding gives fl(M[k] * w) <= fl(B' * w) for every skipped offset and
    each of its bounds B'.  The sampled route scans no unit offsets for P,
    so B is U there unless the field's memo holds them.  Its weights are
    math.log's, and it orders by w' = fl(np.log(.) * (1 + 2^-40)), taking
    math.log only for the offsets it scans: both logs lie within a few ulp
    of the true value, so w' >= math.log's weight, and fl(B' * w') bounds
    every skipped score.  A field above half of float32's largest value
    skips the float32 tier.
    c_dec weights the deviation from g_inf by log(e + distance-to-center).
    A field whose bound times its weight leaves the float range is an
    InvalidInput.  The report is memoized per field.
    """
    if field._lh_report is not None:
        return field._lh_report
    grid = field.grid
    exhaustive = grid.size <= EXHAUSTIVE_POINT_LIMIT
    k, d = _offsets(grid, None if exhaustive else SAMPLE_OFFSETS)
    distinct, where = _distinct_offsets(k, grid.N)
    # repeated draws of one offset share its length
    dist = np.empty(len(distinct))
    dist[where] = d
    with np.errstate(divide="ignore"):
        w = np.log(math.e + 1.0 / dist)
    w[0] = 0.0  # the zero offset sorts first; zero-distance pairs carry no constraint
    dec_weight = np.log(math.e + grid.center_radius())
    with _within_float_range("the field's oscillation max - min, times a log weight,"):
        B = _scan_bounds(field, distinct, exhaustive)
        if exhaustive:
            c_loc = _bounded_max(field, distinct, B, lambda b, idx: b * w[idx],
                                 lambda M, idx: M * w[idx])
        else:
            c_loc = _bounded_max(field, distinct, B, lambda b, idx: b * (w[idx] * _SLACK),
                                 lambda M, idx: M * _math_log_weights(dist[idx]))
        c_dec = float(np.max(np.abs(field.values - field.g_inf) * dec_weight))
    report = LogHolderReport(c_loc=c_loc, c_dec=c_dec, exhaustive=exhaustive,
                             offsets_evaluated=d.size - 1)
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


def _check_theta(theta: float) -> float:
    theta = float(theta)
    if not 0.0 < theta < 1.0:
        raise InvalidInput(f"theta={theta} must lie strictly inside (0, 1)")
    return theta


def interpolate_exponents(e0: ExponentField, e1: ExponentField, theta: float) -> ExponentField:
    """Pointwise interpolation by the fields' role, as in the paper's two theorems:
    harmonic 1/p = (1-t)/p0 + t/p1 for integrability exponents, affine
    (1-t) a0 + t a1 for smoothness fields."""
    common_grid(e0, e1)
    if not (0.0 <= theta <= 1.0):
        raise InvalidInput(f"theta={theta} outside [0, 1]")
    if e0.role != e1.role:
        raise InvalidInput("cannot interpolate fields of different roles")
    if e0.role == "integrability":
        vals = 1.0 / ((1.0 - theta) / e0.values + theta / e1.values)
        g_inf = 1.0 / ((1.0 - theta) / e0.g_inf + theta / e1.g_inf)
    else:
        vals = (1.0 - theta) * e0.values + theta * e1.values
        g_inf = (1.0 - theta) * e0.g_inf + theta * e1.g_inf
    return ExponentField(e0.grid, vals, float(vals.min()), float(vals.max()),
                         e0.role, g_inf=g_inf)
