"""Exponent fields p(x), q(x), alpha(x) on a grid, and their regularity constants.

A field is near-constant near the box boundary by recipe design; the box
center plays the role of the origin when the decay constant is estimated.

The local log-Hoelder constant is max_k fl(M[k] w[k]) over lattice offsets
k, with M[k] = max_x |g(x) - g(x+k)| and w[k] = log(e + 1/|k|).  Scanning an
offset costs a pass over the grid, so offsets are visited by a cheap upper
bound U[k] >= M[k] read off block extrema:

- Tile the field into b x b blocks (b in 1D) and keep each block's max and
  min.  Write k = b K + r componentwise.  For x in block B, x + k lies in
  block B + K, or also in B + K + e_i along each axis i with r_i != 0.
- With lo/hi the min/max of g over the blocks x + k can reach,
  U[k] = max_B max(fl(gmax[B] - lo), fl(hi - gmin[B])).  Rounding is
  monotone, so fl(g(x) - g(x+k)) never exceeds the first term and
  fl(g(x+k) - g(x)) never exceeds the second: M[k] <= U[k] <= max g - min g.
  U depends only on K and on which r_i are nonzero.
- Offsets are scanned by decreasing fl(U w), stopping at the first with
  fl(U w) <= best.  Monotone rounding again gives fl(M w) <= fl(U w) for
  every skipped offset, so the result is the full-table maximum bit for
  bit, with no margin.

The same cutoff serves any score fl(lift(M) w) with w >= 0 and lift
nondecreasing up to a known relative error: the bound is
fl(fl(lift(U) s) w) with a slack s that covers that error.  The
alpha-shift check of `kernels` scores offset k at level v by
fl(2.0 ** fl(v M) c) with c = (1 + 2^v |k|)^(-R) (`_shift_maxima`); its
slack is 1 + 2^-40 (proof at `_POW_SLACK`).  The log-Hoelder score takes
the identity with slack 1.

Each field keeps the maxima M[k] it has scanned in a private memo, keyed
by the offset's canonical index, so a later scan of the same field (the
alpha-shift check after `log_holder_constants`, or another level) reads
them instead of passing over the grid again.  The memo lives on the
field, never in the module: equal offsets of different fields differ.

The block edge is b = 8 for every grid: N is a power of two >= 16, so 8
divides N and each axis holds at least 2 blocks.  Halving b doubles the
cost of the bounds; doubling it leaves them too coarse to prune.
"""

from __future__ import annotations

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
    """Scalar field with declared range and role ('integrability' or 'smoothness')."""

    grid: Grid
    values: np.ndarray = dc_field(repr=False)
    lo: float
    hi: float
    role: str
    g_inf: float | None = None
    _lh_report: LogHolderReport | None = dc_field(default=None, repr=False, compare=False)
    # scanned offset maxima M[k] by canonical offset index (`_memo_scan`)
    _scanned: dict[int, float] = dc_field(default_factory=dict, repr=False, compare=False)

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
            k = np.arange(N // 2 + 1)
            return k[:, None], grid.h * k.astype(np.float64)
        # half plane k0 in [0, N/2]; on the rows k0 = 0 and k0 = N/2 the
        # mirror of k1 is N - k1 in the same row, so only k1 <= N/2 is kept
        k0, k1 = np.meshgrid(np.arange(N // 2 + 1), np.arange(N), indexing="ij")
        keep = ((k0 != 0) & (k0 != N // 2)) | (k1 <= N // 2)
        k0f = k0.astype(np.float64)
        k1f = np.minimum(k1, N - k1).astype(np.float64)
        d = grid.h * np.sqrt(k0f * k0f + k1f * k1f)
        return np.stack([k0[keep], k1[keep]], axis=1), d[keep]
    h = grid.h
    rng = np.random.default_rng(SAMPLE_SEED)
    bands = max(1, int(math.log2(N // 2)))
    per_band = max(1, budget // bands)
    ks = [(0,) * grid.n]
    ds = [0.0]
    for b in range(bands):
        lo, hi = 2 ** b, min(2 ** (b + 1), N // 2 + 1)
        if lo >= hi:
            continue
        # a loop over Python scalars; math.cos/sin, not numpy's, which differ
        # by an ulp, because recorded references pin the drawn offsets
        radii = rng.integers(lo, hi, size=per_band).tolist()
        if grid.n == 1:
            for k in radii:
                ks.append((k,))
                ds.append(k * h)
        else:
            angles = rng.uniform(0.0, 2.0 * math.pi, size=per_band).tolist()
            for r, t in zip(radii, angles):
                k0 = int(round(r * math.cos(t))) % N
                k1 = int(round(r * math.sin(t))) % N
                if k0 == 0 and k1 == 0:
                    continue
                ks.append((k0, k1))
                ds.append(math.hypot(min(k0, N - k0) * h, min(k1, N - k1) * h))
    return np.array(ks), np.asarray(ds)


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
    """max_x |g(x) - g(x+k)| for each row of k."""
    if field.grid.n == 1:
        return _accel.offset_abs_max_1d(field.values, k[:, 0])
    return _accel.offset_abs_max_2d(field.values, k)


# block edge of the offset bounds (module docstring): 8 divides every
# admissible N and leaves at least 2 blocks per axis
_BLOCK = 8
# block-array entries gathered at once while the bounds are built; small
# enough to stay in cache and to leave peak memory to the offset scans
_BOUND_CHUNK = 2 ** 16
# offsets handed to one kernel call by the bound-ordered scan; a chunk may
# scan past the cutoff, never short of it
_SCAN_CHUNK = 32
# relative slack of a bound whose lift is the pow 2.0 ** x.  Let pow err
# by at most e = 2^-45 relative, and let u = fl(v U) >= fl(v M) = m, by
# monotone rounding since v >= 0 and U >= M.  If u = m the two pows are
# equal.  Otherwise 2^m <= 2^u, so
#   pow(m) <= 2^u (1 + e) <= pow(u) (1 + e) / (1 - e) < pow(u) (1 + 2^-43),
# while fl(pow(u) (1 + 2^-40)) >= pow(u) (1 + 2^-40) (1 - 2^-53), which
# exceeds pow(u) (1 + 2^-43).  So fl(pow(u) s) >= pow(m), and multiplying
# both by the same c >= 0 keeps the order under monotone rounding.  (pow is
# taken elementwise, so equal arguments give equal values wherever they sit.)
_POW_SLACK = 1.0 + 2.0 ** -40


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


def _memo_scan(field: ExponentField, k: np.ndarray) -> np.ndarray:
    """`_scan` of the canonical offset rows k, each offset at most once per field."""
    memo = field._scanned
    keys = np.ravel_multi_index(k.T, (field.grid.N,) * field.grid.n).tolist()
    todo = [i for i, key in enumerate(keys) if key not in memo]
    if todo:
        memo.update(zip([keys[i] for i in todo], _scan(field, k[todo]).tolist()))
    return np.array([memo[key] for key in keys])


def _bounded_max(field: ExponentField, k: np.ndarray, w: np.ndarray, U: np.ndarray,
                 lift=None, slack: float = 1.0) -> float:
    """max of fl(lift(M[k]) * w) over canonical offset rows k, scanning only rows that can raise it.

    lift is the identity unless given.  Offsets are visited by decreasing
    reach fl(fl(lift(U) * slack) * w), with U >= M the block bound of
    `_offset_bounds`, and the scan stops at the first with reach <= best.
    That is exact when w >= 0 and the slack covers lift's rounding (module
    docstring): every skipped score is at most its reach.
    """
    lift = lift or (lambda M: M)
    reach = lift(U) * slack * w
    reach[np.isnan(reach)] = np.inf  # inf * 0: no bound, so scan it
    order = np.argsort(-reach, kind="stable")
    best = 0.0
    for start in range(0, order.size, _SCAN_CHUNK):
        idx = order[start:start + _SCAN_CHUNK]
        idx = idx[reach[idx] > best]  # a prefix: reach decreases along idx
        if idx.size == 0:
            break
        M = _memo_scan(field, k[idx])
        # chunk first: a nan score (inf * 0) is kept and ends the scan, as
        # it would make np.max over the whole table nan
        best = max(float(np.max(lift(M) * w[idx])), best)
    return best


def _shift_maxima(field: ExponentField, budget: int | None, R: float,
                  levels: list[int]) -> tuple[dict[int, float], int]:
    """Per level v, the max over the offset rows k of `_offsets(grid, budget)` of
    fl(2.0 ** fl(v M[k]) * (1 + 2^v |k|)^(-R)), and the number of rows.

    The factor c = (1 + 2^v |k|)^(-R) is computed over every row, as the
    full profile would; rows that repeat an offset keep their largest c.
    """
    k, d = _offsets(field.grid, budget)
    distinct, where = _distinct_offsets(k, field.grid.N)
    U = _offset_bounds(field.values, distinct)
    per_level: dict[int, float] = {}
    for v in levels:
        s = 2.0 ** v
        c = np.zeros(len(distinct))
        np.maximum.at(c, where, (1.0 + s * d) ** (-R))
        per_level[v] = _bounded_max(field, distinct, c, U, lambda M: 2.0 ** (v * M), _POW_SLACK)
    return per_level, int(d.size)


def log_holder_constants(field: ExponentField) -> LogHolderReport:
    """Empirical local and decay regularity constants of a field.

    c_loc = max over point pairs of |g(x)-g(y)| log(e + 1/dist(x,y)) with the
    periodic distance; exact all-pairs maximum whenever the grid has at most
    2^16 points, seeded stratified sampling otherwise.  Each distinct offset
    is scanned at most once per field (the memo of the module docstring),
    by decreasing fl(U * w) with w = log(e + 1/|k|) and U >= M[k] the
    8 x 8 block-extremum bound, stopping at the first with
    fl(U * w) <= best: the result equals the full-table maximum bit for
    bit, since monotone rounding gives fl(M[k] * w) <= fl(U * w) for every
    skipped offset.  c_dec weights the deviation from g_inf by
    log(e + distance-to-center).  A field whose oscillation, times its
    weights, leaves the float range is an InvalidInput.  The report is
    memoized per field.
    """
    if field._lh_report is not None:
        return field._lh_report
    grid = field.grid
    exhaustive = grid.size <= EXHAUSTIVE_POINT_LIMIT
    k, d = _offsets(grid, None if exhaustive else SAMPLE_OFFSETS)
    if exhaustive:
        with np.errstate(divide="ignore"):
            w = np.log(math.e + 1.0 / d)
        w[0] = 0.0  # zero-distance pairs carry no constraint
    else:
        # math.log, not np.log: recorded references pin the sampled c_loc bit for bit
        w = np.array([0.0] + [math.log(math.e + 1.0 / dist) for dist in d[1:]])
    distinct, where = _distinct_offsets(k, grid.N)
    # repeated draws of one offset share its length; M >= 0 makes the
    # largest weight the one that counts in any case
    w_distinct = np.zeros(len(distinct))
    np.maximum.at(w_distinct, where, w)
    dec_weight = np.log(math.e + grid.center_radius())
    with _within_float_range("the field's oscillation max - min, times a log weight,"):
        c_loc = _bounded_max(field, distinct, w_distinct, _offset_bounds(field.values, distinct))
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
