"""The offset scans reproduce the full-table scans they replaced, bit for bit.

`log_holder_constants` and `verify_alpha_shift` used to enumerate lattice
offsets separately, with one `np.roll` copy per offset and a full table of
per-offset maxima.  The functions below are those former kernels and
enumerations, kept verbatim as oracles.  The offset profile built from
`_offsets`, `_distinct_offsets` and `_scan` (slice kernel, each distinct
offset scanned once) and the bound-ordered cutoffs of `log_holder_constants`
and `verify_alpha_shift` must equal them under `==` on the exhaustive and on
the sampled route, in 1D and in 2D.  The cutoffs order offsets by the
minimum of a block-extremum bound and a path bound, which must never fall
below the offset's true maximum.
"""

import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vexint import _accel, exponents
from vexint.errors import InvalidInput, PreconditionWarning
from vexint.exponents import (
    SAMPLE_OFFSETS,
    SAMPLE_SEED,
    ExponentField,
    build_exponent,
    log_holder_constants,
)
from vexint.grid import make_grid
from vexint.kernels import verify_alpha_shift

# -- former kernels ---------------------------------------------------------


def _old_offset_abs_max_1d(g):
    g = np.ascontiguousarray(g, dtype=np.float64)
    N = g.shape[0]
    out = np.zeros(N // 2 + 1)
    for k in range(1, N // 2 + 1):
        out[k] = np.max(np.abs(g - np.roll(g, -k)))
    return out


def _old_offset_abs_max_2d(g):
    """Half-plane offset maxima; entries -1 mark offsets covered by symmetry."""
    g = np.ascontiguousarray(g, dtype=np.float64)
    N = g.shape[0]
    out = np.full((N // 2 + 1, N), -1.0)
    out[0, 0] = 0.0
    for k0 in range(N // 2 + 1):
        r0 = np.roll(g, -k0, axis=0)
        if k0 == 0:
            k1s = range(1, N // 2 + 1)
        elif k0 == N // 2:
            k1s = range(0, N // 2 + 1)
        else:
            k1s = range(N)
        for k1 in k1s:
            out[k0, k1] = np.max(np.abs(g - np.roll(r0, -k1, axis=1)))
    return out


# -- former regularity estimator ------------------------------------------


def _offset_weights_1d(grid):
    k = np.arange(grid.N // 2 + 1, dtype=np.float64)
    with np.errstate(divide="ignore"):
        w = np.log(math.e + 1.0 / (k * grid.h))
    w[0] = 0.0  # zero-distance pairs carry no constraint
    return w


def _offset_weights_2d(grid):
    N = grid.N
    k0 = np.arange(N // 2 + 1, dtype=np.float64)[:, None]
    k1 = np.arange(N, dtype=np.float64)[None, :]
    k1f = np.minimum(k1, N - k1)
    d = grid.h * np.sqrt(k0 * k0 + k1f * k1f)
    with np.errstate(divide="ignore"):
        w = np.log(math.e + 1.0 / d)
    w[0, 0] = 0.0
    return w


def _c_loc_sampled(field):
    # stratified offsets: uniform per dyadic distance band, fixed seed
    grid = field.grid
    rng = np.random.default_rng(SAMPLE_SEED)
    N = grid.N
    g = field.values
    bands = max(1, int(math.log2(N // 2)))
    per_band = max(1, SAMPLE_OFFSETS // bands)
    best = 0.0
    count = 0
    for b in range(bands):
        lo, hi = 2 ** b, min(2 ** (b + 1), N // 2 + 1)
        if lo >= hi:
            continue
        radii = rng.integers(lo, hi, size=per_band)
        if grid.n == 1:
            for k in radii:
                d = k * grid.h
                diff = np.max(np.abs(g - np.roll(g, -int(k))))
                best = max(best, diff * math.log(math.e + 1.0 / d))
                count += 1
        else:
            angles = rng.uniform(0.0, 2.0 * math.pi, size=per_band)
            for r, t in zip(radii, angles):
                k0 = int(round(r * math.cos(t))) % N
                k1 = int(round(r * math.sin(t))) % N
                if k0 == 0 and k1 == 0:
                    continue
                d0 = min(k0, N - k0) * grid.h
                d1 = min(k1, N - k1) * grid.h
                d = math.hypot(d0, d1)
                diff = np.max(np.abs(g - np.roll(g, (-k0, -k1), axis=(0, 1))))
                best = max(best, diff * math.log(math.e + 1.0 / d))
                count += 1
    return best, count


def old_c_loc(field, exhaustive):
    """(c_loc, offsets_evaluated) as the former log_holder_constants computed them."""
    grid = field.grid
    if not exhaustive:
        return _c_loc_sampled(field)
    if grid.n == 1:
        M = _old_offset_abs_max_1d(field.values)
        w = _offset_weights_1d(grid)
        return float(np.max(M * w)), M.size - 1
    M = _old_offset_abs_max_2d(field.values)
    w = _offset_weights_2d(grid)
    valid = M >= 0.0
    return float(np.max(np.where(valid, M * w, 0.0))), int(valid.sum()) - 1


# -- former offset enumeration ---------------------------------------------


def _old_offsets(grid, budget):
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
    rng = np.random.default_rng(SAMPLE_SEED)
    bands = max(1, int(math.log2(N // 2)))
    per_band = max(1, budget // bands)
    ks = [(0,) * grid.n]
    ds = [0.0]
    for b in range(bands):
        lo, hi = 2 ** b, min(2 ** (b + 1), N // 2 + 1)
        if lo >= hi:
            continue
        radii = rng.integers(lo, hi, size=per_band)
        if grid.n == 1:
            for k in radii:
                ks.append((int(k),))
                ds.append(int(k) * grid.h)
        else:
            angles = rng.uniform(0.0, 2.0 * math.pi, size=per_band)
            for r, t in zip(radii, angles):
                k0 = int(round(r * math.cos(t))) % N
                k1 = int(round(r * math.sin(t))) % N
                if k0 == 0 and k1 == 0:
                    continue
                ks.append((k0, k1))
                d0 = min(k0, N - k0) * grid.h
                d1 = min(k1, N - k1) * grid.h
                ds.append(math.hypot(d0, d1))
    return np.array(ks), np.asarray(ds)


# -- former shift-check profiles ------------------------------------------


def _offset_profile_exhaustive(field):
    """(max |field(x)-field(x+k)|, periodic |k|) over every lattice offset."""
    grid = field.grid
    N = grid.N
    if grid.n == 1:
        M = _old_offset_abs_max_1d(field.values)
        d = grid.h * np.arange(N // 2 + 1, dtype=np.float64)
        return M, d
    M = _old_offset_abs_max_2d(field.values)
    k0 = np.arange(N // 2 + 1, dtype=np.float64)[:, None]
    k1 = np.arange(N, dtype=np.float64)[None, :]
    k1f = np.minimum(k1, N - k1)
    d = grid.h * np.sqrt(k0 * k0 + k1f * k1f)
    keep = M >= 0.0
    return M[keep], d[keep]


def _offset_profile_sampled(field, budget):
    # stratified over dyadic radius bands, seeded; mirrors the regularity
    # estimator's sampling so budget doublings are comparable across calls
    grid = field.grid
    N = grid.N
    g = field.values
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


def old_alpha_shift(alpha, R, v_list, samples):
    """(c, per_level, offsets_evaluated, exhaustive) as the former verifier computed them."""
    grid = alpha.grid
    n_offsets = grid.N // 2 + 1 if grid.n == 1 else (grid.N // 2 + 1) * grid.N
    exhaustive = n_offsets <= max(1, int(samples))
    if exhaustive:
        M, d = _offset_profile_exhaustive(alpha)
    else:
        M, d = _offset_profile_sampled(alpha, int(samples))
    per_level = {}
    for v in v_list:
        s = 2.0 ** v
        per_level[v] = float(np.max(2.0 ** (v * M) * (1.0 + s * d) ** (-R)))
    return max(per_level.values()), per_level, int(M.size), exhaustive


def _profile(field, budget):
    """(max_x |g(x) - g(x+k)|, periodic |k|) per offset row of `_offsets`."""
    k, d = exponents._offsets(field.grid, budget)
    distinct, where = exponents._distinct_offsets(k, field.grid.N)
    return exponents._scan(field, distinct)[where], d


# -- fields ----------------------------------------------------------------


def _fields():
    """Recipe and seeded random fields on 1D and 2D grids of a few sizes."""
    out = []
    for n, L, N in ((1, 4, 64), (1, 4, 1024), (2, 2, 16), (2, 4, 64)):
        g = make_grid(n, L, N)
        out.append(build_exponent(g, "sine", base=3.0, amplitude=0.5, frequency=2.0))
        out.append(build_exponent(g, "plateau", left=2.0, right=3.0, width=1.0))
        vals = np.random.default_rng(N + n).uniform(1.5, 4.0, size=g.shape)
        out.append(ExponentField(g, vals, 1.5, 4.0, "integrability"))
        if n == 2:
            # varies along the anti-diagonal, so offsets with k1 > N/2 carry
            # the largest differences at short periodic distance
            x0, x1 = g.coords()
            vals = 3.0 + np.sin(2.0 * math.pi * 3.0 * (x0 - x1) / (2.0 * g.L))
            out.append(ExponentField(g, vals, 2.0, 4.0, "integrability"))
    return out


FIELDS = _fields()
IDS = [f"{f.grid.n}d-N{f.grid.N}-{i}" for i, f in enumerate(FIELDS)]


def _fresh(field):
    # log_holder_constants memoizes its report on the field
    return ExponentField(field.grid, field.values, field.lo, field.hi, field.role,
                         g_inf=field.g_inf)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@pytest.mark.parametrize("exhaustive", [True, False], ids=["exhaustive", "sampled"])
def test_c_loc_and_offset_count_unchanged(field, exhaustive, monkeypatch):
    # the route is chosen by the point count; move the limit to reach both
    limit = 2 ** 30 if exhaustive else 0
    monkeypatch.setattr(exponents, "EXHAUSTIVE_POINT_LIMIT", limit)
    rep = log_holder_constants(_fresh(field))
    assert rep.exhaustive is exhaustive
    assert (rep.c_loc, rep.offsets_evaluated) == old_c_loc(field, exhaustive)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@pytest.mark.parametrize("exhaustive", [True, False], ids=["exhaustive", "sampled"])
def test_alpha_shift_report_unchanged(field, exhaustive):
    # every field above has more than 32 offsets up to symmetry
    samples = 2 ** 30 if exhaustive else 32
    v_list = list(range(6))
    # a small R lets offsets far from 0 win the ratio, so their distances count
    for R in (0.25, 1.5):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PreconditionWarning)
            rep = verify_alpha_shift(field, 2.0, R, v_list, samples=samples)
        assert rep.exhaustive is exhaustive
        assert (rep.c, rep.per_level, rep.offsets_evaluated, rep.exhaustive) == \
            old_alpha_shift(field, R, v_list, samples)


# -- half-plane enumeration, weight-ordered cutoff, deduplicated draws ----


@pytest.mark.parametrize("n,N", [(1, 16), (1, 64), (2, 16), (2, 32)])
def test_exhaustive_offsets_are_the_former_table_cells(n, N):
    # the former 2D table marked mirrored offsets with -1; the enumeration
    # lists exactly its other cells, in the table's row-major order
    grid = make_grid(n, 2, N)
    g = np.random.default_rng(N).uniform(1.5, 4.0, size=grid.shape)
    k, d = exponents._offsets(grid, None)
    assert len(k) == exponents._offset_count(grid)
    if n == 1:
        table = _old_offset_abs_max_1d(g)
        assert np.array_equal(k[:, 0], np.arange(table.size))
    else:
        table = _old_offset_abs_max_2d(g)
        assert np.array_equal(k, np.argwhere(table >= 0.0))
    field = ExponentField(grid, g, 1.5, 4.0, "integrability")
    M_old, d_old = _offset_profile_exhaustive(field)
    M, d_new = _profile(field, None)
    assert np.array_equal(d, d_old) and np.array_equal(d_new, d_old)
    assert np.array_equal(M, M_old)


def _field(grid, kind, a, b, seed):
    """A test field: constant, a plateau with transition width a*L, two spikes,
    plane waves, or noise."""
    if kind == "constant":
        return build_exponent(grid, "constant", value=2.0 + a)
    if kind == "wave":
        # plane waves with integer wave vectors and random phases, the fields
        # of the regularity benchmark
        rng = np.random.default_rng(seed)
        vals = np.full(grid.shape, 2.5)
        for amp in (0.5 * b, 0.25 * a):
            vec = rng.integers(-3, 4, size=grid.n).tolist()
            arg = sum(c * x for c, x in zip(vec, grid.coords())) * (math.pi / grid.L)
            vals = vals + amp * np.sin(arg + rng.uniform(0.0, 2.0 * math.pi))
        return ExponentField(grid, vals, 1.5, 3.5, "integrability")
    if kind == "spikes":
        # +-0.5 spikes a lattice vector D apart: M = osc only at k = +-D, and
        # for short D that offset wins and is the last one the cutoff scans
        vals = np.full(grid.shape, 2.0)
        x = np.unravel_index(seed % grid.size, grid.shape)
        D = (1 + int(a * 12), int(b * 12)) if grid.n == 2 else (1 + int(a * 60),)
        vals[x] += 0.5
        vals[tuple((xi + di) % grid.N for xi, di in zip(x, D))] -= 0.5
        return ExponentField(grid, vals, 1.5, 2.5, "integrability")
    if kind == "plateau":
        # a wide transition puts the largest weighted difference at large |k|,
        # late in the weight order
        return build_exponent(grid, "plateau", left=2.0, right=2.0 + 2.0 * b,
                              width=max(a, 1e-3) * grid.L)
    vals = np.random.default_rng(seed).uniform(1.5, 1.5 + 2.0 * b, size=grid.shape)
    return ExponentField(grid, vals, 1.5, 3.5, "integrability")


# 1D up to N=8192 and 2D up to N=128, the sizes where the full table is cheap
grids = st.one_of(
    st.sampled_from([16, 64, 256, 1024, 8192]).map(lambda N: make_grid(1, 2, N)),
    st.sampled_from([16, 32, 64, 128]).map(lambda N: make_grid(2, 2, N)),
)


kinds = st.sampled_from(["constant", "plateau", "spikes", "wave", "uniform"])


@settings(max_examples=40, deadline=None)
@given(grids, kinds, st.floats(0.0, 1.0), st.floats(0.01, 1.0), st.integers(0, 2 ** 16),
       st.booleans())
@example(make_grid(1, 2, 8192), "plateau", 1.0, 0.5, 0, True)
@example(make_grid(1, 2, 8192), "plateau", 0.3, 0.5, 0, False)
@example(make_grid(2, 2, 128), "plateau", 1.0, 0.5, 0, True)
@example(make_grid(2, 2, 128), "plateau", 0.6, 0.5, 0, False)
@example(make_grid(2, 2, 128), "spikes", 0.7, 0.3, 5000, True)
@example(make_grid(2, 2, 64), "spikes", 0.5, 0.5, 77, True)
@example(make_grid(1, 2, 8192), "spikes", 0.5, 0.5, 77, True)
@example(make_grid(2, 2, 128), "uniform", 0.0, 1.0, 3, True)
@example(make_grid(2, 2, 64), "constant", 0.5, 1.0, 0, True)
@example(make_grid(1, 2, 1024), "constant", 0.5, 1.0, 0, False)
@example(make_grid(1, 2, 8192), "wave", 0.8, 0.6, 7, True)
@example(make_grid(1, 2, 8192), "wave", 0.8, 0.6, 7, False)
@example(make_grid(2, 2, 128), "wave", 0.7, 0.9, 9, True)
@example(make_grid(2, 2, 128), "wave", 0.7, 0.9, 9, False)
@example(make_grid(2, 2, 64), "wave", 1.0, 0.2, 3, True)
def test_weight_ordered_cutoff_equals_full_table(grid, kind, a, b, seed, exhaustive):
    field = _field(grid, kind, a, b, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exponents, "EXHAUSTIVE_POINT_LIMIT", 2 ** 30 if exhaustive else 0)
        rep = log_holder_constants(field)
    assert rep.exhaustive is exhaustive
    assert (rep.c_loc, rep.offsets_evaluated) == old_c_loc(field, exhaustive)


@settings(max_examples=40, deadline=None)
@given(grids, kinds, st.floats(0.0, 1.0), st.floats(0.01, 1.0), st.integers(0, 2 ** 16))
# a spike pair whose second point lies in the next block along every
# spilling axis: only the B+K+1 neighbour holds it
@example(make_grid(1, 2, 64), "spikes", 0.5, 0.5, 7)
@example(make_grid(2, 2, 32), "spikes", 0.5, 0.6, 7 * 32 + 6)
@example(make_grid(2, 2, 32), "spikes", 0.0, 0.6, 6)
@example(make_grid(2, 2, 32), "spikes", 0.5, 0.0, 7 * 32)
@example(make_grid(2, 2, 128), "wave", 0.7, 0.9, 9)
@example(make_grid(1, 2, 8192), "uniform", 0.0, 1.0, 3)
@example(make_grid(1, 2, 8192), "wave", 0.8, 0.6, 7)
@example(make_grid(2, 2, 64), "uniform", 0.0, 1.0, 3)
def test_block_bound_covers_every_offset(grid, kind, a, b, seed):
    _assert_bound_covers_the_table(_field(grid, kind, a, b, seed))


def _assert_bound_covers_the_table(field):
    # M[k] <= min(U, P)[k] <= U[k] <= osc on the whole lattice: the
    # exhaustive table and the mirror of each of its offsets
    g = field.values
    k, _ = exponents._offsets(field.grid, None)
    M, _ = _profile(field, None)
    for lattice in (k, -k % field.grid.N):
        U = exponents._offset_bounds(g, lattice)
        B = exponents._scan_bounds(field, lattice, True)
        assert np.all(B >= M) and np.all(B <= U)
        assert np.all(U <= g.max() - g.min())


def _scaled(grid, vals):
    """A smoothness field with the given values, its range their own."""
    return ExponentField(grid, vals, float(vals.min()), float(vals.max()), "smoothness")


@pytest.mark.parametrize("n,N", [(1, 64), (1, 1024), (2, 32)])
@pytest.mark.parametrize("scale", [1e307, -1e307, 5e306])
def test_path_bound_near_overflow(n, N, scale):
    # a wave of amplitude 1e307 keeps P finite; uniform noise over +-|scale|
    # puts the largest P past the float range, where P is +inf and U decides
    grid = make_grid(n, 2, N)
    wave = _field(grid, "wave", 0.9, 1.0, 5)
    noise = np.random.default_rng(N).uniform(-1.0, 1.0, size=grid.shape)
    for vals in ((wave.values - 2.5) * scale, noise * scale):
        field = _scaled(grid, vals)
        _assert_bound_covers_the_table(field)
        assert log_holder_constants(field).c_loc == old_c_loc(field, True)[0]
    unit = exponents._memo_scan(field, np.eye(n, dtype=np.int64))
    assert N // 2 * float(unit.sum()) == math.inf  # the noise's P would overflow


def test_finite_maximum_whose_block_bound_overflows():
    # amplitude 5e307: at the short offsets U * w passes the float range, but
    # P is tight there and every score of the full table is finite, so
    # c_loc is that table's maximum and not an InvalidInput
    field = build_exponent(make_grid(2, 1.0, 32), "sine", base=0.0, amplitude=5e307,
                           role="smoothness")
    k, _ = exponents._offsets(field.grid, None)
    assert float(exponents._offset_bounds(field.values, k).max()) * 2.9 == math.inf
    assert log_holder_constants(field).c_loc == old_c_loc(field, True)[0] < math.inf


@pytest.mark.parametrize("n,N", [(1, 64), (2, 32)])
@pytest.mark.parametrize("step", [1e-310, 3e-309, 2.0 ** -1074])
def test_path_bound_at_subnormal_steps(n, N, step):
    # a sawtooth of subnormal steps: every unit difference and every sum of
    # them is subnormal, so P is +inf and U decides; a field constant along
    # the second axis has exact zero unit maxima there, and P = 0 on (0, k1)
    grid = make_grid(n, 2, N)
    x0 = np.indices(grid.shape)[0]
    for vals in (step * x0, step * (x0 % 8), 1.0 + 2.0 ** -52 * (x0 % 3)):
        field = _scaled(grid, vals.astype(np.float64))
        _assert_bound_covers_the_table(field)
        assert log_holder_constants(field).c_loc == old_c_loc(field, True)[0]
    if n == 2:
        k, _ = exponents._offsets(grid, None)
        on_axis = k[:, 0] == 0
        assert np.all(exponents._scan_bounds(_scaled(grid, step * x0), k, True)[on_axis] == 0.0)


@pytest.mark.parametrize("n,N", [(1, 256), (2, 64)])
def test_path_bound_is_tight_on_a_ramp(n, N):
    # a tent of ramp segments with exact dyadic steps: along the first axis
    # M[k] is k unit steps, which P meets up to its slack, while U carries
    # a block's worth of steps more; a P scaled by 0.99 falls below M there
    grid = make_grid(n, 2, N)
    x0 = np.indices(grid.shape)[0]
    field = _scaled(grid, 2.0 ** -7 * np.minimum(x0, N - x0))
    k, _ = exponents._offsets(grid, None)
    k = k[(k[:, 0] <= N // 4) & ((n == 1) | (k[:, -1] == 0))]
    M = exponents._scan(field, k)
    B = exponents._scan_bounds(field, k, True)
    U = exponents._offset_bounds(field.values, k)
    assert np.all(B >= M)
    moved = M > 0.0
    assert moved.sum() == N // 4 and np.all(B[moved] < U[moved])
    assert np.all(B[moved] <= M[moved] * (1.0 + 2.0 ** -39))


def test_path_bound_only_where_the_unit_maxima_come_for_free(monkeypatch):
    # on the sampled route the unit offsets are not scanned for P, unless
    # the field's memo already holds them
    grid = make_grid(2, 2, 64)
    field = _field(grid, "wave", 0.7, 0.9, 9)
    k, _ = exponents._offsets(grid, 256)
    distinct, _ = exponents._distinct_offsets(k, grid.N)
    U = exponents._offset_bounds(field.values, distinct)
    assert np.array_equal(exponents._scan_bounds(field, distinct, False), U)
    assert field._scanned == {}
    exponents._memo_scan(field, np.eye(2, dtype=np.int64))
    B = exponents._scan_bounds(field, distinct, False)
    assert np.all(B <= U) and np.any(B < U)


@pytest.mark.parametrize("n,N", [(1, 64), (2, 32)])
@pytest.mark.parametrize("exhaustive", [True, False], ids=["exhaustive", "sampled"])
def test_constant_field_needs_no_scan(n, N, exhaustive, monkeypatch):
    # U = 0 everywhere, so the first offset already meets fl(U * w) <= best = 0
    def no_scan(field, k):
        raise AssertionError(f"scanned {len(k)} offsets of a constant field")

    monkeypatch.setattr(exponents, "_scan", no_scan)
    monkeypatch.setattr(exponents, "EXHAUSTIVE_POINT_LIMIT", 2 ** 30 if exhaustive else 0)
    rep = log_holder_constants(build_exponent(make_grid(n, 2, N), "constant", value=2.5))
    assert rep.c_loc == 0.0 and rep.exhaustive is exhaustive


def assert_sampled_offsets_equal_the_former_draws(n, L, budget):
    # every grid size from 16 (or 8L) to 2^17 draws the same offsets and
    # distances as the former scalar loop
    for N in [2 ** e for e in range(4, 18) if 2 ** e >= 8 * L]:
        grid = make_grid(n, L, N)
        k, d = exponents._offsets(grid, budget)
        k_old, d_old = _old_offsets(grid, budget)
        assert k.dtype == k_old.dtype and d.dtype == d_old.dtype
        assert np.array_equal(k, k_old) and np.array_equal(d, d_old)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("budget", [1, 32, 130, 512, SAMPLE_OFFSETS])
def test_sampled_offsets_equal_the_former_draws(n, budget):
    for L in (0.5, 2, 8):
        assert_sampled_offsets_equal_the_former_draws(n, L, budget)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
@pytest.mark.parametrize("budget", [32, 512, SAMPLE_OFFSETS])
def test_deduplicated_sampled_profile_equals_per_draw_rolls(field, budget):
    N = field.grid.N
    k, _ = exponents._offsets(field.grid, budget)
    distinct, where = exponents._distinct_offsets(k, N)
    # each draw maps to itself or its mirror, and the larger budgets repeat draws
    rep = distinct[where]
    assert np.all(np.all((rep - k) % N == 0, axis=1) | np.all((rep + k) % N == 0, axis=1))
    assert len(np.unique(distinct, axis=0)) == len(distinct)
    if budget == SAMPLE_OFFSETS:
        assert len(distinct) < len(k)
    M, d = _profile(field, budget)
    M_old, d_old = _offset_profile_sampled(field, budget)
    assert np.array_equal(M, M_old) and np.array_equal(d, d_old)


# -- bound-ordered alpha-shift maxima and the per-field scan memo -----------


def _full_profile_shift(field, R, v_list, budget):
    """per_level of the alpha-shift check over the whole profile, no cutoff, no memo."""
    M, d = _profile(field, budget)
    return {v: float(np.max(2.0 ** (v * M) * (1.0 + 2.0 ** v * d) ** (-R))) for v in v_list}, d.size


def _shift(field, R, v_list, samples):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PreconditionWarning)
        return verify_alpha_shift(field, 2.0, R, v_list, samples=samples)


shift_grids = st.one_of(
    st.sampled_from([16, 64, 256, 1024]).map(lambda N: make_grid(1, 2, N)),
    st.sampled_from([16, 32, 64]).map(lambda N: make_grid(2, 2, N)),
)


@settings(max_examples=60, deadline=None)
@given(shift_grids, kinds, st.floats(0.0, 1.0), st.floats(0.01, 1.0), st.integers(0, 2 ** 16),
       st.sampled_from([None, 32, 256]), st.one_of(st.just(0.0), st.floats(0.01, 8.0)),
       st.integers(0, 6))
# a spike pair far apart: with R = 0 its offset wins every level v >= 1,
# but a bound built from half of U lets the scan stop before reaching it
@example(make_grid(2, 2, 64), "spikes", 0.9, 0.9, 77, None, 0.0, 6)
@example(make_grid(1, 2, 1024), "spikes", 0.9, 0.5, 77, 256, 0.0, 6)
@example(make_grid(2, 2, 64), "wave", 0.7, 0.9, 9, 256, 0.5, 6)
@example(make_grid(1, 2, 256), "plateau", 1.0, 0.5, 0, None, 1.5, 6)
@example(make_grid(2, 2, 32), "constant", 0.5, 1.0, 0, None, 0.0, 6)
def test_alpha_shift_cutoff_equals_full_profile(grid, kind, a, b, seed, budget, R, top):
    # the route follows the offset count against `samples`; small grids
    # stay exhaustive even with a small budget
    field = _field(grid, kind, a, b, seed)
    v_list = list(range(top + 1))
    rep = _shift(field, R, v_list, 2 ** 30 if budget is None else budget)
    want, count = _full_profile_shift(field, R, v_list, None if rep.exhaustive else budget)
    assert rep.per_level == want
    assert rep.c == max(want.values()) and rep.offsets_evaluated == count


@pytest.mark.parametrize("R", [0.0, 2.0])
def test_alpha_shift_overflowing_level_equals_full_profile(R):
    # at v = 600 the pow overflows to inf for the larger differences, and
    # with R = 2 the factor underflows to 0 there, so some scores are
    # inf * 0 = nan: the full profile's maximum is then nan, and so is the
    # cutoff's; verify_alpha_shift refuses that level with a typed error
    field = build_exponent(make_grid(1, 4, 256), "sine", base=0.0, amplitude=1.0,
                           frequency=1.0, role="smoothness")
    with np.errstate(over="ignore", invalid="ignore"):
        got, _ = exponents._shift_maxima(field, None, R, [600])
        want, _ = _full_profile_shift(field, R, [600], None)
    assert repr(got) == repr(want) == ("{600: nan}" if R else "{600: inf}")
    with pytest.raises(InvalidInput, match="level 600"):
        _shift(field, R, [600], 2 ** 30)


def _memo_is_sound(field):
    # every remembered maximum is the scan of its own offset on this field,
    # and every remembered float32 bound is at least that scan
    keys = list(field._scanned)
    k = np.stack(np.unravel_index(keys, (field.grid.N,) * field.grid.n), axis=1)
    assert [field._scanned[key] for key in keys] == exponents._scan(field, k).tolist()
    keys = list(field._bounds32)
    k = np.stack(np.unravel_index(keys, (field.grid.N,) * field.grid.n), axis=1)
    assert np.all(np.array([field._bounds32[key] for key in keys]) >= exponents._scan(field, k))


@pytest.mark.parametrize("n,N", [(1, 1024), (2, 64)])
def test_scan_memo_is_per_field_and_order_free(n, N):
    # fields on one grid share offsets but not maxima; each order of the two
    # checks, and a sampled check before an exhaustive one, must give the
    # reports of fresh fields and the memo-free full-profile values
    grid = make_grid(n, 2, N)
    fields = [_field(grid, kind, 0.6, 0.8, 11) for kind in ("wave", "spikes", "uniform")]
    R, v_list = 0.5, list(range(5))
    for field in fields:
        assert _fresh(field)._scanned == {}
        want = {budget: _full_profile_shift(field, R, v_list, budget)[0] for budget in (None, 64)}
        lh_want = old_c_loc(field, True)[0]

        first = _fresh(field)
        assert _shift(first, R, v_list, 2 ** 30).per_level == want[None]
        assert log_holder_constants(first).c_loc == lh_want

        second = _fresh(field)
        assert log_holder_constants(second).c_loc == lh_want
        assert _shift(second, R, v_list, 64).per_level == want[64]
        assert _shift(second, R, v_list, 2 ** 30).per_level == want[None]
        for used in (first, second):
            _memo_is_sound(used)


def _counting_kernels(monkeypatch):
    """Offsets per call handed to the exact 2D kernel and to the float32 pass, and a
    weak reference to each float32 pass's tiling."""
    exact, bounded, tilings = [], [], []
    kernel, pass32 = _accel.offset_abs_max_2d, _accel.offset_abs_max_float32

    def counting(g, offsets):
        exact.append(len(offsets))
        return kernel(g, offsets)

    def counting32(g32, tiled32, offsets):
        bounded.append(len(offsets))
        tilings.append(weakref.ref(tiled32))
        return pass32(g32, tiled32, offsets)

    monkeypatch.setattr(_accel, "offset_abs_max_2d", counting)
    monkeypatch.setattr(_accel, "offset_abs_max_float32", counting32)
    return exact, bounded, tilings


def test_alpha_shift_scan_count_is_pinned(monkeypatch):
    # regularity-2d in small: an exhaustive log-Hoelder scan at N = 128, then
    # the sampled alpha-shift check reusing its memos; counts are offsets
    # handed to the exact float64 kernel and to the float32 pass
    exact, bounded, tilings = _counting_kernels(monkeypatch)
    field = _field(make_grid(2, 2, 128), "wave", 0.7, 0.9, 9)
    lh = log_holder_constants(field)
    lh_exact, lh_bounded, lh_tilings = sum(exact), sum(bounded), len(tilings)
    rep = _shift(field, 0.5 * lh.c_loc, range(5), SAMPLE_OFFSETS)
    assert not rep.exhaustive and rep.offsets_evaluated == 4093
    distinct = len(exponents._distinct_offsets(exponents._offsets(field.grid, 4096)[0], 128)[0])
    assert (lh_exact, sum(exact) - lh_exact, distinct) == (7, 6, 1480)
    assert (lh_bounded, sum(bounded) - lh_bounded) == (188, 74)
    # the two unit offsets of the path bound are scanned in one call, and
    # every exact rescan alone
    assert exact[0] == 2 and set(exact[1:]) == {1}
    # one float32 tiling per bounded scan that bounds new offsets, gone once
    # the scan returns: one for the log-Hoelder table and one for each of the
    # four levels that bound new offsets (one level reads all of its own from
    # the memos)
    assert all(ref() is None for ref in tilings)
    assert len({id(ref) for ref in tilings[:lh_tilings]}) == 1
    assert len({id(ref) for ref in tilings}) == 5 < len(tilings)


def test_float32_tier_leaves_few_exact_scans(monkeypatch):
    # on desk-size exhaustive 2D fields the float32 bound rules out all but a
    # few of the offsets that B = min(U, P) leaves, so a tier that silently
    # switched off would hand them all to the float64 kernel
    exact, bounded, _ = _counting_kernels(monkeypatch)
    for seed in (1, 5, 9):
        field = _field(make_grid(2, 2, 64), "wave", 0.7, 0.9, seed)
        _shift(field, 0.5 * log_holder_constants(field).c_loc, range(5), 2 ** 30)
    assert 0 < sum(exact) <= sum(bounded) / 10


# 1D up to N = 4096 and 2D up to N = 64, every offset of the exhaustive table
bound_grids = st.one_of(
    st.sampled_from([16, 64, 256, 1024, 4096]).map(lambda N: make_grid(1, 2, N)),
    st.sampled_from([16, 32, 64]).map(lambda N: make_grid(2, 2, N)),
)
# field magnitudes: float32's normal and subnormal range, float64's
# subnormal-scale steps, and magnitudes past float32's range
scales = st.one_of(st.floats(-40.0, 30.0).map(lambda e: 10.0 ** e),
                   st.sampled_from([1e-310, 3e-309, 2.0 ** -1074, 1e-45, 2e38, 1e300]))


@settings(max_examples=60, deadline=None)
@given(bound_grids, kinds, st.floats(0.0, 1.0), st.floats(0.01, 1.0), st.integers(0, 2 ** 16),
       scales, st.booleans())
@example(make_grid(2, 2, 64), "wave", 0.7, 0.9, 9, 1e-310, False)
@example(make_grid(1, 2, 4096), "uniform", 0.0, 1.0, 3, 1e-40, True)
@example(make_grid(2, 2, 32), "spikes", 0.5, 0.6, 7 * 32 + 6, 1.0, False)
@example(make_grid(2, 2, 64), "uniform", 0.0, 1.0, 3, 1e300, True)
@example(make_grid(1, 2, 1024), "wave", 0.8, 0.6, 7, 2e38, False)
def test_float32_bound_covers_every_offset(grid, kind, a, b, seed, scale, centred):
    # B32 >= M on the whole exhaustive table, with no warning and no error;
    # past float32's range the tier is skipped, B32 = +inf, with no cast
    field = _field(grid, kind, a, b, seed)
    field = _scaled(grid, (field.values - 2.5 * centred) * scale)
    k, _ = exponents._offsets(grid, None)
    casts = []

    def cast():
        casts.append(None)
        return exponents._float32_cast(field)

    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
        warnings.simplefilter("error")
        B32 = exponents._float32_bounds(field, k, cast)
    M = exponents._scan(field, k)
    assert np.all(B32 >= M)
    past = max(abs(field.min), abs(field.max)) > float(np.finfo(np.float32).max) / 2
    assert np.all(B32 == np.inf) == past
    assert len(casts) == (0 if past else 1)
    keys = exponents._offset_keys(field, k).tolist()
    assert field._bounds32 == ({} if past else dict(zip(keys, B32.tolist())))
    if scale <= 1e30:
        assert log_holder_constants(field).c_loc == old_c_loc(field, True)[0]


def test_pow_error_is_within_the_bound_slack():
    # the alpha-shift bound's slack assumes numpy's pow errs by at most
    # 2^-45 relative; the reference ldexp(pow(2, x - e), e) with e = round(x)
    # rounds once, in libm's pow (x - e and ldexp are exact)
    x = np.random.default_rng(0).uniform(0.0, 60.0, size=4096)
    got = 2.0 ** x
    e = np.round(x)
    ref = np.array([math.ldexp(math.pow(2.0, xi - ei), int(ei)) for xi, ei in zip(x, e)])
    assert np.all(np.abs(got - ref) <= 2.0 ** -47 * ref)


def test_log_error_is_within_the_weight_slack():
    # the sampled route orders by fl(np.log(.) (1 + 2^-40)) and scores with
    # math.log, which assumes the two logs differ by at most 2^-45 relative
    args = [math.e + 1.0 / exponents._offsets(make_grid(n, L, N), SAMPLE_OFFSETS)[1][1:]
            for n, L, N in ((1, 4, 2 ** 17), (2, 2, 512), (2, 8, 1024))]
    args.append(math.e + np.random.default_rng(0).uniform(0.0, 1e6, size=2 ** 16))
    x = np.concatenate(args)
    got = np.log(x)
    ref = np.array([math.log(xi) for xi in x.tolist()])
    assert np.all(np.abs(got - ref) <= 2.0 ** -45 * ref)
    assert np.all(got * exponents._SLACK >= ref)


@pytest.mark.parametrize("n,N", [(1, 4096), (2, 128)])
def test_sampled_route_takes_math_log_only_where_it_scans(n, N, monkeypatch):
    weighed, scanned = [], []
    weights, scan = exponents._math_log_weights, exponents._scan

    def counting_weights(dist):
        weighed.append(len(dist))
        return weights(dist)

    def counting_scan(field, k):
        scanned.append(len(k))
        return scan(field, k)

    monkeypatch.setattr(exponents, "_math_log_weights", counting_weights)
    monkeypatch.setattr(exponents, "_scan", counting_scan)
    monkeypatch.setattr(exponents, "EXHAUSTIVE_POINT_LIMIT", 0)
    field = _field(make_grid(n, 2, N), "wave", 0.7, 0.9, 9)
    rep = log_holder_constants(field)
    assert (rep.c_loc, rep.offsets_evaluated) == old_c_loc(field, False)
    distinct = len(exponents._distinct_offsets(exponents._offsets(field.grid, SAMPLE_OFFSETS)[0],
                                                N)[0])
    assert sum(weighed) == sum(scanned) < distinct
