"""The hot kernels against per-pair and per-term Python loops."""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vexint import _accel

EPS = np.finfo(np.float64).eps
field_values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def pair_loop_1d(g):
    """max |g(i) - g(j)| per mirrored offset class min(k, N-k), one pair at a time."""
    N = len(g)
    out = np.zeros(N // 2 + 1)
    for i in range(N):
        for j in range(N):
            k = (j - i) % N
            c = min(k, N - k)
            out[c] = max(out[c], abs(g[i] - g[j]))
    return out


def half_plane_offset(k0, k1, N):
    """The member of {k, -k} that the half-plane table stores."""
    h = N // 2
    if k0 > h or (k0 in (0, h) and k1 > h):
        k0, k1 = (-k0) % N, (-k1) % N
    return k0, k1


def pair_loop_2d(g):
    """Half-plane table by a per-pair loop; cells no pair reaches keep the -1 sentinel."""
    N = g.shape[0]
    out = np.full((N // 2 + 1, N), -1.0)
    cells = list(itertools.product(range(N), repeat=2))
    for i0, i1 in cells:
        for j0, j1 in cells:
            c = half_plane_offset((j0 - i0) % N, (j1 - i1) % N, N)
            out[c] = max(out[c], abs(g[i0, i1] - g[j0, j1]))
    return out


# offsets anywhere in the lattice: negative, wrapped several times, repeated
lattice_offsets = st.lists(st.integers(-50, 50), min_size=1, max_size=30)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 24).flatmap(lambda N: st.tuples(
    st.lists(field_values, min_size=N, max_size=N), lattice_offsets)))
def test_offset_abs_max_1d_matches_pair_loop(case):
    vals, ks = case
    g = np.array(vals, dtype=np.float64)
    N = len(g)
    table = pair_loop_1d(g)
    want = np.array([table[min(k % N, -k % N)] for k in ks])
    assert np.array_equal(_accel.offset_abs_max_1d(g, np.array(ks)), want)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 4, 6, 8]).flatmap(lambda N: st.tuples(
    st.lists(field_values, min_size=N * N, max_size=N * N).map(
        lambda v: np.array(v, dtype=np.float64).reshape(N, N)),
    st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)), min_size=1, max_size=30))))
def test_offset_abs_max_2d_matches_pair_loop(case):
    g, ks = case
    N = g.shape[0]
    table = pair_loop_2d(g)
    want = np.array([table[half_plane_offset(k0 % N, k1 % N, N)] for k0, k1 in ks])
    assert np.all(want >= 0.0)  # every offset has a half-plane representative
    assert np.array_equal(_accel.offset_abs_max_2d(g, np.array(ks)), want)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(1, 7), (1, 24), (2, 2), (2, 4), (2, 6)]).flatmap(
    lambda case: st.tuples(
        st.just(case),
        st.lists(field_values, min_size=case[1] ** case[0], max_size=case[1] ** case[0]),
        st.lists(st.tuples(*[st.integers(-50, 50)] * case[0]), min_size=1, max_size=30))))
def test_offset_abs_max_float32_matches_pair_loop(case):
    # the pair loops on float32 values subtract in float32
    (n, N), vals, ks = case
    g32 = np.array(vals, dtype=np.float32).reshape((N,) * n)
    got = _accel.offset_abs_max_float32(g32, np.tile(g32, (2,) * n), np.array(ks))
    if n == 1:
        table = pair_loop_1d(g32)
        want = [table[min(k % N, -k % N)] for k, in ks]
    else:
        table = pair_loop_2d(g32)
        want = [table[half_plane_offset(k0 % N, k1 % N, N)] for k0, k1 in ks]
    assert got.dtype == np.float64 and np.array_equal(got, np.array(want))


def pow_or_inf(x, p):
    try:
        return x ** p
    except OverflowError:
        return math.inf


magnitudes = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 64).flatmap(lambda n: st.tuples(
    st.lists(magnitudes, min_size=n, max_size=n),
    st.lists(st.floats(1.0, 6.0), min_size=n, max_size=n),
    st.floats(1e-3, 1e3),
)))
def test_modular_pow_sum_matches_term_loop(case):
    absf, p, lam = case
    terms = [pow_or_inf(a / lam, q) for a, q in zip(absf, p)]
    want = math.fsum(terms)
    got = _accel.modular_pow_sum(np.array(absf), np.array(p), lam)
    # numpy's vectorized pow may differ from libm pow in the last bit, and
    # any summation order errs by at most (n-1) eps times the sum of the
    # non-negative terms
    assert abs(got - want) <= (len(terms) + 4) * EPS * want


def test_modular_pow_sum_zero_entries_and_overflow():
    p = np.array([3.0, 2.0, 1.5])
    assert _accel.modular_pow_sum(np.zeros(3), p, 0.5) == 0.0
    assert _accel.modular_pow_sum(np.array([0.0, 2.0, 0.0]), p, 1.0) == 4.0
    # one term overflows
    absf = np.array([1e200, 1.0, 0.0])
    assert pow_or_inf(1e200, 3.0) == math.inf
    assert _accel.modular_pow_sum(absf, p, 1.0) == math.inf
    # every term is finite, their sum is not
    big = np.array([1e308, 1e308])
    assert sum([1e308, 1e308]) == math.inf
    assert _accel.modular_pow_sum(big, np.ones(2), 1.0) == math.inf


def zeroed(absf, kind, rng):
    """absf with zeros in runs (as a level stack has them), scattered, everywhere or nowhere."""
    n = absf.size
    if kind == "runs":
        for start in rng.integers(0, n, size=1 + n // 64):
            absf[start:start + rng.integers(1, 129)] = 0.0
    elif kind == "scattered":
        absf[rng.random(n) < 0.3] = 0.0
    elif kind == "all":
        absf[:] = 0.0
    return absf


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3000), st.sampled_from(["runs", "scattered", "all", "none"]),
       st.floats(-300.0, 300.0), st.floats(0.0, 20.0), st.floats(1.0, 64.0),
       st.integers(0, 2**32 - 1))
def test_modular_pow_sum_equals_the_plain_power_bit_for_bit(n, kind, log_lam, spread, p_max,
                                                           seed):
    # the kernel skips zero bases; every other power, and the sum, must be
    # the bits of numpy's unmasked expression, overflow to inf included
    rng = np.random.default_rng(seed)
    log_f = np.clip(log_lam + rng.uniform(-spread, spread, n), -300.0, 300.0)
    absf = zeroed(10.0 ** log_f, kind, rng)
    p = rng.uniform(1.0, p_max, n)
    lam = 10.0 ** log_lam
    with np.errstate(over="ignore"):
        want = float(np.sum((absf / lam) ** p))
    got = _accel.modular_pow_sum(absf, p, lam)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 64).flatmap(lambda n: st.tuples(
    st.lists(st.floats(-700.0, 700.0), min_size=n, max_size=n),
    st.lists(st.floats(1.0, 64.0), min_size=n, max_size=n),
    st.floats(-700.0, 700.0),
)))
def test_log_modular_step_matches_term_loop(case):
    logf, p, t = case
    exps = [q * (lf - t) for lf, q in zip(logf, p)]
    top = max(exps)
    w = [math.exp(e - top) for e in exps]
    want_g = top + math.log(math.fsum(w))
    want_slope = -math.fsum(q * x for q, x in zip(p, w)) / math.fsum(w)
    g, slope = _accel.log_modular_step(np.array(logf), np.array(p), t)
    # the exponents p (logf - t) reach 1e5 in size, so each may err by a few
    # ulps of that; the weights and sums err by a few ulps relative
    assert abs(g - want_g) <= 16 * EPS * (abs(top) + max(abs(e) for e in exps) + len(w))
    assert abs(slope - want_slope) <= 1e-9 * abs(want_slope)
    assert -max(p) * (1 + 4 * EPS) <= slope <= -min(p) * (1 - 4 * EPS)


def test_scan_buffer_starts_on_a_cache_line():
    # np.empty_like follows malloc's alignment, 16 bytes past a page for a
    # mapped block, which slows every store of the scan
    for shape, dtype in itertools.product([(16,), (1000,), (32, 32), (256, 256)],
                                          [np.float64, np.float32]):
        buf = _accel._cache_aligned_like(np.zeros(shape, dtype=dtype))
        assert buf.ctypes.data % 64 == 0
        assert buf.shape == shape and buf.dtype == dtype and buf.flags.c_contiguous
