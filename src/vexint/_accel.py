"""Hot numeric kernels: the per-offset difference scans and the modular sums.

They live in one module so that profilers and tracers can wrap the
functions that dominate the regularity scans and every Luxemburg solve:
the exact float64 offset scans `offset_abs_max_1d/2d`, and the modular
passes `modular_pow_sum` and `log_modular_step`.  The float32 bounding
pass `offset_abs_max_float32` lives here too; a tracer that wraps only the
exact scans sees its time in the caller's span.  The offset scans take
slices, not rolls, over offsets given by the caller: which offsets to
scan, once each, is decided in `exponents`.  A Luxemburg solve makes its
real modular passes with `modular_pow_sum` and its Newton steps for the
root with `log_modular_step`, one pass over the nonzero entries each.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["offset_abs_max_1d", "offset_abs_max_2d", "offset_abs_max_float32",
           "modular_pow_sum", "log_modular_step"]


# -- per-offset maximum absolute difference ---------------------------------
#
# For a periodic field g, M[k] = max_x |g(x) - g(x+k)| for any integer
# offsets k (taken modulo the grid).  The exact float64 scan needs no copy
# of the field: read in flat order and shifted by s = k0 N + k1 (mod N^n),
# g gives g(x+k) at every x whose x1 + k1 does not wrap, so one offset is
# two contiguous subtractions into a reused buffer, then the wrapped
# columns again, from the right rows, then an in-place abs and a max.
# Where more columns wrap than not, s is taken a row back (s - N), and the
# columns that do not wrap are the ones redone.  Every entry of the buffer
# ends as fl(g(x) - g(x+k)), as a rolled copy would give it.  The float32
# pass takes its caller's float32 cast and tiling of the field (tiled twice
# along every axis), so that g(x+k) is one slice of the tiling; at
# 256 x 256 the cast, the tiling and the buffer stay in a 2 MiB cache,
# where a float64 tiling would not.


def _shifted_difference(g: np.ndarray, k: list[int], buf: np.ndarray) -> None:
    """buf = fl(g(x) - g(x+k)) over the grid, for an offset 0 <= k < N per axis."""
    size, N, k1 = g.size, g.shape[-1], k[-1]
    back = g.ndim == 2 and 2 * k1 > N
    s = (k[0] * N + k1 - back * N) % size if g.ndim == 2 else k1
    flat, out = g.reshape(-1), buf.reshape(-1)
    np.subtract(flat[:size - s], flat[s:], out=out[:size - s])
    np.subtract(flat[size - s:], flat[:s], out=out[size - s:])
    if g.ndim == 2 and 0 < k1:
        k0 = k[0]
        x1, y1 = (slice(0, N - k1), slice(k1, N)) if back else (slice(N - k1, N), slice(0, k1))
        np.subtract(g[:N - k0, x1], g[k0:, y1], out=buf[:N - k0, x1])
        np.subtract(g[N - k0:, x1], g[:k0, y1], out=buf[N - k0:, x1])


def _offset_abs_max(g: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    g = np.ascontiguousarray(g, dtype=np.float64)
    buf = _cache_aligned_like(g)
    out = np.empty(len(offsets))
    for i, k in enumerate((np.asarray(offsets) % g.shape).tolist()):
        _shifted_difference(g, k, buf)
        np.abs(buf, out=buf)
        out[i] = buf.max()
    return out


def _cache_aligned_like(g: np.ndarray) -> np.ndarray:
    """`np.empty_like(g)` with its data on a 64-byte boundary: every offset stores the
    whole buffer, and off a cache line (malloc maps a large block 16 bytes past a page
    boundary) a 256 x 256 scan takes about a quarter longer."""
    per_line = 64 // g.itemsize
    raw = np.empty(g.size + per_line, dtype=g.dtype)
    skip = -raw.ctypes.data % 64 // g.itemsize
    return raw[skip:skip + g.size].reshape(g.shape)


def offset_abs_max_1d(g: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """M[k] for each integer offset k in `offsets`, shape (K,)."""
    return _offset_abs_max(g, np.reshape(offsets, (-1, 1)))


def offset_abs_max_2d(g: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """M[k] for each integer offset pair k in `offsets`, shape (K, 2)."""
    return _offset_abs_max(g, np.reshape(offsets, (-1, 2)))


def offset_abs_max_float32(g32: np.ndarray, tiled32: np.ndarray,
                           offsets: np.ndarray) -> np.ndarray:
    """max_x |fl32(g32(x) - g32(x+k))| for each row k of `offsets`, shape (K, n), as float64.

    `g32` is a float32 field and `tiled32` is np.tile(g32, (2,) * n); the
    differences are rounded in float32, and each maximum is exact in float64.
    """
    buf = _cache_aligned_like(g32)
    out = np.empty(len(offsets))
    for i, k in enumerate((np.asarray(offsets) % g32.shape).tolist()):
        np.subtract(g32, tiled32[tuple(slice(a, a + s) for a, s in zip(k, g32.shape))], out=buf)
        np.abs(buf, out=buf)
        out[i] = buf.max()
    return out


# -- variable-exponent modular sum -------------------------------------------


def modular_pow_sum(absf: np.ndarray, p: np.ndarray, lam: float) -> float:
    """sum_i (|f_i|/lam)^{p_i}; may overflow to inf, which callers treat as > 1.

    A zero base is skipped: its quotient +0 stays +0, which is 0^p for the
    p > 0 that every caller has.  numpy's power is about twice as slow on
    vectors with runs of zeros, and a level stack is zero wherever no
    coefficient touches.
    """
    absf = np.ascontiguousarray(absf, dtype=np.float64).ravel()
    p = np.ascontiguousarray(p, dtype=np.float64).ravel()
    with np.errstate(over="ignore"):
        terms = np.divide(absf, lam)
        np.power(terms, p, out=terms, where=absf > 0.0)
        return float(np.sum(terms))


def log_modular_step(logf: np.ndarray, p: np.ndarray, t: float) -> tuple[float, float]:
    """log sum_i exp(p_i (logf_i - t)) and its derivative in t, for one Newton step.

    `logf` holds log|f| over the nonzero entries and `p` the exponents there,
    so h^n times the sum is the modular at lambda = e^t.  The exponents are
    shifted by their maximum, so no term overflows and the largest one is
    exactly 1; the derivative -sum p_i w_i / sum w_i lies in [-max p, -min p].
    """
    z = np.subtract(logf, t)
    z *= p
    top = float(z.max())
    z -= top
    np.exp(z, out=z)
    s = float(z.sum())
    z *= p
    return top + math.log(s), -float(z.sum()) / s
