"""Hot numeric kernels: the per-offset difference scans and the modular sums.

They live in one module so that profilers and tracers can wrap the
functions that dominate the regularity scans and every Luxemburg solve:
the exact float64 offset scans `offset_abs_max_1d/2d`, and the modular
passes `modular_pow_sum` and `log_modular_step`.  The float32 bounding
pass `offset_abs_max_float32` lives here too; a tracer that wraps only the
exact scans sees its time in the caller's span.  Which offsets to scan,
once each, is decided in `exponents`.  A Luxemburg solve makes its real
modular passes with `modular_pow_sum` and its Newton steps for the root
with `log_modular_step`, one pass over the nonzero entries each.

All three offset scans run one loop, `_abs_max_each`: per offset, a
subtraction into one reused buffer, an in-place abs and a max.  They
differ in where g(x+k) comes from.  The exact scans take it from
np.roll(g, -k), a fresh float64 copy per offset: after the float32 tier
only a few dozen offsets of a field reach them, so a copy costs a few
milliseconds in all.  The float32 pass, which sees every offset the
cheaper bounds leave, takes it as a slice of its caller's float32 tiling
(the field tiled twice along every axis), with no copy: at 256 x 256 the
cast, the tiling and the buffer stay in a 2 MiB cache.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["offset_abs_max_1d", "offset_abs_max_2d", "offset_abs_max_float32",
           "modular_pow_sum", "log_modular_step"]


# -- per-offset maximum absolute difference ---------------------------------
#
# For a periodic field g, M[k] = max_x |g(x) - g(x+k)| for any integer
# offsets k (taken modulo the grid).


def _abs_max_each(g: np.ndarray, offsets: np.ndarray, shifted) -> np.ndarray:
    """max_x |fl(g(x) - shifted(k)(x))| for each row k of `offsets`, reduced to
    0 <= k < N per axis, where shifted(k) is g(x+k) over the grid."""
    buf = _cache_aligned_like(g)
    out = np.empty(len(offsets))
    for i, k in enumerate((np.asarray(offsets) % g.shape).tolist()):
        np.subtract(g, shifted(k), out=buf)
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


def _offset_abs_max(g: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    g = np.ascontiguousarray(g, dtype=np.float64)
    axes = tuple(range(g.ndim))
    return _abs_max_each(g, offsets, lambda k: np.roll(g, [-a for a in k], axis=axes))


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
    return _abs_max_each(g32, offsets, lambda k: tiled32[tuple(
        slice(a, a + s) for a, s in zip(k, g32.shape))])


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
        return float(terms.sum())


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
