"""Hot numeric kernels: the per-offset difference scans and the modular sums.

They live in one module so that profilers and tracers can wrap the four
functions that dominate the regularity scans and every Luxemburg solve.
The offset scans take slices, not rolls, over offsets given by the caller:
which offsets to scan, once each, is decided in `exponents`.  A Luxemburg
solve makes its real modular passes with `modular_pow_sum` and its Newton
steps for the root with `log_modular_step`, one pass over the nonzero
entries each.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["offset_abs_max_1d", "offset_abs_max_2d", "modular_pow_sum", "log_modular_step"]


# -- per-offset maximum absolute difference ---------------------------------
#
# For a periodic field g, M[k] = max_x |g(x) - g(x+k)| for any integer
# offsets k (taken modulo the grid).  The field is tiled twice along every
# axis, so g(x+k) is the slice of that tiling starting at k; each offset
# costs one subtraction into a reused buffer, an in-place abs and a max,
# with no copy of the field per offset.  A caller that scans one field in
# several calls may pass the tiling, np.tile(g, (2,) * g.ndim), to all of
# them; otherwise each call makes its own.


def _offset_abs_max(g: np.ndarray, offsets: np.ndarray, tiled: np.ndarray | None) -> np.ndarray:
    g = np.ascontiguousarray(g, dtype=np.float64)
    if tiled is None:
        tiled = np.tile(g, (2,) * g.ndim)
    buf = _cache_aligned_like(g)
    out = np.empty(len(offsets))
    for i, k in enumerate((np.asarray(offsets) % g.shape).tolist()):
        np.subtract(g, tiled[tuple(slice(a, a + s) for a, s in zip(k, g.shape))], out=buf)
        np.abs(buf, out=buf)
        out[i] = buf.max()
    return out


def _cache_aligned_like(g: np.ndarray) -> np.ndarray:
    """`np.empty_like(g)` for a float64 g, with its data on a 64-byte boundary: every offset
    stores the whole buffer, and off a cache line (malloc maps a large block 16 bytes past a
    page boundary) a 256 x 256 scan takes about a quarter longer."""
    raw = np.empty(g.size + 8)
    skip = -raw.ctypes.data % 64 // 8
    return raw[skip:skip + g.size].reshape(g.shape)


def offset_abs_max_1d(g: np.ndarray, offsets: np.ndarray,
                      tiled: np.ndarray | None = None) -> np.ndarray:
    """M[k] for each integer offset k in `offsets`, shape (K,); `tiled` is g tiled twice."""
    return _offset_abs_max(g, np.reshape(offsets, (-1, 1)), tiled)


def offset_abs_max_2d(g: np.ndarray, offsets: np.ndarray,
                      tiled: np.ndarray | None = None) -> np.ndarray:
    """M[k] for each integer offset pair k in `offsets`, shape (K, 2); `tiled` is g tiled
    twice along both axes."""
    return _offset_abs_max(g, np.reshape(offsets, (-1, 2)), tiled)


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
