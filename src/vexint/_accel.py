"""Hot numeric kernels: the all-offset difference scans and the modular sum.

They live in one module so that profilers and tracers can wrap the three
functions that dominate the regularity scans and every Luxemburg solve.
"""

from __future__ import annotations

import numpy as np

__all__ = ["offset_abs_max_1d", "offset_abs_max_2d", "modular_pow_sum"]


# -- per-offset maximum absolute difference ---------------------------------
#
# For a periodic field g, M[k] = max_x |g(x) - g(x+k)|.  Enumerating every
# offset makes the surrounding scans exact all-pairs maxima while costing
# O(points * offsets) instead of storing pairs.  Only half the offsets are
# enumerated; the mirrored offset reaches the same unordered pairs.


def offset_abs_max_1d(g: np.ndarray) -> np.ndarray:
    g = np.ascontiguousarray(g, dtype=np.float64)
    N = g.shape[0]
    out = np.zeros(N // 2 + 1)
    for k in range(1, N // 2 + 1):
        out[k] = np.max(np.abs(g - np.roll(g, -k)))
    return out


def offset_abs_max_2d(g: np.ndarray) -> np.ndarray:
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


# -- variable-exponent modular sum -------------------------------------------


def modular_pow_sum(absf: np.ndarray, p: np.ndarray, lam: float) -> float:
    """sum_i (|f_i|/lam)^{p_i}; may overflow to inf, which callers treat as > 1."""
    absf = np.ascontiguousarray(absf, dtype=np.float64).ravel()
    p = np.ascontiguousarray(p, dtype=np.float64).ravel()
    with np.errstate(over="ignore"):
        return float(np.sum((absf / lam) ** p))
