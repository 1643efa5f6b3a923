"""Variable-exponent Lebesgue modulars, Luxemburg norms, and mixed norms.

The Luxemburg norm is the unique positive lambda with modular(f/lambda) = 1
(for nonzero f with finite exponent); it is found by bisection on log lambda,
which the strict monotone decrease of lambda -> modular(f/lambda) justifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _accel
from .errors import InvalidInput, SolverFailure
from .exponents import ExponentField
from .grid import GridFunction

__all__ = ["NormResult", "modular", "luxemburg_norm", "mixed_norm", "unit_ball_check"]

DEFAULT_TOL = 1e-10
MAX_ITER = 200


@dataclass
class NormResult:
    value: float
    iterations: int
    residual: float
    method: str
    bracket: tuple[float, float] | None = None

    def __float__(self) -> float:
        return self.value


def _values(f) -> np.ndarray:
    return f.values if isinstance(f, GridFunction) else np.asarray(f)


def _check_shapes(fv: np.ndarray, p: ExponentField) -> None:
    if fv.shape != p.grid.shape:
        raise InvalidInput("function and exponent field shapes differ")
    if p.role != "integrability":
        raise InvalidInput("modular requires an integrability exponent")


def modular_at(f, p: ExponentField, lam: float) -> float:
    """Modular of f/lam: integral of (|f(x)|/lam)^{p(x)}.

    May overflow to inf for finite input; a non-finite entry of f or a lam
    outside (0, inf) raises InvalidInput.
    """
    fv = _values(f)
    _check_shapes(fv, p)
    if not 0.0 < lam < np.inf:  # also false for a nan lam
        raise InvalidInput(f"modular scale must be positive and finite, got {lam}")
    absf = np.abs(fv)
    if not np.isfinite(absf.max()):  # max propagates nan
        raise InvalidInput("function has a non-finite value; its modular is undefined")
    hn = p.grid.h ** p.grid.n
    return _accel.modular_pow_sum(absf, p.values, lam) * hn


def modular(f, p: ExponentField) -> float:
    return modular_at(f, p, 1.0)


def luxemburg_norm(f, p: ExponentField, tol: float = DEFAULT_TOL) -> NormResult:
    fv = _values(f)
    _check_shapes(fv, p)
    absf = np.abs(fv)
    fmax = float(absf.max())
    if not np.isfinite(fmax):
        raise InvalidInput("function has a non-finite value; its Luxemburg norm is undefined")
    if fmax == 0.0:
        return NormResult(0.0, 0, 0.0, "zero")
    hn = p.grid.h ** p.grid.n

    def const_norm(c: float) -> float:
        # ||f||_c by homogeneity: scale out max|f| so every power stays <= 1
        s = _accel.modular_pow_sum(absf, np.full_like(p.values, c), fmax) * hn
        return fmax * float(s) ** (1.0 / c)

    if p.is_constant:
        return NormResult(const_norm(p.min), 0, 0.0, "closed-form")

    def rho(lam: float) -> float:
        return _accel.modular_pow_sum(absf, p.values, lam) * hn

    # bracket: the constant-exponent norms at p+ and p- straddle the solution
    norm_hi = const_norm(p.max)
    norm_lo = const_norm(p.min)
    lo = max(norm_hi / 2.0, 1e-300)
    hi = 2.0 * norm_lo + fmax
    iterations = 0
    while rho(hi) > 1.0:
        hi *= 2.0
        iterations += 1
        if iterations >= MAX_ITER:
            raise SolverFailure("upper bracket for the Luxemburg norm did not close")
    while rho(lo) <= 1.0:
        lo /= 2.0
        iterations += 1
        if iterations >= MAX_ITER:
            raise SolverFailure("lower bracket for the Luxemburg norm did not close")

    while hi - lo > tol * hi:
        mid = np.sqrt(lo) * np.sqrt(hi)  # geometric midpoint, overflow-safe
        if rho(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
        if iterations >= MAX_ITER:
            raise SolverFailure(
                f"Luxemburg bisection exceeded {MAX_ITER} iterations (bracket [{lo}, {hi}])"
            )
    value = hi  # the endpoint with modular <= 1, so the unit-ball property holds
    return NormResult(float(value), iterations, abs(rho(value) - 1.0), "bisection",
                      bracket=(float(lo), float(hi)))


def stack(family, q: ExponentField) -> np.ndarray:
    """Pointwise inner norm (sum_v |f_v(x)|^{q(x)})^{1/q(x)}, overflow-safe."""
    vals = [np.abs(_values(f)) for f in family]
    if not vals:
        return np.zeros(q.grid.shape)
    big = np.maximum.reduce(vals)
    if not np.isfinite(big.max()):  # both maxima propagate nan
        raise InvalidInput("family has a non-finite value; its level stack is undefined")
    out = np.zeros(q.grid.shape)
    pos = big > 0.0
    if np.any(pos):
        # factor out the pointwise max so the q-powers stay in [0, 1]
        acc = np.zeros(big.shape)
        for v in vals:
            ratio = np.zeros(big.shape)
            ratio[pos] = v[pos] / big[pos]
            acc[pos] += ratio[pos] ** q.values[pos]
        out[pos] = big[pos] * acc[pos] ** (1.0 / q.values[pos])
    return out


def mixed_norm(family, p: ExponentField, q: ExponentField, tol: float = DEFAULT_TOL) -> NormResult:
    """Luxemburg norm of the level stack: L^{p(.)} of the inner l^{q(.)} norm."""
    if p.grid != q.grid:
        raise InvalidInput("p and q live on different grids")
    g = stack(family, q)
    return luxemburg_norm(g, p, tol=tol)


def unit_ball_check(f, p: ExponentField) -> tuple[bool, bool]:
    """(norm <= 1, modular <= 1); the two must agree for every input."""
    res = luxemburg_norm(f, p)
    if res.bracket is not None:
        lo, hi = res.bracket
        if hi <= 1.0:
            norm_ok = True
        elif lo > 1.0:
            norm_ok = False
        else:
            # the bracket straddles 1: resolve the boundary exactly by one
            # more solver query at lambda = 1 instead of bisecting further
            norm_ok = modular_at(f, p, 1.0) <= 1.0
    else:
        norm_ok = res.value <= 1.0
    return norm_ok, modular(f, p) <= 1.0
