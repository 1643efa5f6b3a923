"""Variable-exponent Lebesgue modulars, Luxemburg norms, and mixed norms.

The Luxemburg norm is the unique positive lambda with rho(lambda) = 1, where
rho(lambda) = h^n sum_i (|f_i|/lambda)^{p_i} is the modular of f/lambda (for
nonzero f with finite exponent).  rho is strictly decreasing in lambda, and
the value reported is the upper end of a fixed geometric bisection: the
bracket [lo, hi] opens at [||f||_{p+}/2, 2 ||f||_{p-} + max|f|].  Below the
float maximum that hi has hi >= max|f| and hi >= 2 ||f||_{p-}, so
rho(hi) <= 2^{-p-} <= 1/2 and hi is never moved; a hi clamped to the float
maximum with rho(hi) > 1 means the norm exceeds the float range.  Only lo is
halved down, until 1 < rho(lo), and the bracket is then halved at the
geometric midpoint until hi - lo <= tol * hi.  Every step is a decision
rho(lam) > 1, and the reported NormResult is a function of those decisions.
The bisection also stops when the rounded midpoint is not strictly inside
(lo, hi): at subnormal scale, where the bracket closes down to two adjacent
floats before hi - lo <= tol * hi holds, or for a tol below the float
spacing, where the midpoint lands on an end.  A midpoint on an end leaves
the bracket as it is, so such a solve could only run into MAX_ITER; it
reports hi instead, whose modular is <= 1 as after any step.  A solve that
never rounds a midpoint onto an end is not changed by this stop.

Most decisions are known without a pass over f.  Safeguarded Newton first
finds t* = log lambda* as the root of g(t) = log rho(e^t), in the log domain
(`_accel.log_modular_step`); g is convex and decreasing with slope in
[-p+, -p-].  Newton starts at the log of min(||f||_{p+}, ||f||_{p-}),
clamped into the opening bracket: the two constant-exponent passes that open
the bracket give both norms, and the start is usually below the root, from
where Newton climbs to it monotonically (from above, by convexity, its first
step lands below the root).  Where it starts does not matter to the result:
any t* it accepts has |g(t*)| <= NEWTON_RESIDUAL and so lies within R of the
true root (below), and every decision read off such a t* is the one a real
pass makes.  A decision at lam with |log lam - t*| > margin is then read off
t*; only the few midpoints within the margin of t*, and the residual
rho(hi), are real passes, so the result is bit for bit the one real passes
everywhere give.  Passes are kept by scale within one solve: the residual
reuses the pass that last decided at hi, if one did.

Why the margin is safe.  Each solve takes its own margin from its p-, p+
and number of entries N (`_margin`).  Let u = 2^-53 and assume numpy's
log, exp and pow within 4 ulps (8 u).  rho~ below is the exact modular of
the float data, with the float h^n; both the real passes and g approximate
it, and its root is the true t*.
  * A real pass fl(rho) is rho~ times 1 +- d_rho.  The quotient |f|/lam
    rounds by u, which the power raises to p u; the power adds 8 u, the
    pairwise sum (log2 N + 25) u and the factor h^n u, so
    d_rho <= (p+ + log2 N + 34) u.  A zero entry is exactly +0 in both.
    An underflowing term errs by at most 2^-1022, and all of them together
    by (2L)^n 2^-1022, nothing beside d_rho; a term or a sum that overflows
    does so only where rho~ > 1.
  * The computed g errs by at most E.  On the float range |log x| <= 745,
    and t stays in the opening bracket, so log|f_i| errs by 5960 u, the
    exponent p_i (log|f_i| - t) by 8940 p+ u, its shift by the maximum by
    2980 p+ u, and the sum, the logs and the additions by
    (log2 N + 7200) u: E <= (13410 p+ + log2 N + 7200) u.  Newton accepts
    t* only with a computed |g(t*)| <= NEWTON_RESIDUAL = 1e-11, and
    |g'| >= p- >= 1, so t* lies within R = (NEWTON_RESIDUAL + E) / p- of
    the true root (`_root_error`).
  * log lam errs by 8 u 745.  The margin is
    2 (R + d_rho / p- + 8 u 745), so a decision replayed at
    |log lam - t*| > margin sits more than R + 2 d_rho / p- + 8 u 745 from
    the true root in log, and rho~ differs from 1 by a factor of more than
    e^{2 d_rho}, since |g'| >= p-.  Then rho~ > 1 gives
    fl(rho) >= e^{2 d_rho} (1 - d_rho) > 1, and rho~ < 1 gives
    fl(rho) <= e^{-2 d_rho} (1 + d_rho) < 1: fl(rho) > 1 holds exactly
    when log lam < t*, as the replay answers.
The margin grows with p+ and shrinks with p-: at p+ = 3.3, p- = 1.5 and
N = 65,536 it is 2.2e-11, and at p+ = REPLAY_P_MAX = 64, p- = 1 and
N = 2^30 it is 2.1e-10.  Newton that has not converged after NEWTON_STEPS,
or leaves the opening bracket, gives no t*, and so does p+ > REPLAY_P_MAX;
every decision is then a real pass.

The level stack takes its levels as one (V + 1, *grid.shape) array, as the
sequence spaces build them, and raises only their nonzero entries: a level
is zero on every cube that no coefficient touches, a zero stays +0 as 0^q
would, and numpy's power is about twice as slow on vectors with runs of
zeros in them.  A family of grid functions or arrays is stacked into one
such array first.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _accel
from .errors import InvalidInput, SolverFailure
from .exponents import ExponentField
from .grid import GridFunction, _within_float_range, common_grid

__all__ = ["NormResult", "modular", "luxemburg_norm", "mixed_norm", "unit_ball_check"]

DEFAULT_TOL = 1e-10
MAX_ITER = 200
# replayed decisions: see the module docstring for why these values are safe
NEWTON_STEPS = 30
NEWTON_RESIDUAL = 1e-11
REPLAY_P_MAX = 64.0
FLOAT_MAX = sys.float_info.max
U = 2.0 ** -53  # unit roundoff


@dataclass
class NormResult:
    value: float
    iterations: int
    residual: float
    method: str
    bracket: tuple[float, float] | None = None


def _values(f) -> np.ndarray:
    return f.values if isinstance(f, GridFunction) else np.asarray(f)


def _check_role(p: ExponentField) -> None:
    if p.role != "integrability":
        raise InvalidInput(f"the modular and the level stack need an integrability "
                           f"exponent, not a {p.role} one")


def _modular_sum(f, p: ExponentField, lam: float) -> float:
    """`modular_at` as `_accel.modular_pow_sum` gives it: +inf where the modular
    overflows, which reads correctly as > 1 wherever only that is asked."""
    fv = _values(f)
    common_grid(f, p, fv)
    _check_role(p)
    if not 0.0 < lam < np.inf:  # also false for a nan lam
        raise InvalidInput(f"modular scale must be positive and finite, got {lam}")
    absf = np.abs(fv)
    if not np.isfinite(absf.max()):  # max propagates nan
        raise InvalidInput("function has a non-finite value; its modular is undefined")
    hn = p.grid.h ** p.grid.n
    return _accel.modular_pow_sum(absf, p.values, lam) * hn


def modular_at(f, p: ExponentField, lam: float) -> float:
    """Modular of f/lam: integral of (|f(x)|/lam)^{p(x)}.

    A non-finite entry of f, a lam outside (0, inf), or a modular past the
    float range raises InvalidInput.
    """
    rho = _modular_sum(f, p, lam)
    if rho == math.inf:
        raise InvalidInput(f"the modular of f/lam at lam={lam} exceeds the float range")
    return rho


def modular(f, p: ExponentField) -> float:
    return modular_at(f, p, 1.0)


def _root_error(p: ExponentField, size: int) -> float:
    """R: how far a Newton t* may lie from the true root (module docstring)."""
    e = (13410.0 * p.max + math.log2(size) + 7200.0) * U
    return (NEWTON_RESIDUAL + e) / p.min


def _margin(p: ExponentField, size: int) -> float:
    """The distance from t* beyond which a decision is read off t* (module docstring)."""
    d_rho = (p.max + math.log2(size) + 34.0) * U
    return 2.0 * (_root_error(p, size) + d_rho / p.min + 8.0 * U * 745.0)


def _log_root(absf: np.ndarray, p: ExponentField, hn: float, lo: float, hi: float,
              start: float) -> float | None:
    """t* = log lambda* by Newton from log start, or None unless it converges in [log lo, log hi]."""
    if p.max > REPLAY_P_MAX:
        return None
    nz = absf > 0.0
    logf = np.log(absf[nz])
    pn = p.values[nz]
    t_lo, t_hi = math.log(lo), math.log(hi)
    log_hn = math.log(hn)
    t = math.log(start)
    for _ in range(NEWTON_STEPS):
        g, slope = _accel.log_modular_step(logf, pn, t)
        g += log_hn
        if abs(g) <= NEWTON_RESIDUAL:
            return t
        t -= g / slope
        if not t_lo <= t <= t_hi:
            return None
    return None


def luxemburg_norm(f, p: ExponentField, tol: float = DEFAULT_TOL) -> NormResult:
    if not 0.0 < tol < 1.0:  # also false for a nan tol
        raise InvalidInput(f"Luxemburg tolerance must lie in (0, 1), got {tol}")
    fv = _values(f)
    common_grid(f, p, fv)
    _check_role(p)
    absf = np.abs(fv)
    fmax = float(absf.max())
    if not math.isfinite(fmax):
        raise InvalidInput("function has a non-finite value; its Luxemburg norm is undefined")
    if fmax == 0.0:
        return NormResult(0.0, 0, 0.0, "zero")
    hn = p.grid.h ** p.grid.n

    def const_norm(c: float) -> float:
        # ||f||_c by homogeneity: scale out max|f| so every power stays <= 1
        s = _accel.modular_pow_sum(absf, np.full_like(p.values, c), fmax) * hn
        return fmax * float(s) ** (1.0 / c)

    if p.is_constant:
        value = const_norm(p.min)
        if value > FLOAT_MAX:
            raise InvalidInput("Luxemburg norm exceeds the float range")
        return NormResult(value, 0, 0.0, "closed-form")

    passes: dict[float, float] = {}

    def rho(lam: float) -> float:
        if lam not in passes:
            passes[lam] = _accel.modular_pow_sum(absf, p.values, lam) * hn
        return passes[lam]

    # bracket: the constant-exponent norms at p+ and p- straddle the solution;
    # both ends stay finite, since the norms themselves may overflow
    norm_hi = const_norm(p.max)
    norm_lo = const_norm(p.min)
    lo = max(min(norm_hi, FLOAT_MAX) / 2.0, 1e-300)
    hi = min(2.0 * norm_lo + fmax, FLOAT_MAX)
    t_star = _log_root(absf, p, hn, lo, hi, min(max(min(norm_hi, norm_lo), lo), hi))
    margin = _margin(p, absf.size)

    def above(lam: float) -> bool:
        """rho(lam) > 1: read off t* outside the margin, else a real pass."""
        if t_star is not None:
            t = math.log(lam)
            if abs(t - t_star) > margin:
                return t < t_star
        return rho(lam) > 1.0

    # rho(hi) <= 1/2 unless hi is clamped to FLOAT_MAX (module docstring)
    if above(hi):
        raise InvalidInput("Luxemburg norm exceeds the float range")
    iterations = 0
    while not above(lo):
        lo /= 2.0
        iterations += 1
        if iterations >= MAX_ITER:
            raise SolverFailure("lower bracket for the Luxemburg norm did not close")

    while hi - lo > tol * hi:
        mid = math.sqrt(lo) * math.sqrt(hi)  # geometric midpoint, overflow-safe
        if not lo < mid < hi:
            break  # no step can move the bracket any more (module docstring)
        if above(mid):
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
    """Pointwise inner norm (sum_v |f_v(x)|^{q(x)})^{1/q(x)}, overflow-safe.

    `family` is one array of the levels f_0..f_V, of shape (V + 1, *grid.shape), as
    `seqspaces` builds it, or a sequence of grid functions or arrays, which is stacked
    into one; either way the levels are read once, as one array.
    """
    _check_role(q)
    if not isinstance(family, np.ndarray):
        family = list(family)
        common_grid(q, *family)
        family = [_values(f) for f in family]
    vals = np.abs(family).astype(np.float64, copy=False)
    if not len(vals):
        return np.zeros(q.grid.shape)
    if vals.shape[1:] != q.grid.shape:
        raise InvalidInput(f"arguments live on different grids: levels of shape "
                           f"{vals.shape[1:]} and {q.grid}")
    big = vals.max(axis=0)
    if not math.isfinite(big.max()):  # both maxima propagate nan
        raise InvalidInput("family has a non-finite value; its level stack is undefined")
    pos = big > 0.0
    # factor out the pointwise max so the q-powers stay in [0, 1] (a point where
    # every level is zero is divided by 1), and raise only the nonzero entries;
    # levels add up in order, as a running sum over the levels would
    np.divide(vals, np.where(pos, big, 1.0), out=vals)
    np.power(vals, q.values, out=vals, where=vals > 0.0)
    acc = vals.sum(axis=0)
    np.power(acc, 1.0 / q.values, out=acc, where=pos)
    with _within_float_range("a level stack (sum_v |f_v|^q)^(1/q)"):
        return np.multiply(big, acc)


def mixed_norm(family, p: ExponentField, q: ExponentField) -> NormResult:
    """Luxemburg norm of the level stack: L^{p(.)} of the inner l^{q(.)} norm."""
    common_grid(p, q)
    return luxemburg_norm(stack(family, q), p)


def unit_ball_check(f, p: ExponentField) -> tuple[bool, bool]:
    """(norm <= 1, modular <= 1); the two must agree for every input."""
    res = luxemburg_norm(f, p)
    modular_ok = _modular_sum(f, p, 1.0) <= 1.0
    if res.bracket is not None:
        lo, hi = res.bracket
        if hi <= 1.0:
            norm_ok = True
        elif lo > 1.0:
            norm_ok = False
        else:
            # the bracket straddles 1: the modular at lambda = 1 resolves the
            # boundary exactly, instead of bisecting further
            norm_ok = modular_ok
    else:
        norm_ok = res.value <= 1.0
    return norm_ok, modular_ok
