"""Decaying bump kernels, periodic convolution, and empirical estimate checks.

The kernel family is eta_v(x) = 2^{nv} (1 + 2^v |x|)^{-m} with |x| the
periodic distance to 0.  Its truncated L^1 mass over the box is computed by
radial quadrature (QUADPACK dqagse, ported in `_quadpack`); the discrete
lattice mass (rectangle sum) is kept separately because it is the exact
operator constant for the discrete convolution.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from ._quadpack import qagse
from .errors import InvalidInput, PreconditionViolation, PreconditionWarning, SolverFailure
from .exponents import ExponentField, _shift_maxima, log_holder_constants
from .grid import Grid, GridFunction, _within_float_range, common_grid, cube_broadcast, cube_sums
from .lebesgue import luxemburg_norm, mixed_norm

__all__ = [
    "EtaKernel",
    "AlphaShiftReport",
    "EtaMaximalReport",
    "JensenReport",
    "eta",
    "convolve",
    "verify_alpha_shift",
    "verify_eta_maximal",
    "verify_jensen_gamma",
]

_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-12, limit=400)


@dataclass
class EtaKernel:
    """Sampled kernel 2^{nv}(1 + 2^v |x|)^{-m_exp} with its mass bookkeeping.

    `mass` is the radial quadrature of the continuum kernel over the box;
    `grid_mass` is h^n times the lattice sum, the sharp constant in the
    discrete Young inequality.  `c_limit` is the full-space mass the box
    mass converges to as v grows (None when the tail is not integrable),
    and `tail_bound` bounds |mass - c_limit|.
    """

    level: int
    m_exp: float
    grid: Grid
    values: np.ndarray = dc_field(repr=False)
    mass: float = 0.0
    grid_mass: float = 0.0
    integrable: bool = False
    c_limit: float | None = None
    tail_bound: float | None = None


def _quad(f, lo: float, hi: float) -> float:
    """QUADPACK dqagse on [lo, hi]; an error code is a PreconditionWarning."""
    val, _, _, ier = qagse(f, lo, hi, **_QUAD_OPTS)
    if ier != 0:
        warnings.warn(f"box-mass quadrature on [{lo}, {hi}] ended with QUADPACK "
                      f"ier={ier}; the mass may miss the requested accuracy",
                      PreconditionWarning, stacklevel=4)
    return val


def _closed_mass(n: int, a: float, m: float) -> float:
    """The n = 1 box mass 2 int_0^a (1+u)^-m du, or for n = 2 the inner-disc term
    2 pi int_0^a u (1+u)^-m du, in closed form.

    With l = log1p(a) and E(x) = expm1(x)/x, int_0^a (1+u)^-k du = l E((1-k) l),
    which stays accurate near k = 1.  For n = 2 and m < 2 the inner term is
    the difference of the k = m - 1 and k = m integrals; from m = 2 on, where
    that difference cancels, it is (l E((2-m) l) - a (1+a)^(1-m)) / (m-1), by
    parts.  Both forms lose at most a few bits for a >= 1/2.
    """
    l = math.log1p(a)

    def e(x: float) -> float:
        return math.expm1(x) / x if x else 1.0
    if n == 1:
        return 2.0 * l * e((1.0 - m) * l)
    if m < 2.0:
        return 2.0 * math.pi * l * (e((2.0 - m) * l) - e((1.0 - m) * l))
    return 2.0 * math.pi * (l * e((2.0 - m) * l) - a * math.exp((1.0 - m) * l)) / (m - 1.0)


def _box_mass(n: int, L: float, v: int, m: float) -> tuple[float, float]:
    """Radial quadrature of the kernel over the box, in scaled radius u = 2^v r,
    and the part of it that has a closed form: all of it for n = 1, the inner
    disc for n = 2."""
    a = 2.0 ** v * L
    if n == 1:
        mass = 2.0 * _quad(lambda u: (1.0 + u) ** (-m), 0.0, a)
        return mass, mass
    inner = _quad(lambda u: 2.0 * math.pi * u * (1.0 + u) ** (-m), 0.0, a)
    # past the inscribed circle only the arcs inside the square count
    outer = _quad(
        lambda u: u * (2.0 * math.pi - 8.0 * math.acos(min(1.0, a / u))) * (1.0 + u) ** (-m),
        a, math.sqrt(2.0) * a,
    )
    return inner + outer, inner


def _full_mass(n: int, m: float) -> float | None:
    if m <= n:
        return None
    if n == 1:
        return 2.0 / (m - 1.0)
    return 2.0 * math.pi / ((m - 1.0) * (m - 2.0))


def _tail_bound(n: int, L: float, v: int, m: float) -> float | None:
    # mass of the kernel outside the ball of scaled radius a (>= box tail)
    if m <= n:
        return None
    a = 2.0 ** v * L
    if n == 1:
        return 2.0 / (m - 1.0) * (1.0 + a) ** (1.0 - m)
    return 2.0 * math.pi * (
        (1.0 + a) ** (2.0 - m) / (m - 2.0) - (1.0 + a) ** (1.0 - m) / (m - 1.0)
    )


def _check_decay(m_exp: float) -> None:
    # an infinite decay passes m > 0 and integrates to mass 0
    if not (0.0 < m_exp < math.inf):
        raise InvalidInput(f"decay exponent must be positive and finite, got {m_exp}")


def eta(v: int, m_exp: float, grid: Grid) -> EtaKernel:
    """Sample the level-v kernel and report its quadrature mass."""
    if not (isinstance(v, (int, np.integer)) and v >= 0):
        raise InvalidInput(f"kernel level must be a non-negative integer, got {v!r}")
    _check_decay(m_exp)
    v = int(v)
    # the peak 2^(vn), the grid sum (at most N^n peaks) and the scaled
    # radii 2^v |x| (|x| <= L sqrt(n)) must all be floats
    top = sys.float_info.max_exp
    if v >= top or grid.n * (v + math.log2(grid.N)) >= top \
            or v + math.log2(grid.L * math.sqrt(grid.n)) >= top:
        raise InvalidInput(f"kernel level {v} is out of float range on a grid with "
                           f"n={grid.n}, N={grid.N}, L={grid.L}")
    scale = 2.0 ** v
    values = scale ** grid.n * (1.0 + scale * grid.periodic_radius()) ** (-m_exp)
    mass, part = _box_mass(grid.n, grid.L, v, m_exp)
    # QUADPACK can miss a kernel that is narrow against the box, even with ier = 0
    closed = _closed_mass(grid.n, scale * grid.L, m_exp)
    if not abs(part - closed) <= 1e-6 * closed:
        raise SolverFailure(f"box-mass quadrature at level v={v}, decay m={m_exp} gives "
                            f"{part!r}, not its closed form {closed!r}")
    return EtaKernel(
        level=v,
        m_exp=float(m_exp),
        grid=grid,
        values=values,
        mass=mass,
        grid_mass=float(grid.integrate(values)),
        integrable=m_exp > grid.n,
        c_limit=_full_mass(grid.n, m_exp),
        tail_bound=_tail_bound(grid.n, grid.L, v, m_exp),
    )


def _values(f) -> np.ndarray:
    if isinstance(f, GridFunction):
        return f.values
    if isinstance(f, EtaKernel):
        return f.values
    return np.asarray(f)


def convolve(f, k) -> GridFunction:
    """Periodic convolution (f * k)(x) = h^n sum_y f(y) k(x - y), via FFT."""
    fv, kv = _values(f), _values(k)
    grid = common_grid(f, k, fv, kv)
    with _within_float_range("a convolution spectrum fft(f) fft(k)"):
        out = np.fft.ifftn(np.fft.fftn(fv) * np.fft.fftn(kv)) * grid.h ** grid.n
    if not (np.iscomplexobj(fv) or np.iscomplexobj(kv)):
        out = out.real
    return GridFunction(grid, out)


# -- smoothness shift check ----------------------------------------------


@dataclass
class AlphaShiftReport:
    c: float
    per_level: dict[int, float]
    flagged: bool
    exhaustive: bool
    offsets_evaluated: int


def verify_alpha_shift(alpha: ExponentField, h_exp: float, R: float,
                       v_list, samples: int = 4096) -> AlphaShiftReport:
    """Largest sampled ratio of 2^{v a(x)} eta_{v,h+R}(x-y) to 2^{v a(y)} eta_{v,h}(x-y).

    The base decay h_exp cancels in the ratio, which equals
    2^{v(a(x)-a(y))} (1 + 2^v |x-y|)^{-R}; the maximum over x at a fixed
    lattice offset is taken exactly, so the scan over offsets is an exact
    all-pairs maximum whenever the offset count fits the budget.

    Per level v the offsets are visited by decreasing bound
    fl(fl(2.0 ** fl(v U) * (1 + 2^-40)) * c), with U >= M the block bound
    of the offset maxima and c = (1 + 2^v |k|)^{-R}, and the scan stops at
    the first offset whose bound is at most the best ratio so far.  The
    slack covers any pow error up to 2^-45 relative (`exponents`), so each
    level's value equals the maximum over every offset bit for bit.  Offset
    maxima already scanned for this field, by `log_holder_constants` or an
    earlier level, are read from the field's memo.
    """
    if not (h_exp > 0.0):
        raise InvalidInput(f"base decay exponent must be positive, got {h_exp}")
    if R < 0.0:
        raise InvalidInput(f"extra decay R must be non-negative, got {R}")
    v_list = [int(v) for v in v_list]
    if not v_list or any(v < 0 for v in v_list):
        raise InvalidInput("need a non-empty list of non-negative levels")
    for v in v_list:
        if v >= sys.float_info.max_exp:
            raise InvalidInput(f"level {v} is out of float range: 2^{v} overflows")

    grid = alpha.grid
    n_offsets = grid.N // 2 + 1 if grid.n == 1 else (grid.N // 2 + 1) * grid.N
    exhaustive = n_offsets <= max(1, int(samples))

    # first, so that its scans fill the memo the levels below read
    c_loc = log_holder_constants(alpha).c_loc
    flagged = R < c_loc - 1e-12
    if flagged:
        warnings.warn(
            f"extra decay R={R} is below the estimated regularity constant {c_loc:.6g}; "
            "the ratio bound is not expected to hold",
            PreconditionWarning,
        )

    # an overflow shows as an inf or nan level value, which is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        per_level, count = _shift_maxima(alpha, None if exhaustive else int(samples), R, v_list)
    for v, c in per_level.items():
        if not math.isfinite(c):
            raise InvalidInput(
                f"level {v}: the ratio 2^(v (a(x) - a(y))) (1 + 2^v |x - y|)^(-R) "
                f"is out of float range ({c})"
            )
    return AlphaShiftReport(
        c=max(per_level.values()),
        per_level=per_level,
        flagged=flagged,
        exhaustive=exhaustive,
        offsets_evaluated=count,
    )


# -- convolution boundedness check ----------------------------------------


@dataclass
class EtaMaximalReport:
    ratio_max: float
    ratios: list[float]
    young_constant: float
    levels: list[int]


def verify_eta_maximal(p: ExponentField, q: ExponentField, m_exp: float,
                       families) -> EtaMaximalReport:
    """Empirical operator ratio of the levelwise kernel smoothing.

    Each family is a list (f_0, f_1, ...) indexed by kernel level; the
    report's young_constant is the largest discrete kernel mass used, which
    bounds every ratio exactly when p and q are constant.
    """
    grid = common_grid(p, q)
    if not math.isfinite(m_exp):
        raise InvalidInput(f"decay exponent must be finite, got {m_exp}")
    if not (p.min > 1.0 and q.min > 1.0):
        raise PreconditionViolation(
            f"exponent bounds must stay strictly inside (1, inf): p- = {p.min}, q- = {q.min}"
        )
    if not (m_exp > grid.n):
        raise PreconditionViolation(f"decay m_exp={m_exp} must exceed the dimension n={grid.n}")
    if not families:
        raise InvalidInput("need at least one family to measure")

    kernels: dict[int, EtaKernel] = {}
    ratios: list[float] = []
    for fam in families:
        if not fam:
            raise InvalidInput("empty family member")
        smoothed = []
        for v, f in enumerate(fam):
            if v not in kernels:
                kernels[v] = eta(v, m_exp, grid)
            smoothed.append(convolve(f, kernels[v]))
        denom = mixed_norm(fam, p, q).value
        if denom == 0.0:
            raise InvalidInput("zero family has no operator ratio")
        ratios.append(mixed_norm(smoothed, p, q).value / denom)
    return EtaMaximalReport(
        ratio_max=max(ratios),
        ratios=ratios,
        young_constant=max(k.grid_mass for k in kernels.values()),
        levels=sorted(kernels),
    )


# -- cube-average comparison check -----------------------------------------


@dataclass
class JensenReport:
    margin_min: float
    gamma: float
    per_level: dict[int, float]
    worst: tuple[int, tuple[int, ...]]


def verify_jensen_gamma(p: ExponentField, m_exp: float, f, v_list,
                        gamma_override: float | None = None) -> JensenReport:
    """Worst margin of the damped cube-average estimate.

    For each cube Q and each x in Q the estimate compares
    (gamma * avg_Q |f|)^{p(x)} against avg_Q |f|^{p(.)} plus the damped
    perturbation min(|Q|^m, 1) g(x); gamma = exp(-2 m / c) with c the
    regularity constant of 1/p, and gamma = 1 when p is constant (the
    estimate is then plain convexity of t^p).  An empty level list, or a
    gamma_override outside (0, 1], is an InvalidInput.
    """
    _check_decay(m_exp)
    v_list = [int(v) for v in v_list]
    if not v_list:
        raise InvalidInput("need a non-empty list of levels")
    # like the damped gamma, which keeps (gamma avg_Q |f|)^p(x) <= 1
    if gamma_override is not None and not 0.0 < gamma_override <= 1.0:
        raise InvalidInput(f"gamma_override must lie in (0, 1], got {gamma_override}")
    fv = np.abs(_values(f))
    grid = common_grid(p, f, fv)
    sup = float(fv.max())
    norm_sum = luxemburg_norm(fv, p).value + sup
    if norm_sum > 1.0 + 1e-9:
        raise InvalidInput(
            f"input must satisfy norm + sup <= 1 (got {norm_sum:.6g}); rescale first"
        )

    c_rec = log_holder_constants(p.reciprocal()).c_loc
    if gamma_override is not None:
        gamma = float(gamma_override)
    elif c_rec == 0.0:
        gamma = 1.0
    else:
        gamma = math.exp(-2.0 * m_exp / c_rec)

    decay = (math.e + grid.center_radius()) ** (-m_exp)
    fp = fv ** p.values
    hn = grid.h ** grid.n

    per_level: dict[int, float] = {}
    worst = (v_list[0], (0,) * grid.n)
    margin_min = math.inf
    for v in v_list:
        measure = 2.0 ** (-v * grid.n)
        avg_f = cube_broadcast(grid, cube_sums(grid, fv, v) * hn / measure, v)
        avg_fp = cube_broadcast(grid, cube_sums(grid, fp, v) * hn / measure, v)
        avg_decay = cube_broadcast(grid, cube_sums(grid, decay, v) * hn / measure, v)
        lhs = (gamma * avg_f) ** p.values
        rhs = avg_fp + min(measure ** m_exp, 1.0) * (decay + avg_decay)
        margin = rhs - lhs
        lvl_min = float(margin.min())
        per_level[v] = lvl_min
        if lvl_min < margin_min:
            margin_min = lvl_min
            cells = grid.cells_per_axis(v)
            flat = int(np.argmin(margin))
            idx = np.unravel_index(flat, grid.shape)
            worst = (v, tuple(i // cells for i in idx))
    return JensenReport(
        margin_min=margin_min,
        gamma=gamma,
        per_level=per_level,
        worst=worst,
    )
