"""Two-sided product brackets for the sequence spaces.

The product norm itself is an infinite-dimensional infimum and is never
computed; what this module certifies is the proof's bracket.  The easy
direction is pointwise Hoelder plus lattice monotonicity (a lower anchor),
the hard direction is an explicit factorization whose reconstruction is an
algebraic identity (an upper anchor).  Two constructions are provided: the
p(.) = q(.) one driven by corner-evaluated exponent fields, and the p/infty
one driven by a dyadic level-set decomposition of the stacked majorant.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .errors import (
    InvalidConfiguration,
    InvalidInput,
    PreconditionViolation,
)
from .exponents import ExponentField, interpolate_exponents
from .grid import Grid, GridFunction, cube_cells, cube_corners
from .seqspaces import (
    DyadicCoefficients,
    Key,
    SubsetSelection,
    _level_integrand,
    f_infty_norm,
    f_infty_subset_norm,
    f_norm,
    full_selection,
)

__all__ = [
    "FactorizationParams",
    "FactorizationResult",
    "LevelSetDecomposition",
    "HolderReport",
    "EquivalenceReport",
    "factorization_params_pp",
    "factorization_params_pq_infty",
    "verify_holder_direction",
    "factorize_pp",
    "build_level_sets",
    "factorize_pq_infty",
    "calderon_upper",
    "lattice_property_check",
    "case_classifier",
    "equivalence_experiment",
]

IDENTITY_TOL = 1e-12


def _const_field(grid: Grid, value: float, role: str = "integrability") -> ExponentField:
    value = float(value)
    return ExponentField(grid, np.full(grid.shape, value), value, value, role, g_inf=value)


def _as_q_field(grid: Grid, q) -> ExponentField:
    if isinstance(q, ExponentField):
        return q
    return _const_field(grid, float(q))


@dataclass(eq=False)
class FactorizationParams:
    """Endpoint data plus every derived exponent the constructions need.

    kind is "pp" (q = p in all three spaces) or "pq-infty" (second space of
    sup type with constant q0, q1).  u and v are the corner-evaluated level
    weights; gamma and delta drive the level-set construction and are zero
    in the pp case.
    """

    kind: str
    theta: float
    alpha0: ExponentField
    alpha1: ExponentField
    p0: ExponentField
    p1: ExponentField | None
    q0: float | None
    q1: float | None
    alpha: ExponentField
    p: ExponentField
    q: ExponentField
    u: np.ndarray = dc_field(repr=False)
    v: np.ndarray = dc_field(repr=False)
    gamma: float
    delta: float
    identity_residual: float

    @property
    def grid(self) -> Grid:
        return self.p0.grid


def _check_theta(theta: float) -> float:
    theta = float(theta)
    if not 0.0 < theta < 1.0:
        raise InvalidInput(f"theta={theta} must lie strictly inside (0, 1)")
    return theta


def factorization_params_pp(theta: float, alpha0: ExponentField, alpha1: ExponentField,
                            p0: ExponentField, p1: ExponentField) -> FactorizationParams:
    """Derived data for the p(.) = q(.) construction."""
    theta = _check_theta(theta)
    alpha = interpolate_exponents(alpha0, alpha1, theta, "affine")
    p = interpolate_exponents(p0, p1, theta, "harmonic")
    if alpha.grid != p.grid:
        raise InvalidConfiguration("exponent fields live on different grids")
    n = p.grid.n
    diff = alpha1.values / p0.values - alpha0.values / p1.values
    u = p.values * theta * diff + 0.5 * n * (p.values / p0.values - 1.0)
    v = p.values * (theta - 1.0) * diff + 0.5 * n * (p.values / p1.values - 1.0)
    residual = max(
        float(np.abs((1.0 - theta) * u + theta * v).max()),
        float(np.abs((1.0 - theta) * p.values / p0.values
                     + theta * p.values / p1.values - 1.0).max()),
    )
    if residual > IDENTITY_TOL:
        raise InvalidConfiguration(f"exponent identity residual {residual} exceeds {IDENTITY_TOL}")
    return FactorizationParams(
        "pp", theta, alpha0, alpha1, p0, p1, None, None, alpha, p, p,
        u, v, 0.0, 0.0, residual,
    )


def factorization_params_pq_infty(theta: float, alpha0: ExponentField, alpha1: ExponentField,
                                  p0: ExponentField, q0: float, q1: float) -> FactorizationParams:
    """Derived data for the p/infty construction (constant q0, q1)."""
    theta = _check_theta(theta)
    q0 = float(q0)
    q1 = float(q1)
    if q0 < 1.0 or q1 < 1.0:
        raise InvalidInput(f"q0={q0}, q1={q1} must be constants >= 1")
    alpha = interpolate_exponents(alpha0, alpha1, theta, "affine")
    grid = p0.grid
    if alpha.grid != grid:
        raise InvalidConfiguration("exponent fields live on different grids")
    n = grid.n
    # second integrability endpoint is infinite: 1/p = (1-theta)/p0
    scale = 1.0 / (1.0 - theta)
    p_vals = p0.values * scale
    g_inf = None if p0.g_inf is None else p0.g_inf * scale
    p = ExponentField(grid, p_vals, float(p_vals.min()), float(p_vals.max()),
                      "integrability", g_inf=g_inf)
    q_val = 1.0 / ((1.0 - theta) / q0 + theta / q1)
    q = _const_field(grid, q_val)
    diff = alpha1.values / q0 - alpha0.values / q1
    u = q_val * theta * diff + 0.5 * n * (q_val / q0 - 1.0)
    v = q_val * (theta - 1.0) * diff + 0.5 * n * (q_val / q1 - 1.0)
    gamma_field = p.values / p0.values - q_val / q0
    gamma = float(gamma_field.ravel()[0])
    delta = -q_val / q1
    residual = max(
        float(np.abs((1.0 - theta) * u + theta * v).max()),
        float(np.abs(gamma_field - gamma).max()),
        abs((1.0 - theta) + (delta / gamma) * theta),
        abs((1.0 - theta) * q_val / q0 + theta * q_val / q1 - 1.0),
    )
    if residual > IDENTITY_TOL:
        raise InvalidConfiguration(f"exponent identity residual {residual} exceeds {IDENTITY_TOL}")
    return FactorizationParams(
        "pq-infty", theta, alpha0, alpha1, p0, None, q0, q1, alpha, p, q,
        u, v, gamma, delta, residual,
    )


# ------------------------------------------------------------- easy direction


@dataclass
class HolderReport:
    """Margin of the Hoelder (easy) direction and the norms behind it.

    factor1_norm is the stacked-sup functional when the second space is of
    sup type (the route for which the discrete chain is exact); the direct
    endpoint norm is then reported in factor1_direct.
    """

    margin: float
    product: float
    lam_norm: float
    factor0_norm: float
    factor1_norm: float
    factor1_direct: float | None = None

    def __float__(self) -> float:
        return self.margin


def _space_triple(spec) -> tuple[ExponentField, ExponentField | None, object]:
    if len(spec) == 2:
        alpha, p = spec
        q = p
    elif len(spec) == 3:
        alpha, p, q = spec
    else:
        raise InvalidInput("space spec must be (alpha, p) or (alpha, p, q)")
    if p is None and q is None:
        raise InvalidInput("sup-type space needs an explicit q")
    return alpha, p, q


def verify_holder_direction(lam: DyadicCoefficients, lam0: DyadicCoefficients,
                            lam1: DyadicCoefficients, space0, space1,
                            theta: float) -> HolderReport:
    """Margin ||lam0||^{1-theta} ||lam1||^theta - ||lam|| after the domination check.

    The pointwise precondition |lam| <= |lam0|^{1-theta} |lam1|^theta is
    checked first and a violation aborts with the offending keys.
    """
    theta = _check_theta(theta)
    alpha0, p0, q0 = _space_triple(space0)
    alpha1, p1, q1 = _space_triple(space1)
    grid = lam.grid
    if lam0.grid != grid or lam1.grid != grid:
        raise InvalidInput("coefficient families live on different grids")

    bad = [key for key, a, bound in _reconstructions(lam, lam0, lam1, 1.0, theta)
           if a > bound * (1.0 + 1e-9)]
    if bad:
        shown = ", ".join(str(k) for k in bad[:8])
        more = "" if len(bad) <= 8 else f" (+{len(bad) - 8} more)"
        raise PreconditionViolation(f"domination fails at {shown}{more}")

    q0f = _as_q_field(grid, q0)
    q1f = _as_q_field(grid, q1)
    alpha = interpolate_exponents(alpha0, alpha1, theta, "affine")
    q = interpolate_exponents(q0f, q1f, theta, "harmonic")
    if p1 is None:
        scale = 1.0 / (1.0 - theta)
        vals = p0.values * scale
        g_inf = None if p0.g_inf is None else p0.g_inf * scale
        p = ExponentField(grid, vals, float(vals.min()), float(vals.max()),
                          "integrability", g_inf=g_inf)
        norm1 = f_infty_subset_norm(lam1, alpha1, q1f.values.ravel()[0], full_selection(lam1))
        direct1 = f_infty_norm(lam1, alpha1, q1f.values.ravel()[0])
    else:
        p = interpolate_exponents(p0, p1, theta, "harmonic")
        norm1 = f_norm(lam1, alpha1, p1, q1f).value
        direct1 = None
    lam_norm = f_norm(lam, alpha, p, q).value
    norm0 = f_norm(lam0, alpha0, p0, q0f).value
    product = norm0 ** (1.0 - theta) * norm1 ** theta
    return HolderReport(product - lam_norm, product, lam_norm, norm0, norm1, direct1)


# ------------------------------------------------------------ factorizations


@dataclass(eq=False)
class FactorizationResult:
    lam0: DyadicCoefficients
    lam1: DyadicCoefficients
    lam_norm: float
    reconstruction_error: float
    factor0_norm: float
    factor1_norm: float
    factor1_direct: float | None = None
    level_sets: "LevelSetDecomposition | None" = None
    zero_count: int = 0


def _reconstructions(lam: DyadicCoefficients, lam0: DyadicCoefficients,
                     lam1: DyadicCoefficients, norm: float,
                     theta: float) -> list[tuple[Key, float, float]]:
    """(key, |lam|, norm |lam0|^{1-theta} |lam1|^theta) over the support of lam, in key order."""
    out = []
    for j in range(lam.V + 1):
        nz, keys = lam.level_support(j)
        mods = (c.moduli(j)[nz].tolist() for c in (lam, lam0, lam1))
        out.extend((key, a, norm * b0 ** (1.0 - theta) * b1 ** theta)
                   for key, a, b0, b1 in zip(keys, *mods))
    return out


def _reconstruction_error(lam: DyadicCoefficients, lam0: DyadicCoefficients,
                          lam1: DyadicCoefficients, norm: float, theta: float) -> float:
    return max((abs(a - recon) for _key, a, recon in
                _reconstructions(lam, lam0, lam1, norm, theta)), default=0.0)


def _corner_factors(lam: DyadicCoefficients, norm: float, params: FactorizationParams,
                    e0, e1, classes: list[np.ndarray], ratio_l: float = 0.0):
    """(lam0, lam1, cubes left out) for lam0_{j,m} = 2^{l + j u(x)} (|lam_{j,m}|/norm)^{e0(x)}
    and lam1_{j,m} = 2^{l ratio_l + j v(x)} (|lam_{j,m}|/norm)^{e1(x)}, x the cube corner
    and l = classes[j][m]; cubes of class NO_CLASS are left out.
    """
    grid = lam.grid
    levels0 = [np.zeros_like(a) for a in lam.levels]
    levels1 = [np.zeros_like(a) for a in lam.levels]
    left_out = 0
    for j in range(lam.V + 1):
        nz = np.nonzero((lam.levels[j] != 0) & (classes[j] != NO_CLASS))
        left_out += np.count_nonzero(lam.levels[j]) - len(nz[0])

        def at(x):
            return cube_corners(grid, np.broadcast_to(x, grid.shape), j)[nz].tolist()

        for m, l, r, u, v, a, b in zip(zip(*nz), classes[j][nz].tolist(),
                                       (lam.moduli(j)[nz] / norm).tolist(),
                                       at(params.u), at(params.v), at(e0), at(e1)):
            levels0[j][m] = 2.0 ** (l + j * u) * r ** a
            levels1[j][m] = 2.0 ** (l * ratio_l + j * v) * r ** b
    return (DyadicCoefficients(grid, lam.V, levels0),
            DyadicCoefficients(grid, lam.V, levels1), left_out)


def factorize_pp(lam: DyadicCoefficients, params: FactorizationParams) -> FactorizationResult:
    """Corner-exponent factorization for the q = p setting.

    lam0_{j,m} = 2^{j u(x_{j,m})} (|lam_{j,m}| / ||lam||)^{p/p0 (x_{j,m})},
    lam1 the same with v and p/p1; x_{j,m} = 2^{-j} m is the cube corner.
    """
    if params.kind != "pp":
        raise InvalidConfiguration(f"params describe a {params.kind} construction")
    if lam.grid != params.grid:
        raise InvalidInput("coefficients and params live on different grids")
    norm = f_norm(lam, params.alpha, params.p, params.q).value
    if norm == 0.0:
        raise InvalidInput("factorization needs a nonzero norm")
    theta = params.theta
    p = params.p.values
    lam0, lam1, _ = _corner_factors(lam, norm, params, p / params.p0.values,
                                    p / params.p1.values,
                                    [np.zeros(a.shape, dtype=np.int64) for a in lam.levels])
    err = _reconstruction_error(lam, lam0, lam1, norm, theta)
    norm0 = f_norm(lam0, params.alpha0, params.p0, params.p0).value
    norm1 = f_norm(lam1, params.alpha1, params.p1, params.p1).value
    return FactorizationResult(lam0, lam1, norm, err, norm0, norm1)


NO_CLASS = np.iinfo(np.int64).min  # class of a cube outside the support or of no level set


def _dyadic_level(x: np.ndarray) -> np.ndarray:
    """Largest integer l with 2^l < x, elementwise; NO_CLASS where x <= 0."""
    frac, expo = np.frexp(x)
    expo = expo.astype(np.int64)
    return np.where(x > 0.0, np.where(frac == 0.5, expo - 2, expo - 1), NO_CLASS)


@dataclass(eq=False)
class LevelSetDecomposition:
    """Dyadic slicing of the stacked majorant g by powers of ratio = (g/||lam||)^gamma.

    class_levels[j][m] is the class l of Q_{j,m}, whose majority lies in
    A_l = {ratio > 2^l} but not in A_{l+1}; NO_CLASS off the support and on
    the unassigned cubes.  The views masks[l] (the grid mask of A_l, for the
    closed range l_min .. l_max + 1 so every membership test can be
    replayed), classes[l] (the keys of class l) and class_of are built once.
    """

    g: GridFunction
    ratio: np.ndarray | None = dc_field(repr=False)
    class_levels: list[np.ndarray] = dc_field(repr=False)
    unassigned: list
    l_min: int
    l_max: int
    gamma: float
    lam_norm: float

    @cached_property
    def masks(self) -> dict:
        if self.ratio is None:
            return {}
        level = _dyadic_level(self.ratio)
        return {l: level >= l for l in range(self.l_min, self.l_max + 2)}

    @cached_property
    def classes(self) -> dict:
        out: dict = {}
        for j, cls in enumerate(self.class_levels):
            nz = np.nonzero(cls != NO_CLASS)
            for m, l in zip(zip(*(i.tolist() for i in nz)), cls[nz].tolist()):
                out.setdefault(l, []).append((j, m))
        return out

    def class_of(self, key) -> int | None:
        j, m = key
        if not 0 <= j < len(self.class_levels):
            return None
        cls = self.class_levels[j]
        if len(m) != cls.ndim or not all(0 <= mi < s for mi, s in zip(m, cls.shape)):
            return None
        l = int(cls[m])
        return None if l == NO_CLASS else l


def _stacked_majorant(lam: DyadicCoefficients, alpha: ExponentField, q: float) -> np.ndarray:
    total = np.zeros(lam.grid.shape)
    for v in range(lam.V + 1):
        total += _level_integrand(lam, alpha, v, q)
    return total ** (1.0 / q)


def build_level_sets(lam: DyadicCoefficients, alpha: ExponentField, p: ExponentField,
                     q, params: FactorizationParams) -> LevelSetDecomposition:
    """Assign each supported cube its level index by the majority rule.

    A_l = {x : (g(x)/||lam||)^gamma > 2^l}; a cube belongs to class l when
    its majority lies in A_l but not in A_{l+1}.  The per-cube class is the
    dyadic position of the (K//2+1)-th largest cell value M (the majority
    count exceeds K/2 exactly when 2^l < M), so assignment and the mask
    counting rule agree to the float comparison.
    """
    gamma = params.gamma
    if abs(gamma) <= IDENTITY_TOL:
        raise InvalidConfiguration("gamma vanishes; this decomposition needs the case-ii setting")
    qv = float(np.asarray(q.values if isinstance(q, ExponentField) else q).ravel()[0])
    grid = lam.grid
    g_vals = _stacked_majorant(lam, alpha, qv)
    g = GridFunction(grid, g_vals)
    if not lam:
        return LevelSetDecomposition(g, None, [np.full(a.shape, NO_CLASS) for a in lam.levels],
                                     [], 0, -1, gamma, 0.0)
    lam_norm = f_norm(lam, alpha, p, q if isinstance(q, ExponentField) else
                      _const_field(grid, qv)).value
    positive = g_vals > 0.0
    ratio = np.zeros(grid.shape)
    ratio[positive] = (g_vals[positive] / lam_norm) ** gamma

    class_levels = []
    unassigned: list = []
    for j in range(lam.V + 1):
        cells = cube_cells(grid, ratio, j)
        k = cells.shape[-1]
        # (K//2+1)-th largest cell value: majority of Q exceeds t iff t < M
        M = np.partition(cells, k - 1 - k // 2, axis=-1)[..., k - 1 - k // 2]
        supported = lam.levels[j] != 0
        cls = np.where(supported, _dyadic_level(M), NO_CLASS)
        unassigned.extend((j, m) for m in zip(*(i.tolist() for i in
                                                 np.nonzero(supported & (M <= 0.0)))))
        class_levels.append(cls)
    for key in unassigned:
        if abs(lam.value(*key)) > 1e-12 * lam_norm:
            raise InvalidConfiguration(
                f"cube {key} escaped every level class but carries a nonzero coefficient"
            )

    assigned = np.concatenate([cls[cls != NO_CLASS] for cls in class_levels])
    l_min, l_max = (int(assigned.min()), int(assigned.max())) if assigned.size else (0, -1)
    return LevelSetDecomposition(g, ratio, class_levels, unassigned, l_min, l_max,
                                 gamma, lam_norm)


def _subset_from_level_sets(lam: DyadicCoefficients,
                            decomp: LevelSetDecomposition) -> SubsetSelection:
    """E_Q = Q minus A_{l+1}, padded by one cell when the split is an exact tie."""
    grid = lam.grid
    level = _dyadic_level(decomp.ratio)
    levels = []
    for j in range(lam.V + 1):
        ratio = cube_cells(grid, decomp.ratio, j)
        keep = ((cube_cells(grid, level, j) <= decomp.class_levels[j][..., None])
                & (lam.levels[j] != 0)[..., None])
        tie = np.nonzero(2 * keep.sum(axis=-1) == keep.shape[-1])
        # exact half split: move the smallest excluded cell into E
        pick = np.argmin(np.where(keep[tie], np.inf, ratio[tie]), axis=-1)
        keep[tie + (pick,)] = True
        levels.append(keep)
    return SubsetSelection(grid, levels)


def factorize_pq_infty(lam: DyadicCoefficients,
                       params: FactorizationParams) -> FactorizationResult:
    """Level-set factorization for the p/infty setting.

    lam0_{j,m} = 2^{l + j u(x_{j,m})} (|lam|/||lam||)^{q/q0} and
    lam1_{j,m} = 2^{l delta/gamma + j v(x_{j,m})} (|lam|/||lam||)^{q/q1},
    with l the cube's level-set class.  The second factor norm is the
    subset evaluation over E_Q = Q minus A_{l+1}; the direct endpoint norm
    rides along for comparison.
    """
    if params.kind != "pq-infty":
        raise InvalidConfiguration(f"params describe a {params.kind} construction")
    if lam.grid != params.grid:
        raise InvalidInput("coefficients and params live on different grids")
    if not lam:
        raise InvalidInput("factorization needs a nonzero norm")
    decomp = build_level_sets(lam, params.alpha, params.p, params.q, params)
    norm = decomp.lam_norm
    if norm == 0.0:
        raise InvalidInput("factorization needs a nonzero norm")
    theta = params.theta
    q_val = float(params.q.values.ravel()[0])
    lam0, lam1, zero_count = _corner_factors(lam, norm, params, q_val / params.q0,
                                             q_val / params.q1, decomp.class_levels,
                                             params.delta / params.gamma)
    err = _reconstruction_error(lam, lam0, lam1, norm, theta)
    q0f = _const_field(lam.grid, params.q0)
    norm0 = f_norm(lam0, params.alpha0, params.p0, q0f).value
    sel = _subset_from_level_sets(lam1, decomp)
    norm1 = f_infty_subset_norm(lam1, params.alpha1, params.q1, sel)
    direct1 = f_infty_norm(lam1, params.alpha1, params.q1)
    return FactorizationResult(lam0, lam1, norm, err, norm0, norm1,
                               factor1_direct=direct1, level_sets=decomp,
                               zero_count=zero_count)


def calderon_upper(lam: DyadicCoefficients, params: FactorizationParams,
                   construction: str | None = None) -> float:
    """Upper anchor ||lam|| max(1, ||lam0||)^{1-theta} max(1, ||lam1||)^theta.

    Normalized form of the product infimum: rescale each factor into the
    unit ball and absorb the scale into the constant.
    """
    if construction is not None and construction != params.kind:
        raise InvalidConfiguration(
            f"requested {construction} but params describe {params.kind}"
        )
    res = factorize_pp(lam, params) if params.kind == "pp" else factorize_pq_infty(lam, params)
    return _upper_value(res, params.theta)


def _upper_value(res: FactorizationResult, theta: float) -> float:
    return res.lam_norm * max(1.0, res.factor0_norm) ** (1.0 - theta) \
        * max(1.0, res.factor1_norm) ** theta


# ------------------------------------------------------------------ lattice


def lattice_property_check(truncations, lam: DyadicCoefficients, alpha: ExponentField,
                           p: ExponentField, q: ExponentField) -> bool:
    """Norms of increasing truncations must rise to the full norm.

    Finite support makes the limit exact: the last truncation's norm has to
    match ||lam|| within 1e-9 relative, and the sequence must be monotone
    non-decreasing up to the same slack.
    """
    for i, trunc in enumerate(truncations):
        if trunc.grid != lam.grid:
            raise InvalidInput(f"truncation {i} lives on a different grid")
        for v in range(trunc.V + 1):
            over = np.argwhere(trunc.moduli(v) > lam.moduli(v) * (1.0 + 1e-12))
            if len(over):
                key = (v, tuple(over[0].tolist()))
                raise PreconditionViolation(
                    f"truncation {i} exceeds the target at {key}"
                )
    full = f_norm(lam, alpha, p, q).value
    norms = [f_norm(t, alpha, p, q).value for t in truncations]
    slack = 1e-9 * max(full, 1e-300)
    monotone = all(b >= a - slack for a, b in zip(norms, norms[1:]))
    return monotone and bool(norms) and abs(norms[-1] - full) <= slack


# --------------------------------------------------------------- experiment


def case_classifier(p0: ExponentField, p1: ExponentField, q0: ExponentField,
                    q1: ExponentField, theta: float) -> str:
    """case-i when gamma = p/p0 - q/q0 vanishes identically, case-ii when
    q0, q1 are constants and gamma vanishes nowhere, else unsupported."""
    theta = _check_theta(theta)
    p = interpolate_exponents(p0, p1, theta, "harmonic")
    q = interpolate_exponents(q0, q1, theta, "harmonic")
    gamma = p.values / p0.values - q.values / q0.values
    mags = np.abs(gamma)
    if float(mags.max()) <= IDENTITY_TOL:
        return "case-i"
    constant = (float(np.ptp(q0.values)) <= IDENTITY_TOL
                and float(np.ptp(q1.values)) <= IDENTITY_TOL)
    if constant and float(mags.min()) > IDENTITY_TOL:
        return "case-ii"
    return "unsupported"


@dataclass
class EquivalenceRow:
    corpus_id: int
    lower: float
    upper: float
    ratio: float
    case_tag: str


@dataclass(eq=False)
class EquivalenceReport:
    rows: list
    min_ratio: float
    max_ratio: float
    construction: str

    def csv_rows(self) -> list:
        return [[r.corpus_id, repr(r.lower), repr(r.upper), repr(r.ratio), r.case_tag]
                for r in self.rows]

    def json_summary(self) -> dict:
        return {
            "construction": self.construction,
            "items": len(self.rows),
            "min_ratio": self.min_ratio,
            "max_ratio": self.max_ratio,
        }


def equivalence_experiment(corpus, params: FactorizationParams,
                           construction: str | None = None) -> EquivalenceReport:
    """Bracket upper/lower over a corpus: lower anchor is the interpolated-space
    norm, upper anchor the factorization bound, one row per item in corpus
    order."""
    if construction is not None and construction != params.kind:
        raise InvalidConfiguration(
            f"requested {construction} but params describe {params.kind}"
        )
    corpus = list(corpus)
    if not corpus:
        raise InvalidInput("corpus must be nonempty")
    tag = "case-i" if params.kind == "pp" else "case-ii"
    factorize = factorize_pp if params.kind == "pp" else factorize_pq_infty

    rows = []
    for i, lam in enumerate(corpus):
        res = factorize(lam, params)
        upper = _upper_value(res, params.theta)
        rows.append(EquivalenceRow(i, res.lam_norm, upper, upper / res.lam_norm, tag))
    ratios = [r.ratio for r in rows]
    return EquivalenceReport(rows, min(ratios), max(ratios), params.kind)
