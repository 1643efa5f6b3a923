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

import numpy as np

from .errors import (
    InvalidConfiguration,
    InvalidInput,
    PreconditionViolation,
)
from .exponents import ExponentField, _check_theta, build_exponent, interpolate_exponents
from .grid import Grid, GridFunction, _within_float_range, common_grid, cube_cells, cube_corners
from .seqspaces import (
    DyadicCoefficients,
    SubsetSelection,
    _constant_exponent,
    _level_sum,
    _pow_each,
    _split,
    f_infty_subset_norm,
    f_norm,
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
    "factorize",
    "calderon_upper",
    "lattice_property_check",
    "case_classifier",
    "equivalence_experiment",
]

IDENTITY_TOL = 1e-12


@dataclass(eq=False)
class FactorizationParams:
    """Endpoint data plus every derived exponent the constructions need.

    kind is "pp" (q = p in all three spaces, so q0 and q1 are p0 and p1) or
    "pq-infty" (second space of sup type with constant q0, q1).  u and v are
    the corner-evaluated level weights; gamma and delta drive the level-set
    construction and are zero in the pp case.
    """

    kind: str
    theta: float
    alpha0: ExponentField
    alpha1: ExponentField
    p0: ExponentField
    p1: ExponentField | None
    q0: ExponentField
    q1: ExponentField
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


def _level_weights(theta: float, alpha0: ExponentField, alpha1: ExponentField,
                   q0: ExponentField, q1: ExponentField, q: ExponentField):
    """Level weights u = q theta diff + n/2 (q/q0 - 1) and v = q (theta-1) diff + n/2 (q/q1 - 1),
    diff = alpha1/q0 - alpha0/q1, and the grid maxima of the identity residuals
    |(1-theta) u + theta v| and |(1-theta) q/q0 + theta q/q1 - 1|, for both constructions."""
    n = q.grid.n
    q, q0, q1 = q.values, q0.values, q1.values
    diff = alpha1.values / q0 - alpha0.values / q1
    u = q * theta * diff + 0.5 * n * (q / q0 - 1.0)
    v = q * (theta - 1.0) * diff + 0.5 * n * (q / q1 - 1.0)
    return (u, v, float(np.abs((1.0 - theta) * u + theta * v).max()),
            float(np.abs((1.0 - theta) * q / q0 + theta * q / q1 - 1.0).max()))


def factorization_params_pp(theta: float, alpha0: ExponentField, alpha1: ExponentField,
                            p0: ExponentField, p1: ExponentField) -> FactorizationParams:
    """Derived data for the p(.) = q(.) construction."""
    theta = _check_theta(theta)
    common_grid(alpha0, alpha1, p0, p1)
    alpha = interpolate_exponents(alpha0, alpha1, theta)
    p = interpolate_exponents(p0, p1, theta)
    u, v, r_uv, r_q = _level_weights(theta, alpha0, alpha1, p0, p1, p)
    residual = max(r_uv, r_q)
    if residual > IDENTITY_TOL:
        raise InvalidConfiguration(f"exponent identity residual {residual} exceeds {IDENTITY_TOL}")
    return FactorizationParams(
        "pp", theta, alpha0, alpha1, p0, p1, p0, p1, alpha, p, p,
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
    grid = common_grid(alpha0, alpha1, p0)
    alpha = interpolate_exponents(alpha0, alpha1, theta)
    q0f, q1f = (build_exponent(grid, "constant", value=c) for c in (q0, q1))
    q = interpolate_exponents(q0f, q1f, theta)
    p = _p_infty(p0, theta)
    u, v, r_uv, r_q = _level_weights(theta, alpha0, alpha1, q0f, q1f, q)
    gamma_field = p.values / p0.values - q.values / q0f.values
    gamma = float(gamma_field.ravel()[0])
    delta = -float(q.values.ravel()[0]) / q1
    residual = max(
        r_uv,
        float(np.abs(gamma_field - gamma).max()),
        abs((1.0 - theta) + (delta / gamma) * theta),
        r_q,
    )
    if residual > IDENTITY_TOL:
        raise InvalidConfiguration(f"exponent identity residual {residual} exceeds {IDENTITY_TOL}")
    return FactorizationParams(
        "pq-infty", theta, alpha0, alpha1, p0, None, q0f, q1f, alpha, p, q,
        u, v, gamma, delta, residual,
    )


def _p_infty(p0: ExponentField, theta: float) -> ExponentField:
    """p with 1/p = (1-theta)/p0: the second integrability endpoint is infinite."""
    scale = 1.0 / (1.0 - theta)
    with np.errstate(over="ignore"):  # an overflow is ExponentField's InvalidExponent
        vals = p0.values * scale
    g_inf = None if p0.g_inf is None else p0.g_inf * scale
    return ExponentField(p0.grid, vals, float(vals.min()), float(vals.max()),
                         "integrability", g_inf=g_inf)


# ------------------------------------------------------------- easy direction


def _read_once(memo: dict, name: str, compute):
    """memo[name], set to compute() on its first read.

    A plain per-instance dict, not functools.cached_property: on Python 3.11
    that holds one lock per property, shared by every instance, for the
    whole computation, which would serialize the CLI's worker threads.
    """
    if name not in memo:
        memo[name] = compute()
    return memo[name]


@dataclass
class HolderReport:
    """Margin of the Hoelder (easy) direction and the norms behind it.

    factor1_norm is the stacked-sup functional when the second space is of
    sup type (the route for which the discrete chain is exact).
    """

    margin: float
    product: float
    lam_norm: float
    factor0_norm: float
    factor1_norm: float


def verify_holder_direction(lam: DyadicCoefficients, lam0: DyadicCoefficients,
                            lam1: DyadicCoefficients,
                            params: FactorizationParams) -> HolderReport:
    """Margin ||lam0||^{1-theta} ||lam1||^theta - ||lam|| after the domination check.

    lam is measured in F^{alpha}_{p,q}, lam0 in F^{alpha0}_{p0,q0} and lam1
    in F^{alpha1}_{p1,q1}, all read from params; for pq-infty the second
    space is of sup type.  The pointwise precondition
    |lam| <= |lam0|^{1-theta} |lam1|^theta is checked first and a violation
    aborts with the offending keys.
    """
    theta = params.theta
    common_grid(params, lam, lam0, lam1)

    a, bound = _reconstructions(lam, lam0, lam1, 1.0, theta)
    bad = np.flatnonzero(a > bound * (1.0 + 1e-9))
    if bad.size:
        keys = lam.support()
        shown = ", ".join(str(keys[i]) for i in bad[:8])
        more = "" if bad.size <= 8 else f" (+{bad.size - 8} more)"
        raise PreconditionViolation(f"domination fails at {shown}{more}")

    if params.kind == "pq-infty":
        # the stacked sup, which is the subset evaluation over E_Q = Q
        norm1 = _level_sum(lam1, params.alpha1, _constant_exponent(params.q1))[1]
    else:
        norm1 = f_norm(lam1, params.alpha1, params.p1, params.q1).value
    lam_norm = f_norm(lam, params.alpha, params.p, params.q).value
    norm0 = f_norm(lam0, params.alpha0, params.p0, params.q0).value
    product = norm0 ** (1.0 - theta) * norm1 ** theta
    return HolderReport(product - lam_norm, product, lam_norm, norm0, norm1)


# ------------------------------------------------------------ factorizations


@dataclass(eq=False)
class FactorizationResult:
    """Factors of lam = ||lam|| |lam0|^{1-theta} |lam1|^theta on the support of lam.

    lam0, lam1, lam_norm, level_sets and zero_count come from the
    construction.  The factor norms and the reconstruction error are
    computed on first read and kept: the upper anchor needs the factor
    norms, the reconstruction and Hoelder checks need none of them.  The
    reconstruction error is relative: the max over the support of
    |recon - |lam|| / |lam|.
    """

    lam: DyadicCoefficients = dc_field(repr=False)
    params: FactorizationParams = dc_field(repr=False)
    lam0: DyadicCoefficients
    lam1: DyadicCoefficients
    lam_norm: float
    level_sets: "LevelSetDecomposition | None" = None
    zero_count: int = 0
    _memo: dict = dc_field(default_factory=dict, init=False, repr=False)

    @property
    def reconstruction_error(self) -> float:
        def compute():
            a, recon = _reconstructions(self.lam, self.lam0, self.lam1, self.lam_norm,
                                        self.params.theta)
            with _within_float_range("a relative reconstruction error"):
                return float((np.abs(recon - a) / a).max(initial=0.0))
        return _read_once(self._memo, "reconstruction_error", compute)

    @property
    def factor0_norm(self) -> float:
        """||lam0|| in F^{alpha0}_{p0,p0} for pp, F^{alpha0}_{p0,q0} for pq-infty."""
        par = self.params
        return _read_once(self._memo, "factor0_norm", lambda: f_norm(
            self.lam0, par.alpha0, par.p0, par.q0).value)

    @property
    def factor1_norm(self) -> float:
        """||lam1|| in F^{alpha1}_{p1,p1} for pp; for pq-infty the subset
        evaluation over E_Q = Q minus A_{l+1}."""
        par = self.params

        def compute():
            if par.kind == "pp":
                return f_norm(self.lam1, par.alpha1, par.p1, par.q1).value
            sel = _subset_from_level_sets(self.lam1, self.level_sets)
            return f_infty_subset_norm(self.lam1, par.alpha1, par.q1, sel)
        return _read_once(self._memo, "factor1_norm", compute)


def _reconstructions(lam: DyadicCoefficients, lam0: DyadicCoefficients,
                     lam1: DyadicCoefficients, norm: float,
                     theta: float) -> tuple[np.ndarray, np.ndarray]:
    """|lam| and norm |lam0|^{1-theta} |lam1|^theta over the support of lam, flat in key order."""
    nz = np.flatnonzero(lam.flat)
    a, b0, b1 = (np.hypot(c.flat[nz].real, c.flat[nz].imag) for c in (lam, lam0, lam1))
    with _within_float_range("a reconstruction norm |lam0|^(1-theta) |lam1|^theta"):
        return a, norm * _pow_each(b0, 1.0 - theta) * _pow_each(b1, theta)


def _corner_factors(lam: DyadicCoefficients, norm: float, params: FactorizationParams,
                    e0, e1, classes: list[np.ndarray], ratio_l: float = 0.0):
    """(lam0, lam1, cubes left out) for lam0_{j,m} = 2^{l + j u(x)} (|lam_{j,m}|/norm)^{e0(x)}
    and lam1_{j,m} = 2^{l ratio_l + j v(x)} (|lam_{j,m}|/norm)^{e1(x)}, x the cube corner
    and l = classes[j][m]; e0, e1 are grid-shaped and cubes of class NO_CLASS are left out.
    """
    grid, V = lam.grid, lam.V
    cls = np.concatenate([c.ravel() for c in classes])
    nz = np.flatnonzero((lam.flat != 0) & (cls != NO_CLASS))
    j = np.repeat(np.arange(V + 1), [a.size for a in lam.levels])[nz]
    l, r = cls[nz], np.hypot(lam.flat[nz].real, lam.flat[nz].imag) / norm
    u, v, a, b = (np.concatenate([cube_corners(grid, x, i).ravel() for i in range(V + 1)])[nz]
                  for x in (params.u, params.v, e0, e1))
    flat0, flat1 = np.zeros_like(lam.flat), np.zeros_like(lam.flat)
    flat0[nz] = _pow_each(2.0, l + j * u) * _pow_each(r, a)
    flat1[nz] = _pow_each(2.0, l * ratio_l + j * v) * _pow_each(r, b)
    return (DyadicCoefficients(grid, V, _split(grid, V, flat0)),
            DyadicCoefficients(grid, V, _split(grid, V, flat1)), len(lam) - len(nz))


def factorize_pp(lam: DyadicCoefficients, params: FactorizationParams) -> FactorizationResult:
    """Corner-exponent factorization for the q = p setting.

    lam0_{j,m} = 2^{j u(x_{j,m})} (|lam_{j,m}| / ||lam||)^{p/p0 (x_{j,m})},
    lam1 the same with v and p/p1; x_{j,m} = 2^{-j} m is the cube corner.
    """
    if params.kind != "pp":
        raise InvalidConfiguration(f"params describe a {params.kind} construction")
    common_grid(params, lam)
    norm = f_norm(lam, params.alpha, params.p, params.q).value
    if norm == 0.0:
        raise InvalidInput("factorization needs a nonzero norm")
    q = params.q.values
    lam0, lam1, _ = _corner_factors(lam, norm, params, q / params.q0.values,
                                    q / params.q1.values,
                                    [np.zeros(a.shape, dtype=np.int64) for a in lam.levels])
    return FactorizationResult(lam, params, lam0, lam1, norm)


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
    the unassigned cubes, the supported cubes no A_l reaches.
    """

    g: GridFunction
    ratio: np.ndarray | None = dc_field(repr=False)
    class_levels: list[np.ndarray] = dc_field(repr=False)
    l_min: int
    l_max: int
    gamma: float
    lam_norm: float


def build_level_sets(lam: DyadicCoefficients,
                     params: FactorizationParams) -> LevelSetDecomposition:
    """Assign each supported cube its level index by the majority rule.

    g is the stacked majorant and ||lam|| the norm of lam in F^{alpha}_{p,q},
    all three exponents read from params (q must be constant).
    A_l = {x : (g(x)/||lam||)^gamma > 2^l}; a cube belongs to class l when
    its majority lies in A_l but not in A_{l+1}.  The per-cube class is the
    dyadic position of the (K//2+1)-th largest cell value M (the majority
    count exceeds K/2 exactly when 2^l < M), so assignment and the mask
    counting rule agree to the float comparison.
    """
    gamma = params.gamma
    if abs(gamma) <= IDENTITY_TOL:
        raise InvalidConfiguration("gamma vanishes; this decomposition needs the case-ii setting")
    qv = _constant_exponent(params.q)
    grid = common_grid(params, lam)
    g_vals = _level_sum(lam, params.alpha, qv)[0] ** (1.0 / qv)
    g = GridFunction(grid, g_vals)
    if not lam:
        return LevelSetDecomposition(g, None, [np.full(a.shape, NO_CLASS) for a in lam.levels],
                                     0, -1, gamma, 0.0)
    lam_norm = f_norm(lam, params.alpha, params.p, params.q).value
    positive = g_vals > 0.0
    ratio = np.zeros(grid.shape)
    ratio[positive] = (g_vals[positive] / lam_norm) ** gamma

    class_levels = []
    for j in range(lam.V + 1):
        cells = cube_cells(grid, ratio, j)
        k = cells.shape[-1]
        # (K//2+1)-th largest cell value: majority of Q exceeds t iff t < M
        M = np.partition(cells, k - 1 - k // 2, axis=-1)[..., k - 1 - k // 2]
        supported = lam.levels[j] != 0
        cls = np.where(supported, _dyadic_level(M), NO_CLASS)
        big = np.argwhere(supported & (M <= 0.0) & (lam.moduli(j) > 1e-12 * lam_norm))
        if len(big):
            raise InvalidConfiguration(f"cube {(j, tuple(big[0].tolist()))} escaped every "
                                       "level class but carries a nonzero coefficient")
        class_levels.append(cls)

    assigned = np.concatenate([cls[cls != NO_CLASS] for cls in class_levels])
    l_min, l_max = (int(assigned.min()), int(assigned.max())) if assigned.size else (0, -1)
    return LevelSetDecomposition(g, ratio, class_levels, l_min, l_max, gamma, lam_norm)


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
    subset evaluation over E_Q = Q minus A_{l+1}, computed on first read.
    """
    if params.kind != "pq-infty":
        raise InvalidConfiguration(f"params describe a {params.kind} construction")
    common_grid(params, lam)
    decomp = build_level_sets(lam, params)
    norm = decomp.lam_norm
    if norm == 0.0:
        raise InvalidInput("factorization needs a nonzero norm")
    q = params.q.values
    lam0, lam1, zero_count = _corner_factors(lam, norm, params, q / params.q0.values,
                                             q / params.q1.values, decomp.class_levels,
                                             params.delta / params.gamma)
    return FactorizationResult(lam, params, lam0, lam1, norm, level_sets=decomp,
                               zero_count=zero_count)


def factorize(lam: DyadicCoefficients, params: FactorizationParams) -> FactorizationResult:
    """Run the construction params describe: factorize_pp for kind "pp", else factorize_pq_infty."""
    if params.kind == "pp":
        return factorize_pp(lam, params)
    return factorize_pq_infty(lam, params)


def calderon_upper(lam: DyadicCoefficients, params: FactorizationParams) -> float:
    """Upper anchor ||lam|| max(1, ||lam0||)^{1-theta} max(1, ||lam1||)^theta.

    Normalized form of the product infimum: rescale each factor into the
    unit ball and absorb the scale into the constant.
    """
    return _upper_value(factorize(lam, params), params.theta)


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
    truncations = list(truncations)
    common_grid(lam, alpha, p, q, *truncations)
    for i, trunc in enumerate(truncations):
        over = [key for key, val in trunc.items()
                if abs(val) > abs(lam.value(*key)) * (1.0 + 1e-12)]
        if over:
            raise PreconditionViolation(f"truncation {i} exceeds the target at {over[0]}")
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
    common_grid(p0, p1, q0, q1)
    p = interpolate_exponents(p0, p1, theta)
    q = interpolate_exponents(q0, q1, theta)
    gamma = p.values / p0.values - q.values / q0.values
    mags = np.abs(gamma)
    if float(mags.max()) <= IDENTITY_TOL:
        return "case-i"
    if q0.is_constant and q1.is_constant and float(mags.min()) > IDENTITY_TOL:
        return "case-ii"
    return "unsupported"


@dataclass
class EquivalenceRow:
    corpus_id: int
    lower: float
    upper: float
    ratio: float


@dataclass(eq=False)
class EquivalenceReport:
    rows: list
    min_ratio: float
    max_ratio: float


def equivalence_experiment(corpus, params: FactorizationParams) -> EquivalenceReport:
    """Bracket upper/lower over a corpus: lower anchor is the interpolated-space
    norm, upper anchor the factorization bound, one row per item in corpus
    order."""
    corpus = list(corpus)
    if not corpus:
        raise InvalidInput("corpus must be nonempty")

    rows = []
    for i, lam in enumerate(corpus):
        res = factorize(lam, params)
        upper = _upper_value(res, params.theta)
        rows.append(EquivalenceRow(i, res.lam_norm, upper, upper / res.lam_norm))
    ratios = [r.ratio for r in rows]
    return EquivalenceReport(rows, min(ratios), max(ratios))
