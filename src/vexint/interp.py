"""Strip interpolation scaffolding: Poisson kernels, competitor families,
boundary modulars, and the scalar sandwich that the retraction route reuses.

The strip kernels are realized in closed form and accepted only after two
validations: the stated masses (1-theta, theta) and harmonic reproduction of
Re z^k from boundary data.  The competitor family is the proof's explicit
analytic family with the constant-in-z scalar choice h(x, z) = f(x), which
drops the usual epsilon bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (
    InvalidInput,
    SolverFailure,
    UnsupportedParameters,
)
from .exponents import ExponentField, _check_theta, _constant_value, build_exponent, \
    interpolate_exponents
from .grid import Grid, GridFunction, _within_float_range, common_grid
from .lebesgue import _modular_sum, luxemburg_norm

__all__ = [
    "PoissonPair",
    "CompetitorFamily",
    "SandwichReport",
    "InterRestReport",
    "strip_poisson",
    "competitor_family",
    "boundary_modulars",
    "three_lines_bound",
    "scalar_interp_sandwich",
    "inter_rest_check",
]

QUAD_T = 6.0
QUAD_STEP = 1.0 / 256.0
T_SAMPLES = (0.0, 0.7, 2.3, 4.1, 6.0)


@dataclass(eq=False)
class PoissonPair:
    """Harmonic-measure densities of the two strip boundary lines at theta.

    mu0 weights the line Re z = 0, mu1 the line Re z = 1; masses integrate
    to 1-theta and theta.  Construction validates both masses and the
    reproduction of Re z^k (k = 0, 1, 2) from boundary data.
    """

    theta: float
    t: np.ndarray = dc_field(repr=False)
    mu0_values: np.ndarray = dc_field(repr=False)
    mu1_values: np.ndarray = dc_field(repr=False)
    mass0: float
    mass1: float

    def mu0(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        with np.errstate(over="ignore"):
            # cosh overflow for huge |t| divides out to the correct limit 0
            return np.sin(np.pi * self.theta) / (2.0 * (np.cosh(np.pi * t) - np.cos(np.pi * self.theta)))

    def mu1(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        with np.errstate(over="ignore"):
            return np.sin(np.pi * self.theta) / (2.0 * (np.cosh(np.pi * t) + np.cos(np.pi * self.theta)))

    def integrate(self, boundary0, boundary1) -> float:
        """Harmonic extension at theta from samples on the two boundary lines."""
        f0 = np.asarray(boundary0(self.t), dtype=np.float64)
        f1 = np.asarray(boundary1(self.t), dtype=np.float64)
        return float(np.trapezoid(f0 * self.mu0_values, dx=QUAD_STEP)
                     + np.trapezoid(f1 * self.mu1_values, dx=QUAD_STEP))


def _check_strip_theta(theta: float) -> float:
    """theta in (0, 1) whose strip kernels are finite at t = 0.

    Within about 3e-9 of 0 or 1, cos(pi theta) rounds to +-1 and a
    denominator cosh(0) -+ cos(pi theta) of mu0 or mu1 is 0.0.
    """
    theta = _check_theta(theta)
    c = np.cos(np.pi * theta)
    if 1.0 - c == 0.0 or 1.0 + c == 0.0:
        raise InvalidInput(f"theta={theta} is too close to {round(theta)} for the strip "
                           "kernel: cos(pi theta) rounds to +-1")
    return theta


def strip_poisson(theta: float) -> PoissonPair:
    """Kernel pair for the unit strip at interior abscissa theta.

    mu0(t) = sin(pi theta) / (2 (cosh(pi t) - cos(pi theta))) and mu1 with
    + in the denominator.  Truncation T = 6 leaves tails below the mass
    tolerance; the masses and the Re z^k reproduction (k <= 2) are checked
    before the pair is returned.  A theta whose kernel is not representable
    at t = 0 is an InvalidInput.
    """
    theta = _check_strip_theta(theta)
    t = np.arange(-QUAD_T, QUAD_T + QUAD_STEP / 2.0, QUAD_STEP)
    pair = PoissonPair(theta, t, np.empty(0), np.empty(0), 0.0, 0.0)
    pair.mu0_values = pair.mu0(t)
    pair.mu1_values = pair.mu1(t)
    # truncation leaves ~4e-9 in the tails; the cumulative has the closed
    # form (1/pi) atan(tanh(pi t/2) tan(pi theta'/2)) per side, so add the
    # exact remainder instead of widening T
    edge = math.tanh(math.pi * QUAD_T / 2.0)
    tail0 = (1.0 - theta) - (2.0 / math.pi) * math.atan(
        edge * math.tan(math.pi * (1.0 - theta) / 2.0))
    tail1 = theta - (2.0 / math.pi) * math.atan(
        edge * math.tan(math.pi * theta / 2.0))
    pair.mass0 = float(np.trapezoid(pair.mu0_values, dx=QUAD_STEP)) + tail0
    pair.mass1 = float(np.trapezoid(pair.mu1_values, dx=QUAD_STEP)) + tail1
    if abs(pair.mass0 - (1.0 - theta)) > 1e-8 or abs(pair.mass1 - theta) > 1e-8:
        raise SolverFailure(
            f"kernel masses ({pair.mass0}, {pair.mass1}) miss ({1 - theta}, {theta})"
        )
    for k in (0, 1, 2):
        got = pair.integrate(lambda t: np.real((1j * t) ** k),
                             lambda t: np.real((1.0 + 1j * t) ** k))
        if abs(got - theta ** k) > 1e-6:
            raise SolverFailure(
                f"harmonic reproduction of Re z^{k} off by {abs(got - theta ** k)}"
            )
    return pair


@dataclass(eq=False)
class CompetitorFamily:
    """The proof's analytic family g(x, z) = f(x) |f(x)|^{w(x)(z - theta)}.

    f is simple: values[j] on the region masks[j], zero elsewhere; the
    exponent w = p/p1 - p/p0 is evaluated pointwise.  |g(x, it)| is
    t-independent, so every boundary quantity below is a single grid pass.
    """

    grid: Grid
    values: list
    masks: list = dc_field(repr=False)
    p0: ExponentField
    p1: ExponentField
    p: ExponentField
    theta: float
    w: np.ndarray = dc_field(repr=False)

    def f_values(self) -> np.ndarray:
        out = np.zeros(self.grid.shape, dtype=np.complex128)
        for val, mask in zip(self.values, self.masks):
            out[mask] = val
        return out

    def evaluate(self, z: complex) -> np.ndarray:
        """g(., z) on the grid; exactly f at z = theta."""
        z = complex(z)
        out = np.zeros(self.grid.shape, dtype=np.complex128)
        with _within_float_range(f"g(x, z) = f |f|^(w (z - theta)) at z = {z}"):
            for val, mask in zip(self.values, self.masks):
                out[mask] = val * np.exp(self.w[mask] * (z - self.theta) * math.log(abs(val)))
        return out

    def boundary_modulus(self, line: int) -> np.ndarray:
        """|g(x, it)| (line 0) or |g(x, 1 + it)| (line 1); t drops out."""
        expo = 1.0 - self.theta * self.w if line == 0 else 1.0 + (1.0 - self.theta) * self.w
        out = np.zeros(self.grid.shape)
        with _within_float_range(f"a boundary modulus |f|^(1 + (Re z - theta) w) on line {line}"):
            for val, mask in zip(self.values, self.masks):
                out[mask] = abs(val) ** expo[mask]
        return out


def competitor_family(f, p0: ExponentField, p1: ExponentField,
                      theta: float) -> CompetitorFamily:
    """Build the family from a simple f given as (value, region mask) pairs."""
    theta = _check_theta(theta)
    try:
        pairs = [(complex(v), np.asarray(m, dtype=bool)) for v, m in f]
    except (TypeError, ValueError) as exc:
        raise InvalidInput("f must be simple: a list of (value, region mask) pairs") from exc
    grid = common_grid(p0, p1, *(mask for _, mask in pairs))
    seen = np.zeros(grid.shape, dtype=bool)
    values, masks = [], []
    for val, mask in pairs:
        if not np.isfinite(val.real) or not np.isfinite(val.imag):
            raise InvalidInput("region values must be finite")
        if np.any(seen & mask):
            raise InvalidInput("regions must be pairwise disjoint")
        seen |= mask
        if val != 0 and mask.any():
            values.append(val)
            masks.append(mask)
    if not values:
        raise InvalidInput("f must be nonzero on at least one region")
    p = interpolate_exponents(p0, p1, theta)
    w = p.values / p1.values - p.values / p0.values
    return CompetitorFamily(grid, values, masks, p0, p1, p, theta, w)


def boundary_modulars(fam: CompetitorFamily) -> tuple[float, float]:
    """Sup over the t-sample set of the boundary modulars of g.

    Requires the underlying f normalized in L^{p(.)}; the exponent algebra
    then collapses both modulars to the modular of f itself, so the
    contract <= 1 + 1e-9 is met as near-equality.  A modular past the float
    range is +inf, which fails that contract as it should.
    """
    fv = np.abs(fam.f_values())
    if abs(_modular_sum(fv, fam.p, 1.0) - 1.0) > 1e-8:
        raise InvalidInput("competitor family must be built from a normalized f")
    rho0 = rho1 = 0.0
    for t in T_SAMPLES:
        rho0 = max(rho0, _modular_sum(np.abs(fam.evaluate(1j * t)), fam.p0, 1.0))
        rho1 = max(rho1, _modular_sum(np.abs(fam.evaluate(1.0 + 1j * t)), fam.p1, 1.0))
    return rho0, rho1


def three_lines_bound(fam: CompetitorFamily, region: int) -> float:
    """Quadrature right-hand side of the three-lines estimate on one region.

    Returns the smallest pointwise bound over the region, an upper bound
    for |f| there up to quadrature error.
    """
    if not 0 <= region < len(fam.values):
        raise InvalidInput(f"region {region} out of range 0..{len(fam.values) - 1}")
    pair = strip_poisson(fam.theta)
    theta = fam.theta
    mask = fam.masks[region]
    b0 = fam.boundary_modulus(0)[mask]
    b1 = fam.boundary_modulus(1)[mask]
    lhs0 = b0 * pair.mass0 / (1.0 - theta)
    lhs1 = b1 * pair.mass1 / theta
    rhs = lhs0 ** (1.0 - theta) * lhs1 ** theta
    return float(rhs.min())


@dataclass
class SandwichReport:
    upper_ratio: float
    lower_ratio: float
    rho0: float
    rho1: float
    norm: float
    region_slacks: list


def scalar_interp_sandwich(f, p0: ExponentField, p1: ExponentField,
                           theta: float) -> SandwichReport:
    """Certify the scalar interpolation identity from both directions.

    Upper route: normalize f, build the competitor, and take the boundary
    norms n0^{1-theta} n1^theta (= the interpolation-functional certificate
    over ||f||).  Lower route: the three-lines field dominates |f|, so the
    L^{p(.)} norm of that field over 1 measures the reverse slack.  Both
    ratios should bracket 1.  A region's slack is the field's minimum there,
    as `three_lines_bound` computes it, less |f| on the region.
    """
    _check_strip_theta(theta)
    fam0 = competitor_family(f, p0, p1, theta)
    fv = np.abs(fam0.f_values())
    norm = luxemburg_norm(fv, fam0.p).value
    scaled = [(val / norm, mask) for val, mask in zip(fam0.values, fam0.masks)]
    fam = competitor_family(scaled, p0, p1, theta)

    rho0, rho1 = boundary_modulars(fam)
    n0 = luxemburg_norm(fam.boundary_modulus(0), p0).value
    n1 = luxemburg_norm(fam.boundary_modulus(1), p1).value
    upper = n0 ** (1.0 - theta) * n1 ** theta

    pair = strip_poisson(theta)
    b0 = fam.boundary_modulus(0) * pair.mass0 / (1.0 - theta)
    b1 = fam.boundary_modulus(1) * pair.mass1 / theta
    rhs_field = b0 ** (1.0 - theta) * b1 ** theta
    lower = luxemburg_norm(rhs_field, fam.p).value

    slacks = [float(rhs_field[mask].min()) - abs(val)
              for val, mask in zip(fam.values, fam.masks)]
    return SandwichReport(upper, lower, rho0, rho1, norm, slacks)


@dataclass
class InterRestReport:
    ratio: float
    direct: float


def inter_rest_check(f: GridFunction, alpha0, alpha1, p0: ExponentField,
                     p1: ExponentField, q0, q1, theta: float, bank) -> InterRestReport:
    """Retraction-route consistency for constant alpha and q.

    The direct side evaluates the interpolated-space norm through the
    standard admissible decomposition; the anchor side evaluates the same
    weighted mixed norm on the partition levels (phi_v * f)_v, the sequence
    realization the retraction argument interpolates.  Their ratio carries
    the frame and overlap constants and must stay in a refinement-stable
    bracket.
    """
    from .lpf import F_norm, build_admissible_pair

    if getattr(bank, "kind", None) != "rou":
        raise UnsupportedParameters("this check rides the resolution-of-unity bank")
    a0 = _constant_value(alpha0, "alpha0")
    a1 = _constant_value(alpha1, "alpha1")
    q0v = _constant_value(q0, "q0")
    q1v = _constant_value(q1, "q1")
    theta = _check_theta(theta)
    grid = common_grid(bank, f, alpha0, alpha1, p0, p1, q0, q1)

    def constants(c0, c1, role):
        return [build_exponent(grid, "constant", value=c, role=role) for c in (c0, c1)]
    alpha_f = interpolate_exponents(*constants(a0, a1, "smoothness"), theta)
    q_f = interpolate_exponents(*constants(q0v, q1v, "integrability"), theta)
    p = interpolate_exponents(p0, p1, theta)

    direct = F_norm(f, alpha_f, p, q_f, build_admissible_pair(grid, bank.V)).value
    anchor = F_norm(f, alpha_f, p, q_f, bank).value
    if anchor == 0.0 and direct == 0.0:
        return InterRestReport(1.0, direct)
    if anchor == 0.0 or direct == 0.0:
        raise SolverFailure("one route vanished while the other did not")
    return InterRestReport(direct / anchor, direct)
