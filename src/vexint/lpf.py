"""Dyadic frequency decompositions: filter banks, duals, and the induced norms.

All filters are radial Fourier-side multipliers sampled on the grid's
frequency lattice.  Smooth transitions use the standard exp(-1/t) blend,
which is identically 1 (resp. 0) outside the transition window, so the
support and lower-bound statements hold exactly on the lattice.  A
multiplier m acts by g = ifft(m * fft(f)); its spatial kernel is
ifft(m) / h^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .errors import (
    AdmissibilityFailure,
    InvalidConfiguration,
    InvalidInput,
    ResolutionExceeded,
)
from .exponents import ExponentField
from .grid import Grid, GridFunction, cube_corners
from .lebesgue import DEFAULT_TOL, NormResult, mixed_norm
from .seqspaces import DyadicCoefficients, _constant_exponent, dyadic_tail_sup

__all__ = [
    "FilterBank",
    "RetractReport",
    "build_admissible_pair",
    "build_dual_pair",
    "build_resolution_of_unity",
    "kernel",
    "vanishing_moments",
    "analyze",
    "synthesize",
    "retract_roundtrip",
    "F_norm",
    "F_infty_norm",
]

# duals are zeroed where the Calderon denominator falls below this; such
# frequencies lie beyond the certified band and carry no contract
D_FLOOR = 1e-4


def _bump_side(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def smooth_falloff(r, a: float, b: float) -> np.ndarray:
    """C^inf profile: identically 1 for r <= a, identically 0 for r >= b."""
    r = np.asarray(r, dtype=np.float64)
    hi = _bump_side(b - r)
    lo = _bump_side(r - a)
    den = hi + lo
    blend = hi / np.where(den == 0.0, 1.0, den)
    return np.where(r <= a, 1.0, np.where(r >= b, 0.0, blend))


def _phi0_profile(r):
    return smooth_falloff(r, 5.0 / 3.0, 2.0)


def _phi_profile(r):
    r = np.asarray(r, dtype=np.float64)
    return (1.0 - smooth_falloff(r, 0.5, 0.6)) * smooth_falloff(r, 5.0 / 3.0, 2.0)


def _rou_phi0_profile(r):
    return smooth_falloff(r, 1.0, 2.0)


def _rou_phi_profile(r):
    r = np.asarray(r, dtype=np.float64)
    return smooth_falloff(r / 2.0, 1.0, 2.0) - smooth_falloff(r, 1.0, 2.0)


@dataclass(eq=False)
class FilterBank:
    """Fourier-side multipliers of one dyadic decomposition on a grid.

    `phi0` is the level-0 multiplier, `phis[v-1]` the level-v annulus
    multiplier.  Duals, omegas, and the diagnostics are filled in by the
    corresponding builders and stay None until then.
    """

    grid: Grid
    V: int
    kind: str  # "admissible" or "rou"
    phi0: np.ndarray = dc_field(repr=False)
    phis: list = dc_field(repr=False)
    profile0: object = dc_field(repr=False)
    profile: object = dc_field(repr=False)
    lower_bound_c: float = 1.0
    psi0: np.ndarray | None = dc_field(default=None, repr=False)
    psis: list | None = dc_field(default=None, repr=False)
    omegas: list | None = dc_field(default=None, repr=False)
    min_D: float | None = None
    ass4_residual: float | None = None
    rou_residual: float | None = None

    @property
    def band_radius(self) -> float:
        """Frequencies on which the bank's identities are certified."""
        scale = 5.0 / 3.0 if self.kind == "admissible" else 1.0
        return 2.0 ** self.V * scale

    @property
    def has_duals(self) -> bool:
        return self.psi0 is not None

    def multiplier(self, v: int) -> np.ndarray:
        if not 0 <= v <= self.V:
            raise InvalidConfiguration(f"level {v} outside bank range 0..{self.V}")
        return self.phi0 if v == 0 else self.phis[v - 1]

    def dual_multiplier(self, v: int) -> np.ndarray:
        if not self.has_duals:
            raise InvalidConfiguration("bank has no dual multipliers; run build_dual_pair")
        if not 0 <= v <= self.V:
            raise InvalidConfiguration(f"level {v} outside bank range 0..{self.V}")
        return self.psi0 if v == 0 else self.psis[v - 1]


def _check_resolution(grid: Grid, V: int) -> None:
    if V < 0 or V > grid.v_max:
        raise ResolutionExceeded(f"V={V} outside the grid's usable levels 0..{grid.v_max}")
    if grid.nyquist < 2.0 ** (V + 1):
        raise ResolutionExceeded(
            f"Nyquist {grid.nyquist:.4g} does not resolve level {V} "
            f"(need >= {2.0 ** (V + 1)})"
        )


def build_admissible_pair(grid: Grid, V: int) -> FilterBank:
    """Bank with the level-0 ball filter and dyadic annulus filters.

    The level-0 multiplier is 1 on |xi| <= 5/3 with smooth decay to 0 at 2;
    the annulus base is 1 on 3/5 <= |xi| <= 5/3, supported in [1/2, 2], and
    scaled by 2^v per level.  Both lower bounds are attained with c = 1.
    """
    _check_resolution(grid, V)
    rho = grid.freq_radius
    phi0 = _phi0_profile(rho)
    phis = [_phi_profile(rho / 2.0 ** v) for v in range(1, V + 1)]
    return FilterBank(grid, V, "admissible", phi0, phis, _phi0_profile, _phi_profile)


def build_dual_pair(bank: FilterBank) -> FilterBank:
    """Duals by division: FPsi = conj(FPhi)/D with D the squared-sum denominator.

    The duality identity then holds exactly wherever D does not vanish; it
    is certified on |xi| <= band_radius and the minimum of D there is
    recorded.
    """
    grid = bank.grid
    D = np.abs(bank.phi0) ** 2 + sum(np.abs(p) ** 2 for p in bank.phis)
    band = grid.freq_radius <= bank.band_radius
    min_D = float(D[band].min())
    if min_D < 0.25:
        raise AdmissibilityFailure(
            f"Calderon denominator dips to {min_D} on the certified band"
        )
    inv = np.zeros_like(D)
    safe = D >= D_FLOOR
    inv[safe] = 1.0 / D[safe]
    psi0 = np.conjugate(bank.phi0) * inv
    psis = [np.conjugate(p) * inv for p in bank.phis]
    ident = bank.phi0 * psi0 + sum(p * d for p, d in zip(bank.phis, psis))
    residual = float(np.abs(ident - 1.0)[band].max())
    if residual > 1e-10:
        raise AdmissibilityFailure(f"duality identity residual {residual} exceeds 1e-10")
    return replace(bank, psi0=psi0, psis=psis, min_D=min_D, ass4_residual=residual)


def build_resolution_of_unity(grid: Grid, V: int) -> FilterBank:
    """Telescoping partition: phi_v = Psi(2^-v xi) - Psi(2^{1-v} xi).

    The levels sum to 1 exactly on |xi| <= 2^V.  Each omega_v multiplier is
    the sum of the three neighboring levels (with the one-past-V extension),
    so omega_v = 1 on the support of phi_v.
    """
    _check_resolution(grid, V)
    rho = grid.freq_radius
    scaled = [_rou_phi0_profile(rho / 2.0 ** v) for v in range(V + 2)]
    phi0 = scaled[0]
    phis = [scaled[v] - scaled[v - 1] for v in range(1, V + 1)]
    phi_next = scaled[V + 1] - scaled[V]
    # ext[i] holds phi_{i-1}, with phi_{-1} = 0 and the level V+1 extension
    ext = [np.zeros(grid.shape), phi0, *phis, phi_next]
    omegas = [ext[v] + ext[v + 1] + ext[v + 2] for v in range(V + 1)]
    band = rho <= 2.0 ** V
    total = phi0 + sum(phis) if phis else phi0
    residual = float(np.abs(total - 1.0)[band].max())
    if residual > 1e-12:
        raise AdmissibilityFailure(f"partition residual {residual} exceeds 1e-12")
    return FilterBank(
        grid, V, "rou", phi0, phis, _rou_phi0_profile, _rou_phi_profile,
        omegas=omegas, rou_residual=residual,
    )


def _apply(mult: np.ndarray, spec: np.ndarray) -> np.ndarray:
    return np.fft.ifftn(mult * spec)


def kernel(bank: FilterBank, v: int) -> GridFunction:
    """Spatial kernel of the level-v multiplier (what the level convolves by)."""
    grid = bank.grid
    vals = np.fft.ifftn(bank.multiplier(v).astype(np.complex128)) / grid.h ** grid.n
    return GridFunction(grid, vals)


def vanishing_moments(bank: FilterBank, gammas=(0, 1, 2), step: float = 1.0 / 64.0) -> dict:
    """|gamma-th derivative of the annulus profile at xi = 0|, per gamma.

    Realizes int x^gamma phi(x) dx = i^gamma (d/dxi)^gamma Fphi(0).  The
    annulus profile vanishes identically near 0, so central differences
    inside that neighborhood return exact zeros.  The box-periodized
    kernel's raw spatial moment is a different quantity (dominated by the
    periodization tail) and carries no vanishing claim.
    """
    prof = bank.profile
    # multiplier is radial, so its 1-d restriction is the even extension
    fm, f0, fp = (float(prof(np.array([abs(x)]))[0]) for x in (-step, 0.0, step))
    out = {}
    for gamma in gammas:
        if gamma == 0:
            val = f0
        elif gamma == 1:
            val = (fp - fm) / (2.0 * step)
        elif gamma == 2:
            val = (fp - 2.0 * f0 + fm) / step ** 2
        else:
            raise InvalidInput(f"moment order {gamma} not supported (use 0..2)")
        out[gamma] = abs(val)
    return out


def analyze(f: GridFunction, bank: FilterBank) -> DyadicCoefficients:
    """Coefficients lam_{v,m} = 2^{-vn/2} (phi~_v * f)(2^{-v} m) at cube corners."""
    if f.grid != bank.grid:
        raise InvalidInput("function and bank live on different grids")
    if not bank.has_duals:
        raise InvalidConfiguration("analysis requires a dual-ready bank")
    grid = bank.grid
    spec = np.fft.fftn(f.values)
    levels = []
    for v in range(bank.V + 1):
        conv = _apply(np.conjugate(bank.multiplier(v)), spec)
        levels.append(2.0 ** (-v * grid.n / 2.0) * cube_corners(grid, conv, v))
    return DyadicCoefficients(grid, bank.V, levels)


def synthesize(lam: DyadicCoefficients, bank: FilterBank) -> GridFunction:
    """Sum of lam_{v,m} psi_{v,m}, evaluated spectrally level by level."""
    if lam.grid != bank.grid:
        raise InvalidInput("coefficients and bank live on different grids")
    if not bank.has_duals:
        raise InvalidConfiguration("synthesis requires a dual-ready bank")
    if lam.V > bank.V:
        raise InvalidConfiguration(
            f"coefficients reach level {lam.V} but the bank stops at {bank.V}"
        )
    grid = bank.grid
    n = grid.n
    hn = grid.h ** n
    out = np.zeros(grid.shape, dtype=np.complex128)
    for v in range(lam.V + 1):
        if not lam.levels[v].any():
            continue
        impulses = np.zeros(grid.shape, dtype=np.complex128)
        cube_corners(grid, impulses, v)[...] = lam.levels[v]
        # lam psi_{v,m} sums to the impulse train convolved with the dual kernel
        impulses *= 2.0 ** (-v * n / 2.0) / hn
        out += np.fft.ifftn(np.fft.fftn(impulses) * bank.dual_multiplier(v))
    return GridFunction(grid, out)


@dataclass
class RetractReport:
    """Round-trip residual of the omega-retraction against the level split."""

    residual: float
    band_limited: bool
    band_radius: float

    def __float__(self) -> float:
        return self.residual


def retract_roundtrip(f: GridFunction, bank: FilterBank) -> RetractReport:
    """Residual sup|R(S(f)) - f| / sup|f| with R((f_v)) = sum omega_v * f_v.

    The reconstruction contract (<= 1e-6) applies to band-limited f only;
    out-of-band energy is measured and flagged instead.
    """
    if f.grid != bank.grid:
        raise InvalidInput("function and bank live on different grids")
    if bank.kind != "rou" or bank.omegas is None:
        raise InvalidConfiguration("retraction requires a resolution-of-unity bank")
    grid = bank.grid
    spec = np.fft.fftn(f.values)
    peak = float(np.abs(spec).max())
    outside = grid.freq_radius > 2.0 ** bank.V
    band_limited = peak == 0.0 or float(np.abs(spec[outside]).max()) <= 1e-12 * peak
    sup = float(np.abs(f.values).max())
    if sup == 0.0:
        return RetractReport(0.0, True, 2.0 ** bank.V)
    out = np.zeros(grid.shape, dtype=np.complex128)
    for v in range(bank.V + 1):
        fv = _apply(bank.multiplier(v), spec)
        out += _apply(bank.omegas[v], np.fft.fftn(fv))
    residual = float(np.abs(out - f.values).max()) / sup
    return RetractReport(residual, band_limited, 2.0 ** bank.V)


def F_norm(f: GridFunction, alpha: ExponentField, p: ExponentField,
           q: ExponentField, bank: FilterBank, tol: float = DEFAULT_TOL) -> NormResult:
    """Mixed (p, q) norm of the weighted decomposition (2^{v alpha(.)} phi_v * f)_v."""
    if f.grid != bank.grid or alpha.grid != bank.grid:
        raise InvalidInput("function, fields, and bank must share one grid")
    spec = np.fft.fftn(f.values)
    family = []
    for v in range(bank.V + 1):
        conv = _apply(bank.multiplier(v), spec)
        family.append(np.exp2(v * alpha.values) * np.abs(conv))
    return mixed_norm(family, p, q, tol=tol)


def F_infty_norm(f: GridFunction, alpha: ExponentField, q, bank: FilterBank) -> float:
    """Endpoint norm: dyadic-cube sup of averaged tails of 2^{v alpha q} |phi_v * f|^q."""
    if f.grid != bank.grid or alpha.grid != bank.grid:
        raise InvalidInput("function, fields, and bank must share one grid")
    q = _constant_exponent(q)
    spec = np.fft.fftn(f.values)
    levels = []
    for v in range(bank.V + 1):
        conv = _apply(bank.multiplier(v), spec)
        levels.append(np.exp2(v * q * alpha.values) * np.abs(conv) ** q)
    return dyadic_tail_sup(bank.grid, levels, q)
