"""Dyadic frequency decompositions: filter banks, duals, and the induced norms.

All filters are radial Fourier-side multipliers sampled on the grid's
frequency lattice.  Smooth transitions use the standard exp(-1/t) blend,
which is identically 1 (resp. 0) outside the transition window, so the
support and lower-bound statements hold exactly on the lattice.  A
multiplier m acts by g = ifft(m * fft(f)); its spatial kernel is
ifft(m) / h^n.

Band-limited products, impulse trains and mode spectra are zero on most
rows, so their 2-D transforms go through `_fft`, which transforms only
the lines that carry data or are read:

- the last-axis pass runs on the rows where `x.any(axis=1)` holds, decided
  from the data and never from a multiplier's support, so a row holding
  inf or NaN is transformed;
- the first-axis pass runs in place on the result, as numpy's own second
  pass does, and only on every `step`-th column (`analyze` reads the
  level-v cube corners alone, so it passes the cube edge in cells).

The result equals `np.fft.fftn`/`ifftn` bit for bit.  numpy's pocketfft
transforms each line on its own, so a transformed row is the same in
both, as long as it takes the same SIMD route (`_GROUP`; a shape that is
not a multiple of 8 takes the full transform).  A skipped row is all zeros, and its transform is all zeros too,
of either sign; the helper writes +0 there.  IEEE addition and
multiplication map inputs that differ only in the signs of zeros to
results that differ only in the signs of zeros, so the two first-axis
passes can differ only at outputs that are exactly zero.  So the helper
falls back to the full transform when it has such an output and a -0
may be involved: a skipped row holds a -0, or the transform of a +0 line
of this length is not +0 throughout (pocketfft's Bluestein lengths, such
as 89, give -0; powers of two do not).  Dense input (`fft(f)` of a
sampled function) stays `np.fft.fftn`: the pruned path was slower there.

A bank of levels 0..V needs V to be a usable level of its grid
(`Grid.check_level`, a `ResolutionExceeded` otherwise).  That also resolves
every filter: V <= v_max gives 2^(V+1) <= sqrt(2) N/(4L), below the largest
resolved frequency pi/h = pi N/(2L).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .errors import AdmissibilityFailure, InvalidConfiguration, InvalidInput
from .exponents import ExponentField
from .grid import Grid, GridFunction, _within_float_range, common_grid, cube_corners
from .lebesgue import NormResult, mixed_norm
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
    "transform_roundtrip",
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

    `phis[v]` is the level-v multiplier for v = 0..V: the level-0 ball
    filter, then the annulus filters.  `duals` has the same layout; it,
    the omegas, and the diagnostics are filled in by the corresponding
    builders and stay None until then.  `profile` is the annulus profile.
    """

    grid: Grid
    V: int
    kind: str  # "admissible" or "rou"
    phis: list = dc_field(repr=False)
    profile: object = dc_field(repr=False)
    duals: list | None = dc_field(default=None, repr=False)
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
        return self.duals is not None

    def multiplier(self, v: int) -> np.ndarray:
        if not 0 <= v <= self.V:
            raise InvalidConfiguration(f"level {v} outside bank range 0..{self.V}")
        return self.phis[v]

    def dual_multiplier(self, v: int) -> np.ndarray:
        if not self.has_duals:
            raise InvalidConfiguration("bank has no dual multipliers; run build_dual_pair")
        if not 0 <= v <= self.V:
            raise InvalidConfiguration(f"level {v} outside bank range 0..{self.V}")
        return self.duals[v]


def build_admissible_pair(grid: Grid, V: int) -> FilterBank:
    """Bank with the level-0 ball filter and dyadic annulus filters.

    The level-0 multiplier is 1 on |xi| <= 5/3 with smooth decay to 0 at 2;
    the annulus base is 1 on 3/5 <= |xi| <= 5/3, supported in [1/2, 2], and
    scaled by 2^v per level.  Both lower bounds are attained with c = 1.
    """
    grid.check_level(V)
    rho = grid.freq_radius
    phis = [_phi0_profile(rho)] + [_phi_profile(rho / 2.0 ** v) for v in range(1, V + 1)]
    return FilterBank(grid, V, "admissible", phis, _phi_profile)


def build_dual_pair(bank: FilterBank) -> FilterBank:
    """Duals by division: FPsi = conj(FPhi)/D with D the squared-sum denominator.

    The duality identity then holds exactly wherever D does not vanish; it
    is certified on |xi| <= band_radius and the minimum of D there is
    recorded.
    """
    grid = bank.grid
    phis = bank.phis
    D = np.abs(phis[0]) ** 2 + sum(np.abs(p) ** 2 for p in phis[1:])
    band = grid.freq_radius <= bank.band_radius
    min_D = float(D[band].min())
    if min_D < 0.25:
        raise AdmissibilityFailure(
            f"Calderon denominator dips to {min_D} on the certified band"
        )
    inv = np.zeros_like(D)
    safe = D >= D_FLOOR
    inv[safe] = 1.0 / D[safe]
    duals = [np.conjugate(p) * inv for p in phis]
    ident = phis[0] * duals[0] + sum(p * d for p, d in zip(phis[1:], duals[1:]))
    residual = float(np.abs(ident - 1.0)[band].max())
    if residual > 1e-10:
        raise AdmissibilityFailure(f"duality identity residual {residual} exceeds 1e-10")
    return replace(bank, duals=duals, min_D=min_D, ass4_residual=residual)


def build_resolution_of_unity(grid: Grid, V: int) -> FilterBank:
    """Telescoping partition: phi_v = Psi(2^-v xi) - Psi(2^{1-v} xi).

    The levels sum to 1 exactly on |xi| <= 2^V.  Each omega_v multiplier is
    the sum of the three neighboring levels (with the one-past-V extension),
    so omega_v = 1 on the support of phi_v.
    """
    grid.check_level(V)
    rho = grid.freq_radius
    scaled = [_rou_phi0_profile(rho / 2.0 ** v) for v in range(V + 2)]
    phis = [scaled[0]] + [scaled[v] - scaled[v - 1] for v in range(1, V + 1)]
    phi_next = scaled[V + 1] - scaled[V]
    # ext[i] holds phi_{i-1}, with phi_{-1} = 0 and the level V+1 extension
    ext = [np.zeros(grid.shape), *phis, phi_next]
    omegas = [ext[v] + ext[v + 1] + ext[v + 2] for v in range(V + 1)]
    band = rho <= 2.0 ** V
    total = phis[0] + sum(phis[1:])
    residual = float(np.abs(total - 1.0)[band].max())
    if residual > 1e-12:
        raise AdmissibilityFailure(f"partition residual {residual} exceeds 1e-12")
    return FilterBank(grid, V, "rou", phis, _rou_phi_profile, omegas=omegas,
                      rou_residual=residual)


# pocketfft transforms the lines of one call in SIMD groups (2 doubles
# wide with SSE2) and a leftover line on its own; a NaN that a line makes
# takes its sign and payload from the route it took, so every pruned pass
# transforms whole groups of 8 lines, as the full passes over N = 8k do
_GROUP = 8


def _fft(x: np.ndarray, inverse: bool, step: int = 1) -> np.ndarray:
    """`np.fft.fftn(x)` (`ifftn` if inverse) at the indices [::step] of every
    axis, bit for bit, for 1-D or 2-D x (module docstring)."""
    one = np.fft.ifft if inverse else np.fft.fft
    full = np.fft.ifftn if inverse else np.fft.fftn
    if x.ndim == 1:
        return one(x)[::step]
    if x.shape[0] % _GROUP or x.shape[1] % _GROUP:
        return full(x)[::step, ::step]
    rows = _whole_groups(x.any(axis=1))
    part = one(x[rows], axis=1)
    out = np.zeros(x.shape, dtype=part.dtype)
    out[rows] = part
    if step == 1:
        one(out, axis=0, out=out)
    else:
        read = np.zeros(x.shape[1], dtype=bool)
        read[::step] = True
        taken = _whole_groups(read)
        out = np.ascontiguousarray(one(out[:, taken], axis=0)[::step, read[taken]])
    if (not rows.all() and (out.view(out.real.dtype) == 0).any()
            and (_has_negative_zero(x[~rows]) or _has_negative_zero(one(np.zeros_like(x[0]))))):
        return full(x)[::step, ::step]
    return out


def _whole_groups(mask: np.ndarray) -> np.ndarray:
    """mask with its first unset entries set until it counts whole groups."""
    mask = mask.copy()
    mask[np.flatnonzero(~mask)[:-int(mask.sum()) % _GROUP]] = True
    return mask


def _has_negative_zero(a: np.ndarray) -> bool:
    # on the all-zero rows `_fft` skips, any set sign bit is a -0
    return bool(np.signbit(a.real).any() or np.signbit(a.imag).any())


def _apply(mult: np.ndarray, spec: np.ndarray, step: int = 1) -> np.ndarray:
    return _fft(mult * spec, True, step)


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
    grid = common_grid(bank, f)
    if not bank.has_duals:
        raise InvalidConfiguration("analysis requires a dual-ready bank")
    spec = np.fft.fftn(f.values)
    levels = []
    for v in range(bank.V + 1):
        grid.check_level(v)
        corners = _apply(np.conjugate(bank.multiplier(v)), spec, grid.cells_per_axis(v))
        levels.append(2.0 ** (-v * grid.n / 2.0) * corners)
    return DyadicCoefficients(grid, bank.V, levels)


def synthesize(lam: DyadicCoefficients, bank: FilterBank) -> GridFunction:
    """Sum of lam_{v,m} psi_{v,m}, evaluated spectrally level by level."""
    grid = common_grid(bank, lam)
    if not bank.has_duals:
        raise InvalidConfiguration("synthesis requires a dual-ready bank")
    if lam.V > bank.V:
        raise InvalidConfiguration(
            f"coefficients reach level {lam.V} but the bank stops at {bank.V}"
        )
    n = grid.n
    hn = grid.h ** n
    out = np.zeros(grid.shape, dtype=np.complex128)
    with _within_float_range("a synthesized level sum_m lam_{v,m} psi_{v,m} or their sum"):
        for v in range(lam.V + 1):
            if not lam.levels[v].any():
                continue
            impulses = np.zeros(grid.shape, dtype=np.complex128)
            cube_corners(grid, impulses, v)[...] = lam.levels[v]
            # lam psi_{v,m} sums to the impulse train convolved with the dual kernel
            impulses *= 2.0 ** (-v * n / 2.0) / hn
            out += _fft(_fft(impulses, False) * bank.dual_multiplier(v), True)
    return GridFunction(grid, out)


@dataclass
class RetractReport:
    """Round-trip residual of the omega-retraction against the level split."""

    residual: float
    band_limited: bool
    band_radius: float


def retract_roundtrip(f: GridFunction, bank: FilterBank) -> RetractReport:
    """Residual sup|R(S(f)) - f| / sup|f| with R((f_v)) = sum omega_v * f_v.

    The reconstruction contract (<= 1e-6) applies to band-limited f only;
    out-of-band energy is measured and flagged instead.
    """
    grid = common_grid(bank, f)
    if bank.kind != "rou" or bank.omegas is None:
        raise InvalidConfiguration("retraction requires a resolution-of-unity bank")
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


def transform_roundtrip(f: GridFunction, bank: FilterBank) -> float:
    """Residual sup|S(A f) - f| / sup|f| of analysis then synthesis on a dual-ready bank.

    A zero f round-trips exactly and gives 0, as in `retract_roundtrip`.
    """
    back = synthesize(analyze(f, bank), bank)
    sup = float(np.abs(f.values).max())
    return float(np.abs(back.values - f.values).max()) / sup if sup else 0.0


def _filtered_levels(f: GridFunction, alpha: ExponentField, bank: FilterBank,
                     q: float = 1.0) -> list[np.ndarray]:
    """[2^{v alpha q} |phi_v * f|^q for v = 0..V] under one float-range guard."""
    with _within_float_range("a level integrand 2^(v alpha q) |phi_v * f|^q", q):
        spec = np.fft.fftn(f.values)
        return [np.exp2(v * q * alpha.values) * np.abs(_apply(bank.multiplier(v), spec)) ** q
                for v in range(bank.V + 1)]


def F_norm(f: GridFunction, alpha: ExponentField, p: ExponentField,
           q: ExponentField, bank: FilterBank) -> NormResult:
    """Mixed (p, q) norm of the weighted decomposition (2^{v alpha(.)} phi_v * f)_v."""
    common_grid(bank, f, alpha, p, q)
    return mixed_norm(_filtered_levels(f, alpha, bank), p, q)


def F_infty_norm(f: GridFunction, alpha: ExponentField, q, bank: FilterBank) -> float:
    """Endpoint norm: dyadic-cube sup of averaged tails of 2^{v alpha q} |phi_v * f|^q."""
    grid = common_grid(bank, f, alpha, q)
    q = _constant_exponent(q)
    return dyadic_tail_sup(grid, _filtered_levels(f, alpha, bank, q), q)
