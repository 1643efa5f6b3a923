"""Filter banks, duals, transforms, and the decomposition norms."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from vexint import corpus
from vexint.errors import (
    AdmissibilityFailure,
    InvalidConfiguration,
    InvalidInput,
    ResolutionExceeded,
)
from vexint.exponents import build_exponent
from vexint.grid import GridFunction, cube_mask, enumerate_cubes, make_grid
from vexint.kernels import convolve
from vexint.lpf import (
    F_infty_norm,
    F_norm,
    analyze,
    build_admissible_pair,
    build_dual_pair,
    build_resolution_of_unity,
    kernel,
    retract_roundtrip,
    synthesize,
    transform_roundtrip,
    vanishing_moments,
)
from vexint.lpf import _phi0_profile
from vexint.seqspaces import DyadicCoefficients

G = make_grid(1, 4.0, 1024)
V = 4
BANK = build_admissible_pair(G, V)
DUAL = build_dual_pair(BANK)
ROU = build_resolution_of_unity(G, V)

RNG = np.random.default_rng(0x10F)


def const(grid, value, role="integrability"):
    return build_exponent(grid, "constant", value=value, role=role)


def band_limited(grid, V, rng, width=None):
    """Random trig polynomial with spectrum inside |xi| <= 2^V."""
    spec = np.zeros(grid.shape, dtype=np.complex128)
    keep = grid.freq_radius <= (width if width is not None else 2.0 ** V)
    spec[keep] = rng.standard_normal(int(keep.sum())) + 1j * rng.standard_normal(int(keep.sum()))
    return GridFunction(grid, np.fft.ifftn(spec))


# ---------------------------------------------------------------- bank shape


def test_admissible_supports_and_lower_bounds():
    rho = G.freq_radius
    # ball filter: exactly 1 inside 5/3, exactly 0 outside 2
    assert np.all(BANK.multiplier(0)[rho <= 5.0 / 3.0] == 1.0)
    assert np.all(BANK.multiplier(0)[rho >= 2.0] == 0.0)
    for v in range(1, V + 1):
        phi = BANK.multiplier(v)
        inner = (rho >= 2.0 ** v * 0.6) & (rho <= 2.0 ** v * 5.0 / 3.0)
        assert np.all(phi[inner] == 1.0)
        outside = (rho <= 2.0 ** v * 0.5) | (rho >= 2.0 ** v * 2.0)
        assert np.all(phi[outside] == 0.0)


def test_multiplier_values_between_zero_and_one():
    for v in range(V + 1):
        phi = BANK.multiplier(v)
        assert phi.min() >= 0.0 and phi.max() <= 1.0


def test_resolution_guard():
    with pytest.raises(ResolutionExceeded):
        build_admissible_pair(G, G.v_max + 1)
    with pytest.raises(ResolutionExceeded):
        build_resolution_of_unity(G, -1)


def test_level_out_of_range():
    with pytest.raises(InvalidConfiguration):
        BANK.multiplier(V + 1)
    with pytest.raises(InvalidConfiguration):
        BANK.multiplier(-1)


def test_levels_are_one_list():
    # level 0 sits in the same list as the annuli, and the duals follow it
    for bank in (BANK, DUAL, ROU):
        assert len(bank.phis) == V + 1
        assert all(bank.multiplier(v) is bank.phis[v] for v in range(V + 1))
    assert np.array_equal(BANK.phis[0], _phi0_profile(G.freq_radius))
    assert len(DUAL.duals) == V + 1
    assert all(DUAL.dual_multiplier(v) is DUAL.duals[v] for v in range(V + 1))
    assert not BANK.has_duals


# ---------------------------------------------------------- vanishing moments


def test_annulus_moments_vanish():
    # bound scaled the way a spatial moment estimate would be
    l1 = float(np.abs(kernel(BANK, V).values).sum()) * G.h
    for bank in (BANK, ROU):
        moments = vanishing_moments(bank)
        for gamma, val in moments.items():
            assert val <= 1e-8 * l1 * G.L ** gamma, (gamma, val)


def test_moment_stencil_not_vacuous():
    # same stencil applied to the ball profile detects its unit mass
    probe = dataclasses.replace(BANK, profile=_phi0_profile)
    assert vanishing_moments(probe, gammas=(0,))[0] == 1.0


def test_moment_order_guard():
    with pytest.raises(InvalidInput):
        vanishing_moments(BANK, gammas=(3,))


# -------------------------------------------------------------------- duals


def test_dual_identity_residual():
    assert DUAL.ass4_residual is not None
    assert DUAL.ass4_residual <= 1e-10


def test_denominator_floor_on_band():
    assert DUAL.min_D == 1.0


def test_dual_ball_matches_primal_near_zero():
    # D = 1 where only phi0 is active, so psi0 = phi0 there
    low = G.freq_radius <= 0.5
    assert np.allclose(DUAL.dual_multiplier(0)[low], DUAL.multiplier(0)[low], rtol=0, atol=1e-14)


def test_duals_fail_when_levels_removed():
    crippled = dataclasses.replace(
        BANK, phis=[BANK.phis[0]] + [np.zeros(G.shape) for _ in BANK.phis[1:]]
    )
    with pytest.raises(AdmissibilityFailure):
        build_dual_pair(crippled)


# ------------------------------------------------------- resolution of unity


def test_partition_residual():
    assert ROU.rou_residual == 0.0
    total = ROU.phis[0] + sum(ROU.phis[1:])
    band = G.freq_radius <= 2.0 ** V
    assert float(np.abs(total - 1.0)[band].max()) == 0.0


def test_omega_reproduces_levels():
    for v in range(V + 1):
        phi = ROU.multiplier(v)
        prod = ROU.omegas[v] * phi
        assert np.array_equal(prod, phi)


def test_rou_single_level():
    bank = build_resolution_of_unity(G, 0)
    band = G.freq_radius <= 1.0
    assert np.all(bank.multiplier(0)[band] == 1.0)
    assert bank.omegas[0][band].min() == 1.0


# ------------------------------------------------------------------ analyze


def test_analyze_zero_function():
    lam = analyze(GridFunction.zeros(G), DUAL)
    assert len(lam) == 0


def test_analyze_requires_duals():
    with pytest.raises(InvalidConfiguration):
        analyze(GridFunction.zeros(G), BANK)


def test_analyze_pure_frequency_lands_on_matching_levels():
    # e^{i pi x} has |xi| = pi, inside annuli 1 and 2 only
    x = G.coords()[0]
    f = GridFunction(G, np.exp(1j * np.pi * x))
    lam = analyze(f, DUAL)
    peak = max(abs(val) for _key, val in lam.items())
    hot = {v for (v, _m), val in lam.items() if abs(val) > 1e-8 * peak}
    assert hot == {1, 2}


def test_analyze_linearity():
    for _ in range(20):
        f = band_limited(G, V, RNG)
        g = band_limited(G, V, RNG)
        a, b = RNG.standard_normal(2)
        comb = GridFunction(G, a * f.values + b * g.values)
        lam_f = analyze(f, DUAL)
        lam_g = analyze(g, DUAL)
        lam_c = analyze(comb, DUAL)
        keys = set(lam_f.support()) | set(lam_g.support()) | set(lam_c.support())
        for key in keys:
            want = a * lam_f.value(*key) + b * lam_g.value(*key)
            assert abs(lam_c.value(*key) - want) <= 1e-10 * max(1.0, abs(want))


# --------------------------------------------------------------- synthesize


def test_roundtrip_band_limited():
    for _ in range(10):
        f = band_limited(G, V, RNG)
        back = synthesize(analyze(f, DUAL), DUAL)
        sup = float(np.abs(f.values).max())
        assert float(np.abs(back.values - f.values).max()) <= 1e-6 * sup
        assert transform_roundtrip(f, DUAL) == float(np.abs(back.values - f.values).max()) / sup


def test_transform_roundtrip_zero_and_guards():
    # a zero function round-trips exactly, as in retract_roundtrip, instead of dividing by 0
    assert transform_roundtrip(GridFunction.zeros(G), DUAL) == 0.0
    with pytest.raises(InvalidConfiguration):
        transform_roundtrip(GridFunction.zeros(G), BANK)
    with pytest.raises(InvalidInput):
        transform_roundtrip(GridFunction.zeros(make_grid(1, 4.0, 512)), DUAL)


def test_synthesize_single_coefficient_is_shifted_kernel():
    for v in (0, 2, V):
        m = 3 % G.cubes_per_axis(v)
        lam = DyadicCoefficients(G, V, {(v, (m,)): 1.0 + 0.5j})
        out = synthesize(lam, DUAL)
        cells = G.cells_per_axis(v)
        k = np.fft.ifftn(DUAL.dual_multiplier(v).astype(np.complex128)) / G.h
        want = (1.0 + 0.5j) * 2.0 ** (-v / 2.0) * np.roll(k, m * cells)
        assert np.allclose(out.values, want, rtol=0, atol=1e-12)


def test_synthesize_zero_and_guards():
    out = synthesize(DyadicCoefficients(G, V, {}), DUAL)
    assert np.all(out.values == 0.0)
    with pytest.raises(InvalidConfiguration):
        synthesize(DyadicCoefficients(G, V, {}), BANK)
    small = build_dual_pair(build_admissible_pair(G, V - 1))
    with pytest.raises(InvalidConfiguration):
        synthesize(DyadicCoefficients(G, V, {(V, (0,)): 1.0}), small)


def test_analyze_synthesize_on_mismatched_grid():
    other = make_grid(1, 4.0, 512)
    with pytest.raises(InvalidInput):
        analyze(GridFunction.zeros(other), DUAL)
    with pytest.raises(InvalidInput):
        synthesize(DyadicCoefficients(other, 2, {}), DUAL)


# ------------------------------------------------------------------ retract


def test_retract_band_limited():
    for _ in range(10):
        f = band_limited(G, V, RNG)
        rep = retract_roundtrip(f, ROU)
        assert rep.band_limited
        assert rep.residual <= 1e-6


def test_retract_flags_out_of_band():
    x = G.coords()[0]
    f = GridFunction(G, np.exp(1j * 3.0 * 2.0 ** V * x))
    rep = retract_roundtrip(f, ROU)
    assert not rep.band_limited
    assert rep.residual > 1e-6


def test_retract_zero_and_kind_guard():
    rep = retract_roundtrip(GridFunction.zeros(G), ROU)
    assert rep.residual == 0.0 and rep.band_limited
    with pytest.raises(InvalidConfiguration):
        retract_roundtrip(GridFunction.zeros(G), DUAL)


# ------------------------------------------------------------------- kernel


def test_kernel_realizes_multiplier_convolution():
    f = band_limited(G, V, RNG)
    for v in (0, 2):
        direct = np.fft.ifftn(BANK.multiplier(v) * np.fft.fftn(f.values))
        via_kernel = convolve(kernel(BANK, v), f)
        assert np.allclose(via_kernel.values, direct, rtol=0, atol=1e-10)


# -------------------------------------------------------------------- norms


def test_F_norm_zero():
    alpha = const(G, 0.3, role="smoothness")
    p = const(G, 2.0)
    res = F_norm(GridFunction.zeros(G), alpha, p, p, BANK)
    assert res.value == 0.0


def test_F_norm_frame_bracket_l2():
    # alpha = 0, p = q = 2: squared norm is sum_v |phi_v Ff|^2 summed over
    # the lattice, so the ratio to ||f||_2 lies in [sqrt(min D), sqrt(max D)]
    alpha = const(G, 0.0, role="smoothness")
    p = const(G, 2.0)
    for _ in range(5):
        f = band_limited(G, V, RNG)
        l2 = math.sqrt(float(G.integrate(np.abs(f.values) ** 2)))
        val = F_norm(f, alpha, p, p, BANK).value
        assert 1.0 - 1e-9 <= val / l2 <= math.sqrt(2.0) + 1e-9


def test_F_norm_homogeneity():
    alpha = const(G, 0.4, role="smoothness")
    p = const(G, 2.5)
    q = const(G, 1.5)
    f = band_limited(G, V, RNG)
    base = F_norm(f, alpha, p, q, BANK).value
    scaled = F_norm(GridFunction(G, 3.5 * f.values), alpha, p, q, BANK).value
    assert abs(scaled - 3.5 * base) <= 1e-9 * scaled


def test_F_norm_weight_overflow_raises_invalid_input():
    # 2^(V alpha) leaves the float range at alpha = 1000; it used to escape
    # as numpy's overflow RuntimeWarning
    alpha = const(G, 1000.0, role="smoothness")
    p = const(G, 2.0)
    f = band_limited(G, V, RNG)
    with pytest.raises(InvalidInput, match="exceeds the float range"):
        F_norm(f, alpha, p, p, BANK)


def test_F_infty_single_level_matches_cube_scan():
    # zero out every level but w so the tail sums collapse to one term
    w = 2
    alpha = const(G, 0.25, role="smoothness")
    q = 1.7
    f = band_limited(G, V, RNG)
    phis = [p if v == w else np.zeros(G.shape) for v, p in enumerate(BANK.phis)]
    solo = dataclasses.replace(BANK, phis=phis)
    got = F_infty_norm(f, alpha, q, solo)

    conv = np.fft.ifftn(BANK.multiplier(w) * np.fft.fftn(f.values))
    integrand = np.exp2(w * q * alpha.values) * np.abs(conv) ** q
    best = 0.0
    for lvl in range(w + 1):  # cubes of side <= 1 whose tail reaches level w
        for cube in enumerate_cubes(G, lvl):
            mass = float(integrand[cube_mask(G, cube)].sum()) * G.h
            best = max(best, (mass / cube.measure()) ** (1.0 / q))
    assert abs(got - best) <= 1e-12 * best


def test_F_infty_homogeneity():
    alpha = const(G, -0.2, role="smoothness")
    f = band_limited(G, V, RNG)
    base = F_infty_norm(f, alpha, 2.0, BANK)
    doubled = F_infty_norm(GridFunction(G, 2.0 * f.values), alpha, 2.0, BANK)
    assert abs(doubled - 2.0 * base) <= 1e-9 * doubled


@pytest.mark.parametrize("q", [205.0, 400.0])
def test_F_infty_overflow_raises_invalid_input(q):
    # at q=400 |phi_v * f|^q leaves the float range, at q=205 only the tail
    # sums do; both used to come back as inf
    grid = make_grid(1, 4.0, 256)
    bank = build_admissible_pair(grid, 3)
    modes = corpus.random_modes(1, grid.L, 8.0, 6, np.random.default_rng(11))
    f = GridFunction(grid, 10.0 * corpus.trig_polynomial(grid, modes).values)
    alpha = const(grid, 0.2, role="smoothness")
    assert math.isfinite(F_infty_norm(f, alpha, 2.0, bank))
    with pytest.raises(InvalidInput, match="exceeds the float range"):
        F_infty_norm(f, alpha, q, bank)


def test_coefficient_norm_brackets_function_norm():
    # discretization ratio must be stable under grid refinement
    alpha = const(G, 0.3, role="smoothness")
    p = const(G, 2.0)
    q = const(G, 2.0)
    fine = make_grid(1, 4.0, 2048)
    banks = {
        G.N: (G, DUAL),
        fine.N: (fine, build_dual_pair(build_admissible_pair(fine, V))),
    }
    keep = np.abs(np.fft.fftfreq(G.N, d=G.h / (2 * np.pi))) <= 2.0 ** V
    idx = np.flatnonzero(keep)
    coeffs = RNG.standard_normal(idx.size) + 1j * RNG.standard_normal(idx.size)
    ratios = {}
    for N, (grid, bank) in banks.items():
        spec = np.zeros(grid.shape, dtype=np.complex128)
        spec[idx] = coeffs  # same spectral indices: xi_k = pi k / L on both
        f = GridFunction(grid, np.fft.ifftn(spec) * N)
        a = build_exponent(grid, "constant", value=0.3, role="smoothness")
        pp = build_exponent(grid, "constant", value=2.0)
        num = F_norm(f, a, pp, pp, bank).value
        from vexint.seqspaces import f_norm

        den = f_norm(analyze(f, bank), a, pp, pp).value
        ratios[N] = den / num
    lo, hi = sorted(ratios.values())
    assert hi <= 2.0 * lo
    assert 0.05 <= lo and hi <= 20.0


# ----------------------------------------------------------------- 2d smoke


def test_two_dimensional_roundtrip_and_norms():
    g2 = make_grid(2, 2.0, 64)
    bank = build_dual_pair(build_admissible_pair(g2, 2))
    rng = np.random.default_rng(7)
    spec = np.zeros(g2.shape, dtype=np.complex128)
    keep = g2.freq_radius <= 4.0
    spec[keep] = rng.standard_normal(int(keep.sum()))
    f = GridFunction(g2, np.fft.ifftn(spec))
    back = synthesize(analyze(f, bank), bank)
    sup = float(np.abs(f.values).max())
    assert float(np.abs(back.values - f.values).max()) <= 1e-6 * sup

    alpha = build_exponent(g2, "constant", value=0.1, role="smoothness")
    p = build_exponent(g2, "constant", value=2.0)
    assert F_norm(f, alpha, p, p, bank).value > 0.0
    rou = build_resolution_of_unity(g2, 2)
    assert retract_roundtrip(f, rou).residual <= 1e-6


def test_synthesize_beyond_float_range_is_typed():
    # the impulse scaling 2^(-v n/2) / h^n takes 1e308 past the float range;
    # it used to escape as numpy's overflow RuntimeWarning
    lam = DyadicCoefficients(G, 3, {(2, (1,)): 1e308, (3, (5,)): -1e308})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvalidInput, match="exceeds the float range"):
            synthesize(lam, DUAL)
