"""Kernel masses, convolution oracle, and the three estimate verifiers."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from vexint.errors import InvalidInput, PreconditionViolation, PreconditionWarning, SolverFailure
from vexint.exponents import build_exponent, log_holder_constants
from vexint.grid import GridFunction, cube_mask, make_grid
from vexint.kernels import (
    _closed_mass,
    convolve,
    eta,
    verify_alpha_shift,
    verify_eta_maximal,
    verify_jensen_gamma,
)
from vexint.lebesgue import luxemburg_norm

G = make_grid(1, 4, 256)


def antiderivative_mass(n, L, v, m):
    """Oracle: closed-form box mass from the radial antiderivative (n=1)."""
    assert n == 1
    a = 2.0 ** v * L
    if m == 1.0:
        return 2.0 * math.log1p(a)
    return 2.0 * (1.0 - (1.0 + a) ** (1.0 - m)) / (m - 1.0)


def direct_convolution(grid, f, k):
    """Oracle: O(N^2) (or O(N^4)) periodic summation."""
    N = grid.N
    out = np.zeros(grid.shape, dtype=np.result_type(f, k, float))
    if grid.n == 1:
        idx = np.arange(N)
        for i in range(N):
            out[i] = grid.h * np.sum(f * k[(i - idx) % N])
        return out
    for i0 in range(N):
        for i1 in range(N):
            acc = 0.0
            for j0 in range(N):
                acc += np.sum(f[j0, :] * k[(i0 - j0) % N, (i1 - np.arange(N)) % N])
            out[i0, i1] = grid.h ** 2 * acc
    return out


def test_mass_matches_antiderivative_oracle():
    for m in (1.5, 2.0, 3.0):
        for v in range(5):
            k = eta(v, m, G)
            assert k.mass == pytest.approx(antiderivative_mass(1, G.L, v, m), rel=1e-10)


def test_mass_large_box_and_v_independence():
    g = make_grid(1, 2048, 16384)
    masses = [eta(v, 2.0, g).mass for v in range(7)]
    assert masses[0] == pytest.approx(2.0 * (1.0 - 1.0 / (1.0 + g.L)), rel=1e-10)
    # all levels sit within 1e-3 of each other once 2^v L >= 1e3
    assert max(masses) - min(masses) <= 1e-3
    assert all(b - a > 0 for a, b in zip(masses, masses[1:]))  # monotone in v


def test_criterion_7_masses_are_pinned():
    # the seven masses A07 reads, as literals, so that they do not follow the
    # installed scipy: test_quadpack ties the port to quad, these pins hold alone
    g = make_grid(1, 2048.0, 16384)
    assert [eta(v, 2.0, g).mass for v in range(7)] == [
        1.9990239141044415, 1.9995118379301933, 1.9997558891736853, 1.9998779371376263,
        1.9999389667063385, 1.9999694828875294, 1.9999847413273522,
    ]


def test_mass_respects_tail_bound():
    for n, grid in [(1, G), (2, make_grid(2, 2, 64))]:
        for m in (n + 1.0, n + 2.0):
            for v in range(3):
                k = eta(v, m, grid)
                assert k.integrable
                assert abs(k.mass - k.c_limit) <= k.tail_bound * (1 + 1e-9)
                k0 = eta(0, m, grid)
                assert abs(k.mass - k0.mass) <= k.tail_bound + k0.tail_bound


def test_mass_exact_tail_for_quadratic_decay():
    # n=1, m=2: c_m - mass(v) equals the tail bound exactly
    for v in range(4):
        k = eta(v, 2.0, G)
        assert k.c_limit - k.mass == pytest.approx(k.tail_bound, rel=1e-9)


def test_non_integrable_tail_is_flagged():
    masses = []
    for L, N in [(4, 64), (16, 256), (64, 1024)]:
        k = eta(0, 0.5, make_grid(1, L, N))
        assert not k.integrable
        assert k.c_limit is None and k.tail_bound is None
        masses.append(k.mass)
    assert masses[0] < masses[1] < masses[2]  # grows with the box


def test_mass_2d_against_cartesian_quadrature():
    from scipy.integrate import dblquad

    g2 = make_grid(2, 2, 64)
    v, m = 1, 4.0
    k = eta(v, m, g2)
    s = 2.0 ** v
    oracle, err = dblquad(
        lambda y, x: s ** 2 * (1.0 + s * math.hypot(x, y)) ** (-m),
        -g2.L, g2.L, lambda _: -g2.L, lambda _: g2.L,
        epsabs=1e-10, epsrel=1e-10,
    )
    assert k.mass == pytest.approx(oracle, abs=5e-9)


def test_kernel_samples_positive_and_radially_monotone():
    k = eta(2, 2.0, G)
    assert np.all(k.values > 0)
    r = G.periodic_radius()
    order = np.argsort(r)
    assert np.all(np.diff(k.values[order]) <= 1e-15)


def test_eta_rejects_bad_parameters():
    with pytest.raises(InvalidInput):
        eta(-1, 2.0, G)
    with pytest.raises(InvalidInput):
        eta(0, 0.0, G)


@pytest.mark.parametrize("m", [math.inf, -math.inf, math.nan])
def test_non_finite_decay_is_a_typed_error(m):
    # an infinite decay passes a bare m > 0 check, and then eta gives mass
    # 0.0 and c_limit 0.0 and both verifiers return a report
    p = build_exponent(G, "constant", value=2.0)
    with pytest.raises(InvalidInput, match="decay exponent"):
        eta(0, m, G)
    with pytest.raises(InvalidInput, match="decay exponent"):
        verify_eta_maximal(p, p, m, [[np.ones(G.shape)]])
    with pytest.raises(InvalidInput, match="decay exponent"):
        verify_jensen_gamma(p, m, normalized(np.ones(G.shape), p), [0])


@pytest.mark.parametrize("n, L, N, edge", [(1, 4.0, 256, 1016), (1, 0.5, 16, 1020),
                                           (2, 4.0, 64, 506), (2, 2.0, 256, 504)])
@pytest.mark.parametrize("m", [1e-3, 0.5, 3.0])
def test_eta_near_the_float_range_is_finite_or_typed(n, L, N, edge, m):
    # below `edge` the peak 2^(vn), the grid sum and the scaled radii are
    # floats; from it on the level is refused before any work (the parent
    # raised a bare OverflowError at 2.0 ** 1024)
    grid = make_grid(n, L, N)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", PreconditionWarning)
        for v in [edge - 2, edge - 1]:
            if m > n:
                # an integrable kernel this narrow escapes QUADPACK, which
                # returns 0.0 where the closed form is c_limit
                with pytest.raises(SolverFailure, match="closed form"):
                    eta(v, m, grid)
                continue
            k = eta(v, m, grid)
            assert all(math.isfinite(x) for x in (k.mass, k.grid_mass, k.values.max()))
        for v in [edge, edge + 1, 1023, 1024, 2000, 10 ** 400]:
            with pytest.raises(InvalidInput, match=f"level {v}"):
                eta(v, m, grid)


def test_convolution_identity_with_unit_mass_cell():
    f = GridFunction(G, np.sin(2 * np.pi * G.axis / 8.0) + 2.0)
    delta = np.zeros(G.shape)
    delta[0] = 1.0 / G.h
    out = convolve(f, delta)
    assert np.max(np.abs(out.values - f.values)) < 1e-13


def test_convolution_against_direct_summation():
    rng = np.random.default_rng(19)
    f = rng.normal(size=G.shape)
    k = rng.normal(size=G.shape)
    direct = direct_convolution(G, f, k)
    spectral = convolve(GridFunction(G, f), k).values
    assert np.max(np.abs(direct - spectral)) < 1e-10


def test_convolution_against_direct_summation_2d():
    g2 = make_grid(2, 2, 16)
    rng = np.random.default_rng(19)
    f = rng.normal(size=g2.shape)
    k = rng.normal(size=g2.shape)
    direct = direct_convolution(g2, f, k)
    spectral = convolve(GridFunction(g2, f), k).values
    assert np.max(np.abs(direct - spectral)) < 1e-10


def test_convolution_square_wave_gives_triangle():
    g = make_grid(1, 4, 256)
    chi = cube_mask(g, g.cube(0, (0,))).astype(float)
    out = convolve(GridFunction(g, chi), chi).values
    direct = direct_convolution(g, chi, chi)
    assert np.max(np.abs(out - direct)) < 1e-12
    # unimodal hat supported on [0, 2), peak near x = 1
    peak = np.argmax(out)
    assert g.axis[peak] == pytest.approx(1.0, abs=2 * g.h)
    assert out[peak] == pytest.approx(1.0, abs=2 * g.h)
    support = g.axis[out > 1e-12]
    assert support.max() < 2.0


def test_convolution_bilinearity():
    rng = np.random.default_rng(23)
    f, g2, k = (rng.normal(size=G.shape) for _ in range(3))
    a, b = 2.5, -1.25
    lhs = convolve(GridFunction(G, a * f + b * g2), k).values
    rhs = a * convolve(GridFunction(G, f), k).values + b * convolve(GridFunction(G, g2), k).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_convolution_rejects_grid_mismatch():
    other = make_grid(1, 4, 512)
    with pytest.raises(InvalidInput):
        convolve(GridFunction(G, np.zeros(G.shape)), GridFunction(other, np.zeros(other.shape)))


# -- smoothness shift -------------------------------------------------------


def test_alpha_shift_constant_exponent_is_exactly_one():
    for value in (0.0, 0.7, -1.3):
        a = build_exponent(G, "constant", value=value, role="smoothness")
        rep = verify_alpha_shift(a, 2.0, 1.5, [0, 1, 2, 3])
        assert rep.c == 1.0
        assert all(r == 1.0 for r in rep.per_level.values())


def test_alpha_shift_sine_finite_and_budget_stable():
    a = build_exponent(G, "sine", base=0.0, amplitude=1.0, frequency=1.0, role="smoothness")
    R = log_holder_constants(a).c_loc
    full = verify_alpha_shift(a, 2.0, R, list(range(6)))
    assert math.isfinite(full.c) and full.exhaustive
    # sampled runs can only undershoot the exhaustive maximum, and doubling
    # the budget moves the answer by less than 5%
    small = verify_alpha_shift(a, 2.0, R, list(range(6)), samples=64)
    double = verify_alpha_shift(a, 2.0, R, list(range(6)), samples=128)
    assert not small.exhaustive
    assert small.c <= full.c + 1e-12 and double.c <= full.c + 1e-12
    assert abs(small.c - double.c) <= 0.05 * double.c


def test_alpha_shift_zero_r_diverges_and_warns():
    a = build_exponent(G, "sine", base=0.0, amplitude=1.0, frequency=1.0, role="smoothness")
    R = log_holder_constants(a).c_loc
    ref = verify_alpha_shift(a, 2.0, R, list(range(7)))
    with pytest.warns(PreconditionWarning):
        bad = verify_alpha_shift(a, 2.0, 0.0, list(range(7)))
    assert bad.flagged and not ref.flagged
    assert bad.per_level[6] >= 2.0 * ref.per_level[6]
    # ratio grows with the level when the decay reserve is absent
    seq = [bad.per_level[v] for v in range(7)]
    assert all(b > a_ for a_, b in zip(seq, seq[1:]))


def test_alpha_shift_input_validation():
    a = build_exponent(G, "constant", value=0.0, role="smoothness")
    with pytest.raises(InvalidInput):
        verify_alpha_shift(a, 0.0, 1.0, [0])
    with pytest.raises(InvalidInput):
        verify_alpha_shift(a, 2.0, -0.5, [0])
    with pytest.raises(InvalidInput):
        verify_alpha_shift(a, 2.0, 1.0, [])


@pytest.mark.parametrize("v, R", [(1100, 0.0), (600, 0.0), (600, 2.0), (1023, 2.0)])
def test_alpha_shift_level_beyond_float_range_is_a_typed_error(v, R):
    # 2.0 ** 1100 overflows a Python float; at v = 600 the ratio itself
    # overflows (inf at R = 0, inf * 0 = nan at R = 2)
    a = build_exponent(G, "sine", base=0.0, amplitude=1.0, frequency=1.0, role="smoothness")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PreconditionWarning)
        with pytest.raises(InvalidInput, match=f"level {v}"):
            verify_alpha_shift(a, 2.0, R, [3, v])


def test_alpha_shift_large_finite_level_keeps_its_value():
    a = build_exponent(G, "sine", base=0.0, amplitude=1.0, frequency=1.0, role="smoothness")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PreconditionWarning)
        assert verify_alpha_shift(a, 2.0, 0.0, [3, 500]).per_level == \
            {3: 64.0, 500: 1.0715086071862673e+301}
        assert verify_alpha_shift(a, 2.0, 2.0, [3, 500]).per_level == {3: 1.0, 500: 1.0}


@pytest.mark.parametrize("N, table", [(16, 130), (32, 514)])
def test_alpha_shift_budget_of_the_whole_table_is_exhaustive(N, table):
    # the 2-D half-plane table holds N^2/2 + 2 offsets up to k -> -k: a
    # budget that large scans it whole, one offset fewer draws samples
    a = build_exponent(make_grid(2, 1, N), "sine", base=0.0, amplitude=1.0, frequency=2.0,
                       role="smoothness")
    R, v_list = 2.0 * log_holder_constants(a).c_loc, list(range(5))
    whole = verify_alpha_shift(a, 2.0, R, v_list, samples=table)
    assert whole.exhaustive and whole.offsets_evaluated == table
    assert whole == verify_alpha_shift(a, 2.0, R, v_list, samples=2 ** 30)
    assert not verify_alpha_shift(a, 2.0, R, v_list, samples=table - 1).exhaustive


# -- convolution boundedness ------------------------------------------------


def test_eta_maximal_constant_exponents_respect_young_bound():
    p = build_exponent(G, "constant", value=2.0)
    rng = np.random.default_rng(7)
    fams = [[rng.normal(size=G.shape) for _ in range(3)] for _ in range(20)]
    rep = verify_eta_maximal(p, p, 2.0, fams)
    assert len(rep.ratios) == 20
    assert rep.ratio_max <= rep.young_constant * (1 + 1e-12)


def test_eta_maximal_indicator_families_stay_under_limit_mass():
    p = build_exponent(G, "constant", value=2.0)
    fams = []
    for v in range(4):
        fam = [np.zeros(G.shape) for _ in range(v + 1)]
        fam[v] = cube_mask(G, G.cube(v, (3,))).astype(float)
        fams.append(fam)
    rep = verify_eta_maximal(p, p, 2.0, fams)
    assert rep.ratio_max <= 2.0 + 1e-6  # c_m = 2/(m-1) = 2 for m = 2


def test_eta_maximal_variable_exponents_refinement_stable():
    rng = np.random.default_rng(13)
    fams = [[rng.normal(size=G.shape) for _ in range(3)] for _ in range(50)]
    p = build_exponent(G, "sine", base=2.0, amplitude=0.5, frequency=1.0)
    q = build_exponent(G, "plateau", left=2.0, right=3.0, width=1.0)
    rep = verify_eta_maximal(p, q, 2.0, fams)
    assert math.isfinite(rep.ratio_max)

    g2 = make_grid(1, 4, 512)
    fams2 = [[np.repeat(f, 2) for f in fam] for fam in fams]
    p2 = build_exponent(g2, "sine", base=2.0, amplitude=0.5, frequency=1.0)
    q2 = build_exponent(g2, "plateau", left=2.0, right=3.0, width=1.0)
    rep2 = verify_eta_maximal(p2, q2, 2.0, fams2)
    assert rep2.ratio_max <= 2.0 * rep.ratio_max
    assert rep.ratio_max <= 2.0 * rep2.ratio_max


def test_eta_maximal_rejects_hypothesis_violations():
    p1 = build_exponent(G, "constant", value=1.0)
    p2 = build_exponent(G, "constant", value=2.0)
    fam = [[np.ones(G.shape)]]
    with pytest.raises(PreconditionViolation):
        verify_eta_maximal(p1, p2, 2.0, fam)
    with pytest.raises(PreconditionViolation):
        verify_eta_maximal(p2, p1, 2.0, fam)
    with pytest.raises(PreconditionViolation):
        verify_eta_maximal(p2, p2, 1.0, fam)  # m must exceed n


# -- damped cube-average estimate -------------------------------------------


def normalized(f, p, slack=0.999):
    nrm = luxemburg_norm(f, p).value + float(np.max(np.abs(f)))
    return f / nrm * slack


def test_jensen_constant_exponent_is_plain_convexity():
    p = build_exponent(G, "constant", value=2.0)
    f = normalized(np.abs(np.sin(2 * np.pi * G.axis / 8.0)), p)
    rep = verify_jensen_gamma(p, 2.0, f, [0, 1, 2, 3])
    assert rep.gamma == 1.0
    assert rep.margin_min >= -1e-12


def test_jensen_normalized_indicator_with_plateau_exponent():
    p = build_exponent(G, "plateau", left=2.0, right=3.0, width=1.0)
    f = normalized(cube_mask(G, G.cube(0, (0,))).astype(float), p)
    rep = verify_jensen_gamma(p, 2.0, f, [0, 1, 2, 3])
    assert rep.gamma < 1.0
    assert rep.margin_min >= 0.0
    assert set(rep.per_level) == {0, 1, 2, 3}


def test_jensen_random_corpus_nonnegative_margins():
    rng = np.random.default_rng(31)
    for recipe, params in [
        ("sine", dict(base=2.0, amplitude=1.0, frequency=1.0)),
        ("plateau", dict(left=2.0, right=3.0, width=1.0)),
        ("constant", dict(value=3.0)),
    ]:
        p = build_exponent(G, recipe, **params)
        for _ in range(5):
            f = normalized(np.abs(rng.normal(size=G.shape)), p)
            rep = verify_jensen_gamma(p, 2.0, f, [0, 1, 2, 3])
            assert rep.margin_min >= -1e-12


def test_jensen_oversized_gamma_fails_somewhere():
    # with the damping removed the variable-exponent estimate must break
    p = build_exponent(G, "sine", base=2.0, amplitude=1.0, frequency=1.0)
    f = normalized(np.ones(G.shape), p, slack=0.9999)
    rep = verify_jensen_gamma(p, 2.0, f, [0, 1, 2, 3], gamma_override=1.0)
    assert rep.margin_min < 0.0
    v, m = rep.worst
    assert 0 <= v <= 3 and 0 <= m[0] < G.cubes_per_axis(v)


def test_jensen_rejects_unnormalized_input():
    p = build_exponent(G, "constant", value=2.0)
    with pytest.raises(InvalidInput):
        verify_jensen_gamma(p, 2.0, np.full(G.shape, 3.0), [0])


def test_jensen_deterministic():
    p = build_exponent(G, "plateau", left=2.0, right=3.0, width=1.0)
    f = normalized(cube_mask(G, G.cube(1, (5,))).astype(float), p)
    a = verify_jensen_gamma(p, 2.0, f, [0, 1, 2])
    b = verify_jensen_gamma(p, 2.0, f, [0, 1, 2])
    assert a.margin_min == b.margin_min and a.gamma == b.gamma


@pytest.mark.parametrize("n, L, v, m", [(1, 4.0, 2, 1e4), (1, 4.0, 3, 1e3), (2, 2.0, 2, 1e4)])
def test_box_mass_that_misses_its_closed_form_is_a_solver_failure(n, L, v, m):
    # QUADPACK ends with ier = 0 at masses 1.5e-76, 2.8e-16 and 3.5e-41 (the
    # 2D inner disc), where the closed forms are 2.0002e-4, 2.002e-3 and 6.29e-8
    with pytest.raises(SolverFailure, match=f"v={v}, decay m={m}.*closed form"):
        eta(v, m, make_grid(n, L, 256))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.5, 2.0 - 1e-9, 2.0,
                               2.0 + 1e-9, 3.0, 60.0])
@pytest.mark.parametrize("a", [0.5, 8.0, 1e3])
def test_closed_mass_matches_quadrature_in_log_radius(n, m, a):
    # in t = log1p(u) the integrands are smooth exponentials, which scipy
    # integrates to full accuracy, also next to m = 1 and m = 2
    if n == 1:
        want = 2.0 * quad(lambda t: math.exp((1.0 - m) * t), 0.0, math.log1p(a),
                          epsabs=0.0, epsrel=1e-13)[0]
    else:
        want = 2.0 * math.pi * quad(lambda t: math.exp((2.0 - m) * t) - math.exp((1.0 - m) * t),
                                    0.0, math.log1p(a), epsabs=0.0, epsrel=1e-13)[0]
    assert _closed_mass(n, a, m) == pytest.approx(want, rel=1e-11)


def test_convolve_spectrum_beyond_float_range_is_typed():
    # the spectral product of two 1e300-sized spectra overflows; it used to
    # escape as numpy's overflow RuntimeWarning
    f = GridFunction(G, 1e300 * np.cos(G.axis))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvalidInput, match="exceeds the float range"):
            convolve(f, f)


def test_jensen_refuses_an_empty_level_list():
    # margin_min used to come back as inf
    p = build_exponent(G, "constant", value=2.0)
    f = normalized(np.ones(G.shape), p)
    with pytest.raises(InvalidInput, match="non-empty list of levels"):
        verify_jensen_gamma(p, 2.0, f, [])


@pytest.mark.parametrize("gamma", [math.nan, math.inf, 0.0, -1.0, 1.5])
def test_jensen_refuses_a_gamma_override_outside_the_unit_interval(gamma):
    # nan used to give margin_min inf, and inf gave -inf
    p = build_exponent(G, "constant", value=2.0)
    f = normalized(np.ones(G.shape), p)
    with pytest.raises(InvalidInput, match=r"gamma_override must lie in \(0, 1\]"):
        verify_jensen_gamma(p, 2.0, f, [0, 1], gamma_override=gamma)
