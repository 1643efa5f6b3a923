"""Product-bracket machinery: factorizations, level sets, Hoelder direction."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from vexint.calderon import (
    NO_CLASS,
    _subset_from_level_sets,
    build_level_sets,
    calderon_upper,
    case_classifier,
    equivalence_experiment,
    factorization_params_pp,
    factorization_params_pq_infty,
    factorize,
    factorize_pp,
    factorize_pq_infty,
    lattice_property_check,
    verify_holder_direction,
)
from vexint.errors import (
    InvalidConfiguration,
    InvalidInput,
    PreconditionViolation,
)
from vexint.exponents import build_exponent
from vexint.grid import cube_mask, make_grid
from vexint.seqspaces import DyadicCoefficients, f_infty_norm, f_infty_subset_norm, f_norm, \
    full_selection

G = make_grid(1, 4.0, 256)
V = 3
RNG = np.random.default_rng(0xCA1)


def const(grid, value, role="integrability"):
    return build_exponent(grid, "constant", value=value, role=role)


def random_coeffs(grid, V, count, rng):
    data = {}
    for _ in range(count):
        v = int(rng.integers(0, V + 1))
        m = tuple(int(rng.integers(0, grid.cubes_per_axis(v))) for _ in range(grid.n))
        mag = 10.0 ** rng.uniform(-3, 3)
        phase = rng.uniform(0, 2 * np.pi)
        data[(v, m)] = mag * np.exp(1j * phase)
    return DyadicCoefficients(grid, V, data)


def pp_params_const(theta=0.4):
    return factorization_params_pp(
        theta,
        const(G, 0.3, "smoothness"), const(G, -0.2, "smoothness"),
        const(G, 2.0), const(G, 4.0),
    )


def pp_params_variable(theta=0.4):
    return factorization_params_pp(
        theta,
        build_exponent(G, "sine", role="smoothness", base=0.3, amplitude=0.2, frequency=1),
        const(G, -0.1, "smoothness"),
        build_exponent(G, "sine", base=2.2, amplitude=0.4, frequency=1),
        build_exponent(G, "plateau", left=3.0, right=2.0, width=0.5),
    )


def pq_params(theta=0.5, q0=2.0, q1=2.0, p0val=3.0, a0=0.0, a1=0.0):
    return factorization_params_pq_infty(
        theta,
        const(G, a0, "smoothness"), const(G, a1, "smoothness"),
        const(G, p0val), q0, q1,
    )


# -------------------------------------------------------------------- params


def test_pp_exponent_identities():
    for params in (pp_params_const(), pp_params_variable(0.7)):
        t = params.theta
        assert params.identity_residual <= 1e-12
        assert float(np.abs((1 - t) * params.u + t * params.v).max()) <= 1e-12
        ratio = (1 - t) * params.p.values / params.p0.values \
            + t * params.p.values / params.p1.values
        assert float(np.abs(ratio - 1.0).max()) <= 1e-12
        assert params.gamma == 0.0 and params.delta == 0.0


def test_pq_infty_identities_hand_case():
    # theta = 1/3, q0 = 2, q1 = 4: q = 12/5, delta = -3/5, gamma = 3/10
    params = factorization_params_pq_infty(
        1.0 / 3.0, const(G, 0.0, "smoothness"), const(G, 0.0, "smoothness"),
        const(G, 3.0), 2.0, 4.0,
    )
    assert abs(params.gamma - 0.3) <= 1e-15
    assert abs(params.delta + 0.6) <= 1e-15
    t = params.theta
    assert abs((1 - t) + (params.delta / params.gamma) * t) <= 1e-15
    q = float(params.q.values[0])
    assert abs((1 - t) * q / 2.0 + t * q / 4.0 - 1.0) <= 1e-15
    # 1/p = (1-theta)/p0
    assert float(np.abs(1.0 / params.p.values - (1 - t) / params.p0.values).max()) <= 1e-15


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


@pytest.mark.parametrize("theta, q0, q1", [(0.3, 2.0, 3.0), (0.5, 2.0, 4.0), (0.6, 2.0, 2.0),
                                           (1.0 / 3.0, 1.5, 7.0)])
def test_pq_infty_endpoint_q_are_fields_with_the_scalar_bits(theta, q0, q1):
    # q0 and q1 are constant fields; every derived value has the bits of the
    # scalar rules q = 1 / ((1-theta)/q0 + theta/q1), u, v, gamma and delta
    a0 = build_exponent(G, "sine", role="smoothness", base=0.3, amplitude=0.2, frequency=1)
    a1 = const(G, -0.1, "smoothness")
    p0 = build_exponent(G, "sine", base=2.2, amplitude=0.4, frequency=1)
    params = factorization_params_pq_infty(theta, a0, a1, p0, q0, q1)
    for field, value in ((params.q0, q0), (params.q1, q1)):
        assert field.role == "integrability" and field.is_constant
        assert field.lo == field.hi == field.g_inf == field.min == value
    q = 1.0 / ((1.0 - theta) / q0 + theta / q1)
    assert _bits(params.q.values) == _bits(np.full(G.shape, q))
    assert params.q.lo == params.q.hi == params.q.g_inf == q
    diff = a1.values / q0 - a0.values / q1
    u = q * theta * diff + 0.5 * (q / q0 - 1.0)
    v = q * (theta - 1.0) * diff + 0.5 * (q / q1 - 1.0)
    assert _bits(params.u) == _bits(u) and _bits(params.v) == _bits(v)
    gamma_field = params.p.values / p0.values - q / q0
    gamma = float(gamma_field.ravel()[0])
    assert params.gamma == gamma and params.delta == -q / q1
    assert params.identity_residual == max(
        float(np.abs((1.0 - theta) * u + theta * v).max()),
        float(np.abs(gamma_field - gamma).max()),
        abs((1.0 - theta) + (-q / q1 / gamma) * theta),
        abs((1.0 - theta) * q / q0 + theta * q / q1 - 1.0),
    )


def test_pp_endpoint_q_are_the_endpoint_p():
    params = pp_params_variable(0.7)
    assert params.q0 is params.p0 and params.q1 is params.p1 and params.q is params.p


def test_params_validation():
    a = const(G, 0.0, "smoothness")
    with pytest.raises(InvalidInput):
        factorization_params_pp(0.0, a, a, const(G, 2.0), const(G, 3.0))
    with pytest.raises(InvalidInput):
        factorization_params_pq_infty(0.5, a, a, const(G, 2.0), 0.5, 2.0)
    other = make_grid(1, 4.0, 512)
    with pytest.raises(InvalidInput, match="different grids"):
        factorization_params_pp(
            0.5, a, build_exponent(other, "constant", value=0.0, role="smoothness"),
            const(G, 2.0), const(G, 3.0),
        )


# ------------------------------------------------------------- factorize_pp


def test_pp_degenerate_endpoints():
    params = factorization_params_pp(
        0.3, const(G, 0.2, "smoothness"), const(G, 0.2, "smoothness"),
        const(G, 3.0), const(G, 3.0),
    )
    lam = random_coeffs(G, V, 40, RNG)
    res = factorize_pp(lam, params)
    for key, val in lam.items():
        want = abs(val) / res.lam_norm
        assert abs(res.lam0.value(*key) - want) <= 1e-12 * want
        assert abs(res.lam1.value(*key) - want) <= 1e-12 * want
    assert abs(res.factor0_norm - 1.0) <= 1e-9
    assert abs(res.factor1_norm - 1.0) <= 1e-9
    assert res.reconstruction_error <= 1e-9


def test_pp_single_coefficient_closed_form():
    theta = 0.4
    a0, a1, p0v, p1v = 0.3, -0.2, 2.0, 4.0
    params = pp_params_const(theta)
    p = 1.0 / ((1 - theta) / p0v + theta / p1v)
    alpha = (1 - theta) * a0 + theta * a1
    u = p * theta * (a1 / p0v - a0 / p1v) + 0.5 * (p / p0v - 1.0)
    v = p * (theta - 1) * (a1 / p0v - a0 / p1v) + 0.5 * (p / p1v - 1.0)
    for (j, m) in [(0, 1), (2, 5), (V, 3)]:
        lam = DyadicCoefficients(G, V, {(j, (m,)): 1.7})
        res = factorize_pp(lam, params)
        norm = 1.7 * 2.0 ** (j * (alpha + 0.5 - 1.0 / p))
        assert abs(res.lam_norm - norm) <= 1e-9 * norm
        rel = 1.7 / norm
        want0 = 2.0 ** (j * u) * rel ** (p / p0v)
        want1 = 2.0 ** (j * v) * rel ** (p / p1v)
        assert abs(res.lam0.value(j, (m,)) - want0) <= 1e-9 * want0
        assert abs(res.lam1.value(j, (m,)) - want1) <= 1e-9 * want1
        # factor norms collapse to 1 by the single-coefficient norm formula
        assert abs(res.factor0_norm - 1.0) <= 1e-8
        assert abs(res.factor1_norm - 1.0) <= 1e-8
        assert res.reconstruction_error <= 1e-9


def test_pp_random_corpus_reconstructs():
    params = pp_params_variable()
    for _ in range(10):
        lam = random_coeffs(G, V, 60, RNG)
        res = factorize_pp(lam, params)
        assert res.reconstruction_error <= 1e-9
        assert res.factor0_norm > 0.0 and res.factor1_norm > 0.0


def test_pp_factor_norms_refinement_stable():
    params = pp_params_variable()
    fine_grid = make_grid(1, 4.0, 512)
    fine_params = factorization_params_pp(
        params.theta,
        build_exponent(fine_grid, "sine", role="smoothness", base=0.3, amplitude=0.2, frequency=1),
        build_exponent(fine_grid, "constant", value=-0.1, role="smoothness"),
        build_exponent(fine_grid, "sine", base=2.2, amplitude=0.4, frequency=1),
        build_exponent(fine_grid, "plateau", left=3.0, right=2.0, width=0.5),
    )
    rng = np.random.default_rng(42)
    worst = {}
    for grid, prm in [(G, params), (fine_grid, fine_params)]:
        rng_local = np.random.default_rng(42)
        tops = []
        for _ in range(8):
            lam = random_coeffs(grid, V, 50, rng_local)
            res = factorize_pp(lam, prm)
            tops.append(max(res.factor0_norm, res.factor1_norm))
        worst[grid.N] = max(tops)
    assert worst[512] <= 2.0 * worst[256]
    assert worst[256] <= 2.0 * worst[512]


def test_pp_zero_norm_rejected():
    params = pp_params_const()
    with pytest.raises(InvalidInput):
        factorize_pp(DyadicCoefficients(G, V, {}), params)


def test_pp_kind_guard():
    with pytest.raises(InvalidConfiguration):
        factorize_pq_infty(random_coeffs(G, V, 5, RNG), pp_params_const())
    with pytest.raises(InvalidConfiguration):
        factorize_pp(random_coeffs(G, V, 5, RNG), pq_params())


def test_factorize_picks_the_construction_of_the_params():
    lam = random_coeffs(G, V, 20, np.random.default_rng(5))
    for params, construction in ((pp_params_variable(), factorize_pp),
                                 (pq_params(q0=2.0, q1=3.0), factorize_pq_infty)):
        got, want = factorize(lam, params), construction(lam, params)
        assert (got.lam_norm, got.factor0_norm, got.factor1_norm) == \
            (want.lam_norm, want.factor0_norm, want.factor1_norm)
        assert all(np.array_equal(a, b) for a, b in zip(got.lam0.levels, want.lam0.levels))
        assert all(np.array_equal(a, b) for a, b in zip(got.lam1.levels, want.lam1.levels))


def test_variable_q_is_refused_where_a_constant_is_read():
    # a non-constant q used to be read at its first grid entry
    lam = random_coeffs(G, V, 20, np.random.default_rng(6))
    params = pq_params(q0=2.0, q1=3.0)
    sine_q = build_exponent(G, "sine", base=2.5, amplitude=0.3, frequency=1)
    with pytest.raises(InvalidInput, match="constant q"):
        build_level_sets(lam, dataclasses.replace(params, q=sine_q))


# --------------------------------------------------------------- level sets


def test_level_sets_single_coefficient():
    params = pq_params(theta=0.5, q0=2.0, q1=2.0, p0val=3.0)
    lam = DyadicCoefficients(G, V, {(2, (3,)): 1.37})
    decomp = build_level_sets(lam, params)
    # the one supported cube has a class; every other slot, at any level, has none
    assert [int(np.count_nonzero(c != NO_CLASS)) for c in decomp.class_levels] == [0, 0, 1, 0]
    assert decomp.class_levels[2][3] != NO_CLASS
    assert decomp.l_min == decomp.l_max == decomp.class_levels[2][3]
    for l in range(decomp.l_min, decomp.l_max + 1):
        inner = decomp.ratio > 2.0 ** (l + 1)
        outer = decomp.ratio > 2.0 ** l
        assert np.all(outer[inner])  # nesting A_{l+1} subset of A_l


def test_level_sets_magnitude_separation():
    params = pq_params()
    lam = DyadicCoefficients(G, V, {(1, (0,)): 1e3, (1, (7,)): 1e-3})
    decomp = build_level_sets(lam, params)
    la, lb = decomp.class_levels[1][[0, 7]]
    assert NO_CLASS not in (la, lb) and la != lb
    # classes sit exactly on the support: no supported cube is left unassigned
    for c, a in zip(decomp.class_levels, lam.levels):
        assert np.array_equal(c != NO_CLASS, a != 0)


def test_level_sets_membership_by_counting():
    # re-verify the majority rule for every supported cube straight from the masks
    params = pq_params(theta=0.5, q0=2.0, q1=3.0)
    lam = random_coeffs(G, V, 50, RNG)
    decomp = build_level_sets(lam, params)
    masks = {l: decomp.ratio > 2.0 ** l for l in range(decomp.l_min, decomp.l_max + 2)}
    for (j, m) in lam.support():
        cube = G.cube(j, m)
        block = cube_mask(G, cube)
        K = int(block.sum())
        passing = []
        for l in range(decomp.l_min, decomp.l_max + 1):
            c_here = int((masks[l] & block).sum())
            c_next = int((masks[l + 1] & block).sum())
            if c_here * 2 > K and c_next * 2 <= K:
                passing.append(l)
        assert passing == [decomp.class_levels[j][m]]


def test_level_sets_zero_and_gamma_guard():
    params = pq_params()
    decomp = build_level_sets(DyadicCoefficients(G, V, {}), params)
    assert decomp.ratio is None and decomp.lam_norm == 0.0
    assert all(np.all(c == NO_CLASS) for c in decomp.class_levels)
    pp = pp_params_const()
    with pytest.raises(InvalidConfiguration):
        build_level_sets(random_coeffs(G, V, 5, RNG), pp)


def test_subset_tie_padding():
    # level-0 cube whose finer half lies one dyadic class higher: exact tie
    params = pq_params(theta=0.5, q0=2.0, q1=2.0, p0val=3.0)
    assert params.gamma == 1.0 and params.delta == -1.0
    lam = DyadicCoefficients(G, V, {(0, (0,)): 1.0, (1, (0,)): 2.0})
    decomp = build_level_sets(lam, params)
    sel = _subset_from_level_sets(lam, decomp)
    cells = G.cells_per_axis(0)
    coarse = sel.levels[0][0]
    # upper half of the coarse cube is excluded, plus one padded cell
    assert coarse.sum() == cells // 2 + 1
    assert bool(coarse[0])  # the padded cell is the lowest-index excluded one
    assert np.all(coarse[cells // 2:])
    res = factorize_pq_infty(lam, params)
    assert res.reconstruction_error <= 1e-9

    # the same tie in 2D: two finer cubes cover the upper half of a level-0 cube
    g2 = make_grid(2, 1.0, 32)
    zero = const(g2, 0.0, "smoothness")
    params = factorization_params_pq_infty(0.5, zero, zero, const(g2, 3.0), 2.0, 2.0)
    lam = DyadicCoefficients(g2, 1, {(0, (0, 0)): 1.0, (1, (0, 0)): 2.0, (1, (0, 1)): 2.0})
    decomp = build_level_sets(lam, params)
    sel = _subset_from_level_sets(lam, decomp)
    c = g2.cells_per_axis(0)
    coarse = sel.levels[0][0, 0].reshape(c, c)
    assert coarse.sum() == c * c // 2 + 1
    assert bool(coarse[0, 0])  # the padded cell is the first excluded one in C order
    assert not coarse[0, 1:].any() and not coarse[1:c // 2].any()
    assert np.all(coarse[c // 2:])
    res = factorize_pq_infty(lam, params)
    assert res.reconstruction_error <= 1e-9


# --------------------------------------------------------- factorize_pq_infty


def test_pq_infty_single_coefficient_closed_form():
    theta, q0, q1, p0v = 0.5, 2.0, 3.0, 3.0
    a0, a1 = 0.25, -0.15
    params = factorization_params_pq_infty(
        theta, const(G, a0, "smoothness"), const(G, a1, "smoothness"),
        const(G, p0v), q0, q1,
    )
    q = 1.0 / ((1 - theta) / q0 + theta / q1)
    p = p0v / (1 - theta)
    alpha = (1 - theta) * a0 + theta * a1
    gamma = 1.0 / (1 - theta) - q / q0
    delta = -q / q1
    u = q * theta * (a1 / q0 - a0 / q1) + 0.5 * (q / q0 - 1.0)
    v = q * (theta - 1) * (a1 / q0 - a0 / q1) + 0.5 * (q / q1 - 1.0)
    j, m, mag = 2, 5, 1.37
    lam = DyadicCoefficients(G, V, {(j, (m,)): mag})
    res = factorize_pq_infty(lam, params)

    norm = mag * 2.0 ** (j * (alpha + 0.5 - 1.0 / p))
    assert abs(res.lam_norm - norm) <= 1e-9 * norm
    ratio = (2.0 ** (j * (alpha + 0.5)) * mag / norm) ** gamma
    l = math.ceil(math.log2(ratio)) - 1
    if 2.0 ** l >= ratio:  # guard the pen-and-paper class against log rounding
        l -= 1
    assert res.level_sets.class_levels[j][m] == l
    rel = mag / norm
    want0 = 2.0 ** (l + j * u) * rel ** (q / q0)
    want1 = 2.0 ** (l * delta / gamma + j * v) * rel ** (q / q1)
    assert abs(res.lam0.value(j, (m,)) - want0) <= 1e-12 * want0
    assert abs(res.lam1.value(j, (m,)) - want1) <= 1e-12 * want1
    assert abs(res.factor0_norm - want0 * 2.0 ** (j * (a0 + 0.5 - 1.0 / p0v))) \
        <= 1e-8 * res.factor0_norm
    assert abs(res.factor1_norm - want1 * 2.0 ** (j * (a1 + 0.5))) \
        <= 1e-12 * res.factor1_norm
    assert res.reconstruction_error <= 1e-9
    assert res.zero_count == 0


def test_pq_infty_random_corpus():
    # the endpoint norm of lam1 against the subset values of Prop. 1: a cube
    # average of the tail never exceeds the grid max of the full sum, and with
    # alpha1 constant each cube's integrand is constant, so |E_Q| > |Q|/2 gives
    # direct^q1 < 2 subset^q1; the subset value may lie below the direct norm
    params = pq_params(theta=0.4, q0=2.0, q1=4.0, p0val=2.5, a0=0.2, a1=-0.1)
    rng = np.random.default_rng(0xCA1)
    for _ in range(10):
        lam = random_coeffs(G, V, 60, rng)
        res = factorize_pq_infty(lam, params)
        assert res.reconstruction_error <= 1e-9
        assert res.zero_count == 0
        direct = f_infty_norm(res.lam1, params.alpha1, params.q1)
        full = f_infty_subset_norm(res.lam1, params.alpha1, params.q1, full_selection(res.lam1))
        assert direct <= full * (1.0 + 1e-12)
        assert direct <= 2.0 ** (1.0 / params.q1.min) * res.factor1_norm * (1.0 + 1e-12)


def test_pq_infty_subset_value_below_direct_norm():
    # the fourth draw above: the level-set selection's value undercuts the
    # direct endpoint norm, so direct <= subset is no bound of the construction
    params = pq_params(theta=0.4, q0=2.0, q1=4.0, p0val=2.5, a0=0.2, a1=-0.1)
    rng = np.random.default_rng(0xCA1)
    lam = [random_coeffs(G, V, 60, rng) for _ in range(4)][-1]
    res = factorize_pq_infty(lam, params)
    direct = f_infty_norm(res.lam1, params.alpha1, params.q1)
    assert direct > res.factor1_norm * (1.0 + 1e-3)
    assert direct <= 2.0 ** (1.0 / params.q1.min) * res.factor1_norm


def test_pq_infty_factor_norms_bounded_and_stable():
    base = pq_params(theta=0.4, q0=2.0, q1=4.0, p0val=2.5, a0=0.2, a1=-0.1)
    fine_grid = make_grid(1, 4.0, 512)
    fine = factorization_params_pq_infty(
        0.4,
        build_exponent(fine_grid, "constant", value=0.2, role="smoothness"),
        build_exponent(fine_grid, "constant", value=-0.1, role="smoothness"),
        build_exponent(fine_grid, "constant", value=2.5), 2.0, 4.0,
    )
    worst = {}
    for grid, prm in [(G, base), (fine_grid, fine)]:
        rng = np.random.default_rng(1234)
        tops = []
        for _ in range(8):
            lam = random_coeffs(grid, V, 40, rng)
            res = factorize_pq_infty(lam, prm)
            tops.append(max(res.factor0_norm, res.factor1_norm))
        worst[grid.N] = max(tops)
    assert worst[512] <= 2.0 * worst[256]
    assert worst[256] <= 2.0 * worst[512]


# ------------------------------------------------------------ easy direction


def test_holder_identity_triple():
    alpha = const(G, 0.2, "smoothness")
    p = const(G, 2.5)
    lam = random_coeffs(G, V, 30, RNG)
    rep = verify_holder_direction(lam, lam, lam,
                                  factorization_params_pp(0.6, alpha, alpha, p, p))
    assert abs(rep.margin) <= 1e-9 * rep.product


def test_holder_on_pp_factorized_triples():
    params = pp_params_const()
    for _ in range(10):
        lam = random_coeffs(G, V, 40, RNG)
        res = factorize_pp(lam, params)
        rep = verify_holder_direction(lam.scaled(1.0 / res.lam_norm), res.lam0, res.lam1,
                                      params)
        assert rep.margin >= -1e-9 * rep.product


def test_holder_on_pp_variable_has_bounded_slack():
    # variable p/p0 loses exactness; the proven modular slack still bounds it
    params = pp_params_variable()
    lam = random_coeffs(G, V, 40, RNG)
    res = factorize_pp(lam, params)
    rep = verify_holder_direction(lam.scaled(1.0 / res.lam_norm), res.lam0, res.lam1, params)
    p_minus = float(params.p.values.min())
    slack = (2.0 ** (1.0 / p_minus) - 1.0) * rep.product
    assert rep.margin >= -slack


def test_holder_on_pq_infty_triples():
    params = pq_params(theta=0.4, q0=2.0, q1=4.0, p0val=2.5, a0=0.2, a1=-0.1)
    for _ in range(10):
        lam = random_coeffs(G, V, 40, RNG)
        res = factorize_pq_infty(lam, params)
        rep = verify_holder_direction(lam.scaled(1.0 / res.lam_norm), res.lam0, res.lam1,
                                      params)
        assert rep.margin >= -1e-9 * rep.product


def test_holder_domination_violation():
    alpha = const(G, 0.0, "smoothness")
    p = const(G, 2.0)
    lam = DyadicCoefficients(G, V, {(1, (2,)): 4.0, (2, (0,)): 1.0})
    small = DyadicCoefficients(G, V, {(1, (2,)): 1.0, (2, (0,)): 1.0})
    with pytest.raises(PreconditionViolation) as err:
        verify_holder_direction(lam, small, small,
                                factorization_params_pp(0.5, alpha, alpha, p, p))
    assert "(1, (2,))" in str(err.value)


# ------------------------------------------------------------------- upper


def test_calderon_upper_degenerate():
    params = factorization_params_pp(
        0.3, const(G, 0.2, "smoothness"), const(G, 0.2, "smoothness"),
        const(G, 3.0), const(G, 3.0),
    )
    lam = random_coeffs(G, V, 30, RNG)
    norm = f_norm(lam, params.alpha, params.p, params.q).value
    upper = calderon_upper(lam, params)
    assert abs(upper - norm) <= 1e-8 * norm


# ------------------------------------------------------------------ lattice


def test_lattice_truncations():
    alpha = const(G, 0.2, "smoothness")
    p = const(G, 2.5)
    q = const(G, 1.8)
    lam = random_coeffs(G, V, 30, RNG)
    keys = sorted(lam.support())
    truncs = [lam.restricted(keys[:k]) for k in range(1, len(keys) + 1)]
    assert lattice_property_check(truncs, lam, alpha, p, q)


def test_lattice_magnitude_ramp():
    alpha = const(G, 0.0, "smoothness")
    p = const(G, 2.0)
    lam = random_coeffs(G, V, 20, RNG)
    truncs = [lam.scaled(1.0 - 1.0 / k) for k in range(2, 8)] + [lam]
    assert lattice_property_check(truncs, lam, alpha, p, p)
    full = f_norm(lam, alpha, p, p).value
    half = f_norm(truncs[0], alpha, p, p).value
    assert abs(half - 0.5 * full) <= 1e-9 * full


def test_lattice_truncations_may_be_an_iterator():
    # the grid check used to consume a generator, and the call returned False
    alpha = const(G, 0.0, "smoothness")
    p = const(G, 2.0)
    lam = DyadicCoefficients(G, 2, {(0, (1,)): 3.0, (2, (5,)): -1.0})
    assert lattice_property_check([lam], lam, alpha, p, p)
    assert lattice_property_check(iter([lam]), lam, alpha, p, p)


def test_lattice_violations():
    alpha = const(G, 0.0, "smoothness")
    p = const(G, 2.0)
    lam = random_coeffs(G, V, 20, RNG)
    with pytest.raises(PreconditionViolation):
        lattice_property_check([lam.scaled(1.5)], lam, alpha, p, p)
    keys = sorted(lam.support())
    shrinking = [lam, lam.restricted(keys[: len(keys) // 2])]
    assert not lattice_property_check(shrinking, lam, alpha, p, p)
    elsewhere = DyadicCoefficients(make_grid(1, 8.0, 512), V, {(0, (0,)): 1.0})
    with pytest.raises(InvalidInput):
        lattice_property_check([elsewhere], lam, alpha, p, p)


def test_lattice_violation_names_the_first_key_in_sorted_order():
    # a truncation may reach above the target's max level, where the target is zero
    alpha = const(G, 0.0, "smoothness")
    p = const(G, 2.0)
    lam = DyadicCoefficients(G, 2, {(0, (1,)): 3.0, (2, (5,)): -1.0})
    deeper = DyadicCoefficients(G, 3, {(0, (1,)): 3.0, (2, (5,)): 2.0j, (3, (7,)): 1.0})
    with pytest.raises(PreconditionViolation,
                       match=r"^truncation 1 exceeds the target at \(2, \(5,\)\)$"):
        lattice_property_check([lam, deeper], lam, alpha, p, p)
    above = DyadicCoefficients(G, 3, {(0, (1,)): 3.0, (3, (7,)): 1.0})
    with pytest.raises(PreconditionViolation, match=r"at \(3, \(7,\)\)$"):
        lattice_property_check([above], lam, alpha, p, p)


# --------------------------------------------------------------- classifier


def test_classifier_cases():
    assert case_classifier(const(G, 2.0), const(G, 4.0),
                           const(G, 2.0), const(G, 4.0), 0.3) == "case-i"
    assert case_classifier(const(G, 3.0), const(G, 5.0),
                           const(G, 2.0), const(G, 4.0), 0.5) == "case-ii"
    p0 = build_exponent(G, "sine", base=2.5, amplitude=0.5, frequency=1)
    p1 = const(G, 2.5)
    assert case_classifier(p0, p1, const(G, 2.0), const(G, 2.0), 0.5) == "unsupported"


# --------------------------------------------------------------- experiment


def test_equivalence_experiment_pp():
    params = pp_params_const()
    corpus = [random_coeffs(G, V, 30, RNG) for _ in range(8)]
    report = equivalence_experiment(corpus, params)
    assert len(report.rows) == 8
    assert all(r.ratio >= 1.0 - 1e-12 for r in report.rows)
    assert report.max_ratio >= report.min_ratio
    assert [r.corpus_id for r in report.rows] == list(range(8))


def test_equivalence_experiment_degenerate_ratios_one():
    params = factorization_params_pp(
        0.3, const(G, 0.2, "smoothness"), const(G, 0.2, "smoothness"),
        const(G, 3.0), const(G, 3.0),
    )
    corpus = [random_coeffs(G, V, 20, RNG) for _ in range(4)]
    report = equivalence_experiment(corpus, params)
    assert all(abs(r.ratio - 1.0) <= 1e-8 for r in report.rows)


def test_equivalence_experiment_stability():
    params = pq_params(theta=0.4, q0=2.0, q1=4.0, p0val=2.5, a0=0.2, a1=-0.1)
    rng = np.random.default_rng(77)
    corpus = [random_coeffs(G, V, 30, rng) for _ in range(6)]
    base = equivalence_experiment(corpus, params)
    rng2 = np.random.default_rng(77)
    doubled = [random_coeffs(G, V, 30, rng2) for _ in range(12)]
    grown = equivalence_experiment(doubled, params)
    assert grown.max_ratio <= 2.0 * base.max_ratio

    fine_grid = make_grid(1, 4.0, 512)
    fine_params = factorization_params_pq_infty(
        0.4,
        build_exponent(fine_grid, "constant", value=0.2, role="smoothness"),
        build_exponent(fine_grid, "constant", value=-0.1, role="smoothness"),
        build_exponent(fine_grid, "constant", value=2.5), 2.0, 4.0,
    )
    fine_corpus = [DyadicCoefficients(fine_grid, V, lam.levels) for lam in corpus]
    fine = equivalence_experiment(fine_corpus, fine_params)
    assert fine.max_ratio <= 2.0 * base.max_ratio
    assert base.max_ratio <= 2.0 * fine.max_ratio


def test_equivalence_experiment_guards():
    with pytest.raises(InvalidInput):
        equivalence_experiment([], pp_params_const())


@pytest.mark.parametrize("build", [build_level_sets, factorize_pq_infty])
def test_level_set_majorant_beyond_float_range_is_typed(build):
    # alpha0 = 400 puts the weights 2^{v (alpha + n/2) q} of the stacked
    # majorant past the float range; it used to escape as numpy's overflow
    # RuntimeWarning and then fail on the non-finite grid function
    params = factorization_params_pq_infty(0.5, const(G, 400.0, "smoothness"),
                                           const(G, -0.1, "smoothness"), const(G, 2.0), 2.0, 3.0)
    lam = DyadicCoefficients(G, V, {(0, (1,)): 1.0, (3, (5,)): 2.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvalidInput, match="exceeds the float range"):
            build(lam, params)
