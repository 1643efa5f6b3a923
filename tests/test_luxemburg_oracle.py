"""The Luxemburg solve and the level stack against the code they replaced.

`oracle_luxemburg_norm` is the bisection that made a real modular pass for
every decision, and `oracle_stack` the per-level masked loop; their bodies
are kept verbatim.  The solver under test finds the root by Newton and
replays the same bisection, making real passes only near the root, so every
NormResult field, and every raised error, must be `==`, not close.  Inputs
keep the oracle's bracket finite (|f| <= 1e300 on boxes of volume <= 64):
near the float ceiling the two differ on purpose (see test_lebesgue).
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexint import _accel, lebesgue
from vexint.acceptance import SCALE_1D, _rand_integrability, _rand_smoothness
from vexint.corpus import band_limited_corpus, random_coefficients
from vexint.errors import InvalidInput, SolverFailure
from vexint.exponents import ExponentField, build_exponent
from vexint.grid import GridFunction, common_grid, make_grid
from vexint.lebesgue import DEFAULT_TOL, NormResult, _check_role, _values, luxemburg_norm, stack
from vexint.seqspaces import _coefficient_levels

MAX_ITER = lebesgue.MAX_ITER


def oracle_luxemburg_norm(f, p: ExponentField, tol: float = DEFAULT_TOL) -> NormResult:
    fv = _values(f)
    common_grid(f, p, fv)
    _check_role(p)
    absf = np.abs(fv)
    fmax = float(absf.max())
    if not np.isfinite(fmax):
        raise InvalidInput("function has a non-finite value; its Luxemburg norm is undefined")
    if fmax == 0.0:
        return NormResult(0.0, 0, 0.0, "zero")
    hn = p.grid.h ** p.grid.n

    def const_norm(c: float) -> float:
        # ||f||_c by homogeneity: scale out max|f| so every power stays <= 1
        s = _accel.modular_pow_sum(absf, np.full_like(p.values, c), fmax) * hn
        return fmax * float(s) ** (1.0 / c)

    if p.is_constant:
        return NormResult(const_norm(p.min), 0, 0.0, "closed-form")

    def rho(lam: float) -> float:
        return _accel.modular_pow_sum(absf, p.values, lam) * hn

    # bracket: the constant-exponent norms at p+ and p- straddle the solution
    norm_hi = const_norm(p.max)
    norm_lo = const_norm(p.min)
    lo = max(norm_hi / 2.0, 1e-300)
    hi = 2.0 * norm_lo + fmax
    iterations = 0
    while rho(hi) > 1.0:
        hi *= 2.0
        iterations += 1
        if iterations >= MAX_ITER:
            raise SolverFailure("upper bracket for the Luxemburg norm did not close")
    while rho(lo) <= 1.0:
        lo /= 2.0
        iterations += 1
        if iterations >= MAX_ITER:
            raise SolverFailure("lower bracket for the Luxemburg norm did not close")

    while hi - lo > tol * hi:
        mid = np.sqrt(lo) * np.sqrt(hi)  # geometric midpoint, overflow-safe
        if rho(mid) > 1.0:
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


def oracle_stack(family, q: ExponentField) -> np.ndarray:
    """Pointwise inner norm (sum_v |f_v(x)|^{q(x)})^{1/q(x)}, overflow-safe."""
    vals = [np.abs(_values(f)) for f in family]
    if not vals:
        return np.zeros(q.grid.shape)
    big = np.maximum.reduce(vals)
    if not np.isfinite(big.max()):  # both maxima propagate nan
        raise InvalidInput("family has a non-finite value; its level stack is undefined")
    out = np.zeros(q.grid.shape)
    pos = big > 0.0
    if np.any(pos):
        # factor out the pointwise max so the q-powers stay in [0, 1]
        acc = np.zeros(big.shape)
        for v in vals:
            ratio = np.zeros(big.shape)
            ratio[pos] = v[pos] / big[pos]
            acc[pos] += ratio[pos] ** q.values[pos]
        out[pos] = big[pos] * acc[pos] ** (1.0 / q.values[pos])
    return out


GRIDS = [make_grid(1, 1.0, 16), make_grid(1, 4.0, 256), make_grid(1, 2.0, 1024),
         make_grid(2, 1.0, 16), make_grid(2, 4.0, 32)]
# p near 1, moderate and large, and past REPLAY_P_MAX (no Newton root)
P_BASES = [1.0, 1.0 + 1e-9, 1.001, 1.5, 2.5, 6.0, 40.0, 300.0]
P_SPREADS = [1e-12, 1e-3, 0.5, 3.0, 20.0]
F_KINDS = ["lognormal", "zeros70", "spike", "huge", "tiny", "tiny-and-huge", "rounded"]
TOLS = [DEFAULT_TOL, 1e-6, 1e-15]


def exponent(grid, base, spread, rounded, rng):
    vals = base + spread * rng.random(grid.shape)
    if rounded:
        vals = np.round(vals, 1)
    if vals.min() == vals.max():
        vals.flat[0] += 0.25
    return ExponentField(grid, vals, float(vals.min()), float(vals.max()), "integrability")


def function(grid, kind, rng):
    f = 10.0 ** rng.uniform(-3, 3, grid.shape)
    if kind == "zeros70":
        f[rng.random(grid.shape) < 0.7] = 0.0
    elif kind == "spike":
        f = np.zeros(grid.shape)
        f.flat[rng.integers(f.size)] = 10.0 ** rng.uniform(-3, 3)
    elif kind == "huge":
        f *= 1e297
    elif kind == "tiny":
        f *= 1e-297
    elif kind == "tiny-and-huge":
        f = np.where(rng.random(grid.shape) < 0.5, 1e-300, 1e300) * rng.random(grid.shape)
    elif kind == "rounded":
        f = np.round(f)
    return -f if rng.random() < 0.5 else f


def outcome(solve, f, p, tol):
    """Every NormResult field, or the type and message of the error raised."""
    try:
        r = solve(f, p, tol=tol)
    except (InvalidInput, SolverFailure) as exc:
        return type(exc), str(exc)
    return r.value, r.iterations, r.residual, r.method, r.bracket


cases = st.tuples(
    st.sampled_from(GRIDS), st.sampled_from(P_BASES), st.sampled_from(P_SPREADS),
    st.booleans(), st.sampled_from(F_KINDS), st.integers(0, 2**32 - 1), st.sampled_from(TOLS),
)


def draw(case):
    grid, base, spread, rounded, kind, seed, tol = case
    rng = np.random.default_rng(seed)
    return function(grid, kind, rng), exponent(grid, base, spread, rounded, rng), tol


@settings(max_examples=300, deadline=None)
@given(cases)
def test_luxemburg_norm_equals_bisection_oracle(case):
    f, p, tol = draw(case)
    want = outcome(oracle_luxemburg_norm, f, p, tol)
    assert outcome(luxemburg_norm, f, p, tol) == want
    if want[3] == "bisection":  # the inputs keep the oracle's bracket finite
        assert np.isfinite(want[0]) and np.isfinite(want[4][1])


class PassCounter:
    """Counts the real modular passes of both solvers."""

    def __init__(self, monkeypatch):
        self.calls = 0
        kernel = _accel.modular_pow_sum

        def counted(*args):
            self.calls += 1
            return kernel(*args)

        monkeypatch.setattr(_accel, "modular_pow_sum", counted)

    def passes(self, solve, *args):
        before = self.calls
        result = outcome(solve, *args)
        return result, self.calls - before


def fixed_cases(count):
    rng = np.random.default_rng(20161)
    for i in range(count):
        grid = GRIDS[i % len(GRIDS)]
        p = exponent(grid, P_BASES[i % 7], P_SPREADS[i % len(P_SPREADS)], i % 3 == 0, rng)
        yield function(grid, F_KINDS[i % len(F_KINDS)], rng), p, TOLS[i % len(TOLS)]


def test_replay_makes_fewer_passes_than_the_oracle(monkeypatch):
    counter = PassCounter(monkeypatch)
    saved = []
    for f, p, tol in fixed_cases(40):
        want, oracle_passes = counter.passes(oracle_luxemburg_norm, f, p, tol)
        got, passes = counter.passes(luxemburg_norm, f, p, tol)
        assert got == want
        saved.append(oracle_passes - passes)
    # the bisection takes about 35 steps; the replay makes the two bracket
    # passes, the few midpoints within the solve's margin of the root (about
    # 1e-11 to 2e-10, by p-, p+ and the size) and the residual, which is no
    # new pass when such a midpoint was the last to test hi
    assert sum(saved) >= 30 * len(saved)


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_replay_holds_with_the_root_off_by_its_error_bound(monkeypatch, sign):
    # the margin must absorb a Newton root anywhere within the docstring's
    # bound R of the true root: shift each t* by 0.99 R
    log_root = lebesgue._log_root
    shifted = []

    def off(absf, p, *rest):
        t = log_root(absf, p, *rest)
        if t is None:
            return None
        shifted.append(t)
        return t + sign * 0.99 * lebesgue._root_error(p, absf.size)

    monkeypatch.setattr(lebesgue, "_log_root", off)
    for f, p, tol in fixed_cases(40):
        assert outcome(luxemburg_norm, f, p, tol) == outcome(oracle_luxemburg_norm, f, p, tol)
    assert len(shifted) >= 20


def test_desk_grid_solves_make_at_most_four_passes(monkeypatch):
    # the 2-D desk grid of the CLI batches: a sine exponent in [1.5, 3.3] and
    # band-limited functions; two of the passes open the bracket
    grid = make_grid(2, 2.0, 256)
    p = build_exponent(grid, "sine", base=2.4, amplitude=0.9, frequency=2)
    counter = PassCounter(monkeypatch)
    for f in band_limited_corpus(grid, 2.0 ** 3, 8, 200, 29):
        result, passes = counter.passes(luxemburg_norm, f, p, DEFAULT_TOL)
        assert result[3] == "bisection"
        assert passes <= 4


def test_newton_fallback_makes_every_pass(monkeypatch):
    # a step that never converges leaves no root: every decision is a real
    # pass, as in the oracle, and the results do not change; a bisection
    # outcome makes one pass fewer, since the residual reuses the real pass
    # that last tested hi
    monkeypatch.setattr(_accel, "log_modular_step", lambda logf, p, t: (np.nan, -1.0))
    counter = PassCounter(monkeypatch)
    bisections = 0
    for f, p, tol in fixed_cases(30):
        want, oracle_passes = counter.passes(oracle_luxemburg_norm, f, p, tol)
        got, passes = counter.passes(luxemburg_norm, f, p, tol)
        assert got == want
        bisection = len(want) == 5 and want[3] == "bisection"
        bisections += bisection
        assert passes == oracle_passes - bisection
    assert bisections >= 10


def test_solver_failure_at_max_iter_counts_replayed_steps(monkeypatch):
    monkeypatch.setattr(lebesgue, "MAX_ITER", 12)
    monkeypatch.setattr(sys.modules[__name__], "MAX_ITER", 12)
    failures = 0
    for f, p, tol in fixed_cases(30):
        want = outcome(oracle_luxemburg_norm, f, p, tol)
        assert outcome(luxemburg_norm, f, p, tol) == want
        failures += want[0] is SolverFailure
    assert failures >= 20


levels = st.tuples(
    st.sampled_from(GRIDS), st.sampled_from([1, 2, 3, 8, 12]), st.sampled_from(P_BASES[:7]),
    st.sampled_from(P_SPREADS), st.sampled_from(F_KINDS), st.integers(0, 2**32 - 1),
    st.booleans(), st.booleans(), st.booleans(),
)


def zero_runs(f, rng):
    """f zeroed on runs of the flattened grid, as a coefficient level is off its cubes."""
    flat = f.reshape(-1)
    for start in rng.integers(0, flat.size, size=1 + flat.size // 32):
        flat[start:start + rng.integers(1, 65)] = 0.0
    return f


@settings(max_examples=200, deadline=None)
@given(levels)
def test_stack_equals_masked_loop_oracle(case):
    grid, count, base, spread, kind, seed, wrap, runs, apart = case
    rng = np.random.default_rng(seed)
    q = exponent(grid, base, spread, seed % 2 == 0, rng)
    base = function(grid, kind, rng)
    base[rng.random(grid.shape) < 0.2] = 0.0  # points where every level vanishes
    family = []
    for _ in range(count):
        # comparable levels, so that the order of the level sum shows in the bits
        f = base * rng.uniform(0.25, 1.0, grid.shape)
        if apart:  # or levels up to 12 orders apart, so that small ratios count too
            f *= 10.0 ** -rng.uniform(0.0, 12.0, grid.shape)
        if runs:  # and each level zero where the others need not be
            f = zero_runs(f, rng)
        family.append(GridFunction(grid, f) if wrap else f)
    want = oracle_stack(family, q)
    got = stack(family, q)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("grid", [GRIDS[1], GRIDS[4]])
def test_stack_empty_and_all_zero_families(grid):
    q = exponent(grid, 2.0, 0.5, False, np.random.default_rng(3))
    for family in ([], [np.zeros(grid.shape)], [np.zeros(grid.shape)] * 3):
        assert stack(family, q).tobytes() == oracle_stack(family, q).tobytes()


def test_newton_start_moves_no_result(monkeypatch):
    # any t* that Newton accepts replays the same decisions, so starting it at
    # log lo, as the solver once did, leaves every NormResult field and every
    # error as it is; the two starts do take different numbers of steps
    kernel, log_root = _accel.log_modular_step, lebesgue._log_root
    steps = []

    def counted(*args):
        steps[-1] += 1
        return kernel(*args)

    def solve_all():
        results = []
        for f, p, tol in fixed_cases(60):
            steps.append(0)
            results.append(outcome(luxemburg_norm, f, p, tol))
        return results

    monkeypatch.setattr(_accel, "log_modular_step", counted)
    want = solve_all()
    want_steps, steps[:] = steps[:], []
    monkeypatch.setattr(lebesgue, "_log_root",
                        lambda absf, p, hn, lo, hi, start: log_root(absf, p, hn, lo, hi, lo))
    assert solve_all() == want
    assert steps != want_steps


def desk_stacks(count):
    """Level stacks as criterion 2 builds them: 350 coefficients of levels 0..4 on
    the 1-D desk grid, a smoothness alpha, a sine p and an inner q of each kind."""
    grid = make_grid(*SCALE_1D)
    rng = np.random.default_rng(37)
    for _ in range(count):
        lam = random_coefficients(grid, 4, 350, rng)
        alpha = _rand_smoothness(grid, rng)
        amp = float(rng.uniform(0.1, 0.5))
        p = build_exponent(grid, "sine", base=float(rng.uniform(1.2 + amp, 3.5)),
                           amplitude=amp, frequency=int(rng.integers(1, 4)))
        yield stack(_coefficient_levels(lam, alpha), _rand_integrability(grid, rng)), p


def test_newton_takes_few_steps_from_the_lower_constant_norm(monkeypatch):
    # Newton starts at the smaller of ||f||_{p+} and ||f||_{p-}, clamped into
    # the opening bracket: about 3.2 steps per solve on this corpus, where a
    # start at log lo = log(||f||_{p+} / 2) took 4.0; the counts repeat exactly
    kernel = _accel.log_modular_step
    steps = [0]

    def counted(*args):
        steps[0] += 1
        return kernel(*args)

    monkeypatch.setattr(_accel, "log_modular_step", counted)
    solves = 0
    for f, p in desk_stacks(50):
        before = steps[0]
        assert luxemburg_norm(f, p).method == "bisection"
        solves += steps[0] > before
    assert solves == 50
    assert steps[0] <= 3.4 * solves
