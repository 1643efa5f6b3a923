"""The level families near the float range: a finite value or a typed error.

Every entry built from the weighted levels 2^{v(alpha+n/2)q} |lam|^q or
2^{v alpha q} |phi_v * f|^q returns a finite value or raises a VexintError,
never an inf, a nan or numpy's RuntimeWarning, which is an error here.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vexint.calderon import (
    build_level_sets,
    factorization_params_pp,
    factorization_params_pq_infty,
    factorize,
    verify_holder_direction,
)
from vexint.errors import VexintError
from vexint.exponents import build_exponent
from vexint.grid import GridFunction, make_grid
from vexint.lpf import F_infty_norm, F_norm, build_admissible_pair
from vexint.seqspaces import (
    DyadicCoefficients,
    f_infty_norm,
    f_infty_subset_norm,
    f_norm,
    full_selection,
    greedy_selection,
    level_function,
)

GRIDS = {1: make_grid(1, 4.0, 256), 2: make_grid(2, 1.0, 32)}
BANKS = {n: build_admissible_pair(g, g.v_max) for n, g in GRIDS.items()}

# the edges first: a uniform draw rarely takes a weight past the float range
alphas = st.sampled_from([-60.0, 0.0, 60.0]) | st.floats(-60.0, 60.0)
ps = st.sampled_from([1.0 + 1e-9, 1.01, 60.0]) | st.floats(1.0 + 1e-9, 60.0)
qs = st.sampled_from([1.0, 60.0]) | st.floats(1.0, 60.0)
# the endpoint norms take any constant q > 0
sup_qs = st.sampled_from([0.5, 1.0, 60.0]) | st.floats(0.1, 60.0)
magnitudes = (st.sampled_from([-300.0, 0.0, 300.0]) | st.floats(-300.0, 300.0)).map(
    lambda e: 10.0 ** e)


@st.composite
def cases(draw):
    n = draw(st.sampled_from([1, 2]))
    grid = GRIDS[n]
    V = draw(st.integers(0, grid.v_max))
    data = {}
    for v, m, mag, phase in draw(st.lists(st.tuples(
            st.integers(0, V), st.tuples(st.integers(0, 2 ** 16), st.integers(0, 2 ** 16)),
            magnitudes, st.floats(0.0, 2.0 * math.pi)), max_size=6)):
        top = grid.cubes_per_axis(v)
        data[(v, tuple(mi % top for mi in m[:n]))] = mag * complex(math.cos(phase),
                                                                  math.sin(phase))
    lam = DyadicCoefficients(grid, V, data)

    def alpha():
        base, amplitude = draw(alphas), draw(st.sampled_from([0.0, 0.3]))
        return build_exponent(grid, "sine", role="smoothness", base=base, amplitude=amplitude)
    fields = dict(alpha0=alpha(), alpha1=alpha(),
                  p0=build_exponent(grid, "constant", value=draw(ps)),
                  p1=build_exponent(grid, "constant", value=draw(ps)))
    f = GridFunction(grid, draw(magnitudes) * np.cos(2.0 * np.pi * grid.coords()[0] / grid.L))
    return lam, fields, draw(qs), draw(qs), draw(sup_qs), draw(st.floats(0.05, 0.95)), f


def _finite_or_typed(compute):
    try:
        value = compute()
    except VexintError:
        return
    assert math.isfinite(value), value


@settings(max_examples=40, deadline=None)
@given(cases())
def test_level_families_are_finite_or_typed(case):
    lam, e, q0, q1, q, theta, f = case
    alpha, p = e["alpha0"], e["p0"]
    qf = build_exponent(lam.grid, "constant", value=q0)
    bank = BANKS[lam.grid.n]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for v in range(lam.V + 1):
            _finite_or_typed(lambda: float(np.abs(level_function(lam, alpha, v).values).max()))
        _finite_or_typed(lambda: f_norm(lam, alpha, p, qf).value)
        _finite_or_typed(lambda: f_infty_norm(lam, alpha, q))
        _finite_or_typed(lambda: f_infty_subset_norm(lam, alpha, q, full_selection(lam)))
        _finite_or_typed(lambda: f_infty_subset_norm(lam, alpha, q,
                                                     greedy_selection(lam, alpha, q)))
        _finite_or_typed(lambda: F_norm(f, alpha, p, qf, bank).value)
        _finite_or_typed(lambda: F_infty_norm(f, alpha, q, bank))
        for build in (lambda: factorization_params_pp(theta, *e.values()),
                      lambda: factorization_params_pq_infty(theta, e["alpha0"], e["alpha1"],
                                                            p, q0, q1)):
            try:
                params = build()
            except VexintError:
                continue
            if params.kind == "pq-infty":
                _finite_or_typed(lambda: build_level_sets(lam, params).lam_norm)
            try:
                res = factorize(lam, params)
            except VexintError:
                continue
            _finite_or_typed(lambda: res.factor0_norm)
            _finite_or_typed(lambda: res.factor1_norm)
            _finite_or_typed(lambda: res.reconstruction_error)
            _finite_or_typed(lambda: verify_holder_direction(lam, res.lam0, res.lam1,
                                                             params).margin)
