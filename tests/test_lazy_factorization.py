"""Factorization results that compute their factor norms on first read,
against the eager constructions they replaced.

`factorize_pp_oracle` and `factorize_pq_infty_oracle` are the constructions
that solved every factor norm, the direct endpoint norm and the
reconstruction error on each call, kept verbatim (bodies unchanged, with
the eager result class renamed, except that the reconstruction error is
the relative measure `relative_reconstruction_error` and the level sets
are built from params alone); every compared quantity must be `==`, not
close.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from vexint import calderon
from vexint.calderon import (
    LevelSetDecomposition,
    _corner_factors,
    _reconstructions,
    _subset_from_level_sets,
    build_level_sets,
    factorization_params_pp,
    factorization_params_pq_infty,
    factorize_pp,
    factorize_pq_infty,
    verify_holder_direction,
)
from vexint.corpus import coefficient_corpus
from vexint.errors import InvalidConfiguration, InvalidInput
from vexint.exponents import build_exponent
from vexint.grid import make_grid
from vexint.seqspaces import (
    DyadicCoefficients,
    f_infty_norm,
    f_infty_subset_norm,
    f_norm,
)

# -- the eager constructions -----------------------------------------------------


def relative_reconstruction_error(lam, lam0, lam1, norm, theta):
    a, recon = _reconstructions(lam, lam0, lam1, norm, theta)
    return float((np.abs(recon - a) / a).max(initial=0.0))


@dataclass(eq=False)
class EagerResult:
    lam0: DyadicCoefficients
    lam1: DyadicCoefficients
    lam_norm: float
    reconstruction_error: float
    factor0_norm: float
    factor1_norm: float
    factor1_direct: float | None = None
    level_sets: "LevelSetDecomposition | None" = None
    zero_count: int = 0


def factorize_pp_oracle(lam, params):
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
    err = relative_reconstruction_error(lam, lam0, lam1, norm, theta)
    norm0 = f_norm(lam0, params.alpha0, params.p0, params.p0).value
    norm1 = f_norm(lam1, params.alpha1, params.p1, params.p1).value
    return EagerResult(lam0, lam1, norm, err, norm0, norm1)


def factorize_pq_infty_oracle(lam, params):
    if params.kind != "pq-infty":
        raise InvalidConfiguration(f"params describe a {params.kind} construction")
    if lam.grid != params.grid:
        raise InvalidInput("coefficients and params live on different grids")
    if not lam:
        raise InvalidInput("factorization needs a nonzero norm")
    decomp = build_level_sets(lam, params)
    norm = decomp.lam_norm
    if norm == 0.0:
        raise InvalidInput("factorization needs a nonzero norm")
    theta = params.theta
    q = params.q.values
    q0, q1 = params.q0.min, params.q1.min  # the endpoint constants, as floats
    lam0, lam1, zero_count = _corner_factors(lam, norm, params, q / q0, q / q1,
                                             decomp.class_levels, params.delta / params.gamma)
    err = relative_reconstruction_error(lam, lam0, lam1, norm, theta)
    q0f = build_exponent(lam.grid, "constant", value=q0)
    norm0 = f_norm(lam0, params.alpha0, params.p0, q0f).value
    sel = _subset_from_level_sets(lam1, decomp)
    norm1 = f_infty_subset_norm(lam1, params.alpha1, q1, sel)
    direct1 = f_infty_norm(lam1, params.alpha1, q1)
    return EagerResult(lam0, lam1, norm, err, norm0, norm1,
                       factor1_direct=direct1, level_sets=decomp,
                       zero_count=zero_count)


# -- corpora -------------------------------------------------------------------------

GRIDS = {1: (make_grid(1, 4.0, 256), 3), 2: (make_grid(2, 1.0, 32), 2)}
FAR = {1: (2, (20,)), 2: (2, (5, 6))}


def params_of(kind, grid, theta):
    alpha0 = build_exponent(grid, "sine", base=0.2, amplitude=0.25, frequency=1,
                            role="smoothness")
    alpha1 = build_exponent(grid, "constant", value=-0.1, role="smoothness")
    p0 = build_exponent(grid, "sine", base=2.2, amplitude=0.4, frequency=1)
    if kind == "pp":
        p1 = build_exponent(grid, "sine", base=3.0, amplitude=0.5, frequency=2)
        return factorization_params_pp(theta, alpha0, alpha1, p0, p1)
    return factorization_params_pq_infty(theta, alpha0, alpha1, p0, 2.0, 3.0)


def corpus(n):
    grid, V = GRIDS[n]
    items = coefficient_corpus(grid, V, 6, 60, 20 + n)
    # a cube whose |lam|^q underflows: no class, and a nonzero zero_count
    items.append(DyadicCoefficients(grid, V, {(0, (0,) * n): 1.0, FAR[n]: 1e-200}))
    return grid, items


def lazy_fields(res):
    return (res.lam_norm, res.factor0_norm, res.factor1_norm, res.reconstruction_error,
            res.zero_count)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", ["pp", "pq-infty"])
def test_lazy_results_equal_the_eager_constructions(n, kind):
    grid, items = corpus(n)
    factorize, oracle = ((factorize_pp, factorize_pp_oracle) if kind == "pp"
                         else (factorize_pq_infty, factorize_pq_infty_oracle))
    zero_counts = 0
    for theta in (0.3, 0.6):
        params = params_of(kind, grid, theta)
        for lam in items:
            got, want = factorize(lam, params), oracle(lam, params)
            assert lazy_fields(got) == lazy_fields(want)
            assert lazy_fields(got) == lazy_fields(want)  # a second read, from the memo
            for a, b in ((got.lam0, want.lam0), (got.lam1, want.lam1)):
                assert all(np.array_equal(x, y) for x, y in zip(a.levels, b.levels))
            direct = None if kind == "pp" else f_infty_norm(got.lam1, params.alpha1, params.q1)
            assert direct == want.factor1_direct
            zero_counts += want.zero_count
            if want.zero_count:
                continue  # a cube left out carries no domination
            rep = verify_holder_direction(lam.scaled(1.0 / got.lam_norm), got.lam0, got.lam1,
                                          params)
            assert rep.factor0_norm == got.factor0_norm
    assert kind == "pp" or zero_counts > 0


def test_factor_norms_are_not_solved_until_read(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a factor norm was solved")

    for name in ("f_infty_subset_norm", "_subset_from_level_sets"):
        monkeypatch.setattr(calderon, name, refuse)
    for n in (1, 2):
        grid, items = corpus(n)
        for kind, factorize in (("pp", factorize_pp), ("pq-infty", factorize_pq_infty)):
            params = params_of(kind, grid, 0.4)
            want = (factorize_pp_oracle if kind == "pp" else factorize_pq_infty_oracle)(
                items[0], params)
            res = factorize(items[0], params)
            assert res.lam_norm == want.lam_norm
            assert all(np.array_equal(x, y) for x, y in zip(res.lam0.levels, want.lam0.levels))
            assert all(np.array_equal(x, y) for x, y in zip(res.lam1.levels, want.lam1.levels))
            assert (res.level_sets is None) == (kind == "pp")
            if kind == "pq-infty":
                assert all(np.array_equal(a, b) for a, b in zip(
                    res.level_sets.class_levels, want.level_sets.class_levels))
                # the first read is where the solve happens
                with pytest.raises(AssertionError, match="a factor norm was solved"):
                    res.factor1_norm


def test_each_factor_norm_is_solved_once(monkeypatch):
    calls = []
    real = calderon.f_norm

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    grid, items = corpus(1)
    params = params_of("pp", grid, 0.4)
    res = factorize_pp(items[0], params)
    monkeypatch.setattr(calderon, "f_norm", counted)
    for _ in range(3):
        res.factor0_norm, res.factor1_norm
    assert calls == [res.lam0, res.lam1]
