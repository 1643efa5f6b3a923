"""Array reductions of the factorization checks against the per-cube code they
replaced.

The oracles below are the per-cube `_reconstructions` and its two readers
(`FactorizationResult.reconstruction_error`, whose relative measure is the
former `acceptance._max_relative_reconstruction`, and the domination key
list of `verify_holder_direction`), `coefficient_bound_check` and the former
nonzero-entry power `_pow_entries`, now one `_pow_each` call, kept verbatim
(bodies unchanged, wrapped as functions where they were inline).  Each takes
one Python float pow per entry; numpy's vectorised `np.power` differs from
it by an ulp on a few percent of the entries at full SIMD dispatch, so every
compared quantity must be `==`, not close.
"""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vexint.calderon import (
    FactorizationResult,
    HolderReport,
    _reconstructions,
    factorization_params_pp,
    factorize_pp,
    verify_holder_direction,
)
from vexint.errors import InvalidInput, PreconditionViolation
from vexint.exponents import SAMPLE_OFFSETS, build_exponent
from vexint.grid import common_grid, cube_cells, make_grid
from vexint.seqspaces import (
    DyadicCoefficients,
    _pow_each,
    coefficient_bound_check,
    f_norm,
)

GRIDS = {1: make_grid(1, 4.0, 256), 2: make_grid(2, 1.0, 32)}


# -- per-cube oracles ----------------------------------------------------------


def reconstructions_oracle(lam, lam0, lam1, norm, theta):
    out = []
    for j in range(lam.V + 1):
        nz, keys = lam.level_support(j)
        mods = (c.moduli(j)[nz].tolist() for c in (lam, lam0, lam1))
        out.extend((key, a, norm * b0 ** (1.0 - theta) * b1 ** theta)
                   for key, a, b0, b1 in zip(keys, *mods))
    return out


def max_relative_reconstruction_oracle(lam, res, theta):
    return max((abs(recon - a) / a for _key, a, recon in
                reconstructions_oracle(lam, res.lam0, res.lam1, res.lam_norm, theta)),
               default=0.0)


def domination_message_oracle(lam, lam0, lam1, theta):
    """The PreconditionViolation message of verify_holder_direction, or None."""
    bad = [key for key, a, bound in reconstructions_oracle(lam, lam0, lam1, 1.0, theta)
           if a > bound * (1.0 + 1e-9)]
    if bad:
        shown = ", ".join(str(k) for k in bad[:8])
        more = "" if len(bad) <= 8 else f" (+{len(bad) - 8} more)"
        return f"domination fails at {shown}{more}"
    return None


def coefficient_bound_check_oracle(lam, alpha, p, q):
    common_grid(lam, alpha, p, q)
    norm = f_norm(lam, alpha, p, q).value
    if norm == 0.0:
        raise InvalidInput("coefficient bound is undefined for zero norm")
    grid = lam.grid
    n = grid.n
    expo = alpha.values - n / p.values + 0.5 * n
    worst = 0.0
    for j in range(lam.V + 1):
        mod = lam.moduli(j)
        nz = np.nonzero(mod)
        # j >= 0, so the pointwise max of 2^{j expo} over a cube sits at max expo
        top = cube_cells(grid, expo, j).max(axis=-1)[nz]
        for a, e in zip(mod[nz].tolist(), top.tolist()):
            worst = max(worst, a * 2.0 ** (j * e) / norm)
    return worst


def pow_entries_oracle(mod, q):
    if q == 1.0:
        return mod
    out = np.zeros_like(mod)
    nz = np.nonzero(mod)
    out[nz] = [x ** q for x in mod[nz].tolist()]
    return out


# -- inputs ----------------------------------------------------------------------


def random_levels(grid, V, rng, zero_share):
    """Moduli log-uniform in [1e-3, 1e3], random phases, a share of zeros."""
    levels = []
    for v in range(V + 1):
        shape = (grid.cubes_per_axis(v),) * grid.n
        a = 10.0 ** rng.uniform(-3.0, 3.0, shape) * np.exp(1j * rng.uniform(0, 2 * np.pi, shape))
        a[rng.random(shape) < zero_share] = 0.0
        levels.append(a)
    return levels


@st.composite
def cases(draw):
    grid = GRIDS[draw(st.sampled_from([1, 2]))]
    V = draw(st.integers(min_value=0, max_value=grid.v_max))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    zero_share = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    lam = DyadicCoefficients(grid, V, random_levels(grid, V, rng, zero_share))

    def sine(base, role="integrability"):
        return build_exponent(grid, "sine", base=base, role=role,
                              amplitude=float(rng.uniform(0.05, 0.4)),
                              frequency=int(rng.integers(1, 4)))

    theta = draw(st.floats(min_value=0.1, max_value=0.9))
    params = factorization_params_pp(theta, sine(0.2, "smoothness"), sine(-0.1, "smoothness"),
                                     sine(2.0), sine(3.5))
    return SimpleNamespace(grid=grid, V=V, rng=rng, lam=lam, theta=theta, params=params)


def triples(case):
    """(lam0, lam1, norm): the factorization of lam, and unrelated coefficients
    whose zeros need not match the support of lam."""
    out = []
    if case.lam:
        res = factorize_pp(case.lam, case.params)
        out.append((res.lam0, res.lam1, res.lam_norm))
    grid, V, rng = case.grid, case.V, case.rng
    out.append((DyadicCoefficients(grid, V, random_levels(grid, V, rng, 0.3)),
                DyadicCoefficients(grid, V, random_levels(grid, V, rng, 0.3)),
                float(10.0 ** rng.uniform(-3.0, 3.0))))
    return out


# -- equivalence -------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(cases())
def test_reconstruction_readers_match_per_cube_oracles(case):
    lam, theta = case.lam, case.theta
    for lam0, lam1, norm in triples(case):
        want = reconstructions_oracle(lam, lam0, lam1, norm, theta)
        a, recon = _reconstructions(lam, lam0, lam1, norm, theta)
        assert [key for key, _, _ in want] == lam.support()
        assert a.tolist() == [x for _, x, _ in want]
        assert recon.tolist() == [x for _, _, x in want]
        res = FactorizationResult(lam, case.params, lam0, lam1, norm)
        assert res.reconstruction_error == max_relative_reconstruction_oracle(lam, res, theta)


@settings(max_examples=30, deadline=None)
@given(cases(), st.sampled_from([0.0, 0.1, 1.0]))
def test_domination_keys_match_per_cube_oracle(case, shrink_share):
    # lam0 of the normalised factorization, shrunk on a share of its entries
    lam, theta, params = case.lam, case.theta, case.params
    if not lam:
        return
    res = factorize_pp(lam, params)
    scaled = lam.scaled(1.0 / res.lam_norm)
    shrink = [np.where(case.rng.random(a.shape) < shrink_share, 0.5, 1.0) for a in res.lam0.levels]
    lam0 = DyadicCoefficients(case.grid, case.V, [s * a for s, a in zip(shrink, res.lam0.levels)])
    want = domination_message_oracle(scaled, lam0, res.lam1, theta)
    if want is None:
        assert isinstance(verify_holder_direction(scaled, lam0, res.lam1, params), HolderReport)
        return
    with pytest.raises(PreconditionViolation) as info:
        verify_holder_direction(scaled, lam0, res.lam1, params)
    assert str(info.value) == want


@settings(max_examples=60, deadline=None)
@given(cases(), st.one_of(st.just(1.0), st.floats(min_value=0.2, max_value=8.0)))
def test_coefficient_bound_and_entry_powers_match_per_cube_oracles(case, q):
    lam = case.lam
    for v in range(lam.V + 1):
        mod = lam.moduli(v)
        assert np.array_equal(_pow_each(mod, q), pow_entries_oracle(mod, q))
    if not lam:
        return
    params = case.params
    assert coefficient_bound_check(lam, params.alpha0, params.p0, params.p1) \
        == coefficient_bound_check_oracle(lam, params.alpha0, params.p0, params.p1)


# -- the one coefficient pow ---------------------------------------------------


def python_pow(b, e):
    try:
        return b ** e
    except OverflowError:
        return None


def assert_pow_each_is_python_pow(bases, expos):
    """_pow_each equals Python's float pow on the pairs whose pow fits the float
    range, and refuses the whole array with one InvalidInput if any pow overflows."""
    want = [python_pow(b, e) for b, e in zip(bases, expos)]
    fits = np.array([w is not None for w in want], dtype=bool)
    bases, expos = np.array(bases, dtype=np.float64), np.array(expos, dtype=np.float64)
    got = _pow_each(bases[fits], expos[fits])
    assert got.dtype == np.float64
    assert got.tobytes() == np.array([w for w in want if w is not None], dtype=np.float64).tobytes()
    if not fits.all():
        with pytest.raises(InvalidInput) as info:
            _pow_each(bases, expos)
        assert str(info.value) == "a coefficient power exceeds the float range"


# the dyadic weights 2^(l + j u) and moduli |lam| / ||lam|| from 1e-300 to
# 1e300, to the factorizations' exponents and past the float range
pow_pairs = st.lists(
    st.tuples(st.one_of(st.just(2.0), st.floats(-300.0, 300.0).map(lambda t: 10.0 ** t)),
              st.one_of(st.floats(0.0, 8.0), st.floats(-1100.0, 1100.0))),
    min_size=1, max_size=64)


@settings(max_examples=200, deadline=None)
@given(pow_pairs)
@example([(2.0, 1023.5), (1e300, 1.0), (1e-300, 3.0)])
@example([(2.0, 1024.0), (1e-3, 0.5)])
@example([(1e300, 1.5)])
def test_pow_each_is_python_pow_to_the_float_range(pairs):
    bases, expos = zip(*pairs)
    assert_pow_each_is_python_pow(bases, expos)


def compare_pows_and_offsets():
    """Fixed-seed draws of both exact comparisons: the coefficient pow against
    Python's, and the sampled offsets against the former scalar loop."""
    from test_offset_profile import assert_sampled_offsets_equal_the_former_draws

    rng = np.random.default_rng(20161)
    for _ in range(50):
        moduli = 10.0 ** rng.uniform(-300.0, 300.0, 400)
        assert_pow_each_is_python_pow(moduli.tolist(), rng.uniform(0.0, 8.0, 400).tolist())
        assert_pow_each_is_python_pow([2.0] * 400, rng.uniform(-1100.0, 1100.0, 400).tolist())
    for n in (1, 2):
        for L in (0.5, 2.0, 8.0):
            for budget in (1, 130, SAMPLE_OFFSETS):
                assert_sampled_offsets_equal_the_former_draws(n, L, budget)


def test_pows_and_offsets_hold_with_avx512_disabled():
    # numpy picks its SIMD loops at import, so the comparisons run again in a
    # process that starts with the AVX-512 loops switched off
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    script = ("import sys\n"
              "try:\n"
              "    import numpy\n"
              "except RuntimeError as exc:\n"
              "    print(exc)\n"
              "    sys.exit(3)\n"
              "import test_pow_oracles\n"
              "test_pow_oracles.compare_pows_and_offsets()\n")
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         timeout=600)
    if run.returncode == 3:
        pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES: {run.stdout.strip()}")
    assert run.returncode == 0, run.stderr
