"""The band-pruned transforms of `lpf._fft` against numpy's full n-D FFTs.

`_fft` must equal `np.fft.fftn`/`ifftn` bit for bit, signed zeros, inf
and NaN included, and every caller must return what it returned with
full transforms.  The oracles below are the full-transform versions of
those callers, kept verbatim (with module prefixes); results are
compared through their bits, never with a tolerance.
"""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexint import corpus
from vexint.errors import InvalidConfiguration, InvalidInput, VexintError
from vexint.exponents import build_exponent
from vexint.grid import GridFunction, _within_float_range, cube_corners, make_grid
from vexint.lebesgue import mixed_norm
from vexint.lpf import (
    F_infty_norm,
    F_norm,
    RetractReport,
    _fft,
    analyze,
    build_admissible_pair,
    build_dual_pair,
    build_resolution_of_unity,
    retract_roundtrip,
    synthesize,
)
from vexint.seqspaces import DyadicCoefficients, _constant_exponent, dyadic_tail_sup


def _bits(obj):
    """A value's exact bits: arrays as uint64 words, floats as their 8 bytes."""
    if isinstance(obj, np.ndarray):
        a = np.ascontiguousarray(obj)
        return (a.shape, a.dtype.str, a.view(np.uint64).tobytes())
    if isinstance(obj, DyadicCoefficients):
        return tuple(_bits(level) for level in obj.levels)
    if isinstance(obj, GridFunction):
        return _bits(obj.values)
    if dataclasses.is_dataclass(obj):
        return tuple(_bits(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return tuple(_bits(x) for x in obj)
    if isinstance(obj, float):
        return struct.pack("<d", obj)
    return obj


def _outcome(fn, *args):
    """fn(*args) as bits, or the typed error it raised."""
    try:
        return _bits(fn(*args))
    except VexintError as exc:
        return type(exc).__name__, str(exc)


# ------------------------------------------------- the helper against numpy


@st.composite
def sparse_inputs(draw):
    n = draw(st.sampled_from([1, 2]))
    # multiples of 8 take the pruned route, other lengths the full one
    N = draw(st.one_of(st.integers(2, 32).map(lambda k: 8 * k), st.integers(16, 256)))
    step = draw(st.sampled_from([d for d in range(1, N + 1) if N % d == 0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    fill = draw(st.sampled_from(["normal", "constant", "impulses"]))
    x = np.zeros((N,) * n, dtype=np.complex128)
    if draw(st.booleans()):
        # zeros of both signs, in the rows that stay zero and between the data
        x.real = np.where(rng.random(x.shape) < 0.5, -0.0, 0.0)
        x.imag = np.where(rng.random(x.shape) < 0.5, -0.0, 0.0)
    lines = x.reshape(-1, N)
    rows = 1 if n == 1 else draw(st.integers(0, min(N, 24)))
    for i in rng.choice(len(lines), size=rows, replace=False):
        if fill == "normal":
            lines[i] = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        elif fill == "constant":
            # transforms with many exact zeros, where a zero's sign is visible
            lines[i] = draw(st.sampled_from([1.0, -1.0, 1j, 2.0 - 1j]))
        else:
            lines[i, ::draw(st.sampled_from([d for d in (1, 2, 4, 8) if N % d == 0]))] = 1.0
    special = draw(st.sampled_from([None, np.inf, -np.inf, np.nan, complex(0.0, np.nan)]))
    if special is not None and n == 2 and not x.any(axis=1).all():
        x[rng.choice(np.flatnonzero(~x.any(axis=1))), rng.integers(N)] = special
    return x, draw(st.booleans()), step


@settings(max_examples=300, deadline=None)
@given(case=sparse_inputs())
def test_pruned_fft_is_numpys_fftn_bit_for_bit(case):
    x, inverse, step = case
    with np.errstate(invalid="ignore", over="ignore"):
        full = (np.fft.ifftn if inverse else np.fft.fftn)(x)
        got = _fft(x, inverse, step)
    assert _bits(got) == _bits(full[(slice(None, None, step),) * x.ndim])


def test_pruned_fft_keeps_the_sign_of_exact_zeros():
    # one constant row transforms to exact zeros away from column 0; the
    # other rows hold -0, so numpy's first-axis pass ends in signed zeros
    x = np.full((16, 16), complex(-0.0, -0.0))
    x[3] = 1.0
    for inverse in (False, True):
        full = (np.fft.ifftn if inverse else np.fft.fftn)(x)
        assert np.signbit(full.real).any()
        assert _bits(_fft(x, inverse)) == _bits(full)


def test_pruned_fft_at_a_length_whose_zero_line_transforms_to_minus_zero():
    # pocketfft takes 8 * 127 through Bluestein's algorithm, which turns a
    # line of +0 into one holding -0, so a skipped row of +0 does not prove
    # the +0 the helper writes; it then falls back wherever an output is 0
    zero_line = np.fft.fft(np.zeros(1016, dtype=np.complex128))
    assert np.signbit(zero_line.real).any()
    x = np.zeros((8, 1016), dtype=np.complex128)
    x[3] = 1.0
    for inverse in (False, True):
        assert _bits(_fft(x, inverse)) == _bits((np.fft.ifftn if inverse else np.fft.fftn)(x))


def test_pruned_fft_keeps_the_nan_bits_of_numpys_simd_route():
    # pocketfft runs the 192 rows of numpy's passes in SIMD pairs; at this
    # length the row of one inf makes NaNs whose signs differ between that
    # route and a line transformed on its own, as a lone row would be
    x = np.zeros((192, 192), dtype=np.complex128)
    x[5, 7] = np.inf
    with np.errstate(invalid="ignore"):
        full = np.fft.ifftn(x)
        lone = np.fft.ifft(x[5])
        assert _bits(lone) != _bits(np.fft.ifft(x[4:6], axis=1)[1])
        for step in (1, 4):
            assert _bits(_fft(x, True, step)) == _bits(full[::step, ::step])


def test_pruned_fft_transforms_a_row_holding_only_nan():
    x = np.zeros((32, 32), dtype=np.complex128)
    x[1] = np.random.default_rng(3).standard_normal(32)
    x[20, 5] = np.nan
    with np.errstate(invalid="ignore"):
        full = np.fft.ifftn(x)
        got = _fft(x, True)
    assert np.isnan(full).all()
    assert _bits(got) == _bits(full)


# ------------------------------------------- the callers against full FFTs


def oracle_analyze(f, bank):
    if f.grid != bank.grid:
        raise InvalidInput("function and bank live on different grids")
    if not bank.has_duals:
        raise InvalidConfiguration("analysis requires a dual-ready bank")
    grid = bank.grid
    spec = np.fft.fftn(f.values)
    levels = []
    for v in range(bank.V + 1):
        conv = np.fft.ifftn(np.conjugate(bank.multiplier(v)) * spec)
        levels.append(2.0 ** (-v * grid.n / 2.0) * cube_corners(grid, conv, v))
    return DyadicCoefficients(grid, bank.V, levels)


def oracle_synthesize(lam, bank):
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
        impulses *= 2.0 ** (-v * n / 2.0) / hn
        out += np.fft.ifftn(np.fft.fftn(impulses) * bank.dual_multiplier(v))
    return GridFunction(grid, out)


def oracle_retract_roundtrip(f, bank):
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
        fv = np.fft.ifftn(bank.multiplier(v) * spec)
        out += np.fft.ifftn(bank.omegas[v] * np.fft.fftn(fv))
    residual = float(np.abs(out - f.values).max()) / sup
    return RetractReport(residual, band_limited, 2.0 ** bank.V)


def oracle_F_norm(f, alpha, p, q, bank):
    if f.grid != bank.grid or alpha.grid != bank.grid:
        raise InvalidInput("function, fields, and bank must share one grid")
    family = []
    with _within_float_range("a level integrand 2^(v alpha q) |phi_v * f|^q", 1.0):
        spec = np.fft.fftn(f.values)
        for v in range(bank.V + 1):
            conv = np.fft.ifftn(bank.multiplier(v) * spec)
            family.append(np.exp2(v * alpha.values) * np.abs(conv))
    return mixed_norm(family, p, q)


def oracle_F_infty_norm(f, alpha, q, bank):
    if f.grid != bank.grid or alpha.grid != bank.grid:
        raise InvalidInput("function, fields, and bank must share one grid")
    q = _constant_exponent(q)
    levels = []
    with _within_float_range("a level integrand 2^(v alpha q) |phi_v * f|^q", q):
        spec = np.fft.fftn(f.values)
        for v in range(bank.V + 1):
            conv = np.fft.ifftn(bank.multiplier(v) * spec)
            levels.append(np.exp2(v * q * alpha.values) * np.abs(conv) ** q)
    return dyadic_tail_sup(bank.grid, levels, q)


def oracle_trig_polynomial(grid, modes):
    spec = np.zeros(grid.shape, dtype=np.complex128)
    for k, c in modes.items():
        spec[tuple(ki % grid.N for ki in k)] += c
    return GridFunction(grid, np.fft.ifftn(spec) * grid.size)


GRIDS = [(1, 2.0, 256, 3), (2, 2.0, 256, 3), (2, 1.0, 64, 2), (1, 1.0, 32, 1)]


def _case(n, L, N, V, seed):
    grid = make_grid(n, L, N)
    dual = build_dual_pair(build_admissible_pair(grid, V))
    rou = build_resolution_of_unity(grid, V)
    alpha = build_exponent(grid, "sine", role="smoothness", base=0.3, amplitude=0.2, frequency=1)
    p = build_exponent(grid, "sine", base=2.5, amplitude=0.5, frequency=2)
    q = build_exponent(grid, "constant", value=1.7)
    modes = corpus.mode_corpus(n, L, dual.band_radius, 3, 40, seed)
    return grid, dual, rou, alpha, p, q, modes


@pytest.mark.parametrize("n, L, N, V", GRIDS)
def test_callers_equal_their_full_transform_versions(n, L, N, V):
    grid, dual, rou, alpha, p, q, modes = _case(n, L, N, V, 41 + N + n)
    rng = np.random.default_rng(N + n)
    items = [corpus.trig_polynomial(grid, m) for m in modes]
    for m, f in zip(modes, items):
        assert _bits(f) == _bits(oracle_trig_polynomial(grid, m))
    dense = GridFunction(grid, rng.standard_normal(grid.shape))  # real: exact-zero imaginary parts
    for f in [*items, dense, GridFunction.zeros(grid)]:
        assert _outcome(analyze, f, dual) == _outcome(oracle_analyze, f, dual)
        assert _outcome(retract_roundtrip, f, rou) == _outcome(oracle_retract_roundtrip, f, rou)
        for bank in (dual, rou):
            assert _outcome(F_norm, f, alpha, p, q, bank) == \
                _outcome(oracle_F_norm, f, alpha, p, q, bank)
            assert _outcome(F_infty_norm, f, alpha, 1.7, bank) == \
                _outcome(oracle_F_infty_norm, f, alpha, 1.7, bank)
    lams = [analyze(items[0], dual), *corpus.coefficient_corpus(grid, V, 3, 12, N)]
    for lam in lams:
        assert _bits(synthesize(lam, dual)) == _bits(oracle_synthesize(lam, dual))


def test_callers_transform_the_rows_a_multiplier_zeroes():
    # the spectrum overflows on two rows outside every level's band, where
    # the multipliers are 0: 0 * inf is nan there, and the full transform
    # spreads it over the whole level, so deciding the rows from the
    # multiplier's support instead of the data would give a different answer
    grid, dual, rou, alpha, p, q, _ = _case(2, 1.0, 64, 2, 0)
    f = GridFunction(grid, 1e305 * np.cos(3.0 * np.pi * grid.coords()[0] / grid.L))
    with np.errstate(over="ignore", invalid="ignore"):
        spec = np.fft.fftn(f.values)
        hot = np.flatnonzero(~np.isfinite(spec).all(axis=1))
        assert hot.tolist() == [3, 61]
        for bank in (dual, rou):
            assert not any(bank.multiplier(v)[hot].any() for v in range(bank.V + 1))
        pairs = [
            (_outcome(retract_roundtrip, f, rou), _outcome(oracle_retract_roundtrip, f, rou)),
            (_outcome(F_norm, f, alpha, p, q, dual), _outcome(oracle_F_norm, f, alpha, p, q, dual)),
            (_outcome(analyze, f, dual), _outcome(oracle_analyze, f, dual)),
        ]
    for got, want in pairs:
        assert got == want
