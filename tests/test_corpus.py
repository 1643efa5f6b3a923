"""The corpus draws: the vectorized radius filter of `random_modes`
against the per-row loop it replaced, and the level check of the
coefficient draws, and the typed errors of every generator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexint import corpus
from vexint.errors import InvalidInput, ResolutionExceeded
from vexint.grid import make_grid


def random_modes_by_row(n, L, radius, count, rng):
    # the per-row filter `random_modes` used before it took one hypot reduction
    kmax = int(radius * L / np.pi)
    draws = rng.integers(-kmax, kmax + 1, size=(count, n))
    coeffs = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    modes = {}
    for row, c in zip(draws, coeffs):
        if float(np.hypot.reduce(row * np.pi / L)) <= radius:
            modes[tuple(int(k) for k in row)] = c
    return modes


@settings(max_examples=320, deadline=None)
@given(n=st.sampled_from([1, 2]),
       L=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0, 16.0]),
       radius=st.one_of(st.sampled_from([1.0, 2.0, 8.0, 64.0]), st.floats(0.05, 200.0),
                        st.integers(1, 8)),
       count=st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 300)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_random_modes_equals_the_per_row_filter(n, L, radius, count, seed):
    if isinstance(radius, int):
        # radius k pi / L: the axis modes +-k sit on the filter boundary and pass
        radius = radius * np.pi / L
    got = corpus.random_modes(n, L, radius, count, np.random.default_rng(seed))
    want = random_modes_by_row(n, L, radius, count, np.random.default_rng(seed))
    assert list(got) == list(want)
    assert all(type(k) is int for key in got for k in key)
    assert [(type(c), c) for c in got.values()] == [(type(c), c) for c in want.values()]


def test_mode_corpus_keeps_its_draw_order():
    # items share one generator, drawn item after item
    rng = np.random.default_rng(7)
    want = [random_modes_by_row(2, 2.0, 8.0, 200, rng) for _ in range(5)]
    got = corpus.mode_corpus(2, 2.0, 8.0, 5, 200, 7)
    assert [list(m.items()) for m in got] == [list(m.items()) for m in want]


class _UntouchedRng:
    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} used before the level check")


@pytest.mark.parametrize("V", [-1, 6, 8, 22, 25, 29, 30, 40])
def test_coefficient_level_is_checked_before_any_draw(V):
    # levels 22-29 would size arrays of 1-256 GiB, so a missing check must
    # fail at the first draw, before any allocation
    with pytest.raises(ResolutionExceeded):
        corpus.random_coefficients(make_grid(1, 4.0, 256), V, 5, _UntouchedRng())


@pytest.mark.parametrize("V", [30, 40])
def test_coefficient_corpus_past_the_finest_level_is_typed(V):
    # 256 GiB and 256 TiB of coefficients at V = 30 and 40
    with pytest.raises(ResolutionExceeded, match=f"level {V}"):
        corpus.coefficient_corpus(make_grid(1, 4.0, 256), V, 1, 5, 11)


# every generator names a bad argument in an InvalidInput, with no RuntimeWarning first

G = make_grid(1, 4.0, 256)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("L, radius, count, name", [
    (4.0, math.inf, 5, "radius"),  # used to raise OverflowError
    (4.0, 1e300, 5, "radius"),  # ValueError "low is out of bounds for int64"
    (4.0, -1.0, 5, "radius"),  # ValueError "low >= high"
    (4.0, math.nan, 5, "radius"),
    (0.0, 2.0, 5, "L"),  # a divide RuntimeWarning
    (4.0, 2.0, -1, "count"),  # numpy's ValueError
])
def test_random_modes_names_a_bad_argument(L, radius, count, name):
    with pytest.raises(InvalidInput, match=name):
        corpus.random_modes(1, L, radius, count, np.random.default_rng(0))


def test_random_coefficients_names_a_negative_count():
    with pytest.raises(InvalidInput, match="count must be a non-negative integer, got -1"):
        corpus.random_coefficients(G, 2, -1, np.random.default_rng(0))


@pytest.mark.parametrize("items, count, seed, name", [(1, 5, -1, "seed"), (-1, 5, 0, "items"),
                                                      (1, -1, 0, "count")])
def test_coefficient_corpus_names_a_bad_argument(items, count, seed, name):
    # a negative seed used to raise numpy's "expected non-negative integer"
    with pytest.raises(InvalidInput, match=f"{name} must be a non-negative integer"):
        corpus.coefficient_corpus(G, 2, items, count, seed)


@pytest.mark.parametrize("generator", ["mode_corpus", "band_limited_corpus"])
def test_mode_corpora_name_a_negative_seed(generator):
    args = (1, 4.0) if generator == "mode_corpus" else (G,)
    with pytest.raises(InvalidInput, match="seed must be a non-negative integer"):
        getattr(corpus, generator)(*args, 2.0, 1, 5, -1)


def test_simple_function_corpus_names_a_negative_seed():
    with pytest.raises(InvalidInput, match="seed must be a non-negative integer"):
        corpus.simple_function_corpus(G, 1, 2, -1)


@pytest.mark.parametrize("mode", [(1.5,), ("a",), 3])
def test_trig_polynomial_names_a_mode_that_is_not_integers(mode):
    # (1.5,) used to raise IndexError and ("a",) TypeError
    with pytest.raises(InvalidInput, match="in modes is not a tuple of integers"):
        corpus.trig_polynomial(G, {mode: 1.0})


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_trig_polynomial_beyond_float_range_is_typed():
    # "overflow encountered in ifft" used to come before the InvalidInput
    with pytest.raises(InvalidInput, match="exceeds the float range"):
        corpus.trig_polynomial(G, {(1,): 1e308, (2,): 1e308})
