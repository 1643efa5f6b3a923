"""The corpus draws: the vectorized radius filter of `random_modes`
against the per-row loop it replaced, and the level check of the
coefficient draws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexint import corpus
from vexint.errors import ResolutionExceeded
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
