"""Numba and numpy backends must agree bitwise on the hot kernels."""

import os
import subprocess
import sys

import numpy as np
import pytest

from vexint import _accel


@pytest.fixture
def both_backends():
    if not _accel.HAS_NUMBA:
        pytest.skip("numba unavailable; single-backend build")
    saved = _accel.get_backend()
    yield
    _accel.set_backend(saved)


def test_offset_abs_max_1d_backends_agree(both_backends):
    rng = np.random.default_rng(101)
    g = rng.normal(size=512)
    _accel.set_backend("numpy")
    a = _accel.offset_abs_max_1d(g)
    _accel.set_backend("numba")
    b = _accel.offset_abs_max_1d(g)
    assert np.array_equal(a, b)


def test_offset_abs_max_2d_backends_agree(both_backends):
    rng = np.random.default_rng(103)
    g = rng.normal(size=(32, 32))
    _accel.set_backend("numpy")
    a = _accel.offset_abs_max_2d(g)
    _accel.set_backend("numba")
    b = _accel.offset_abs_max_2d(g)
    assert np.array_equal(a, b)
    # half-plane sentinels must line up too
    assert np.array_equal(a < 0, b < 0)


def test_modular_pow_sum_backends_agree(both_backends):
    rng = np.random.default_rng(107)
    absf = np.abs(rng.normal(size=2048))
    p = rng.uniform(1.0, 4.0, size=2048)
    _accel.set_backend("numpy")
    a = _accel.modular_pow_sum(absf, p, 0.7)
    _accel.set_backend("numba")
    b = _accel.modular_pow_sum(absf, p, 0.7)
    assert a == pytest.approx(b, rel=1e-13)


def test_set_backend_resolution():
    saved = _accel.get_backend()
    try:
        assert _accel.set_backend("numpy") == "numpy"
        resolved = _accel.set_backend("auto")
        assert resolved == ("numba" if _accel.HAS_NUMBA else "numpy")
    finally:
        _accel.set_backend(saved)


def test_env_flag_selects_backend():
    code = "import vexint._accel as a; print(a.get_backend())"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "VEXINT_ACCEL": "numpy"},
    )
    assert out.stdout.strip() == "numpy"


def test_norms_identical_across_backends(both_backends):
    from vexint.exponents import build_exponent
    from vexint.grid import make_grid
    from vexint.lebesgue import luxemburg_norm

    g = make_grid(1, 4, 256)
    p = build_exponent(g, "plateau", left=2.0, right=3.0, width=1.0)
    rng = np.random.default_rng(109)
    f = np.abs(rng.normal(size=g.shape))
    _accel.set_backend("numpy")
    a = luxemburg_norm(f, p).value
    _accel.set_backend("numba")
    b = luxemburg_norm(f, p).value
    assert a == pytest.approx(b, rel=1e-12)
