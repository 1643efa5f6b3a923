"""The QUADPACK port against scipy's compiled dqagse, bit for bit.

`scipy.integrate.quad` is the oracle here and only here: the library
integrates with `vexint._quadpack.qagse`.  Every comparison is `==` on the
value, the error estimate, the subinterval count and the error code.
"""

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from vexint import PreconditionWarning, kernels
from vexint._quadpack import qagse
from vexint.grid import make_grid

# quad(full_output=1) returns a message in place of ier when ier is 1..5,
# and raises ValueError for ier 6
_MESSAGES = {
    "The maximum number of subdivisions": 1,
    "The occurrence of roundoff error": 2,
    "Extremely bad integrand behavior": 3,
    "The algorithm does not converge": 4,
    "The integral is probably divergent": 5,
}

INTEGRANDS = {
    "rsqrt": lambda x: 1.0 / math.sqrt(x),
    "log": math.log,
    "inv": lambda x: 1.0 / x,
    "x^-0.99": lambda x: x ** -0.99,
    "|x-1/3|^-1": lambda x: 1.0 / abs(x - 1.0 / 3.0),
    "(x-1/3)^-2": lambda x: 1.0 / (x - 1.0 / 3.0) ** 2,
}


def scipy_qagse(f, a, b, epsabs, epsrel, limit):
    """(value, abserr, last, ier) of scipy.integrate.quad on [a, b]."""
    try:
        out = quad(f, a, b, full_output=1, epsabs=epsabs, epsrel=epsrel, limit=limit)
    except ValueError:
        return 0.0, 0.0, 0, 6
    if len(out) == 3:
        return out[0], out[1], out[2]["last"], 0
    ier = [code for prefix, code in _MESSAGES.items() if out[3].startswith(prefix)]
    assert len(ier) == 1, out[3]
    return out[0], out[1], out[2]["last"], ier[0]


def box_mass_integrals(n, L, v, m):
    """[(port, oracle)] for each integral `kernels._box_mass` takes."""
    pairs = []

    def both(f, lo, hi, **opts):
        ours = qagse(f, lo, hi, **opts)
        pairs.append((ours, scipy_qagse(f, lo, hi, **opts)))
        return ours
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(kernels, "qagse", both)
        warnings.simplefilter("ignore", PreconditionWarning)
        kernels._box_mass(n, L, v, m)
    return pairs


@settings(max_examples=300, deadline=None)
@given(n=st.sampled_from([1, 2]), v=st.integers(0, 11),
       L=st.floats(0.5, 2048.0), m=st.floats(1.5, 8.0))
def test_box_mass_integrals_match_scipy(n, v, L, m):
    pairs = box_mass_integrals(n, L, v, m)
    assert len(pairs) == n  # the 2D mass is the inner disc plus the corner arcs
    for ours, oracle in pairs:
        assert ours == oracle


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(["rsqrt", "log"]),
       epsabs=st.sampled_from([0.0, 1e-14, 1e-12, 1e-8]),
       epsrel=st.floats(3e-15, 1e-2), limit=st.integers(1, 60))
def test_extrapolated_integrals_match_scipy(name, epsabs, epsrel, limit):
    f = INTEGRANDS[name]
    assert qagse(f, 0.0, 1.0, epsabs, epsrel, limit) == \
        scipy_qagse(f, 0.0, 1.0, epsabs, epsrel, limit)


@pytest.mark.parametrize("name, epsabs, epsrel, limit, ier", [
    ("rsqrt", 0.0, 1e-10, 50, 0),        # converged by extrapolation
    ("log", 0.0, 1e-12, 50, 0),
    ("rsqrt", 0.0, 1e-10, 3, 1),         # limit exit before extrapolating
    ("inv", 0.0, 1e-8, 50, 1),           # limit exit on a divergent integral
    ("rsqrt", 1e-14, 5e-15, 50, 2),      # roundoff exit
    ("|x-1/3|^-1", 0.0, 1e-8, 50, 3),    # bad integrand: an interval at machine width
    ("x^-0.99", 1e-14, 1e-14, 50, 4),    # roundoff in the extrapolation table
    ("(x-1/3)^-2", 0.0, 1e-8, 50, 5),    # divergence test
    ("rsqrt", 0.0, 1e-14, 50, 6),        # epsrel below 50 epsilon with epsabs 0
])
def test_every_exit_matches_scipy(name, epsabs, epsrel, limit, ier):
    f = INTEGRANDS[name]
    ours = qagse(f, 0.0, 1.0, epsabs, epsrel, limit)
    assert ours[3] == ier
    assert ours == scipy_qagse(f, 0.0, 1.0, epsabs, epsrel, limit)


def test_box_mass_error_code_warns():
    # a scaled box 2^v L = 16384 ends in ier 4 (roundoff in the extrapolation table)
    with pytest.warns(PreconditionWarning, match=r"ier=4") as record:
        k = kernels.eta(10, 8.0, make_grid(1, 16.0, 128))
    assert "[0.0, 16384.0]" in str(record[0].message)
    assert math.isfinite(k.mass)
