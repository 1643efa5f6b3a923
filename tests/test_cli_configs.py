"""Schema-valid configs through `vexint run` and `vexint norm`: every one
ends in exit 0, 1 or 2, never in a traceback or a RuntimeWarning.

The strategy mirrors CONFIG_SCHEMA on small grids: every optional key may be
absent, recipe parameters the schema does not require may be missing, and
values reach the edges the library must refuse with a typed error (exponents
at and below 1 and up to 60, theta next to 0 and 1, grids make_grid rejects,
levels past the finest one).  JSON numbers are finite, so the draws are.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from vexint import cli
from vexint.cli import (CONFIG_SCHEMA, DEFAULT_TOLERANCES, EXIT_CONFIG, EXIT_CONTRACT,
                        EXIT_PASS, EXPERIMENT_KINDS, NORM_KINDS, main)

EXPONENTS = CONFIG_SCHEMA["properties"]["exponents"]["properties"]


def _mostly(usual, edge, one_in=5):
    """`usual`, or `edge` one draw in `one_in`."""
    return st.integers(1, one_in).flatmap(lambda i: edge if i == 1 else usual)


# integrability exponents, smoothness exponents, and values neither accepts
edges = st.sampled_from([0.5, 0.0, -1.0, 1e3])
p_values = _mostly(st.sampled_from([1.0, 1.0 + 1e-12, 1.5, 2.0, 2.4, 3.0, 8.0, 60.0])
                   | st.floats(1.0, 60.0), edges, 20)
alpha_values = _mostly(st.sampled_from([-0.3, 0.0, 0.2, 0.5]) | st.floats(-1.0, 1.0),
                       edges, 20)
amplitudes = _mostly(st.sampled_from([0.0, 0.1, 0.3]) | st.floats(-0.5, 0.5), edges, 20)
# a width past L is refused
widths = _mostly(st.sampled_from([0.25, 0.5]) | st.floats(1e-3, 0.5),
                 st.sampled_from([1.0, 4.0]), 20)


def _recipe(name, required, optional):
    # the schema requires only "recipe": the parameters may be missing
    return _mostly(st.fixed_dictionaries({"recipe": st.just(name), **required},
                                         optional=optional),
                   st.fixed_dictionaries({"recipe": st.just(name)},
                                         optional={**required, **optional}), 20)


def recipes(values):
    return st.one_of(
        _recipe("constant", {"value": values}, {}),
        _recipe("sine", {"base": values, "amplitude": amplitudes},
                {"frequency": st.integers(1, 3)}),
        _recipe("plateau", {"left": values, "right": values, "width": widths}, {}))


exponents = {name: recipes(alpha_values if name.startswith("alpha") else p_values)
             for name in EXPONENTS}
records = st.lists(st.tuples(st.integers(0, 3),
                             st.lists(st.integers(0, 8), min_size=1, max_size=2),
                             alpha_values, alpha_values).map(list), max_size=4)


@st.composite
def grids(draw):
    n = draw(st.sampled_from([1, 2]))
    usual = st.fixed_dictionaries({
        "n": st.just(n), "L": st.sampled_from([0.5, 1.0, 2.0]),
        "N": st.sampled_from([16, 32, 64] if n == 1 else [16, 32])})
    # a box make_grid refuses: L not a power of two or below 1/2, N not a
    # power of two, or N < 8L
    edge = st.fixed_dictionaries({"n": st.just(n), "L": st.sampled_from([0.25, 3.0, 4.0]),
                                  "N": st.sampled_from([16, 48])})
    return draw(_mostly(usual, edge))


@st.composite
def configs(draw):
    grid = draw(grids())
    v_max = max(0, int(round(math.log2(grid["N"] / (8.0 * grid["L"])))))
    cfg = {
        "kind": draw(st.sampled_from(EXPERIMENT_KINDS)),
        "grid": grid,
        "corpus": draw(st.fixed_dictionaries(
            {"seed": st.integers(0, 2 ** 31)},
            optional={"items": st.integers(1, 3),
                      "count": st.sampled_from([1, 5, 50]),
                      "regions": st.integers(1, 4),
                      "distribution": st.just("log-uniform")})),
    }
    optional = {
        "levels": _mostly(st.integers(0, v_max), st.just(v_max + 1)),
        "exponents": _mostly(st.fixed_dictionaries(exponents),
                             st.fixed_dictionaries({}, optional=exponents)),
        "theta": st.lists(st.one_of(st.sampled_from([1e-9, 1e-8, 0.3, 0.5, 0.999999,
                                                     1.0 - 1e-9]),
                                    st.floats(0.0, 1.0, exclude_min=True,
                                              exclude_max=True)),
                          min_size=1, max_size=2),
        "coefficients": st.fixed_dictionaries(
            {}, optional={"lam": records, "lam0": records, "lam1": records}),
        "construction": st.sampled_from(["pp", "pq-infty"]),
        "tolerances": st.dictionaries(
            st.sampled_from(sorted(DEFAULT_TOLERANCES)),
            st.floats(1e-12, 10.0)),
    }
    for key, strategy in optional.items():
        # exponents are read by every kind but the suite
        if key == "exponents" or draw(st.booleans()):
            cfg[key] = draw(strategy)
    return cfg


# a failing config is reported as drawn: shrinking it through whole CLI runs takes minutes
@settings(max_examples=100, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(cfg=configs(), verb=st.sampled_from([["run"], *(["norm", "--kind", which]
                                                       for which in NORM_KINDS)]))
def test_schema_valid_configs_exit_with_a_code(cfg, verb):
    suite_calls = []

    def suite(seed, csv_path, json_path):
        # the acceptance suite itself is covered by its own CLI tests
        suite_calls.append((seed, csv_path, json_path))
        return EXIT_PASS

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        cfg = {**cfg, "output": {"csv": str(out / "rows.csv"), "json": str(out / "report.json")}}
        path = out / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        with warnings.catch_warnings(), mock.patch.object(cli, "cmd_suite", suite), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("error", RuntimeWarning)
            code = main([*verb, str(path)])
        assert code in (EXIT_PASS, EXIT_CONTRACT, EXIT_CONFIG)
        if suite_calls:
            assert verb == ["run"] and cfg["kind"] == "suite"
            assert suite_calls == [(cfg["corpus"]["seed"], *cfg["output"].values())]
        elif code == EXIT_PASS:
            assert (out / "rows.csv").exists()
