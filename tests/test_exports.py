"""Every name a vexint module exports through `__all__` resolves, every
defaulted parameter of the public API is one that a caller turns, and every
public entry that takes two grid-carrying arguments checks them with
`grid.common_grid`, no function but the float-range guard
`grid._within_float_range` and a listed few sets numpy's error handling, and
the CLI maps config errors in `_reading` and writes reports in `_write` only."""

import ast
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import vexint
from vexint.calderon import build_level_sets, case_classifier, factorization_params_pq_infty
from vexint.errors import InvalidInput
from vexint.exponents import ExponentField, build_exponent
from vexint.grid import GridFunction, make_grid
from vexint.interp import inter_rest_check
from vexint.kernels import verify_jensen_gamma
from vexint.lebesgue import luxemburg_norm, modular, modular_at, unit_ball_check
from vexint.lpf import F_infty_norm, F_norm, build_admissible_pair, build_resolution_of_unity
from vexint.seqspaces import DyadicCoefficients, f_infty_norm, f_infty_subset_norm, \
    full_selection, level_function

MODULES = ["vexint"] + [f"vexint.{m.name}" for m in pkgutil.iter_modules(vexint.__path__)]
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ lists a name twice"
    assert [x for x in exported if not hasattr(module, x)] == []


# defaulted parameters that no library or benchmark call sets, kept on purpose
KNOB_ALLOWLIST = {
    "lebesgue.luxemburg_norm.tol": "the one tolerance entry; the Luxemburg oracle sweeps it",
    "kernels.verify_alpha_shift.samples": "tests reach the sampled offset route at desk scale",
    "kernels.verify_jensen_gamma.gamma_override": "tests reach the undamped estimate with it",
    "lpf.vanishing_moments.gammas": "a lemma check that only the tests call",
    "lpf.vanishing_moments.step": "a lemma check that only the tests call",
    "cli.main.argv": "the command line; tests and the benchmark hand it in through a wrapper",
}


def _defaulted(module: str, tree: ast.Module):
    """(module.function.parameter, function, call position or None) per defaulted
    parameter of a public function or public-class method; None is keyword-only."""
    scopes = [(0, tree)] + [(1, c) for c in tree.body
                            if isinstance(c, ast.ClassDef) and not c.name.startswith("_")]
    for skip, scope in scopes:
        for f in scope.body:
            if not isinstance(f, ast.FunctionDef) or f.name.startswith("_"):
                continue
            pos = [x.arg for x in f.args.posonlyargs + f.args.args][skip:]
            named = [(pos[i], i) for i in range(len(pos) - len(f.args.defaults), len(pos))]
            named += [(k.arg, None) for k, d in zip(f.args.kwonlyargs, f.args.kw_defaults) if d]
            yield from ((f"{module}.{f.name}.{name}", f.name, i) for name, i in named)


def _set_slots(node: ast.AST, found: dict, own=frozenset()) -> dict:
    """{callee name: slots some call sets}, by bare name.  A slot is a keyword, "**", a
    position, or (position, name) for an argument that is the caller's own parameter."""
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        own = {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
    if isinstance(node, ast.Call):
        slots = found.setdefault(getattr(node.func, "id", getattr(node.func, "attr", None)), set())
        for i, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                break
            slots.add((i, arg.id) if isinstance(arg, ast.Name) and arg.id in own else i)
        for kw in node.keywords:
            if not (isinstance(kw.value, ast.Name) and kw.value.id == kw.arg and kw.arg in own):
                slots.add(kw.arg or "**")
    for child in ast.iter_child_nodes(node):
        _set_slots(child, found, own)
    return found


def test_every_defaulted_parameter_is_set_by_some_caller():
    src = sorted((ROOT / "src" / "vexint").glob("*.py"))
    found: dict = {}
    for path in src + sorted((ROOT / "perfbench").glob("*.py")):
        _set_slots(ast.parse(path.read_text(encoding="utf-8")), found)
    params = [p for path in src for p in _defaulted(path.stem, ast.parse(path.read_text()))]

    def is_set(qualified, fn, i):
        name, slots = qualified.rsplit(".", 1)[1], found.get(fn, set())
        passed_on = {s[1] for s in slots if isinstance(s, tuple) and s[0] == i}
        return bool({name, "**", i} & slots) or bool(passed_on - {name})
    unset = {q for q, fn, i in params if not is_set(q, fn, i)} - set(KNOB_ALLOWLIST)
    assert unset == set(), "settings that no caller turns"
    assert set(KNOB_ALLOWLIST) <= {q for q, _, _ in params}, "allowlist names a stale parameter"


# types whose instances carry a grid, as the public signatures annotate them
GRID_TYPES = {"GridFunction", "ExponentField", "DyadicCoefficients", "FilterBank",
              "FactorizationParams", "SubsetSelection"}

# public entries with two grid-carrying parameters that call no common_grid themselves
GRID_ALLOWLIST = {
    "calderon.factorize": "dispatches to factorize_pp or factorize_pq_infty, which check",
    "calderon.calderon_upper": "runs factorize, whose constructions check",
    "interp.scalar_interp_sandwich": "competitor_family checks p0, p1 and the masks first",
    "lpf.transform_roundtrip": "analyze checks f and the bank first",
}


def _grid_params(f: ast.FunctionDef) -> int:
    args = f.args.posonlyargs + f.args.args + f.args.kwonlyargs
    return sum(1 for a in args if a.annotation is not None
               and GRID_TYPES & set(re.findall(r"\w+", ast.unparse(a.annotation))))


def _calls_common_grid(f: ast.FunctionDef) -> bool:
    return any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "common_grid"
               for n in ast.walk(f))


def test_every_public_entry_on_two_grids_checks_them():
    entries = {}
    for path in sorted((ROOT / "src" / "vexint").glob("*.py")):
        for f in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_") \
                    and _grid_params(f) >= 2:
                entries[f"{path.stem}.{f.name}"] = _calls_common_grid(f)
    unchecked = {name for name, checks in entries.items() if not checks}
    assert unchecked - set(GRID_ALLOWLIST) == set(), "entries that skip common_grid"
    assert set(GRID_ALLOWLIST) <= unchecked, "allowlist names an entry that checks or is gone"


def _mismatched_calls():
    """One call per public entry that computed with a second grid's spacing:
    g and g2 have the same N and a different L."""
    g, g2 = make_grid(1, 4.0, 256), make_grid(1, 2.0, 256)

    def p(grid, value=2.0):
        return build_exponent(grid, "constant", value=value)

    def alpha(grid):
        return build_exponent(grid, "constant", value=0.3, role="smoothness")
    f = GridFunction(g, np.cos(g.axis))
    lam = DyadicCoefficients(g, 2, {(0, (1,)): 3.0, (2, (5,)): -1.0})
    return {
        "F_norm": lambda: F_norm(f, alpha(g), p(g2), p(g2, 3.0),
                                 build_resolution_of_unity(g, 3)),
        "luxemburg_norm": lambda: luxemburg_norm(f, p(g2)),
        # an array carries no grid, only a shape to check
        "luxemburg_norm-array": lambda: luxemburg_norm(np.ones(128), p(g)),
        "modular_at": lambda: modular_at(f, p(g2), 2.0),
        "modular": lambda: modular(f, p(g2)),
        "unit_ball_check": lambda: unit_ball_check(f, p(g2)),
        "verify_jensen_gamma": lambda: verify_jensen_gamma(
            p(g), 2.0, GridFunction(g2, np.full(g2.shape, 0.01)), [0, 1]),
        "case_classifier": lambda: case_classifier(p(g), p(g, 3.0), p(g2), p(g2, 3.0), 0.5),
        "level_function": lambda: level_function(lam, alpha(g2), 1),
        "f_infty_subset_norm": lambda: f_infty_subset_norm(
            lam, alpha(g), 2.0, full_selection(DyadicCoefficients(g2, 2, {(0, (1,)): 1.0}))),
    }


@pytest.mark.parametrize("entry", sorted(_mismatched_calls()))
def test_entries_refuse_arguments_on_different_grids(entry):
    with pytest.raises(InvalidInput, match="different grids"):
        _mismatched_calls()[entry]()


# functions that set numpy's error handling themselves, besides the one
# float-range guard, grid._within_float_range
ERRSTATE_ALLOWLIST = {
    "_accel.modular_pow_sum": "an overflowed sum reads as > 1, which its callers expect",
    "interp.PoissonPair.mu0": "a cosh overflow divides out to the correct limit 0",
    "interp.PoissonPair.mu1": "a cosh overflow divides out to the correct limit 0",
    "calderon._p_infty": "ExponentField refuses the overflowed inf as InvalidExponent",
    "kernels.verify_alpha_shift": "an overflowed bound only widens the scan, and a non-finite "
                                  "result is refused",
    "exponents.log_holder_constants": "1/0 at the zero offset, whose weight is then set to 0",
}


def _sites(node: ast.AST, is_site, scope: str = "", found=None) -> set:
    """Qualified names of the functions whose own body, nested functions and
    classes aside, holds a node for which is_site is true."""
    found = set() if found is None else found
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            _sites(child, is_site, scope, found)
            continue
        name = f"{scope}.{child.name}" if scope else child.name
        own, stack = [], list(ast.iter_child_nodes(child))
        while stack:
            n = stack.pop()
            if not isinstance(n, (ast.FunctionDef, ast.ClassDef)):
                own.append(n)
                stack.extend(ast.iter_child_nodes(n))
        if isinstance(child, ast.FunctionDef) and any(map(is_site, own)):
            found.add(name)
        _sites(child, is_site, name, found)
    return found


def _errstate_callers(node: ast.AST, scope: str, found: set) -> set:
    """Qualified names of the functions whose own body, nested functions and
    classes aside, calls errstate."""
    return _sites(node, lambda n: isinstance(n, ast.Call) and "errstate" in (
        getattr(n.func, "attr", None), getattr(n.func, "id", None)), scope, found)


def test_only_the_float_range_guard_sets_numpy_error_handling():
    found: set = set()
    for path in sorted((ROOT / "src" / "vexint").glob("*.py")):
        _errstate_callers(ast.parse(path.read_text(encoding="utf-8")), path.stem, found)
    assert "grid._within_float_range" in found
    assert found - {"grid._within_float_range"} - set(ERRSTATE_ALLOWLIST) == set(), \
        "functions that set numpy's error handling outside the float-range guard"
    assert set(ERRSTATE_ALLOWLIST) <= found, "allowlist names a site that is gone"


def _names(node) -> set:
    return {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}


# the CLI's one config-error mapper and one report writer: the functions of cli.py
# that hold each kind of site, exactly
CLI_SITES = {
    "except VexintError": (
        lambda n: isinstance(n, ast.ExceptHandler) and n.type is not None
        and "VexintError" in _names(n.type),
        {"_reading", "_execute"}),
    "ConfigError(...)": (
        lambda n: isinstance(n, ast.Call) and getattr(n.func, "id", None) == "ConfigError",
        # the missing-recipe message is built where the recipes are looked up
        {"load_config", "_reading", "Experiment.fields"}),
    "write_text": (
        lambda n: isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "write_text",
        {"_write"}),
}


@pytest.mark.parametrize("site", sorted(CLI_SITES))
def test_cli_maps_config_errors_and_writes_reports_in_one_place(site):
    is_site, allowed = CLI_SITES[site]
    tree = ast.parse((ROOT / "src" / "vexint" / "cli.py").read_text(encoding="utf-8"))
    assert _sites(tree, is_site) == allowed


def _constant_q_calls(q):
    """One call per entry that reads a constant q, given the field q."""
    g = q.grid
    p = build_exponent(g, "constant", value=2.0)
    alpha = build_exponent(g, "constant", value=0.3, role="smoothness")
    f = GridFunction(g, np.cos(g.axis))
    lam = DyadicCoefficients(g, 2, {(0, (1,)): 3.0, (2, (5,)): -1.0})
    params = dataclasses.replace(factorization_params_pq_infty(0.5, alpha, alpha, p, 2.0, 3.0),
                                 q=q)
    return {
        "f_infty_norm": lambda: f_infty_norm(lam, alpha, q),
        "F_infty_norm": lambda: F_infty_norm(f, alpha, q, build_admissible_pair(g, 2)),
        "build_level_sets": lambda: build_level_sets(lam, params),
        "inter_rest_check": lambda: inter_rest_check(f, 0.0, 0.0, p, p, q, 2.0, 0.5,
                                                     build_resolution_of_unity(g, 2)),
    }


def _near_constant_q(g):
    """q = 2 but one entry 2e-13 above it."""
    values = np.full(g.shape, 2.0)
    values[3] += 2e-13
    return ExponentField(g, values, 2.0, float(values.max()), "integrability")


@pytest.mark.parametrize("entry", ["F_infty_norm", "build_level_sets", "f_infty_norm",
                                   "inter_rest_check"])
@pytest.mark.parametrize("spread", ["sine", "2e-13"])
def test_entries_refuse_a_variable_q_alike(entry, spread):
    # a spread up to 1e-12 used to pass inter_rest_check, with UnsupportedParameters
    # beyond it, while the norms refused any spread with InvalidInput
    g = make_grid(1, 4.0, 256)
    q = (build_exponent(g, "sine", base=2.0, amplitude=0.3) if spread == "sine"
         else _near_constant_q(g))
    with pytest.raises(InvalidInput, match="a constant q0? is required here"):
        _constant_q_calls(q)[entry]()


def test_case_ii_needs_exactly_constant_q():
    # case_classifier used to count a spread up to 1e-12 as constant
    g = make_grid(1, 4.0, 256)
    p0, p1 = (build_exponent(g, "constant", value=v) for v in (2.0, 4.0))
    q1 = build_exponent(g, "constant", value=3.0)
    assert case_classifier(p0, p1, build_exponent(g, "constant", value=2.0), q1, 0.5) \
        == "case-ii"
    assert case_classifier(p0, p1, _near_constant_q(g), q1, 0.5) == "unsupported"
