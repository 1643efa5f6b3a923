"""Every name a vexint module exports through `__all__` resolves, and every
defaulted parameter of the public API is one that a caller turns."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import vexint

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
