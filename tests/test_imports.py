"""What importing vexint loads, and what the benchmark's tracer finds in it.

scipy is a test-only oracle: no library module imports it, at the top or
inside a function.  jsonschema is imported by `cli.load_config` on first
use.  Each import check runs in a fresh interpreter, because this test
process has imported both already.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout


def _imports(tree: ast.AST):
    """Every module name an Import, ImportFrom or import_module("...") call names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant)
              and getattr(node.func, "attr", getattr(node.func, "id", None))
              in ("import_module", "__import__")):
            yield str(node.args[0].value)


def test_no_library_module_imports_scipy():
    sources = sorted((SRC / "vexint").glob("*.py"))
    assert sources
    offenders = [(path.name, name) for path in sources
                 for name in _imports(ast.parse(path.read_text(encoding="utf-8")))
                 if name == "scipy" or name.startswith("scipy.")]
    assert offenders == []


def test_the_import_walk_sees_function_level_imports():
    tree = ast.parse("def f():\n    from scipy.integrate import quad\n"
                     "def g():\n    importlib.import_module('scipy.special')\n")
    assert list(_imports(tree)) == ["scipy.integrate", "scipy.special"]


@pytest.mark.parametrize("module", ["vexint", "vexint.cli"])
def test_import_loads_neither_scipy_nor_jsonschema(module):
    loaded = _run(f"import json, sys, {module}\n"
                  "print(json.dumps([m for m in ('scipy', 'jsonschema') if m in sys.modules]))")
    assert json.loads(loaded) == []


def test_every_name_the_benchmark_tracer_wraps_resolves():
    # install_tracer patches vexint's modules in place, so it runs in a child;
    # a name it cannot find silently drops that metric from a traced run
    out = _run("import json, sys\n"
               f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}]\n"
               "from layers import install_tracer\n"
               "t = install_tracer(memory=False)\n"
               "print(json.dumps({'missing': sorted(t.missing), "
               "'installed': len(t.installed)}))")
    report = json.loads(out.splitlines()[-1])
    assert report["missing"] == []
    assert report["installed"] > 0
