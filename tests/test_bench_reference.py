"""The regularity benchmark's recorded outputs, replayed in the test suite.

`perfbench/worker.py` builds each benchmark input from a variant number and
checks the outputs against `perfbench/reference.json` with `==`.  Two
variants of the regularity workload run here through the worker's own
class, so that a change to the offset scans that moves a recorded bit fails
here as well as in the benchmark.  The worker module is only imported.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import vexint

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("variant", [7, 9])
def test_regularity_2d_equals_the_recorded_references(variant):
    worker = _worker()
    body = worker.Regularity2D(vexint, variant, None)
    body.self_test()
    got = body.run()
    want = json.loads((PERFBENCH / "reference.json").read_text())["regularity-2d"][str(variant)]
    assert set(got) == {"c_loc", "c_dec", "alpha_shift_c", "jensen_margin"} == set(want)
    assert got == want
