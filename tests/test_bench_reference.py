"""The regularity benchmark's recorded outputs, replayed in the test suite.

`perfbench/worker.py` builds each benchmark input from a variant number and
checks the outputs against `perfbench/reference.json` with `==`.  Every
variant of the regularity workload runs here through the worker's own
class, so that a change to the offset scans that moves a recorded bit fails
here as well as in the benchmark; the Jensen check's memory is measured on
the same input.  The worker module is only imported.
"""

import importlib.util
import json
import tracemalloc
from pathlib import Path

import pytest

import vexint
from vexint import kernels

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("variant", range(16))
def test_regularity_2d_equals_the_recorded_references(variant):
    worker = _worker()
    body = worker.Regularity2D(vexint, variant, None)
    body.self_test()
    got = body.run()
    want = json.loads((PERFBENCH / "reference.json").read_text())["regularity-2d"][str(variant)]
    assert set(got) == {"c_loc", "c_dec", "alpha_shift_c", "jensen_margin"} == set(want)
    assert got == want


def test_jensen_check_holds_few_field_sized_arrays(monkeypatch):
    # the level loop of verify_jensen_gamma on the benchmark's N = 512 input,
    # with its log-Hoelder scan stubbed out: the averages, the two sides and
    # the margin are built in place, so no more than 8 arrays of the field's
    # size are alive at once
    body = _worker().Regularity2D(vexint, 7, None)
    report = kernels.log_holder_constants(body.p.reciprocal())
    monkeypatch.setattr(kernels, "log_holder_constants", lambda field: report)
    tracemalloc.start()
    try:
        kernels.verify_jensen_gamma(body.p, 3.0, body.f, [0, 1, 2, 3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * body.f.nbytes
