"""The seventeen acceptance criteria, one test and one pass/fail line each.

Criteria 1-16 are consumed from a single shared suite run so the whole
matrix is exercised exactly as the CLI runs it; each test re-pins the
stated tolerances and scales against the report rows.  Criterion 17 is
the suite's own determinism and runtime contract.
"""

import hashlib
import json
import multiprocessing
import os
import random

import numpy as np
import pytest

from vexint import acceptance, cli
from vexint.acceptance import CSV_HEADER, SCALE_1D, SCALE_2D, rows_to_csv, run_suite
from vexint.calderon import NO_CLASS, build_level_sets, factorization_params_pq_infty, \
    factorize_pq_infty
from vexint.corpus import random_coefficients
from vexint.errors import InvalidInput
from vexint.exponents import build_exponent
from vexint.grid import Grid, make_grid

SEED = 20260819


@pytest.fixture(scope="module")
def suite():
    return run_suite(SEED)


def result(suite, cid):
    res = suite.results[cid - 1]
    assert res.cid == cid
    return res


def report(res, ok):
    worst = min(r.margin for r in res.rows)
    line = (f"criterion {res.cid:2d} ({res.title}): "
            f"{'PASS' if ok else 'FAIL'} "
            f"worst margin {worst:.3e} [{res.elapsed:.2f}s]")
    print(line)
    assert ok, line


def test_criterion_01_exponent_identities(suite):
    res = result(suite, 1)
    ok = (res.passed and len(res.rows) == 100
          and all(r.bound == 1e-12 for r in res.rows)
          and res.elapsed < 1.0)
    report(res, ok)


def test_criterion_02_factorization_reconstruction(suite):
    res = result(suite, 2)
    assert SCALE_1D == (1, 4.0, 1024)
    ok = (res.passed and len(res.rows) == 200
          and all(r.bound == 1e-9 for r in res.rows)
          and res.elapsed < 30.0)
    report(res, ok)


def test_criterion_03_holder_direction(suite):
    res = result(suite, 3)
    # lower rows: value is the margin, bound is -1e-9 * product norm
    ok = (res.passed and len(res.rows) == 80
          and all(r.bound <= 0.0 and r.value >= r.bound for r in res.rows))
    report(res, ok)


def test_criterion_04_factor_norm_stability(suite):
    res = result(suite, 4)
    ok = (res.passed and len(res.rows) == 4
          and all(r.bound == 2.0 and r.value <= 2.0 for r in res.rows))
    report(res, ok)


def test_criterion_05_equivalence_brackets(suite):
    res = result(suite, 5)
    # two rows per family: constant, case-i, case-ii, p/infty
    ok = (res.passed and len(res.rows) == 8
          and all(r.bound == 2.0 for r in res.rows))
    report(res, ok)


def test_criterion_06_luxemburg_correctness(suite):
    res = result(suite, 6)
    closed = [r for r in res.rows if r.bound == 1e-8]
    iff = [r for r in res.rows if r.bound == 0.0]
    homog = [r for r in res.rows if r.bound == 1e-9]
    ok = (res.passed and len(closed) == 200 and len(homog) == 1
          and len(iff) == 1 and iff[0].value == 0.0)
    report(res, ok)


def test_criterion_07_kernel_mass(suite):
    res = result(suite, 7)
    masses = [r for r in res.rows if r.bound == 1e-6]
    drift = [r for r in res.rows if r.bound == 1e-3]
    ok = res.passed and len(masses) == 7 and len(drift) == 1
    report(res, ok)


def test_criterion_08_shift_bound_verifier(suite):
    res = result(suite, 8)
    const_row, stable_row, diverge_row = res.rows
    ok = (res.passed
          and const_row.value == 0.0          # c == 1 bitwise for constant alpha
          and stable_row.value <= 2.0
          and diverge_row.value >= diverge_row.bound)  # >= 2x the compensated max
    report(res, ok)


def test_criterion_09_damped_cube_averages(suite):
    res = result(suite, 9)
    ok = (res.passed and len(res.rows) == 20
          and all(r.bound == 0.0 and r.value >= 0.0 for r in res.rows))
    report(res, ok)


def test_criterion_10_partition_duality_residuals(suite):
    res = result(suite, 10)
    partition = [r for r in res.rows if r.bound == 1e-12]
    duality = [r for r in res.rows if r.bound == 1e-10]
    ok = res.passed and len(partition) == 2 and len(duality) == 2
    report(res, ok)


def test_criterion_11_round_trips(suite):
    res = result(suite, 11)
    ok = (res.passed and len(res.rows) == 106
          and all(r.bound == 1e-6 for r in res.rows)
          and res.elapsed < 60.0)
    report(res, ok)


def test_criterion_12_transform_equivalence(suite):
    res = result(suite, 12)
    bracket = [r for r in res.rows if r.bound == 1e6]
    stability = [r for r in res.rows if r.bound == 2.0]
    ok = res.passed and len(bracket) == 1 and len(stability) == 2
    report(res, ok)


def test_criterion_13_poisson_masses(suite):
    res = result(suite, 13)
    masses = [r for r in res.rows if r.bound == 1e-8]
    harmonics = [r for r in res.rows if r.bound == 1e-6]
    ok = res.passed and len(masses) == 10 and len(harmonics) == 6
    report(res, ok)


def test_criterion_14_interpolation_sandwich(suite):
    res = result(suite, 14)
    uppers = [r for r in res.rows if r.bound == 1.0 + 1e-6]
    closed = [r for r in res.rows if r.bound == 1e-9]
    ok = res.passed and len(uppers) == 20 and len(closed) == 1
    report(res, ok)


def test_criterion_15_coefficient_bound(suite):
    res = result(suite, 15)
    single = [r for r in res.rows if r.bound == 1e-9]
    ok = (res.passed and len(single) == 12
          and any(r.bound == 2.0 for r in res.rows))
    report(res, ok)


def test_criterion_16_level_set_structure(suite):
    res = result(suite, 16)
    ok = (res.passed and len(res.rows) == 100
          and all(r.bound == 0.0 and r.value == 0.0 for r in res.rows))
    report(res, ok)


def _lift_one_class(decomp, lam):
    cls = decomp.class_levels[-1]
    cls[np.flatnonzero(cls != NO_CLASS)[0]] = decomp.l_max + 1


def _class_off_support(decomp, lam):
    decomp.class_levels[-1][np.flatnonzero(lam.levels[-1] == 0)[0]] = decomp.l_min


def _drop_largest_class(decomp, lam):
    j = max(range(lam.V + 1), key=lambda v: lam.moduli(v).max())
    decomp.class_levels[j][np.argmax(lam.moduli(j))] = NO_CLASS


def _shift_all_classes(decomp, lam):
    for cls in decomp.class_levels:
        cls[cls != NO_CLASS] += 1
    decomp.l_min += 1
    decomp.l_max += 1


def _nudge_largest_ratio(decomp, lam):
    r = decomp.ratio
    k = np.argmax(r)
    r[k] = np.nextafter(r[k], np.inf)


@pytest.mark.parametrize("corrupt", [_lift_one_class, _class_off_support, _drop_largest_class,
                                     _shift_all_classes, _nudge_largest_ratio])
def test_criterion_16_counts_corrupted_class_arrays(monkeypatch, corrupt):
    # every check has a corruption it must see in every item: a class
    # outside [l_min, l_max], a class off the support, a large coefficient
    # left unassigned, classes the recount disagrees with, and a ratio one
    # ulp off the one the majorant gives
    def build(lam, *args):
        decomp = build_level_sets(lam, *args)
        corrupt(decomp, lam)
        return decomp

    monkeypatch.setattr(acceptance, "build_level_sets", build)
    rows = acceptance.criterion_16(7)
    assert len(rows) == 100 and all(r.value >= 1.0 for r in rows)
    if corrupt is _shift_all_classes:
        assert all(r.value == 3.0 for r in rows)
    if corrupt is _nudge_largest_ratio:
        assert all(r.value == 1.0 for r in rows)


def test_level_set_paths_take_no_per_cube_lookup(monkeypatch):
    # A16 and both dimensions of the p/infty factorization work on the class
    # arrays only: a Grid.cube call anywhere below them fails the test
    def refuse(self, v, m):
        raise AssertionError(f"Grid.cube({v}, {m}) called")

    monkeypatch.setattr(Grid, "cube", refuse)
    assert all(r.value == 0.0 for r in acceptance.criterion_16(7))
    rng = np.random.default_rng(5)
    for grid, V in ((make_grid(1, 4.0, 256), 3), (make_grid(2, 1.0, 32), 1)):
        smooth = build_exponent(grid, "sine", base=0.1, amplitude=0.2, role="smoothness")
        zero = build_exponent(grid, "constant", value=0.0, role="smoothness")
        params = factorization_params_pq_infty(
            0.4, smooth, zero, build_exponent(grid, "constant", value=2.5), 2.0, 4.0)
        lam = random_coefficients(grid, V, 40, rng)
        res = factorize_pq_infty(lam, params)
        assert res.reconstruction_error <= 1e-9


def test_criterion_17_suite_determinism_and_runtime(suite):
    assert SCALE_1D == (1, 4.0, 1024) and SCALE_2D == (2, 2.0, 256)
    det_row = suite.rows[-1]
    ok = (suite.deterministic
          and det_row.criterion == "A17" and det_row.value == 0.0
          and suite.elapsed_first <= 300.0
          and suite.csv == rows_to_csv(suite.rows)
          and suite.csv.splitlines()[0] == CSV_HEADER
          and suite.passed)
    line = (f"criterion 17 (suite determinism and runtime): "
            f"{'PASS' if ok else 'FAIL'} "
            f"[{suite.elapsed_first:.2f}s, {len(suite.rows)} rows]")
    print(line)
    assert ok, line


def test_suite_csv_bytes_are_pinned(suite):
    # the digest of this numpy build on this CPU: a refactor must keep the
    # bytes, while another libm or SIMD path may legitimately move an ulp
    assert hashlib.sha256(suite.csv.encode("utf-8")).hexdigest() == (
        "271c72d835fe9171abe42b37a27ce0bb63ee356793d9f9ee962cceeb15a9afe4")


def test_row_margins_encode_pass(suite):
    # pass/fail must be recomputable from the row alone
    assert all((r.margin >= 0.0) == r.passed for r in suite.rows)
    assert acceptance.SUITE_BUDGET == 300.0


# ------------------------------------------------- the forked determinism re-run
#
# Each test runs the suite on one cheap criterion (A13, a few ms) in place
# of the sixteen, so only the re-run machinery is under test.


def _only(monkeypatch, criterion):
    monkeypatch.setattr(acceptance, "CRITERIA", {13: (criterion, "strip kernel quadrature")})


def test_rerun_that_sends_no_rows_fails_a17(monkeypatch, tmp_path, capsys):
    parent = os.getpid()

    def exits_in_the_rerun(seed):
        if os.getpid() != parent:
            os._exit(3)
        return acceptance.criterion_13(seed)

    _only(monkeypatch, exits_in_the_rerun)
    suite = run_suite(SEED)
    assert suite.deterministic is False and not suite.passed
    assert suite.rows[-1].criterion == "A17"
    assert suite.rows[-1].value == len(suite.rows) - 1 == len(suite.results[0].rows) > 0
    assert suite.elapsed_rerun is None
    assert multiprocessing.active_children() == []
    assert cli.main(["suite", "--seed", "7", "--out", str(tmp_path)]) == cli.EXIT_CONTRACT
    out = capsys.readouterr()
    assert "A17 regeneration determinism: FAIL (the re-run sent no rows)" in out.out
    assert "failed criteria: A17" in out.err
    summary = json.loads((tmp_path / "suite.json").read_text())["summary"]
    assert summary["deterministic"] is False and summary["rerun_seconds"] is None


@pytest.mark.parametrize("where, error", [
    ("both", InvalidInput("raised in both passes")),
    ("rerun", InvalidInput("raised in the re-run only")),
    ("first", KeyboardInterrupt()),
])
def test_rerun_errors_are_raised_and_leave_no_child(monkeypatch, where, error):
    parent = os.getpid()

    def raises(seed):
        in_parent = os.getpid() == parent
        if where == "both" or (where == "rerun") != in_parent:
            raise error
        return acceptance.criterion_13(seed)

    _only(monkeypatch, raises)
    with pytest.raises(type(error)) as info:
        run_suite(SEED)
    assert multiprocessing.active_children() == []
    if where == "rerun":
        # sent back from the child, with the child's traceback as its cause
        assert str(info.value) == "raised in the re-run only"
        assert "in raises" in str(info.value.__cause__)


@pytest.mark.parametrize("draw", [np.random.random, random.random], ids=["numpy", "python"])
def test_rows_that_read_the_global_rng_fail_a17(monkeypatch, draw):
    # the child reseeds numpy's global RNG and Python's reseeds itself after
    # a fork; a child that inherited either state would draw what the first
    # pass draws, and A17 would pass
    def draws(seed):
        return [*acceptance.criterion_13(seed), acceptance._upper("A13", "rng", draw(), 1.0)]

    _only(monkeypatch, draws)
    suite = run_suite(SEED)
    assert suite.deterministic is False
    assert suite.rows[-1].value == 1.0
