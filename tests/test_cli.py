"""Exit-code contract, config validation, and report emission of the CLI."""

import hashlib
import itertools
import json
import os
import re
import threading
import time
import warnings
import weakref

import pytest

from vexint import acceptance, cli, corpus
from vexint.calderon import factorize
from vexint.cli import CONFIG_SCHEMA, EXIT_CONFIG, EXIT_CONTRACT, EXIT_PASS, main


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def base_config(tmp_path, kind, **overrides):
    cfg = {
        "kind": kind,
        "grid": {"n": 1, "L": 4.0, "N": 256},
        "levels": 3,
        "exponents": {
            "alpha0": {"recipe": "constant", "value": 0.2},
            "alpha1": {"recipe": "constant", "value": -0.1},
            "p0": {"recipe": "constant", "value": 2.0},
            "p1": {"recipe": "constant", "value": 3.0},
            "q0": {"recipe": "constant", "value": 2.0},
            "q1": {"recipe": "constant", "value": 3.0},
        },
        "theta": [0.4],
        "corpus": {"seed": 11, "items": 3, "count": 50},
        "output": {"csv": str(tmp_path / "rows.csv"),
                   "json": str(tmp_path / "report.json")},
    }
    cfg.update(overrides)
    return write_config(tmp_path, f"{kind}.json", cfg)


def read_rows(tmp_path):
    lines = (tmp_path / "rows.csv").read_text().splitlines()
    assert lines[0] == "criterion,digest,value,bound,margin,pass"
    return [line.split(",") for line in lines[1:]]


def test_describe_schema_round_trips(capsys):
    assert main(["describe-schema"]) == EXIT_PASS
    printed = json.loads(capsys.readouterr().out)
    assert printed == CONFIG_SCHEMA
    assert "seed" in printed["properties"]["corpus"]["required"]


@pytest.mark.parametrize("where, grid", [("$.grid.n", {"n": 3, "L": 1.0, "N": 64}),
                                         ("$.grid.N", {"n": 1, "L": 1.0, "N": 8}),
                                         ("$.grid.L", {"n": 1, "L": 0.25, "N": 16})])
def test_schema_bounds_the_grid_as_make_grid_does(tmp_path, capsys, where, grid):
    props = CONFIG_SCHEMA["properties"]["grid"]["properties"]
    assert props["n"]["maximum"] == 2 and props["N"]["minimum"] == 16
    assert props["L"]["minimum"] == 0.5
    path = base_config(tmp_path, "norms", grid=grid)
    assert main(["run", path]) == EXIT_CONFIG
    assert f"config error at {where}:" in capsys.readouterr().err


def test_unknown_tolerance_exits_two(tmp_path, capsys):
    # an unknown name used to run with exit 0, apply nothing and echo the typo
    path = base_config(tmp_path, "norms", tolerances={"finte": 1e-30})
    assert main(["run", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error at $.tolerances:" in err and "finte" in err


def test_missing_seed_exits_two(tmp_path, capsys):
    path = base_config(tmp_path, "norms", corpus={"items": 3})
    assert main(["run", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "corpus" in err and "seed" in err


def test_malformed_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "norms",\n  "grid": }', encoding="utf-8")
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert ":2:" in capsys.readouterr().err


def test_unknown_field_rejected(tmp_path, capsys):
    path = base_config(tmp_path, "norms", typo_field=1)
    assert main(["run", path]) == EXIT_CONFIG
    assert "typo_field" in capsys.readouterr().err


def test_invalid_recipe_value_exits_two(tmp_path, capsys):
    # integrability exponents must stay >= 1
    path = base_config(tmp_path, "norms")
    cfg = json.loads(open(path).read())
    cfg["exponents"]["p0"] = {"recipe": "constant", "value": 0.5}
    path = write_config(tmp_path, "bad-recipe.json", cfg)
    assert main(["run", path]) == EXIT_CONFIG
    assert "p0" in capsys.readouterr().err


def test_recipe_missing_a_parameter_exits_two(tmp_path, capsys):
    # the schema requires only "recipe"; a missing value used to end in a KeyError
    path = base_config(tmp_path, "norms")
    cfg = json.loads(open(path).read())
    cfg["exponents"]["alpha0"] = {"recipe": "constant"}
    path = write_config(tmp_path, "no-value.json", cfg)
    assert main(["run", path]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error at $.exponents.alpha0: recipe 'constant' needs value\n")


def test_recipe_parameter_it_does_not_read_exits_two(tmp_path, capsys):
    # an unread amplitude used to be dropped, run with exit 0 and echoed in the report
    path = base_config(tmp_path, "norms")
    cfg = json.loads(open(path).read())
    cfg["exponents"]["p0"] = {"recipe": "constant", "value": 2.0, "amplitude": 0.7}
    path = write_config(tmp_path, "unread.json", cfg)
    assert main(["run", path]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error at $.exponents.p0: recipe 'constant' does not read amplitude\n")


@pytest.mark.parametrize("kind, overrides", [("factorize-pq-infty", {}),
                                             ("holder", {"construction": "pq-infty"})])
def test_any_package_error_of_a_run_is_a_contract_failure(tmp_path, capsys, kind, overrides):
    # p = p0 / (1 - theta) overflows for p0 = 1e308; the schema-valid config used
    # to end in an InvalidExponent traceback, a class the CLI did not map
    path = base_config(tmp_path, kind, theta=[0.5], **overrides)
    cfg = json.loads(open(path).read())
    cfg["exponents"]["p0"] = {"recipe": "constant", "value": 1e308}
    path = write_config(tmp_path, "p0-huge.json", cfg)
    assert main(["run", path]) == EXIT_CONTRACT
    err = capsys.readouterr().err
    assert f"contract failure [{kind}]: exponent field contains non-finite values" in err
    assert "Traceback" not in err


def test_level_weight_beyond_float_range_is_a_contract_failure(tmp_path, capsys):
    # alpha0 = 400 puts the level weights of the stacked majorant past the float
    # range; the run used to print two RuntimeWarnings and then fail on
    # "grid function contains non-finite values"
    path = base_config(tmp_path, "factorize-pq-infty")
    cfg = json.loads(open(path).read())
    cfg["exponents"]["alpha0"] = {"recipe": "constant", "value": 400}
    path = write_config(tmp_path, "alpha0-400.json", cfg)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always", RuntimeWarning)
        assert main(["run", path]) == EXIT_CONTRACT
    assert [w for w in seen if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert err.startswith("contract failure [factorize-pq-infty]: ")
    assert "exceeds the float range (q=" in err and "Traceback" not in err


def test_recipe_number_beyond_float_range_exits_two(tmp_path, capsys):
    # a 401-digit JSON integer passes the schema; it used to end the run in an
    # OverflowError traceback from float()
    path = base_config(tmp_path, "norms")
    cfg = json.loads(open(path).read())
    cfg["exponents"]["p0"] = {"recipe": "constant", "value": 10 ** 400}
    path = write_config(tmp_path, "p0-401-digits.json", cfg)
    assert main(["run", path]) == EXIT_CONFIG
    assert capsys.readouterr().err == ("config error at $.exponents.p0: recipe 'constant' "
                                       "parameter value lies outside the float range\n")


def test_levels_beyond_grid_exit_two(tmp_path, capsys):
    path = base_config(tmp_path, "norms", levels=9)
    assert main(["run", path]) == EXIT_CONFIG
    assert "levels" in capsys.readouterr().err


def test_missing_required_recipe_exits_two(tmp_path, capsys):
    path = base_config(tmp_path, "factorize-pp")
    cfg = json.loads(open(path).read())
    del cfg["exponents"]["p1"]
    path = write_config(tmp_path, "norecipe.json", cfg)
    assert main(["run", path]) == EXIT_CONFIG
    assert "p1" in capsys.readouterr().err


def test_degenerate_factorize_pp_ratios_are_one(tmp_path):
    path = base_config(tmp_path, "factorize-pp")
    cfg = json.loads(open(path).read())
    cfg["exponents"]["alpha1"] = cfg["exponents"]["alpha0"]
    cfg["exponents"]["p1"] = cfg["exponents"]["p0"]
    path = write_config(tmp_path, "degenerate.json", cfg)
    assert main(["run", path]) == EXIT_PASS
    rows = read_rows(tmp_path)
    assert rows and all(r[5] == "1" for r in rows)
    # degenerate parameters make the factors literal roots of |lam|/||lam||
    assert all(float(r[2]) <= 1e-12 for r in rows)


def test_factorize_pq_infty_passes(tmp_path):
    path = base_config(tmp_path, "factorize-pq-infty", theta=[0.3, 0.6])
    assert main(["run", path]) == EXIT_PASS
    rows = read_rows(tmp_path)
    assert len(rows) == 6
    assert all(float(r[2]) <= 1e-9 for r in rows)


def test_holder_corpus_passes_and_reports(tmp_path):
    path = base_config(tmp_path, "holder")
    assert main(["run", path]) == EXIT_PASS
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["kind"] == "holder"
    assert report["summary"]["passed"] is True
    assert report["config"]["corpus"]["seed"] == 11
    assert "version" in report


def test_corrupted_holder_factors_exit_one_with_key(tmp_path, capsys):
    path = base_config(tmp_path, "holder", coefficients={
        "lam": [[0, [1], 1.0, 0.0], [1, [3], 0.5, 0.0]],
        "lam0": [[0, [1], 1.0, 0.0], [1, [3], 1e-6, 0.0]],
        "lam1": [[0, [1], 1.0, 0.0], [1, [3], 0.5, 0.0]],
    })
    assert main(["run", path]) == EXIT_CONTRACT
    err = capsys.readouterr().err
    assert "(1, (3,))" in err


def test_coefficient_record_outside_box_is_config_error(tmp_path, capsys):
    good = [[0, [1], 1.0, 0.0]]
    path = base_config(tmp_path, "holder", coefficients={
        "lam": good, "lam0": good, "lam1": [[0, [1], 1.0, 0.0], [1, [99], 1.0, 0.0]],
    })
    assert main(["run", path]) == EXIT_CONFIG
    assert "$.coefficients.lam1" in capsys.readouterr().err


def test_explicit_holder_triple_passes(tmp_path):
    path = base_config(tmp_path, "holder", coefficients={
        "lam": [[0, [1], 0.5, 0.0], [2, [7], 0.25, 0.0]],
        "lam0": [[0, [1], 0.9, 0.0], [2, [7], 0.8, 0.0]],
        "lam1": [[0, [1], 0.9, 0.0], [2, [7], 0.8, 0.0]],
    })
    assert main(["run", path]) == EXIT_PASS


def test_roundtrip_kind(tmp_path):
    path = base_config(tmp_path, "roundtrip")
    assert main(["run", path]) == EXIT_PASS
    rows = read_rows(tmp_path)
    assert len(rows) == 6  # transform + retraction per item
    assert all(float(r[2]) <= 1e-6 for r in rows)


def test_roundtrip_zero_item_has_residual_zero(tmp_path):
    # the single mode drawn lies outside the band radius: the item is the zero function
    path = write_config(tmp_path, "zero.json", {
        "kind": "roundtrip", "grid": {"n": 2, "L": 2.0, "N": 64}, "levels": 1,
        "corpus": {"seed": 72, "items": 1, "count": 1},
        "output": {"csv": str(tmp_path / "rows.csv"), "json": str(tmp_path / "report.json")}})
    assert main(["run", path]) == EXIT_PASS
    assert [float(r[2]) for r in read_rows(tmp_path)] == [0.0, 0.0]


@pytest.mark.parametrize("theta", [1e-9, 1.0 - 1e-9])
def test_lebesgue_interp_unrepresentable_theta_exits_two(tmp_path, capsys, theta):
    path = base_config(tmp_path, "lebesgue-interp", theta=[0.5, theta])
    assert main(["run", path]) == EXIT_CONFIG
    assert "config error at $.theta[1]:" in capsys.readouterr().err


def test_lebesgue_interp_kind(tmp_path):
    path = base_config(tmp_path, "lebesgue-interp")
    assert main(["run", path]) == EXIT_PASS
    report = json.loads((tmp_path / "report.json").read_text())
    assert all(row["lower_ratio"] >= 1.0 - 1e-6
               for row in report["summary"]["lower_ratios"])


def test_inter_rest_kind(tmp_path):
    path = base_config(tmp_path, "inter-rest")
    assert main(["run", path]) == EXIT_PASS
    rows = read_rows(tmp_path)
    assert all(0.25 <= float(r[2]) <= 4.0 for r in rows)


def test_inter_rest_variable_q_exits_two(tmp_path, capsys):
    path = base_config(tmp_path, "inter-rest")
    cfg = json.loads(open(path).read())
    cfg["exponents"]["q0"] = {"recipe": "sine", "base": 2.0,
                              "amplitude": 0.3, "frequency": 1}
    path = write_config(tmp_path, "varq.json", cfg)
    assert main(["run", path]) == EXIT_CONFIG
    assert "q0" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["lux", "mixed", "f", "finfty", "F", "Finfty"])
def test_norm_verb_prints_finite_values(tmp_path, capsys, which):
    path = base_config(tmp_path, "norms", output={})
    assert main(["norm", "--kind", which, path]) == EXIT_PASS
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith("item ")]
    assert len(lines) == 3
    assert all(float(line.split(": ")[1]) > 0.0 for line in lines)


def test_norm_verb_power_overflow_is_contract_failure(tmp_path, capsys):
    # |lam|^400 leaves the float range for moduli above about 5.9; |lam|^91 is
    # finite but 2^{v q (alpha + n/2)} |lam|^91 is not, and used to print inf
    for q in (400.0, 91.0):
        path = base_config(tmp_path, "norms", output={})
        cfg = json.loads(open(path).read())
        cfg["exponents"]["q0"] = {"recipe": "constant", "value": q}
        path = write_config(tmp_path, f"q{q}.json", cfg)
        assert main(["norm", "--kind", "finfty", path]) == EXIT_CONTRACT
        captured = capsys.readouterr()
        assert captured.err.startswith("contract failure [norm-finfty]: ")
        assert "exceeds the float range" in captured.err and "Traceback" not in captured.err
        assert "inf" not in captured.out


def test_norm_verb_Finfty_power_overflow_is_contract_failure(tmp_path, capsys):
    # |phi_v * f|^400 leaves the float range; it used to print inf per item
    path = base_config(tmp_path, "norms", output={})
    cfg = json.loads(open(path).read())
    cfg["exponents"]["q0"] = {"recipe": "constant", "value": 400.0}
    path = write_config(tmp_path, "q400.json", cfg)
    assert main(["norm", "--kind", "Finfty", path]) == EXIT_CONTRACT
    captured = capsys.readouterr()
    assert captured.err.startswith("contract failure [norm-Finfty]: ")
    assert "exceeds the float range" in captured.err and "Traceback" not in captured.err
    assert "inf" not in captured.out


def test_norm_verb_missing_recipe(tmp_path, capsys):
    path = base_config(tmp_path, "norms", output={})
    cfg = json.loads(open(path).read())
    del cfg["exponents"]["alpha0"]
    path = write_config(tmp_path, "noalpha.json", cfg)
    assert main(["norm", "--kind", "f", path]) == EXIT_CONFIG
    assert "alpha0" in capsys.readouterr().err


def test_suite_verb_is_bitwise_deterministic(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["suite", "--seed", "9", "--out", str(out_a)]) == EXIT_PASS
    assert main(["suite", "--seed", "9", "--out", str(out_b)]) == EXIT_PASS
    capsys.readouterr()
    csv_a = (out_a / "suite.csv").read_bytes()
    assert csv_a == (out_b / "suite.csv").read_bytes()
    # the seed-9 digest of this numpy build on this CPU
    assert hashlib.sha256(csv_a).hexdigest() == (
        "8d3c9dc4fb3f79972e4e96c040b2a364d7a396d970194dc53f0f8732381e3415")
    report = json.loads((out_a / "suite.json").read_text())
    assert report["summary"]["deterministic"] is True
    assert report["summary"]["passed"] is True
    assert len(report["summary"]["criteria"]) == 16
    assert report["summary"]["rerun_seconds"] > 0.0


_PASSES = itertools.count()


def test_suite_verb_reruns_in_one_process_see_state_a_pass_leaves(tmp_path, monkeypatch,
                                                                  capsys):
    # A17's re-run is forked before the first pass, so it starts from the
    # state that pass starts from and misses a criterion reading state an
    # earlier pass changed; two runs of the verb in one process, compared
    # as in the test above, catch it
    def counts_passes(seed):
        return [acceptance._upper("A13", "passes", float(next(_PASSES)), 1e9)]

    monkeypatch.setattr(acceptance, "CRITERIA", {13: (counts_passes, "reads a counter")})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["suite", "--seed", "9", "--out", str(out_a)]) == EXIT_PASS
    assert main(["suite", "--seed", "9", "--out", str(out_b)]) == EXIT_PASS
    assert re.search(r"^A17 regeneration determinism: pass \(\d+\.\d\ds\)$",
                     capsys.readouterr().out, re.M)
    assert (out_a / "suite.csv").read_bytes() != (out_b / "suite.csv").read_bytes()


# ------------------------------------------------------------ pool dispatch


def _count_realized(monkeypatch):
    """Wrap the corpus realizer; record every draw it realizes and the most
    realized items alive at once."""
    realize = corpus.trig_polynomial
    lock = threading.Lock()
    seen = {"draws": [], "alive": 0, "most": 0}

    def released():
        with lock:
            seen["alive"] -= 1

    def counted(grid, modes):
        f = realize(grid, modes)
        with lock:
            seen["draws"].append(modes)
            seen["alive"] += 1
            seen["most"] = max(seen["most"], seen["alive"])
        weakref.finalize(f, released)
        return f
    monkeypatch.setattr(corpus, "trig_polynomial", counted)
    return seen


@pytest.mark.parametrize("verb, kind, thetas", [
    (["run"], "roundtrip", [0.4]),
    (["run"], "inter-rest", [0.3, 0.6]),
    (["norm", "--kind", "lux"], "norms", [0.4]),
    (["norm", "--kind", "F"], "norms", [0.4]),
])
def test_corpus_items_are_realized_once_inside_the_jobs(tmp_path, monkeypatch, verb,
                                                        kind, thetas):
    workers = os.cpu_count() or 1
    items = workers + 2
    seen = _count_realized(monkeypatch)
    path = base_config(tmp_path, kind, theta=thetas,
                       corpus={"seed": 11, "items": items, "count": 50})
    assert main([*verb, path]) == EXIT_PASS
    # every draw once, however many thetas run on it
    want = corpus.mode_corpus(1, 4.0, 2.0 ** 3, items, 50, 11)
    assert sorted(map(repr, seen["draws"])) == sorted(map(repr, want))
    # one item per busy worker, none left behind
    assert 1 <= seen["most"] <= min(workers, items)
    assert seen["alive"] == 0


def test_multi_theta_rows_keep_item_then_theta_order(tmp_path):
    thetas = [0.3, 0.6]
    path = base_config(tmp_path, "factorize-pq-infty", theta=thetas,
                       corpus={"seed": 11, "items": 4, "count": 50})
    assert main(["run", path]) == EXIT_PASS
    keys = [(i, theta) for i in range(4) for theta in thetas]
    assert [r[1] for r in read_rows(tmp_path)] == [
        acceptance._digest("factorize-pq-infty", 11, i, theta) for i, theta in keys]
    exp = cli.Experiment(json.loads(open(path).read()))
    params = cli._construction(exp, "pq-infty")
    serial = []
    for lam, theta in itertools.product(exp.coefficients(), thetas):
        res = factorize(lam, params[theta])
        serial.append([res.factor0_norm, res.factor1_norm])
    norms = json.loads((tmp_path / "report.json").read_text())["summary"]["factor_norms"]
    assert [(r["item"], r["theta"]) for r in norms] == keys
    assert [[r["factor0_norm"], r["factor1_norm"]] for r in norms] == serial


def test_over_corpus_returns_in_input_order_whatever_finishes_first():
    def one(x, theta):
        time.sleep(0.01 * (5 - x))  # later items finish first
        return x, theta
    got = cli._over_corpus(list(range(5)), one, ["a", "b"], realize=lambda m: m)
    assert got == [(i, t, (i, t)) for i in range(5) for t in ("a", "b")]


def test_over_corpus_raises_the_lowest_failing_item():
    failing = {(1, "b"), (3, "a"), (4, "a")}

    def one(x, theta):
        if x == 1:
            time.sleep(0.05)  # items 3 and 4 fail first in time
        if (x, theta) in failing:
            raise ValueError(f"item {x} theta {theta}")
        return x
    with pytest.raises(ValueError, match=r"^item 1 theta b$"):
        cli._over_corpus(list(range(6)), one, ["a", "b"])


@pytest.mark.parametrize("verb, kind, label", [
    (["run"], "roundtrip", "roundtrip"),
    (["run"], "inter-rest", "inter-rest"),
    (["norm", "--kind", "lux"], "norms", "norm-lux"),
])
def test_a_draw_past_nyquist_fails_the_run_at_the_lowest_item(tmp_path, monkeypatch,
                                                              capsys, verb, kind, label):
    # no schema-valid config draws one: |k| <= 2^V L / pi <= N / (8 pi) < N / 2,
    # so the draws are patched in; N = 256 puts Nyquist at index 128
    draws = [{(3,): 1.0 + 0j}, {(200,): 1.0 + 0j}, {(150,): 1.0 + 0j}, {(2,): 1.0 + 0j}]
    monkeypatch.setattr(corpus, "mode_corpus", lambda *args: [dict(m) for m in draws])
    path = base_config(tmp_path, kind, output={})
    assert main([*verb, path]) == EXIT_CONTRACT
    assert capsys.readouterr().err == (
        f"contract failure [{label}]: mode (200,) is beyond the grid Nyquist index\n")


# ------------------------------------------------------------ golden outputs

# case: (verb, experiment or norm kind, config overrides)
GOLDEN_CASES = {
    "norms": ("run", "norms", {}),
    "factorize-pp": ("run", "factorize-pp", {}),
    "factorize-pq-infty": ("run", "factorize-pq-infty", {}),
    "holder-pp": ("run", "holder", {"construction": "pp"}),
    "holder-pq-infty": ("run", "holder", {"construction": "pq-infty"}),
    "roundtrip": ("run", "roundtrip", {}),
    "lebesgue-interp": ("run", "lebesgue-interp", {}),
    # the sine alpha0 is refused; a constant one runs the retraction route
    "inter-rest": ("run", "inter-rest", {}),
    "inter-rest-constant": ("run", "inter-rest",
                            {"alpha0": {"recipe": "constant", "value": 0.2}}),
    **{f"norm-{which}": ("norm", which, {})
       for which in ("lux", "mixed", "f", "finfty", "F", "Finfty")},
}

# (exit code, sha256 of the CSV, of the JSON report without runtime_seconds,
# of stdout with the runtime blanked); "-" marks a report that is not written
GOLDEN = {
    "norms": (0, "f114b05033a223474a36fda2e891fbcb61c57d7b4e5c0629fb1415f46ee87051",
              "64f8b4db7b20d81da659de1ff34629ccc13d35460dca375e2b803960ae286747",
              "f920509043742c829d605e57e74f8599274620058398186bcef1b5abf0e1dfb8"),
    "factorize-pp": (0, "e01157d9cf20238b6f28945482e4e6eef4aac3bfb630c8b8e8497f9776de0db6",
                     "3a97d83adb41cd5a221dbaf1b09a57af751bde158961a9e255122cf3b86c6e52",
                     "9affaa2e2354edc6a283de04fa402d52ed6ba1561e0ed19694fe529009014c88"),
    "factorize-pq-infty": (0, "b82d46a1e3a9125fb0a0f03c1a4ef5970a04cc4112bdc73254e635e86b8bbcda",
                           "b3056c3b9c6b42001a86b4b3de562e01c58ddad6a9ed86e77861093f4a2806fb",
                           "4a7843616a378bfea42ecea0408446eff19b2496c63856c86a1a2cdae3355c19"),
    "holder-pp": (1, "c850e53999df5f06292bb539271b9aa2760ee3c1246584f598f027cd55ee6459",
                  "5b882057ace097dfce45dd25855e1ea3bba69270879ff4c435a866302c6fb40d",
                  "302b72e7499542038a50dc6541ad6435d48deca8634b7e37559f0f79daf9284e"),
    "holder-pq-infty": (0, "70f902519c88cb07d13301ef6fad48660946ac77056ef1923ad7f576ce3cc1f6",
                        "83409d581123f594852571c94becd8d58c3cb36b7bd140335f0dbc921c8a6179",
                        "5e752a3fabd9d5ac30c8c5e5fd5e505eb63b893f60c1fb62d78236ea2bebb7e9"),
    "roundtrip": (0, "0ab8b7b62ef773cf1bd78332b46818dec3b8d43bfea15ab2e89fab65c732910b",
                  "d5023c6ccd1b5b90298e797c7f6ca3205bec9ee1807b15192c4e89df8ae66953",
                  "51800357a0d77f7392f0cb2ca7d591753f7165d69cf1663a267503e3ec75bce8"),
    "lebesgue-interp": (0, "1a7d6460f6f0b7736b5cafaa0a3e41c67009d856f923a819aac4c5dfa31d7cb1",
                        "b66d405a784f9d2c079b7be2792566690ba06fbf0fa72c1d89a5030e5a9d9810",
                        "7dde6d698d1e99a03f5dd6b47cb54c3f6bece34c3a1359019c64815e97577a8e"),
    "inter-rest": (2, "-",
                   "-",
                   "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "inter-rest-constant": (0, "bacc8fd899a5227e15f3d08f9dc8a3ee2458e62d976e01cb1f00dbc6568e4444",
                            "4b605d708cd6065841cabcba07354dabcec0c380df9203e97331364f174b71ca",
                            "803159b8ac962ac0f27ed7554928f8a9a3b3bff8b1f3db0e31596775235ef978"),
    "norm-lux": (0, "f6966e353bdb33f6519d99c014edb28085b0f77866da20e555a4db1b368371f5",
                 "8094f96dd2aa45cdce2042087b2323c7eef9187f4fd8ac482d487b32aeaa0f9f",
                 "9d54b599ac528f0235c1268cafb9a60a18f3bd56d5c62587ae7519a5ca908c46"),
    "norm-mixed": (0, "ed0bb6e024899dca45736e28a7caca84b6b5740ad41ebc644ff1886b3d7844a8",
                   "f0aeaa3d6212bd5b47e295c0714ac9d998ec306e1710e55f8b5e9243d67a81b4",
                   "67f004b719127c46060a4d710fc0c22b6795b6931ea218033aa363f952f71108"),
    "norm-f": (0, "dc176c073d6bae6ec81c5cf1df27dec1faca14015c720929d7fd8b9d88fc82ec",
               "50b9e49de1e84e536016471078ed8c50ab1836247ccc874181e3bf586c381c9b",
               "493e750f884404492c58bae76e9e1a18cb9743934443a546b79234532e47185d"),
    "norm-finfty": (0, "4696ba6dec0dc2228da16781f81d8c278b0de1204b851027698c9b35642cbecc",
                    "79f483f85248e829efb0e8940073fcc23bc46aae51ed1a76cbe0603f32c71b8a",
                    "c097555415d21480e33ec6ded6680fd1f8128647beb994b2bfe5a9b14c6b933a"),
    "norm-F": (0, "6157051432b42a11907c85a7e50433aae93c8f42019a72ae9f91eafd4cc51e0e",
               "fbaf5ca9284fdbd865357d0e4838d8e6b4f93fb39dd6327449c443bae0e082cb",
               "7455cdcb538d148d82d41f2d4ba08b8ba817668b72aefdb729c7e21db086353c"),
    "norm-Finfty": (0, "16e10c759ad409a65a2eadec7906781822f246b7ce0ea00bab8cd0f4480b3bed",
                    "f29d33e0925d69f779f562668fe55fc014a545d3671fc5bba1ccd797ccf5db9e",
                    "d0466bbf4f385a1ca8a0fdee45055400a4e989ef1639532f783de6cd99435331"),
}


def _sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_cli_outputs_are_pinned(tmp_path, monkeypatch, capsys, case):
    verb, kind, overrides = GOLDEN_CASES[case]
    monkeypatch.chdir(tmp_path)
    cfg = {
        "kind": "norms" if verb == "norm" else kind,
        "grid": {"n": 1, "L": 4.0, "N": 256},
        "levels": 3,
        "exponents": {
            "alpha0": {"recipe": "sine", "base": 0.2, "amplitude": 0.15, "frequency": 1},
            "alpha1": {"recipe": "constant", "value": -0.1},
            "p0": {"recipe": "sine", "base": 2.4, "amplitude": 0.3, "frequency": 1},
            "p1": {"recipe": "constant", "value": 3.0},
            "q0": {"recipe": "constant", "value": 2.0},
            "q1": {"recipe": "constant", "value": 3.0},
        },
        "theta": [0.3, 0.6],
        "corpus": {"seed": 11, "items": 3, "count": 50},
        "output": {"csv": "rows.csv", "json": "report.json"},
    }
    if "construction" in overrides:
        cfg["construction"] = overrides["construction"]
    cfg["exponents"].update({k: v for k, v in overrides.items() if k != "construction"})
    (tmp_path / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
    argv = ["run", "cfg.json"] if verb == "run" else ["norm", "--kind", kind, "cfg.json"]
    code = main(argv)
    out = re.sub(r"\(\d+\.\d+s\)", "(runtime)", capsys.readouterr().out)
    csv = tmp_path / "rows.csv"
    report = tmp_path / "report.json"
    if report.exists():
        doc = json.loads(report.read_text())
        del doc["summary"]["runtime_seconds"]
        report_sha = _sha(json.dumps(doc, indent=2))
    else:
        report_sha = "-"
    got = (code, _sha(csv.read_bytes()) if csv.exists() else "-", report_sha, _sha(out))
    assert got == GOLDEN[case]
