"""Exit-code contract, config validation, and report emission of the CLI."""

import hashlib
import json

import pytest

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
                                         ("$.grid.N", {"n": 1, "L": 1.0, "N": 8})])
def test_schema_bounds_the_grid_as_make_grid_does(tmp_path, capsys, where, grid):
    props = CONFIG_SCHEMA["properties"]["grid"]["properties"]
    assert props["n"]["maximum"] == 2 and props["N"]["minimum"] == 16
    path = base_config(tmp_path, "norms", grid=grid)
    assert main(["run", path]) == EXIT_CONFIG
    assert f"config error at {where}:" in capsys.readouterr().err


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
    # |lam|^400 leaves the float range for moduli above about 5.9
    path = base_config(tmp_path, "norms", output={})
    cfg = json.loads(open(path).read())
    cfg["exponents"]["q0"] = {"recipe": "constant", "value": 400.0}
    path = write_config(tmp_path, "q400.json", cfg)
    assert main(["norm", "--kind", "finfty", path]) == EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err.startswith("contract failure [norm-finfty]: ")
    assert "exceeds the float range" in err and "Traceback" not in err


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
