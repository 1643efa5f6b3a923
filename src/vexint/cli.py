"""Command-line entry point: config ingestion, experiments, and reports.

Configs are single JSON documents validated against CONFIG_SCHEMA
(`vexint describe-schema` prints it).  Every experiment is seeded through
the config, report rows share the suite's fixed CSV columns, and runtimes
live only in the JSON summary so a fixed seed reproduces the CSV byte for
byte.  Exit codes: 0 all contracts passed, 1 contract failure, 2 config
or schema violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__, acceptance, corpus
from .acceptance import ReportRow, _lower, _upper, rows_to_csv
from .calderon import _reconstructions, factorization_params_pp, \
    factorization_params_pq_infty, factorize_pp, factorize_pq_infty, \
    verify_holder_direction
from .errors import (
    AdmissibilityFailure,
    InvalidConfiguration,
    InvalidExponent,
    InvalidInput,
    InvalidSelection,
    PreconditionViolation,
    ResolutionExceeded,
    SolverFailure,
    UnsupportedParameters,
)
from .exponents import ExponentField, build_exponent
from .grid import Grid, make_grid
from .interp import inter_rest_check, scalar_interp_sandwich
from .lebesgue import luxemburg_norm, mixed_norm
from .lpf import (
    F_infty_norm,
    F_norm,
    analyze,
    build_admissible_pair,
    build_dual_pair,
    build_resolution_of_unity,
    retract_roundtrip,
    synthesize,
)
from .seqspaces import DyadicCoefficients, f_infty_norm, f_norm

EXIT_PASS = 0
EXIT_CONTRACT = 1
EXIT_CONFIG = 2

EXPERIMENT_KINDS = ("norms", "factorize-pp", "factorize-pq-infty", "holder",
                    "roundtrip", "lebesgue-interp", "inter-rest", "suite")
NORM_KINDS = ("lux", "mixed", "f", "finfty", "F", "Finfty")

_RECIPE = {
    "type": "object",
    "additionalProperties": False,
    "required": ["recipe"],
    "properties": {
        "recipe": {"enum": ["constant", "sine", "plateau"]},
        "value": {"type": "number"},
        "base": {"type": "number"},
        "amplitude": {"type": "number"},
        "frequency": {"type": "integer", "minimum": 1},
        "left": {"type": "number"},
        "right": {"type": "number"},
        "width": {"type": "number", "exclusiveMinimum": 0},
    },
}

# one coefficient: level, m-index list, real part, imaginary part
_COEFF_RECORDS = {
    "type": "array",
    "items": {
        "type": "array",
        "minItems": 4,
        "maxItems": 4,
        "prefixItems": [
            {"type": "integer", "minimum": 0},
            {"type": "array", "items": {"type": "integer", "minimum": 0},
             "minItems": 1},
            {"type": "number"},
            {"type": "number"},
        ],
    },
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "vexint experiment configuration",
    "type": "object",
    "additionalProperties": False,
    "required": ["kind", "grid", "corpus"],
    "properties": {
        "kind": {"enum": list(EXPERIMENT_KINDS)},
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["n", "L", "N"],
            "properties": {
                "n": {"type": "integer", "minimum": 1, "maximum": 2},
                "L": {"type": "number", "exclusiveMinimum": 0},
                "N": {"type": "integer", "minimum": 16},
            },
        },
        "levels": {"type": "integer", "minimum": 0},
        "exponents": {
            "type": "object",
            "additionalProperties": False,
            "properties": {name: _RECIPE for name in
                           ("p0", "p1", "q0", "q1", "alpha0", "alpha1")},
        },
        "theta": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "number", "exclusiveMinimum": 0,
                      "exclusiveMaximum": 1},
        },
        "corpus": {
            "type": "object",
            "additionalProperties": False,
            "required": ["seed"],
            "properties": {
                "seed": {"type": "integer", "minimum": 0},
                "items": {"type": "integer", "minimum": 1},
                "count": {"type": "integer", "minimum": 1},
                "regions": {"type": "integer", "minimum": 1},
                "distribution": {"enum": list(corpus.DISTRIBUTIONS)},
            },
        },
        "coefficients": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"lam": _COEFF_RECORDS, "lam0": _COEFF_RECORDS,
                           "lam1": _COEFF_RECORDS},
        },
        "construction": {"enum": ["pp", "pq-infty"]},
        "tolerances": {
            "type": "object",
            "additionalProperties": {"type": "number", "exclusiveMinimum": 0},
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"csv": {"type": "string"}, "json": {"type": "string"}},
        },
    },
}

# recipes each experiment reads; missing ones are a config error, not a default
REQUIRED_RECIPES = {
    "norms": ("alpha0", "p0", "q0"),
    "factorize-pp": ("alpha0", "alpha1", "p0", "p1"),
    "factorize-pq-infty": ("alpha0", "alpha1", "p0", "q0", "q1"),
    "holder": (),
    "roundtrip": (),
    "lebesgue-interp": ("p0", "p1"),
    "inter-rest": ("alpha0", "alpha1", "p0", "p1", "q0", "q1"),
    "suite": (),
    "lux": ("p0",),
    "mixed": ("p0", "q0"),
    "f": ("alpha0", "p0", "q0"),
    "finfty": ("alpha0", "q0"),
    "F": ("alpha0", "p0", "q0"),
    "Finfty": ("alpha0", "q0"),
}

DEFAULT_TOLERANCES = {
    "reconstruction": 1e-9,
    "holder": 1e-9,
    "residual": 1e-6,
    "upper": 1e-6,
    "bracket": 4.0,
    "finite": 1e12,
}

_CONFIG_ERRORS = (InvalidInput, InvalidExponent, InvalidConfiguration,
                  ResolutionExceeded, InvalidSelection)
_CONTRACT_ERRORS = (PreconditionViolation, SolverFailure, AdmissibilityFailure,
                    UnsupportedParameters, InvalidConfiguration, InvalidInput)


class ConfigError(Exception):
    """Schema or semantic config violation; carries the offending location."""

    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")
        self.where = where
        self.message = message


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(path, f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from exc
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        raise ConfigError(err.json_path, err.message)
    return cfg


def _require_recipes(cfg: dict, kind: str) -> None:
    have = cfg.get("exponents", {})
    for name in REQUIRED_RECIPES[kind]:
        if name not in have:
            raise ConfigError(f"$.exponents.{name}",
                              f"recipe required by kind {kind!r}")


def build_field(grid: Grid, name: str, spec: dict) -> ExponentField:
    role = "smoothness" if name.startswith("alpha") else "integrability"
    kwargs = {k: v for k, v in spec.items() if k != "recipe"}
    try:
        return build_exponent(grid, spec["recipe"], role=role, **kwargs)
    except (*_CONFIG_ERRORS, TypeError) as exc:
        raise ConfigError(f"$.exponents.{name}", str(exc)) from exc


def _constant(field: ExponentField, name: str) -> float:
    lo = float(field.values.min())
    if lo != float(field.values.max()):
        raise ConfigError(f"$.exponents.{name}", "a constant recipe is required here")
    return lo


def decode_coefficients(grid: Grid, V: int, records, where: str) -> DyadicCoefficients:
    try:
        return DyadicCoefficients.from_records(grid, V, records)
    except _CONFIG_ERRORS as exc:
        raise ConfigError(where, str(exc)) from exc


class Experiment:
    """Config unpacked against one grid, with defaults echoed back."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.kind = cfg["kind"]
        g = cfg["grid"]
        try:
            self.grid = make_grid(g["n"], g["L"], g["N"])
        except _CONFIG_ERRORS as exc:
            raise ConfigError("$.grid", str(exc)) from exc
        self.V = cfg.get("levels", min(4, self.grid.v_max))
        if self.V > self.grid.v_max:
            raise ConfigError("$.levels",
                              f"level {self.V} exceeds finest usable level "
                              f"{self.grid.v_max}")
        self.seed = cfg["corpus"]["seed"]
        self.items = cfg["corpus"].get("items", 8)
        self.count = cfg["corpus"].get("count", 200)
        self.regions = cfg["corpus"].get("regions", 3)
        self.distribution = cfg["corpus"].get("distribution", "log-uniform")
        self.thetas = cfg.get("theta", [0.5])
        self.tolerances = {**DEFAULT_TOLERANCES, **cfg.get("tolerances", {})}
        self.construction = cfg.get("construction", "pp")
        self.fields = {}

    def field(self, name: str) -> ExponentField:
        if name not in self.fields:
            spec = self.cfg.get("exponents", {}).get(name)
            if spec is None:
                raise ConfigError(f"$.exponents.{name}", "recipe missing")
            self.fields[name] = build_field(self.grid, name, spec)
        return self.fields[name]

    def tol(self, name: str) -> float:
        return self.tolerances[name]

    def echo(self) -> dict:
        return {
            **self.cfg,
            "levels": self.V,
            "theta": list(self.thetas),
            "corpus": {"seed": self.seed, "items": self.items,
                       "count": self.count, "regions": self.regions,
                       "distribution": self.distribution},
            "tolerances": dict(self.tolerances),
        }


def _map_ordered(fn, items):
    """Dispatch items to the worker pool; results come back in input order."""
    if len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(os.cpu_count() or 1, len(items))) as pool:
        return list(pool.map(fn, items))


def _params_for(exp: Experiment, construction: str, theta: float):
    if construction == "pp":
        return factorization_params_pp(theta, exp.field("alpha0"),
                                       exp.field("alpha1"), exp.field("p0"),
                                       exp.field("p1"))
    return factorization_params_pq_infty(theta, exp.field("alpha0"),
                                         exp.field("alpha1"), exp.field("p0"),
                                         _constant(exp.field("q0"), "q0"),
                                         _constant(exp.field("q1"), "q1"))


def _recon_deviation(lam, res, theta: float) -> float:
    a, recon = _reconstructions(lam, res.lam0, res.lam1, res.lam_norm, theta)
    return float(np.abs(recon / a - 1.0).max(initial=0.0))


# ------------------------------------------------------------- experiments


def run_norms(exp: Experiment):
    _require_recipes(exp.cfg, "norms")
    lams = corpus.coefficient_corpus(exp.grid, exp.V, exp.items, exp.count,
                                     exp.seed, exp.distribution)
    alpha, p, q = exp.field("alpha0"), exp.field("p0"), exp.field("q0")
    values = _map_ordered(lambda lam: f_norm(lam, alpha, p, q).value, lams)
    rows = [_upper("norms", acceptance._digest("norms", exp.seed, i), v,
                   exp.tol("finite"))
            for i, v in enumerate(values)]
    return rows, {"values": values}


def run_factorize(exp: Experiment, construction: str):
    kind = "factorize-pp" if construction == "pp" else "factorize-pq-infty"
    _require_recipes(exp.cfg, kind)
    factorize = factorize_pp if construction == "pp" else factorize_pq_infty
    lams = corpus.coefficient_corpus(exp.grid, exp.V, exp.items, exp.count,
                                     exp.seed, exp.distribution)
    rows, norms = [], []

    def one(job):
        i, lam, theta = job
        res = factorize(lam, _params_for(exp, construction, theta))
        return (i, theta, _recon_deviation(lam, res, theta),
                res.factor0_norm, res.factor1_norm)
    jobs = [(i, lam, theta) for i, lam in enumerate(lams)
            for theta in exp.thetas]
    for i, theta, dev, n0, n1 in _map_ordered(one, jobs):
        rows.append(_upper(kind, acceptance._digest(kind, exp.seed, i, theta),
                           dev, exp.tol("reconstruction")))
        norms.append({"item": i, "theta": theta, "factor0_norm": n0,
                      "factor1_norm": n1})
    return rows, {"factor_norms": norms}


def _holder_spaces(exp: Experiment, construction: str):
    if construction == "pp":
        return ((exp.field("alpha0"), exp.field("p0")),
                (exp.field("alpha1"), exp.field("p1")))
    return ((exp.field("alpha0"), exp.field("p0"), _constant(exp.field("q0"), "q0")),
            (exp.field("alpha1"), None, _constant(exp.field("q1"), "q1")))


def run_holder(exp: Experiment):
    construction = exp.construction
    kind = "factorize-pp" if construction == "pp" else "factorize-pq-infty"
    _require_recipes(exp.cfg, kind)
    space0, space1 = _holder_spaces(exp, construction)
    explicit = exp.cfg.get("coefficients")
    rows = []
    if explicit is not None:
        for name in ("lam", "lam0", "lam1"):
            if name not in explicit:
                raise ConfigError(f"$.coefficients.{name}",
                                  "holder kind needs lam, lam0 and lam1")
        lam = decode_coefficients(exp.grid, exp.V, explicit["lam"],
                                  "$.coefficients.lam")
        lam0 = decode_coefficients(exp.grid, exp.V, explicit["lam0"],
                                   "$.coefficients.lam0")
        lam1 = decode_coefficients(exp.grid, exp.V, explicit["lam1"],
                                   "$.coefficients.lam1")
        for theta in exp.thetas:
            rep = verify_holder_direction(lam, lam0, lam1, space0, space1, theta)
            rows.append(_lower("holder",
                               acceptance._digest("holder", exp.seed, theta),
                               rep.margin, -exp.tol("holder") * rep.product))
        return rows, {}
    factorize = factorize_pp if construction == "pp" else factorize_pq_infty
    lams = corpus.coefficient_corpus(exp.grid, exp.V, exp.items, exp.count,
                                     exp.seed, exp.distribution)

    def one(job):
        i, lam, theta = job
        res = factorize(lam, _params_for(exp, construction, theta))
        rep = verify_holder_direction(lam.scaled(1.0 / res.lam_norm), res.lam0,
                                      res.lam1, space0, space1, theta)
        return i, theta, rep.margin, rep.product
    jobs = [(i, lam, theta) for i, lam in enumerate(lams) for theta in exp.thetas]
    for i, theta, margin, product in _map_ordered(one, jobs):
        rows.append(_lower("holder",
                           acceptance._digest("holder", exp.seed, i, theta),
                           margin, -exp.tol("holder") * product))
    return rows, {}


def run_roundtrip(exp: Experiment):
    dual = build_dual_pair(build_admissible_pair(exp.grid, exp.V))
    rou = build_resolution_of_unity(exp.grid, exp.V)
    fns = corpus.band_limited_corpus(exp.grid, 2.0 ** exp.V, exp.items,
                                     exp.count, exp.seed)

    def one(job):
        i, f = job
        sup = float(np.abs(f.values).max())
        back = synthesize(analyze(f, dual), dual)
        transform = float(np.abs(back.values - f.values).max()) / sup
        return i, transform, retract_roundtrip(f, rou).residual
    rows = []
    for i, transform, retract in _map_ordered(one, list(enumerate(fns))):
        rows.append(_upper("roundtrip",
                           acceptance._digest("roundtrip", exp.seed, i, "T"),
                           transform, exp.tol("residual")))
        rows.append(_upper("roundtrip",
                           acceptance._digest("roundtrip", exp.seed, i, "R"),
                           retract, exp.tol("residual")))
    return rows, {"band_radius": 2.0 ** exp.V}


def run_lebesgue_interp(exp: Experiment):
    _require_recipes(exp.cfg, "lebesgue-interp")
    p0, p1 = exp.field("p0"), exp.field("p1")
    simples = corpus.simple_function_corpus(exp.grid, exp.items, exp.regions,
                                            exp.seed)

    def one(job):
        i, f, theta = job
        rep = scalar_interp_sandwich(f, p0, p1, theta)
        return i, theta, rep
    jobs = [(i, f, theta) for i, f in enumerate(simples) for theta in exp.thetas]
    rows, lower = [], []
    for i, theta, rep in _map_ordered(one, jobs):
        rows.append(_upper("lebesgue-interp",
                           acceptance._digest("lebesgue-interp", exp.seed,
                                              i, theta),
                           rep.upper_ratio, 1.0 + exp.tol("upper")))
        lower.append({"item": i, "theta": theta, "lower_ratio": rep.lower_ratio,
                      "rho0": rep.rho0, "rho1": rep.rho1})
    return rows, {"lower_ratios": lower}


def run_inter_rest(exp: Experiment):
    _require_recipes(exp.cfg, "inter-rest")
    # the retraction route needs constant smoothness and inner exponents;
    # the integrability pair may vary
    for name in ("alpha0", "alpha1", "q0", "q1"):
        _constant(exp.field(name), name)
    bank = build_resolution_of_unity(exp.grid, exp.V)
    fns = corpus.band_limited_corpus(exp.grid, 2.0 ** exp.V, exp.items,
                                     exp.count, exp.seed)
    bracket = exp.tol("bracket")

    def one(job):
        i, f, theta = job
        rep = inter_rest_check(f, exp.field("alpha0"), exp.field("alpha1"),
                               exp.field("p0"), exp.field("p1"),
                               exp.field("q0"), exp.field("q1"), theta, bank)
        return i, theta, rep.ratio
    jobs = [(i, f, theta) for i, f in enumerate(fns) for theta in exp.thetas]
    rows = []
    for i, theta, ratio in _map_ordered(one, jobs):
        # folded two-sided bracket: pass iff 1/bracket <= ratio <= bracket
        folded = max(ratio, 1.0 / ratio) if ratio > 0.0 else float("inf")
        margin = bracket - folded
        rows.append(ReportRow("inter-rest",
                              acceptance._digest("inter-rest", exp.seed, i, theta),
                              float(ratio), float(bracket), float(margin),
                              margin >= 0.0))
    return rows, {"bracket": bracket}


EXPERIMENTS = {
    "norms": run_norms,
    "factorize-pp": lambda exp: run_factorize(exp, "pp"),
    "factorize-pq-infty": lambda exp: run_factorize(exp, "pq-infty"),
    "holder": run_holder,
    "roundtrip": run_roundtrip,
    "lebesgue-interp": run_lebesgue_interp,
    "inter-rest": run_inter_rest,
}


# ------------------------------------------------------------ norm verb


def run_norm_kind(exp: Experiment, which: str):
    _require_recipes(exp.cfg, which)
    rows = []
    if which in ("f", "finfty"):
        inputs = corpus.coefficient_corpus(exp.grid, exp.V, exp.items,
                                           exp.count, exp.seed,
                                           exp.distribution)
    else:
        inputs = corpus.band_limited_corpus(exp.grid, 2.0 ** exp.V, exp.items,
                                            exp.count, exp.seed)
    if which == "lux":
        p = exp.field("p0")
        values = [luxemburg_norm(f, p).value for f in inputs]
    elif which == "mixed":
        p, q = exp.field("p0"), exp.field("q0")
        bank = build_resolution_of_unity(exp.grid, exp.V)
        mults = [bank.multiplier(v) for v in range(exp.V + 1)]

        def slices(f):
            spec = np.fft.fftn(f.values)
            return [np.fft.ifftn(spec * m) for m in mults]
        values = [mixed_norm(slices(f), p, q).value for f in inputs]
    elif which == "f":
        alpha, p, q = exp.field("alpha0"), exp.field("p0"), exp.field("q0")
        values = [f_norm(lam, alpha, p, q).value for lam in inputs]
    elif which == "finfty":
        alpha, q = exp.field("alpha0"), exp.field("q0")
        values = [f_infty_norm(lam, alpha, _constant(q, "q0")) for lam in inputs]
    elif which == "F":
        alpha, p, q = exp.field("alpha0"), exp.field("p0"), exp.field("q0")
        bank = build_admissible_pair(exp.grid, exp.V)
        values = [F_norm(f, alpha, p, q, bank).value for f in inputs]
    else:
        alpha, q = exp.field("alpha0"), exp.field("q0")
        bank = build_admissible_pair(exp.grid, exp.V)
        values = [F_infty_norm(f, alpha, _constant(q, "q0"), bank) for f in inputs]
    for i, v in enumerate(values):
        rows.append(_upper(f"norm-{which}",
                           acceptance._digest("norm", which, exp.seed, i),
                           v, exp.tol("finite")))
    return rows, {"values": values}


# --------------------------------------------------------------- reports


def write_reports(cfg_echo: dict, kind: str, rows, extras: dict,
                  runtime: float, out: dict | None) -> None:
    out = out or {}
    csv_path = out.get("csv")
    json_path = out.get("json")
    if csv_path:
        Path(csv_path).write_text(rows_to_csv(rows), encoding="utf-8")
    if json_path:
        worst = min((r.margin for r in rows), default=0.0)
        doc = {
            "kind": kind,
            "version": __version__,
            "config": cfg_echo,
            "rows": [r.__dict__ for r in rows],
            "summary": {
                "rows": len(rows),
                "passed": all(r.passed for r in rows),
                "worst_margin": worst,
                "runtime_seconds": runtime,
                **extras,
            },
        }
        Path(json_path).write_text(json.dumps(doc, indent=2) + "\n",
                                   encoding="utf-8")


def _print_rows(rows, limit: int = 12) -> None:
    for r in rows[:limit]:
        print(f"  {r.criterion} {r.digest} value={r.value:.12g} "
              f"bound={r.bound:.12g} pass={'yes' if r.passed else 'NO'}")
    if len(rows) > limit:
        print(f"  ... {len(rows) - limit} more rows")


# ----------------------------------------------------------------- verbs


def cmd_run(path: str) -> int:
    cfg = load_config(path)
    exp = Experiment(cfg)
    out = dict(cfg.get("output") or {})
    out.setdefault("csv", f"{exp.kind}-report.csv")
    out.setdefault("json", f"{exp.kind}-report.json")
    if exp.kind == "suite":
        return cmd_suite(exp.seed, out["csv"], out["json"])
    t0 = time.perf_counter()
    try:
        rows, extras = EXPERIMENTS[exp.kind](exp)
    except _CONTRACT_ERRORS as exc:
        print(f"contract failure [{exp.kind}]: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    runtime = time.perf_counter() - t0
    write_reports(exp.echo(), exp.kind, rows, extras, runtime, out)
    passed = all(r.passed for r in rows)
    print(f"{exp.kind}: {len(rows)} rows, "
          f"{'all passed' if passed else 'FAILURES'} ({runtime:.2f}s)")
    if not passed:
        _print_rows([r for r in rows if not r.passed])
    return EXIT_PASS if passed else EXIT_CONTRACT


def cmd_suite(seed: int, csv_path=None, json_path=None, out_dir=None) -> int:
    if out_dir is not None:
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        csv_path = csv_path or str(directory / "suite.csv")
        json_path = json_path or str(directory / "suite.json")
    suite = acceptance.run_suite(seed)
    for res in suite.results:
        status = "pass" if res.passed else "FAIL"
        print(f"A{res.cid:02d} {res.title}: {status} "
              f"({len(res.rows)} rows, {res.elapsed:.2f}s)")
    det = "pass" if suite.deterministic else "FAIL"
    print(f"A17 regeneration determinism: {det}")
    if csv_path:
        Path(csv_path).write_text(suite.csv, encoding="utf-8")
        print(f"rows written to {csv_path}")
    if json_path:
        doc = {
            "kind": "suite",
            "version": __version__,
            "seed": seed,
            "rows": [r.__dict__ for r in suite.rows],
            "summary": {
                "passed": suite.passed,
                "deterministic": suite.deterministic,
                "runtime_seconds": suite.elapsed_first,
                "criteria": [
                    {"id": res.cid, "title": res.title, "rows": len(res.rows),
                     "passed": res.passed, "elapsed": res.elapsed,
                     "budget": res.budget}
                    for res in suite.results
                ],
            },
        }
        Path(json_path).write_text(json.dumps(doc, indent=2) + "\n",
                                   encoding="utf-8")
    if not suite.passed:
        failed = [f"A{res.cid:02d}" for res in suite.results if not res.passed]
        if not suite.deterministic:
            failed.append("A17")
        print(f"failed criteria: {', '.join(failed) or 'runtime budget'}",
              file=sys.stderr)
        return EXIT_CONTRACT
    print(f"suite passed in {suite.elapsed_first:.2f}s (seed {seed})")
    return EXIT_PASS


def cmd_norm(which: str, path: str) -> int:
    cfg = load_config(path)
    exp = Experiment(cfg)
    t0 = time.perf_counter()
    try:
        rows, extras = run_norm_kind(exp, which)
    except _CONTRACT_ERRORS as exc:
        print(f"contract failure [norm-{which}]: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    runtime = time.perf_counter() - t0
    for i, value in enumerate(extras["values"]):
        print(f"item {i}: {value:.12e}")
    write_reports(exp.echo(), f"norm-{which}", rows, extras, runtime,
                  cfg.get("output"))
    passed = all(r.passed for r in rows)
    return EXIT_PASS if passed else EXIT_CONTRACT


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vexint",
        description="variable-exponent interpolation experiments")
    parser.add_argument("--version", action="version",
                        version=f"vexint {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="execute a config-described experiment")
    p_run.add_argument("config")

    p_suite = sub.add_parser("suite", help="run the acceptance matrix")
    p_suite.add_argument("--seed", type=int, required=True)
    p_suite.add_argument("--out", default=None,
                         help="directory for suite.csv and suite.json")

    p_norm = sub.add_parser("norm", help="evaluate one norm over a corpus")
    p_norm.add_argument("--kind", choices=NORM_KINDS, required=True)
    p_norm.add_argument("config")

    sub.add_parser("describe-schema", help="print the config JSON schema")

    args = parser.parse_args(argv)
    try:
        if args.verb == "run":
            return cmd_run(args.config)
        if args.verb == "suite":
            return cmd_suite(args.seed, out_dir=args.out or ".")
        if args.verb == "norm":
            return cmd_norm(args.kind, args.config)
        print(json.dumps(CONFIG_SCHEMA, indent=2))
        return EXIT_PASS
    except ConfigError as exc:
        print(f"config error at {exc.where}: {exc.message}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
