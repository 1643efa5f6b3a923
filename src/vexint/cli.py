"""Command-line entry point: config ingestion, experiments, and reports.

Configs are single JSON documents validated against CONFIG_SCHEMA
(`vexint describe-schema` prints it).  Every experiment is seeded through
the config, report rows share the suite's fixed CSV columns, and runtimes
live only in the JSON summary so a fixed seed reproduces the CSV byte for
byte.  Exit codes: 0 all contracts passed, 1 contract failure, 2 config
or schema violation.  A VexintError raised while the config is read
(`make_grid`, `build_field`, `decode_coefficients`) is a config violation;
one raised by a run is a contract failure.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import __version__, acceptance, corpus
from .acceptance import ReportRow, _lower, _upper, rows_to_csv
from .calderon import factorization_params_pp, factorization_params_pq_infty, factorize, \
    verify_holder_direction
from .errors import InvalidInput, VexintError
from .exponents import ExponentField, _constant_value, build_exponent
from .grid import Grid, make_grid
from .interp import _check_strip_theta, inter_rest_check, scalar_interp_sandwich
from .lebesgue import luxemburg_norm
from .lpf import (
    F_infty_norm,
    F_norm,
    build_admissible_pair,
    build_dual_pair,
    build_resolution_of_unity,
    retract_roundtrip,
    transform_roundtrip,
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

DEFAULT_TOLERANCES = {
    "reconstruction": 1e-9,
    "holder": 1e-9,
    "residual": 1e-6,
    "upper": 1e-6,
    "bracket": 4.0,
    "finite": 1e12,
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
                "L": {"type": "number", "minimum": 0.5},
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
            "additionalProperties": False,
            "properties": {name: {"type": "number", "exclusiveMinimum": 0}
                           for name in DEFAULT_TOLERANCES},
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"csv": {"type": "string"}, "json": {"type": "string"}},
        },
    },
}

# recipes each experiment and norm kind reads, in build order (holder reads those
# of factorize-<construction>); missing ones are a config error, not a default
REQUIRED_RECIPES = {
    "norms": ("alpha0", "p0", "q0"),
    "factorize-pp": ("alpha0", "alpha1", "p0", "p1"),
    "factorize-pq-infty": ("alpha0", "alpha1", "p0", "q0", "q1"),
    "lebesgue-interp": ("p0", "p1"),
    "inter-rest": ("alpha0", "alpha1", "p0", "p1", "q0", "q1"),
    "lux": ("p0",),
    "mixed": ("p0", "q0"),
    "f": ("alpha0", "p0", "q0"),
    "finfty": ("alpha0", "q0"),
    "F": ("alpha0", "p0", "q0"),
    "Finfty": ("alpha0", "q0"),
}


class ConfigError(Exception):
    """Schema or semantic config violation; carries the offending location.
    It is no VexintError, so one raised inside a run still exits 2."""

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
    import jsonschema  # on first use: the library and the suite verb never need it

    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        raise ConfigError(err.json_path, err.message)
    return cfg


def build_field(grid: Grid, name: str, spec: dict) -> ExponentField:
    role = "smoothness" if name.startswith("alpha") else "integrability"
    kwargs = {k: v for k, v in spec.items() if k != "recipe"}
    try:
        return build_exponent(grid, spec["recipe"], role=role, **kwargs)
    except VexintError as exc:
        raise ConfigError(f"$.exponents.{name}", str(exc)) from exc


def _constant(field: ExponentField, name: str) -> float:
    try:
        return _constant_value(field, name)
    except VexintError as exc:
        raise ConfigError(f"$.exponents.{name}", str(exc)) from exc


def decode_coefficients(grid: Grid, V: int, records, where: str) -> DyadicCoefficients:
    try:
        return DyadicCoefficients.from_records(grid, V, records)
    except VexintError as exc:
        raise ConfigError(where, str(exc)) from exc


class Experiment:
    """Config unpacked against one grid, with defaults echoed back."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.kind = cfg["kind"]
        g = cfg["grid"]
        try:
            self.grid = make_grid(g["n"], g["L"], g["N"])
        except VexintError as exc:
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

    def fields(self, kind: str) -> dict:
        """The exponent fields `kind` reads, built in REQUIRED_RECIPES order."""
        have = self.cfg.get("exponents", {})
        for name in REQUIRED_RECIPES[kind]:
            if name not in have:
                raise ConfigError(f"$.exponents.{name}",
                                  f"recipe required by kind {kind!r}")
        return {name: build_field(self.grid, name, have[name])
                for name in REQUIRED_RECIPES[kind]}

    def coefficients(self) -> list:
        return corpus.coefficient_corpus(self.grid, self.V, self.items, self.count,
                                         self.seed)

    def functions(self) -> list:
        """The band-limited corpus as mode draws; `realize` builds one item."""
        return corpus.mode_corpus(self.grid.n, self.grid.L, 2.0 ** self.V, self.items,
                                  self.count, self.seed)

    def realize(self, modes: dict):
        return corpus.trig_polynomial(self.grid, modes)

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
    """Dispatch items to the worker pool; results come back in input order.

    The threads overlap because numpy releases the GIL in a job's FFTs and array passes.
    A job that builds its own input from a small item (`_over_corpus`) keeps at most
    one input per worker alive.  The first failing item in input order raises.
    """
    if len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(os.cpu_count() or 1, len(items))) as pool:
        return list(pool.map(fn, items))


def _over_corpus(items, one, thetas, realize=None) -> list:
    """[(i, theta, one(x_i, theta))] for every item and theta, through the pool.

    One job per item: it builds x_i = realize(items[i]) (items[i] itself when
    `realize` is None) and runs every theta on it, so each item is built once,
    inside its job.  A failure is that of the lowest failing (i, theta).
    """
    def job(item):
        x = item if realize is None else realize(item)
        return [one(x, theta) for theta in thetas]
    return [(i, theta, r) for i, results in enumerate(_map_ordered(job, items))
            for theta, r in zip(thetas, results)]


def _construction(exp: Experiment, construction: str) -> dict:
    """{theta: params} of the pp or p/infty factorization."""
    f = exp.fields("factorize-" + construction)
    alpha0, alpha1, p0 = f["alpha0"], f["alpha1"], f["p0"]
    if construction == "pp":
        return {theta: factorization_params_pp(theta, alpha0, alpha1, p0, f["p1"])
                for theta in exp.thetas}
    q0, q1 = _constant(f["q0"], "q0"), _constant(f["q1"], "q1")
    return {theta: factorization_params_pq_infty(theta, alpha0, alpha1, p0, q0, q1)
            for theta in exp.thetas}


# ------------------------------------------------------------- experiments


def run_factorize(exp: Experiment, construction: str):
    kind = "factorize-" + construction
    params = _construction(exp, construction)

    def one(lam, theta):
        res = factorize(lam, params[theta])
        return res.reconstruction_error, res.factor0_norm, res.factor1_norm
    rows, norms = [], []
    for i, theta, (dev, n0, n1) in _over_corpus(exp.coefficients(), one, exp.thetas):
        rows.append(_upper(kind, acceptance._digest(kind, exp.seed, i, theta),
                           dev, exp.tol("reconstruction")))
        norms.append({"item": i, "theta": theta, "factor0_norm": n0,
                      "factor1_norm": n1})
    return rows, {"factor_norms": norms}


def run_holder(exp: Experiment):
    explicit = exp.cfg.get("coefficients")
    if explicit is None:
        params = _construction(exp, exp.construction)
        items = exp.coefficients()

        def one(lam, theta):
            res = factorize(lam, params[theta])
            return verify_holder_direction(lam.scaled(1.0 / res.lam_norm), res.lam0,
                                           res.lam1, params[theta])
    else:
        for name in ("lam", "lam0", "lam1"):
            if name not in explicit:
                raise ConfigError(f"$.coefficients.{name}",
                                  "holder kind needs lam, lam0 and lam1")
        lam, lam0, lam1 = (decode_coefficients(exp.grid, exp.V, explicit[name],
                                               f"$.coefficients.{name}")
                           for name in ("lam", "lam0", "lam1"))
        items = [lam]
        # decoded first: a coefficient error is a config error before any params error
        params = _construction(exp, exp.construction)

        def one(lam, theta):
            return verify_holder_direction(lam, lam0, lam1, params[theta])
    rows = []
    for i, theta, rep in _over_corpus(items, one, exp.thetas):
        # an explicit triple is keyed by theta alone
        key = (i, theta) if explicit is None else (theta,)
        rows.append(_lower("holder", acceptance._digest("holder", exp.seed, *key),
                           rep.margin, -exp.tol("holder") * rep.product))
    return rows, {}


def run_roundtrip(exp: Experiment):
    dual = build_dual_pair(build_admissible_pair(exp.grid, exp.V))
    rou = build_resolution_of_unity(exp.grid, exp.V)

    def one(f, _theta):
        return transform_roundtrip(f, dual), retract_roundtrip(f, rou).residual
    rows = []
    for i, _, (transform, retract) in _over_corpus(exp.functions(), one, [None],
                                                   exp.realize):
        rows.append(_upper("roundtrip",
                           acceptance._digest("roundtrip", exp.seed, i, "T"),
                           transform, exp.tol("residual")))
        rows.append(_upper("roundtrip",
                           acceptance._digest("roundtrip", exp.seed, i, "R"),
                           retract, exp.tol("residual")))
    return rows, {"band_radius": 2.0 ** exp.V}


def run_lebesgue_interp(exp: Experiment):
    for i, theta in enumerate(exp.thetas):
        try:
            _check_strip_theta(theta)
        except InvalidInput as exc:
            raise ConfigError(f"$.theta[{i}]", str(exc)) from exc
    f = exp.fields("lebesgue-interp")
    simples = corpus.simple_function_corpus(exp.grid, exp.items, exp.regions,
                                            exp.seed)
    rows, lower = [], []

    def one(g, theta):
        return scalar_interp_sandwich(g, f["p0"], f["p1"], theta)
    for i, theta, rep in _over_corpus(simples, one, exp.thetas):
        rows.append(_upper("lebesgue-interp",
                           acceptance._digest("lebesgue-interp", exp.seed,
                                              i, theta),
                           rep.upper_ratio, 1.0 + exp.tol("upper")))
        lower.append({"item": i, "theta": theta, "lower_ratio": rep.lower_ratio,
                      "rho0": rep.rho0, "rho1": rep.rho1})
    return rows, {"lower_ratios": lower}


def run_inter_rest(exp: Experiment):
    f = exp.fields("inter-rest")
    # the retraction route needs constant smoothness and inner exponents;
    # the integrability pair may vary
    for name in ("alpha0", "alpha1", "q0", "q1"):
        _constant(f[name], name)
    bank = build_resolution_of_unity(exp.grid, exp.V)
    bracket = exp.tol("bracket")
    rows = []

    def one(g, theta):
        return inter_rest_check(g, f["alpha0"], f["alpha1"], f["p0"], f["p1"],
                                f["q0"], f["q1"], theta, bank).ratio
    for i, theta, ratio in _over_corpus(exp.functions(), one, exp.thetas, exp.realize):
        # folded two-sided bracket: pass iff 1/bracket <= ratio <= bracket
        folded = max(ratio, 1.0 / ratio) if ratio > 0.0 else float("inf")
        margin = bracket - folded
        rows.append(ReportRow("inter-rest",
                              acceptance._digest("inter-rest", exp.seed, i, theta),
                              float(ratio), float(bracket), float(margin),
                              margin >= 0.0))
    return rows, {"bracket": bracket}


def _norm_of(exp: Experiment, which: str, f: dict):
    """The norm `which` of one corpus item, with its filter bank and constant q built once."""
    alpha, p, q = (f.get(name) for name in ("alpha0", "p0", "q0"))
    if which == "lux":
        return lambda g: luxemburg_norm(g, p).value
    if which == "f":
        return lambda lam: f_norm(lam, alpha, p, q).value
    if which == "finfty":
        q_const = _constant(q, "q0")
        return lambda lam: f_infty_norm(lam, alpha, q_const)
    if which == "mixed":
        # the unweighted resolution-of-unity decomposition: F_norm at smoothness 0
        zero = build_exponent(exp.grid, "constant", value=0.0, role="smoothness")
        bank = build_resolution_of_unity(exp.grid, exp.V)
        return lambda g: F_norm(g, zero, p, q, bank).value
    bank = build_admissible_pair(exp.grid, exp.V)
    if which == "F":
        return lambda g: F_norm(g, alpha, p, q, bank).value
    q_const = _constant(q, "q0")
    return lambda g: F_infty_norm(g, alpha, q_const, bank)


def run_norm_kind(exp: Experiment, which: str, kind: str | None = None):
    """One norm over the corpus.  Rows are labelled norm-<which>, or by the
    experiment `kind` that runs this norm under its own label and recipes."""
    label, key = (f"norm-{which}", ("norm", which)) if kind is None else (kind, (kind,))
    norm = _norm_of(exp, which, exp.fields(kind or which))
    if which in ("f", "finfty"):
        items, realize = exp.coefficients(), None
    else:
        items, realize = exp.functions(), exp.realize
    values = [v for _, _, v in _over_corpus(items, lambda x, _theta: norm(x), [None],
                                            realize)]
    rows = [_upper(label, acceptance._digest(*key, exp.seed, i), v, exp.tol("finite"))
            for i, v in enumerate(values)]
    return rows, {"values": values}


EXPERIMENTS = {
    "norms": lambda exp: run_norm_kind(exp, "f", "norms"),
    "factorize-pp": lambda exp: run_factorize(exp, "pp"),
    "factorize-pq-infty": lambda exp: run_factorize(exp, "pq-infty"),
    "holder": run_holder,
    "roundtrip": run_roundtrip,
    "lebesgue-interp": run_lebesgue_interp,
    "inter-rest": run_inter_rest,
}


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


# failing rows printed by `vexint run`; the rest are counted
PRINTED_ROWS = 12


def _print_rows(rows) -> None:
    for r in rows[:PRINTED_ROWS]:
        print(f"  {r.criterion} {r.digest} value={r.value:.12g} "
              f"bound={r.bound:.12g} pass={'yes' if r.passed else 'NO'}")
    if len(rows) > PRINTED_ROWS:
        print(f"  ... {len(rows) - PRINTED_ROWS} more rows")


# ----------------------------------------------------------------- verbs


def _execute(exp: Experiment, label: str, run, out: dict | None, show) -> int:
    """Time run(), print it by show(rows, extras, runtime), write the reports;
    any VexintError of the run is a contract failure, reported under `label`."""
    t0 = time.perf_counter()
    try:
        rows, extras = run()
    except VexintError as exc:
        print(f"contract failure [{label}]: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    runtime = time.perf_counter() - t0
    show(rows, extras, runtime)
    write_reports(exp.echo(), label, rows, extras, runtime, out)
    return EXIT_PASS if all(r.passed for r in rows) else EXIT_CONTRACT


def cmd_run(path: str) -> int:
    cfg = load_config(path)
    exp = Experiment(cfg)
    out = dict(cfg.get("output") or {})
    out.setdefault("csv", f"{exp.kind}-report.csv")
    out.setdefault("json", f"{exp.kind}-report.json")
    if exp.kind == "suite":
        return cmd_suite(exp.seed, out["csv"], out["json"])

    def show(rows, _extras, runtime):
        passed = all(r.passed for r in rows)
        print(f"{exp.kind}: {len(rows)} rows, "
              f"{'all passed' if passed else 'FAILURES'} ({runtime:.2f}s)")
        if not passed:
            _print_rows([r for r in rows if not r.passed])
    return _execute(exp, exp.kind, lambda: EXPERIMENTS[exp.kind](exp), out, show)


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
    rerun = ("the re-run sent no rows" if suite.elapsed_rerun is None
             else f"{suite.elapsed_rerun:.2f}s")
    print(f"A17 regeneration determinism: {det} ({rerun})")
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
                "rerun_seconds": suite.elapsed_rerun,
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

    def show(_rows, extras, _runtime):
        for i, value in enumerate(extras["values"]):
            print(f"item {i}: {value:.12e}")
    return _execute(exp, f"norm-{which}", lambda: run_norm_kind(exp, which),
                    cfg.get("output"), show)


# glibc mallopt (param, value): M_ARENA_MAX, M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
_HEAP_SETTINGS = ((-8, 1), (-3, 32 << 20), (-1, 64 << 20))


def _keep_heap_resident() -> None:
    """Keep freed numpy temporaries in the heap for the rest of this process.

    The filter-bank FFTs and Luxemburg solves allocate and free arrays of
    0.5-2 MB per call.  With glibc's defaults each one is returned to the OS
    (munmap, or a trim of the heap top) and the next call faults its pages
    in again.  An mmap threshold of 32 MiB and a trim threshold of 64 MiB
    keep them in the heap; one arena keeps the pool threads from each
    holding freed memory of their own, which would raise the peak RSS
    instead.  glibc only, a no-op elsewhere.  Only `main` calls it, so
    importing vexint leaves the host process's allocator alone.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    libc = ctypes.CDLL(None)
    for param, value in _HEAP_SETTINGS:
        libc.mallopt(param, value)


def main(argv=None) -> int:
    _keep_heap_resident()
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
