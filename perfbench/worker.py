"""One repetition of one benchmark workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed S --workdir DIR \
        --result FILE [--trace {spans,memory}] [--setup-only]

The process imports vexint from the checkout's `src`, builds the
workload's inputs (set-up), notes the monotonic time of its first timed
call, runs the workload body once, checks the outputs and writes one JSON
document to FILE.  Every repetition runs in its own process, so grids,
fields and every memo on them are new each time.  With --trace the body
runs under the tracer and the document carries per-layer metrics (spans:
times and counts; memory: tracemalloc peaks); --setup-only stops before
the first timed call.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# the seeded workloads draw their inputs from a family of this many
# members (seed mod VARIANTS); reference.json holds each member's outputs
VARIANTS = 16
REL_TOL = 1e-9


def _import_vexint():
    sys.path.insert(0, str(ROOT / "src"))
    import vexint
    import vexint.cli  # noqa: F401  (imports every library module)

    if Path(vexint.__file__).resolve().parent != ROOT / "src" / "vexint":
        raise SystemExit(f"vexint imported from {vexint.__file__}, not from the checkout")
    return vexint


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _reference(workload: str, variant: int) -> dict:
    return json.loads((HERE / "reference.json").read_text())[workload][str(variant)]


def _quiet(fn, *args):
    """fn(*args) with its standard output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


class Checks:
    """Attempted and failed correctness checks of one repetition."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def fail(self, count: int, what: str) -> None:
        for _ in range(count):
            self.check(False, what)


# ------------------------------------------------------------------ suite


class Suite:
    """`vexint suite --seed S` through the CLI entry point."""

    expected_checks = 19  # exit code, A01-A16, A17, the suite verdict

    def __init__(self, vexint, seed: int, workdir: Path):
        self.seed = seed
        self.out = workdir / "suite"

    def run(self):
        from vexint import cli

        return _quiet(cli.main, ["suite", "--seed", str(self.seed), "--out", str(self.out)])

    def check(self, code, checks: Checks, info: dict) -> None:
        checks.check(code == 0, f"suite exit code {code}")
        summary = json.loads((self.out / "suite.json").read_text())["summary"]
        for crit in summary["criteria"]:
            checks.check(crit["passed"], f"A{crit['id']:02d} failed")
        checks.check(summary["deterministic"], "A17 determinism failed")
        checks.check(summary["passed"], "suite failed (rows, A17 or runtime budget)")
        info["first_pass_s"] = summary["runtime_seconds"]
        info["criteria_s"] = {f"A{c['id']:02d}": c["elapsed"] for c in summary["criteria"]}
        info["csv_sha256"] = {"suite.csv": _sha256(self.out / "suite.csv")}


# -------------------------------------------------------- regularity-2d


def _field_2d(vexint, grid, rng, base, amps, role):
    """base plus seeded plane waves with integer wave vectors (periodic)."""
    x, y = grid.coords()
    k = math.pi / grid.L
    vals = np.full(grid.shape, float(base))
    for amp in amps:
        a, b = (int(v) for v in rng.integers(-3, 4, size=2))
        vals = vals + amp * np.sin(k * (a * x + b * y) + rng.uniform(0.0, 2.0 * math.pi))
    # the declared range is padded so rounding in the sum cannot escape it
    spread = float(np.sum(np.abs(amps))) + 1e-9
    return vexint.ExponentField(grid, vals, float(base) - spread, float(base) + spread, role)


class Regularity2D:
    """Exact and sampled log-Hoelder offset scans on fresh 2D fields.

    A smoothness field at n=2, N=256 (exactly EXHAUSTIVE_POINT_LIMIT points)
    goes through log_holder_constants (exact all-pairs scan) and
    verify_alpha_shift; an integrability field at N=512 goes through
    verify_jensen_gamma, whose log-Hoelder constant is sampled.
    """

    expected_checks = 4

    def __init__(self, vexint, seed: int, workdir: Path):
        from vexint import corpus, lebesgue

        self.variant = seed % VARIANTS
        rng = np.random.default_rng([self.variant, 4])
        grid = vexint.make_grid(2, 2.0, 256)
        self.alpha = _field_2d(vexint, grid, rng, rng.uniform(-0.3, 0.3),
                               rng.uniform(0.05, 0.2, size=2), "smoothness")
        fine = vexint.make_grid(2, 2.0, 512)
        self.p = _field_2d(vexint, fine, rng, rng.uniform(2.0, 2.6),
                           rng.uniform(0.1, 0.25, size=2), "integrability")
        raw = np.abs(corpus.trig_polynomial(
            fine, corpus.random_modes(2, fine.L, 8.0, 12, rng)).values)
        scale = lebesgue.luxemburg_norm(raw, self.p).value + float(raw.max())
        self.f = raw / (scale * (1.0 + 1e-12))

    def self_test(self) -> None:
        # a memoized report would turn the timed scans into cache hits
        for name, field in (("alpha", self.alpha), ("p", self.p)):
            if getattr(field, "_lh_report", None) is not None:
                raise SystemExit(f"self-test: {name} carries a memoized log-Hoelder report")

    def run(self):
        from vexint import exponents, kernels
        from vexint.errors import PreconditionWarning

        lh = exponents.log_holder_constants(self.alpha)
        # R below c_loc lets the ratio exceed 1 away from offset 0, so the
        # reported c is a genuine maximum over the scanned offsets
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PreconditionWarning)
            shift = kernels.verify_alpha_shift(self.alpha, 2.0, 0.5 * lh.c_loc, range(5))
        jensen = kernels.verify_jensen_gamma(self.p, 3.0, self.f, [0, 1, 2, 3])
        return {"c_loc": lh.c_loc, "c_dec": lh.c_dec, "alpha_shift_c": shift.c,
                "jensen_margin": jensen.margin_min}

    def values(self, outcome) -> dict:
        return outcome

    def check(self, outcome, checks: Checks, info: dict) -> None:
        for key, want in _reference("regularity-2d", self.variant).items():
            got = outcome[key]
            checks.check(got == want, f"{key} = {got!r}, reference {want!r}")


# ---------------------------------------------------------------- cli-2d


def _sine(rng, lo, hi, amp_lo, amp_hi):
    return {"recipe": "sine", "base": float(rng.uniform(lo, hi)),
            "amplitude": float(rng.uniform(amp_lo, amp_hi)),
            "frequency": int(rng.integers(1, 4))}


def _constant(rng, lo, hi):
    return {"recipe": "constant", "value": float(rng.uniform(lo, hi))}


class Cli2D:
    """A batch of CLI verbs on the 2D desk grid, from generated configs."""

    expected_checks = None
    # (tag, verb, experiment kind, corpus items); the item counts weight
    # the batch towards Luxemburg solves and filter-bank FFTs
    VERBS = (
        ("roundtrip", ["run"], "roundtrip", 24),
        ("lux", ["norm", "--kind", "lux"], "norms", 64),
        ("F", ["norm", "--kind", "F"], "norms", 32),
        ("norms", ["run"], "norms", 24),
        ("factorize-pq-infty", ["run"], "factorize-pq-infty", 8),
    )

    def __init__(self, vexint, seed: int, workdir: Path):
        self.variant = seed % VARIANTS
        self.dir = workdir
        rng = np.random.default_rng([self.variant, 5])
        exps = {
            "alpha0": _sine(rng, -0.3, 0.3, 0.1, 0.3),
            "alpha1": _constant(rng, -0.3, 0.3),
            "p0": _sine(rng, 2.0, 2.8, 0.2, 0.5),
            "q0": _constant(rng, 1.5, 3.0),
            "q1": _constant(rng, 1.5, 3.0),
        }
        corpus_seed = int(rng.integers(2 ** 31))
        self.argv = []
        for tag, verb, kind, items in self.VERBS:
            cfg = {
                "kind": kind,
                "grid": {"n": 2, "L": 2.0, "N": 256},
                "levels": 3,
                "exponents": exps,
                "corpus": {"seed": corpus_seed, "items": items, "count": 200},
                "output": {"csv": str(workdir / f"{tag}.csv"),
                           "json": str(workdir / f"{tag}.json")},
            }
            path = workdir / f"{tag}.config.json"
            path.write_text(json.dumps(cfg, indent=1))
            self.argv.append((tag, [*verb, str(path)]))

    def run(self):
        from vexint import cli
        from vexint.errors import VexintError

        codes = {}
        for tag, argv in self.argv:
            try:
                codes[tag] = _quiet(cli.main, argv)
            except VexintError as exc:
                codes[tag] = f"{type(exc).__name__}: {exc}"
        return codes

    def values(self, codes) -> dict:
        out = {tag: json.loads((self.dir / f"{tag}.json").read_text())["summary"]["values"]
               for tag in ("lux", "F", "norms")}
        doc = json.loads((self.dir / "factorize-pq-infty.json").read_text())
        out["factor_norms"] = [[r["factor0_norm"], r["factor1_norm"]]
                               for r in doc["summary"]["factor_norms"]]
        return out

    def check(self, codes, checks: Checks, info: dict) -> None:
        info["csv_sha256"] = {}
        for tag, _argv in self.argv:
            checks.check(codes[tag] == 0, f"{tag}: exit {codes[tag]}")
            csv = self.dir / f"{tag}.csv"
            if codes[tag] not in (0, 1) or not csv.exists():
                continue
            info["csv_sha256"][csv.name] = _sha256(csv)
            for line in csv.read_text().splitlines()[1:]:
                checks.check(line.endswith(",1"), f"{tag}: row failed: {line}")
        try:
            got = self.values(codes)
        except (OSError, KeyError, ValueError):
            got = {}
        for key, want in _reference("cli-2d", self.variant).items():
            have = got.get(key)
            if have is None or np.shape(have) != np.shape(want):
                checks.fail(np.size(want), f"{key}: output missing or misshapen")
                continue
            for g, w in zip(np.ravel(have), np.ravel(want)):
                checks.check(abs(g - w) <= REL_TOL * abs(w), f"{key}: {g!r} vs reference {w!r}")


WORKLOADS = {"suite": Suite, "regularity-2d": Regularity2D, "cli-2d": Cli2D}


def measure(workload, trace: str | None) -> dict:
    """Run the body once, timed, then check its outputs.

    trace: None, "spans" (per-layer times and counts) or "memory"
    (per-layer tracemalloc peaks).
    """
    from vexint.errors import VexintError

    tracer = None
    if trace is not None:
        from layers import install_tracer

        tracer = install_tracer(memory=trace == "memory")
    if trace == "memory":
        tracemalloc.start()
    t0 = time.perf_counter()
    try:
        outcome = workload.run()
    except VexintError as exc:
        outcome = exc
    wall = time.perf_counter() - t0
    if trace == "memory":
        tracemalloc.stop()
    checks = Checks()
    info: dict = {}
    if isinstance(outcome, VexintError):
        checks.fail(workload.expected_checks or 1, f"{type(outcome).__name__}: {outcome}")
    else:
        workload.check(outcome, checks, info)
    doc = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        **info,
    }
    if trace == "spans":
        from layers import layer_metrics

        doc["layers"] = layer_metrics(tracer, info)
    elif trace == "memory":
        from layers import memory_metrics

        doc["peaks"] = memory_metrics(tracer)
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="one repetition of a benchmark workload")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--trace", choices=("spans", "memory"))
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    vexint = _import_vexint()
    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](vexint, args.seed, args.workdir)
    if hasattr(workload, "self_test"):
        workload.self_test()
    doc = {"ready": time.monotonic()}
    if not args.setup_only:
        doc.update(measure(workload, args.trace))
        accel = sys.modules.get("vexint._accel")
        doc["accel_backend"] = accel.get_backend() if hasattr(accel, "get_backend") else None
    args.result.write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
