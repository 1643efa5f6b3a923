"""vexint benchmark: one workload, end to end or traced layer by layer.

    python3 perfbench/run.py --workload {suite,regularity-2d,cli-2d} \
        --seed S --seconds T --trace {0,1}

Run from the root of a checkout; vexint is imported from its `src`.
Every repetition of the workload body runs in a fresh worker process
(worker.py) whose inputs are built from the seed.

--trace 0 repeats the body for about T seconds (at least MIN_REPS times
so the medians have a middle) and reports
the end-to-end metrics: median wall time of the body, median set-up time
(process start to first timed call, sampled at least MIN_SETUPS times) and
median peak resident memory.  --trace 1 runs the body once untraced, once
under the timing tracer and once under the memory tracer (tracemalloc),
and reports the per-layer metrics (see layers.py).

Human-readable lines go first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("suite", "regularity-2d", "cli-2d")
MIN_REPS = 3
MIN_SETUPS = 5
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "cpu_count": os.cpu_count(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "VEXINT_ACCEL": os.environ.get("VEXINT_ACCEL"),
        "VEXINT_THREADS": os.environ.get("VEXINT_THREADS"),
    }


class Runner:
    """Runs worker processes one at a time and collects their results."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.spawned = 0

    def spawn(self, *, trace: str | None = None, setup_only: bool = False) -> dict:
        """One worker; its result document plus setup_s and span_s."""
        self.spawned += 1
        repdir = self.workdir / f"rep{self.spawned}"
        repdir.mkdir(parents=True)
        result = repdir / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--workdir", str(repdir), "--result", str(result)]
        if trace is not None:
            cmd += ["--trace", trace]
        if setup_only:
            cmd.append("--setup-only")
        began = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=repdir, stdout=sys.stderr.fileno())
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - began))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from None
        ended = time.monotonic()
        if code != 0:
            raise BenchError(f"worker exited with code {code}")
        doc = json.loads(result.read_text())
        doc["setup_s"] = doc["ready"] - began
        doc["span_s"] = ended - began
        shutil.rmtree(repdir)
        return doc


def run_untraced(runner: Runner, seconds: float) -> tuple[list, list]:
    """At least MIN_REPS repetitions, more while the next one would end
    within `seconds`; then set-up samples up to MIN_SETUPS."""
    start = time.monotonic()
    reps = []
    while True:
        reps.append(runner.spawn())
        typical = statistics.median(r["span_s"] for r in reps)
        if len(reps) >= MIN_REPS and time.monotonic() - start + typical > seconds:
            break
    setups = [r["setup_s"] for r in reps]
    while len(setups) < MIN_SETUPS:
        setups.append(runner.spawn(setup_only=True)["setup_s"])
    return reps, setups


def _metric(value, unit):
    return {"value": value, "unit": unit}


def report_untraced(reps, setups) -> dict:
    for i, r in enumerate(reps, 1):
        print(f"rep {i}: wall_s={r['wall_s']:.4f} setup_s={r['setup_s']:.4f} "
              f"peak_rss_mb={r['peak_rss_mb']:.1f} checks={r['attempted'] - r['failed']}"
              f"/{r['attempted']}")
    print("setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))
    if "first_pass_s" in reps[0]:
        first = statistics.median(r["first_pass_s"] for r in reps)
        print(f"first_pass_s (suite criteria 1-16, median): {first:.4f} s")
    return {
        "wall_s": _metric(statistics.median(r["wall_s"] for r in reps), "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }


def report_traced(plain, traced, memory) -> dict:
    layers = traced["layers"]
    busy = layers["busy_s"]
    total = sum(busy.values()) or 1.0
    print(f"traced wall_s={traced['wall_s']:.4f} untraced wall_s={plain['wall_s']:.4f}")
    print("busy self time by layer: " + ", ".join(
        f"{k} {v:.3f}s ({100.0 * v / total:.1f}%)"
        for k, v in sorted(busy.items(), key=lambda kv: -kv[1])))
    if layers["missing"]:
        print("absent (wrapped name not found): " + ", ".join(layers["missing"]))
    metrics = {}
    for name, (value, unit) in {**layers["metrics"], **memory["peaks"]}.items():
        if value is None:
            print(f"absent metric: {name}")
            continue
        metrics[name] = _metric(value, unit)
    metrics["trace.overhead_s"] = _metric(traced["wall_s"] - plain["wall_s"], "s")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="vexint benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "vexint" / "__init__.py").is_file():
        print(f"no vexint sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_tmp"
    runner = Runner(args.workload, args.seed, scratch / f"{args.workload}-{os.getpid()}")
    try:
        if args.trace:
            reps = [runner.spawn(), runner.spawn(trace="spans"), runner.spawn(trace="memory")]
        else:
            reps, setups = run_untraced(runner, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()

    env = environment(args.seed)
    env["accel_backend"] = reps[-1].get("accel_backend")
    print("env: " + json.dumps(env, sort_keys=True))
    metrics = report_traced(*reps) if args.trace else report_untraced(reps, setups)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print(f"checks: {attempted} attempted, {failed} failed, fail_frac={failed / attempted:.6g}")
    for r in reps:
        for what in r["failures"]:
            print(f"FAILED: {what}")
    for name, digest in sorted(reps[-1].get("csv_sha256", {}).items()):
        print(f"sha256 {name}: {digest}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
