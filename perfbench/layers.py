"""Which vexint functions the traced run wraps, and the per-layer metrics.

Span names are `<layer>.<what>`; the layer is the vexint module the
function lives in (`accel` stands for `vexint._accel`).  Every metric
below is derived from spans, counters read from public return values, or
FFT counts taken at lpf's numpy binding.  A metric whose spans all failed
to install (the wrapped name no longer exists) is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import tracemalloc

from tracer import MEMORY_LAYERS, Tracer

ACCEPTANCE = [f"A{cid:02d}" for cid in range(1, 17)]


def _count_iterations(tracer, args, kwargs, result, token):
    tracer.count("lebesgue.solver_iters", int(result.iterations))


def _lh_cached(args, kwargs):
    field = args[0] if args else kwargs.get("field")
    return getattr(field, "_lh_report", None) is not None


def _count_lh_offsets(tracer, args, kwargs, result, cached):
    if not cached:
        tracer.count("exponents.offsets_evaluated", int(result.offsets_evaluated))


def _lh_bucket(result):
    return "exponents.log_holder_" + ("exhaustive" if result.exhaustive else "sampled")


def _count_shift_offsets(tracer, args, kwargs, result, token):
    tracer.count("kernels.offsets_evaluated", int(result.offsets_evaluated))


def _count_pow_ops(tracer, args, kwargs, result, token):
    absf = args[0] if args else kwargs["absf"]
    tracer.count("lebesgue.pow_ops", int(getattr(absf, "size", 1)))


def _count_scan_diffs(tracer, args, kwargs, result, token):
    # offsets scanned (entries < 0 are covered by symmetry, offset 0 is
    # trivial) times the points differenced per offset
    g = args[0] if args else kwargs["g"]
    offsets = int((result >= 0.0).sum()) - 1
    tracer.count("accel.offset_scan_diffs", offsets * int(g.size))


def _pool_jobs(tracer):
    def prepare(map_ordered):
        def traced_map_ordered(fn, items):
            return map_ordered(tracer.span("cli.job", fn), items)
        return traced_map_ordered
    return prepare


def _without_tracemalloc(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracemalloc.stop()
        try:
            return fn(*args, **kwargs)
        finally:
            tracemalloc.start()
    return wrapper


def install_tracer(memory: bool) -> Tracer:
    """Wrap the library functions named below; returns the tracer.

    With `memory` only the MEMORY_LAYERS are wrapped, for peak tracking,
    and the suite's determinism re-run runs without tracemalloc: it
    repeats the first pass exactly, so its peaks are the first pass's.
    """
    t = Tracer(memory)
    acceptance = importlib.import_module("vexint.acceptance")
    if memory and hasattr(acceptance, "generate_rows"):
        acceptance.generate_rows = _without_tracemalloc(acceptance.generate_rows)
    t.install_method("grid", "Grid", "cube", "grid.cube")
    t.install_method("seqspaces", "DyadicCoefficients", "__post_init__", "seqspaces.coeff_init")
    t.install("seqspaces", "level_function", "seqspaces.level_function")
    t.install("seqspaces", "f_norm", "seqspaces.f_norm")
    t.install("seqspaces", "f_infty_norm", "seqspaces.f_infty")
    t.install("seqspaces", "f_infty_subset_norm", "seqspaces.f_infty")
    t.install("calderon", "factorize_pp", "calderon.factorize_pp")
    t.install("calderon", "factorize_pq_infty", "calderon.factorize_pq")
    t.install("calderon", "build_level_sets", "calderon.level_sets")
    t.install("calderon", "verify_holder_direction", "calderon.holder")
    t.install("calderon", "equivalence_experiment", "calderon.equivalence", dispatch=True)
    t.install("lebesgue", "luxemburg_norm", "lebesgue.luxemburg", after=_count_iterations)
    t.install("lebesgue", "stack", "lebesgue.stack")
    t.install("exponents", "log_holder_constants", "exponents.log_holder",
              before=_lh_cached, after=_count_lh_offsets, name_of=_lh_bucket)
    t.install("_accel", "offset_abs_max_1d", "accel.offset_scan", after=_count_scan_diffs)
    t.install("_accel", "offset_abs_max_2d", "accel.offset_scan", after=_count_scan_diffs)
    t.install("_accel", "modular_pow_sum", "accel.modular", after=_count_pow_ops)
    t.install("kernels", "verify_alpha_shift", "kernels.alpha_shift", after=_count_shift_offsets)
    t.install("kernels", "verify_jensen_gamma", "kernels.jensen")
    for builder in ("build_admissible_pair", "build_dual_pair", "build_resolution_of_unity"):
        t.install("lpf", builder, "lpf.bank_build")
    t.install("lpf", "analyze", "lpf.analyze")
    t.install("lpf", "synthesize", "lpf.synthesize")
    t.install("lpf", "retract_roundtrip", "lpf.retract")
    t.install("lpf", "F_norm", "lpf.F_norm")
    t.install_fft_counter("lpf", "lpf.ffts")
    t.install("interp", "scalar_interp_sandwich", "interp.sandwich")
    for gen in ("coefficient_corpus", "random_coefficients", "band_limited_corpus",
                "trig_polynomial", "mode_corpus", "random_modes", "simple_function_corpus"):
        t.install("corpus", gen, "corpus.gen")
    t.install("cli", "_map_ordered", "cli.dispatch", prepare=_pool_jobs(t), dispatch=True)
    t.install("acceptance", "generate_rows", "acceptance.rerun")
    return t


def memory_metrics(tracer: Tracer) -> dict:
    """{<layer>.peak_mb: [MB or None when absent, "MB"]} of a memory tracer."""
    out = {}
    for layer in MEMORY_LAYERS:
        present = any(s.startswith(layer + ".") for s in tracer.installed)
        peak = tracer.mem_peak.get(layer, 0) / 2.0 ** 20 if present else None
        out[f"{layer}.peak_mb"] = [peak, "MB"]
    return out


def layer_metrics(tracer: Tracer, info: dict) -> dict:
    """{metric name: [value or None when absent, unit]} of one traced body."""
    stats, counters = tracer.merged()
    installed, missing = tracer.installed, tracer.missing

    def present(*spans):
        return any(s in installed for s in spans)

    def calls(*spans):
        return sum(stats.get(s, (0, 0.0, 0.0))[0] for s in spans) if present(*spans) else None

    def self_s(*spans, buckets=None):
        if not present(*spans):
            return None
        return sum(stats.get(b, (0, 0.0, 0.0))[1] for b in (buckets or spans))

    def total_s(span):
        return stats.get(span, (0, 0.0, 0.0))[2]

    def counter(name, *spans):
        return counters.get(name, 0) if present(*spans) else None

    def ratio(num, den):
        if num is None or den is None:
            return None
        return num / den if den else 0.0

    lux_calls = calls("lebesgue.luxemburg")
    modular_evals = calls("accel.modular")
    eq = "calderon.equivalence"
    disp = "cli.dispatch"
    lh_buckets = ["exponents.log_holder_exhaustive", "exponents.log_holder_sampled"]
    m = {
        "grid.cube_calls": (calls("grid.cube"), "count"),
        "grid.cube_s": (self_s("grid.cube"), "s"),
        "seqspaces.coeff_init_calls": (calls("seqspaces.coeff_init"), "count"),
        "seqspaces.coeff_init_s": (self_s("seqspaces.coeff_init"), "s"),
        "seqspaces.level_function_s": (self_s("seqspaces.level_function"), "s"),
        "seqspaces.f_norm_s": (self_s("seqspaces.f_norm"), "s"),
        "seqspaces.f_infty_s": (self_s("seqspaces.f_infty"), "s"),
        "calderon.factorize_pp_s": (self_s("calderon.factorize_pp"), "s"),
        "calderon.factorize_pq_s": (self_s("calderon.factorize_pq"), "s"),
        "calderon.level_sets_s": (self_s("calderon.level_sets"), "s"),
        "calderon.holder_s": (self_s("calderon.holder"), "s"),
        "calderon.equivalence_s": (self_s(eq), "s"),
        "calderon.pool_parallelism": (ratio(counter(eq + ".busy", eq), total_s(eq)), "ratio"),
        "lebesgue.luxemburg_calls": (lux_calls, "count"),
        "lebesgue.luxemburg_s": (self_s("lebesgue.luxemburg"), "s"),
        "lebesgue.solver_iters": (counter("lebesgue.solver_iters", "lebesgue.luxemburg"), "count"),
        "lebesgue.modular_evals": (modular_evals, "count"),
        "lebesgue.evals_per_norm": (ratio(modular_evals, lux_calls), "evals/norm"),
        "lebesgue.pow_ops": (counter("lebesgue.pow_ops", "accel.modular"), "count"),
        "lebesgue.stack_s": (self_s("lebesgue.stack"), "s"),
        "exponents.log_holder_calls": (
            sum(stats.get(b, (0,))[0] for b in lh_buckets) if present("exponents.log_holder")
            else None, "count"),
        "exponents.log_holder_exhaustive_s": (
            self_s("exponents.log_holder", buckets=lh_buckets[:1]), "s"),
        "exponents.log_holder_sampled_s": (
            self_s("exponents.log_holder", buckets=lh_buckets[1:]), "s"),
        "exponents.offsets_evaluated": (
            counter("exponents.offsets_evaluated", "exponents.log_holder"), "count"),
        "accel.offset_scan_s": (self_s("accel.offset_scan"), "s"),
        "accel.offset_scan_diffs": (counter("accel.offset_scan_diffs", "accel.offset_scan"),
                                    "count"),
        "accel.modular_s": (self_s("accel.modular"), "s"),
        "kernels.alpha_shift_s": (self_s("kernels.alpha_shift"), "s"),
        "kernels.jensen_s": (self_s("kernels.jensen"), "s"),
        "kernels.offsets_evaluated": (
            counter("kernels.offsets_evaluated", "kernels.alpha_shift"), "count"),
        "lpf.bank_build_s": (self_s("lpf.bank_build"), "s"),
        "lpf.analyze_s": (self_s("lpf.analyze"), "s"),
        "lpf.synthesize_s": (self_s("lpf.synthesize"), "s"),
        "lpf.retract_s": (self_s("lpf.retract"), "s"),
        "lpf.F_norm_s": (self_s("lpf.F_norm"), "s"),
        "lpf.ffts": (counter("lpf.ffts", "lpf.ffts"), "count"),
        "lpf.fft_points": (counter("lpf.ffts_points", "lpf.ffts"), "count"),
        "interp.sandwich_s": (self_s("interp.sandwich"), "s"),
        "corpus.gen_s": (self_s("corpus.gen"), "s"),
        "cli.dispatch_s": (self_s(disp), "s"),
        "cli.pool_parallelism": (ratio(counter(disp + ".busy", disp), total_s(disp)), "ratio"),
    }
    criteria = info.get("criteria_s", {})
    for cid in ACCEPTANCE:
        m[f"acceptance.{cid}_s"] = (float(criteria.get(cid, 0.0)), "s")
    m["acceptance.A17_s"] = (total_s("acceptance.rerun") if present("acceptance.rerun")
                             else None, "s")
    busy = {}
    for name, (_calls, self_time, _total) in stats.items():
        if name in (eq, disp) or name.startswith("acceptance."):
            continue  # waiting on a pool, or suite glue
        layer = name.split(".", 1)[0]
        busy[layer] = busy.get(layer, 0.0) + self_time
    return {"metrics": {k: list(v) for k, v in m.items()}, "busy_s": busy,
            "missing": sorted(missing)}
