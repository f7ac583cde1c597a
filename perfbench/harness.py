"""Measurement loop, calibration and metric assembly.

One run of a workload: set up several times (median), one cold operation,
steady operations that fit in the requested seconds (at least the
workload's minimum), then the checks, all outside the timed regions.  A traced run
adds traced operations after the untraced ones, so the same run reports
tracing overhead; its metrics are the per-layer ones.

Per-layer ``.s`` metrics are self seconds per traced operation (a clip, a
step or a forward); ``tensor.backward.s`` is inclusive of the grad_fn
spans below it.  Counts are per traced operation.  The checkpoint metrics
come from the traced set-up and are seconds per call.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext

import numpy as np
import scipy

import tracer as tr

SETUP_REPEATS = 5
clock = time.perf_counter
SGEMM_N = 2048
SGEMM_REPEATS = 7

TENSOR_OPS = ("matmul", "conv2d", "conv3d", "gelu", "add_bcast", "add", "normalize",
              "affine_const", "softmax", "relu", "sigmoid")
GEMM_OPS = ("matmul", "conv2d", "conv3d")
BWD_OPS = ("conv2d", "conv3d", "matmul", "gelu", "normalize")
LAYER_CLASSES = ("MNetMerge", "TemporalDownsample", "TemporalUpsample", "Conv2d", "Conv3d",
                 "BatchNorm2d", "MBConv", "PartitionAttention-window", "PartitionAttention-grid",
                 "MultiheadSelfAttention", "Mlp", "Linear", "LayerNorm")
ROOFLINE_CLASSES = ("Conv2d", "Conv3d", "Linear", "MultiheadSelfAttention")
MODEL_CLASSES = ("RadarDetector", "MaxVitTrunk")
SYNTH_CALLS = ("generate_scene", "render_ramap", "write_sequence", "read_sequence")
CONFMAP_CALLS = ("encode_confmap", "peak_detect", "l_nms")


# name -> (unit, better), in the order BENCHMARK.json lists them.  The
# cold operation's time is only in the details: one operation of a few
# seconds spreads 17-28 % between runs on a shared 2-core host, past any
# bound a regression gate could use.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_p50_s": ("s", "lower"),
    "frames_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def _per_layer_units():
    m = {}
    for op in TENSOR_OPS:
        m[f"tensor.{op}.s"] = ("s", "lower")
        m[f"tensor.{op}.calls"] = ("count", "lower")
    m["tensor.movement.s"] = ("s", "lower")
    for op in GEMM_OPS:
        m[f"tensor.{op}.gmac_per_s"] = ("GMAC/s", "higher")
    m["blas.sgemm_gmac_per_s"] = ("GMAC/s", "higher")
    m["tensor.backward.s"] = ("s", "lower")
    m["tensor.tape.nodes"] = ("count", "lower")
    for op in BWD_OPS:
        m[f"tensor.bwd.{op}.s"] = ("s", "lower")
    m["tensor.bce_with_logits.s"] = ("s", "lower")
    m["rss.after_forward_mb"] = ("MB", "lower")
    m["rss.after_backward_mb"] = ("MB", "lower")
    for cls in LAYER_CLASSES:
        m[f"layers.{cls}.self_s"] = ("s", "lower")
    for cls in ROOFLINE_CLASSES:
        m[f"layers.{cls}.gmac_per_s"] = ("GMAC/s", "higher")
        m[f"layers.{cls}.roofline_frac"] = ("frac", "higher")
    for cls in MODEL_CLASSES:
        m[f"models.{cls}.self_s"] = ("s", "lower")
    m["models.load_checkpoint.s"] = ("s", "lower")
    m["models.save_checkpoint.s"] = ("s", "lower")
    for fn in SYNTH_CALLS:
        m[f"synth.{fn}.s"] = ("s", "lower")
    m["synth.io_mb_per_s"] = ("MB/s", "higher")
    for fn in CONFMAP_CALLS:
        m[f"confmap.{fn}.s"] = ("s", "lower")
    m["confmap.candidates"] = ("count", "lower")
    m["confmap.kept_ratio"] = ("frac", "higher")
    m["confmap.ols.calls"] = ("count", "lower")
    m["evaluation.evaluate.s"] = ("s", "lower")
    m["evaluation.ols.calls"] = ("count", "lower")
    m["trace.overhead_s"] = ("s", "lower")
    m["trace.coverage_frac"] = ("frac", "higher")
    return m


PER_LAYER = _per_layer_units()


# ---------------------------------------------------------------------------
# machine


def _blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def calibrate() -> dict:
    """Best of a few fixed-size f32 GEMMs (the per-run roofline ceiling)
    plus what a reader needs to compare runs across machines."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((SGEMM_N, SGEMM_N), dtype=np.float32)
    b = rng.standard_normal((SGEMM_N, SGEMM_N), dtype=np.float32)
    best = float("inf")
    for _ in range(SGEMM_REPEATS):
        t0 = clock()
        a @ b
        best = min(best, clock() - t0)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "sgemm_gmac_per_s": SGEMM_N ** 3 / best / 1e9,
        "sgemm_n": SGEMM_N,
        "blas_threads": _blas_threads(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def current_rss_mb() -> float:
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2 ** 20
    except OSError:
        return peak_rss_mb()


def peak_rss_mb() -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024 if sys.platform != "darwin" else kb / 2 ** 20


# ---------------------------------------------------------------------------
# the run


@contextmanager
def preserved_state(model):
    """Restore train mode, BatchNorm statistics, requires_grad and grads of
    every module of `model` on exit, so measuring leaves it unchanged."""
    mods = [m for _, m in tr.walk_modules(model)]
    training = [m.training for m in mods]
    buffers = [{k: v.copy() for k, v in m._buffers.items()} for m in mods]
    params = list(model.params())
    flags = [p.requires_grad for p in params]
    grads = [None if p.grad is None else p.grad.copy() for p in params]
    try:
        yield model
    finally:
        for m, mode, bufs in zip(mods, training, buffers):
            m.training = mode
            m._buffers.update(bufs)
        for p, flag, g in zip(params, flags, grads):
            p.requires_grad = flag
            p.grad = g


class _TraceHooks:
    """Called by the train step between its phases in the traced run."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.nodes = []
        self.rss_forward = []
        self.rss_backward = []

    def after_forward(self):
        self.nodes.append(self.tracer.wrap_tape())
        self.rss_forward.append(current_rss_mb())

    def after_backward(self):
        self.rss_backward.append(current_rss_mb())


def measure(workload, seconds: float, trace: bool, import_s=(0.0,),
            setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run `workload` once; returns the result object plus run details."""
    machine = calibrate()
    tracer = tr.Tracer() if trace else None
    failures: dict[str, str] = {}
    attempted = 0

    setup_times = []
    for r in range(setup_repeats):
        # the last set-up is traced, for the checkpoint metrics
        traced = tracer is not None and r == setup_repeats - 1
        with (tracer if traced else nullcontext()):
            with (tracer.span("setup", "bench.setup") if traced else nullcontext()):
                t0 = clock()
                state = workload.setup()
                setup_times.append(clock() - t0)
    model = state.get("model")

    def run_op(label, index, hooks=None):
        nonlocal attempted
        attempted += 1
        t0 = clock()
        try:
            out = workload.op(state, index, hooks)
        except Exception:
            dt = clock() - t0
            traceback.print_exc()
            failures[label] = "raised " + traceback.format_exc().strip().splitlines()[-1]
            return dt, None
        dt = clock() - t0
        problem = workload.check_op(state, out)
        if problem:
            failures[label] = problem
        return dt, out

    def op_loop(prefix, first_index, min_ops, hooks=None, traced=False):
        times, outs = [], []
        deadline = clock() + seconds
        # start an operation only if, at the last one's pace, it ends in time
        while len(times) < min_ops or clock() + times[-1] <= deadline:
            index = first_index + len(times)
            workload.before_op(state, index)
            with (tracer.span(f"op{index}", "bench.op") if traced else nullcontext()):
                dt, out = run_op(f"{prefix}{index}", index, hooks)
            times.append(dt)
            if out is not None:
                outs.append(out)
        return times, outs

    def finish(outs):
        t0 = clock()
        result = workload.finish(outs)
        return clock() - t0, result

    def check_finish(label, outs, result):
        nonlocal attempted
        if result is not None:
            attempted += 1
            problems = workload.check_finish(outs, result)
            if problems:
                failures[label] = "; ".join(problems)

    traced_times, traced_finish_s, hooks = [], 0.0, None
    with (preserved_state(model) if model is not None else nullcontext()):
        workload.prepare(state)
        workload.before_op(state, 0)
        cold_s, _ = run_op("cold", 0)
        steady, outs = op_loop("op", 1, workload.min_steady)
        finish_s, finished = finish(outs)
        check_finish("finish", outs, finished)
        if tracer is not None:
            tracer.counters.clear()
            hooks = _TraceHooks(tracer)
            with tracer:
                if model is not None:
                    tracer.attach(model)
                traced_times, traced_outs = op_loop("traced", 1 + len(steady), 1, hooks, traced=True)
                with tracer.span("finish", "bench.finish"):
                    traced_finish_s, traced_finished = finish(traced_outs)
            check_finish("traced-finish", traced_outs, traced_finished)
    problems = workload.check_run(state)
    if problems:
        # a failed run-level check fails the first operation
        failures.setdefault("cold", "; ".join(problems))

    detail = {
        "workload": workload.name,
        "seed": workload.seed,
        "trace": int(trace),
        "machine": machine,
        "import_s": import_s,
        "setup_s": setup_times,
        "cold_op_s": cold_s,
        "op_s": steady,
        "finish_s": finish_s,
        "failures": failures,
    }
    if finished is not None:
        detail["ap"], detail["ar"] = finished.ap_total, finished.ar_total
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(import_s) + statistics.median(setup_times),
            "op_p50_s": statistics.median(steady),
            "frames_per_s": workload.frames_per_op * len(steady) / (sum(steady) + finish_s),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
    else:
        detail["traced_op_s"] = traced_times
        metrics, extra = per_layer_metrics(tracer, machine, hooks, steady, traced_times, traced_finish_s)
        detail.update(extra)
        units = PER_LAYER
    detail["failed_frac"] = len(failures) / attempted
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k][0]} for k in units},
    }
    return {"result": result, "detail": detail}


def per_layer_metrics(tracer, machine, hooks, steady, traced_times, traced_finish_s):
    spans = tracer.spans
    root_of = tr.roots(spans)
    op_roots = {i for i, s in enumerate(spans) if s[tr.KIND] in ("bench.op", "bench.finish")}
    in_ops = {i for i, r in enumerate(root_of) if r in op_roots}
    in_setup = {i for i, r in enumerate(root_of) if spans[r][tr.KIND] == "bench.setup"}
    agg = tr.aggregate(spans, in_ops - op_roots)
    setup_agg = tr.aggregate(spans, in_setup)
    n = len(traced_times)
    ceiling = machine["sgemm_gmac_per_s"]
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "macs": 0}

    def row(kind):
        return agg.get(kind, zero)

    def gmac(kind):
        r = row(kind)
        return r["macs"] / r["total_s"] / 1e9 if r["total_s"] > 0 else 0.0

    m = {}
    for op in TENSOR_OPS:
        m[f"tensor.{op}.s"] = row(f"tensor.{op}")["self_s"] / n
        m[f"tensor.{op}.calls"] = row(f"tensor.{op}")["calls"] / n
    m["tensor.movement.s"] = row("tensor.movement")["self_s"] / n
    for op in GEMM_OPS:
        m[f"tensor.{op}.gmac_per_s"] = gmac(f"tensor.{op}")
    m["blas.sgemm_gmac_per_s"] = ceiling
    m["tensor.backward.s"] = row("tensor.backward")["total_s"] / n
    m["tensor.tape.nodes"] = sum(hooks.nodes) / n
    for op in BWD_OPS:
        m[f"tensor.bwd.{op}.s"] = row(f"tensor.bwd.{op}")["self_s"] / n
    m["tensor.bce_with_logits.s"] = row("tensor.bce_with_logits")["self_s"] / n
    m["rss.after_forward_mb"] = max(hooks.rss_forward, default=0.0)
    m["rss.after_backward_mb"] = max(hooks.rss_backward, default=0.0)
    for cls in LAYER_CLASSES:
        m[f"layers.{cls}.self_s"] = row(f"layers.{cls}")["self_s"] / n
    for cls in ROOFLINE_CLASSES:
        m[f"layers.{cls}.gmac_per_s"] = gmac(f"layers.{cls}")
        m[f"layers.{cls}.roofline_frac"] = gmac(f"layers.{cls}") / ceiling
    for cls in MODEL_CLASSES:
        m[f"models.{cls}.self_s"] = row(f"models.{cls}")["self_s"] / n
    for fn in ("load_checkpoint", "save_checkpoint"):
        r = setup_agg.get(f"models.{fn}", zero)
        m[f"models.{fn}.s"] = r["total_s"] / r["calls"] if r["calls"] else 0.0
    for fn in SYNTH_CALLS:
        m[f"synth.{fn}.s"] = row(f"synth.{fn}")["self_s"] / n
    io_s = row("synth.write_sequence")["total_s"] + row("synth.read_sequence")["total_s"]
    c = tracer.counters
    m["synth.io_mb_per_s"] = c["synth.io_bytes"] / io_s / 1e6 if io_s > 0 else 0.0
    for fn in CONFMAP_CALLS:
        m[f"confmap.{fn}.s"] = row(f"confmap.{fn}")["self_s"] / n
    m["confmap.candidates"] = c["confmap.candidates"] / n
    m["confmap.kept_ratio"] = c["confmap.kept"] / c["confmap.candidates"] if c["confmap.candidates"] else 0.0
    m["confmap.ols.calls"] = c["confmap.ols.calls"] / n
    m["evaluation.evaluate.s"] = row("evaluation.evaluate")["self_s"] / n
    m["evaluation.ols.calls"] = c["evaluation.ols.calls"] / n

    traced_total = sum(spans[i][tr.END] - spans[i][tr.START] for i in op_roots)
    layer_self = sum(r["self_s"] for r in agg.values())
    m["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(steady)
    m["trace.coverage_frac"] = layer_self / traced_total

    extra = {
        "traced_total_s": traced_total,
        "traced_finish_s": traced_finish_s,
        "kinds": agg,
        "setup_kinds": setup_agg,
        "modules": tr.by_qualified_name(spans, in_ops),
        "spans": [[s[tr.NAME], s[tr.KIND], s[tr.START], s[tr.END], s[tr.PARENT], s[tr.MACS]] for s in spans],
    }
    return m, extra
