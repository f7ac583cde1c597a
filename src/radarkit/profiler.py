"""Exact per-layer parameter and MAC accounting plus wall-clock timing.

Counting conventions (documented so the GMAC column is auditable):
convolutions cost out_elems * Cin * prod(kernel) MACs, matmuls m*k*n per
batch item, attention per token group 3*N*S^2 + 2*N^2*S + N*S^2;
normalization, softmax, activations, bias and elementwise adds, and data
movement cost zero.  Parameter counts: conv Cout*Cin*prod(k) + Cout,
linear in*out + out, norms 2*width, embeddings their extent product.
Counts are pure functions of (config, input shape); a cube rank, RF
channel, chirp or frame count the forward refuses raises its ShapeError.

Per-layer rows come from each model's ``profile()``: one row per leaf
module, named by its ``named_params()`` path, plus one row per embedding
parameter.  Timing puts the model back as it found it: train mode and
buffers of every module, ``requires_grad`` and ``grad`` of every
parameter.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .layers import Module


@dataclass(frozen=True)
class LayerProfile:
    name: str
    param_count: int
    mac_count: int


def profile_layers(model, input_shape=None) -> list[LayerProfile]:
    """Rows of ``model.profile`` at `input_shape`, by default ``model.input_shape``."""
    shape = model.input_shape if input_shape is None else tuple(input_shape)
    entries, _ = model.profile(shape)
    return [LayerProfile(name, int(p), int(m)) for name, p, m in entries]


def count_params(model, input_shape=None):
    """Per-layer parameter counts and their total."""
    layers = profile_layers(model, input_shape)
    return layers, sum(l.param_count for l in layers)


def count_macs(model, input_shape=None):
    """Per-layer multiply-accumulate counts and their total for one forward
    pass at the given input shape."""
    layers = profile_layers(model, input_shape)
    return layers, sum(l.mac_count for l in layers)


@dataclass(frozen=True)
class TimingResult:
    mean_ms: float
    std_ms: float
    per_frame_ms: float
    runs: int
    stride: int


@contextmanager
def _restored(model):
    """Put back what timing changes, also when it raises."""
    walk = model.named_modules() if isinstance(model, Module) else ()
    mods = [(m, m.training, {k: v.copy() for k, v in m._buffers.items()}) for _, m in walk]
    params = [
        (p, p.requires_grad, None if p.grad is None else p.grad.copy())
        for m, _, _ in mods
        for p in m._params.values()
    ]
    try:
        yield
    finally:
        for m, training, buffers in mods:
            m.training, m._buffers = training, buffers
        for p, requires_grad, grad in params:
            p.requires_grad, p.grad = requires_grad, grad


def _time(model, input_shape, warmup, runs, stride, clock, backprop, step) -> TimingResult:
    """`warmup` then `runs` timed calls of step(x), in train mode with every
    parameter trainable when `backprop`, else in eval mode."""
    if runs < 3:
        raise ConfigError(f"timing needs runs >= 3, got {runs}")
    if stride is not None and stride < 1:
        raise ConfigError(f"timing needs stride >= 1, got {stride}")
    shape = model.input_shape if input_shape is None else tuple(input_shape)
    stride = shape[2] if stride is None else int(stride)
    clock = time.perf_counter if clock is None else clock
    x = T.uniform(shape, 0, -1.0, 1.0, dtype=model.dtype)
    samples = []
    with _restored(model):
        model.set_training(backprop)
        if backprop:
            for p in model.params():
                p.requires_grad = True
        for _ in range(warmup):
            step(x)
        for _ in range(runs):
            t0 = clock()
            step(x)
            samples.append((clock() - t0) * 1000.0)
    mean = float(np.mean(samples))
    return TimingResult(mean, float(np.std(samples)), mean / stride, runs, stride)


def time_inference(model, input_shape=None, warmup: int = 1, runs: int = 3,
                   stride: int | None = None, clock=None) -> TimingResult:
    """Wall-clock forward passes after warmup; per-frame time divides by the
    test stride (new frames consumed per pass), defaulting to the full
    temporal window."""

    def step(x):
        with T.no_grad():
            model.forward(x)

    return _time(model, input_shape, warmup, runs, stride, clock, False, step)


def time_backprop(model, input_shape=None, warmup: int = 1, runs: int = 3,
                  stride: int | None = None, clock=None) -> TimingResult:
    """Wall-clock forward+backward iterations (loss: mean BCE against a zero
    target), normalized like time_inference."""

    def step(x):
        T.reset_tape()
        logits = model.forward_logits(x)
        loss = T.bce_with_logits(logits, np.zeros(logits.shape, dtype=logits.data.dtype))
        T.backward(loss)
        for p in model.params():
            p.zero_grad()

    return _time(model, input_shape, warmup, runs, stride, clock, True, step)


@dataclass(frozen=True)
class ReportRow:
    name: str
    gmacs: float
    params_m: float
    bp_ms: float | None
    infer_ms: float | None


def compare_report(models: dict, input_shape, with_timing: bool = False,
                   timing_shape=None, runs: int = 3) -> list[ReportRow]:
    """One row per model plus a standalone row for the channel-chirp merge
    module (shared by all models, so it carries no timing columns)."""
    rows = []
    merge_row = None
    for name, model in models.items():
        layers = profile_layers(model, input_shape)
        params = sum(l.param_count for l in layers)
        macs = sum(l.mac_count for l in layers)
        bp_ms = infer_ms = None
        if with_timing:
            shape = timing_shape if timing_shape is not None else input_shape
            infer_ms = time_inference(model, shape, runs=runs).mean_ms
            bp_ms = time_backprop(model, shape, runs=runs).mean_ms
        rows.append(ReportRow(name, macs / 1e9, params / 1e6, bp_ms, infer_ms))
        merge = [l for l in layers if l.name.startswith("merge.")]
        if merge_row is None and merge:
            mm, mp = sum(l.mac_count for l in merge), sum(l.param_count for l in merge)
            merge_row = ReportRow("m-net", mm / 1e9, mp / 1e6, None, None)
    if merge_row is not None:
        rows.insert(0, merge_row)
    return rows


def format_compare_report(rows, header_note: str = "") -> str:
    lines = []
    if header_note:
        lines.append(f"# {header_note}")
    lines.append(f"{'model':22s} {'GMACs':>12s} {'params(M)':>10s} {'BP(ms)':>10s} {'infer(ms)':>10s}")
    for r in rows:
        bp = f"{r.bp_ms:10.2f}" if r.bp_ms is not None else f"{'-':>10s}"
        inf = f"{r.infer_ms:10.2f}" if r.infer_ms is not None else f"{'-':>10s}"
        lines.append(f"{r.name:22s} {r.gmacs:12.3f} {r.params_m:10.3f} {bp} {inf}")
    return "\n".join(lines)


def write_compare_report_kv(rows, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for r in rows:
            fh.write(f"{r.name}.gmacs = {r.gmacs:.6f}\n")
            fh.write(f"{r.name}.params_m = {r.params_m:.6f}\n")
            if r.bp_ms is not None:
                fh.write(f"{r.name}.bp_ms = {r.bp_ms:.3f}\n")
            if r.infer_ms is not None:
                fh.write(f"{r.name}.infer_ms = {r.infer_ms:.3f}\n")
