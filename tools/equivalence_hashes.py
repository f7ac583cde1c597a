"""Print sha256 prefixes of what a behaviour-preserving change must keep.

Run it on two source trees and compare the output line by line:

    PYTHONPATH=src python3 tools/equivalence_hashes.py > after.txt
    PYTHONPATH=/path/to/other/checkout/src python3 tools/equivalence_hashes.py > before.txt
    diff before.txt after.txt

The first line gives the OpenBLAS thread count that radarkit's products
ran with, read after a first product, and the usable CPU count.  radarkit
sets numpy's OpenBLAS to one thread at its first product, so the output is
the same at any ``OPENBLAS_NUM_THREADS``, and the first line reads 1.  On
a revision that left the count alone, some f64 convolution and some
gradient bits depend on it, and two outputs only compare at the same
setting; set the count in the environment:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/equivalence_hashes.py > after-1.txt

It covers synthetic rendering and RAMC files written and read back, ConfMap
decoding and AP/AR, checkpoint bytes and the models loaded back from them,
an eval-mode forward of a model as built and as reloaded, parameter names,
the parameters of a small 3-D hourglass in f32 and f64, per-layer profiles
at each model's input shape and at one other, the output and gradients of conv2d and
conv3d over a batch of two, and the forward output, loss, every gradient
and the tape node count of a training step.  Array hashes include dtype
and shape.  It uses only the public API plus ``tensor.active_tape`` and each
module's ``_buffers``, so any revision of ``radarkit`` can run it.
The radarformer-ref step at the end peaks at about 1.2 GB.
"""

from __future__ import annotations

import ctypes
import dataclasses
import glob
import hashlib
import inspect
import os
import sys
import tempfile

import numpy as np

from radarkit import tensor as T
from radarkit.confmap import Annotation, decode_confmap, encode_confmap
from radarkit.evaluation import CATEGORIES, evaluate
from radarkit.models import (
    REFERENCE_NAMES, Hourglass3d, ModelConfig, build_model, build_reference, config_to_text, load_checkpoint,
    reference_config, save_checkpoint,
)
from radarkit.profiler import profile_layers
from radarkit.synth import SCENARIOS, SynthConfig, generate_scene, read_sequence, render_ramap, write_sequence

CHECKPOINT_CONFIGS = ("radarformer-ref", "cnn2d-ref", "transformer2d-ref", "radarformer-tiny")
TOY_TRANSFORMER = ModelConfig(
    variant="transformer2d", frames=4, chirps=2, height=16, width=16, merge_channels=4,
    stage_widths=(8,), stage_depths=(2,), heads=2, patch_size=4, vit_dim=8,
)


def blas_threads() -> str:
    """The thread count of the OpenBLAS that numpy bundles, or "unknown".
    Looked up here, not in radarkit, so that any revision can run this."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*.so")
    for path in glob.glob(libs):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            return str(fn())
    return "unknown"


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]


def show(label, *parts) -> None:
    print(f"{label:48s} {digest(*parts)}", flush=True)


def decoding(seed=105, frames=24, size=128) -> None:
    """decode_confmap on seeded noisy maps and on a flood map (a strict
    maximum on every other row and column of each class), then AP/AR of
    the noisy frames' detections against their annotations."""
    rng = np.random.Generator(np.random.PCG64(seed))
    dets, anns = [], []
    for frame in range(frames):
        objs = [
            Annotation(frame, int(rng.integers(0, 3)), int(rng.integers(0, size)), int(rng.integers(0, size)))
            for _ in range(int(rng.integers(1, 7)))
        ]
        cm = encode_confmap(objs, 3, size, size)
        pred = np.clip(cm + rng.normal(0.0, 0.1, cm.shape), 0.0, 1.0)
        dets += [dataclasses.replace(d, frame_id=frame) for d in decode_confmap(pred)]
        anns += objs
    show(f"decode_confmap noisy {frames}x{size}x{size}", [dataclasses.astuple(d) for d in dets])
    flood = np.full((3, size, size), 0.35)
    flood[:, ::2, ::2] = rng.uniform(0.4, 1.0, flood[:, ::2, ::2].shape)
    show(f"decode_confmap flood {size}x{size}", [dataclasses.astuple(d) for d in decode_confmap(flood)])
    res = evaluate(dets, anns, categories={f: CATEGORIES[f % len(CATEGORIES)] for f in range(frames)})
    show("evaluate ap/ar", res.ap_total, res.ar_total, sorted(res.per_category.items()))
    show("evaluate per_threshold", *[
        part for thr, row in sorted(res.per_threshold.items())
        for part in (thr, row["precision"], row["recall"], row["ap"], row["ar"])
    ])


def rendering(tmp, seeds=(301, 302)) -> None:
    """render_ramap cubes and annotations of seeded scenes of every
    scenario, with and without noise, in f32 and f64, and the RAMC bytes
    write_sequence makes of the f32 cubes."""
    path = os.path.join(tmp, "clip.ramc")
    for size, frames in ((32, 8), (128, 16)):
        for sigma in (0.0, 0.08):
            cfg = SynthConfig(height=size, width=size, frames=frames, noise_sigma=sigma)
            for scenario in SCENARIOS:
                scenes = [generate_scene(seed, scenario, cfg) for seed in seeds]
                label = f"{scenario} {size}x{size}x{frames} noise {sigma}"
                for dtype in (np.float64, np.float32):
                    renders = [render_ramap(scene, cfg, dtype=dtype) for scene in scenes]
                    show(f"render_ramap {label} {np.dtype(dtype).name}",
                         *[part for cube, anns in renders for part in (cube, anns)])
                ramc = []
                for cube, _ in renders:
                    write_sequence(path, cube)
                    with open(path, "rb") as fh:
                        ramc.append(fh.read())
                show(f"write_sequence {label}", *ramc)


def checkpoints(tmp) -> None:
    """Checkpoint bytes and parameter names of each reference config in
    each precision, and the config text, parameters and module buffers of
    the model that load_checkpoint builds from those bytes."""
    for name in CHECKPOINT_CONFIGS:
        for dtype in (np.float32, np.float64):
            label = f"{name} {np.dtype(dtype).name}"
            path = os.path.join(tmp, "model.rfck")
            model = build_model(reference_config(name), dtype=dtype)
            save_checkpoint(model, path)
            with open(path, "rb") as fh:
                show(f"checkpoint {label}", fh.read())
            show(f"named_params {label}", [n for n, _ in model.named_params()])
            loaded = load_checkpoint(path, dtype=dtype)
            show(f"load_checkpoint {label}", config_to_text(loaded.cfg),
                 *[a for n, p in loaded.named_params() for a in (n, p.data)],
                 *[a for where, m in loaded.named_modules() for n, buf in m._buffers.items() for a in (where, n, buf)])


def inference(tmp, seed=106) -> None:
    """Eval-mode forward, under no_grad, of radarformer-tiny as built and as
    reloaded from its checkpoint, in each precision: BatchNorm runs on its
    running statistics here, not on the batch's."""
    path = os.path.join(tmp, "model.rfck")
    cfg = reference_config("radarformer-tiny")
    shape = (1, 2, cfg.frames, cfg.chirps, cfg.height, cfg.width)
    for dtype in (np.float32, np.float64):
        model = build_model(cfg, dtype=dtype)
        save_checkpoint(model, path)
        cube = T.uniform(shape, seed, -1.0, 1.0, dtype=dtype)
        for how, m in (("built", model), ("reloaded", load_checkpoint(path, dtype=dtype))):
            m.set_training(False)
            with T.no_grad():
                show(f"eval forward radarformer-tiny {how} {np.dtype(dtype).name}", m.forward(cube).data)


def hourglass_params() -> None:
    """Parameter names and values of a small Hourglass3d in each precision."""
    for dtype in (np.float32, np.float64):
        model = Hourglass3d(chirps=2, base=4, bottleneck_width=8, bottleneck_depth=2, dtype=dtype)
        show(f"named_params hourglass3d-small {np.dtype(dtype).name}",
             *[a for n, p in model.named_params() for a in (n, p.data)])


def reading(tmp, seed=303) -> None:
    """read_sequence of one written noisy clip."""
    path = os.path.join(tmp, "clip.ramc")
    cfg = SynthConfig(height=64, width=48, frames=8, noise_sigma=0.08)
    cube, _ = render_ramap(generate_scene(seed, "CS", cfg), cfg)
    write_sequence(path, cube)
    show("read_sequence CS 64x48x8", read_sequence(path))


def profiles() -> None:
    for name in REFERENCE_NAMES:
        model = build_reference(name, dtype=np.float32)
        show(f"profile_layers {name}", [tuple(row.__dict__.values()) for row in profile_layers(model)])
        del model


def reports() -> None:
    """profile_layers rows of radarformer-tiny and a small 3-D hourglass at
    one 8-frame 32x32 cube, which is not the hourglass's default shape."""
    models = {
        "radarformer-tiny": build_reference("radarformer-tiny", dtype=np.float32),
        "hourglass3d-small": Hourglass3d(chirps=4, base=4, bottleneck_width=8, bottleneck_depth=2),
    }
    for name, model in models.items():
        rows = profile_layers(model, (1, 2, 8, 4, 32, 32))
        show(f"profile_layers {name} 8x32x32", [tuple(row.__dict__.values()) for row in rows])


def batched_convs(seed=107) -> None:
    """conv2d and conv3d of a batch of two, each product large enough that
    BLAS multiplies the transposed view of its columns, in each precision:
    the output and the x, w and b gradients of the mean BCE against seeded
    targets.  Both are same-padded, the only convolution that revisions
    without a ``padding`` argument compute; it is passed where the op
    takes it."""
    cases = {
        "conv2d": (T.conv2d, (2, 16, 32, 32), (16, 16, 3, 3), 1),
        "conv3d": (T.conv3d, (2, 8, 6, 32, 32), (8, 8, 3, 3, 3), (1, 1, 1)),
    }
    for name, (conv, xs, ws, padding) in cases.items():
        kwargs = {"padding": padding} if "padding" in inspect.signature(conv).parameters else {}
        for dtype in (np.float32, np.float64):
            x, w, b = (T.uniform(s, seed + i, requires_grad=True, dtype=dtype) for i, s in enumerate((xs, ws, ws[:1])))
            T.reset_tape()
            y = conv(x, w, b, **kwargs)
            rng = np.random.Generator(np.random.PCG64(seed + 3))
            T.backward(T.bce_with_logits(y, rng.uniform(0.0, 1.0, size=y.shape)))
            label = f"{name} batch 2 {np.dtype(dtype).name}"
            for part, a in (("forward", y.data), ("x grad", x.grad), ("w grad", w.grad), ("b grad", b.grad)):
                show(f"{label} {part}", a)


def step(label, cfg, dtype, seed) -> None:
    """Forward in train mode, mean BCE against seeded targets, backward."""
    model = build_model(cfg, dtype=dtype)
    shape = (1, 2, cfg.frames, cfg.chirps, cfg.height, cfg.width)
    cube = T.uniform(shape, seed, -1.0, 1.0, dtype=dtype)
    T.reset_tape()
    logits = model.forward_logits(cube)
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    loss = T.bce_with_logits(logits, rng.uniform(0.0, 1.0, size=logits.shape))
    nodes = len(T.active_tape().nodes)
    T.backward(loss)
    show(f"{label} forward", logits.data)
    show(f"{label} loss", loss.data)
    show(f"{label} grads", *[a for n, p in model.named_params() for a in (n, p.grad)])
    show(f"{label} tape nodes", nodes)
    T.reset_tape()


def main() -> int:
    T.matmul(T.zeros((2, 2)), T.zeros((2, 2)))
    print(f"openblas threads {blas_threads()}, usable cpus {len(os.sched_getaffinity(0))}", flush=True)
    decoding()
    with tempfile.TemporaryDirectory() as tmp:
        rendering(tmp)
        checkpoints(tmp)
        inference(tmp)
        reading(tmp)
    hourglass_params()
    profiles()
    reports()
    batched_convs()
    tiny = reference_config("radarformer-tiny")
    for dtype in (np.float32, np.float64):
        dt = np.dtype(dtype).name
        step(f"radarformer-tiny 32x32 {dt}", tiny, dtype, 101)
        step(f"radarformer-tiny 30x27 {dt}", dataclasses.replace(tiny, height=30, width=27), dtype, 102)
        step(f"transformer2d-toy {dt}", TOY_TRANSFORMER, dtype, 103)
    ref = dataclasses.replace(reference_config("radarformer-ref"), height=32, width=32)
    step("radarformer-ref 32x32 float32", ref, np.float32, 104)
    return 0


if __name__ == "__main__":
    sys.exit(main())
