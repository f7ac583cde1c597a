"""Print hashes of the radarkit results whose bits once followed the
OpenBLAS thread count: the radarformer-tiny f64 eval forward at 32x32
(its 5x5 ``stem2`` and ``head`` convolutions) and the f32 and f64
gradients of a radarformer-tiny training step at 30x27.

``test_tensor_ops.TestBlasThreads`` runs it under ``OPENBLAS_NUM_THREADS=1``
and ``=2`` and compares the two outputs:

    OPENBLAS_NUM_THREADS=2 PYTHONPATH=src python3 tests/blas_thread_hashes.py
"""

import dataclasses
import hashlib

import numpy as np

from radarkit import tensor as T
from radarkit.models import build_model, reference_config


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def main() -> None:
    tiny = reference_config("radarformer-tiny")
    model = build_model(tiny, dtype=np.float64)
    model.set_training(False)
    cube = T.uniform((1, 2, tiny.frames, tiny.chirps, tiny.height, tiny.width), 1, dtype=np.float64)
    with T.no_grad():
        print("eval forward 32x32 float64", digest([model(cube).data]))
    cfg = dataclasses.replace(tiny, height=30, width=27)
    for dtype in (np.float32, np.float64):
        model = build_model(cfg, dtype=dtype)
        cube = T.uniform((1, 2, cfg.frames, cfg.chirps, cfg.height, cfg.width), 2, dtype=dtype)
        T.reset_tape()
        logits = model.forward_logits(cube)
        targets = np.random.Generator(np.random.PCG64(3)).uniform(0.0, 1.0, size=logits.shape)
        T.backward(T.bce_with_logits(logits, targets))
        print(f"grads 30x27 {np.dtype(dtype).name}", digest([p.grad for p in model.params()]))


if __name__ == "__main__":
    main()
