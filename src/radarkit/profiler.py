"""Exact per-layer parameter and MAC accounting.

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
parameter.
"""

from __future__ import annotations

from dataclasses import dataclass


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
