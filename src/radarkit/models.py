"""Model configurations, the three detector variants, and checkpoint IO.

All variants share one pipeline: channel-chirp merge, temporal
downsampling to a single frame, a two-convolution stem with ascending
kernel sizes, a variant-specific 2-D trunk with a plain element-wise
residual around it, a single head convolution, temporal upsampling with
skip additions back to T frames, and a final sigmoid so confidence maps
live in [0,1].

Trunks: ``cnn2d`` stacks plain conv blocks, ``transformer2d`` runs a
patch-token encoder with a paired upsample block, and ``radarformer``
stacks MBConv + window/grid attention blocks at full resolution.

Constants fix the kernels, the MLP ratio and one output map per
``confmap.CLASS_NAMES`` entry.  A checkpoint config from when they were
fields may carry them; each such key must hold today's constant.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .confmap import CLASS_NAMES
from .errors import ConfigError, DataFormatError, ShapeError
from .fileio import BinaryReader
from .layers import (
    BatchNorm2d,
    Conv2d,
    Conv3d,
    FramePairConv3d,
    MaxVitBlock,
    MNetMerge,
    Module,
    PatchEmbed,
    SeedStream,
    TemporalDownsample,
    TemporalUpsample,
    VitBlock,
    VitUpsample,
    ConvBlock2d,
    _join,
    _space_to_depth_shape,
    space_to_depth3d,
)

VARIANTS = ("cnn2d", "transformer2d", "radarformer")
STEM_KERNELS = (3, 5)
HEAD_KERNEL = 5
STAGE_KERNEL = 3    # MBConv / conv block middle kernel
MLP_RATIO = 20      # MLP hidden width = ratio * width
# config keys from when these were fields, each with the one value it may hold
_RETIRED_KEYS = {"num_classes": len(CLASS_NAMES), "stem_kernels": STEM_KERNELS, "head_kernel": HEAD_KERNEL,
                 "stage_kernel": STAGE_KERNEL, "mlp_ratio": float(MLP_RATIO)}


@dataclass(frozen=True)
class ModelConfig:
    variant: str = "radarformer"
    frames: int = 32              # temporal window T
    chirps: int = 4               # chirps per frame C
    height: int = 128             # range bins H
    width: int = 128              # azimuth bins W
    merge_channels: int = 16      # merged channel width C_h
    stage_widths: tuple[int, ...] = (48,)
    stage_depths: tuple[int, ...] = (2,)
    window_size: int = 7          # attention window P
    grid_size: int = 7            # attention grid G
    heads: int = 4
    patch_size: int = 16          # transformer2d patch edge
    vit_dim: int = 0              # transformer2d token width; 0 = stage width
    init_seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        t = self.frames
        if t < 2 or (t & (t - 1)) != 0:
            raise ConfigError(f"frames must be a power of two >= 2, got {t}")
        if len(self.stage_widths) != len(self.stage_depths) or not self.stage_widths:
            raise ConfigError("stage_widths and stage_depths must be non-empty and equal length")
        if min(self.stage_depths) < 0:
            raise ConfigError(f"stage depths must be >= 0, got {self.stage_depths}")
        if self.stage_widths[0] != self.stage_widths[-1]:
            raise ConfigError("first and last stage widths must match for the trunk residual")
        if min(self.height, self.width, self.chirps, self.merge_channels, self.heads,
               self.patch_size, self.window_size, self.grid_size, *self.stage_widths) < 1:
            raise ConfigError("extents, heads, patch/window/grid sizes and stage widths must be >= 1")
        if self.init_seed < 0:
            raise ConfigError(f"init_seed must be >= 0, got {self.init_seed}")
        if self.vit_dim < 0:
            raise ConfigError(f"vit_dim must be >= 0 (0 = stage width), got {self.vit_dim}")
        for w in self.stage_widths:
            if w % self.heads != 0:
                raise ConfigError(f"stage width {w} not divisible by {self.heads} heads")
        if self.variant == "transformer2d":
            if self.height % self.patch_size or self.width % self.patch_size:
                raise ConfigError(
                    f"patch size {self.patch_size} must divide {self.height}x{self.width}"
                )

    @property
    def temporal_stages(self) -> int:
        return int(math.log2(self.frames))

    @property
    def num_classes(self) -> int:
        return len(CLASS_NAMES)

    def mlp_hidden(self, width: int) -> int:
        return MLP_RATIO * width

    def effective_vit_dim(self) -> int:
        return self.vit_dim or self.stage_widths[0]


def config_to_text(cfg: ModelConfig) -> str:
    lines = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> ModelConfig:
    """Parse ``key = value`` lines (``#`` starts a comment).  Each value parses
    as the type of its field's default, a tuple item by comma-separated item;
    a retired key must hold its constant and is then dropped."""
    defaults = {f.name: f.default for f in fields(ModelConfig)} | _RETIRED_KEYS
    kwargs, seen = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError(f"model config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in defaults:
            raise DataFormatError(f"model config line {lineno}: unknown key {key!r}")
        if key in seen:
            raise DataFormatError(f"model config line {lineno}: key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        default = defaults[key]
        try:
            if isinstance(default, tuple):
                kwargs[key] = tuple(type(default[0])(x) for x in value.split(",") if x)
            else:
                kwargs[key] = type(default)(value)
        except ValueError:
            raise DataFormatError(f"model config line {lineno}: invalid {key} {value!r}") from None
        if key in _RETIRED_KEYS and kwargs.pop(key) != default:
            raise DataFormatError(f"model config line {lineno}: retired key {key} must be {default}, got {value!r}")
    return ModelConfig(**kwargs)


# ---------------------------------------------------------------------------
# trunks


_BLOCKS = {
    "cnn2d": lambda cfg, width, seeds: ConvBlock2d(width, STAGE_KERNEL, seeds),
    "radarformer": lambda cfg, width, seeds: MaxVitBlock(
        width, cfg.heads, cfg.mlp_hidden(width), cfg.window_size, cfg.grid_size, STAGE_KERNEL, seeds
    ),
}


class StackedTrunk(Module):
    """The variant's blocks at full resolution, stage by stage; a 1x1
    convolution changes the width between stages."""

    def __init__(self, cfg: ModelConfig, seeds):
        super().__init__()
        make_block = _BLOCKS[cfg.variant]
        self.blocks = []
        prev = cfg.stage_widths[0]
        for width, depth in zip(cfg.stage_widths, cfg.stage_depths):
            if width != prev:
                self.blocks.append(Conv2d(prev, width, 1, seeds))
                prev = width
            for _ in range(depth):
                self.blocks.append(make_block(cfg, width, seeds))

    def forward(self, x):
        for block in self.blocks:
            x = block(x)
        return x


class VitTrunk(Module):
    """Patch-token encoder plus the paired upsample block restoring H, W."""

    def __init__(self, cfg: ModelConfig, seeds):
        super().__init__()
        dim = cfg.effective_vit_dim()
        w0 = cfg.stage_widths[0]
        self.embed = PatchEmbed(w0, cfg.patch_size, cfg.height, cfg.width, dim, seeds)
        depth = sum(cfg.stage_depths)
        self.blocks = [VitBlock(dim, cfg.heads, cfg.mlp_hidden(dim), seeds) for _ in range(depth)]
        self.upsample = VitUpsample(dim, cfg.patch_size, w0, self.embed.tokens_h, self.embed.tokens_w, seeds)

    def forward(self, x):
        tok = self.embed(x)
        for block in self.blocks:
            tok = block(tok)
        return self.upsample(tok)


_TRUNKS = {"cnn2d": StackedTrunk, "transformer2d": VitTrunk, "radarformer": StackedTrunk}


class RadarDetector(Module):
    """Full detector: (B,2,T,C,H,W) cube in, (B,K,T,H,W) ConfMap sequence out.
    Every parameter is built in `dtype`, float64 or float32."""

    def __init__(self, cfg: ModelConfig, dtype=np.float64):
        super().__init__()
        self.cfg = cfg
        seeds = SeedStream(cfg.init_seed)
        ch, w0 = cfg.merge_channels, cfg.stage_widths[0]
        with T.using_dtype(dtype):
            self.dtype = T.default_dtype()
            self.merge = MNetMerge(cfg.chirps, ch, seeds)
            self.down = TemporalDownsample(ch, cfg.temporal_stages, seeds)
            self.stem1 = Conv2d(ch, w0, STEM_KERNELS[0], seeds)
            self.stem_bn1 = BatchNorm2d(w0)
            self.stem2 = Conv2d(w0, w0, STEM_KERNELS[1], seeds)
            self.stem_bn2 = BatchNorm2d(w0)
            self.trunk = _TRUNKS[cfg.variant](cfg, seeds)
            self.head = Conv2d(w0, ch, HEAD_KERNEL, seeds)
            self.head_bn = BatchNorm2d(ch)
            self.up = TemporalUpsample(ch, cfg.num_classes, cfg.temporal_stages, seeds)

    @property
    def input_shape(self) -> tuple:
        return (1, 2, self.cfg.frames, self.cfg.chirps, self.cfg.height, self.cfg.width)

    def _check_input(self, shape):
        cfg = self.cfg
        if len(shape) != 6:
            raise ShapeError(f"expected rank-6 cube, got {shape}")
        b, two, t, c, h, w = shape
        if two != 2 or c != cfg.chirps or t != cfg.frames:
            raise ShapeError(
                f"cube {shape} incompatible with config "
                f"(2,{cfg.frames},{cfg.chirps},H,W)"
            )
        if cfg.variant == "transformer2d" and (h, w) != (cfg.height, cfg.width):
            raise ShapeError(
                f"transformer2d is resolution-bound to {cfg.height}x{cfg.width}, got {h}x{w}"
            )

    def profile(self, in_shape, path=""):
        self._check_input(in_shape)
        return super().profile(in_shape, path)

    def forward_logits(self, cube: T.Tensor) -> T.Tensor:
        self._check_input(cube.shape)
        # training calls this directly; the scope roots debug-check paths here
        with T._module_scope(self):
            x = self.merge(cube)
            y2d, skips = self.down(x)
            s = T.relu(self.stem_bn1(self.stem1(y2d)))
            s = T.relu(self.stem_bn2(self.stem2(s)))
            t = self.trunk(s)
            t = T.add(t, s)
            h = T.relu(self.head_bn(self.head(t)))
            return self.up(h, skips)

    def forward(self, cube: T.Tensor) -> T.Tensor:
        return T.sigmoid(self.forward_logits(cube))


def build_model(cfg: ModelConfig, dtype=np.float64) -> RadarDetector:
    return RadarDetector(cfg, dtype)


# ---------------------------------------------------------------------------
# 3-D hourglass reference (profiler baseline; runnable but deliberately heavy)


class Hourglass3d(Module):
    """Skeletal encoder/bottleneck/decoder of full 3-D convolutions kept at
    high temporal/spatial resolution.  Serves as the complexity baseline the
    lightweight models are measured against, with seed-0 weights and the
    detectors' IO contract over ``CLASS_NAMES``; `dtype` as in ``RadarDetector``."""

    def __init__(self, chirps=4, base=32, bottleneck_width=544, bottleneck_depth=8, dtype=np.float32):
        super().__init__()
        self.input_shape = (1, 2, 32, chirps, 128, 128)
        seeds = SeedStream(0)
        with T.using_dtype(dtype):
            self.dtype = T.default_dtype()
            self.merge = MNetMerge(chirps, base, seeds)
            # one temporal halving (a frame-pair convolution) and one spatial
            # halving (space-to-depth); the bottleneck stack runs at (T/2, H/2, W/2)
            self.enc_t = FramePairConv3d(base, 2 * base, seeds)
            self.enc_s = Conv3d(8 * base, bottleneck_width, (1, 3, 3), seeds)
            self.bottleneck = [Conv3d(bottleneck_width, bottleneck_width, (3, 3, 3), seeds)
                               for _ in range(bottleneck_depth)]
            self.dec_s = Conv3d(bottleneck_width, 2 * base, (1, 3, 3), seeds)
            self.dec_t = Conv3d(2 * base, base, (3, 3, 3), seeds)
            self.head = Conv3d(base, len(CLASS_NAMES), (1, 3, 3), seeds)

    def forward_logits(self, cube):
        with T._module_scope(self):
            x = self.merge(cube)
            x = T.relu(self.enc_t(x))
            x = space_to_depth3d(x, 2)
            x = T.relu(self.enc_s(x))
            for conv in self.bottleneck:
                x = T.add(T.relu(conv(x)), x)
            x = T.relu(self.dec_s(x))
            x = T.repeat(T.repeat(x, axis=3, factor=2), axis=4, factor=2)
            x = T.relu(self.dec_t(T.repeat(x, axis=2, factor=2)))
            return self.head(x)

    def forward(self, cube):
        return T.sigmoid(self.forward_logits(cube))

    def profile(self, in_shape, path=""):
        entries, s = [], in_shape
        for name, child in self.children():
            if name == "enc_s":
                s = _space_to_depth_shape(s, 2)
            elif name == "dec_t":  # nearest repeat along T, H and W
                b, c, t, h, w = s
                s = (b, c, 2 * t, 2 * h, 2 * w)
            e, s = child.profile(s, _join(path, name))
            entries += e
        return entries, s


# ---------------------------------------------------------------------------
# reference configurations


_REFERENCE_CONFIGS = {
    "radarformer-ref": ModelConfig(
        variant="radarformer",
        merge_channels=16,
        stage_widths=(64, 64),
        stage_depths=(8, 8),
        heads=4,
    ),
    "cnn2d-ref": ModelConfig(
        variant="cnn2d",
        merge_channels=16,
        stage_widths=(136,),
        stage_depths=(12,),
        heads=4,
    ),
    "transformer2d-ref": ModelConfig(
        variant="transformer2d",
        merge_channels=16,
        stage_widths=(48,),
        stage_depths=(4,),
        heads=4,
        patch_size=16,
        vit_dim=288,
    ),
    "radarformer-tiny": ModelConfig(
        variant="radarformer",
        frames=8,
        height=32,
        width=32,
        merge_channels=8,
        stage_widths=(16,),
        stage_depths=(2,),
        window_size=4,
        grid_size=4,
        heads=2,
    ),
}


def reference_config(name: str) -> ModelConfig:
    try:
        return _REFERENCE_CONFIGS[name]
    except KeyError:
        raise ConfigError(f"unknown reference config {name!r}") from None


def build_reference(name: str, dtype=np.float32):
    """Build a model by reference name; includes the hourglass baseline."""
    if name == "hourglass3d-ref":
        return Hourglass3d(dtype=dtype)
    return build_model(reference_config(name), dtype=dtype)


REFERENCE_NAMES = (*_REFERENCE_CONFIGS, "hourglass3d-ref")


# ---------------------------------------------------------------------------
# checkpoint serialization

_MAGIC = b"RFCK"
_VERSION = 3


def _named_buffers(module):
    for path, m in module.named_modules():
        for name, buf in m._buffers.items():
            yield _join(path, name), buf


def save_checkpoint(model: RadarDetector, path) -> None:
    """Write magic "RFCK", version u16 (3), the model's itemsize u8, the
    serialized config (u32 length, UTF-8 text), then one named blob per
    parameter and, after them, one per module buffer such as
    ``stem_bn1.running_mean``.  A blob is its name (u16 length, UTF-8), rank
    u8, rank u32 extents and the little-endian data in the model's dtype.
    Versions 1 and 2 store f32 with no itemsize; version 1 has no buffers."""
    cfg_blob = config_to_text(model.cfg).encode("utf-8")
    dtype = np.dtype(model.dtype).newbyteorder("<")
    blobs = [(name, p.data) for name, p in model.named_params()] + list(_named_buffers(model))
    with open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<HBI", _VERSION, dtype.itemsize, len(cfg_blob)) + cfg_blob)
        for name, data in blobs:
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)) + nb + struct.pack(f"<B{data.ndim}I", data.ndim, *data.shape))
            fh.write(np.ascontiguousarray(data, dtype=dtype).tobytes())


def load_checkpoint(path, dtype=np.float64) -> RadarDetector:
    """Read a version 1 to 3 checkpoint; version 1 leaves the buffers at their initial values.

    `dtype` is checked before the file is opened.  Every blob header is
    read, and bounded by the file size, before the model is built, and the
    build is bounded by the values the blobs hold: a parameter past them is
    refused before it is allocated.  Then each blob is read into its
    parameter or buffer."""
    T._float_dtype(dtype)
    with BinaryReader(path, _MAGIC, (1, 2, _VERSION)) as r:
        itemsize = r.unpack("<B", "itemsize")[0] if r.version >= 3 else 4
        if itemsize not in (4, 8):
            r.fail(f"itemsize {itemsize} at offset {r.pos - 1} is neither 4 nor 8")
        cfg_text = r.text("<I", "config")
        blobs = {}
        while r.left():
            name = r.text("<H", "blob name")
            (rank,) = r.unpack("<B", f"blob {name!r} rank")
            if rank > 64:
                r.fail(f"blob {name!r} at offset {r.pos - 1} has rank {rank}, more than numpy's 64")
            extents = r.unpack(f"<{rank}I", f"blob {name!r} extents")
            if name in blobs:
                r.fail(f"repeated blob {name!r}")
            blobs[name] = (extents, r.pos)
            r.seek(r.pos + itemsize * math.prod(extents), f"blob {name!r} data")
        try:
            cfg = config_from_text(cfg_text)
            with T._element_budget(sum(math.prod(e) for e, _ in blobs.values())):
                model = build_model(cfg, dtype=dtype)
        except (ConfigError, DataFormatError) as e:
            raise DataFormatError(f"{path}: invalid embedded config: {e}") from None
        targets = {name: p.data for name, p in model.named_params()}
        if r.version >= 2:
            targets.update(_named_buffers(model))
        for name, (extents, offset) in blobs.items():
            target = targets.pop(name, None)
            if target is None:
                r.fail(f"unknown blob {name!r}")
            if extents != target.shape:
                r.fail(f"blob {name!r} extents {extents} != model shape {target.shape}")
            r.seek(offset, f"blob {name!r} data")
            target[...] = r.array(extents, f"<f{itemsize}", f"blob {name!r} data")
    if targets:
        r.fail(f"checkpoint missing blobs {sorted(targets)[:3]}...")
    return model
