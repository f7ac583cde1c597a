"""Architecture building blocks for the range-azimuth detection models.

Modules own their parameters (seeded deterministic init), a forward pass
built from tensor-engine ops, and a ``profile`` method that reports exact
parameter and multiply-accumulate counts for a given input shape.

Parameters are created in the thread's default precision, which a model
sets once around the construction of all its layers (``RadarDetector``).

Profile entries are named by module path, the same path ``named_params()``
uses (``trunk.blocks.0.window_attn.mlp.fc1``); a module's own parameter
keeps its parameter name (``trunk.blocks.0.window_attn.pos``).  Leaf
modules that multiply hold the cost formulas; their ``profile`` refuses
what the forward refuses by one rule (``tensor._conv_shape`` or
``_check``).  By default a module chains its children in order, each on
the previous one's output shape, and a module without children gives one
row of zero MACs; modules whose forward reshapes between children override
``profile`` for that reshape only.
The norms use ``_NORM_EPS`` = 1e-5, batch norm ``_BN_MOMENTUM`` = 0.1.

MAC conventions (shared with the profiler): convolutions count
out_elems * Cin * prod(kernel); matmuls count m*k*n per batch item;
normalization, softmax, activations, elementwise adds, and data movement
count zero.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError

_NORM_EPS = 1e-5
_BN_MOMENTUM = 0.1


class SeedStream:
    """Hands out well-mixed child seeds in a deterministic order."""

    def __init__(self, base: int):
        self.base = int(base)
        self.counter = 0

    def next(self) -> int:
        seed = int(np.random.SeedSequence((self.base, self.counter)).generate_state(1)[0])
        self.counter += 1
        return seed


class Module:
    """Minimal container: tracks parameters, buffers, children, train mode."""

    def __init__(self):
        self._params: dict[str, T.Tensor] = {}
        self._buffers: dict[str, np.ndarray] = {}
        self.training = True

    def add_param(self, name: str, tensor: T.Tensor) -> T.Tensor:
        self._params[name] = tensor
        return tensor

    def children(self):
        for name, value in self.__dict__.items():
            if isinstance(value, Module):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{name}.{i}", item

    def named_modules(self, prefix: str = ""):
        """(dotted path, module) of this module, at path `prefix`, and of
        every descendant, parents before their children."""
        yield prefix, self
        for cname, child in self.children():
            yield from child.named_modules(_join(prefix, cname))

    def named_params(self, prefix: str = ""):
        for path, module in self.named_modules():
            for name, p in module._params.items():
                yield prefix + _join(path, name), p

    def params(self):
        for _, p in self.named_params():
            yield p

    def set_training(self, mode: bool) -> None:
        for _, module in self.named_modules():
            module.training = mode

    def param_count(self) -> int:
        return sum(p.size for p in self.params())

    def __call__(self, *args, **kwargs):
        with T._module_scope(self):
            return self.forward(*args, **kwargs)

    def profile(self, in_shape, path: str = ""):
        """Return ([(name, param_count, mac_count)], out_shape) for the
        module at `path`; by default the children in order, and for a
        module without children one shape-preserving row of zero MACs."""
        if next(self.children(), None) is None:
            return [(path, self.param_count(), 0)], in_shape
        entries, shape = [], in_shape
        for name, child in self.children():
            e, shape = child.profile(shape, _join(path, name))
            entries += e
        return entries, shape


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _init_uniform(shape, fan_in, seeds: SeedStream) -> T.Tensor:
    bound = math.sqrt(1.0 / max(1, fan_in))
    return T.uniform(shape, seeds.next(), -bound, bound, requires_grad=True)


class _Conv(Module):
    """An N-d same-padded convolution: ``forward`` runs the ``tensor``
    function named by the subclass's `op`, looked up at call time, and
    ``profile`` takes the output shape from that op's rule,
    ``tensor._conv_shape``."""

    def __init__(self, cin, cout, kernel, seeds):
        super().__init__()
        fan = cin * math.prod(kernel)
        self.w = self.add_param("w", _init_uniform((cout, cin) + kernel, fan, seeds))
        self.b = self.add_param("b", _init_uniform((cout,), fan, seeds))

    def _check(self, shape):
        """The input and kernel shapes the op multiplies for an input of `shape`."""
        return shape, self.w.shape

    def forward(self, x):
        return getattr(T, self.op)(x, self.w, self.b)

    def profile(self, in_shape, path=""):
        x_shape, w_shape = self._check(in_shape)
        out = T._conv_shape(x_shape, w_shape, self.op)
        return [(path, self.param_count(), math.prod(out) * math.prod(w_shape[1:]))], out


class Conv2d(_Conv):
    """Same-padded 2-D convolution with a square odd kernel."""

    op = "conv2d"

    def __init__(self, cin, cout, kernel, seeds):
        super().__init__(cin, cout, (kernel, kernel), seeds)


class Conv3d(_Conv):
    op = "conv3d"


class FramePairConv3d(Conv3d):
    """(B, C, T, H, W) -> (B, Cout, T/2, H, W): a (2, 3, 3) kernel at stride 2
    along T, run as a same-padded conv3d.  Each frame pair folds into
    channels, tap fastest, and the (Cout, C, 2, 3, 3) weight is viewed as
    (Cout, 2C, 1, 3, 3), so the im2col rows c*18 + tap keep the strided
    order.  Space-to-depth along T (Shi et al., arXiv:1609.05158)."""

    def __init__(self, cin, cout, seeds):
        super().__init__(cin, cout, (2, 3, 3), seeds)

    def _check(self, shape):
        """The folded input and kernel shapes of `shape`, else a ShapeError
        naming the unfolded C; ``forward`` and ``profile`` both refuse by it."""
        cout, cin = self.w.shape[:2]
        if len(shape) != 5 or shape[2] % 2:
            raise ShapeError(f"frame-pair convolution needs (B,C,T,H,W) with an even T, got {shape}")
        b, c, t, h, w = shape
        if c != cin:
            raise ShapeError(f"frame-pair convolution channel mismatch: x has {c}, w expects {cin}")
        return (b, 2 * c, t // 2, h, w), (cout, 2 * c, 1, 3, 3)

    def forward(self, x):
        (b, c2, t2, h, w), w_shape = self._check(x.shape)
        x = T.permute(T.reshape(x, (b, c2 // 2, t2, 2, h, w)), (0, 1, 3, 2, 4, 5))
        return T.conv3d(T.reshape(x, (b, c2, t2, h, w)), T.reshape(self.w, w_shape), self.b)


class Linear(Module):
    def __init__(self, nin, nout, seeds):
        super().__init__()
        self.nin, self.nout = nin, nout
        self.w = self.add_param("w", _init_uniform((nin, nout), nin, seeds))
        self.b = self.add_param("b", _init_uniform((nout,), nin, seeds))

    def _check(self, shape):
        if len(shape) < 2 or shape[-1] != self.nin:
            raise ShapeError(f"Linear expects (..., N, {self.nin}) input, got {shape}")
        return shape

    def forward(self, x):
        lead = self._check(x.shape)[:-1]
        if len(lead) > 1:
            # one 2-D GEMM instead of a loop of small batched ones
            x = T.reshape(x, (math.prod(lead), self.nin))
        out = T.matmul(x, self.w, bias=self.b)
        if len(lead) > 1:
            out = T.reshape(out, lead + (self.nout,))
        return out

    def profile(self, in_shape, path=""):
        macs = math.prod(self._check(in_shape)[:-1]) * self.nin * self.nout
        return [(path, self.param_count(), macs)], in_shape[:-1] + (self.nout,)


class LayerNorm(Module):
    """Normalizes the last axis of token tensors (..., S)."""

    def __init__(self, dim):
        super().__init__()
        self.gamma = self.add_param("gamma", T.full((dim,), 1.0, requires_grad=True))
        self.beta = self.add_param("beta", T.zeros((dim,), requires_grad=True))

    def forward(self, x):
        return T.normalize(x, self.gamma, self.beta, axes=-1, eps=_NORM_EPS)


class BatchNorm2d(Module):
    """Per-channel normalization over (B,H,W); keeps running statistics
    for inference mode."""

    def __init__(self, channels):
        super().__init__()
        shape = (1, channels, 1, 1)
        self.gamma = self.add_param("gamma", T.full(shape, 1.0, requires_grad=True))
        self.beta = self.add_param("beta", T.zeros(shape, requires_grad=True))
        self._buffers["running_mean"] = np.zeros_like(self.gamma.data)
        self._buffers["running_var"] = np.ones_like(self.gamma.data)

    def _check(self, shape):
        channels = self.gamma.shape[1]
        if len(shape) != 4 or shape[1] != channels:
            raise ShapeError(f"BatchNorm2d expects (B, {channels}, H, W) maps, got {shape}")
        return shape

    def forward(self, x):
        self._check(x.shape)
        if self.training:
            mu = x.data.mean(axis=(0, 2, 3), keepdims=True)
            var = x.data.var(axis=(0, 2, 3), keepdims=True)
            m = _BN_MOMENTUM
            self._buffers["running_mean"] = (1 - m) * self._buffers["running_mean"] + m * mu
            self._buffers["running_var"] = (1 - m) * self._buffers["running_var"] + m * var
            return T.normalize(x, self.gamma, self.beta, axes=(0, 2, 3), eps=_NORM_EPS)
        # in f64 for statistics of either dtype, so equal values give equal constants
        mean, var = (self._buffers[k].astype(np.float64) for k in ("running_mean", "running_var"))
        inv = 1.0 / np.sqrt(var + _NORM_EPS)
        a = self.gamma.data * inv
        b = self.beta.data - mean * a
        return T.affine_const(x, a.astype(x.data.dtype), b.astype(x.data.dtype))

    def profile(self, in_shape, path=""):
        return super().profile(self._check(in_shape), path)


class Mlp(Module):
    def __init__(self, dim, hidden, seeds):
        super().__init__()
        self.fc1 = Linear(dim, hidden, seeds)
        self.fc2 = Linear(hidden, dim, seeds)

    def forward(self, x):
        return self.fc2(T.gelu(self.fc1(x)))


class MultiheadSelfAttention(Module):
    """Per head: [q,k,v] from one fused projection; scores scaled by the
    per-head width; softmax weights applied to v; heads concatenated and
    projected back to the token width."""

    def __init__(self, dim, heads, seeds):
        super().__init__()
        if dim % heads != 0:
            raise ConfigError(f"token width {dim} not divisible by {heads} heads")
        self.dim, self.heads = dim, heads
        self.head_dim = dim // heads
        self.qkv = Linear(dim, 3 * dim, seeds)
        self.out = Linear(dim, dim, seeds)

    def _check(self, shape):
        if len(shape) != 3 or shape[2] != self.dim:
            raise ShapeError(f"expected (B, N, {self.dim}) tokens, got {shape}")
        return shape

    def forward(self, tokens):
        bw, n, s = self._check(tokens.shape)
        m, sl = self.heads, self.head_dim
        qkv = self.qkv(tokens)                              # (Bw, N, 3S)
        qkv = T.reshape(qkv, (bw, n, 3, m, sl))
        q, k, v = (T.reshape(T.crop(qkv, [(0, bw), (0, n), (i, i + 1), (0, m), (0, sl)]), (bw, n, m, sl))
                   for i in range(3))
        q = T.permute(q, (0, 2, 1, 3))                      # (Bw, m, N, Sl)
        k = T.permute(k, (0, 2, 3, 1))                      # (Bw, m, Sl, N)
        v = T.permute(v, (0, 2, 1, 3))
        scores = T.scale(T.matmul(q, k), 1.0 / math.sqrt(sl))
        attn = T.softmax(scores, axis=-1)
        mixed = T.matmul(attn, v)                           # (Bw, m, N, Sl)
        mixed = T.reshape(T.permute(mixed, (0, 2, 1, 3)), (bw, n, s))
        return self.out(mixed)

    def profile(self, in_shape, path=""):
        bw, n, s = self._check(in_shape)
        macs = bw * (3 * n * s * s + n * n * s + n * n * s + n * s * s)
        return [(path, self.param_count(), macs)], in_shape


class VitBlock(Module):
    """Pre-norm transformer sub-block on (B, N, S) tokens: the attention
    half t + attn(norm1(t)), then the MLP half t + mlp(norm2(t)), which acts
    on each token alone."""

    def __init__(self, dim, heads, mlp_hidden, seeds):
        super().__init__()
        self.norm1 = LayerNorm(dim)
        self.attn = MultiheadSelfAttention(dim, heads, seeds)
        self.norm2 = LayerNorm(dim)
        self.mlp = Mlp(dim, mlp_hidden, seeds)

    def _attention_half(self, tokens):
        return T.add(tokens, self.attn(self.norm1(tokens)))

    def _mlp_half(self, tokens):
        return T.add(tokens, self.mlp(self.norm2(tokens)))

    def forward(self, tokens):
        return self._mlp_half(self._attention_half(tokens))


class PartitionAttention(VitBlock):
    """The transformer sub-block over the tokens of a window or grid
    partition: partition, add the learned token position embedding, run the
    attention half of ``VitBlock`` on the partition's tokens, padding
    included, and take the exact reverse to channels-last pixels with the
    padding cropped.  The MLP half then runs on the map's (B, H, W, C)
    pixels alone, and one permute gives back (B, C, H, W)."""

    def __init__(self, dim, heads, mlp_hidden, mode, size, seeds):
        if mode not in ("window", "grid"):
            raise ConfigError(f"unknown partition mode {mode!r}")
        super().__init__(dim, heads, mlp_hidden, seeds)
        self.mode, self.size = mode, size
        self.pos = self.add_param("pos", T.zeros((size * size, dim), requires_grad=True))

    def _check(self, shape):
        if len(shape) != 4 or shape[1] != self.attn.dim:
            raise ShapeError(f"{self.mode} attention expects (B, {self.attn.dim}, H, W) maps, got {shape}")
        return shape

    def forward(self, x):
        b, c, h, w = self._check(x.shape)
        tokens = self._attention_half(T.add_bcast(T._partition(x, self.size, self.mode), self.pos))
        pixels = T._unpartition(tokens, self.size, self.mode, b, c, h, w, channels_last=True)
        return T.permute(self._mlp_half(pixels), (0, 3, 1, 2))

    def profile(self, in_shape, path=""):
        b, c, h, w = self._check(in_shape)
        _, _, tokens = T._partition_shapes(self.size, self.mode, b, c, h, w)
        pixels = (b, h, w, c)
        entries = [(_join(path, "pos"), self.pos.size, 0)]
        for name, shape in (("norm1", tokens), ("attn", tokens), ("norm2", pixels), ("mlp", pixels)):
            entries += getattr(self, name).profile(shape, _join(path, name))[0]
        return entries, in_shape


class MBConv(Module):
    """Three convolutions with wide-narrow-wide channel widths (C, C/4, C)
    and small-large-small kernels (1, k, 1); the residual adds the first
    convolution's output to the last convolution's output."""

    def __init__(self, channels, kernel, seeds):
        super().__init__()
        narrow = max(1, channels // 4)
        self.conv1 = Conv2d(channels, channels, 1, seeds)
        self.bn1 = BatchNorm2d(channels)
        self.conv2 = Conv2d(channels, narrow, kernel, seeds)
        self.bn2 = BatchNorm2d(narrow)
        self.conv3 = Conv2d(narrow, channels, 1, seeds)

    def forward(self, x):
        wide = self.conv1(x)
        h = T.gelu(self.bn1(wide))
        h = T.gelu(self.bn2(self.conv2(h)))
        return T.add(wide, self.conv3(h))


class MaxVitBlock(Module):
    """MBConv, then windowed local attention, then dilated grid attention;
    shape preserving."""

    def __init__(self, channels, heads, mlp_hidden, window, grid, kernel, seeds):
        super().__init__()
        self.mbconv = MBConv(channels, kernel, seeds)
        self.window_attn = PartitionAttention(channels, heads, mlp_hidden, "window", window, seeds)
        self.grid_attn = PartitionAttention(channels, heads, mlp_hidden, "grid", grid, seeds)

    def forward(self, x):
        x = self.mbconv(x)
        x = self.window_attn(x)
        return self.grid_attn(x)


class ConvBlock2d(Module):
    def __init__(self, channels, kernel, seeds):
        super().__init__()
        self.conv = Conv2d(channels, channels, kernel, seeds)
        self.bn = BatchNorm2d(channels)

    def forward(self, x):
        return T.relu(self.bn(self.conv(x)))


class PatchEmbed(Module):
    """Flatten non-overlapping PxP patches into tokens, project linearly,
    and add a learned (zero-initialized) position embedding."""

    def __init__(self, in_channels, patch, height, width, dim, seeds):
        super().__init__()
        if height % patch != 0 or width % patch != 0:
            raise ConfigError(f"patch size {patch} must divide resolution {height}x{width}")
        self.patch = patch
        self.tokens_h, self.tokens_w = height // patch, width // patch
        n = self.tokens_h * self.tokens_w
        self.proj = Linear(patch * patch * in_channels, dim, seeds)
        self.pos = self.add_param("pos", T.zeros((n, dim), requires_grad=True))

    def _check(self, shape):
        """The (B, N, P*P*C) tokens ``forward`` makes of a `shape` map, else ShapeError."""
        if len(shape) != 4 or shape[2:] != (self.tokens_h * self.patch, self.tokens_w * self.patch):
            raise ShapeError(f"input {shape} does not match embed resolution")
        return shape[0], self.tokens_h * self.tokens_w, self.patch * self.patch * shape[1]

    def forward(self, x):
        flat = self._check(x.shape)
        tok = T.window_partition(x, self.patch)             # (B*N, P*P, C)
        return T.add_bcast(self.proj(T.reshape(tok, flat)), self.pos)

    def profile(self, in_shape, path=""):
        entries, out = self.proj.profile(self._check(in_shape), _join(path, "proj"))
        return entries + [(_join(path, "pos"), self.pos.size, 0)], out


class VitUpsample(Module):
    """Expand each token back to a PxP pixel block (a stride-P transposed
    convolution expressed as a linear map plus rearrange)."""

    def __init__(self, dim, patch, out_channels, tokens_h, tokens_w, seeds):
        super().__init__()
        self.patch, self.out_channels = patch, out_channels
        self.tokens_h, self.tokens_w = tokens_h, tokens_w
        self.expand = Linear(dim, patch * patch * out_channels, seeds)

    def _check(self, shape):
        """The (B, C, H, W) map ``forward`` makes of `shape` tokens, else ShapeError."""
        if shape[1] != self.tokens_h * self.tokens_w:
            raise ShapeError("token count does not match target grid")
        return shape[0], self.out_channels, self.tokens_h * self.patch, self.tokens_w * self.patch

    def forward(self, tokens):
        b, c, h, w = self._check(tokens.shape)
        x = self.expand(tokens)                              # (B, N, P*P*C)
        x = T.reshape(x, (b * tokens.shape[1], self.patch ** 2, c))
        return T.window_reverse(x, self.patch, b, c, h, w)

    def profile(self, in_shape, path=""):
        out = self._check(in_shape)
        return self.expand.profile(in_shape, _join(path, "expand"))[0], out


class MNetMerge(Module):
    """Fuse the two RF channels and the chirp axis into learned channels:
    (B,2,T,C,H,W) -> (B,C_h,T,H,W)."""

    def __init__(self, chirps, merged, seeds):
        super().__init__()
        self.chirps, self.merged = chirps, merged
        self.conv1 = Conv3d(2 * chirps, merged, (1, 3, 3), seeds)
        self.conv2 = Conv3d(merged, merged, (1, 3, 3), seeds)

    def _check(self, shape):
        """`shape` if ``forward`` can merge a cube of it, else ShapeError."""
        if len(shape) != 6 or shape[1] != 2:
            raise ShapeError(f"expected (B,2,T,C,H,W) cube, got {shape}")
        if shape[3] != self.chirps:
            raise ShapeError(f"cube has {shape[3]} chirps, model expects {self.chirps}")
        return shape

    def forward(self, cube):
        b, two, t, c, h, w = self._check(cube.shape)
        x = T.permute(cube, (0, 1, 3, 2, 4, 5))             # (B,2,C,T,H,W)
        x = T.reshape(x, (b, 2 * c, t, h, w))
        x = T.relu(self.conv1(x))
        return T.relu(self.conv2(x))

    def profile(self, in_shape, path=""):
        b, two, t, c, h, w = self._check(in_shape)
        return super().profile((b, 2 * c, t, h, w), path)


class TemporalDownsample(Module):
    """Frame-pair convolutions, each halving T, reduce T to 1; each stage's
    input is saved as the skip state for the upsampling stream."""

    def __init__(self, channels, stages, seeds):
        super().__init__()
        self.stages = stages
        self.convs = [FramePairConv3d(channels, channels, seeds) for _ in range(stages)]

    def _check(self, shape):
        """`shape` if ``forward`` can reduce its T to 1, else ShapeError."""
        if len(shape) != 5 or shape[2] != 2 ** self.stages:
            raise ShapeError(f"temporal extent of {shape} not reducible by {self.stages} stride-2 stages")
        return shape

    def forward(self, x):
        self._check(x.shape)
        skips = []
        for conv in self.convs:
            skips.append(x)
            x = T.relu(conv(x))
        b, c, t, h, w = x.shape
        return T.reshape(x, (b, c, h, w)), skips

    def profile(self, in_shape, path=""):
        entries, (b, c, t, h, w) = super().profile(self._check(in_shape), path)
        return entries, (b, c, h, w)


class TemporalUpsample(Module):
    """Mirror of the downsampling stream: nearest-repeat doubling along T,
    element-wise addition of the saved skip, then a 3-D convolution.  The
    final stage emits the requested output width."""

    def __init__(self, channels, out_channels, stages, seeds):
        super().__init__()
        self.stages = stages
        self.convs = [
            Conv3d(channels, out_channels if i == stages - 1 else channels, (3, 3, 3), seeds)
            for i in range(stages)
        ]

    def _check(self, shape):
        """The (B, C, H, W) map of `shape`, else ShapeError; ``forward`` and
        ``profile`` both refuse by it."""
        channels = self.convs[0].w.shape[1]
        if len(shape) != 4 or shape[1] != channels:
            raise ShapeError(f"temporal upsampling expects (B, {channels}, H, W) maps, got {shape}")
        return shape

    def forward(self, y, skips):
        if len(skips) != self.stages:
            raise ShapeError(f"expected {self.stages} skip tensors, got {len(skips)}")
        b, c, h, w = self._check(y.shape)
        x = T.reshape(y, (b, c, 1, h, w))
        for i, conv in enumerate(self.convs):
            x = T.repeat(x, axis=2, factor=2)
            skip = skips[self.stages - 1 - i]
            if skip.shape != x.shape:
                raise ShapeError(f"skip shape {skip.shape} does not match stream shape {x.shape}")
            x = T.add(x, skip)
            x = conv(x)
            if i != self.stages - 1:
                x = T.relu(x)
        return x

    def profile(self, in_shape, path=""):
        b, c, h, w = self._check(in_shape)
        entries = []
        s = (b, c, 1, h, w)
        for i, conv in enumerate(self.convs):
            s = (s[0], s[1], s[2] * 2, s[3], s[4])
            e, s = conv.profile(s, _join(path, f"convs.{i}"))
            entries += e
        return entries, s


def _space_to_depth_shape(shape, factor: int):
    """The shape ``space_to_depth3d`` makes of `shape`, else ShapeError."""
    b, c, t, h, w = shape
    if h % factor or w % factor:
        raise ShapeError(f"spatial extents {h}x{w} not divisible by {factor}")
    return (b, c * factor * factor, t, h // factor, w // factor)


def space_to_depth3d(x, factor: int = 2):
    """(B,C,T,H,W) -> (B, C*factor^2, T, H/factor, W/factor), exact rearrange."""
    out = _space_to_depth_shape(x.shape, factor)
    b, c, t, h, w = x.shape
    f = factor
    y = T.reshape(x, (b, c, t, h // f, f, w // f, f))
    y = T.permute(y, (0, 1, 4, 6, 2, 3, 5))
    return T.reshape(y, out)
