"""Dense N-d tensors with tape-based reverse-mode autodiff.

The op set is exactly what the detection models need: batched matmul,
conv2d/conv3d, softmax, group normalization, elementwise add/mul, the
relu/gelu/sigmoid nonlinearities, data-movement ops (reshape, permute,
pad, crop, repeat), window/grid partitioning for local and dilated
attention, and a fused binary cross-entropy head.

Every op records a node on the active per-thread tape when gradients are
enabled and any input requires them: its output's gradient slot
(``_Grad``: shape and gradient), its grad_fn and one link per input, which
is the input's slot, the input itself if it is a leaf (made by no recorded
op: parameters and inputs) that requires grad, else None.  So whether an
input gets a gradient is decided when the op records.  A grad_fn returns
one gradient per input, or None, and closes over the arrays, shapes and
flags it reads, never over a tensor, so the tape keeps no op's input or
output alive.  ``backward(loss)`` replays the tape once in reverse (creation
order is a topological order) and alone writes gradients into the links.
It frees as it goes: each node's gradient is taken out of its slot, and the
node, with the arrays its grad_fn saved, is dropped once it has run.  So
only leaves and the loss keep ``.grad``.  A tensor takes the dtype it is
created with or else the thread's default, which only ``using_dtype`` sets:
float64, the default and the precision of the gradient and oracle tests, or
float32, the fast mode at scale.  Any other dtype is a ``ConfigError``.
``models.load_checkpoint`` builds its model inside ``_element_budget``, where
``zeros``, ``full`` and ``uniform`` refuse, before allocating, any tensor that
would take the total past the values the file holds.

conv2d and conv3d share one shape rule, ``_conv_shape`` (rank, channels,
odd kernel extents), which ``layers`` profiles call too, and one
correlation routine over any number of spatial axes, ``_correlate``.  Every
convolution is stride 1 and same-padded, so its output keeps the input's
extents; the layer that halves T folds frame pairs into channels
(``layers.FramePairConv3d``).  So the input gradient is the forward's own
correlation, run on the output gradient with the flipped, channel-swapped
kernel.  The correlation multiplies im2col columns by the flattened kernel.
The columns are laid out (B, C*prod(kernel), N) and built one tap at a
time, so every copy runs along the contiguous output axis; a 1x1 kernel
uses the input itself, with no copy.  All three convolution GEMMs multiply
the columns' transposed view: the correlation as (B, N, C*prod(kernel)) @
(C*prod(kernel), Cout), the weight gradient as (Cout, B*N) @ (B*N,
C*prod(kernel)).  One rule, ``_view_or_copy``, multiplies a contiguous copy
instead where BLAS would round the view differently: below
``_VIEW_GEMM_MIN_MACS`` multiply-adds and for one output row or column.  So
outputs and gradients have the bits of row-major columns.  The columns die
when the correlation returns; the weight gradient rebuilds them from the
input and drops them before the input gradient builds its own.  Whenever the
correlation's columns would exceed ``_CONV_COLS_BYTE_LIMIT``, in the forward
or the input gradient, they are built one slab of the first output axis at
a time (T for 3-D, H for 2-D), and the slabs of all parts (below) hold at
most that limit together.

Bits do not depend on the BLAS thread count.  radarkit's first product
sets numpy's bundled OpenBLAS to one thread, process-wide, through its
``scipy_openblas_set_num_threads64_`` (``_one_blas_thread``): a product
that numpy computes after that, in radarkit or not, runs on one thread.
With OpenBLAS 0.3.31 many GEMMs that sum over more than about 384 terms in
f64 or 448 in f32 rounded differently at one thread than at two: the f64
5x5 convolutions of radarformer-tiny, its convolution weight gradients at
30x27 and the radarformer-ref ``Linear`` weight gradients at 32x32.  Now
each has its one-thread bits at any ``OPENBLAS_NUM_THREADS``.  The CPUs
are used by radarkit's own pool instead: all five products (``matmul``
and its two gradients, and the convolution's forward, input-gradient and
weight-gradient GEMMs) go through ``_gemm``, which, from
``_GEMM_SPLIT_MIN_MACS`` (2**24) multiply-adds on, runs one part per
usable CPU along the first batch axis longer than 1, else along the output
rows or columns, whichever are more.  The correlation instead runs one part
per CPU along its first output axis, each building and multiplying its own
columns.  No part cuts the summed axis, holds fewer than
``_VIEW_GEMM_MIN_MACS`` multiply-adds or is one row or column, so every
split product has the bits of the whole one-thread product
(``_exact_cut`` says where the rows and columns of an f64 product may be
cut).  Without the setter symbol nothing is split and the thread count is
left alone.

Window and grid partitioning are one reshape, permute, reshape of the map
zero-padded to a multiple of the size P; the modes differ only in the
permutation.  The reverse permutes back by its inverse and crops the padding;
it can also permute straight to channels-last pixels (B, H, W, C), which
``layers.PartitionAttention`` runs its MLP half on.

With ``set_debug_checks(True)`` every op checks that its output is finite
and otherwise raises a ``UsageError`` naming the op and, inside a module
call, the module's path from the outermost module being called
(``trunk.blocks.0.window_attn.mlp.fc1: matmul produced non-finite values``).

``matmul`` takes an optional bias over the last output axis, which each
part of ``_gemm`` adds in place to its slice of the fresh product, the same
IEEE add as a separate ``add_bcast``.
``gelu`` splits arrays of more than ``_GELU_SPLIT_MIN`` elements into one
chunk per CPU the process may use.  ``_run_parts`` runs the first chunk,
or product part, on the calling thread and the others on a thread pool
created on first use, and returns their results when all have finished;
scipy's ``erf`` and BLAS release the GIL.  Each element gets the same
operations in the same order either way, so the split changes no bit.
When gelu records, its parts also fill the slope Phi(x) + x*pdf(x), in the
input's dtype and in the ops of the exact derivative, and its tape node
keeps that slope alone, so the backward is one multiply.  When it does not
record, it builds Phi in the output itself and multiplies by x in place.
``_run_parts`` is the only way onto the pool; ``synth.render_ramap`` draws
its noise there too.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager

import numpy as np
from scipy.special import erf

from .errors import ConfigError, ShapeError, UsageError

_state = threading.local()


def _tls():
    if not hasattr(_state, "tape"):
        _state.tape = Tape()
        _state.grad_enabled = True
        _state.default_dtype = np.float64
        _state.debug_checks = False
        _state.modules = []
        _state.budget = None
    return _state


def _float_dtype(dtype):
    """The scalar type of `dtype`, which must be float64 or float32."""
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float64), np.dtype(np.float32)):
        raise ConfigError(f"unsupported dtype {dt}; use float64 or float32")
    return dt.type


def default_dtype():
    return _tls().default_dtype


@contextmanager
def _scoped(name: str, value):
    """Set this thread's setting `name` to `value` inside the block."""
    st = _tls()
    old = getattr(st, name)
    setattr(st, name, value)
    try:
        yield
    finally:
        setattr(st, name, old)


def using_dtype(dtype):
    """Temporarily switch the default dtype."""
    return _scoped("default_dtype", _float_dtype(dtype))


def _element_budget(limit: int):
    """Inside the block, ``zeros``, ``full`` and ``uniform`` refuse with
    ``ConfigError`` a tensor that takes this thread's total past `limit`."""
    return _scoped("budget", [limit, 0])


def set_debug_checks(enabled: bool) -> None:
    """When enabled, every op asserts its output is finite."""
    _tls().debug_checks = bool(enabled)


@contextmanager
def _module_scope(module):
    """Keep `module` on this thread's module stack inside the block, so a
    failed debug check can name it."""
    stack = _tls().modules
    stack.append(module)
    try:
        yield
    finally:
        stack.pop()


def _module_path(stack) -> str:
    """Path of the innermost module on `stack`, walked down from the
    outermost; a module that is not a descendant of the one before it, or
    the outermost module alone, is named by its class."""
    parts = []
    for outer, inner in zip(stack, stack[1:]):
        if inner is not outer:
            parts.append(next((p for p, m in outer.named_modules() if m is inner), type(inner).__name__))
    return ".".join(parts) or type(stack[0]).__name__


def no_grad():
    """Suspend tape recording inside the block."""
    return _scoped("grad_enabled", False)


class Tape:
    """Ordered record of op nodes; creation order is topological order."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self._spent = False

    def record(self, node: "_Node") -> None:
        self.nodes.append(node)
        self._spent = False

    def reset(self) -> None:
        self.nodes = []
        self._spent = False


def active_tape() -> Tape:
    return _tls().tape


def reset_tape() -> None:
    _tls().tape.reset()


class _Grad:
    """A recorded op output's gradient slot, held by the tape in place of the output."""

    __slots__ = ("shape", "grad")

    def __init__(self, shape):
        self.shape, self.grad = shape, None


class _Node:
    __slots__ = ("slot", "inputs", "grad_fn")

    def __init__(self, slot, inputs, grad_fn):
        self.slot, self.inputs, self.grad_fn = slot, inputs, grad_fn


class Tensor:
    """Contiguous row-major buffer plus optional gradient of the same shape;
    an op output's gradient lives in its tape slot ``_slot``."""

    __slots__ = ("data", "requires_grad", "grad", "_slot")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        dt = default_dtype() if dtype is None else _float_dtype(dtype)
        self.data = np.asarray(data, dtype=dt, order="C")
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._slot = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError(f"item() needs one element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


def _check_extents(shape):
    shape = tuple(int(s) for s in shape)
    if any(s < 1 for s in shape):
        raise ShapeError(f"extents must be >= 1, got {shape}")
    budget = _tls().budget
    if budget is not None:
        budget[1] += math.prod(shape)
        if budget[1] > budget[0]:
            raise ConfigError(f"a {shape} tensor takes the parameters to {budget[1]} values; "
                              f"the blobs hold {budget[0]} values")
    return shape


def zeros(shape, requires_grad=False, dtype=None) -> Tensor:
    return Tensor(np.zeros(_check_extents(shape)), requires_grad, dtype)


def full(shape, value, requires_grad=False, dtype=None) -> Tensor:
    return Tensor(np.full(_check_extents(shape), float(value)), requires_grad, dtype)


def uniform(shape, seed, lo=-1.0, hi=1.0, requires_grad=False, dtype=None) -> Tensor:
    """Seeded uniform fill; identical seed gives a bit-identical buffer."""
    shape = _check_extents(shape)
    rng = np.random.Generator(np.random.PCG64(seed))
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad, dtype)


def from_array(arr, requires_grad=False, dtype=None) -> Tensor:
    return Tensor(arr, requires_grad, dtype)


def _same_dtype(*ts):
    dt = ts[0].data.dtype
    for t in ts[1:]:
        if t.data.dtype != dt:
            raise ShapeError(f"mixed dtypes {dt} vs {t.data.dtype}")
    return dt


def _records(inputs) -> bool:
    """Whether an op on `inputs` records a node: grad mode is on and some
    input requires grad."""
    return _tls().grad_enabled and any(t.requires_grad for t in inputs)


def _make(out_data, inputs, grad_fn) -> Tensor:
    st = _tls()
    if st.debug_checks and not np.all(np.isfinite(out_data)):
        op = grad_fn.__qualname__.split(".", 1)[0]
        where = f"{_module_path(st.modules)}: " if st.modules else ""
        raise UsageError(f"{where}{op} produced non-finite values")
    req = _records(inputs)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = req
    out.grad = out._slot = None
    if req:
        out._slot = _Grad(out_data.shape)
        links = tuple((t._slot or t) if t.requires_grad else None for t in inputs)
        st.tape.record(_Node(out._slot, links, grad_fn))
    return out


def _broadcasts_into(shape, *others) -> bool:
    """Whether arrays of the `others` shapes broadcast up to exactly `shape`."""
    try:
        return np.broadcast_shapes(shape, *others) == shape
    except ValueError:
        return False


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient over axes that were broadcast up from `shape`."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"add requires identical shapes, got {a.shape} vs {b.shape}")

    def grad_fn(g):
        return g, g

    return _make(a.data + b.data, (a, b), grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"mul requires identical shapes, got {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data

    def grad_fn(g):
        return g * bd, g * ad

    return _make(ad * bd, (a, b), grad_fn)


def add_bcast(x: Tensor, b: Tensor) -> Tensor:
    """Add with explicit numpy broadcasting of `b` up to `x.shape` (bias add)."""
    _same_dtype(x, b)
    if not _broadcasts_into(x.shape, b.shape):
        raise ShapeError(f"bias shape {b.shape} does not broadcast into {x.shape}")

    def grad_fn(g):
        return g, g

    return _make(x.data + b.data, (x, b), grad_fn)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def grad_fn(g):
        return (g * c,)

    return _make(x.data * x.data.dtype.type(c), (x,), grad_fn)


def affine_const(x: Tensor, a: np.ndarray, b: np.ndarray) -> Tensor:
    """y = x*a + b with constant (non-learned) broadcastable arrays a, b."""
    if not _broadcasts_into(x.shape, np.shape(a), np.shape(b)):
        raise ShapeError("affine constants must broadcast into x")

    def grad_fn(g):
        return (g * a,)

    return _make(x.data * a + b, (x,), grad_fn)


# ---------------------------------------------------------------------------
# work split across CPUs

_cpu_pool = None
_cpu_pool_lock = threading.Lock()

# products of fewer multiply-adds than this run whole, on the calling thread
_GEMM_SPLIT_MIN_MACS = 1 << 24


def _cpus() -> int:
    return len(os.sched_getaffinity(0))


def _pool() -> ThreadPoolExecutor:
    """The shared pool, created on first use with one thread per CPU."""
    global _cpu_pool
    with _cpu_pool_lock:
        if _cpu_pool is None:
            _cpu_pool = ThreadPoolExecutor(_cpus(), thread_name_prefix="radarkit")
    return _cpu_pool


def _run_parts(fn, parts) -> list:
    """The results of fn(*args) for each args tuple of `parts`: the first
    runs on this thread, the others on the shared pool (no pool for one
    part).  Returns once every part has finished, so no part writes into a
    buffer its caller has dropped, and only then raises the first exception
    a part raised.  A part must not submit to the pool, where it could wait
    on a part that never starts."""
    futures = [_pool().submit(fn, *args) for args in parts[1:]]
    try:
        first = fn(*parts[0])
    finally:
        wait(futures)
    return [first] + [f.result() for f in futures]


@functools.cache
def _one_blas_thread() -> bool:
    """Set numpy's bundled OpenBLAS to one thread, once per process, and
    say whether that worked; without its setter nothing is split."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*.so")
    for path in glob.glob(libs):
        setter = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            return True
    return False


def _split(macs, extent, align=1):
    """(start, stop) ranges that cut an axis of `extent` of a product of
    `macs` multiply-adds into one part per usable CPU, each starting at a
    multiple of `align`, at least `align` long and holding at least
    ``_VIEW_GEMM_MIN_MACS`` (OpenBLAS's small-matrix kernels round
    differently).  The whole axis, one range, below
    ``_GEMM_SPLIT_MIN_MACS`` or when OpenBLAS could not be set to one
    thread; radarkit's first product sets it."""
    if not _one_blas_thread() or macs < _GEMM_SPLIT_MIN_MACS:
        return [(0, extent)]
    for n in range(min(_cpus(), extent // align), 1, -1):
        step = -(-extent // n)
        step += -step % align
        ranges = [(lo, min(extent, lo + step)) for lo in range(0, extent, step)]
        shortest = min(hi - lo for lo, hi in ranges)
        if len(ranges) > 1 and shortest >= align and shortest * macs >= extent * _VIEW_GEMM_MIN_MACS:
            return ranges
    return [(0, extent)]


def _exact_cut(n, dtype) -> bool:
    """Whether a product with `n` output columns keeps its bits when its
    rows, or its columns at multiples of 16, are cut into parts: always in
    f32, and in f64 for a multiple of 16 columns.  Otherwise OpenBLAS's f64
    kernels (0.3.31, SkylakeX) round an edge tile of fewer than 16 columns
    differently once the rows or columns are regrouped."""
    return dtype == np.float32 or n % 16 == 0


def _gemm(a, b, bias=None):
    """``a @ b``, plus `bias` over the last output axis if given, with
    numpy's broadcasting of the leading axes, cut by `_split` along the
    first leading axis longer than 1, else, where `_exact_cut` allows, along
    the rows or the columns of the one product, whichever are more.  No part
    cuts the summed axis, so each element is the sum that one-thread
    OpenBLAS computes for the whole product, bit for bit, and each part adds
    its slice of the bias in place."""
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    (m, k), n = a.shape[-2:], b.shape[-1]
    axis = next((i for i, e in enumerate(lead) if e > 1), None)
    if axis is not None:
        extent, align = lead[axis], 1
    elif _exact_cut(n, np.result_type(a, b)):
        # two rows at least, as one would be a GEMV
        axis, extent, align = ("rows", m, 2) if m >= n else ("columns", n, 16)
    else:
        extent, align = 1, 1
    ranges = _split(math.prod(lead) * m * k * n, extent, align)
    if len(ranges) == 1:
        out = a @ b
        if bias is not None:
            out += bias
        return out
    out = np.empty(lead + (m, n), dtype=np.result_type(a, b))
    a, b = (np.broadcast_to(op, lead + op.shape[-2:]) for op in (a, b))

    def part(lo, hi):
        if axis == "rows":
            o = out[..., lo:hi, :]
            np.matmul(a[..., lo:hi, :], b, out=o)
        elif axis == "columns":
            o = out[..., lo:hi]
            np.matmul(a, b[..., lo:hi], out=o)
        else:
            cut = (slice(None),) * axis + (slice(lo, hi),)
            o = out[cut]
            np.matmul(a[cut], b[cut], out=o)
        if bias is not None:
            o += bias[lo:hi] if axis == "columns" else bias

    _run_parts(part, ranges)
    return out


# ---------------------------------------------------------------------------
# matmul


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Batched ``a @ b`` with numpy broadcasting of the leading axes.

    A `bias` of shape ``(b.shape[-1],)`` is added in place to the product,
    by each part of a split product to its own slice (``_gemm``), which is
    the same IEEE add as ``add_bcast(matmul(a, b), bias)`` without a second
    output array; its gradient is summed over every other axis.  The
    backward keeps and multiplies only what an operand's gradient needs.
    """
    inputs = (a, b) if bias is None else (a, b, bias)
    _same_dtype(*inputs)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul operands must have rank >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"inner extents differ: {a.shape} @ {b.shape}")
    if bias is not None and bias.shape != (b.shape[-1],):
        raise ShapeError(f"bias must have shape ({b.shape[-1]},), got {bias.shape}")
    try:
        out = _gemm(a.data, b.data, None if bias is None else bias.data)
    except ValueError as e:
        raise ShapeError(str(e)) from None

    bt = np.swapaxes(b.data, -1, -2) if a.requires_grad else None
    at = np.swapaxes(a.data, -1, -2) if b.requires_grad else None
    biased = bias is not None

    def grad_fn(g):
        ga = None if bt is None else _gemm(g, bt)
        gb = None if at is None else _gemm(at, g)
        return (ga, gb, g) if biased else (ga, gb)

    return _make(out, inputs, grad_fn)


# ---------------------------------------------------------------------------
# convolutions (cross-correlation convention, no kernel flip)

# peak size of an im2col buffer before inference switches to slabs
_CONV_COLS_BYTE_LIMIT = 192 * 1024 * 1024


def _im2col(xp, kernel):
    """C-contiguous columns (B, C*prod(kernel), prod(out)) of padded xp
    (B,C,*spatial); row c*prod(kernel) + tap holds that channel's tap."""
    B, C = xp.shape[:2]
    out = tuple(n - k + 1 for n, k in zip(xp.shape[2:], kernel))
    if all(k == 1 for k in kernel):
        return xp.reshape(B, C, math.prod(out)), out
    cols = np.empty((B, C) + tuple(kernel) + out, dtype=xp.dtype)
    for tap in np.ndindex(*kernel):
        src = tuple(slice(t, t + n) for t, n in zip(tap, out))
        cols[(slice(None), slice(None)) + tap] = xp[(slice(None), slice(None)) + src]
    return cols.reshape(B, C * math.prod(kernel), math.prod(out)), out


# below this many multiply-adds per product, and for one output row or
# column, OpenBLAS leaves its packed GEMM for small-matrix or GEMV kernels
_VIEW_GEMM_MIN_MACS = 1 << 21


def _view_or_copy(view, m, k, n):
    """`view`, the transposed columns that are one operand of an (m, k) @
    (k, n) product, or a contiguous copy of them: the one rule of all three
    convolution GEMMs.

    Large products multiply the view, which BLAS packs like a contiguous
    operand and rounds the same way.  Small and one-row or one-column
    products multiply a copy, because OpenBLAS's small-matrix and GEMV
    kernels round a transposed operand differently.
    """
    if min(m, n) == 1 or m * k * n < _VIEW_GEMM_MIN_MACS:
        return np.ascontiguousarray(view)
    return view


def _conv_shape(x_shape, w_shape, op: str):
    """The output shape of `op` over an x of `x_shape` and a kernel of
    `w_shape`, else ShapeError: the input's extents with the kernel's Cout."""
    rank = {"conv2d": 4, "conv3d": 5}[op]
    if len(x_shape) != rank or len(w_shape) != rank:
        raise ShapeError(f"{op} expects x rank {rank} and w rank {rank}")
    if w_shape[1] != x_shape[1]:
        raise ShapeError(f"{op} channel mismatch: x has {x_shape[1]}, w expects {w_shape[1]}")
    if any(k % 2 == 0 for k in w_shape[2:]):
        raise ShapeError(f"{op} kernel extents must be odd, got {tuple(w_shape[2:])}")
    return (x_shape[0], w_shape[0]) + tuple(x_shape[2:])


def _same_pads(kernel):
    return ((0, 0), (0, 0)) + tuple(((k - 1) // 2,) * 2 for k in kernel)


def _correlate(x, w, bias=None):
    """Same-padded correlation of x (B, C, *spatial) with w (Cout, C, *kernel),
    plus `bias` (Cout,) if given: the convolution forward, and its input
    gradient on the output gradient with the flipped kernel.  One part per
    CPU along the first output axis; each builds its own columns, in slabs
    once all parts' columns would pass ``_CONV_COLS_BYTE_LIMIT``."""
    B, Cout, kernel, out_sp = x.shape[0], w.shape[0], w.shape[2:], x.shape[2:]
    xp = np.pad(x, _same_pads(kernel))
    wm = w.reshape(Cout, -1).T
    # parts and slabs tile the first output axis: extent n0, kernel extent
    # k0; a part cuts the rows of the product (see `_gemm`)
    n0, k0 = out_sp[0], kernel[0]
    ranges = [(0, n0)]
    if _exact_cut(Cout, wm.dtype):
        ranges = _split(B * math.prod(out_sp) * Cout * wm.shape[0], n0)
    slab = n0
    cols_bytes = B * math.prod(out_sp) * wm.shape[0] * x.dtype.itemsize
    if cols_bytes > _CONV_COLS_BYTE_LIMIT:
        slab = max(1, _CONV_COLS_BYTE_LIMIT // len(ranges) // max(1, cols_bytes // n0))
    gemm = _gemm if len(ranges) == 1 else np.matmul  # a part splits no further
    out = np.empty((B, Cout) + out_sp, dtype=x.dtype)

    def fill(lo, hi):
        for i0 in range(lo, hi, slab):
            i1 = min(hi, i0 + slab)
            cols, slab_sp = _im2col(xp[:, :, i0:i1 - 1 + k0], kernel)
            y = gemm(_view_or_copy(cols.swapaxes(1, 2), cols.shape[2], wm.shape[0], Cout), wm)
            y = y.transpose(0, 2, 1).reshape((B, Cout) + slab_sp)
            del cols  # before the next slab builds its own
            if bias is None:
                out[:, :, i0:i1] = y
            else:
                np.add(y, bias.reshape((1, Cout) + (1,) * len(kernel)), out=out[:, :, i0:i1])

    _run_parts(fill, ranges)
    return out


def _conv(x: Tensor, w: Tensor, bias, op: str) -> Tensor:
    """Batched same-padded correlation over every axis after (B, C); `op`
    names the caller, its rank and its shape rule."""
    Cout = _conv_shape(x.shape, w.shape, op)[1]
    _same_dtype(x, w) if bias is None else _same_dtype(x, w, bias)
    if bias is not None and bias.shape != (Cout,):
        raise ShapeError(f"bias must have shape ({Cout},)")
    inputs = (x, w) if bias is None else (x, w, bias)
    kernel, spatial_axes, w_shape = w.shape[2:], tuple(range(2, x.ndim)), w.shape
    out = _correlate(x.data, w.data, None if bias is None else bias.data)
    # the weight gradient rebuilds the columns of the whole output from x,
    # the bytes the forward multiplied; the input gradient reads w
    xd = x.data if w.requires_grad else None
    wd = w.data if x.requires_grad else None
    biased = bias is not None

    def grad_fn(g):
        gx = gw = None
        if xd is not None:
            # (Cout, B*N) @ (B*N, C*prod(kernel)); both operands are views of
            # g and the columns when B = 1
            g2 = np.moveaxis(g, 1, -1).reshape(-1, Cout)
            cm = _im2col(np.pad(xd, _same_pads(kernel)), kernel)[0].swapaxes(0, 1).reshape(-1, len(g2))
            gw = _gemm(g2.T, _view_or_copy(cm.T, Cout, len(g2), len(cm))).reshape(w_shape)
            del cm  # before the input gradient builds columns of its own
        if wd is not None:
            # a copy: a 1x1 kernel's view would reach BLAS transposed and round differently
            w_rot = np.flip(wd, axis=spatial_axes).swapaxes(0, 1)
            gx = _correlate(g, np.ascontiguousarray(w_rot))
        return (gx, gw, g.sum(axis=(0,) + spatial_axes)) if biased else (gx, gw)

    return _make(out, inputs, grad_fn)


def conv2d(x: Tensor, w: Tensor, bias: Tensor | None = None) -> Tensor:
    """Batched same-padded 2-D correlation: x (B,Cin,H,W), w (Cout,Cin,kh,kw)
    with odd kh and kw, output (B,Cout,H,W)."""
    return _conv(x, w, bias, "conv2d")


def conv3d(x: Tensor, w: Tensor, bias: Tensor | None = None) -> Tensor:
    """Batched same-padded 3-D correlation: x (B,Cin,T,H,W),
    w (Cout,Cin,kt,kh,kw) with every extent odd, output (B,Cout,T,H,W)."""
    return _conv(x, w, bias, "conv3d")


# ---------------------------------------------------------------------------
# softmax / normalization / nonlinearities


def _axis(ax: int, ndim: int) -> int:
    """`ax` as an index in [0, ndim); negative axes count from the end."""
    if not -ndim <= ax < ndim:
        raise ShapeError(f"axis {ax} out of bounds for rank {ndim}")
    return ax % ndim


def softmax(x: Tensor, axis: int) -> Tensor:
    """Max-stabilized softmax along `axis`; slices sum to 1."""
    axis = _axis(axis, x.ndim)
    y = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _make(y, (x,), grad_fn)


def normalize(x: Tensor, gamma: Tensor, beta: Tensor, axes, eps: float) -> Tensor:
    """Normalize to zero mean / unit variance over `axes`, then apply the
    learned affine.  gamma/beta must broadcast into x.
    """
    if eps <= 0:
        raise ConfigError(f"normalization eps must be > 0, got {eps}")
    _same_dtype(x, gamma, beta)
    given = tuple(axes) if isinstance(axes, (tuple, list)) else (axes,)
    axes = tuple(_axis(ax, x.ndim) for ax in given)
    if len(set(axes)) != len(axes):
        raise ShapeError(f"normalize axes {given} name the same axis twice for rank {x.ndim}")
    if not _broadcasts_into(x.shape, gamma.shape, beta.shape):
        raise ShapeError("gamma/beta must broadcast into x")
    mu = x.data.mean(axis=axes, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.data.dtype.type(eps))
    y0 = xc * inv
    gd = gamma.data
    out = gd * y0 + beta.data

    def grad_fn(g):
        gy = g * gd
        m1 = gy.mean(axis=axes, keepdims=True)
        m2 = (gy * y0).mean(axis=axes, keepdims=True)
        return inv * (gy - m1 - y0 * m2), g * y0, g

    return _make(out, (x, gamma, beta), grad_fn)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def grad_fn(g):
        return (g * mask,)

    return _make(np.where(mask, x.data, x.data.dtype.type(0)), (x,), grad_fn)


_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# arrays with more elements than this are split across CPUs by gelu
_GELU_SPLIT_MIN = 1 << 20


def _phi_into(x, out):
    """Fill out with the standard normal CDF 0.5*(1+erf(x/sqrt(2)))."""
    np.multiply(x, x.dtype.type(1.0 / _SQRT2), out=out)
    erf(out, out=out)
    out += 1.0
    out *= 0.5


def _gelu_into(x, out, slope=None):
    """Fill out with x*Phi(x) and, if given, slope with Phi(x) + x*pdf(x)."""
    if slope is None:
        _phi_into(x, out)
        out *= x
        return
    _phi_into(x, slope)
    np.multiply(x, slope, out=out)
    # x * (c * exp(-0.5 * x * x)) with one buffer: IEEE products commute
    x_pdf = np.multiply(x, -0.5)
    x_pdf *= x
    np.exp(x_pdf, out=x_pdf)
    x_pdf *= x.dtype.type(_INV_SQRT_2PI)
    x_pdf *= x
    slope += x_pdf


def gelu(x: Tensor) -> Tensor:
    """Exact erf form: 0.5*x*(1+erf(x/sqrt(2))).  When it records, the
    forward's parts also fill its slope, the one array the backward reads."""
    out = np.empty(x.shape, dtype=x.data.dtype)
    slope = np.empty_like(out) if _records((x,)) else None
    bufs = (x.data, out) if slope is None else (x.data, out, slope)
    n = _cpus() if x.size > _GELU_SPLIT_MIN else 1
    _run_parts(_gelu_into, list(zip(*(np.array_split(a.reshape(-1), n) for a in bufs))))

    def grad_fn(g):
        return (g * slope,)

    return _make(out, (x,), grad_fn)


def _logistic(z: np.ndarray) -> np.ndarray:
    """1/(1+exp(-z)), with exp taken of -|z| only, so it never overflows."""
    pos = z >= 0
    e = np.exp(np.where(pos, -z, z))
    return np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic; output is strictly inside (0,1)."""
    dt = x.data.dtype
    fi = np.finfo(dt)
    y = np.clip(_logistic(x.data), fi.tiny, 1.0 - fi.epsneg).astype(dt, copy=False)

    def grad_fn(g):
        return (g * y * (1.0 - y),)

    return _make(y, (x,), grad_fn)


# ---------------------------------------------------------------------------
# reductions and losses


def tsum(x: Tensor, axis=None) -> Tensor:
    axis = None if axis is None else _axis(axis, x.ndim)
    shape = x.shape

    def grad_fn(g):
        return (np.broadcast_to(g if axis is None else np.expand_dims(g, axis), shape),)

    out = x.data.sum(axis=axis)
    return _make(np.asarray(out, dtype=x.data.dtype), (x,), grad_fn)


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy of sigmoid(logits) against targets in [0,1].

    Fusing the sigmoid keeps the loss finite for saturated logits.
    """
    t = np.asarray(targets, dtype=logits.data.dtype)
    if t.shape != logits.shape:
        raise ShapeError(f"targets shape {t.shape} != logits shape {logits.shape}")
    z = logits.data
    per = np.maximum(z, 0) - z * t + np.log1p(np.exp(-np.abs(z)))
    out = np.asarray(per.mean(), dtype=logits.data.dtype)
    n = logits.size

    def grad_fn(g):
        return (g * (_logistic(z) - t) / n,)

    return _make(out, (logits,), grad_fn)


# ---------------------------------------------------------------------------
# data-movement ops


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise ShapeError(f"reshape {x.shape} -> {shape} changes element count")
    x_shape = x.shape

    def grad_fn(g):
        return (g.reshape(x_shape),)

    return _make(x.data.reshape(shape), (x,), grad_fn)


def permute(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"invalid permutation {axes} for rank {x.ndim}")
    inv = np.argsort(axes)

    def grad_fn(g):
        return (np.ascontiguousarray(g.transpose(inv)),)

    return _make(np.ascontiguousarray(x.data.transpose(axes)), (x,), grad_fn)


def pad(x: Tensor, pads) -> Tensor:
    """Zero padding, `pads` is a per-axis list of (before, after)."""
    pads = tuple((int(a), int(b)) for a, b in pads)
    if len(pads) != x.ndim:
        raise ShapeError("pad spec must cover every axis")
    if any(a < 0 or b < 0 for a, b in pads):
        raise ShapeError("pad amounts must be >= 0")
    sl = tuple(slice(a, a + n) for (a, _), n in zip(pads, x.shape))

    def grad_fn(g):
        return (g[sl],)

    return _make(np.pad(x.data, pads), (x,), grad_fn)


def crop(x: Tensor, bounds) -> Tensor:
    """Per-axis (start, stop) slicing; the gradient zero-pads back."""
    bounds = tuple((int(a), int(b)) for a, b in bounds)
    if len(bounds) != x.ndim:
        raise ShapeError("crop spec must cover every axis")
    for (a, b), n in zip(bounds, x.shape):
        if not (0 <= a < b <= n):
            raise ShapeError(f"invalid crop {bounds} for shape {x.shape}")
    sl, x_shape = tuple(slice(a, b) for a, b in bounds), x.shape

    def grad_fn(g):
        gx = np.zeros(x_shape, dtype=g.dtype)
        gx[sl] = g
        return (gx,)

    return _make(np.ascontiguousarray(x.data[sl]), (x,), grad_fn)


def repeat(x: Tensor, axis: int, factor: int) -> Tensor:
    """Nearest-neighbour repeat along one axis; gradient sums the copies."""
    axis = _axis(axis, x.ndim)
    factor = int(factor)
    if factor < 1:
        raise ShapeError("repeat factor must be >= 1")

    split = x.shape[:axis + 1] + (factor,) + x.shape[axis + 1:]

    def grad_fn(g):
        return (g.reshape(split).sum(axis=axis + 1),)

    return _make(np.ascontiguousarray(np.repeat(x.data, factor, axis=axis)), (x,), grad_fn)


# ---------------------------------------------------------------------------
# window / grid partitioning


# from a split of the padded map to token blocks (B, nH, nW, P, P, C); the
# split is (B,C,nH,P,nW,P) for windows and (B,C,P,nH,P,nW) for grid groups
_PARTITION_PERMS = {"window": (0, 2, 4, 3, 5, 1), "grid": (0, 3, 5, 2, 4, 1)}
# from token blocks to the channels-last split of the padded map:
# (B,nH,P,nW,P,C) for windows and (B,P,nH,P,nW,C) for grid groups
_CHANNELS_LAST_PERMS = {"window": (0, 1, 3, 2, 4, 5), "grid": (0, 3, 1, 4, 2, 5)}


def _partition_shapes(p, mode, b, c, h, w):
    """Padded (H, W), token blocks (B, nH, nW, P, P, C) and token shape
    (B*nH*nW, P*P, C) of the `mode` partition of a (b, c, h, w) map."""
    if p <= 0:
        raise ConfigError(f"{mode} size must be positive, got {p}")
    hp, wp = h + (-h) % p, w + (-w) % p
    blocks = (b, hp // p, wp // p, p, p, c)
    return (hp, wp), blocks, (b * blocks[1] * blocks[2], p * p, c)


def _partition(x: Tensor, p: int, mode: str) -> Tensor:
    """(B,C,H,W) -> (B*nH*nW, P*P, C) tokens of `mode` "window" or "grid",
    after zero-padding H and W up to the next multiple of P."""
    if x.ndim != 4:
        raise ShapeError(f"{mode}_partition expects rank-4 input")
    b, c, h, w = x.shape
    (hp, wp), blocks, out = _partition_shapes(p, mode, b, c, h, w)
    if (hp, wp) != (h, w):
        x = pad(x, [(0, 0), (0, 0), (0, hp - h), (0, wp - w)])
    perm = _PARTITION_PERMS[mode]
    split = tuple(blocks[i] for i in np.argsort(perm))
    return reshape(permute(reshape(x, split), perm), out)


def _unpartition(tokens: Tensor, p: int, mode: str, b: int, c: int, h: int, w: int,
                 channels_last: bool = False) -> Tensor:
    """Exact inverse of ``_partition(x, p, mode)`` for x of shape (b,c,h,w);
    with `channels_last`, the same pixels as (b,h,w,c), from the one permute."""
    (hp, wp), blocks, expected = _partition_shapes(p, mode, b, c, h, w)
    if tokens.shape != expected:
        raise ShapeError(f"token shape {tokens.shape} inconsistent with reverse target")
    if channels_last:
        perm, padded, shape = _CHANNELS_LAST_PERMS[mode], (b, hp, wp, c), (b, h, w, c)
    else:
        perm, padded, shape = np.argsort(_PARTITION_PERMS[mode]), (b, c, hp, wp), (b, c, h, w)
    t = reshape(permute(reshape(tokens, blocks), perm), padded)
    return t if padded == shape else crop(t, [(0, n) for n in shape])


def window_partition(x: Tensor, p: int) -> Tensor:
    """(B,C,H,W) -> (B*nH*nW, P*P, C) non-overlapping PxP windows."""
    return _partition(x, p, "window")


def window_reverse(tokens: Tensor, p: int, b: int, c: int, h: int, w: int) -> Tensor:
    return _unpartition(tokens, p, "window", b, c, h, w)


def grid_partition(x: Tensor, g: int) -> Tensor:
    """(B,C,H,W) -> (B*nH*nW, G*G, C) dilated token groups: token (i,j) of
    group (a,b) is the pixel at (i*nH + a, j*nW + b)."""
    return _partition(x, g, "grid")


def grid_reverse(tokens: Tensor, g: int, b: int, c: int, h: int, w: int) -> Tensor:
    return _unpartition(tokens, g, "grid", b, c, h, w)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> None:
    """Accumulate into .grad of every leaf reachable from `loss`.

    A leaf is a requires_grad tensor that no recorded op produced:
    parameters and inputs.  ``loss.grad`` is set to one.  The nodes are
    taken off the active tape and run in reverse; each node's gradient is
    taken out of its slot, and its grad_fn returns one per input.  Only
    this code writes a gradient: it sums each over its broadcast axes
    (``_unbroadcast``) and adds it in place into the input's link, a first
    one into ``np.zeros``, which turns -0.0 into +0.0; a None link or
    gradient gets nothing.  The node, with the arrays its grad_fn saved, is
    dropped after it runs, so memory is freed as the pass goes.

    The tape is consumed even if a grad_fn raises, so a failed pass cannot
    be replayed onto its partial gradients; calling backward again before
    recording new ops raises UsageError.  A loss that does not require grad
    raises UsageError and leaves the tape as it was.
    """
    if loss.shape != ():
        raise UsageError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise UsageError(
            "loss does not require grad: it was computed under no_grad or "
            "from tensors that do not require grad"
        )
    tape = active_tape()
    if tape._spent:
        raise UsageError("tape already consumed; record new ops before backward")
    if not tape.nodes:
        raise UsageError("tape is empty; nothing to differentiate")
    nodes, tape.nodes = tape.nodes, []
    loss.grad = np.ones((), dtype=loss.data.dtype)
    if loss._slot is not None:
        loss._slot.grad = loss.grad
    try:
        while nodes:
            node = nodes.pop()
            g, node.slot.grad = node.slot.grad, None
            if g is None:
                continue
            for dst, gi in zip(node.inputs, node.grad_fn(g)):
                if dst is not None and gi is not None:
                    gi = _unbroadcast(gi, dst.shape)
                    if dst.grad is None:
                        dst.grad = np.zeros(dst.shape, gi.dtype)
                    dst.grad += gi
            gi = None  # so the last input gradient dies before the next grad_fn runs
    finally:
        nodes.clear()
        tape._spent = True

