"""Span tracing from outside the program, for the benchmark's traced run.

Nothing in ``radarkit`` knows about this module.  While a ``Tracer`` is
installed it replaces public functions with wrappers that record a span
(name, kind, start, end, parent) around each call:

- ``radarkit.tensor.<op>`` module attributes, which ``layers`` and
  ``models`` reach as ``T.<op>`` and the tensor ops reach as globals;
- the ``forward`` of every ``Module`` instance attached with ``attach``,
  named by its ``named_params()``-style path (``trunk.blocks.3.window_attn``);
- the ``grad_fn`` of every node on the active tape (``wrap_tape``);
- the ``synth``, ``confmap``, ``evaluation`` and checkpoint entry points.

``confmap.ols`` and ``evaluation.ols`` run tens of thousands of times per
clip, so they are only counted, never spanned.  Spans stay in memory;
``uninstall`` puts every original function back.

A span's self time is its duration minus the durations of its child spans
(calls are strictly nested: one caller thread).  Multiply-accumulates are
joined to spans two ways: each tensor matmul/conv span carries the MACs
computed from its operand shapes, and each module span carries the MACs
its own ``profile()`` reports for the input shape seen at call time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from radarkit import confmap, evaluation, layers, models, synth
from radarkit import tensor as T

# tensor ops grouped under ``tensor.movement``
MOVEMENT_OPS = (
    "reshape", "permute", "crop", "pad", "repeat",
    "window_partition", "window_reverse", "grid_partition", "grid_reverse",
)
COMPUTE_OPS = (
    "matmul", "conv2d", "conv3d", "gelu", "add_bcast", "add", "normalize",
    "affine_const", "softmax", "relu", "sigmoid", "scale", "mul", "tsum",
    "bce_with_logits", "backward",
)


def _conv_macs(out, args, kwargs):
    w = args[1]
    k = 1
    for e in w.shape[1:]:
        k *= e
    return out.size * k


def _matmul_macs(out, args, kwargs):
    return out.size * args[0].shape[-1]


_OP_MACS = {"matmul": _matmul_macs, "conv2d": _conv_macs, "conv3d": _conv_macs}

# (module, attribute, counter fed with a number taken from the call)
_ENTRY_POINTS = (
    (synth, "generate_scene", None),
    (synth, "render_ramap", None),
    (synth, "write_sequence", ("synth.io_bytes", lambda out, a, k: a[1].size * 4)),
    (synth, "read_sequence", ("synth.io_bytes", lambda out, a, k: out.nbytes)),
    (confmap, "encode_confmap", None),
    (confmap, "decode_confmap", None),
    (confmap, "peak_detect", ("confmap.candidates", lambda out, a, k: len(out))),
    (confmap, "l_nms", ("confmap.kept", lambda out, a, k: len(out))),
    (evaluation, "evaluate", None),
    (models, "save_checkpoint", None),
    (models, "load_checkpoint", None),
)
_COUNTED = ((confmap, "ols"), (evaluation, "ols"))

# index of each field in a span record
NAME, KIND, START, END, PARENT, MACS = range(6)


def module_kind(mod) -> str:
    """Aggregation key of a module span: ``layers.<Class>`` or
    ``models.<Class>``; partition attention is split by mode."""
    cls = type(mod).__name__
    if isinstance(mod, layers.PartitionAttention):
        cls = f"{cls}-{mod.mode}"
    home = "models" if type(mod).__module__ == models.__name__ else "layers"
    return f"{home}.{cls}"


def walk_modules(mod, prefix=""):
    """Yield (qualified name, module) in the naming scheme of named_params()."""
    yield prefix.rstrip(".") or "model", mod
    for cname, child in mod.children():
        yield from walk_modules(child, prefix + cname + ".")


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._attached: list[object] = []
        self._macs_cache: dict[tuple, int] = {}

    # -- span recording -------------------------------------------------

    def _wrap(self, fn, name, kind, macs=None, counter=None):
        spans, stack, clock = self.spans, self._stack, self.clock
        counters = self.counters

        def traced(*args, **kwargs):
            rec = [name, kind, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if macs is not None:
                rec[MACS] = macs(out, args, kwargs)
            if counter is not None:
                counters[counter[0]] += counter[1](out, args, kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name, kind):
        """A span opened by the benchmark itself, around its own code."""
        rec = [name, kind, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = self.clock()
        try:
            yield rec
        finally:
            rec[END] = self.clock()
            self._stack.pop()

    # -- installation ---------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        for op in COMPUTE_OPS + MOVEMENT_OPS:
            kind = "tensor.movement" if op in MOVEMENT_OPS else f"tensor.{op}"
            fn = getattr(T, op)
            self._patch(T, op, self._wrap(fn, f"tensor.{op}", kind, macs=_OP_MACS.get(op)))
        for owner, attr, counter in _ENTRY_POINTS:
            name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name, name, counter=counter))
        for owner, attr in _COUNTED:
            key = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}.calls"
            self._patch(owner, attr, _counting(getattr(owner, attr), self.counters, key))
        return self

    def attach(self, model) -> None:
        """Wrap the forward of every module instance of `model`; the root
        ``RadarDetector`` also gets its ``forward_logits`` wrapped."""
        for qname, mod in walk_modules(model):
            kind = module_kind(mod)
            for attr in ("forward", "forward_logits"):
                if attr == "forward_logits" and not isinstance(mod, models.RadarDetector):
                    continue
                bound = getattr(mod, attr)
                macs = self._module_macs(mod)
                setattr(mod, attr, self._wrap(bound, qname, kind, macs=macs))
            self._attached.append(mod)

    def _module_macs(self, mod):
        cache = self._macs_cache

        def macs(out, args, kwargs):
            key = (id(mod), tuple(args[0].shape))
            if key not in cache:
                entries, _ = mod.profile(tuple(args[0].shape))
                cache[key] = sum(int(m) for _, _, m in entries)
            return cache[key]

        return macs

    def wrap_tape(self) -> int:
        """Wrap the grad_fn of every node recorded so far; returns the
        node count."""
        nodes = T.active_tape().nodes
        for node in nodes:
            op = node.grad_fn.__qualname__.split(".", 1)[0]
            node.grad_fn = self._wrap(node.grad_fn, f"tensor.bwd.{op}", f"tensor.bwd.{op}")
        return len(nodes)

    def uninstall(self) -> None:
        for mod in self._attached:
            mod.__dict__.pop("forward", None)
            mod.__dict__.pop("forward_logits", None)
        self._attached = []
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _counting(fn, counters, key):
    def counted(*args, **kwargs):
        counters[key] += 1
        return fn(*args, **kwargs)

    counted.__wrapped__ = fn
    return counted


# ---------------------------------------------------------------------------
# analysis


def self_times(spans) -> list[float]:
    """Duration of each span minus what its direct children cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def roots(spans) -> list[int]:
    """Index of the outermost ancestor of each span (parents precede
    children in the list)."""
    out = []
    for i, s in enumerate(spans):
        out.append(i if s[PARENT] < 0 else out[s[PARENT]])
    return out


def mac_attribution(spans):
    """Per module span: (self MACs from profile(), MACs of the tensor ops
    whose nearest enclosing span is that module).

    Self MACs are the module's profile() MACs minus those of its direct
    child modules; a module's own ops (the attention matmuls of
    MultiheadSelfAttention, the GEMM of a Linear) must account for exactly
    that remainder.
    """
    is_module = [s[KIND].startswith(("layers.", "models.")) for s in spans]
    self_macs = {i: s[MACS] for i, s in enumerate(spans) if is_module[i]}
    op_macs = dict.fromkeys(self_macs, 0)
    owner = []
    for i, s in enumerate(spans):
        p = s[PARENT]
        owner.append(i if is_module[i] else (owner[p] if p >= 0 else -1))
        if is_module[i] and p >= 0 and owner[p] >= 0:
            self_macs[owner[p]] -= s[MACS]
        elif not is_module[i] and s[MACS] and owner[i] >= 0:
            op_macs[owner[i]] += s[MACS]
    return {i: (self_macs[i], op_macs[i]) for i in self_macs}


def aggregate(spans, selected=None) -> dict:
    """Per span kind: calls, self seconds, inclusive seconds and MACs, over
    the spans whose index is in `selected` (all when None)."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for i, s in enumerate(spans):
        if selected is not None and i not in selected:
            continue
        row = out.setdefault(s[KIND], {"calls": 0, "self_s": 0.0, "total_s": 0.0, "macs": 0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        row["total_s"] += s[END] - s[START]
        row["macs"] += s[MACS]
    return out


def by_qualified_name(spans, selected=None) -> dict:
    """Module spans grouped by qualified name; these rows go into the trace
    output, not into the metrics."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for i, s in enumerate(spans):
        if (selected is not None and i not in selected) or not s[KIND].startswith(("layers.", "models.")):
            continue
        row = out.setdefault(s[NAME], {"kind": s[KIND], "calls": 0, "self_s": 0.0, "total_s": 0.0, "macs": 0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        row["total_s"] += s[END] - s[START]
        row["macs"] += s[MACS]
    for row in out.values():
        row["gmac_per_s"] = row["macs"] / row["total_s"] / 1e9 if row["total_s"] > 0 else 0.0
    return out
