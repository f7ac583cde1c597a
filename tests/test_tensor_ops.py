"""Forward-op contracts for the tensor engine, checked against loop oracles."""

import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf

from radarkit import tensor as T
from radarkit.errors import ConfigError, ShapeError, UsageError
from radarkit.layers import FramePairConv3d, Linear, Module, SeedStream
from radarkit.models import build_reference
from radarkit.synth import SynthConfig, generate_scene, render_ramap

from oracles import conv2d_loops, conv3d_grad_loops, conv3d_loops, matmul_loops


def rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _frame_pair_conv(x, w, b):
    """x through a ``FramePairConv3d`` whose parameters are the tensors w
    (Cout, C, 2, 3, 3) and b: the correlation at stride (2, 1, 1) and
    padding (0, 1, 1)."""
    conv = FramePairConv3d(w.shape[1], w.shape[0], SeedStream(0))
    conv.w, conv.b = w, b
    return conv(x)


class TestCreate:
    def test_zeros(self):
        t = T.zeros((2, 3))
        assert t.shape == (2, 3)
        assert np.array_equal(t.data, np.zeros((2, 3)))

    def test_constant_fill(self):
        t = T.full((4,), 1.5)
        assert np.array_equal(t.data, np.array([1.5] * 4))

    def test_seeded_uniform_bit_identical(self):
        a = T.uniform((8,), 42, -1, 1)
        b = T.uniform((8,), 42, -1, 1)
        assert a.data.tobytes() == b.data.tobytes()

    def test_different_seed_differs(self):
        a = T.uniform((8,), 42, -1, 1)
        b = T.uniform((8,), 43, -1, 1)
        assert not np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("shape", [(0,), (2, 0), (-1, 3)])
    def test_bad_extent_rejected(self, shape):
        with pytest.raises(ShapeError):
            T.zeros(shape)

    @pytest.mark.parametrize("make", [
        lambda: T.zeros(()),
        lambda: T.full((), 2.5),
        lambda: T.uniform((), 7),
        lambda: T.from_array(np.float64(1.0)),
    ], ids=["zeros", "full", "uniform", "from_array"])
    def test_zero_dim(self, make):
        t = make()
        assert t.shape == () and t.ndim == 0 and t.size == 1 and t.data.flags.c_contiguous
        assert t.item() == float(t.data)

    def test_repr(self):
        t = T.zeros((2, 3), requires_grad=True, dtype=np.float32)
        assert repr(t) == "Tensor(shape=(2, 3), dtype=float32, requires_grad=True)"


# each op's argument checks: (call, phrase of its ShapeError)
SHAPE_ERRORS = {
    "add_bcast-incompatible": (lambda: T.add_bcast(T.zeros((2, 3)), T.zeros((4,))), "does not broadcast into"),
    "add_bcast-grows-x": (lambda: T.add_bcast(T.zeros((1, 3)), T.zeros((2, 3))), "does not broadcast into"),
    "affine_const-grows-x": (lambda: T.affine_const(T.zeros((1, 3)), np.ones((2, 3)), 0.0), "must broadcast"),
    "affine_const-incompatible": (lambda: T.affine_const(T.zeros((2, 3)), 1.0, np.ones(4)), "must broadcast"),
    "matmul-rank-1": (lambda: T.matmul(T.zeros((3,)), T.zeros((3, 2))), "rank >= 2"),
    "matmul-batch": (lambda: T.matmul(T.zeros((2, 3, 4)), T.zeros((3, 4, 5))), "broadcast"),
    "conv-channels": (lambda: T.conv2d(T.zeros((1, 2, 5, 5)), T.zeros((3, 4, 3, 3))), "x has 2, w expects 4"),
    "conv-bias": (lambda: T.conv2d(T.zeros((1, 2, 5, 5)), T.zeros((3, 2, 3, 3)), T.zeros((2,))), r"shape \(3,\)"),
    "conv2d-rank": (lambda: T.conv2d(T.zeros((2, 5, 5)), T.zeros((3, 2, 3, 3))), "conv2d expects"),
    "conv3d-rank": (lambda: T.conv3d(T.zeros((1, 2, 5, 5)), T.zeros((3, 2, 3, 3))), "conv3d expects"),
    "conv3d-even-kernel": (lambda: T.conv3d(T.zeros((1, 1, 4, 4, 4)), T.zeros((1, 1, 2, 3, 3))),
                           r"extents must be odd, got \(2, 3, 3\)"),
    "normalize-grows-x": (lambda: T.normalize(T.zeros((1, 3)), T.zeros((2, 3)), T.zeros((3,)), 1, 1e-5),
                          "gamma/beta"),
    "normalize-incompatible": (lambda: T.normalize(T.zeros((1, 3)), T.zeros((4,)), T.zeros((3,)), 1, 1e-5),
                               "gamma/beta"),
    "bce-targets": (lambda: T.bce_with_logits(T.zeros((2, 3)), np.zeros((3, 2))), "targets shape"),
    "permute": (lambda: T.permute(T.zeros((2, 3)), (0, 0)), "invalid permutation"),
    "pad-axes": (lambda: T.pad(T.zeros((2, 3)), [(1, 1)]), "cover every axis"),
    "pad-negative": (lambda: T.pad(T.zeros((2, 3)), [(0, 0), (-1, 0)]), ">= 0"),
    "crop-axes": (lambda: T.crop(T.zeros((2, 3)), [(0, 1)]), "cover every axis"),
    "crop-bounds": (lambda: T.crop(T.zeros((2, 3)), [(0, 2), (2, 2)]), "invalid crop"),
    "repeat-factor": (lambda: T.repeat(T.zeros((2, 3)), 0, 0), "factor must be >= 1"),
    "partition-rank": (lambda: T.window_partition(T.zeros((2, 3, 4)), 2), "expects rank-4"),
    "reverse-tokens": (lambda: T.window_reverse(T.zeros((4, 4, 3)), 2, 1, 3, 4, 6), "inconsistent"),
    "item-non-scalar": (lambda: T.zeros((2,)).item(), r"one element, got shape \(2,\)"),
    "tsum-axis": (lambda: T.tsum(T.zeros((2, 3)), axis=2), "axis 2 out of bounds for rank 2"),
}


@pytest.mark.parametrize("case", sorted(SHAPE_ERRORS))
def test_op_shape_errors(case):
    call, phrase = SHAPE_ERRORS[case]
    with pytest.raises(ShapeError, match=phrase):
        call()


class TestMatmul:
    def test_identity(self):
        i2 = T.from_array(np.eye(2))
        m = T.from_array(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(T.matmul(i2, m).data, m.data)

    def test_hand_case(self):
        a = T.from_array(np.array([[1.0, 2.0]]))
        b = T.from_array(np.array([[3.0], [4.0]]))
        assert T.matmul(a, b).data[0, 0] == 11.0

    def test_vs_loop_oracle(self):
        r = rng(0)
        a = r.standard_normal((5, 4))
        b = r.standard_normal((4, 3))
        got = T.matmul(T.from_array(a), T.from_array(b)).data
        want = matmul_loops(a, b)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_batched_broadcast(self):
        r = rng(1)
        a = r.standard_normal((3, 2, 5, 4))
        b = r.standard_normal((4, 6))
        got = T.matmul(T.from_array(a), T.from_array(b)).data
        assert got.shape == (3, 2, 5, 6)
        for i in range(3):
            for j in range(2):
                want = matmul_loops(a[i, j], b)
                assert np.max(np.abs(got[i, j] - want)) < 1e-12

    def test_inner_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(T.zeros((2, 3)), T.zeros((4, 2)))


class TestConv2d:
    def test_1x1_kernel_is_channel_mix(self):
        r = rng(2)
        x = r.standard_normal((2, 2, 4, 4))
        w = np.array([[[[1.0]], [[0.0]]], [[[0.0]], [[1.0]]]])  # identity mix
        out = T.conv2d(T.from_array(x), T.from_array(w)).data
        assert np.allclose(out, x)

    def test_ones_kernel_constant_image(self):
        c, cin = 0.7, 3
        x = T.full((1, cin, 6, 6), c)
        w = T.full((1, cin, 3, 3), 1.0)
        out = T.conv2d(x, w).data
        assert np.allclose(out[0, 0, 1:-1, 1:-1], 9 * c * cin)

    @pytest.mark.parametrize("seed, kh, kw", [(3, 3, 3), (4, 1, 1), (5, 3, 5), (6, 5, 1)])
    def test_vs_loop_oracle(self, seed, kh, kw):
        r = rng(seed)
        x = r.standard_normal((2, 3, 7, 7))
        w = r.standard_normal((4, 3, kh, kw))
        b = r.standard_normal(4)
        got = T.conv2d(T.from_array(x), T.from_array(w), T.from_array(b)).data
        want = conv2d_loops(x, w, b, (1, 1), ((kh - 1) // 2, (kw - 1) // 2))
        assert got.shape == want.shape == (2, 4, 7, 7)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            T.conv2d(T.zeros((1, 1, 8, 8)), T.zeros((1, 1, 4, 4)))


class TestConv3d:
    def test_111_kernel_is_channel_mix(self):
        r = rng(7)
        x = r.standard_normal((1, 2, 3, 4, 4))
        w = r.standard_normal((3, 2, 1, 1, 1))
        out = T.conv3d(T.from_array(x), T.from_array(w)).data
        want = np.einsum("bcthw,oc->bothw", x, w[:, :, 0, 0, 0])
        assert np.allclose(out, want)

    def test_stride2_halves_even_t(self):
        with T.no_grad():
            out = _frame_pair_conv(T.zeros((1, 2, 8, 5, 5)), T.zeros((3, 2, 2, 3, 3)), T.zeros((3,)))
        assert out.shape == (1, 3, 4, 5, 5)

    @pytest.mark.parametrize("seed, kt, kh, kw", [(8, 1, 3, 3), (10, 3, 3, 3), (11, 3, 1, 5)])
    def test_vs_loop_oracle(self, seed, kt, kh, kw):
        r = rng(seed)
        x = r.standard_normal((1, 2, 4, 5, 5))
        w = r.standard_normal((3, 2, kt, kh, kw))
        b = r.standard_normal(3)
        got = T.conv3d(T.from_array(x), T.from_array(w), T.from_array(b)).data
        want = conv3d_loops(x, w, b, (1, 1, 1), ((kt - 1) // 2, (kh - 1) // 2, (kw - 1) // 2))
        assert got.shape == want.shape == (1, 3, 4, 5, 5)
        assert np.max(np.abs(got - want)) < 1e-10

    @pytest.mark.parametrize("seed, batch", [(9, 1), (12, 2)])
    def test_frame_pair_vs_loop_oracle(self, seed, batch):
        r = rng(seed)
        x = r.standard_normal((batch, 2, 4, 5, 5))
        w = r.standard_normal((3, 2, 2, 3, 3))
        b = r.standard_normal(3)
        with T.no_grad():
            got = _frame_pair_conv(*(T.from_array(a) for a in (x, w, b))).data
        want = conv3d_loops(x, w, b, (2, 1, 1), (0, 1, 1))
        assert got.shape == want.shape == (batch, 3, 2, 5, 5)
        assert np.max(np.abs(got - want)) < 1e-10


class TestConvSlabs:
    """Once its im2col columns would pass the byte limit, the correlation
    builds them one slab of the first output axis (T for 3-D, H for 2-D) at
    a time: in the forward and in the input gradient, with or without a
    gradient to record.

    A slab's GEMM has fewer rows than the one-buffer GEMM, and OpenBLAS may
    round some rows differently for a different row count.  The slabbed
    output is bitwise equal to the one-buffer output at the radarformer-ref
    shapes and at the 8x8 case below, but not at every shape: at 5x5 a few
    elements differ in the last bit, and so do the 2-D cases' slabbed input
    gradients.  There the loop oracle is the arbiter.  The 3-D cases run the
    frame-pair convolution, whose folded conv3d slabs its T/2 axis.
    """

    CASES = {
        "conv3d": ((1, 2, 8, 8, 8), (3, 2, 2, 3, 3)),
        "conv3d-5x5": ((1, 2, 8, 5, 5), (3, 2, 2, 3, 3)),
        "conv2d": ((2, 3, 9, 7), (4, 3, 3, 3)),
    }

    def _inputs(self, case, dtype, requires_grad=False):
        xs, ws = self.CASES[case]
        r = rng(30)
        return tuple(T.from_array(r.standard_normal(shape), requires_grad, dtype) for shape in (xs, ws, ws[:1]))

    @staticmethod
    def _conv(x, w, b):
        """The convolution of x, w and b, and the loop oracle's output."""
        exact = (a.data.astype(np.float64) for a in (x, w, b))
        if x.ndim == 5:
            return _frame_pair_conv(x, w, b), conv3d_loops(*exact, (2, 1, 1), (0, 1, 1))
        return T.conv2d(x, w, b), conv2d_loops(*exact, (1, 1), (1, 1))

    def _run(self, case, dtype, requires_grad=False):
        return self._conv(*self._inputs(case, dtype, requires_grad))

    @staticmethod
    def _force_slabs(monkeypatch):
        """Lower the limit below one output row; return the im2col call log."""
        calls = []
        real = T._im2col

        def counting(*args):
            calls.append(args[0].shape)
            return real(*args)

        monkeypatch.setattr(T, "_im2col", counting)
        monkeypatch.setattr(T, "_CONV_COLS_BYTE_LIMIT", 256)
        return calls

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["conv3d", "conv2d"])
    def test_slabs_bitwise_equal_to_one_buffer(self, case, dtype, monkeypatch):
        with T.no_grad():
            whole, _ = self._run(case, dtype)
            calls = self._force_slabs(monkeypatch)
            slabbed, _ = self._run(case, dtype)
        assert len(calls) == whole.shape[2] > 1
        assert slabbed.dtype == whole.dtype
        assert slabbed.data.tobytes() == whole.data.tobytes()

    # f32: eps 1.2e-7 on sums of up to 36 products of magnitude ~1-10
    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-4), (np.float64, 1e-10)])
    @pytest.mark.parametrize("case", ["conv3d", "conv3d-5x5", "conv2d"])
    def test_slabs_match_loop_oracle(self, case, dtype, tol, monkeypatch):
        calls = self._force_slabs(monkeypatch)
        with T.no_grad():
            out, want = self._run(case, dtype)
        assert len(calls) == out.shape[2] > 1
        assert np.max(np.abs(out.data - want)) < tol

    @staticmethod
    def _track_columns(monkeypatch):
        """Count the bytes of im2col columns alive at once; return [live,
        peak], the set of threads that built columns and, per build, the
        padded input's shape and the bytes alive after it."""
        lock, live, threads, builds = threading.Lock(), [0, 0], set(), []
        real = T._im2col

        def release(n):
            with lock:
                live[0] -= n

        def tracked(*args):
            cols, out = real(*args)
            with lock:
                threads.add(threading.current_thread())
                live[0] += cols.nbytes
                live[1] = max(live[1], live[0])
                builds.append((args[0].shape, live[0]))
            # the buffer a view of the columns keeps alive, where there is one
            owner = cols.base if cols.base is not None and cols.base.nbytes == cols.nbytes else cols
            weakref.finalize(owner, release, cols.nbytes)
            return cols, out

        monkeypatch.setattr(T, "_im2col", tracked)
        return live, threads, builds

    @pytest.mark.parametrize("case", ["conv3d", "conv2d"])
    def test_grad_enabled_slabs(self, case, monkeypatch):
        """With a gradient to record and the limit at one output index's
        columns, the forward and the input gradient build one index at a
        time, and the output and the x, w and b gradients keep the oracle's
        tolerance.  The weight gradient builds the whole columns once and
        drops them before the input gradient starts: no slab build sees more
        than the limit alive."""
        x, w, b = self._inputs(case, np.float64, requires_grad=True)
        fold = x.ndim == 5
        # the correlation's first output extent n0, kernel extent k0 and
        # channels: the fold halves T and doubles C
        n0, k0 = (x.shape[2] // 2, 1) if fold else (x.shape[2], w.shape[2])
        cin, cout = x.shape[1] * (2 if fold else 1), w.shape[0]
        per_channel = x.shape[0] * math.prod(x.shape[3:]) * k0 * math.prod(w.shape[3:]) * 8
        monkeypatch.setattr(T, "_CONV_COLS_BYTE_LIMIT", per_channel * max(cin, cout))
        live, _, builds = self._track_columns(monkeypatch)
        out, want = self._conv(x, w, b)
        assert len(builds) == n0 == out.shape[2]
        g = _grads_for(out, 31)
        assert [shape[1:3] for shape, _ in builds] == [(cin, k0)] * n0 + [(cin, n0 + k0 - 1)] + [(cout, k0)] * n0
        slabs = builds[:n0] + builds[n0 + 1:]
        assert all(alive <= T._CONV_COLS_BYTE_LIMIT for _, alive in slabs)
        assert live[0] == 0
        assert np.max(np.abs(out.data - want)) < 1e-10
        as3d = (lambda a: a) if fold else (lambda a: a[:, :, None])
        geometry = ((2, 1, 1), (0, 1, 1)) if fold else ((1, 1, 1), (0, 1, 1))
        grads = conv3d_grad_loops(as3d(x.data), as3d(w.data), as3d(g), *geometry)
        for t, want_grad in zip((x, w, b), grads):
            assert np.max(np.abs(t.grad - want_grad.reshape(t.shape))) < 1e-10

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["conv3d", "conv3d-5x5", "conv2d"])
    def test_parts_hold_at_most_the_limit(self, case, dtype, cpus, monkeypatch, fresh_pool):
        """With every product split (thresholds at 0 and 1) and the limit at
        one output index's columns per part, the parts build their columns
        one index at a time: never more than the limit alive, the one-buffer
        bits for conv3d and conv2d and the oracle's tolerance for 5x5."""
        monkeypatch.setattr(T, "_GEMM_SPLIT_MIN_MACS", 0)
        monkeypatch.setattr(T, "_VIEW_GEMM_MIN_MACS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        with T.no_grad():
            whole, want = self._run(case, dtype)
        assert T._cpu_pool is None
        xs, ws = self.CASES[case][:2]
        per_index = xs[0] * math.prod(whole.shape[3:]) * math.prod(ws[1:]) * np.dtype(dtype).itemsize
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(T, "_CONV_COLS_BYTE_LIMIT", cpus * per_index)
        live, threads, _ = self._track_columns(monkeypatch)
        with T.no_grad():
            parts, _ = self._run(case, dtype)
        assert (len(threads) > 1) == T._exact_cut(ws[0], dtype)
        assert live[0] == 0 and per_index <= live[1] <= T._CONV_COLS_BYTE_LIMIT
        if case == "conv3d-5x5":
            assert np.max(np.abs(parts.data - want)) < (1e-4 if dtype == np.float32 else 1e-10)
        else:
            assert parts.data.tobytes() == whole.data.tobytes()


def _as_accumulated(g):
    """What ``backward`` stores for a first gradient g."""
    return np.zeros_like(g) + g


def _grads_for(out, seed):
    """Back-propagate sum(out * G) for a seeded G of out's shape."""
    G = T.from_array(rng(seed).standard_normal(out.shape), dtype=out.dtype)
    T.backward(T.tsum(T.mul(out, G)))
    return G.data


def _row_major_cols(xp, kernel):
    """im2col in the (B, N, C*prod(kernel)) layout, one as_strided copy."""
    B, C = xp.shape[:2]
    out = tuple(n - k + 1 for n, k in zip(xp.shape[2:], kernel))
    view = np.lib.stride_tricks.as_strided(
        xp, (B,) + out + (C,) + tuple(kernel), xp.strides[:1] + xp.strides[2:] + xp.strides[1:2] + xp.strides[2:]
    )
    return np.ascontiguousarray(view.reshape(B, math.prod(out), C * math.prod(kernel))), out


def _row_major_conv(x, w, b, g):
    """Output and x/w/b gradients of a same-padded correlation built on
    row-major columns, for output gradient g; the reference for the
    tap-major layout."""
    nd = x.ndim - 2
    Cout = w.shape[0]
    pads = ((0, 0), (0, 0)) + tuple(((k - 1) // 2,) * 2 for k in w.shape[2:])
    spatial = tuple(range(2, nd + 2))

    def correlate(xp, wk):
        cols, out = _row_major_cols(xp, wk.shape[2:])
        y = cols @ wk.reshape(wk.shape[0], -1).T
        return y.transpose(0, 2, 1).reshape((xp.shape[0], wk.shape[0]) + out), cols

    y, cols = correlate(np.pad(x, pads), w)
    y = y + b.reshape((1, Cout) + (1,) * nd)
    g2 = np.moveaxis(g, 1, -1).reshape(-1, Cout)
    gw = (g2.T @ cols.reshape(g2.shape[0], -1)).reshape(w.shape)
    w_rot = np.ascontiguousarray(np.flip(w, axis=spatial).swapaxes(0, 1))
    gx, _ = correlate(np.pad(g, pads), w_rot)
    return y, gx, gw, g.sum(axis=(0,) + spatial)


def _row_major_frame_pair_conv(x, w, b, g):
    """``_row_major_conv`` of x (B, C, T, H, W) and w (Cout, C, 2, 3, 3)
    folded as ``FramePairConv3d`` folds them, with the x and w gradients
    unfolded."""
    B, C, T_, H, W = x.shape
    xf = x.reshape(B, C, T_ // 2, 2, H, W).swapaxes(2, 3).reshape(B, 2 * C, T_ // 2, H, W)
    y, gxf, gwf, gb = _row_major_conv(xf, w.reshape(w.shape[0], 2 * C, 1, 3, 3), b, g)
    gx = gxf.reshape(B, C, 2, T_ // 2, H, W).swapaxes(2, 3).reshape(x.shape)
    return y, gx, gwf.reshape(w.shape), gb


class TestConvColumns:
    """Tap-major columns give the bits of row-major columns: the output and
    the x/w/b gradients are bitwise equal to ``_row_major_conv``.  The
    "large" cases reach ``_VIEW_GEMM_MIN_MACS`` per forward product, so the
    forward GEMM multiplies the transposed view, except in the one-output-
    channel case; the small cases multiply a contiguous copy.  The weight
    gradient's product has B times the rows of one item's forward product:
    in "batched-wgrad-view" only that product is large.  With B > 1 its
    operands are copies of the output gradient and of the columns, not
    views.  "3d-strided" runs ``FramePairConv3d``, against the reference on
    its folded operands."""

    CASES = {
        "1x1": ((2, 6, 8, 8), (5, 6, 1, 1)),
        "1x1-large": ((1, 64, 40, 40), (64, 64, 1, 1)),
        "padded-large": ((1, 16, 32, 32), (16, 16, 3, 3)),
        "one-column-large": ((1, 64, 64, 64), (1, 64, 3, 3)),
        "3d-strided": ((1, 2, 8, 8, 8), (3, 2, 2, 3, 3)),
        "3d-large": ((1, 8, 6, 32, 32), (8, 8, 3, 3, 3)),
        "batched-large": ((2, 16, 32, 32), (16, 16, 3, 3)),
        "batched-wgrad-view": ((2, 16, 24, 24), (16, 16, 3, 3)),
        "3d-batched-large": ((2, 8, 6, 32, 32), (8, 8, 3, 3, 3)),
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", list(CASES))
    def test_bitwise_equal_to_row_major_columns(self, case, dtype):
        xs, ws = self.CASES[case]
        r = rng(40)
        x, w, b = (T.from_array(r.standard_normal(s), True, dtype) for s in (xs, ws, ws[:1]))
        frame_pair = case == "3d-strided"
        conv = _frame_pair_conv if frame_pair else T.conv3d if len(xs) == 5 else T.conv2d
        T.reset_tape()
        y = conv(x, w, b)
        macs = math.prod(y.shape[2:]) * math.prod(ws[1:]) * ws[0]
        assert (macs >= T._VIEW_GEMM_MIN_MACS) == ("large" in case)
        assert (xs[0] * macs >= T._VIEW_GEMM_MIN_MACS) == ("large" in case or "wgrad-view" in case)
        g = _grads_for(y, 41)
        want = (_row_major_frame_pair_conv if frame_pair else _row_major_conv)(x.data, w.data, b.data, g)
        for got, ref in zip((y.data, x.grad, w.grad, b.grad), want):
            ref = ref if got is y.data else _as_accumulated(ref)
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
        with T.no_grad():
            assert conv(x, w, b).data.tobytes() == y.data.tobytes()

    def test_unit_kernel_columns_are_the_padded_input(self):
        xp = rng(42).standard_normal((2, 3, 5, 4))
        cols, out = T._im2col(xp, (1, 1))
        assert out == (5, 4) and cols.shape == (2, 3, 20)
        assert np.shares_memory(cols, xp)

    def test_columns_are_tap_major(self):
        xp = rng(43).standard_normal((1, 2, 4, 5))
        cols, out = T._im2col(xp, (3, 3))
        assert out == (2, 3) and cols.shape == (1, 18, 6) and cols.flags.c_contiguous
        # row c*9 + 3*i + j holds channel c shifted by tap (i, j)
        assert np.array_equal(cols[0, 9 + 3 * 2 + 1], xp[0, 1, 2:4, 1:4].reshape(-1))


@pytest.fixture
def fresh_pool(monkeypatch):
    """Start the test with no GELU pool; shut down any it creates."""
    monkeypatch.setattr(T, "_cpu_pool", None)
    yield
    if T._cpu_pool is not None:
        T._cpu_pool.shutdown()


def _operand(r, shape, dtype, transposed=False):
    """A seeded array of `shape`, or the transposed view of a C-ordered one."""
    if transposed:
        return r.standard_normal(shape[:-2] + shape[:-3:-1]).astype(dtype).swapaxes(-1, -2)
    return r.standard_normal(shape).astype(dtype)


class TestGemmSplit:
    """Above ``_GEMM_SPLIT_MIN_MACS`` a product runs one part per CPU along
    its batch, rows or columns, and is bitwise the whole product at one
    BLAS thread, the count radarkit's first product sets."""

    CASES = {
        # fc1 of the ref trunk: (tokens, C) @ (C, 20 C)
        "rows-fc1": ((2048, 64), False, (64, 1280), False),
        # conv weight gradient (Cout, B*N) @ (B*N, C*k): views of g and columns
        "columns-wgrad": ((64, 1024), True, (1024, 576), True),
        # attention scores (Bw, m, N, S) @ (Bw, m, S, N), and one key block
        # broadcast over the windows
        "batch-attention": ((200, 4, 49, 16), False, (200, 4, 16, 49), True),
        "batch-broadcast": ((200, 4, 49, 16), False, (1, 4, 16, 49), False),
    }

    @staticmethod
    def _record_parts(monkeypatch):
        """Log the (macs, extent, ranges) of every `_split` call."""
        log, real = [], T._split

        def recording(macs, extent, align=1):
            ranges = real(macs, extent, align)
            log.append((macs, extent, ranges))
            return ranges

        monkeypatch.setattr(T, "_split", recording)
        return log

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", list(CASES))
    def test_bitwise_equal_to_whole_product(self, case, dtype, cpus, monkeypatch, fresh_pool):
        a_shape, a_t, b_shape, b_t = self.CASES[case]
        r = rng(60)
        a, b = _operand(r, a_shape, dtype, a_t), _operand(r, b_shape, dtype, b_t)
        assert T._one_blas_thread()
        want = a @ b
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        log = self._record_parts(monkeypatch)
        got = T._gemm(a, b)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        [(macs, extent, ranges)] = log
        assert macs >= T._GEMM_SPLIT_MIN_MACS and len(ranges) == cpus
        assert extent == {"rows": a_shape[-2], "columns": b_shape[-1], "batch": a_shape[0]}[case.split("-")[0]]
        for lo, hi in ranges:
            assert (hi - lo) * macs >= extent * T._VIEW_GEMM_MIN_MACS
            assert hi - lo >= (1 if case.startswith("batch") else 2)

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", list(CASES))
    def test_bias_in_parts_bitwise_equal_to_whole(self, case, dtype, cpus, monkeypatch, fresh_pool):
        """Each part adds its slice of the bias to its own output: the bits
        of ``a @ b + bias`` on one thread."""
        a_shape, a_t, b_shape, b_t = self.CASES[case]
        r = rng(66)
        a, b = _operand(r, a_shape, dtype, a_t), _operand(r, b_shape, dtype, b_t)
        bias = r.standard_normal(b_shape[-1]).astype(dtype)
        assert T._one_blas_thread()
        want = a @ b + bias
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        log = self._record_parts(monkeypatch)
        got = T._gemm(a, b, bias)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        [(_, _, ranges)] = log
        assert len(ranges) == cpus

    def test_parts_keep_the_small_matrix_minimum(self, monkeypatch, fresh_pool):
        """With 16 CPUs a 2**24 multiply-add product runs in 8 parts, not 16:
        each keeps ``_VIEW_GEMM_MIN_MACS`` (2**21)."""
        r = rng(65)
        a, b = _operand(r, (1024, 64), np.float32), _operand(r, (64, 256), np.float32)
        want = a @ b
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)))
        log = self._record_parts(monkeypatch)
        assert T._gemm(a, b).tobytes() == want.tobytes()
        [(macs, extent, ranges)] = log
        assert macs == T._GEMM_SPLIT_MIN_MACS == 8 * T._VIEW_GEMM_MIN_MACS
        assert ranges == [(lo, lo + 128) for lo in range(0, 1024, 128)]

    def test_f64_product_with_an_edge_tile_runs_whole(self, monkeypatch, fresh_pool):
        """A one-product f64 GEMM with 72 columns (8 input channels times a
        3x3 kernel) is not cut: `_exact_cut`; its f32 twin is."""
        r = rng(61)
        for dtype, split in ((np.float64, False), (np.float32, True)):
            a, b = _operand(r, (16, 32768), dtype), _operand(r, (32768, 72), dtype, True)
            assert T._gemm(a, b).tobytes() == (a @ b).tobytes()
            assert (T._cpu_pool is not None) == split

    def test_small_product_creates_no_pool(self, fresh_pool):
        r = rng(62)
        a, b = _operand(r, (1225, 64), np.float32), _operand(r, (64, 64), np.float32)
        assert 1225 * 64 * 64 < T._GEMM_SPLIT_MIN_MACS
        assert T._gemm(a, b).tobytes() == (a @ b).tobytes()
        assert T._cpu_pool is None

    def test_missing_setter_splits_nothing(self, monkeypatch, fresh_pool):
        """Without numpy's OpenBLAS setter the BLAS threads are left alone,
        and a product of any size runs whole, with no pool."""
        T._one_blas_thread.cache_clear()
        monkeypatch.setattr(T.glob, "glob", lambda pattern: [])
        try:
            r = rng(63)
            a, b = _operand(r, (2048, 64), np.float32), _operand(r, (64, 1280), np.float32)
            assert T._gemm(a, b).tobytes() == (a @ b).tobytes()
            assert not T._one_blas_thread()
            assert T._cpu_pool is None
        finally:
            T._one_blas_thread.cache_clear()


class TestRunParts:
    """`_run_parts` runs the first part on the calling thread and the rest on
    the pool, and raises only after every part has finished."""

    def test_caller_runs_the_first_part(self, monkeypatch, fresh_pool):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))
        results = T._run_parts(lambda i: (i, threading.current_thread()), [(0,), (1,), (2,)])
        assert [i for i, _ in results] == [0, 1, 2]
        threads = [thread for _, thread in results]
        assert threads[0] is threading.current_thread()
        assert threading.current_thread() not in (threads[1], threads[2])

    def test_one_part_creates_no_pool(self, fresh_pool):
        assert T._run_parts(lambda i: i + 1, [(0,)]) == [1] and T._cpu_pool is None

    @pytest.mark.parametrize("failing", [0, 1])
    def test_raises_after_every_part_finished(self, failing, monkeypatch, fresh_pool):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))
        finished = []

        def part(i):
            if i == failing:
                raise ValueError(f"part {i}")
            time.sleep(0.2)
            finished.append(i)

        with pytest.raises(ValueError, match=f"part {failing}"):
            T._run_parts(part, [(0,), (1,), (2,)])
        assert sorted(finished) == [i for i in range(3) if i != failing]

    @pytest.mark.parametrize("op", ["conv", "conv-backward", "gelu", "matmul", "render"])
    def test_no_part_submits_to_the_pool(self, op, monkeypatch, fresh_pool):
        """Only the calling thread asks for the pool; a part that split its
        work again could wait on a task that never starts."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)))
        callers, real = [], T._pool

        def pool():
            callers.append(threading.current_thread())
            return real()

        monkeypatch.setattr(T, "_pool", pool)
        r = rng(64)
        f32 = lambda shape, grad=False: T.from_array(r.standard_normal(shape), grad, np.float32)
        if op.startswith("conv"):
            x, w = f32((1, 16, 128, 128), op == "conv-backward"), f32((32, 16, 3, 3))
            if op == "conv":
                with T.no_grad():
                    T.conv2d(x, w)
            else:
                T.reset_tape()
                y = T.conv2d(x, w)
                callers.clear()  # the backward must ask for the pool itself
                T.backward(T.tsum(y))
                assert x.grad.shape == x.shape
        elif op == "gelu":
            T.gelu(f32(T._GELU_SPLIT_MIN + 1))
        elif op == "matmul":
            a, b = (T.from_array(_operand(r, s, np.float32), dtype=np.float32) for s in ((2048, 64), (64, 1280)))
            T.matmul(a, b)
        else:
            cfg = SynthConfig(height=32, width=32, frames=4, noise_sigma=0.05)
            render_ramap(generate_scene(1, "CR", cfg), cfg)
        assert callers and set(callers) == {threading.current_thread()}


class TestBlasThreads:
    """The ops whose bits followed the OpenBLAS thread count give the same
    bits at one and at two threads: radarkit runs numpy's OpenBLAS at one
    thread from its first product on."""

    def test_hashes_equal_at_one_and_two_threads(self):
        script = Path(__file__).with_name("blas_thread_hashes.py")
        src = str(Path(__file__).parents[1] / "src")
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
            done = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            outs.append(done.stdout)
        assert len(outs[0].splitlines()) == 3
        assert outs[0] == outs[1]


def _gelu_reference(x, g):
    """The exact erf GELU and its input gradient for output gradient g."""
    dt = x.dtype
    phi = erf(x * dt.type(1.0 / np.sqrt(2.0)))
    phi += 1.0
    phi *= 0.5
    pdf = dt.type(1.0 / np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * x * x)
    return x * phi, _as_accumulated(g * (phi + x * pdf))


class TestGeluSplit:
    """Above ``_GELU_SPLIT_MIN`` elements gelu runs one chunk per CPU on a
    thread pool; forward and gradient bits do not depend on the split."""

    def _run(self, n, dtype):
        x = T.from_array(rng(n).standard_normal(n) * 3.0, True, dtype)
        T.reset_tape()
        y = T.gelu(x)
        g = _grads_for(y, 44)
        want_y, want_gx = _gelu_reference(x.data, g)
        assert y.data.tobytes() == want_y.tobytes()
        assert x.grad.dtype == want_gx.dtype and x.grad.tobytes() == want_gx.tobytes()
        return y.data, x.grad

    # 3 chunks do not divide 2**20 + 1 elements
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_split_matches_reference(self, extra, dtype, cpus, monkeypatch, fresh_pool):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        self._run(T._GELU_SPLIT_MIN + extra, dtype)
        assert (T._cpu_pool is not None) == (extra > 0 and cpus > 1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_split_equals_inline(self, dtype, monkeypatch, fresh_pool):
        n = 3001
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(7)))
        inline = self._run(n, dtype)
        assert T._cpu_pool is None
        monkeypatch.setattr(T, "_GELU_SPLIT_MIN", 1000)
        split = self._run(n, dtype)
        assert T._cpu_pool is not None
        for a, b in zip(inline, split):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_grad_equals_grad_mode(self, dtype, cpus, monkeypatch, fresh_pool):
        # without a tape gelu allocates its output alone: no CDF, no slope
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        n = T._GELU_SPLIT_MIN + 1
        y, _ = self._run(n, dtype)
        x = T.from_array(rng(n).standard_normal(n) * 3.0, True, dtype)
        with T.no_grad():
            tracemalloc.start()
            try:
                out = T.gelu(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert not out.requires_grad
        assert out.data.tobytes() == y.tobytes()
        assert peak < 1.5 * y.nbytes

    def test_tiny_forward_creates_no_pool(self, fresh_pool):
        model = build_reference("radarformer-tiny", dtype=np.float32)
        model.set_training(False)
        with T.no_grad():
            model(T.uniform((1, 2, 8, 4, 32, 32), 3, dtype=np.float32))
        assert T._cpu_pool is None


class TestGeluGradTolerance:
    """The f32 input gradient of gelu, against the exact f64 gradient of the
    same f32 x and output gradient g: |gx32 - gx64| <= 4 eps32 |g| (1 + |x| pdf(x)).
    The bound is relative to |g| and not to |gx64|: where phi + x*pdf cancels
    (x << 0), the f32 slope that the forward saves adds x*pdf to a phi that
    rounds to 0."""

    @pytest.mark.parametrize("seed", range(6))
    def test_f32_within_bound_of_exact_f64(self, seed):
        n = T._GELU_SPLIT_MIN + 1
        r = rng(50 + seed)
        x32 = (r.standard_normal(n) * 3.0).astype(np.float32)
        g32 = r.standard_normal(n).astype(np.float32)
        x = T.from_array(x32, True, np.float32)
        T.reset_tape()
        T.backward(T.tsum(T.mul(T.gelu(x), T.from_array(g32, dtype=np.float32))))
        assert x.grad.dtype == np.float32
        x64, g64 = x32.astype(np.float64), g32.astype(np.float64)
        pdf = np.exp(-0.5 * x64 * x64) / np.sqrt(2.0 * np.pi)
        gx64 = g64 * (0.5 * (1.0 + erf(x64 / np.sqrt(2.0))) + x64 * pdf)
        bound = 4.0 * np.finfo(np.float32).eps * np.abs(g64) * (1.0 + np.abs(x64) * pdf)
        assert np.all(np.abs(x.grad - gx64) <= bound)


class TestMatmulBias:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("a_shape, b_shape", [
        ((5, 4), (4, 3)),
        ((2, 5, 4), (4, 3)),
        ((2, 5, 4), (2, 4, 3)),
    ])
    def test_equals_matmul_then_add_bcast(self, a_shape, b_shape, dtype):
        def run(fused):
            r = rng(45)
            a, b, bias = (T.from_array(r.standard_normal(s), True, dtype)
                          for s in (a_shape, b_shape, b_shape[-1:]))
            T.reset_tape()
            y = T.matmul(a, b, bias=bias) if fused else T.add_bcast(T.matmul(a, b), bias)
            _grads_for(y, 46)
            return y.data, a.grad, b.grad, bias.grad

        for got, want in zip(run(True), run(False)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_bias_shape_and_dtype_checked(self):
        a, b = T.zeros((2, 4)), T.zeros((4, 3))
        with pytest.raises(ShapeError):
            T.matmul(a, b, bias=T.zeros((4,)))
        with pytest.raises(ShapeError):
            T.matmul(a, b, bias=T.zeros((1, 3)))
        with pytest.raises(ShapeError):
            T.matmul(a, b, bias=T.zeros((3,), dtype=np.float32))


class TestDebugChecks:
    @pytest.fixture(autouse=True)
    def checks_on(self):
        T.set_debug_checks(True)
        yield
        T.set_debug_checks(False)

    def test_gelu_named(self):
        with pytest.raises(UsageError, match="^gelu produced non-finite values$"):
            T.gelu(T.from_array(np.array([0.5, np.nan])))

    def test_matmul_named(self):
        a = T.from_array(np.array([[np.inf, 1.0]]))
        with pytest.raises(UsageError, match="^matmul produced non-finite values$"):
            T.matmul(a, T.full((2, 2), 1.0))

    def test_finite_values_pass(self):
        out = T.gelu(T.from_array(np.array([0.5, -2.0])))
        assert np.all(np.isfinite(out.data))

    @pytest.mark.parametrize("entry", ["__call__", "forward_logits"])
    def test_module_path_named(self, entry):
        model = build_reference("radarformer-tiny", dtype=np.float64)
        model.trunk.blocks[0].window_attn.mlp.fc1.w.data[0, 0] = np.nan
        c = model.cfg
        cube = T.uniform((1, 2, c.frames, c.chirps, c.height, c.width), 5)
        want = r"^trunk\.blocks\.0\.window_attn\.mlp\.fc1: matmul produced non-finite values$"
        with pytest.raises(UsageError, match=want):
            getattr(model, entry)(cube)
        T.reset_tape()
        with pytest.raises(UsageError, match="^gelu produced non-finite values$"):
            T.gelu(T.from_array(np.array([np.nan])))

    def test_module_outside_the_tree_named_by_class(self):
        lin = Linear(2, 2, SeedStream(0))
        lin.w.data[0, 0] = np.nan

        class Caller(Module):
            def forward(self, x):
                return lin(x)

        x = T.full((1, 2), 1.0)
        for module in (lin, Caller()):
            with pytest.raises(UsageError, match="^Linear: matmul produced non-finite values$"):
                module(x)


class TestSoftmax:
    def test_uniform_logits(self):
        out = T.softmax(T.from_array(np.array([1.0, 1.0, 1.0, 1.0])), axis=0).data
        assert np.allclose(out, 0.25)

    def test_ln2_case(self):
        out = T.softmax(T.from_array(np.array([0.0, np.log(2.0)])), axis=0).data
        assert abs(out[0] - 1 / 3) < 1e-15
        assert abs(out[1] - 2 / 3) < 1e-15

    @given(st.lists(st.integers(-512, 512), min_size=2, max_size=8),
           st.integers(-512, 512))
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance_bitwise(self, xs, c):
        # sixty-fourths keep every sum exactly representable, so the
        # max-subtracted logits are bit-identical with and without the shift
        x = np.array(xs, dtype=np.float64) / 64.0
        shifted = x + c / 64.0
        a = T.softmax(T.from_array(x), axis=0).data
        b = T.softmax(T.from_array(shifted), axis=0).data
        assert a.tobytes() == b.tobytes()

    @given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_rows_sum_to_one(self, xs):
        x = np.array(xs, dtype=np.float64)
        out = T.softmax(T.from_array(x), axis=0).data
        assert abs(out.sum() - 1.0) < 1e-12

    def test_axis_out_of_bounds(self):
        with pytest.raises(ShapeError):
            T.softmax(T.zeros((2, 2)), axis=5)

    @pytest.mark.parametrize("axis", [-1, 1])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_equal_three_array_formula(self, dtype, axis):
        x = (rng(47).standard_normal((3, 5, 4, 7)) * 4.0).astype(dtype)
        e = np.exp(x - x.max(axis=axis, keepdims=True))
        want = e / e.sum(axis=axis, keepdims=True)
        got = T.softmax(T.from_array(x, dtype=dtype), axis=axis).data
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestNormalize:
    def test_constant_input_zero_before_affine(self):
        x = T.full((2, 5), 3.7)
        g = T.full((5,), 1.0)
        b = T.zeros((5,))
        out = T.normalize(x, g, b, axes=-1, eps=1e-5).data
        assert np.allclose(out, 0.0)

    def test_two_point_case(self):
        x = T.from_array(np.array([[-1.0, 1.0]]))
        g = T.full((2,), 1.0)
        b = T.zeros((2,))
        out = T.normalize(x, g, b, axes=-1, eps=1e-12).data
        assert np.allclose(out, [[-1.0, 1.0]], atol=1e-6)

    def test_group_mean_near_zero(self):
        r = rng(11)
        x = T.from_array(r.standard_normal((4, 16)))
        g = T.full((16,), 1.0)
        b = T.zeros((16,))
        out = T.normalize(x, g, b, axes=-1, eps=1e-9).data
        assert np.max(np.abs(out.mean(axis=-1))) < 1e-7
        assert np.max(np.abs(out.var(axis=-1) - 1.0)) < 1e-6

    def test_bad_eps(self):
        with pytest.raises(ConfigError):
            T.normalize(T.zeros((2, 2)), T.full((2,), 1.0), T.zeros((2,)), axes=-1, eps=0.0)


AXIS_OPS = {
    "repeat": lambda x, ax: T.repeat(x, axis=ax, factor=2),
    "normalize": lambda x, ax: T.normalize(x, T.full((1,), 2.0), T.full((1,), 0.5), axes=ax, eps=1e-5),
    "softmax": lambda x, ax: T.softmax(x, axis=ax),
}


@pytest.mark.parametrize("op", sorted(AXIS_OPS))
class TestAxisChecks:
    @pytest.mark.parametrize("axis", [4, 7, 9, -5])
    def test_axis_outside_rank_rejected(self, op, axis):
        with pytest.raises(ShapeError, match="out of bounds for rank 4"):
            AXIS_OPS[op](T.zeros((2, 3, 4, 5)), axis)

    def test_negative_axis_counts_from_end(self, op):
        x = T.uniform((2, 3, 4, 5), 41)
        assert AXIS_OPS[op](x, -3).data.tobytes() == AXIS_OPS[op](x, 1).data.tobytes()


def test_normalize_repeated_axis_rejected():
    x, g, b = T.zeros((2, 3, 4, 5)), T.full((1, 3, 1, 1), 1.0), T.zeros((1, 3, 1, 1))
    with pytest.raises(ShapeError, match=r"axes \(1, -3\) name the same axis twice"):
        T.normalize(x, g, b, axes=(1, -3), eps=1e-5)


class TestActivations:
    def test_relu_values(self):
        out = T.relu(T.from_array(np.array([-2.0, 3.0]))).data
        assert np.array_equal(out, [0.0, 3.0])

    def test_sigmoid_zero(self):
        assert T.sigmoid(T.from_array(np.array(0.0))).item() == 0.5

    def test_sigmoid_open_interval(self):
        out = T.sigmoid(T.from_array(np.array([-1e4, 0.0, 1e4]))).data
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_gelu_vs_erf_oracle(self):
        import mpmath

        xs = np.linspace(-6, 6, 100)
        got = T.gelu(T.from_array(xs)).data
        want = np.array(
            [float(0.5 * mpmath.mpf(x) * (1 + mpmath.erf(mpmath.mpf(x) / mpmath.sqrt(2)))) for x in xs]
        )
        assert np.max(np.abs(got - want)) < 1e-7


class TestEwise:
    def test_additive_identity(self):
        a = T.uniform((3, 4), 12)
        out = T.add(a, T.zeros((3, 4)))
        assert np.array_equal(out.data, a.data)

    def test_multiplicative_identity(self):
        a = T.uniform((3, 4), 13)
        out = T.mul(a, T.full((3, 4), 1.0))
        assert np.array_equal(out.data, a.data)

    def test_add_vs_loop(self):
        r = rng(14)
        a, b = r.standard_normal((2, 3)), r.standard_normal((2, 3))
        got = T.add(T.from_array(a), T.from_array(b)).data
        want = np.array([[a[i, j] + b[i, j] for j in range(3)] for i in range(2)])
        assert np.max(np.abs(got - want)) < 1e-15

    def test_no_broadcasting(self):
        with pytest.raises(ShapeError):
            T.add(T.zeros((2, 3)), T.zeros((3,)))
        with pytest.raises(ShapeError):
            T.mul(T.zeros((2, 3)), T.zeros((2, 1)))


class TestDataMovement:
    def test_reshape_round_trip(self):
        a = T.uniform((2, 3), 15)
        back = T.reshape(T.reshape(a, (3, 2)), (2, 3))
        assert back.data.tobytes() == a.data.tobytes()

    def test_reshape_count_mismatch(self):
        with pytest.raises(ShapeError):
            T.reshape(T.zeros((2, 3)), (4, 2))

    def test_pad_then_crop_identity(self):
        a = T.uniform((1, 2, 4, 4), 16)
        padded = T.pad(a, [(0, 0), (0, 0), (1, 1), (1, 1)])
        assert padded.shape == (1, 2, 6, 6)
        back = T.crop(padded, [(0, 1), (0, 2), (1, 5), (1, 5)])
        assert back.data.tobytes() == a.data.tobytes()

    def test_permute_is_contiguous(self):
        a = T.uniform((2, 3, 4), 17)
        p = T.permute(a, (2, 0, 1))
        assert p.data.flags["C_CONTIGUOUS"]
        assert p.shape == (4, 2, 3)

    def test_repeat_axis(self):
        a = T.from_array(np.array([[1.0, 2.0]]))
        out = T.repeat(a, axis=1, factor=3)
        assert np.array_equal(out.data, [[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]])


class TestPartitions:
    def test_window_shape(self):
        x = T.uniform((1, 4, 8, 8), 18)
        tok = T.window_partition(x, 4)
        assert tok.shape == (4, 16, 4)

    def test_window_degenerate_single_window(self):
        x = T.from_array(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4))
        tok = T.window_partition(x, 4)
        assert tok.shape == (1, 16, 1)
        assert np.array_equal(tok.data[0, :, 0], np.arange(16))

    def test_grid_hand_case(self):
        x = T.from_array(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4))
        tok = T.grid_partition(x, 2)
        assert tok.shape == (4, 4, 1)
        assert np.array_equal(tok.data[0, :, 0], [0.0, 2.0, 8.0, 10.0])

    def test_grid_degenerate_flatten(self):
        x = T.from_array(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4))
        tok = T.grid_partition(x, 1)
        assert tok.shape == (16, 1, 1)

    @pytest.mark.parametrize("hw", [4, 7, 8, 16, 32])
    @pytest.mark.parametrize("p", [1, 2, 4, 7, 8])
    def test_window_round_trip_lattice(self, hw, p):
        x = T.uniform((2, 3, hw, hw), 1000 + hw * 10 + p)
        tok = T.window_partition(x, p)
        back = T.window_reverse(tok, p, 2, 3, hw, hw)
        assert back.data.tobytes() == x.data.tobytes()

    @pytest.mark.parametrize("hw", [4, 7, 8, 16, 32])
    @pytest.mark.parametrize("g", [1, 2, 4, 7, 8])
    def test_grid_round_trip_lattice(self, hw, g):
        x = T.uniform((2, 3, hw, hw), 2000 + hw * 10 + g)
        tok = T.grid_partition(x, g)
        back = T.grid_reverse(tok, g, 2, 3, hw, hw)
        assert back.data.tobytes() == x.data.tobytes()

    @given(st.integers(3, 20), st.integers(3, 20), st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, h, w, p):
        x = T.uniform((1, 2, h, w), h * 391 + w * 17 + p)
        wtok = T.window_partition(x, p)
        assert T.window_reverse(wtok, p, 1, 2, h, w).data.tobytes() == x.data.tobytes()
        gtok = T.grid_partition(x, p)
        assert T.grid_reverse(gtok, p, 1, 2, h, w).data.tobytes() == x.data.tobytes()

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ConfigError):
            T.window_partition(T.zeros((1, 1, 4, 4)), 0)
        with pytest.raises(ConfigError):
            T.grid_partition(T.zeros((1, 1, 4, 4)), -2)
        for reverse in (T.window_reverse, T.grid_reverse):
            for size in (0, -2):
                with pytest.raises(ConfigError):
                    reverse(T.zeros((4, 4, 1)), size, 1, 1, 4, 4)


class TestPrecisionModes:
    def test_float32_mode(self):
        with T.using_dtype(np.float32):
            a = T.uniform((3, 3), 19)
            assert a.dtype == np.float32
            out = T.matmul(a, a)
            assert out.dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.int32, np.float16])
    def test_non_float_dtype_rejected(self, dtype):
        makers = (
            lambda: T.zeros((2,), dtype=dtype),
            lambda: T.from_array(np.ones(2), dtype=dtype),
            lambda: T.uniform((2,), 0, dtype=dtype),
            lambda: T.using_dtype(dtype),
        )
        for make in makers:
            with pytest.raises(ConfigError, match=np.dtype(dtype).name):
                make()
        assert T.default_dtype() is np.float64

    def test_mixed_dtype_rejected(self):
        a = T.uniform((2, 2), 20)
        with T.using_dtype(np.float32):
            b = T.uniform((2, 2), 21)
        with pytest.raises(ShapeError):
            T.add(a, b)

    def test_determinism_same_seed(self):
        def run():
            x = T.uniform((2, 3, 8, 8), 5)
            w = T.uniform((4, 3, 3, 3), 6)
            return T.conv2d(x, w).data.tobytes()

        assert run() == run()
