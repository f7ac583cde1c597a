"""Reverse-mode gradient correctness: hand cases plus finite differences."""

import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.special import erf

from radarkit import tensor as T
from radarkit.errors import UsageError
from radarkit.layers import FramePairConv3d, SeedStream
from radarkit.models import build_reference

from oracles import finite_diff_check


def uni(shape, seed, lo=-1.0, hi=1.0):
    return T.uniform(shape, seed, lo, hi, requires_grad=True)


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        x = uni((3, 4), 1)
        T.backward(T.tsum(x))
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_quadratic_gradient(self):
        x = uni((5,), 2)
        T.backward(T.tsum(T.mul(x, x)))
        assert np.allclose(x.grad, 2 * x.data)

    def test_non_scalar_loss_rejected(self):
        x = uni((3,), 3)
        y = T.mul(x, x)
        with pytest.raises(UsageError):
            T.backward(y)

    def test_second_backward_without_new_ops_errors(self):
        x = uni((3,), 4)
        loss = T.tsum(x)
        T.backward(loss)
        with pytest.raises(UsageError):
            T.backward(loss)

    def test_empty_tape_errors(self):
        T.reset_tape()
        with pytest.raises(UsageError):
            T.backward(T.zeros(()))
        loss = T.tsum(T.zeros((2,), requires_grad=True))
        T.reset_tape()
        with pytest.raises(UsageError, match="tape is empty"):
            T.backward(loss)

    def test_grad_accumulates_across_uses(self):
        x = uni((4,), 5)
        T.backward(T.tsum(T.add(x, x)))
        assert np.allclose(x.grad, 2.0)

    def test_no_grad_suppresses_recording(self):
        x = uni((3,), 6)
        with T.no_grad():
            y = T.tsum(x)
        assert not y.requires_grad
        T.reset_tape()

    def test_loss_under_no_grad_rejected_and_tape_kept(self):
        x = uni((3,), 11)
        y = T.tsum(T.mul(x, x))
        with T.no_grad():
            z = T.tsum(T.mul(x, x))
        with pytest.raises(UsageError, match="does not require grad"):
            T.backward(z)
        assert x.grad is None
        T.backward(y)
        assert np.array_equal(x.grad, 2 * x.data)

    def test_failed_backward_cannot_be_replayed(self):
        T.reset_tape()
        x = T.from_array(np.array([1.0, 2.0]), requires_grad=True)
        loss = T.tsum(T.add(T.scale(x, 3.0), x))
        scale_node = T.active_tape().nodes[0]
        original = scale_node.grad_fn
        calls = []

        def fails_once(g):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("injected")
            return original(g)

        scale_node.grad_fn = fails_once
        del scale_node, original
        with pytest.raises(RuntimeError, match="injected"):
            T.backward(loss)
        assert T.active_tape().nodes == []
        with pytest.raises(UsageError, match="already consumed"):
            T.backward(loss)
        assert len(calls) == 1
        x.zero_grad()
        T.backward(T.tsum(T.add(T.scale(x, 3.0), x)))
        assert np.array_equal(x.grad, [4.0, 4.0])

    def test_only_leaves_and_loss_keep_grad(self):
        x = uni((4,), 12)
        w = uni((4,), 13)
        h = T.mul(x, x)
        s = T.scale(x, 3.0)
        hw = T.mul(h, w)
        sw = T.mul(s, w)
        total = T.add(hw, sw)
        loss = T.tsum(total)
        T.backward(loss)
        for t in (h, s, hw, sw, total):
            assert t.grad is None
        assert loss.grad.shape == () and loss.grad == 1.0
        assert np.allclose(x.grad, (2 * x.data + 3.0) * w.data)
        assert np.allclose(w.grad, x.data * x.data + 3.0 * x.data)


class TestBackwardMemory:
    def test_elementwise_chain_frees_as_it_goes(self):
        # keeping each intermediate gradient would add one array per op
        x = uni((1 << 20,), 14)
        y = x
        for _ in range(12):
            y = T.scale(y, 1.01)
        loss = T.tsum(y)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            T.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - held <= 4 * x.data.nbytes

    def test_conv3d_forward_keeps_no_columns(self):
        x = uni((1, 4, 8, 16, 16), 15)
        w = uni((2, 4, 3, 3, 3), 16)
        cols_bytes = 4 * 27 * 8 * 16 * 16 * x.data.itemsize
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = T.conv3d(x, w)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert y.requires_grad
        assert held < cols_bytes
        T.reset_tape()

    def test_conv_backward_keeps_one_columns_buffer(self):
        # the weight gradient multiplies the columns' transposed view; a
        # transposed copy of them would take the peak to twice their bytes
        x = uni((1, 32, 64, 64), 17)
        w = uni((32, 32, 3, 3), 18)
        cols_bytes = 32 * 9 * 64 * 64 * x.data.itemsize
        assert cols_bytes >= 8 * 2**20
        T.reset_tape()
        g = np.ones(T.conv2d(x, w).shape)
        (node,) = T.active_tape().nodes
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            gx, gw = node.grad_fn(g)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
            T.reset_tape()
        assert gx.shape == x.shape and gw.shape == w.shape
        assert peak < 1.5 * cols_bytes

    def test_radarformer_tiny_step(self):
        # keeping every gradient and the im2col columns this step held
        # 103.9 MiB after the forward and peaked at 185.1 MiB in backward;
        # freeing them gave 55.2 and 69.6 MiB, a tape of gradient slots
        # that keeps no op's input or output tensor 40.6 and 54.8 MiB, and
        # gelu keeping its slope instead of its input and CDF 30.2 and 44.5 MiB
        model = build_reference("radarformer-tiny", dtype=np.float64)
        c = model.cfg
        cube = T.uniform((1, 2, c.frames, c.chirps, c.height, c.width), 3)
        rng = np.random.Generator(np.random.PCG64(4))
        targets = rng.uniform(0, 1, (1, c.num_classes, c.frames, c.height, c.width))
        T.reset_tape()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss = T.bce_with_logits(model.forward_logits(cube), targets)
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0] - before
            T.backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert held < 36 * 2**20
        assert peak < 50 * 2**20
        assert all(p.grad is not None for p in model.params())


class TestTapeKeepsOnlyWhatBackwardReads:
    def test_scale_output_dies_under_softmax(self):
        # softmax's backward reads its output, not the scaled scores
        x = uni((4, 6), 20)
        w = T.uniform((4, 6), 21)
        s = T.scale(x, 0.5)
        scores = weakref.ref(s.data)
        y = T.softmax(s, axis=-1)
        del s
        assert scores() is None
        T.backward(T.tsum(T.mul(y, w)))
        want = 0.5 * y.data * (w.data - (w.data * y.data).sum(axis=-1, keepdims=True))
        assert np.allclose(x.grad, want, rtol=1e-12, atol=1e-15)

    def test_gelu_input_dies_under_gelu(self):
        # gelu's backward reads one saved array, its slope phi(x) + x*pdf(x)
        x = uni((3, 50), 24)
        s = T.scale(x, 3.0)
        sd = s.data.copy()
        scaled = weakref.ref(s.data)
        y = T.gelu(s)
        del s
        assert scaled() is None
        saved = [c.cell_contents for c in T.active_tape().nodes[-1].grad_fn.__closure__
                 if isinstance(c.cell_contents, np.ndarray)]
        assert len(saved) == 1 and saved[0].shape == sd.shape
        del saved
        g = T.uniform(y.shape, 25)
        T.backward(T.tsum(T.mul(y, g)))
        pdf = np.exp(-0.5 * sd * sd) / np.sqrt(2.0 * np.pi)
        want = 3.0 * g.data * (0.5 * (1.0 + erf(sd / np.sqrt(2.0))) + sd * pdf)
        assert np.allclose(x.grad, want, rtol=1e-12, atol=1e-15)

    def test_crop_output_dies_under_permute(self):
        x = uni((2, 5, 6), 22)
        c = T.crop(x, [(0, 2), (1, 4), (0, 6)])
        cropped = weakref.ref(c.data)
        p = T.permute(c, (2, 0, 1))
        del c
        assert cropped() is None
        T.backward(T.tsum(T.mul(p, p)))
        want = np.zeros(x.shape)
        want[:, 1:4] = 2 * x.data[:, 1:4]
        assert np.array_equal(x.grad, want)

    def test_leaf_loss_gets_unit_grad(self):
        x = uni((3,), 23)
        T.tsum(x)
        loss = T.zeros((), requires_grad=True)
        T.backward(loss)
        assert loss.grad.shape == () and loss.grad == 1.0
        assert x.grad is None


class TestFiniteDiffChecker:
    def test_linear_function(self):
        x = uni((6,), 7)
        err = finite_diff_check(lambda t: T.tsum(t), [x])
        assert err < 1e-10

    def test_sigmoid_sum(self):
        x = uni((10,), 8)
        err = finite_diff_check(lambda t: T.tsum(T.sigmoid(t)), [x])
        assert err < 1e-6

    def test_frozen_input_skipped(self):
        x = uni((4,), 9)
        frozen = T.uniform((4,), 10)
        err = finite_diff_check(lambda a, b: T.tsum(T.mul(a, b)), [x, frozen])
        assert err < 1e-8
        assert frozen.grad is None


FD_TOL = 1e-4
SEEDS = [0, 1, 2, 3, 4]


class TestPerOpGradients:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_affine_const(self, seed):
        # the eval-mode BatchNorm op: per-channel constants over (B, H, W)
        x = uni((2, 3, 4, 4), seed)
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(-2.0, 2.0, (1, 3, 1, 1)), rng.uniform(-1.0, 1.0, (1, 3, 1, 1))
        err = finite_diff_check(lambda x: T.tsum(T.sigmoid(T.affine_const(x, a, b))), [x])
        assert err < FD_TOL

    @pytest.mark.parametrize("seed", SEEDS)
    def test_tsum_axis(self, seed):
        x = uni((3, 4, 2), seed)
        err = finite_diff_check(lambda x: T.tsum(T.mul(s := T.tsum(x, axis=1), s)), [x])
        assert err < FD_TOL

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matmul(self, seed):
        a = uni((3, 4), seed)
        b = uni((4, 2), seed + 100)
        err = finite_diff_check(lambda a, b: T.tsum(T.mul(y := T.matmul(a, b), y)), [a, b])
        assert err < FD_TOL

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batched_matmul(self, seed):
        a = uni((2, 3, 4), seed)
        b = uni((4, 5), seed + 100)
        err = finite_diff_check(lambda a, b: T.tsum(T.sigmoid(T.matmul(a, b))), [a, b])
        assert err < FD_TOL

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conv2d(self, seed):
        x = uni((2, 2, 6, 6), seed)
        w = uni((3, 2, 3, 3), seed + 100)
        b = uni((3,), seed + 200)
        err = finite_diff_check(
            lambda x, w, b: T.tsum(T.sigmoid(T.conv2d(x, w, b))), [x, w, b]
        )
        assert err < FD_TOL

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conv3d(self, seed):
        # the frame-pair convolution: stride (2, 1, 1), padding (0, 1, 1)
        x = uni((1, 2, 4, 5, 5), seed)
        conv = FramePairConv3d(2, 2, SeedStream(seed))
        conv.w, conv.b = uni((2, 2, 2, 3, 3), seed + 100), uni((2,), seed + 200)
        err = finite_diff_check(lambda x, w, b: T.tsum(T.sigmoid(conv(x))), [x, conv.w, conv.b])
        assert err < FD_TOL

    @pytest.mark.parametrize("seed", SEEDS)
    def test_softmax(self, seed):
        x = uni((4, 6), seed)
        w = T.uniform((4, 6), seed + 100)
        err = finite_diff_check(
            lambda x: T.tsum(T.mul(T.softmax(x, axis=-1), w)), [x]
        )
        assert err < FD_TOL

    @pytest.mark.parametrize("seed", SEEDS)
    def test_normalize_layer_style(self, seed):
        x = uni((3, 8), seed)
        g = uni((8,), seed + 100, 0.5, 1.5)
        b = uni((8,), seed + 200)
        err = finite_diff_check(
            lambda x, g, b: T.tsum(T.sigmoid(T.normalize(x, g, b, axes=-1, eps=1e-3))), [x, g, b]
        )
        assert err < FD_TOL

    @pytest.mark.parametrize("seed", SEEDS)
    def test_normalize_batch_style(self, seed):
        x = uni((4, 3, 5, 5), seed)
        g = uni((1, 3, 1, 1), seed + 100, 0.5, 1.5)
        b = uni((1, 3, 1, 1), seed + 200)
        err = finite_diff_check(
            lambda x, g, b: T.tsum(T.sigmoid(T.normalize(x, g, b, axes=(0, 2, 3), eps=1e-3))),
            [x, g, b],
        )
        assert err < FD_TOL

    @pytest.mark.parametrize("kind", ["relu", "gelu", "sigmoid"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_activations(self, kind, seed):
        # keep points away from relu's kink where the numeric derivative lies
        x = uni((12,), seed, 0.1, 2.0) if kind == "relu" else uni((12,), seed, -3.0, 3.0)
        err = finite_diff_check(lambda x: T.tsum(getattr(T, kind)(x)), [x])
        assert err < FD_TOL

    @pytest.mark.parametrize("seed", SEEDS)
    def test_ewise(self, seed):
        a = uni((3, 4), seed)
        b = uni((3, 4), seed + 100)
        err = finite_diff_check(lambda a, b: T.tsum(T.mul(T.add(a, b), b)), [a, b])
        assert err < FD_TOL

    @pytest.mark.parametrize("seed", SEEDS)
    def test_reshape_permute_pad_crop(self, seed):
        x = uni((2, 3, 4), seed)
        w = T.uniform((4, 2, 3), seed + 100)

        def f(x):
            y = T.permute(T.reshape(x, (2, 3, 4)), (2, 0, 1))
            y = T.pad(y, [(1, 1), (0, 0), (0, 0)])
            y = T.crop(y, [(1, 5), (0, 2), (0, 3)])
            return T.tsum(T.mul(y, w))

        err = finite_diff_check(f, [x])
        assert err < 1e-6

    @pytest.mark.parametrize("seed", SEEDS)
    def test_repeat(self, seed):
        x = uni((2, 3, 2, 2), seed)
        err = finite_diff_check(
            lambda x: T.tsum(T.sigmoid(T.repeat(x, axis=2, factor=2))), [x]
        )
        assert err < FD_TOL

    @pytest.mark.parametrize("seed", SEEDS)
    def test_window_grid_partitions(self, seed):
        x = uni((1, 2, 6, 6), seed)

        def f(x):
            t = T.window_partition(x, 4)  # exercises the pad path (6 % 4 != 0)
            y = T.window_reverse(t, 4, 1, 2, 6, 6)
            t2 = T.grid_partition(y, 3)
            y2 = T.grid_reverse(t2, 3, 1, 2, 6, 6)
            return T.tsum(T.sigmoid(y2))

        err = finite_diff_check(f, [x])
        assert err < FD_TOL

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bce_with_logits(self, seed):
        x = uni((3, 4), seed, -2, 2)
        t = np.random.Generator(np.random.PCG64(seed + 300)).uniform(0, 1, (3, 4))
        err = finite_diff_check(lambda x: T.bce_with_logits(x, t), [x])
        assert err < FD_TOL

    @pytest.mark.parametrize("seed", SEEDS)
    def test_composite_conv_norm_attention(self, seed):
        # conv -> norm -> single-head attention -> loss, all through one tape
        x = uni((1, 2, 4, 4), seed)
        w = uni((4, 2, 3, 3), seed + 100)
        g = uni((4,), seed + 200, 0.5, 1.5)
        b = uni((4,), seed + 300)
        wq = uni((4, 4), seed + 400)

        def f(x, w, g, b, wq):
            y = T.conv2d(x, w)                       # (1,4,4,4)
            tok = T.window_partition(y, 2)           # (4,4,4)
            tok = T.normalize(tok, g, b, axes=-1, eps=1e-3)
            q = T.matmul(tok, wq)
            a = T.softmax(T.scale(T.matmul(q, T.permute(q, (0, 2, 1))), 0.5), axis=-1)
            out = T.matmul(a, tok)
            return T.tsum(T.sigmoid(out))

        err = finite_diff_check(f, [x, w, g, b, wq])
        assert err < FD_TOL


class TestBceValues:
    def test_matches_direct_formula(self):
        r = np.random.Generator(np.random.PCG64(42))
        z = r.standard_normal((4, 5))
        t = r.uniform(0, 1, (4, 5))
        got = T.bce_with_logits(T.from_array(z), t).item()
        p = 1 / (1 + np.exp(-z))
        want = float(np.mean(-(t * np.log(p) + (1 - t) * np.log(1 - p))))
        assert abs(got - want) < 1e-12

    def test_saturated_logits_finite(self):
        z = T.from_array(np.array([1000.0, -1000.0]), requires_grad=True)
        loss = T.bce_with_logits(z, np.array([1.0, 0.0]))
        assert np.isfinite(loss.item())
        T.backward(loss)
        assert np.all(np.isfinite(z.grad))
