"""Block-level contracts: merge streams, MBConv, attention, ViT pieces."""

import numpy as np
import pytest

from radarkit import tensor as T
from radarkit.errors import ConfigError, ShapeError
from radarkit.layers import (
    BatchNorm2d,
    Conv2d,
    Conv3d,
    FramePairConv3d,
    Linear,
    MBConv,
    MNetMerge,
    MaxVitBlock,
    MultiheadSelfAttention,
    PartitionAttention,
    PatchEmbed,
    SeedStream,
    TemporalDownsample,
    TemporalUpsample,
    VitBlock,
    VitUpsample,
)

from oracles import finite_diff_check, msa_loops


def uni(shape, seed, lo=-1.0, hi=1.0, grad=False):
    return T.uniform(shape, seed, lo, hi, requires_grad=grad)


class TestMNetMerge:
    def test_shape_flow(self):
        merge = MNetMerge(4, 6, SeedStream(0))
        cube = uni((1, 2, 8, 4, 12, 12), 1)
        with T.no_grad():
            out = merge(cube)
        assert out.shape == (1, 6, 8, 12, 12)

    def test_full_resolution_shape(self):
        with T.using_dtype(np.float32), T.no_grad():
            merge = MNetMerge(4, 4, SeedStream(0))
            cube = T.zeros((1, 2, 32, 4, 128, 128))
            out = merge(cube)
        assert out.shape == (1, 4, 32, 128, 128)

    def test_zero_input_gives_bias_response(self):
        merge = MNetMerge(2, 3, SeedStream(3))
        with T.no_grad():
            out = merge(T.zeros((1, 2, 4, 2, 8, 8))).data
        # zero input: first conv output is its bias; interior of the second
        # conv sees a constant image, so the response is computable by hand
        b1 = np.maximum(merge.conv1.b.data, 0.0)
        w2 = merge.conv2.w.data
        expected = np.maximum(w2.sum(axis=(2, 3, 4)) @ b1 + merge.conv2.b.data, 0.0)
        interior = out[0, :, :, 1:-1, 1:-1]
        for c in range(3):
            assert np.allclose(interior[c], expected[c], atol=1e-12)

    def test_chirp_mismatch_rejected(self):
        merge = MNetMerge(4, 6, SeedStream(0))
        with pytest.raises(ShapeError):
            merge(uni((1, 2, 4, 3, 8, 8), 2))

    def test_gradient(self):
        merge = MNetMerge(2, 3, SeedStream(5))
        cube = uni((1, 2, 4, 2, 6, 6), 6, grad=True)
        for p in merge.params():
            p.requires_grad = True
        err = finite_diff_check(lambda c: T.tsum(T.sigmoid(merge(c))), [cube])
        assert err < 1e-4


class TestTemporalStreams:
    def test_downsample_stage_shapes(self):
        down = TemporalDownsample(3, 5, SeedStream(1))
        x = uni((1, 3, 32, 6, 6), 2)
        with T.no_grad():
            y, skips = down(x)
        assert y.shape == (1, 3, 6, 6)
        assert [s.shape[2] for s in skips] == [32, 16, 8, 4, 2]
        assert len(skips) == 5

    def test_non_reducible_length_rejected(self):
        down = TemporalDownsample(3, 3, SeedStream(1))
        with pytest.raises(ShapeError, match=r"temporal extent of \(1, 3, 12, 4, 4\) not reducible by 3"):
            down(uni((1, 3, 12, 4, 4), 3))

    def test_profile_rejects_length_like_forward(self):
        down = TemporalDownsample(3, 2, SeedStream(1))
        with pytest.raises(ShapeError) as forward:
            down(uni((1, 3, 16, 4, 4), 3))
        with pytest.raises(ShapeError) as profiled:
            down.profile((1, 3, 16, 4, 4))
        assert str(profiled.value) == str(forward.value)

    def test_constant_over_time_folds_to_2d(self):
        # with a constant temporal axis and no temporal padding, each stage
        # equals a single-frame convolution with the kernel summed over kt
        down = TemporalDownsample(2, 3, SeedStream(7))
        frame = uni((1, 2, 1, 5, 5), 8)
        x = T.repeat(frame, axis=2, factor=8)
        with T.no_grad():
            got, _ = down(x)
            ref = frame
            for conv in down.convs:
                folded = T.from_array(conv.w.data.sum(axis=2, keepdims=True))
                ref = T.relu(T.conv3d(ref, folded, conv.b))
        b, c, t, h, w = ref.shape
        assert np.max(np.abs(got.data - ref.data.reshape(b, c, h, w))) < 1e-6

    def test_upsample_restores_t_and_uses_skips(self):
        down = TemporalDownsample(3, 4, SeedStream(11))
        up = TemporalUpsample(3, 2, 4, SeedStream(12))
        x = uni((1, 3, 16, 6, 6), 13)
        with T.no_grad():
            y, skips = down(x)
            out = up(y, skips)
            zeroed = [T.zeros(s.shape) for s in skips]
            out_noskip = up(y, zeroed)
        assert out.shape == (1, 2, 16, 6, 6)
        assert not np.allclose(out.data, out_noskip.data)

    def test_gradient_reaches_input_and_skips(self):
        down = TemporalDownsample(2, 2, SeedStream(14))
        up = TemporalUpsample(2, 1, 2, SeedStream(15))
        x = uni((1, 2, 4, 4, 4), 16, grad=True)
        for p in list(down.params()) + list(up.params()):
            p.requires_grad = True
        y, skips = down(x)
        loss = T.tsum(T.sigmoid(up(y, skips)))
        T.backward(loss)
        assert x.grad is not None and np.any(x.grad != 0)
        for p in up.params():
            assert p.grad is not None

    def test_skip_shape_mismatch_rejected(self):
        up = TemporalUpsample(2, 1, 2, SeedStream(17))
        y = uni((1, 2, 4, 4), 18)
        bad = [T.zeros((1, 2, 2, 4, 4)), T.zeros((1, 2, 3, 4, 4))]
        with pytest.raises(ShapeError):
            up(y, bad)

    def test_merge_stream_gradient(self):
        down = TemporalDownsample(2, 2, SeedStream(19))
        up = TemporalUpsample(2, 1, 2, SeedStream(20))
        x = uni((1, 2, 4, 4, 4), 21, grad=True)

        def f(x):
            y, skips = down(x)
            return T.tsum(T.sigmoid(up(y, skips)))

        assert finite_diff_check(f, [x]) < 1e-4


class TestMBConv:
    def test_shape_preserved(self):
        block = MBConv(16, 3, SeedStream(0))
        x = uni((1, 16, 32, 32), 1)
        with T.no_grad():
            assert block(x).shape == (1, 16, 32, 32)

    def test_wide_narrow_wide_widths(self):
        block = MBConv(16, 3, SeedStream(0))
        assert block.conv1.w.shape == (16, 16, 1, 1)
        assert block.conv2.w.shape == (4, 16, 3, 3)
        assert block.conv3.w.shape == (16, 4, 1, 1)

    def test_residual_isolation(self):
        block = MBConv(8, 3, SeedStream(2))
        block.conv3.w.data[:] = 0.0
        block.conv3.b.data[:] = 0.0
        x = uni((2, 8, 6, 6), 3)
        with T.no_grad():
            out = block(x)
            first = block.conv1(x)
        assert np.array_equal(out.data, first.data)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient(self, seed):
        block = MBConv(4, 3, SeedStream(seed))
        block.set_training(True)
        x = uni((1, 4, 5, 5), seed + 50, grad=True)
        err = finite_diff_check(lambda x: T.tsum(T.sigmoid(block(x))), [x])
        assert err < 1e-4


class TestMSA:
    def _oracle_weights(self, attn):
        s = attn.dim
        w = attn.qkv.w.data
        b = attn.qkv.b.data
        return dict(
            wq=w[:, :s], wk=w[:, s:2 * s], wv=w[:, 2 * s:],
            bq=b[:s], bk=b[s:2 * s], bv=b[2 * s:],
            wo=attn.out.w.data, bo=attn.out.b.data,
        )

    def test_single_token(self):
        attn = MultiheadSelfAttention(4, 2, SeedStream(0))
        tok = uni((1, 1, 4), 1)
        with T.no_grad():
            out = attn(tok)
        ww = self._oracle_weights(attn)
        v = tok.data[0] @ ww["wv"] + ww["bv"]
        want = v @ ww["wo"] + ww["bo"]
        assert np.allclose(out.data[0], want, atol=1e-12)

    def test_identical_tokens_identical_rows(self):
        attn = MultiheadSelfAttention(6, 3, SeedStream(2))
        row = T.uniform((6,), 3).data
        tok = T.from_array(np.stack([row, row])[None])
        with T.no_grad():
            out = attn(tok).data
        assert np.allclose(out[0, 0], out[0, 1], atol=1e-14)

    def test_vs_step_by_step_oracle(self):
        attn = MultiheadSelfAttention(4, 2, SeedStream(4))
        tok = uni((2, 3, 4), 5)
        with T.no_grad():
            got = attn(tok).data
        want = msa_loops(tok.data, heads=2, **self._oracle_weights(attn))
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_permutation_equivariance(self, seed):
        attn = MultiheadSelfAttention(8, 2, SeedStream(seed))
        tok = uni((1, 5, 8), seed + 10)
        perm = np.random.Generator(np.random.PCG64(seed)).permutation(5)
        with T.no_grad():
            base = attn(tok).data
            shuffled = attn(T.from_array(tok.data[:, perm])).data
        assert np.allclose(shuffled, base[:, perm], atol=1e-12)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError):
            MultiheadSelfAttention(5, 2, SeedStream(0))

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient(self, seed):
        attn = MultiheadSelfAttention(4, 2, SeedStream(seed))
        tok = uni((1, 3, 4), seed + 20, grad=True)
        for p in attn.params():
            p.requires_grad = True
        err = finite_diff_check(lambda t: T.tsum(T.sigmoid(attn(t))), [tok])
        assert err < 1e-4


class TestMaxVitBlock:
    def test_shape_preserved_full_resolution(self):
        with T.using_dtype(np.float32), T.no_grad():
            block = MaxVitBlock(32, 4, 640, 7, 7, 3, SeedStream(0))
            block.set_training(False)
            x = T.uniform((1, 32, 128, 128), 1)
            out = block(x)
        assert out.shape == (1, 32, 128, 128)

    def test_shape_preserved_non_divisible(self):
        block = MaxVitBlock(8, 2, 160, 7, 7, 3, SeedStream(2))
        block.set_training(False)
        x = uni((1, 8, 30, 26), 3)
        with T.no_grad():
            out = block(x)
        assert out.shape == (1, 8, 30, 26)

    def test_attention_subblocks_reduce_to_identity(self):
        sub = PartitionAttention(4, 2, 80, "grid", 2, SeedStream(4))
        sub.attn.out.w.data[:] = 0.0
        sub.attn.out.b.data[:] = 0.0
        sub.mlp.fc2.w.data[:] = 0.0
        sub.mlp.fc2.b.data[:] = 0.0
        x = uni((1, 4, 6, 6), 5)
        with T.no_grad():
            out = sub(x)
        assert np.array_equal(out.data, x.data)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_tiny(self, seed):
        block = MaxVitBlock(4, 2, 80, 4, 4, 3, SeedStream(seed))
        block.set_training(True)
        x = uni((1, 4, 8, 8), seed + 30, grad=True)
        # spot-check a few parameter tensors along with the input
        block.mbconv.conv1.w.requires_grad = True
        block.window_attn.attn.qkv.w.requires_grad = True
        block.grid_attn.pos.requires_grad = True

        def f(x, *_):
            return T.tsum(T.sigmoid(block(x)))

        err = finite_diff_check(
            f, [x, block.mbconv.conv1.w, block.window_attn.attn.qkv.w, block.grid_attn.pos]
        )
        assert err < 1e-4


class TestPartitionAttention:
    """Partition, add the position embedding, the attention half, reverse to
    channels-last pixels, then the MLP half on the map's pixels alone.  The
    references are composed here from the child modules, so they do not run
    VitBlock's halves, which PartitionAttention shares."""

    @staticmethod
    def attention_half(sub, x):
        """The partition's tokens after the attention half, padding included."""
        window = sub.mode == "window"
        t = (T.window_partition if window else T.grid_partition)(x, sub.size)
        t = T.add_bcast(t, sub.pos)
        return T.add(t, sub.attn(sub.norm1(t)))

    @classmethod
    def composed(cls, sub, x):
        reverse = T.window_reverse if sub.mode == "window" else T.grid_reverse
        m = T.permute(reverse(cls.attention_half(sub, x), sub.size, *x.shape), (0, 2, 3, 1))
        m = T.add(m, sub.mlp(sub.norm2(m)))
        return T.permute(m, (0, 3, 1, 2))

    @classmethod
    def composed_in_partition(cls, sub, x):
        """The MLP half on the partition's tokens, padding included, before the reverse."""
        t = cls.attention_half(sub, x)
        t = T.add(t, sub.mlp(sub.norm2(t)))
        return (T.window_reverse if sub.mode == "window" else T.grid_reverse)(t, sub.size, *x.shape)

    @staticmethod
    def output_and_grads(fn, sub, x, upstream):
        """Fn's output, x's gradient and every parameter gradient, in
        named_params() order."""
        x.zero_grad()
        for p in sub.params():
            p.zero_grad()
        T.reset_tape()
        out = fn(sub, x)
        T.backward(T.tsum(T.mul(out, upstream)))
        return [out.data, x.grad] + [p.grad for _, p in sub.named_params()]

    @staticmethod
    def make(mode, hw, dim=8):
        sub = PartitionAttention(dim, 2, 20 * dim, mode, 4, SeedStream(7))
        sub.pos.data[...] = T.uniform(sub.pos.shape, 8).data
        return sub, uni((2, dim) + hw, 9, grad=True), uni((2, dim) + hw, 10)

    @pytest.mark.parametrize("mode", ["window", "grid"])
    @pytest.mark.parametrize("hw", [(8, 8), (6, 9)])
    def test_bitwise_equal_to_composed_reference(self, mode, hw):
        sub, x, upstream = self.make(mode, hw)
        got = self.output_and_grads(lambda s, t: s(t), sub, x, upstream)
        want = self.output_and_grads(self.composed, sub, x, upstream)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("mode", ["window", "grid"])
    @pytest.mark.parametrize("hw", [(8, 8), (6, 9)])
    def test_mlp_off_the_padding_changes_only_its_gradients_rounding(self, mode, hw):
        """Against the MLP half run on the padded partition (f64): the output
        and every gradient outside norm2 and the MLP are the same bits; the
        norm2 and MLP gradients sum the same terms over fewer tokens, in
        another order.  The width is 16, as in the models: with an output
        width that is not a multiple of 16 OpenBLAS rounds an f64 row
        differently in a product of another row count (``_exact_cut``)."""
        sub, x, upstream = self.make(mode, hw, dim=16)
        got = self.output_and_grads(lambda s, t: s(t), sub, x, upstream)
        want = self.output_and_grads(self.composed_in_partition, sub, x, upstream)
        names = ["out", "x"] + [n for n, _ in sub.named_params()]
        for name, a, b in zip(names, got, want):
            if name.startswith(("norm2.", "mlp.")):
                assert np.max(np.abs(a - b)) <= 1e-12, name
            else:
                assert a.tobytes() == b.tobytes(), name

    def test_mlp_multiplies_the_map_pixels_only(self, monkeypatch):
        """At (6, 9) with size 4 the padded partition holds 2 * 6 * 16 = 192
        tokens (8 x 12), which the attention sees; fc1 multiplies the
        2 * 54 = 108 pixels of the map, and ``profile`` counts the same."""
        sub, x, _ = self.make("window", (6, 9))
        rows = {}
        for name, layer in (("attn.qkv", sub.attn.qkv), ("mlp.fc1", sub.mlp.fc1), ("mlp.fc2", sub.mlp.fc2)):

            def recording(t, name=name, forward=layer.forward):
                rows[name] = int(np.prod(t.shape[:-1]))
                return forward(t)

            monkeypatch.setattr(layer, "forward", recording)
        with T.no_grad():
            assert sub(x).shape == x.shape
        assert rows == {"attn.qkv": 192, "mlp.fc1": 108, "mlp.fc2": 108}
        macs = {name: m for name, _, m in sub.profile(x.shape)[0]}
        assert macs["mlp.fc1"] == macs["mlp.fc2"] == 108 * 8 * 160
        assert macs["attn"] == 2 * 6 * (3 * 16 * 8 * 8 + 2 * 16 * 16 * 8 + 16 * 8 * 8)

    def test_param_names_in_order(self):
        sub = PartitionAttention(8, 2, 160, "grid", 4, SeedStream(0))
        assert [n for n, _ in sub.named_params()] == [
            "pos",
            "norm1.gamma", "norm1.beta",
            "attn.qkv.w", "attn.qkv.b", "attn.out.w", "attn.out.b",
            "norm2.gamma", "norm2.beta",
            "mlp.fc1.w", "mlp.fc1.b", "mlp.fc2.w", "mlp.fc2.b",
        ]

    def test_named_modules_pre_order(self):
        sub = PartitionAttention(8, 2, 160, "window", 4, SeedStream(0))
        assert [(p, type(m).__name__) for p, m in sub.named_modules("blk")] == [
            ("blk", "PartitionAttention"),
            ("blk.norm1", "LayerNorm"),
            ("blk.attn", "MultiheadSelfAttention"),
            ("blk.attn.qkv", "Linear"),
            ("blk.attn.out", "Linear"),
            ("blk.norm2", "LayerNorm"),
            ("blk.mlp", "Mlp"),
            ("blk.mlp.fc1", "Linear"),
            ("blk.mlp.fc2", "Linear"),
        ]

    def test_children_built_like_a_vit_block(self):
        sub = PartitionAttention(8, 2, 160, "window", 4, SeedStream(3))
        block = VitBlock(8, 2, 160, SeedStream(3))
        params = [(n, p.data.tobytes()) for n, p in sub.named_params()]
        assert params[1:] == [(n, p.data.tobytes()) for n, p in block.named_params()]


# each layer's input checks: (call, error, phrase)
LAYER_ERRORS = {
    "msa-width": (lambda: MultiheadSelfAttention(4, 2, SeedStream(0))(T.zeros((1, 3, 6))),
                  ShapeError, r"expected \(B, N, 4\) tokens, got \(1, 3, 6\)"),
    "partition-mode": (lambda: PartitionAttention(4, 2, 8, "diagonal", 2, SeedStream(0)),
                       ConfigError, "unknown partition mode 'diagonal'"),
    "partition-rank": (lambda: PartitionAttention(8, 2, 16, "window", 4, SeedStream(0))(T.zeros((1, 8, 8))),
                       ShapeError, r"window attention expects \(B, 8, H, W\) maps, got \(1, 8, 8\)"),
    "partition-channels": (lambda: PartitionAttention(8, 2, 16, "grid", 2, SeedStream(0))(T.zeros((4, 3, 4, 4))),
                           ShapeError, r"grid attention expects \(B, 8, H, W\) maps, got \(4, 3, 4, 4\)"),
    "patch-embed-resolution": (lambda: PatchEmbed(1, 4, 8, 8, 4, SeedStream(0))(T.zeros((1, 1, 8, 12))),
                               ShapeError, "does not match embed resolution"),
    "vit-upsample-tokens": (lambda: VitUpsample(4, 2, 1, 2, 2, SeedStream(0))(T.zeros((1, 5, 4))),
                            ShapeError, "token count"),
    "temporal-upsample-skips": (lambda: TemporalUpsample(2, 1, 2, SeedStream(0))(T.zeros((1, 2, 4, 4)), []),
                                ShapeError, "expected 2 skip tensors, got 0"),
}


@pytest.mark.parametrize("case", sorted(LAYER_ERRORS))
def test_layer_input_errors(case):
    call, error, phrase = LAYER_ERRORS[case]
    with T.no_grad(), pytest.raises(error, match=phrase):
        call()


# layers that multiply or keep statistics, each with an input shape its
# forward refuses: (make layer, shape, phrase)
PROFILE_LIKE_FORWARD = {
    "batchnorm-channels": (lambda: BatchNorm2d(1), (2, 3, 4, 4), r"BatchNorm2d expects \(B, 1, H, W\)"),
    "batchnorm-rank": (lambda: BatchNorm2d(3), (2, 3, 4), r"maps, got \(2, 3, 4\)"),
    "conv2d-channels": (lambda: Conv2d(3, 4, 3, SeedStream(0)), (1, 5, 8, 8), "channel mismatch"),
    "conv2d-rank": (lambda: Conv2d(3, 4, 3, SeedStream(0)), (1, 3, 8), "rank 4"),
    "conv3d-channels": (lambda: Conv3d(2, 3, (1, 3, 3), SeedStream(0)), (1, 4, 2, 6, 6), "channel mismatch"),
    "conv3d-rank": (lambda: Conv3d(2, 3, (1, 3, 3), SeedStream(0)), (1, 2, 6, 6), "rank 5"),
    "conv3d-extent": (lambda: FramePairConv3d(2, 2, SeedStream(0)), (1, 2, 3, 4, 4), r"with an even T, got \(1, 2, 3"),
    "frame-pair-channels": (lambda: FramePairConv3d(2, 3, SeedStream(0)), (1, 3, 4, 4, 4), "x has 3, w expects 2"),
    "frame-pair-rank": (lambda: FramePairConv3d(2, 3, SeedStream(0)), (1, 2, 4, 4), "with an even T"),
    "linear-width": (lambda: Linear(5, 3, SeedStream(0)), (7, 4), "Linear expects"),
    "linear-width-batched": (lambda: Linear(5, 3, SeedStream(0)), (2, 7, 4), "Linear expects"),
    "linear-rank": (lambda: Linear(5, 3, SeedStream(0)), (5,), "Linear expects"),
    "msa-width": (lambda: MultiheadSelfAttention(4, 2, SeedStream(0)), (2, 5, 6), "tokens"),
    "msa-rank": (lambda: MultiheadSelfAttention(4, 2, SeedStream(0)), (5, 4), "tokens"),
    "patch-embed-resolution": (lambda: PatchEmbed(1, 4, 8, 8, 4, SeedStream(0)), (1, 1, 8, 12), "embed resolution"),
    "patch-embed-channels": (lambda: PatchEmbed(1, 4, 8, 8, 4, SeedStream(0)), (1, 2, 8, 8), "Linear expects"),
    "patch-embed-rank": (lambda: PatchEmbed(1, 4, 8, 8, 4, SeedStream(0)), (1, 8, 8), "embed resolution"),
    "vit-upsample-tokens": (lambda: VitUpsample(4, 2, 1, 2, 2, SeedStream(0)), (1, 5, 4), "token count"),
    "vit-upsample-width": (lambda: VitUpsample(4, 2, 1, 2, 2, SeedStream(0)), (1, 4, 6), "Linear expects"),
    "partition-rank": (lambda: PartitionAttention(8, 2, 16, "window", 4, SeedStream(0)), (1, 8, 8), "maps, got"),
    "partition-channels": (lambda: PartitionAttention(8, 2, 16, "grid", 4, SeedStream(0)), (4, 16, 3, 5),
                           "maps, got"),
}


@pytest.mark.parametrize("case", sorted(PROFILE_LIKE_FORWARD))
def test_profile_refuses_like_forward(case):
    make, shape, phrase = PROFILE_LIKE_FORWARD[case]
    layer = make()
    with T.no_grad(), pytest.raises(ShapeError, match=phrase) as forward:
        layer(T.zeros(shape))
    with pytest.raises(ShapeError) as profiled:
        layer.profile(shape)
    assert str(profiled.value) == str(forward.value)


@pytest.mark.parametrize("shape", [(1, 4, 1, 8, 8), (1, 3, 8, 8)])
def test_temporal_upsample_refuses_like_forward(shape):
    up = TemporalUpsample(4, 3, 2, SeedStream(0))
    skips = [T.zeros((1, 4, 2, 8, 8)), T.zeros((1, 4, 4, 8, 8))]
    with T.no_grad(), pytest.raises(ShapeError, match=r"expects \(B, 4, H, W\) maps") as forward:
        up(T.zeros(shape), skips)
    with pytest.raises(ShapeError) as profiled:
        up.profile(shape)
    assert str(profiled.value) == str(forward.value)


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("shape", [(2, 3, 4, 4), (2, 1, 4), (1, 1, 2, 4, 4)])
def test_batchnorm_refusal_keeps_running_statistics(shape, training):
    bn = BatchNorm2d(1)
    bn.set_training(training)
    bn._buffers["running_mean"][...] = 0.25
    bn._buffers["running_var"][...] = 2.0
    before = {k: (v.shape, v.tobytes()) for k, v in bn._buffers.items()}
    with pytest.raises(ShapeError, match=r"BatchNorm2d expects \(B, 1, H, W\) maps"):
        bn(T.zeros(shape))
    assert {k: (v.shape, v.tobytes()) for k, v in bn._buffers.items()} == before


class TestVitPieces:
    def test_token_count_formula(self):
        embed = PatchEmbed(1, 16, 128, 128, 8, SeedStream(0))
        assert embed.tokens_h * embed.tokens_w == (128 * 128) // 16 ** 2 == 64
        x = uni((1, 1, 128, 128), 1)
        with T.no_grad():
            tok = embed(x)
        assert tok.shape == (1, 64, 8)

    def test_indivisible_patch_rejected(self):
        with pytest.raises(ConfigError):
            PatchEmbed(1, 5, 16, 16, 8, SeedStream(0))

    def test_zero_pos_embed_permutation_equivariance(self):
        embed = PatchEmbed(2, 4, 8, 8, 6, SeedStream(1))
        block = VitBlock(6, 2, 120, SeedStream(2))
        x = uni((1, 2, 8, 8), 3)
        rng = np.random.Generator(np.random.PCG64(4))
        perm = rng.permutation(4)

        def encode(arr):
            tok = embed(T.from_array(arr))
            return block(tok).data

        with T.no_grad():
            base = encode(x.data)
        # permute the 4x4 patch blocks spatially, then rebuild the image
        blocks = x.data.reshape(1, 2, 2, 4, 2, 4).transpose(0, 2, 4, 1, 3, 5).reshape(4, 2, 4, 4)
        shuffled = blocks[perm].reshape(2, 2, 2, 4, 4).transpose(2, 0, 3, 1, 4).reshape(1, 2, 8, 8)
        with T.no_grad():
            got = encode(shuffled)
        assert np.allclose(got[0], base[0][perm], atol=1e-12)

    def test_encode_upsample_round_trip_shape(self):
        embed = PatchEmbed(3, 4, 12, 8, 10, SeedStream(5))
        up = VitUpsample(10, 4, 3, embed.tokens_h, embed.tokens_w, SeedStream(6))
        x = uni((2, 3, 12, 8), 7)
        with T.no_grad():
            out = up(embed(x))
        assert out.shape == (2, 3, 12, 8)

    @pytest.mark.parametrize("seed", range(5))
    def test_vit_block_gradient(self, seed):
        block = VitBlock(4, 2, 80, SeedStream(seed))
        tok = uni((1, 4, 4), seed + 40, grad=True)
        block.attn.qkv.w.requires_grad = True
        block.mlp.fc1.w.requires_grad = True
        err = finite_diff_check(
            lambda t, *_: T.tsum(T.sigmoid(block(t))),
            [tok, block.attn.qkv.w, block.mlp.fc1.w],
        )
        assert err < 1e-4


class TestPrecision:
    @pytest.mark.parametrize("make", [
        lambda: MaxVitBlock(8, 2, 160, 4, 4, 3, SeedStream(4)),
        lambda: PatchEmbed(2, 4, 8, 8, 6, SeedStream(1)),
        lambda: TemporalUpsample(3, 2, 2, SeedStream(12)),
    ])
    def test_f32_build_is_f64_build_rounded(self, make):
        want = make()
        with T.using_dtype(np.float32):
            got = make()
        pairs = list(zip(want.named_params(), got.named_params(), strict=True))
        assert pairs
        for (name64, p64), (name32, p32) in pairs:
            assert name32 == name64 and p64.dtype == np.float64 and p32.dtype == np.float32
            assert p32.data.tobytes() == p64.data.astype(np.float32).tobytes()
