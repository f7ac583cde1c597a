"""Closed-form parameter/MAC counts against instrumented loop oracles."""

import numpy as np
import pytest

from radarkit import tensor as T
from radarkit.errors import ShapeError
from radarkit.layers import Conv2d, FramePairConv3d, Linear, Mlp, MultiheadSelfAttention, SeedStream
from radarkit.models import REFERENCE_NAMES, Hourglass3d, ModelConfig, build_model, build_reference
from radarkit.profiler import count_macs, count_params, profile_layers

from oracles import MacCounter, conv2d_loops, conv3d_loops, matmul_loops, msa_loops


class TestParamCounts:
    def test_conv2d_formula(self):
        conv = Conv2d(2, 4, 3, SeedStream(0))
        entries, _ = conv.profile((1, 2, 8, 8))
        assert entries[0][1] == 2 * 4 * 9 + 4 == 76

    def test_linear_formula(self):
        lin = Linear(8, 4, SeedStream(0))
        entries, _ = lin.profile((1, 8))
        assert entries[0][1] == 8 * 4 + 4 == 36

    def test_totals_match_actual_parameter_buffers(self):
        model = build_reference("radarformer-tiny", dtype=np.float32)
        _, total = count_params(model)
        assert total == model.param_count()


class TestMacCounts:
    def test_conv2d_same_pad_formula(self):
        conv = Conv2d(2, 4, 3, SeedStream(0))
        entries, _ = conv.profile((1, 2, 8, 8))
        assert entries[0][2] == 8 * 8 * 4 * (2 * 9) == 4608

    def test_attention_four_terms(self):
        attn = MultiheadSelfAttention(4, 1, SeedStream(0))
        entries, _ = attn.profile((1, 16, 4))
        assert entries[0][2] == 768 + 1024 + 1024 + 256 == 3072

    def test_elementwise_add_is_free(self):
        # adds never appear as profile entries; total MACs of a norm are 0
        from radarkit.layers import LayerNorm

        ln = LayerNorm(8)
        entries, _ = ln.profile((2, 4, 8))
        assert sum(m for _, _, m in entries) == 0

    def test_conv2d_vs_instrumented_counter(self):
        rng = np.random.Generator(np.random.PCG64(0))
        x = rng.standard_normal((2, 3, 6, 6))
        w = rng.standard_normal((4, 3, 3, 3))
        counter = MacCounter()
        conv2d_loops(x, w, None, (1, 1), (1, 1), counter)
        conv = Conv2d(3, 4, 3, SeedStream(0))
        entries, _ = conv.profile((2, 3, 6, 6))
        assert entries[0][2] == counter.macs

    def test_conv3d_vs_instrumented_counter(self):
        rng = np.random.Generator(np.random.PCG64(1))
        x = rng.standard_normal((1, 2, 4, 5, 5))
        w = rng.standard_normal((3, 2, 2, 3, 3))
        counter = MacCounter()
        conv3d_loops(x, w, None, (2, 1, 1), (0, 1, 1), counter)
        conv = FramePairConv3d(2, 3, SeedStream(0))
        entries, out = conv.profile((1, 2, 4, 5, 5))
        assert entries[0][2] == counter.macs and out == (1, 3, 2, 5, 5)

    def test_linear_vs_instrumented_counter(self):
        rng = np.random.Generator(np.random.PCG64(2))
        counter = MacCounter()
        matmul_loops(rng.standard_normal((7, 5)), rng.standard_normal((5, 3)), counter)
        lin = Linear(5, 3, SeedStream(0))
        entries, _ = lin.profile((7, 5))
        assert entries[0][2] == counter.macs

    def test_msa_vs_instrumented_counter(self):
        attn = MultiheadSelfAttention(4, 2, SeedStream(3))
        tok = T.uniform((2, 5, 4), 4)
        counter = MacCounter()
        s = 4
        w, b = attn.qkv.w.data, attn.qkv.b.data
        msa_loops(
            tok.data,
            wq=w[:, :s], wk=w[:, s:2 * s], wv=w[:, 2 * s:],
            bq=b[:s], bk=b[s:2 * s], bv=b[2 * s:],
            wo=attn.out.w.data, bo=attn.out.b.data,
            heads=2, counter=counter,
        )
        entries, _ = attn.profile((2, 5, 4))
        assert entries[0][2] == counter.macs

    def test_mlp_vs_instrumented_counter(self):
        mlp = Mlp(4, 80, SeedStream(5))
        counter = MacCounter()
        rng = np.random.Generator(np.random.PCG64(6))
        x = rng.standard_normal((3, 4))
        h = matmul_loops(x, mlp.fc1.w.data, counter)
        matmul_loops(h, mlp.fc2.w.data, counter)
        entries, _ = mlp.profile((3, 4))
        assert sum(m for _, _, m in entries) == counter.macs

    def test_monotone_in_width(self):
        def totals(width):
            model = build_model(
                ModelConfig(
                    variant="radarformer", frames=4, chirps=2, height=16, width=16,
                    merge_channels=4, stage_widths=(width,), stage_depths=(1,),
                    window_size=4, grid_size=4, heads=2,
                ),
                dtype=np.float32,
            )
            _, p = count_params(model)
            _, m = count_macs(model)
            return p, m

        p8, m8 = totals(8)
        p16, m16 = totals(16)
        assert p16 > p8 and m16 > m8

    def test_counts_are_deterministic(self):
        model = build_reference("radarformer-tiny", dtype=np.float32)
        _, m1 = count_macs(model)
        _, m2 = count_macs(model)
        assert m1 == m2


REFERENCE_COUNTS = {
    "radarformer-ref": (6_354_419, 112_959_197_184),
    "cnn2d-ref": (2_595_331, 49_745_494_016),
    "transformer2d-ref": (21_880_115, 10_997_465_088),
    "radarformer-tiny": (69_523, 94_699_520),
    "hourglass3d-ref": (65_598_563, 4_337_027_776_512),
}


@pytest.mark.parametrize("name", REFERENCE_NAMES)
class TestReferenceProfiles:
    def test_counts_at_default_shape(self, name):
        model = build_reference(name, dtype=np.float32)
        assert (count_params(model)[1], count_macs(model)[1]) == REFERENCE_COUNTS[name]

    def test_entries_named_by_module_path(self, name):
        model = build_reference(name, dtype=np.float32)
        names = [layer.name for layer in profile_layers(model)]
        assert len(names) == len(set(names))
        assert set(names) <= {p for p, _ in model.named_modules()} | {n for n, _ in model.named_params()}


class TestProfileShapes:
    @pytest.mark.parametrize("name, shape", [
        ("radarformer-tiny", (1, 2, 16, 4, 32, 32)),
        ("radarformer-tiny", (1, 2, 8, 3, 32, 32)),
        ("radarformer-tiny", (1, 3, 8, 4, 32, 32)),
        ("radarformer-tiny", (1, 2, 8, 4, 32)),
        ("hourglass3d-small", (1, 2, 8, 3, 32, 32)),
        ("hourglass3d-small", (1, 3, 8, 4, 32, 32)),
        ("hourglass3d-small", (1, 2, 8, 4, 32)),
        ("hourglass3d-small", (1, 2, 8, 4, 31, 31)),
    ])
    def test_cube_rejected_like_forward(self, name, shape):
        if name == "radarformer-tiny":
            model = build_reference(name)
        else:
            model = Hourglass3d(chirps=4, base=4, bottleneck_width=8, bottleneck_depth=2)
        with pytest.raises(ShapeError) as forward:
            model(T.zeros(shape, dtype=np.float32))
        with pytest.raises(ShapeError) as counted:
            count_macs(model, shape)
        assert str(counted.value) == str(forward.value)
