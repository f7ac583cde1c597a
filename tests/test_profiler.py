"""Closed-form parameter/MAC counts against instrumented loop oracles."""

import numpy as np
import pytest

from radarkit import tensor as T
from radarkit.errors import ConfigError, ShapeError
from radarkit.layers import Conv2d, FramePairConv3d, Linear, Mlp, MultiheadSelfAttention, SeedStream
from radarkit.models import REFERENCE_NAMES, Hourglass3d, ModelConfig, build_model, build_reference
from radarkit.profiler import (
    LayerProfile,
    ReportRow,
    compare_report,
    count_macs,
    count_params,
    format_compare_report,
    profile_layers,
    time_backprop,
    time_inference,
    write_compare_report_kv,
)

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


class TestTiming:
    class _MockModel:
        """Advances an injected fake clock by a fixed amount per forward."""

        dtype = np.float32

        def __init__(self, cost_s):
            self.cost_s = cost_s
            self.now = [0.0]

        def set_training(self, mode):
            pass

        def forward(self, x):
            self.now[0] += self.cost_s
            return x

        def clock(self):
            return self.now[0]

    def test_mock_constant_duration(self):
        mock = self._MockModel(0.125)
        res = time_inference(mock, (1, 2, 4, 2, 8, 8), warmup=1, runs=4, clock=mock.clock)
        assert res.mean_ms == pytest.approx(125.0)
        assert res.std_ms == 0.0
        assert res.per_frame_ms == pytest.approx(125.0 / 4)

    def test_stride_normalization(self):
        mock = self._MockModel(0.1)
        res = time_inference(mock, (1, 2, 8, 2, 8, 8), warmup=0, runs=3, stride=2, clock=mock.clock)
        assert res.per_frame_ms == pytest.approx(100.0 / 2)

    def test_std_nonnegative_real_model(self):
        model = build_reference("radarformer-tiny", dtype=np.float32)
        res = time_inference(model, (1, 2, 8, 4, 16, 16), warmup=1, runs=3)
        assert res.std_ms >= 0.0
        assert res.mean_ms > 0.0

    def test_f64_hourglass_timed_in_its_dtype(self):
        model = Hourglass3d(chirps=2, base=4, bottleneck_width=8, bottleneck_depth=1, dtype=np.float64)
        res = time_inference(model, (1, 2, 4, 2, 8, 8), warmup=0, runs=3)
        assert res.mean_ms > 0.0

    def test_too_few_runs_rejected(self):
        with pytest.raises(ConfigError):
            time_inference(self._MockModel(0.1), (1, 2, 4, 2, 8, 8), runs=2)

    @pytest.mark.parametrize("stride", [0, -4])
    def test_nonpositive_stride_rejected(self, stride):
        with pytest.raises(ConfigError, match="stride"):
            time_inference(self._MockModel(0.1), (1, 2, 4, 2, 8, 8), stride=stride)


def model_state(model):
    """Everything timing may change, in a comparable form."""
    return (
        [(p, m.training, {k: v.tobytes() for k, v in m._buffers.items()}) for p, m in model.named_modules()],
        [
            (n, p.requires_grad, None if p.grad is None else p.grad.tobytes(), p.data.tobytes())
            for n, p in model.named_params()
        ],
    )


def used_tiny(training):
    """radarformer-tiny with a frozen parameter, a pending gradient and
    non-initial BatchNorm statistics."""
    model = build_reference("radarformer-tiny", dtype=np.float32)
    model.set_training(training)
    model.stem1.w.requires_grad = False
    model.head.w.grad = np.full_like(model.head.w.data, 0.5)
    bn = model.stem_bn1
    bn._buffers["running_mean"] = np.full_like(bn._buffers["running_mean"], 0.25)
    return model


class TestTimingRestoresModel:
    SHAPE = (1, 2, 8, 4, 16, 16)

    def test_time_backprop(self):
        model = used_tiny(training=False)
        before = model_state(model)
        res = time_backprop(model, self.SHAPE, warmup=1, runs=3)
        assert res.mean_ms > 0.0 and res.std_ms >= 0.0
        assert (res.runs, res.stride) == (3, 8)
        assert res.per_frame_ms == pytest.approx(res.mean_ms / 8)
        assert model_state(model) == before

    def test_time_inference_keeps_training_mode(self):
        model = used_tiny(training=True)
        before = model_state(model)
        time_inference(model, self.SHAPE, warmup=0, runs=3)
        assert model_state(model) == before

    def test_restored_when_timing_raises(self):
        model = used_tiny(training=False)
        before = model_state(model)
        with pytest.raises(ShapeError):
            time_backprop(model, (1, 2, 8, 3, 16, 16))   # wrong chirp count
        assert model_state(model) == before

    def test_compare_report_with_timing(self):
        models = {"eval": used_tiny(training=False), "train": used_tiny(training=True)}
        before = {name: model_state(m) for name, m in models.items()}
        rows = compare_report(models, (1, 2, 8, 4, 32, 32), with_timing=True, timing_shape=self.SHAPE)
        assert all(r.bp_ms > 0 and r.infer_ms > 0 for r in rows[1:])
        assert {name: model_state(m) for name, m in models.items()} == before


class TestCompareReport:
    def test_rows_and_mnet(self):
        models = {
            "radarformer-tiny": build_reference("radarformer-tiny", dtype=np.float32),
        }
        rows = compare_report(models, (1, 2, 8, 4, 32, 32))
        names = [r.name for r in rows]
        assert names == ["m-net", "radarformer-tiny"]
        assert rows[0].bp_ms is None and rows[0].infer_ms is None

    def test_gmacs_stable_across_runs(self):
        models = {"tiny": build_reference("radarformer-tiny", dtype=np.float32)}
        r1 = compare_report(models, (1, 2, 8, 4, 32, 32))
        r2 = compare_report(models, (1, 2, 8, 4, 32, 32))
        assert [(r.name, r.gmacs, r.params_m) for r in r1] == [(r.name, r.gmacs, r.params_m) for r in r2]

    def test_format_and_kv(self, tmp_path):
        models = {"tiny": build_reference("radarformer-tiny", dtype=np.float32)}
        rows = compare_report(models, (1, 2, 8, 4, 32, 32))
        text = format_compare_report(rows, header_note="input (1,2,8,4,32,32)")
        assert "m-net" in text and "tiny" in text
        path = tmp_path / "report.kv"
        write_compare_report_kv(rows, path)
        assert "tiny.gmacs" in path.read_text()

    def test_kv_writes_timing_of_timed_rows(self, tmp_path):
        rows = [ReportRow("m-net", 0.5, 0.25, None, None), ReportRow("tiny", 1.5, 0.0695, 12.3456, 4.5)]
        path = tmp_path / "report.kv"
        write_compare_report_kv(rows, path)
        assert path.read_text() == ("m-net.gmacs = 0.500000\nm-net.params_m = 0.250000\n"
                                    "tiny.gmacs = 1.500000\ntiny.params_m = 0.069500\n"
                                    "tiny.bp_ms = 12.346\ntiny.infer_ms = 4.500\n")
