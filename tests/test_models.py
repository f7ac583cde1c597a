"""Model builders, full-pipeline contracts, and checkpoint serialization."""

import builtins
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radarkit import fileio, models, tensor as T
from radarkit.confmap import CLASS_NAMES, decode_confmap
from radarkit.errors import ConfigError, DataFormatError, ShapeError
from radarkit.models import (
    Hourglass3d,
    ModelConfig,
    build_model,
    build_reference,
    config_from_text,
    config_to_text,
    load_checkpoint,
    reference_config,
    save_checkpoint,
    _named_buffers,
)

from oracles import finite_diff_check


def toy_config(variant="radarformer", **kw):
    base = dict(
        variant=variant,
        frames=4,
        chirps=2,
        height=16,
        width=16,
        merge_channels=4,
        stage_widths=(8,),
        stage_depths=(1,),
        window_size=4,
        grid_size=4,
        heads=2,
        patch_size=4,
    )
    base.update(kw)
    return ModelConfig(**base)


@st.composite
def small_configs(draw):
    """Valid configs of every variant, small enough to build."""
    heads = draw(st.sampled_from([1, 2]))
    width = st.integers(1, 6).map(lambda n: heads * n)
    w0, inner = draw(width), draw(st.lists(width, max_size=2))
    widths = (w0, *inner, w0) if inner else (w0,)
    patch = draw(st.sampled_from([1, 2, 4]))
    return toy_config(
        draw(st.sampled_from(["cnn2d", "transformer2d", "radarformer"])),
        frames=draw(st.sampled_from([2, 4, 8])), chirps=draw(st.integers(1, 3)),
        height=4 * patch, width=4 * patch, patch_size=patch,
        merge_channels=draw(st.integers(1, 6)),
        stage_widths=widths, stage_depths=tuple(draw(st.integers(0, 2)) for _ in widths),
        window_size=draw(st.integers(1, 3)), grid_size=draw(st.integers(1, 3)), heads=heads,
        vit_dim=draw(st.sampled_from([0, 2 * heads])),
    )


class TestModelConfig:
    def test_valid_defaults(self):
        cfg = ModelConfig()
        assert cfg.temporal_stages == 5

    @pytest.mark.parametrize("bad", [
        dict(variant="resnet"),
        dict(frames=12),
        dict(frames=1),
        dict(stage_widths=(6,), heads=4),  # width not divisible by heads
        dict(stage_widths=(8, 4), stage_depths=(1, 1)),  # residual width mismatch
        dict(window_size=0),
        dict(variant="transformer2d", patch_size=5),
        dict(heads=0),
        dict(variant="transformer2d", patch_size=0),
        dict(stage_widths=(0,)),
        dict(init_seed=-1),
        dict(stage_widths=(8, 8), stage_depths=(1, -1)),
        dict(stage_widths=(8, 8), stage_depths=(1,)),
        dict(variant="transformer2d", vit_dim=-8),
    ])
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ConfigError):
            toy_config(**bad)

    def test_text_negative_vit_dim(self):
        text = config_to_text(toy_config("transformer2d")).replace("vit_dim = 0", "vit_dim = -8")
        with pytest.raises(ConfigError, match="vit_dim must be >= 0"):
            config_from_text(text)

    @given(small_configs())
    @settings(max_examples=40, deadline=None)
    def test_text_round_trip(self, cfg):
        assert config_from_text(config_to_text(cfg)) == cfg

    def test_text_skips_blank_and_comment_lines(self):
        text = "# a comment\n\n   \n" + config_to_text(toy_config("cnn2d")).replace("cnn2d", "cnn2d  # trailing")
        assert config_from_text(text) == toy_config("cnn2d")

    def test_text_line_without_equals(self):
        with pytest.raises(DataFormatError, match="line 2: expected 'key = value'"):
            config_from_text("variant = cnn2d\nframes 4\n")

    def test_text_repeated_key(self):
        with pytest.raises(DataFormatError, match="line 15: key 'frames' repeats line 2"):
            config_from_text(config_to_text(ModelConfig()) + "frames = 8\n")

    def test_text_unknown_key(self):
        with pytest.raises(DataFormatError):
            config_from_text("nonsense = 3\n")

    @pytest.mark.parametrize("line", ["frames = abc", "mlp_ratio = wide", "stage_widths = 8,x"])
    def test_text_bad_value_names_line(self, line):
        with pytest.raises(DataFormatError) as ei:
            config_from_text("variant = radarformer\n" + line + "\n")
        assert "line 2" in str(ei.value)


class TestForwardContract:
    @pytest.mark.parametrize("variant", ["cnn2d", "transformer2d", "radarformer"])
    def test_variants_share_io_contract(self, variant):
        model = build_model(toy_config(variant), dtype=np.float64)
        model.set_training(False)
        cube = T.uniform((2, 2, 4, 2, 16, 16), 1)
        with T.no_grad():
            out = model.forward(cube)
        assert out.shape == (2, 3, 4, 16, 16)
        assert np.all(out.data > 0.0) and np.all(out.data < 1.0)

    @given(small_configs())
    @settings(max_examples=40, deadline=None)
    def test_profile_shape_is_forward_shape(self, cfg):
        model = build_model(cfg)
        shape = (1, 2, cfg.frames, cfg.chirps, cfg.height, cfg.width)
        with T.no_grad():
            out = model.forward(T.uniform(shape, 1))
        assert model.profile(shape)[1] == out.shape

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_every_output_frame_decodes(self, variant):
        model = build_model(toy_config(variant), dtype=np.float32)
        model.set_training(False)
        with T.no_grad():
            out = model.forward(T.uniform((1, 2, 4, 2, 16, 16), 3, dtype=np.float32)).data
        assert out.shape[1] == len(CLASS_NAMES)
        for t in range(out.shape[2]):
            assert decode_confmap(out[0, :, t])

    def test_hourglass_profile_shape_is_forward_shape(self):
        model = Hourglass3d(chirps=2, base=4, bottleneck_width=8, bottleneck_depth=1, dtype=np.float64)
        shape = (1, 2, 4, 2, 8, 6)
        with T.no_grad():
            out = model.forward(T.uniform(shape, 2))
        assert model.profile(shape)[1] == out.shape == (1, 3, 4, 8, 6)

    def test_vit_width_not_divisible_by_heads(self):
        with pytest.raises(ConfigError, match="width 9 not divisible by 2 heads"):
            build_model(toy_config("transformer2d", vit_dim=9))

    def test_bad_cube_shapes_rejected(self):
        model = build_model(toy_config(), dtype=np.float64)
        with pytest.raises(ShapeError):
            model.forward(T.zeros((2, 2, 4, 3, 16, 16)))   # wrong chirps
        with pytest.raises(ShapeError):
            model.forward(T.zeros((2, 2, 8, 2, 16, 16)))   # wrong frames
        with pytest.raises(ShapeError):
            model.forward(T.zeros((2, 2, 4, 2, 16)))

    def test_transformer2d_bound_to_its_resolution(self):
        model = build_model(toy_config("transformer2d"), dtype=np.float64)
        with pytest.raises(ShapeError, match="resolution-bound to 16x16, got 16x20"):
            model.forward(T.zeros((1, 2, 4, 2, 16, 20)))

    def test_forward_deterministic_bit_exact(self):
        def run():
            model = build_model(toy_config(), dtype=np.float64)
            model.set_training(False)
            cube = T.uniform((1, 2, 4, 2, 16, 16), 7)
            with T.no_grad():
                return model.forward(cube).data.tobytes()

        assert run() == run()

    def test_different_init_seed_changes_weights(self):
        a = build_model(toy_config(), dtype=np.float64)
        b = build_model(toy_config(init_seed=1), dtype=np.float64)
        assert not np.array_equal(a.stem1.w.data, b.stem1.w.data)

    @pytest.mark.parametrize("seed", range(5))
    def test_full_model_gradient_toy(self, seed):
        model = build_model(toy_config(init_seed=seed), dtype=np.float64)
        base = T.uniform((1, 2, 4, 2, 16, 16), seed + 100, -0.5, 0.5).data
        # input gradient is probed through a small patch added onto the cube
        # (its gradient is an exact crop of the full input gradient); the
        # sampled parameter tensors rotate across seeds for pipeline coverage
        patch = T.uniform((1, 2, 2, 2, 4, 4), seed + 500, -0.1, 0.1, requires_grad=True)
        pads = [(0, 0), (0, 0), (1, 1), (0, 0), (6, 6), (6, 6)]
        params = list(model.named_params())
        stride = max(1, len(params) // 3)
        picked = [params[(seed + i * stride) % len(params)][1] for i in range(3)]
        picked = [p for p in picked if p.size <= 4096]
        for p in picked:
            p.requires_grad = True
        targets = np.random.Generator(np.random.PCG64(seed)).uniform(0, 1, (1, 3, 4, 16, 16))

        def f(patch, *_):
            cube = T.add(T.from_array(base), T.pad(patch, pads))
            return T.bce_with_logits(model.forward_logits(cube), targets)

        # eps below the distance of any pre-activation to a relu kink; larger
        # steps cross kinks and corrupt the numeric reference
        err = finite_diff_check(f, [patch] + picked, eps=1e-7)
        assert err < 1e-4


class TestHourglassReference:
    def test_forward_contract(self):
        model = Hourglass3d(chirps=2, base=4, bottleneck_width=8, bottleneck_depth=2)
        model.set_training(False)
        with T.using_dtype(np.float32), T.no_grad():
            cube = T.uniform((1, 2, 8, 2, 16, 16), 1)
            out = model.forward(cube)
        assert out.shape == (1, 3, 8, 16, 16)
        assert np.all(out.data > 0.0) and np.all(out.data < 1.0)

    def test_reference_builders(self):
        for name in ["radarformer-tiny"]:
            m = build_reference(name, dtype=np.float32)
            assert m.param_count() > 0
        with pytest.raises(ConfigError):
            reference_config("nope")

    def test_tiny_is_under_200k(self):
        m = build_reference("radarformer-tiny", dtype=np.float64)
        assert m.param_count() <= 200_000


class TestPrecisionChoice:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_models_record_their_dtype(self, dtype):
        built = (
            build_model(toy_config(), dtype=dtype),
            Hourglass3d(chirps=2, base=4, bottleneck_width=8, bottleneck_depth=1, dtype=dtype),
        )
        for model in built:
            assert model.dtype is dtype
            assert {p.dtype for p in model.params()} == {np.dtype(dtype)}
        assert T.default_dtype() is np.float64

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_f32_step_hands_every_tensor_f32_gradients(self, variant):
        model = build_model(toy_config(variant), dtype=np.float32)
        cube = T.uniform((1, 2, 4, 2, 16, 16), 4, -1.0, 1.0, requires_grad=True, dtype=np.float32)
        received = []

        def recording(grad_fn):
            def wrapped(g):
                grads = grad_fn(g)
                received.extend(gi.dtype for gi in grads if gi is not None)
                return grads
            return wrapped

        T.reset_tape()
        logits = model.forward_logits(cube)
        loss = T.bce_with_logits(logits, np.full(logits.shape, 0.5))
        for node in T.active_tape().nodes:
            node.grad_fn = recording(node.grad_fn)
        T.backward(loss)
        assert received and set(received) == {np.dtype(np.float32)}
        leaves = [cube, *model.params()]
        assert {p.grad.dtype for p in leaves} == {np.dtype(np.float32)}

    @pytest.mark.parametrize("dtype", [np.int32, np.float16])
    def test_non_float_dtype_rejected(self, dtype):
        makers = (
            lambda: build_model(toy_config(), dtype=dtype),
            lambda: build_reference("radarformer-tiny", dtype=dtype),
            lambda: build_reference("hourglass3d-ref", dtype=dtype),
            lambda: Hourglass3d(chirps=2, base=4, bottleneck_width=8, bottleneck_depth=1, dtype=dtype),
        )
        for build in makers:
            with pytest.raises(ConfigError, match=np.dtype(dtype).name):
                build()

    @pytest.mark.parametrize("dtype", [np.int32, np.float16])
    def test_load_checkpoint_rejects_dtype_before_opening(self, tmp_path, monkeypatch, dtype):
        path = tmp_path / "m.rfck"
        save_checkpoint(build_model(toy_config()), path)
        opened = []
        monkeypatch.setattr(fileio, "open", lambda *a: opened.append(a) or builtins.open(*a), raising=False)
        with pytest.raises(ConfigError, match=np.dtype(dtype).name):
            load_checkpoint(path, dtype=dtype)
        assert opened == []
        load_checkpoint(path, dtype=np.float32)
        assert len(opened) == 1


@pytest.mark.parametrize("name", [*models.VARIANTS, "hourglass3d"])
def test_tape_holds_gradient_slots_not_tensors(name):
    if name == "hourglass3d":
        model = Hourglass3d(chirps=2, base=4, bottleneck_width=8, bottleneck_depth=1, dtype=np.float64)
        shape = (1, 2, 4, 2, 8, 8)
    else:
        model, shape = build_model(toy_config(name)), (1, 2, 4, 2, 16, 16)
    T.reset_tape()
    out = model.forward(T.uniform(shape, 5, requires_grad=True))
    nodes = T.active_tape().nodes
    assert nodes
    for node in nodes:
        for cell in node.grad_fn.__closure__ or ():
            held = cell.cell_contents
            for value in held if isinstance(held, (tuple, list)) else (held,):
                assert not isinstance(value, T.Tensor), node.grad_fn.__qualname__
        for link in node.inputs:
            leaf = isinstance(link, T.Tensor) and link._slot is None and link.requires_grad
            assert link is None or leaf or isinstance(link, T._Grad)
    T.backward(T.tsum(out))
    assert all(p.grad is not None for p in model.params())


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = build_model(toy_config(init_seed=3), dtype=np.float64)
        p1 = tmp_path / "a.rfck"
        p2 = tmp_path / "b.rfck"
        save_checkpoint(model, p1)
        loaded = load_checkpoint(p1, dtype=np.float64)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded.cfg == model.cfg

    def test_reload_preserves_f32_forward(self, tmp_path):
        model = build_model(toy_config(init_seed=4), dtype=np.float32)
        model.set_training(False)
        path = tmp_path / "m.rfck"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path, dtype=np.float32)
        loaded.set_training(False)
        with T.using_dtype(np.float32), T.no_grad():
            cube = T.uniform((1, 2, 4, 2, 16, 16), 9)
            a = model.forward(cube).data
            b = loaded.forward(cube).data
        assert np.array_equal(a, b)

    def test_blob_data_read_after_model_is_built(self, tmp_path, monkeypatch):
        path = tmp_path / "m.rfck"
        saved = build_model(toy_config())
        save_checkpoint(saved, path)
        events = []
        build, array = models.build_model, fileio.BinaryReader.array
        monkeypatch.setattr(models, "build_model", lambda *a, **k: events.append("build") or build(*a, **k))
        monkeypatch.setattr(fileio.BinaryReader, "array",
                            lambda r, shape, dtype, what: events.append(shape) or array(r, shape, dtype, what))
        load_checkpoint(path)
        blobs = [p.shape for _, p in saved.named_params()] + [b.shape for _, b in _named_buffers(saved)]
        assert events == ["build"] + blobs

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rfck"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(DataFormatError) as ei:
            load_checkpoint(path)
        assert "bad.rfck" in str(ei.value)

    def test_truncated_file(self, tmp_path):
        model = build_model(toy_config(), dtype=np.float64)
        path = tmp_path / "trunc.rfck"
        save_checkpoint(model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(DataFormatError) as ei:
            load_checkpoint(path)
        assert "trunc.rfck" in str(ei.value)

    @pytest.mark.parametrize("text", ["frames = abc\n", "nonsense = 3\n", "frames = 4\nframes = 8\n"])
    def test_corrupt_embedded_config_names_file_and_line(self, tmp_path, text):
        path = tmp_path / "cfg.rfck"
        blob = text.encode("utf-8")
        path.write_bytes(b"RFCK" + struct.pack("<HI", 1, len(blob)) + blob)
        with pytest.raises(DataFormatError) as ei:
            load_checkpoint(path)
        assert "cfg.rfck" in str(ei.value) and "line 1" in str(ei.value)

    @staticmethod
    def _trained_tiny(tmp_path):
        """radarformer-tiny after one training-mode forward, saved; its BN
        statistics are no longer at their initial values."""
        model = build_reference("radarformer-tiny", dtype=np.float32)
        cube = T.uniform((1, 2, 8, 4, 32, 32), 5, dtype=np.float32)
        model.forward(cube)
        model.set_training(False)
        path = tmp_path / "tiny.rfck"
        save_checkpoint(model, path)
        return model, cube, path

    def test_reload_keeps_batchnorm_statistics(self, tmp_path):
        model, cube, path = self._trained_tiny(tmp_path)
        loaded = load_checkpoint(path, dtype=np.float32)
        loaded.set_training(False)
        with T.no_grad():
            assert loaded.forward(cube).data.tobytes() == model.forward(cube).data.tobytes()
        assert {buf.dtype for _, buf in _named_buffers(loaded)} == {np.dtype(np.float32)}
        save_checkpoint(loaded, tmp_path / "again.rfck")
        assert (tmp_path / "again.rfck").read_bytes() == path.read_bytes()

    def test_f64_round_trip_bitwise(self, tmp_path):
        model = build_reference("radarformer-tiny", dtype=np.float64)
        cube = T.uniform((1, 2, 8, 4, 32, 32), 6)
        model.forward(cube)  # moves the BN statistics off their initial values
        model.set_training(False)
        save_checkpoint(model, tmp_path / "tiny64.rfck")
        loaded = load_checkpoint(tmp_path / "tiny64.rfck", dtype=np.float64)
        loaded.set_training(False)
        for (name, p), (_, q) in zip(model.named_params(), loaded.named_params()):
            assert p.data.tobytes() == q.data.tobytes(), name
        for (name, b), (_, c) in zip(_named_buffers(model), _named_buffers(loaded)):
            assert c.dtype == np.float64 and b.tobytes() == c.tobytes(), name
        with T.no_grad():
            assert loaded.forward(cube).data.tobytes() == model.forward(cube).data.tobytes()

    def test_f32_file_loads_exactly_into_f64(self, tmp_path):
        model, _, path = self._trained_tiny(tmp_path)
        loaded = load_checkpoint(path, dtype=np.float64)
        for (name, p), (_, q) in zip(model.named_params(), loaded.named_params()):
            assert np.array_equal(p.data.astype(np.float64), q.data) and q.data.dtype == np.float64, name

    @staticmethod
    def _blob_bytes(name, buf):
        """Bytes of one blob: name length, name, rank, extents, data."""
        return 2 + len(name) + 1 + 4 * buf.ndim + 4 * buf.size

    def test_version_1_file_loads_with_initial_statistics(self, tmp_path):
        model, _, path = self._trained_tiny(tmp_path)
        buffer_bytes = sum(self._blob_bytes(name, buf) for name, buf in _named_buffers(model))
        data = bytearray(path.read_bytes()[:-buffer_bytes])
        data[4:7] = struct.pack("<H", 1)  # version 1, and no itemsize byte
        path.write_bytes(bytes(data))
        loaded = load_checkpoint(path, dtype=np.float32)
        for (name, p), (_, q) in zip(model.named_params(), loaded.named_params()):
            assert np.array_equal(p.data, q.data), name
        assert np.array_equal(loaded.head_bn._buffers["running_mean"], np.zeros((1, 8, 1, 1)))
        assert np.array_equal(loaded.head_bn._buffers["running_var"], np.ones((1, 8, 1, 1)))

    def test_missing_buffer_blob(self, tmp_path):
        model, _, path = self._trained_tiny(tmp_path)
        name, buf = list(_named_buffers(model))[-1]
        path.write_bytes(path.read_bytes()[: -self._blob_bytes(name, buf)])
        with pytest.raises(DataFormatError) as ei:
            load_checkpoint(path)
        assert "tiny.rfck" in str(ei.value) and name in str(ei.value)

    @given(small_configs())
    @settings(max_examples=40, deadline=None)
    def test_build_is_bounded_by_exactly_the_values_held(self, tmp_path_factory, cfg):
        # a v1 file whose one blob holds one value too few is refused while
        # the model is built; one holding the parameter count gets past it
        count = build_model(cfg, dtype=np.float32).param_count()
        path = tmp_path_factory.mktemp("held") / "pad.rfck"
        text = config_to_text(cfg).encode()
        for held, message in ((count - 1, f"hold {count - 1} values"), (count, "unknown blob 'pad'")):
            path.write_bytes(b"RFCK" + struct.pack("<HI", 1, len(text)) + text
                             + struct.pack("<H3sBI", 3, b"pad", 1, held) + bytes(4 * held))
            with pytest.raises(DataFormatError, match=message):
                load_checkpoint(path, dtype=np.float32)

    def test_frame_pair_kernels_keep_their_layout(self, tmp_path):
        # the temporal stream's kernels are stored (Cout, C, 2, 3, 3), as when
        # those convolutions were strided, so files written then still load
        cfg = reference_config("radarformer-tiny")
        path = tmp_path / "tiny.rfck"
        save_checkpoint(build_model(cfg, dtype=np.float32), path)
        data = path.read_bytes()
        # magic, version u16, itemsize u8, config length u32 and text, blobs
        pos, extents = 11 + struct.unpack_from("<I", data, 7)[0], {}
        while pos < len(data):
            (n,) = struct.unpack_from("<H", data, pos)
            (rank,) = struct.unpack_from("<B", data, pos + 2 + n)
            shape = struct.unpack_from(f"<{rank}I", data, pos + 3 + n)
            extents[data[pos + 2:pos + 2 + n].decode()] = shape
            pos += 3 + n + 4 * rank + 4 * math.prod(shape)
        c = cfg.merge_channels
        down = {name: e for name, e in extents.items() if name.startswith("down.convs.") and name.endswith(".w")}
        assert down == {f"down.convs.{i}.w": (c, c, 2, 3, 3) for i in range(cfg.temporal_stages)}
        hourglass = Hourglass3d(chirps=2, base=4, bottleneck_width=8, bottleneck_depth=2)
        assert hourglass.enc_t.w.shape == (8, 4, 2, 3, 3)

    def test_profile_matches_param_count(self):
        model = build_model(toy_config(), dtype=np.float64)
        profiles, out = model.profile((1, 2, 4, 2, 16, 16))
        assert sum(p for _, p, _ in profiles) == model.param_count()
        assert out == (1, 3, 4, 16, 16)
