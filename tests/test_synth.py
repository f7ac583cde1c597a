"""Scene generation determinism, render physics, and dataset round trips."""

import os
import struct
import threading

import numpy as np
import pytest

from radarkit import synth
from radarkit.confmap import RANGE_RESOLUTION_M
from radarkit.errors import ConfigError, DataFormatError, UsageError
from radarkit.fileio import mapped_array
from radarkit.synth import (
    CHIRP_INDICES,
    CHIRPS_PER_FRAME,
    EDGE_MARGIN_BINS,
    FRAME_RATE_HZ,
    SCENARIOS,
    WAVELENGTH_M,
    Dataset,
    Scene,
    SynthConfig,
    generate_dataset,
    generate_scene,
    read_manifest,
    read_sequence,
    render_ramap,
    write_dataset,
    write_sequence,
)

from oracles import render_loops

SMALL = SynthConfig(height=32, width=32, frames=8, noise_sigma=0.05)


class TestGenerateScene:
    def test_same_seed_identical(self):
        a = generate_scene(7, "CS", SMALL)
        b = generate_scene(7, "CS", SMALL)
        assert a == b

    def test_different_scenarios_differ(self):
        a = generate_scene(7, "PL", SMALL)
        b = generate_scene(7, "HW", SMALL)
        assert a.targets != b.targets

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            generate_scene(0, "XX", SMALL)

    def test_highway_faster_than_parking_lot(self):
        def mean_speed(scenario):
            speeds = []
            for seed in range(100):
                scene = generate_scene(seed, scenario, SMALL)
                speeds.extend(abs(t.speed_mps) for t in scene.targets)
            return np.mean(speeds)

        assert mean_speed("HW") > mean_speed("PL")

    def test_targets_in_grid_for_all_frames(self):
        cfg = SynthConfig(height=64, width=64, frames=32)
        lo = EDGE_MARGIN_BINS - 0.5
        hi = cfg.height - 1 - EDGE_MARGIN_BINS + 0.5
        for seed in range(1000):
            scenario = ("PL", "CR", "CS", "HW")[seed % 4]
            scene = generate_scene(seed, scenario, cfg)
            for t in scene.targets:
                for frame in (0, cfg.frames - 1):
                    r_bin = (t.range_m + t.speed_mps * frame / FRAME_RATE_HZ) / RANGE_RESOLUTION_M
                    assert lo <= r_bin <= hi, (seed, scenario, t)
                assert -45.0 <= t.azimuth_deg <= 45.0


class TestRender:
    def test_static_target_peak_at_bin(self):
        # odd width puts azimuth 0 exactly on bin 16
        cfg = SynthConfig(height=32, width=33, frames=4, noise_sigma=0.0)
        from radarkit.synth import Scene, TargetSpec

        target = TargetSpec(class_id=1, range_m=16 * 0.23, azimuth_deg=0.0,
                            speed_mps=0.0, amplitude=2.0)
        scene = Scene(0, "PL", (target,))
        cube, anns = render_ramap(scene, cfg, dtype=np.float64)
        mag = np.hypot(cube[0], cube[1])
        for t in range(4):
            for c in range(4):
                idx = np.unravel_index(np.argmax(mag[t, c]), mag[t, c].shape)
                assert idx == (16, 16)
        assert all(a.range_bin == 16 and a.azimuth_bin == 16 for a in anns)
        assert abs(mag[0, 0, 16, 16] - 2.0) < 1e-9

    def test_zero_targets_pure_noise(self):
        from radarkit.synth import Scene

        cfg = SynthConfig(height=16, width=16, frames=2, noise_sigma=0.1)
        scene = Scene(3, "PL", ())
        cube, anns = render_ramap(scene, cfg, dtype=np.float64)
        assert anns == []
        assert 0.0 < np.abs(cube).mean() < 0.5

    def test_chirp_phase_model(self):
        from radarkit.synth import Scene, TargetSpec

        cfg = SynthConfig(height=64, width=64, frames=1, noise_sigma=0.0)
        v = 3.7
        target = TargetSpec(class_id=2, range_m=30 * 0.23, azimuth_deg=10.0,
                            speed_mps=v, amplitude=1.5)
        scene = Scene(0, "CS", (target,))
        cube, anns = render_ramap(scene, cfg, dtype=np.float64)
        rb, ab = anns[0].range_bin, anns[0].azimuth_bin
        z0 = cube[0, 0, 0, rb, ab] + 1j * cube[1, 0, 0, rb, ab]
        z3 = cube[0, 0, 3, rb, ab] + 1j * cube[1, 0, 3, rb, ab]
        dt_chirp = (1.0 / FRAME_RATE_HZ) / CHIRPS_PER_FRAME
        want = 2 * np.pi * 2 * v * (CHIRP_INDICES[3] - CHIRP_INDICES[0]) * dt_chirp / WAVELENGTH_M
        got = np.angle(z3 / z0)
        diff = (got - want + np.pi) % (2 * np.pi) - np.pi
        assert abs(diff) < 1e-9

    def test_annotation_is_argmax_of_clean_blob(self):
        cfg = SynthConfig(height=48, width=48, frames=6, noise_sigma=0.0)
        for seed in range(20):
            scene = generate_scene(seed, "CR", cfg)
            from radarkit.synth import Scene

            for tgt in scene.targets:
                solo = Scene(seed, "CR", (tgt,))
                cube, anns = render_ramap(solo, cfg, dtype=np.float64)
                mag = np.hypot(cube[0], cube[1])
                for t in range(cfg.frames):
                    ann = anns[t]
                    idx = np.unravel_index(np.argmax(mag[t, 0]), mag[t, 0].shape)
                    assert (ann.range_bin, ann.azimuth_bin) == idx

    def test_snr_tracks_configuration(self):
        from radarkit.synth import Scene, TargetSpec

        amp, sigma_n = 3.0, 0.12
        cfg = SynthConfig(height=64, width=64, frames=1, noise_sigma=sigma_n)
        ratios = []
        for seed in range(100):
            target = TargetSpec(1, 12 * 0.23, -20.0, 0.0, amp)
            scene = Scene(seed, "CR", (target,))
            cube, anns = render_ramap(scene, cfg, dtype=np.float64)
            mag = np.hypot(cube[0, 0], cube[1, 0])
            peak = mag[:, anns[0].range_bin, anns[0].azimuth_bin].mean()
            noise_floor = np.sqrt((mag[:, 40:, 40:] ** 2).mean())
            ratios.append(peak / noise_floor)
        measured = np.mean(ratios)
        expected = amp / (np.sqrt(2) * sigma_n)
        assert abs(measured / expected - 1.0) < 0.10

    def test_determinism_bytes(self):
        cfg = SMALL
        a, _ = render_ramap(generate_scene(5, "HW", cfg), cfg)
        b, _ = render_ramap(generate_scene(5, "HW", cfg), cfg)
        assert a.tobytes() == b.tobytes()


class TestRenderEqualsLoops:
    """render_ramap against `render_loops`, the renderer that drew the
    noise on the calling thread: cube bytes and annotations are equal."""

    @pytest.mark.parametrize("size, frames", [(32, 8), (128, 3)])
    @pytest.mark.parametrize("cpus", [2, 1])
    def test_bytes_equal(self, size, frames, cpus, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        for sigma in (0.0, 0.08):
            cfg = SynthConfig(height=size, width=size, frames=frames, noise_sigma=sigma)
            for scenario in SCENARIOS:
                scene = generate_scene(size + frames, scenario, cfg)
                for dtype in (np.float32, np.float64):
                    cube, anns = render_ramap(scene, cfg, dtype=dtype)
                    want_cube, want_anns = render_loops(scene, cfg, dtype=dtype)
                    assert cube.dtype == want_cube.dtype and cube.shape == want_cube.shape
                    assert cube.tobytes() == want_cube.tobytes(), (scenario, sigma, dtype)
                    assert anns == want_anns

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_noise_thread(self, cpus, monkeypatch):
        """The noise is drawn off the calling thread, also on one CPU, where
        the pool has one thread."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        threads = []

        def noise(*args):
            threads.append(threading.current_thread())
            return draw(*args)

        draw = synth._noise
        monkeypatch.setattr(synth, "_noise", noise)
        render_ramap(generate_scene(1, "CR", SMALL), SMALL)
        assert len(threads) == 1 and threads[0] is not threading.current_thread()

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_noise_draw_error_propagates(self, cpus, monkeypatch):
        """A draw error surfaces once the targets are summed too."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        summed = []
        real_bin_of = synth._bin_of

        def broken(rng, shape, sigma):
            raise MemoryError(f"cannot draw {shape}")

        def bin_of(*args):
            summed.append(args)
            return real_bin_of(*args)

        monkeypatch.setattr(synth, "_noise", broken)
        monkeypatch.setattr(synth, "_bin_of", bin_of)
        scene = generate_scene(1, "CR", SMALL)
        with pytest.raises(MemoryError, match="cannot draw"):
            render_ramap(scene, SMALL)
        assert len(summed) == SMALL.frames * len(scene.targets)

    @pytest.mark.parametrize("sigma", [0.0, 0.08])
    def test_clip_sized_arrays_are_mapped(self, sigma, monkeypatch):
        """The f64 cube, the f64 noise and the output each come from
        `mapped_array`, so none of them is left in malloc's heap."""
        made = []

        def mapped(shape, dtype):
            made.append((tuple(shape), np.dtype(dtype)))
            return mapped_array(shape, dtype)

        monkeypatch.setattr(synth, "mapped_array", mapped)
        cfg = SynthConfig(height=16, width=16, frames=2, noise_sigma=sigma)
        cube, _ = render_ramap(generate_scene(1, "PL", cfg), cfg)
        f64 = [((2, 2, 4, 16, 16), np.dtype(np.float64))] * (2 if sigma else 1)
        assert sorted(made[:-1], key=str) == f64
        assert made[-1] == (cube.shape, np.dtype(np.float32))

    def test_no_draw_without_noise(self, monkeypatch):
        monkeypatch.setattr(synth, "_noise", None)
        cfg = SynthConfig(height=32, width=32, frames=2, noise_sigma=0.0)
        cube, _ = render_ramap(generate_scene(1, "PL", cfg), cfg)
        assert cube.dtype == np.float32


class TestConfigErrors:
    @pytest.mark.parametrize("field, value", [
        ("frames", 0),
        ("height", 0),
        ("width", 0),
        ("noise_sigma", -0.1),
        ("height", 8),
        ("width", 6),
    ])
    def test_bad_field_named(self, field, value):
        with pytest.raises(ConfigError, match=f"SynthConfig.{field} must be"):
            SynthConfig(**{field: value})

    def test_smallest_grid_renders(self):
        # the smallest height and width the default margins allow
        cfg = SynthConfig(height=9, width=7, frames=2)
        for seed in range(20):
            scene = generate_scene(seed, "HW", cfg)
            cube, anns = render_ramap(scene, cfg)
            assert cube.shape == (2, 2, 4, 9, 7) and len(anns) == 2 * len(scene.targets)

    def test_two_by_two_grid_names_height(self):
        with pytest.raises(ConfigError, match="SynthConfig.height"):
            SynthConfig(height=2, width=2)

    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    def test_unknown_scene_scenario_named(self, sigma):
        with pytest.raises(ConfigError, match="'XX'"):
            render_ramap(Scene(0, "XX", ()), SynthConfig(height=16, width=16, frames=2, noise_sigma=sigma))

    @pytest.mark.parametrize("dtype", [np.int32, np.float16])
    def test_non_float_dtype_rejected(self, dtype):
        with pytest.raises(ConfigError, match=np.dtype(dtype).name):
            render_ramap(generate_scene(1, "PL", SMALL), SMALL, dtype=dtype)

    @pytest.mark.parametrize("shape", [(2, 0, 4, 8, 8), (2, 2, 4, 0, 8), (2, 1, 0, 1, 1)])
    def test_write_sequence_rejects_zero_extent(self, tmp_path, shape):
        path = tmp_path / "empty.ramc"
        with pytest.raises(ConfigError, match="every extent at least 1"):
            write_sequence(path, np.zeros(shape, dtype=np.float32))
        assert not path.exists()


class TestDatasetIO:
    @pytest.mark.parametrize("make", [
        lambda c: c,
        lambda c: c.astype(np.float64),
        lambda c: c.astype(">f4"),
        lambda c: np.asfortranarray(c),
        lambda c: np.stack([c, -c], axis=-1)[..., 0],
    ])
    def test_file_bytes_are_header_then_little_endian_f4(self, tmp_path, make):
        cube = np.random.default_rng(3).standard_normal((2, 3, 4, 5, 6)).astype(np.float32)
        path = tmp_path / "x.ramc"
        write_sequence(path, make(cube))
        header = b"RAMC" + struct.pack("<H", 1) + struct.pack("<5I", *cube.shape)
        assert path.read_bytes() == header + cube.astype("<f4").tobytes()

    def test_round_trip_three_sequences(self, tmp_path):
        cfg = SMALL
        items = []
        for i, scenario in enumerate(["PL", "CR", "HW"]):
            scene = generate_scene(i, scenario, cfg)
            cube, anns = render_ramap(scene, cfg)
            items.append((f"{i:03d}_seq", cube, anns, scenario, "train" if i < 2 else "val"))
        manifest = write_dataset(tmp_path, items)
        assert manifest.total_frames == sum(cube.shape[1] for _, cube, _, _, _ in items)

        ds = Dataset(tmp_path)
        assert ds.manifest == manifest
        for name, cube, anns, _, _ in items:
            cube2, anns2 = ds.load(name)
            assert cube2.tobytes() == cube.astype("<f4").tobytes()
            assert anns2 == anns

    def test_read_gives_owned_aligned_writable_array(self, tmp_path):
        cube = np.random.default_rng(3).standard_normal((2, 3, 4, 5, 6)).astype(np.float32)
        path = tmp_path / "c.ramc"
        write_sequence(path, cube)
        back = read_sequence(path)
        flags = back.flags
        assert flags.owndata and flags.aligned and flags.writeable and flags.c_contiguous
        assert back.dtype == np.dtype("<f4") and back.tobytes() == cube.tobytes()

    def test_truncated_sequence_names_file(self, tmp_path):
        cube = np.zeros((2, 2, 4, 8, 8), dtype=np.float32)
        path = tmp_path / "x.ramc"
        write_sequence(path, cube)
        data = path.read_bytes()
        path.write_bytes(data[:50])
        with pytest.raises(DataFormatError) as ei:
            read_sequence(path)
        assert "x.ramc" in str(ei.value)

    def test_bad_magic_and_version(self, tmp_path):
        path = tmp_path / "y.ramc"
        path.write_bytes(b"NOPE" + b"\x00" * 30)
        with pytest.raises(DataFormatError):
            read_sequence(path)
        good = tmp_path / "z.ramc"
        write_sequence(good, np.zeros((2, 1, 4, 4, 4), dtype=np.float32))
        data = bytearray(good.read_bytes())
        data[4] = 99
        good.write_bytes(bytes(data))
        with pytest.raises(DataFormatError) as ei:
            read_sequence(good)
        assert "version" in str(ei.value)

    def test_manifest_missing_or_malformed(self, tmp_path):
        with pytest.raises(DataFormatError):
            read_manifest(tmp_path)
        (tmp_path / "manifest.txt").write_text("ramc-dataset v1\nsequence broken\n")
        with pytest.raises(DataFormatError):
            read_manifest(tmp_path)

    def test_manifest_non_numeric_frame_count(self, tmp_path):
        (tmp_path / "manifest.txt").write_text(
            "ramc-dataset v1\nsequence 000_seq frames many scenario PL split train\n"
        )
        with pytest.raises(DataFormatError) as ei:
            read_manifest(tmp_path)
        assert "manifest.txt:2" in str(ei.value)

    @pytest.mark.parametrize("second, message", [
        ("sequence b frames -2 scenario PL split val", "manifest.txt:3: negative frame count -2"),
        ("sequence a frames 2 scenario CR split val", "manifest.txt:3: sequence 'a' repeats line 2"),
    ])
    def test_manifest_record_rejected(self, tmp_path, second, message):
        (tmp_path / "manifest.txt").write_text(
            f"ramc-dataset v1\nsequence a frames 2 scenario PL split train\n{second}\n"
        )
        with pytest.raises(DataFormatError, match=message):
            read_manifest(tmp_path)

    def test_missing_file_named(self, tmp_path):
        write_dataset(tmp_path, [("000_seq", np.zeros((2, 1, 4, 4, 4), dtype=np.float32), [], "PL", "train")])
        (tmp_path / "000_seq.ann").unlink()
        with pytest.raises(DataFormatError, match="000_seq.ann: referenced by manifest but missing"):
            Dataset(tmp_path)

    def test_load_frame_count_checked(self, tmp_path):
        write_dataset(tmp_path, [("000_seq", np.zeros((2, 1, 4, 4, 4), dtype=np.float32), [], "PL", "train")])
        write_sequence(tmp_path / "000_seq.ramc", np.zeros((2, 3, 4, 4, 4), dtype=np.float32))
        with pytest.raises(DataFormatError, match=r"000_seq.ramc: frame count 3 does not match manifest \(1\)"):
            Dataset(tmp_path).load("000_seq")

    def test_load_name_not_in_manifest(self, tmp_path):
        cube = np.zeros((2, 1, 4, 4, 4), dtype=np.float32)
        write_dataset(tmp_path, [("000_seq", cube, [], "PL", "train")])
        write_sequence(tmp_path / "stray.ramc", cube)
        (tmp_path / "stray.ann").write_text("")
        with pytest.raises(UsageError) as ei:
            Dataset(tmp_path).load("stray")
        assert "'stray'" in str(ei.value) and str(tmp_path) in str(ei.value)

    def test_generate_dataset_deterministic_bytes(self, tmp_path):
        cfg = SMALL
        d1, d2 = tmp_path / "a", tmp_path / "b"
        generate_dataset(d1, seed=11, sequences=4, cfg=cfg)
        generate_dataset(d2, seed=11, sequences=4, cfg=cfg)
        for p1 in sorted(d1.iterdir()):
            p2 = d2 / p1.name
            assert p1.read_bytes() == p2.read_bytes()

    def test_generate_dataset_split_mix(self, tmp_path):
        manifest = generate_dataset(tmp_path / "d", seed=3, sequences=8, cfg=SMALL)
        assert len(manifest.split("train")) == 6
        assert len(manifest.split("val")) == 2
        scenarios = {e.scenario for e in manifest.entries}
        assert scenarios == {"PL", "CR", "CS", "HW"}
