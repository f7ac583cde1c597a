"""ConfMap encode/decode, OLS kernel, peak detection, and L-NMS."""

import dataclasses
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radarkit.confmap import (
    DEFAULT_OLS,
    Annotation,
    Detection,
    decode_confmap,
    encode_confmap,
    l_nms,
    ols,
    ols_kernel,
    peak_detect,
    read_annotations,
    read_detections,
    write_annotations,
    write_detections,
)
from radarkit.errors import ConfigError, DataFormatError, ShapeError

from oracles import decode_scalar, lnms_loops, ols_scalar


def noisy_map(seed, k, h, w, n_objects, noise, decimals):
    """Encoded objects plus clipped Gaussian noise; rounding to `decimals`
    makes plateaus and equal confidences (ranking ties)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    anns = [
        Annotation(0, int(rng.integers(0, k)), int(rng.integers(0, h)), int(rng.integers(0, w)))
        for _ in range(n_objects)
    ]
    cm = np.clip(encode_confmap(anns, k, h, w) + rng.normal(0.0, noise, (k, h, w)), 0.0, 1.0)
    return cm if decimals is None else np.round(cm, decimals)


def flood_map(seed, k, h, w, decimals=None):
    """Peaks on every other row and column over a 0.35 floor: the most
    strict 3x3 maxima an h x w map can hold, ceil(h/2) * ceil(w/2) per class."""
    rng = np.random.Generator(np.random.PCG64(seed))
    cm = np.full((k, h, w), 0.35)
    peaks = rng.uniform(0.4, 1.0, cm[:, ::2, ::2].shape)
    cm[:, ::2, ::2] = peaks if decimals is None else np.round(peaks, decimals)
    return cm


class TestEncode:
    def test_peak_is_one_at_center(self):
        cm = encode_confmap([Annotation(0, 0, 64, 64)], 3, 128, 128)
        assert cm[0, 64, 64] == 1.0
        assert cm.shape == (3, 128, 128)
        assert cm[1].max() == 0.0 and cm[2].max() == 0.0

    def test_same_bin_objects_max_merge(self):
        anns = [Annotation(0, 1, 30, 40), Annotation(0, 1, 30, 40)]
        cm = encode_confmap(anns, 3, 64, 64)
        assert cm[1, 30, 40] == 1.0
        assert cm.max() <= 1.0

    def test_value_at_one_sigma(self):
        sigma = DEFAULT_OLS.sigma_bins(0, 50)
        d = int(round(sigma))
        cm = encode_confmap([Annotation(0, 0, 50, 64)], 3, 128, 128)
        want = math.exp(-(d * d) / (2 * sigma * sigma))
        assert abs(cm[0, 50 + d, 64] - want) < 1e-12

    def test_sigma_clamped_to_band(self):
        from radarkit.confmap import OlsParams

        params = OlsParams(kappa_m=(0.1, 1.0, 2.0))
        # range bin 10 = 2.3 m; 2.3*0.1/0.23 = 1 bin clamps up to 2
        assert params.sigma_bins(0, 10) == 2.0
        # 2.3*2.0/0.23 = 20 bins clamps down to 10
        assert params.sigma_bins(2, 10) == 10.0
        # unclamped middle of the band: 2.3*1.0/0.23 = 10 exactly
        assert abs(params.sigma_bins(1, 10) - 10.0) < 1e-12

    def test_out_of_grid_rejected(self):
        with pytest.raises(DataFormatError):
            encode_confmap([Annotation(0, 0, 70, 10)], 3, 64, 64)
        with pytest.raises(DataFormatError):
            encode_confmap([Annotation(0, 5, 10, 10)], 3, 64, 64)

    @given(st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 31), st.integers(0, 31)),
        min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_order_invariance(self, objs):
        anns = [Annotation(0, c, r, a) for c, r, a in objs]
        a = encode_confmap(anns, 3, 32, 32)
        b = encode_confmap(list(reversed(anns)), 3, 32, 32)
        assert np.array_equal(a, b)


class TestOls:
    def test_zero_distance(self):
        p = Detection(0, 40, 40, 0.9)
        g = Annotation(0, 0, 40, 40)
        assert ols(p, g) == 1.0

    def test_half_log_point(self):
        # both points at range bin 20 (4.6 m): s = 4.6 m; pedestrian kappa
        # 0.5 m; d = s*kappa = 2.3 m = 10 bins gives exactly exp(-1/2)
        p = Detection(0, 20, 10, 0.9)
        g = Annotation(0, 0, 20, 20)
        assert abs(ols(p, g) - math.exp(-0.5)) < 1e-12

    def test_symmetry_under_location_swap(self):
        a = Detection(1, 12, 50, 0.9)
        b = Detection(1, 47, 13, 0.8)
        swapped_a = Detection(1, 47, 13, 0.9)
        swapped_b = Detection(1, 12, 50, 0.8)
        assert ols(a, b) == ols(swapped_a, swapped_b)

    def test_scale_clamped_at_one_meter(self):
        near = Detection(0, 1, 10, 0.9)   # 0.23 m, clamps to 1 m
        g = Annotation(0, 0, 1, 14)
        d_m = 4 * 0.23
        want = math.exp(-(d_m ** 2) / (2 * 1.0 * 0.5 ** 2))
        assert abs(ols(near, g) - want) < 1e-12

    @given(st.integers(0, 2), st.integers(1, 60), st.lists(st.integers(0, 40), min_size=2, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_monotone_decreasing_in_distance(self, class_id, rbin, dists):
        g = Annotation(0, class_id, rbin, 0)
        vals = [
            ols(Detection(class_id, rbin, d, 0.5), g)
            for d in sorted(set(dists))
        ]
        assert all(x >= y - 1e-15 for x, y in zip(vals, vals[1:]))


COORD = st.one_of(st.integers(0, 255), st.floats(0.0, 255.0))


class TestOlsKernel:
    """The broadcasting kernel gives the scalar formula's bits."""

    @given(st.lists(st.tuples(COORD, COORD), min_size=1, max_size=12),
           st.lists(st.tuples(st.integers(0, 2), COORD, COORD), min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_equals_scalar_ols_bit_for_bit(self, points, gts):
        r = np.array([p[0] for p in points], dtype=np.float64)[:, None]
        a = np.array([p[1] for p in points], dtype=np.float64)[:, None]
        g_cls = np.array([g[0] for g in gts])
        g_r = np.array([g[1] for g in gts], dtype=np.float64)
        g_a = np.array([g[2] for g in gts], dtype=np.float64)
        got = ols_kernel(r, a, g_r, g_a, g_cls)
        assert got.shape == (len(points), len(gts)) and got.dtype == np.float64
        for i, (pr, pa) in enumerate(points):
            for j, (gc, gr, ga) in enumerate(gts):
                p, g = Detection(gc, pr, pa, 0.5), Annotation(0, gc, gr, ga)
                want = ols_scalar(p, g, DEFAULT_OLS)
                assert got[i, j] == want and ols(p, g) == want
                # one ground point against the array of points, as in L-NMS
                assert ols_kernel(r[:, 0], a[:, 0], gr, ga, gc)[i] == want

    def test_equals_scalar_ols_across_the_unclamped_band(self):
        # sigma escapes the [2, 10]-bin clamp only for mean ranges of
        # about 4 to 20 bins, where rounding differences would show
        r = np.arange(0.0, 30.0, 0.25)
        for c in range(3):
            for g_r in r[::5]:
                got = ols_kernel(r, r + 3.0, g_r, 1.5, c)
                want = [
                    ols_scalar(Detection(c, x, x + 3.0, 0.5), Annotation(0, c, g_r, 1.5), DEFAULT_OLS)
                    for x in r.tolist()
                ]
                assert got.tolist() == want

    def test_class_ids_checked_before_indexing(self):
        zeros = np.zeros(2)
        for bad in (-1, 3):
            with pytest.raises(ConfigError, match=f"class_id {bad} outside"):
                ols_kernel(zeros, zeros, zeros, zeros, np.array([0, bad]))
            with pytest.raises(ConfigError, match=f"class_id {bad} outside"):
                ols_kernel(zeros, zeros, 0.0, 0.0, bad)


class TestPeakDetect:
    def test_single_gaussian_single_candidate(self):
        cm = encode_confmap([Annotation(0, 1, 40, 50)], 3, 96, 96)
        dets = peak_detect(cm, 0.3)
        assert len(dets) == 1
        assert (dets[0].class_id, dets[0].range_bin, dets[0].azimuth_bin) == (1, 40, 50)
        assert dets[0].confidence == 1.0

    def test_empty_map(self):
        assert peak_detect(np.zeros((3, 32, 32)), 0.3) == []

    def test_two_gaussians_two_candidates(self):
        anns = [Annotation(0, 0, 30, 30), Annotation(0, 0, 30, 50)]
        cm = encode_confmap(anns, 3, 96, 96)
        dets = peak_detect(cm, 0.3)
        got = {(d.range_bin, d.azimuth_bin) for d in dets}
        assert got == {(30, 30), (30, 50)}

    def test_sorted_by_descending_confidence(self):
        cm = np.zeros((2, 16, 16))
        cm[0, 4, 4] = 0.5
        cm[1, 10, 10] = 0.9
        dets = peak_detect(cm, 0.1)
        assert [d.confidence for d in dets] == [0.9, 0.5]

    @pytest.mark.parametrize("floor", [-0.1, 1.0])
    def test_floor_outside_unit_interval_rejected(self, floor):
        with pytest.raises(ConfigError, match=f"peak floor must lie in \\[0,1\\), got {floor}"):
            peak_detect(np.zeros((1, 8, 8)), floor)

    @pytest.mark.parametrize("decode", [peak_detect, decode_confmap], ids=["peak_detect", "decode_confmap"])
    @pytest.mark.parametrize("shape", [(8, 8), (1, 1, 8, 8)], ids=["2d", "4d"])
    def test_map_not_khw_rejected(self, decode, shape):
        with pytest.raises(ShapeError, match=re.escape(f"confmap must be (K, H, W), got shape {shape}")):
            decode(np.zeros(shape), 0.3)

    def test_plateau_is_not_strict_maximum(self):
        cm = np.zeros((1, 8, 8))
        cm[0, 3, 3] = cm[0, 3, 4] = 0.8
        assert peak_detect(cm, 0.1) == []


class TestLNms:
    def test_colocated_keeps_highest(self):
        cands = [Detection(0, 20, 20, 0.9), Detection(0, 20, 20, 0.8)]
        kept = l_nms(cands, 0.5)
        assert kept == [cands[0]]

    def test_far_apart_keeps_both(self):
        cands = [Detection(0, 10, 10, 0.9), Detection(0, 100, 100, 0.8)]
        assert len(l_nms(cands, 0.5)) == 2

    def test_different_classes_never_suppress(self):
        cands = [Detection(0, 20, 20, 0.9), Detection(1, 20, 20, 0.8)]
        assert len(l_nms(cands, 0.5)) == 2

    @pytest.mark.parametrize("seed", range(10))
    def test_vs_brute_force_oracle(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        cands = [
            Detection(
                int(rng.integers(0, 3)),
                int(rng.integers(0, 64)),
                int(rng.integers(0, 64)),
                float(rng.uniform(0.05, 1.0)),
            )
            for _ in range(50)
        ]
        cands.sort(key=lambda d: -d.confidence)
        thr = float(rng.uniform(0.2, 0.8))
        assert l_nms(cands, thr) == lnms_loops(cands, thr, ols)

    @given(st.integers(0, 10_000), st.floats(0.1, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_subset_and_order_properties(self, seed, thr):
        rng = np.random.Generator(np.random.PCG64(seed))
        cands = [
            Detection(int(rng.integers(0, 3)), int(rng.integers(0, 32)),
                      int(rng.integers(0, 32)), float(rng.uniform(0.0, 1.0)))
            for _ in range(12)
        ]
        cands.sort(key=lambda d: -d.confidence)
        kept = l_nms(cands, thr)
        assert all(k in cands for k in kept)
        confs = [k.confidence for k in kept]
        assert confs == sorted(confs, reverse=True)


    @pytest.mark.parametrize("class_id", [-1, 3])
    def test_out_of_range_class_rejected(self, class_id):
        cands = [Detection(class_id, 20, 20, 0.9), Detection(class_id, 22, 20, 0.8)]
        with pytest.raises(ConfigError, match=f"class_id {class_id} outside"):
            l_nms(cands, 0.3)

    def test_flood_map_memory_linear(self):
        # 4096 candidates of one class: a pairwise f64 matrix would be 134 MB
        cands = peak_detect(flood_map(5, 1, 128, 128), 0.3)
        assert len(cands) == 64 * 64
        tracemalloc.start()
        try:
            kept = l_nms(cands, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < len(kept) < len(cands)
        assert peak < 4 * 2**20


class TestDecoderEqualsScalar:
    """`decode_confmap` returns exactly what the scalar decoder returns."""

    @staticmethod
    def check(cm, floor, thr):
        got = decode_confmap(cm, floor=floor, ols_threshold=thr)
        assert got == decode_scalar(cm, floor, thr, DEFAULT_OLS)
        assert all(
            type(d.class_id) is int and type(d.range_bin) is int
            and type(d.azimuth_bin) is int and type(d.confidence) is float
            for d in got
        )

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), h=st.integers(1, 40),
           w=st.integers(1, 40), n_objects=st.integers(0, 5), noise=st.floats(0.0, 0.3),
           decimals=st.sampled_from([None, 1, 2]), floor=st.floats(0.0, 0.9),
           thr=st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_noisy_maps(self, seed, k, h, w, n_objects, noise, decimals, floor, thr):
        self.check(noisy_map(seed, k, h, w, n_objects, noise, decimals), floor, thr)

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), h=st.integers(1, 24),
           w=st.integers(1, 24), decimals=st.sampled_from([None, 1]), thr=st.floats(0.05, 0.95))
    @settings(max_examples=20, deadline=None)
    def test_flood_maps(self, seed, k, h, w, decimals, thr):
        self.check(flood_map(seed, k, h, w, decimals), 0.3, thr)

    def test_given_order_is_kept(self):
        # confidence-only order: L-NMS must not re-sort by the rank key
        cands = [Detection(1, 30, 30, 0.5), Detection(0, 30, 30, 0.5), Detection(1, 31, 30, 0.5)]
        assert l_nms(cands, 0.3) == [cands[0], cands[1]]
        assert l_nms(cands[::-1], 0.3) == [cands[2], cands[1]]


class TestDecodeEncodeRoundTrip:
    @pytest.mark.parametrize("seed", range(8))
    def test_well_separated_scene_recovered_exactly(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        h = w = 128
        anns = []
        occupied = []
        for _ in range(60):
            if len(anns) == 4:
                break
            c = int(rng.integers(0, 3))
            r = int(rng.integers(8, h - 8))
            a = int(rng.integers(8, w - 8))
            sigma = DEFAULT_OLS.sigma_bins(c, r)
            # pairwise separation of at least 6 sigma of the larger object
            if all(
                np.hypot(r - r0, a - a0) >= 6 * max(sigma, s0)
                for r0, a0, s0 in occupied
            ):
                anns.append(Annotation(0, c, r, a))
                occupied.append((r, a, sigma))
        assert len(anns) >= 2
        cm = encode_confmap(anns, 3, h, w)
        dets = decode_confmap(cm, floor=0.3, ols_threshold=0.3)
        got = {(d.class_id, d.range_bin, d.azimuth_bin) for d in dets}
        want = {(a.class_id, a.range_bin, a.azimuth_bin) for a in anns}
        assert got == want


class TestRecords:
    @pytest.mark.parametrize("rec", [Detection(1, 10, 20, 0.5, frame_id=3), Annotation(3, 1, 10, 20)])
    def test_slotted_frozen_records(self, rec):
        assert not hasattr(rec, "__dict__")
        assert pickle.loads(pickle.dumps(rec)) == rec
        assert dataclasses.replace(rec, frame_id=7).frame_id == 7
        assert hash(rec) == hash(dataclasses.replace(rec))
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.range_bin = 11


class TestLineFiles:
    def test_annotation_round_trip(self, tmp_path):
        anns = [Annotation(0, 1, 10, 20), Annotation(3, 2, 40, 50)]
        path = tmp_path / "x.ann"
        write_annotations(path, anns)
        assert read_annotations(path) == anns

    def test_detection_round_trip_six_decimals(self, tmp_path):
        dets = [Detection(1, 10, 20, 0.123456789, frame_id=2)]
        path = tmp_path / "x.det"
        write_detections(path, dets)
        text = path.read_text()
        assert text == "2 1 10 20 0.123457\n"
        back = read_detections(path)
        assert back[0].confidence == pytest.approx(0.123457, abs=1e-9)

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.ann"
        path.write_text("0 1 2 3\n0 nope 2 3\n")
        with pytest.raises(DataFormatError) as ei:
            read_annotations(path)
        assert "bad.ann:2" in str(ei.value)
