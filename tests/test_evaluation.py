"""Matching and the AP/AR protocol over the nine-threshold sweep."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from radarkit import evaluation
from radarkit.confmap import DEFAULT_OLS, Annotation, Detection, _rank_key, ols, ols_kernel
from radarkit.errors import ConfigError, DataFormatError
from radarkit.evaluation import (
    CATEGORIES,
    OLS_THRESHOLDS,
    evaluate,
    format_report,
    match_frame,
    write_report_kv,
)

from oracles import greedy_match_scalar, match_frame_best_assignment


def det(c, r, a, conf, frame=0):
    return Detection(c, r, a, conf, frame_id=frame)


def gt(c, r, a, frame=0):
    return Annotation(frame, c, r, a)


def pair_with_ols(target_ols, frame=0):
    """One GT and one detection whose OLS is `target_ols` up to float
    rounding, nudged to the matched side of the threshold comparison."""
    r = 20
    sigma = 10.0  # pedestrian kappa at 4.6 m clamps to the 10-bin band edge
    d = sigma * math.sqrt(-2.0 * math.log(target_ols)) * (1.0 - 1e-12)
    g = gt(0, r, 20, frame)
    p = det(0, r, 20 + d, 0.9, frame)
    return p, g


class TestThresholds:
    def test_nine_thresholds(self):
        assert OLS_THRESHOLDS == (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9)


class TestMatchFrame:
    def test_single_match_above_threshold(self):
        p, g = pair_with_ols(0.7)
        assert match_frame([p], [g], 0.5) == (1, 0, 0)

    def test_single_pair_below_threshold(self):
        p, g = pair_with_ols(0.7)
        assert match_frame([p], [g], 0.75) == (0, 1, 1)

    def test_class_mismatch_never_matches(self):
        p = det(1, 20, 20, 0.9)
        g = gt(0, 20, 20)
        assert match_frame([p], [g], 0.5) == (0, 1, 1)

    def test_one_to_one(self):
        g0 = gt(0, 20, 20)
        dets = [det(0, 20, 20, 0.9), det(0, 20, 21, 0.8)]
        assert match_frame(dets, [g0], 0.5) == (1, 1, 0)

    def test_equal_ols_goes_to_the_first_ground_truth(self):
        # the first detection is 5 bins from both ground truths (OLS 0.88);
        # taking the second one would leave 0.61 for the second detection
        gts = [gt(0, 20, 15), gt(0, 20, 25)]
        dets = [det(0, 20, 20, 0.9), det(0, 20, 25, 0.8)]
        assert match_frame(dets, gts, 0.7) == (2, 0, 0)

    @pytest.mark.parametrize("seed", range(30))
    def test_vs_exhaustive_assignment(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        nd, ng = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        dets = sorted(
            (
                det(int(rng.integers(0, 3)), int(rng.integers(0, 64)),
                    int(rng.integers(0, 64)), float(rng.uniform(0, 1)))
                for _ in range(nd)
            ),
            key=lambda d: -d.confidence,
        )
        gts = [
            gt(int(rng.integers(0, 3)), int(rng.integers(0, 64)), int(rng.integers(0, 64)))
            for _ in range(ng)
        ]
        thr = float(rng.choice(OLS_THRESHOLDS))
        tp, fp, fn = match_frame(dets, gts, thr)
        assert tp == match_frame_best_assignment(dets, gts, thr, ols)
        assert fp == nd - tp and fn == ng - tp


class TestEvaluate:
    def test_perfect_detector(self):
        gts = [gt(0, 10, 10, 0), gt(1, 30, 30, 0), gt(2, 50, 50, 1)]
        dets = [det(a.class_id, a.range_bin, a.azimuth_bin, 0.95, a.frame_id) for a in gts]
        res = evaluate(dets, gts)
        assert res.ap_total == 1.0
        assert res.ar_total == 1.0

    def test_empty_detections(self):
        gts = [gt(0, 10, 10)]
        res = evaluate([], gts)
        assert res.ap_total == 0.0 and res.ar_total == 0.0

    def test_ols_070_scores_five_ninths(self):
        p, g = pair_with_ols(0.70)
        assert 0.70 <= ols(p, g) < 0.70001
        res = evaluate([p], [g])
        assert abs(res.ap_total - 5 / 9) < 1e-12
        assert abs(res.ar_total - 5 / 9) < 1e-12

    def test_duplicated_detections_ar_same_ap_not_higher(self):
        # gts are spaced beyond any OLS-threshold radius so each detection
        # has exactly one eligible object; a duplicate then cannot claim a
        # second ground truth (greedy matching would allow that in crowds)
        rng = np.random.Generator(np.random.PCG64(7))
        gts, dets = [], []
        for f in range(4):
            for i in range(3):
                g = gt(int(rng.integers(0, 3)), 10 + 30 * i, 10 + 30 * i, f)
                gts.append(g)
            for g in gts[-2:]:
                dets.append(det(g.class_id, g.range_bin, g.azimuth_bin + int(rng.integers(0, 3)),
                                float(rng.uniform(0.4, 1.0)), f))
        base = evaluate(dets, gts)
        doubled = evaluate(dets + dets, gts)
        assert doubled.ar_total == base.ar_total
        assert doubled.ap_total <= base.ap_total + 1e-12

    def test_threshold_shift_monotonicity(self):
        rng = np.random.Generator(np.random.PCG64(11))
        gts, dets = [], []
        for f in range(5):
            for _ in range(3):
                g = gt(int(rng.integers(0, 3)), int(rng.integers(5, 60)), int(rng.integers(5, 60)), f)
                gts.append(g)
                dets.append(det(g.class_id, g.range_bin + int(rng.integers(0, 4)),
                                g.azimuth_bin + int(rng.integers(0, 4)),
                                float(rng.uniform(0.3, 1.0)), f))
        lo = tuple(round(0.40 + 0.05 * i, 2) for i in range(9))
        hi = tuple(round(0.55 + 0.05 * i, 2) for i in range(9))
        res_lo = evaluate(dets, gts, thresholds=lo)
        res_mid = evaluate(dets, gts)
        res_hi = evaluate(dets, gts, thresholds=hi)
        assert res_lo.ap_total >= res_mid.ap_total >= res_hi.ap_total
        assert res_lo.ar_total >= res_mid.ar_total >= res_hi.ar_total

    def test_order_invariance(self):
        rng = np.random.Generator(np.random.PCG64(13))
        gts, dets = [], []
        for f in range(4):
            for _ in range(4):
                # jittered positions keep all pairwise OLS values distinct
                r = float(rng.uniform(5, 60))
                a = float(rng.uniform(5, 60))
                gts.append(gt(int(rng.integers(0, 3)), r, a, f))
                dets.append(det(gts[-1].class_id, r + float(rng.uniform(0, 3)),
                                a + float(rng.uniform(0, 3)), float(rng.uniform(0, 1)), f))
        base = evaluate(dets, gts)
        perm = rng.permutation(len(dets))
        shuffled = evaluate([dets[i] for i in perm], list(reversed(gts)))
        assert shuffled.ap_total == base.ap_total
        assert shuffled.ar_total == base.ar_total

    def test_single_frame_matches_manual_aggregation(self):
        rng = np.random.Generator(np.random.PCG64(17))
        gts = [gt(int(rng.integers(0, 3)), int(rng.integers(5, 60)), int(rng.integers(5, 60)))
               for _ in range(4)]
        dets = sorted(
            (det(int(rng.integers(0, 3)), int(rng.integers(5, 60)), int(rng.integers(5, 60)),
                 float(rng.uniform(0, 1))) for _ in range(5)),
            key=lambda d: -d.confidence,
        )
        res = evaluate(dets, gts)
        for thr in OLS_THRESHOLDS:
            tp, fp, fn = match_frame(dets, gts, thr)
            assert res.per_threshold[thr]["ar"] == tp / len(gts)

    @pytest.mark.parametrize("class_id", [-1, 3])
    def test_out_of_range_gt_class_rejected(self, class_id):
        with pytest.raises(ConfigError, match=f"class_id {class_id} outside"):
            evaluate([det(class_id, 10, 10, 0.9)], [gt(0, 10, 12), gt(class_id, 10, 10)])

    @given(
        st.lists(st.tuples(st.integers(0, 2), st.floats(0, 40), st.floats(0, 40),
                           st.sampled_from([0.2, 0.5, 0.9])), max_size=10),
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 40), st.integers(0, 40)), max_size=6),
    )
    # tied confidences: ranked by azimuth, the second detection comes first
    @example(raw_dets=[(0, 1.0, 1.0, 0.2), (0, 1.0, 0.0, 0.2)], raw_gts=[(0, 0, 0), (0, 1, 0)])
    @settings(max_examples=80, deadline=None)
    def test_matching_equals_scalar_greedy(self, raw_dets, raw_gts):
        dets = [det(*d) for d in raw_dets]
        gts = [gt(*g) for g in raw_gts]
        res = evaluate(dets, gts)
        for thr in OLS_THRESHOLDS:
            tp = sum(greedy_match_scalar(sorted(dets, key=_rank_key), gts, thr, DEFAULT_OLS))
            assert match_frame(dets, gts, thr) == (tp, len(dets) - tp, len(gts) - tp)
            assert res.per_threshold[thr]["ar"] == (tp / len(gts) if gts else 0.0)

    def test_confidence_ties_keep_frame_order(self):
        # one ground truth per frame; the detection hits it or lies far off.
        # Equal confidences, and -0.0 against 0.0, rank in frame order.
        confs = [0.5] * 24 + [0.0, -0.0] * 12 + [0.9] * 8
        hits = [f % 3 == 0 or f % 7 == 1 for f in range(len(confs))]
        gts = [gt(0, 20, 20, f) for f in range(len(confs))]
        dets = [det(0, 20, 20, c, f) if hit else det(0, 100, 100, c, f)
                for f, (c, hit) in enumerate(zip(confs, hits))]
        res = evaluate(dets, gts)
        ranked = [hits[f] for group in (0.9, 0.5, 0.0) for f in range(len(confs)) if confs[f] == group]
        tp_cum = np.cumsum(ranked)
        for row in res.per_threshold.values():
            assert np.array_equal(row["precision"], tp_cum / np.arange(1, len(confs) + 1))
            assert np.array_equal(row["recall"], tp_cum / len(confs))
            assert row["ar"] == sum(hits) / len(confs)

    def test_match_frame_agrees_with_evaluate_in_any_order(self):
        # four tied detections; in caller order the one at azimuth 1 would
        # take the ground truth at (1, 0) away from the one at azimuth 0
        gts = [gt(0, 0, 0), gt(0, 1, 0), gt(0, 3, 3)]
        dets = [det(0, 1, 1, 0.2), det(0, 1, 0, 0.2), det(0, 3, 4, 0.2), det(0, 9, 9, 0.2)]
        rows = evaluate(dets, gts).per_threshold
        for order in itertools.permutations(dets):
            for thr, row in rows.items():
                tp, fp, fn = match_frame(list(order), gts, thr)
                assert row["ar"] == tp / len(gts)
                assert (fp, fn) == (len(dets) - tp, len(gts) - tp)

    def test_one_ols_matrix_per_frame(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return ols_kernel(*args)

        monkeypatch.setattr(evaluation, "ols_kernel", counted)
        # frames 0-3 hold detections and annotations, frame 4 only an
        # annotation and frame 5 only a detection
        gts = [gt(0, 10, 10, f) for f in range(5)]
        dets = [det(0, 10, 11, 0.9, f) for f in (0, 1, 2, 3, 5)]
        res = evaluate(dets, gts, categories={f: CATEGORIES[f % 4] for f in range(6)})
        assert len(calls) == 4
        assert res.per_category["PL"] == (51 / 101, 0.5)  # recall 0.5 at precision 1

    def test_misaligned_frames_rejected(self):
        gts = [gt(0, 10, 10, frame=0)]
        dets = [det(0, 10, 10, 0.9, frame=5)]
        with pytest.raises(DataFormatError):
            evaluate(dets, gts, frame_ids=[0, 1])

    def test_annotations_outside_frame_ids_rejected(self):
        with pytest.raises(DataFormatError, match=r"annotations reference frames outside the dataset: \[5, 7\]"):
            evaluate([det(0, 10, 10, 0.9, 0)], [gt(0, 10, 10, 7), gt(0, 10, 10, 5)], frame_ids=[0, 1])

    def test_repeated_frame_id_rejected(self):
        dets, gts = [det(0, 10, 10, 0.9, 0)], [gt(0, 10, 10, 0), gt(0, 20, 20, 1)]
        assert evaluate(dets, gts, frame_ids=[0, 1]).ar_total == 0.5
        with pytest.raises(DataFormatError, match=r"frame_ids repeat frames \[0\]"):
            evaluate(dets, gts, frame_ids=[0, 0, 1])

    def test_per_category_aggregation(self):
        gts = [gt(0, 10, 10, 0), gt(0, 20, 20, 1)]
        dets = [det(0, 10, 10, 0.9, 0)]  # frame 0 perfect, frame 1 missed
        res = evaluate(dets, gts, categories={0: "PL", 1: "HW"})
        assert res.per_category["PL"] == (1.0, 1.0)
        assert res.per_category["HW"] == (0.0, 0.0)
        assert res.ar_total == 0.5

    def test_report_outputs(self, tmp_path):
        gts = [gt(0, 10, 10, 0)]
        dets = [det(0, 10, 10, 0.9, 0)]
        res = evaluate(dets, gts, categories={0: "CS"})
        text = format_report(res)
        assert "Total" in text and "CS" in text
        path = tmp_path / "eval.kv"
        write_report_kv(res, path)
        content = path.read_text()
        assert "total.ap = 1.000000" in content
        assert "threshold.0.70.ap = 1.000000" in content
