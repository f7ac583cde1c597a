"""AP/AR computation over the OLS threshold sweep.

One ranking rule: a frame's detections are ranked by `confmap._rank_key`
(descending confidence; ties on class, range, azimuth), whatever order the
caller gives them in.  One matching pass: each frame's det x gt OLS matrix
comes from one `confmap.ols_kernel` call, and at each threshold each
detection, in rank order, takes the untaken same-class ground truth with
the highest OLS, provided that OLS clears the threshold.  The total and
every scenario category pool those stored matches: one stable sort on
descending confidence, in frame-then-detection order, ranks the pooled
detections into precision/recall curves.  AP uses 101-point interpolated
integration per threshold and both AP and AR average over the nine
thresholds 0.50..0.90 (step 0.05).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# ols is not called here; perfbench/tracer.py counts calls of evaluation.ols by name
from .confmap import _columns, _rank_key, ols, ols_kernel  # noqa: F401
from .errors import DataFormatError

OLS_THRESHOLDS = tuple(round(0.50 + 0.05 * i, 2) for i in range(9))
CATEGORIES = ("PL", "CR", "CS", "HW")


def match_frame(dets, gts, threshold: float):
    """Greedy one-to-one matching on one frame; returns (tp, fp, fn).

    The detections are ranked by `_rank_key` first, as `evaluate` ranks them.
    """
    (flags,) = _match(sorted(dets, key=_rank_key), gts, (threshold,))
    tp = sum(flags)
    return tp, len(dets) - tp, len(gts) - tp


def _match(dets, gts, thresholds):
    """One flag list per threshold, one flag per detection in the order
    given: the detection takes the untaken ground truth of highest OLS (the
    first on ties) if that OLS clears the threshold.  The det x gt OLS
    matrix, -1.0 across classes, is built once for all thresholds."""
    if not dets or not gts:
        return [[False] * len(dets) for _ in thresholds]
    d_cls, d_r, d_a = _columns(dets)
    g_cls, g_r, g_a = _columns(gts)
    sim = ols_kernel(d_r[:, None], d_a[:, None], g_r, g_a, g_cls)
    rows = np.where(d_cls[:, None] == g_cls, sim, -1.0).tolist()
    out = []
    for thr in thresholds:
        taken = [False] * len(gts)
        flags = []
        for row in rows:
            best, best_ols = -1, -1.0
            for i, o in enumerate(row):
                if o > best_ols and not taken[i]:
                    best, best_ols = i, o
            hit = best >= 0 and best_ols >= thr
            if hit:
                taken[best] = True
            flags.append(hit)
        out.append(flags)
    return out


@dataclass
class EvalResult:
    ap_total: float
    ar_total: float
    per_category: dict = field(default_factory=dict)      # tag -> (ap, ar)
    per_threshold: dict = field(default_factory=dict)     # thr -> dict with
    #   precision / recall curves (pooled ranking) and scalar ap / ar


def _ap_101(precision: np.ndarray, recall: np.ndarray) -> float:
    """Sum, in grid order, of the highest precision at recall >= each of
    101 levels.  Recall never decreases along the ranking, so each level's
    points are a suffix, and one suffix maximum serves every level."""
    if len(precision) == 0:
        return 0.0
    best = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    start = np.searchsorted(recall, np.linspace(0.0, 1.0, 101) - 1e-12)
    return sum(best[start], 0.0) / 101.0


def _pool(frames, thresholds):
    """AP, AR and per-threshold curves of matched frames, each a (negated
    confidences, flags per threshold, ground-truth count) triple."""
    gt_total = sum(n for _, _, n in frames)
    neg_conf = [c for confs, _, _ in frames for c in confs]
    # one stable ranking of the pooled detections serves every threshold;
    # ties, -0.0 against 0.0 included, keep frame-then-detection order
    ranked = np.array(sorted(range(len(neg_conf)), key=neg_conf.__getitem__), dtype=np.intp)
    per_threshold, aps, ars = {}, [], []
    for k, thr in enumerate(thresholds):
        pooled = [hit for _, flags, _ in frames for hit in flags[k]]
        tp_cum = np.cumsum(np.array(pooled, dtype=bool)[ranked])
        precision = tp_cum / np.arange(1, len(pooled) + 1)
        recall = tp_cum / gt_total if gt_total else np.zeros_like(tp_cum, dtype=float)
        aps.append(_ap_101(precision, recall) if gt_total else 0.0)
        ars.append(sum(pooled) / gt_total if gt_total else 0.0)
        per_threshold[thr] = {"precision": precision, "recall": recall, "ap": aps[-1], "ar": ars[-1]}
    return float(np.mean(aps)), float(np.mean(ars)), per_threshold


def evaluate(detections, annotations, categories=None, frame_ids=None, thresholds=OLS_THRESHOLDS) -> EvalResult:
    """Aggregate AP/AR over all frames and per scenario category.

    `categories` optionally maps frame_id -> scenario tag.  `frame_ids`
    optionally fixes the frame universe; a repeated id, or detections or
    annotations outside it, are a data error (misaligned inputs).
    """
    by_frame: dict[int, tuple[list, list]] = {}
    for d in detections:
        by_frame.setdefault(d.frame_id, ([], []))[0].append(d)
    for a in annotations:
        by_frame.setdefault(a.frame_id, ([], []))[1].append(a)

    universe = sorted(by_frame if frame_ids is None else frame_ids)
    repeated = sorted({a for a, b in zip(universe, universe[1:]) if a == b})
    if repeated:
        raise DataFormatError(f"frame_ids repeat frames {repeated[:5]}")
    known = set(universe)
    for i, kind in enumerate(("detections", "annotations")):
        stray = sorted(fid for fid, pair in by_frame.items() if pair[i] and fid not in known)
        if stray:
            raise DataFormatError(f"{kind} reference frames outside the dataset: {stray[:5]}")

    matched = {}
    for fid in universe:
        dets, gts = by_frame.get(fid, ([], []))
        dets = sorted(dets, key=_rank_key)
        matched[fid] = ([-d.confidence for d in dets], _match(dets, gts, thresholds), len(gts))

    ap, ar, per_thr = _pool([matched[fid] for fid in universe], thresholds)
    result = EvalResult(ap_total=ap, ar_total=ar, per_threshold=per_thr)
    for tag in sorted(set(categories.values())) if categories else ():
        frames = [matched[fid] for fid in universe if categories.get(fid) == tag]
        if frames:
            result.per_category[tag] = _pool(frames, thresholds)[:2]
    return result
