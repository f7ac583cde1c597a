"""AP/AR computation over the OLS threshold sweep.

Detections are matched per frame by greedy confidence order: each
detection takes the unmatched same-class ground truth with the highest
OLS, provided that OLS clears the threshold.  Each frame's det x gt OLS
matrix comes from one `confmap.ols_kernel` call, and the pooled
confidence ranking from one stable sort; both serve every threshold of
the sweep.  Precision/recall curves are built from the
pooled confidence-ranked detections; AP uses 101-point interpolated
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

    `dets` must be sorted by descending confidence.
    """
    flags = _match_flags(_ols_rows(dets, gts), len(gts), threshold)
    tp = sum(flags)
    return tp, len(dets) - tp, len(gts) - tp


def _ols_rows(dets, gts):
    """The det x gt OLS matrix of one frame as nested lists, -1.0 across
    classes; every threshold of the sweep reuses it."""
    if not dets or not gts:
        return [[] for _ in dets]
    d_cls, d_r, d_a = _columns(dets)
    g_cls, g_r, g_a = _columns(gts)
    sim = ols_kernel(d_r[:, None], d_a[:, None], g_r, g_a, g_cls)
    return np.where(d_cls[:, None] == g_cls, sim, -1.0).tolist()


def _match_flags(rows, n_gts, threshold):
    """Each detection row, in order, takes the untaken ground truth of
    highest OLS (the first on ties) if that OLS clears the threshold."""
    taken = [False] * n_gts
    flags = []
    for row in rows:
        best, best_ols = -1, -1.0
        for i, o in enumerate(row):
            if o > best_ols and not taken[i]:
                best, best_ols = i, o
        if best >= 0 and best_ols >= threshold:
            taken[best] = True
            flags.append(True)
        else:
            flags.append(False)
    return flags


@dataclass
class EvalResult:
    ap_total: float
    ar_total: float
    per_category: dict = field(default_factory=dict)      # tag -> (ap, ar)
    per_threshold: dict = field(default_factory=dict)     # thr -> dict with
    #   precision / recall curves (pooled ranking) and scalar ap / ar


def _ap_101(precision: np.ndarray, recall: np.ndarray) -> float:
    if len(precision) == 0:
        return 0.0
    grid = np.linspace(0.0, 1.0, 101)
    ap = 0.0
    for r in grid:
        mask = recall >= r - 1e-12
        ap += precision[mask].max() if mask.any() else 0.0
    return ap / 101.0


def _eval_frames(frames, thresholds):
    """frames: list of (dets_sorted, gts). Returns (ap, ar, per_threshold)."""
    gt_total = sum(len(g) for _, g in frames)
    neg_conf = [-d.confidence for dets, _ in frames for d in dets]
    # one stable ranking of the pooled detections serves every threshold;
    # ties, -0.0 against 0.0 included, keep frame-then-detection order
    ranked = np.array(sorted(range(len(neg_conf)), key=neg_conf.__getitem__), dtype=np.intp)
    frames = [(_ols_rows(dets, gts), len(gts)) for dets, gts in frames]
    per_threshold = {}
    aps, ars = [], []
    for thr in thresholds:
        pooled = []
        for rows, n_gts in frames:
            pooled += _match_flags(rows, n_gts, thr)
        matched = sum(pooled)
        flags = np.array(pooled, dtype=bool)[ranked]
        tp_cum = np.cumsum(flags)
        fp_cum = np.cumsum(~flags)
        precision = tp_cum / np.maximum(1, tp_cum + fp_cum)
        recall = tp_cum / gt_total if gt_total else np.zeros_like(tp_cum, dtype=float)
        ap = _ap_101(precision, recall) if gt_total else 0.0
        ar = (matched / gt_total) if gt_total else 0.0
        aps.append(ap)
        ars.append(ar)
        per_threshold[thr] = {
            "precision": precision,
            "recall": recall,
            "ap": ap,
            "ar": ar,
        }
    return float(np.mean(aps)), float(np.mean(ars)), per_threshold


def evaluate(detections, annotations, categories=None, frame_ids=None, thresholds=OLS_THRESHOLDS) -> EvalResult:
    """Aggregate AP/AR over all frames and per scenario category.

    `categories` optionally maps frame_id -> scenario tag.  `frame_ids`
    optionally fixes the frame universe; detections outside it are a data
    error (misaligned inputs).
    """
    gts_by_frame: dict[int, list] = {}
    for a in annotations:
        gts_by_frame.setdefault(a.frame_id, []).append(a)
    dets_by_frame: dict[int, list] = {}
    for d in detections:
        dets_by_frame.setdefault(d.frame_id, []).append(d)

    if frame_ids is None:
        universe = sorted(set(gts_by_frame) | set(dets_by_frame))
    else:
        universe = sorted(frame_ids)
        stray = set(dets_by_frame) - set(universe)
        if stray:
            raise DataFormatError(
                f"detections reference frames outside the dataset: {sorted(stray)[:5]}"
            )
        stray = set(gts_by_frame) - set(universe)
        if stray:
            raise DataFormatError(
                f"annotations reference frames outside the dataset: {sorted(stray)[:5]}"
            )

    def frame_list(ids):
        out = []
        for fid in ids:
            dets = sorted(dets_by_frame.get(fid, []), key=_rank_key)
            out.append((dets, gts_by_frame.get(fid, [])))
        return out

    ap, ar, per_thr = _eval_frames(frame_list(universe), thresholds)
    result = EvalResult(ap_total=ap, ar_total=ar, per_threshold=per_thr)
    if categories:
        tags = sorted({t for t in categories.values()})
        for tag in tags:
            ids = [fid for fid in universe if categories.get(fid) == tag]
            if not ids:
                continue
            cap, car_, _ = _eval_frames(frame_list(ids), thresholds)
            result.per_category[tag] = (cap, car_)
    return result


def format_report(result: EvalResult) -> str:
    lines = [f"{'category':>10s} {'AP':>8s} {'AR':>8s}"]
    lines.append(f"{'Total':>10s} {result.ap_total:8.4f} {result.ar_total:8.4f}")
    for tag in CATEGORIES:
        if tag in result.per_category:
            ap, ar = result.per_category[tag]
            lines.append(f"{tag:>10s} {ap:8.4f} {ar:8.4f}")
    return "\n".join(lines)


def write_report_kv(result: EvalResult, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"total.ap = {result.ap_total:.6f}\n")
        fh.write(f"total.ar = {result.ar_total:.6f}\n")
        for tag, (ap, ar) in sorted(result.per_category.items()):
            fh.write(f"{tag}.ap = {ap:.6f}\n")
            fh.write(f"{tag}.ar = {ar:.6f}\n")
        for thr, row in sorted(result.per_threshold.items()):
            fh.write(f"threshold.{thr:.2f}.ap = {row['ap']:.6f}\n")
            fh.write(f"threshold.{thr:.2f}.ar = {row['ar']:.6f}\n")
