"""Gaussian confidence-map codec for range-azimuth detections.

Annotations become per-class heatmaps with a Gaussian bump at each object
(peak exactly 1.0, overlaps merged by per-pixel max).  Predicted maps are
decoded back to discrete detections by strict 3x3 peak detection followed
by location-based non-maximum suppression under the object location
similarity (OLS) kernel.

OLS between two points: exp(-d^2 / (2 * s^2 * kappa_c^2)) with d the
Euclidean bin distance converted to meters, s a distance scale taken as
the mean range of the two points (clamped below at 1 m), and kappa_c a
per-class tolerance in meters.  The product s*kappa_c is clamped into the
same [2, 10]-bin band that bounds the encoding sigma, which keeps the
suppression radius proportional to the rendered spread at every range;
this is what makes decode(encode(scene)) an exact identity for scenes
whose objects are pairwise at least 6 sigma apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError
from .fileio import read_records

CLASS_NAMES = ("pedestrian", "cyclist", "car")
RANGE_RESOLUTION_M = 0.23


@dataclass(frozen=True)
class OlsParams:
    kappa_m: tuple[float, ...] = (0.5, 1.0, 2.0)
    range_resolution_m: float = RANGE_RESOLUTION_M
    min_scale_m: float = 1.0
    sigma_lo_bins: float = 2.0
    sigma_hi_bins: float = 10.0

    def kappa(self, class_id: int) -> float:
        if not 0 <= class_id < len(self.kappa_m):
            raise ConfigError(f"class_id {class_id} outside kappa table")
        return self.kappa_m[class_id]

    def scale_m(self, range_bin: float) -> float:
        """Distance scale s: the range in meters, clamped below at 1 m."""
        return max(self.min_scale_m, self.range_resolution_m * float(range_bin))

    def sigma_bins(self, class_id: int, range_bin: float) -> float:
        """Encoding spread for (class, range): the class tolerance scaled by
        the object's range, expressed in bins, clamped to [sigma_lo, sigma_hi]."""
        sigma = self.scale_m(range_bin) * self.kappa(class_id) / self.range_resolution_m
        return float(np.clip(sigma, self.sigma_lo_bins, self.sigma_hi_bins))


DEFAULT_OLS = OlsParams()


@dataclass(frozen=True)
class Annotation:
    frame_id: int
    class_id: int
    range_bin: int
    azimuth_bin: int


@dataclass(frozen=True)
class Detection:
    class_id: int
    range_bin: int
    azimuth_bin: int
    confidence: float
    frame_id: int = 0


def _check_grid(obj, k: int, h: int, w: int) -> None:
    if not (0 <= obj.class_id < k and 0 <= obj.range_bin < h and 0 <= obj.azimuth_bin < w):
        raise DataFormatError(
            f"annotation {obj} outside grid (K={k}, H={h}, W={w})"
        )


def encode_confmap(annotations, k: int, h: int, w: int, params: OlsParams = DEFAULT_OLS) -> np.ndarray:
    """Render annotations into a (K,H,W) float array in [0,1]."""
    cm = np.zeros((k, h, w))
    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]
    for ann in annotations:
        _check_grid(ann, k, h, w)
        sigma = params.sigma_bins(ann.class_id, ann.range_bin)
        d2 = (rows - ann.range_bin) ** 2 + (cols - ann.azimuth_bin) ** 2
        bump = np.exp(-d2 / (2.0 * sigma * sigma))
        np.maximum(cm[ann.class_id], bump, out=cm[ann.class_id])
    return cm


def ols(p, g, params: OlsParams = DEFAULT_OLS) -> float:
    """Similarity in [0,1] between two same-grid points; symmetric in the
    two locations (the scale uses their mean range).  The kernel width
    s*kappa is clamped to the encoding-sigma band, so similarity contours
    track the rendered Gaussian spread."""
    res = params.range_resolution_m
    d_bins = float(np.hypot(p.range_bin - g.range_bin, p.azimuth_bin - g.azimuth_bin))
    sigma_bins = params.sigma_bins(g.class_id, 0.5 * (p.range_bin + g.range_bin))
    d_m = res * d_bins
    sk_m = res * sigma_bins
    return float(np.exp(-(d_m * d_m) / (2.0 * sk_m * sk_m)))


def _rank_key(d: Detection):
    """Descending confidence; ties break on (class, range, azimuth)."""
    return (-d.confidence, d.class_id, d.range_bin, d.azimuth_bin)


def peak_detect(confmap: np.ndarray, floor: float = 0.3) -> list[Detection]:
    """Strict 3x3 local maxima above `floor`, one candidate per (class,
    pixel), sorted by descending confidence; ties break on (class, range,
    azimuth) for determinism."""
    if not 0.0 <= floor < 1.0:
        raise ConfigError(f"peak floor must lie in [0,1), got {floor}")
    k, h, w = confmap.shape
    padded = np.full((k, h + 2, w + 2), -np.inf)
    padded[:, 1:-1, 1:-1] = confmap
    center = padded[:, 1:-1, 1:-1]
    strict_max = center > floor
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            neighbor = padded[:, 1 + dr:h + 1 + dr, 1 + dc:w + 1 + dc]
            strict_max &= center > neighbor
    out = [
        Detection(int(c), int(r), int(a), float(confmap[c, r, a]))
        for c, r, a in zip(*np.nonzero(strict_max))
    ]
    out.sort(key=_rank_key)
    return out


def l_nms(candidates, ols_threshold: float, params: OlsParams = DEFAULT_OLS) -> list[Detection]:
    """Greedy location NMS: accept the best remaining candidate, drop any
    same-class candidate whose OLS against it exceeds the threshold."""
    pending = list(candidates)
    accepted: list[Detection] = []
    while pending:
        best = pending.pop(0)
        accepted.append(best)
        pending = [
            c
            for c in pending
            if c.class_id != best.class_id or ols(c, best, params) <= ols_threshold
        ]
    return accepted


def decode_confmap(confmap, floor: float = 0.3, ols_threshold: float = 0.3,
                   params: OlsParams = DEFAULT_OLS) -> list[Detection]:
    return l_nms(peak_detect(confmap, floor), ols_threshold, params)


# ---------------------------------------------------------------------------
# line-oriented annotation / detection files
#
# annotations: "frame_id class_id range_bin azimuth_bin"
# detections:  same four fields plus confidence with 6 decimal digits


def write_annotations(path, annotations) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for a in annotations:
            fh.write(f"{a.frame_id} {a.class_id} {a.range_bin} {a.azimuth_bin}\n")


def read_annotations(path) -> list[Annotation]:
    return [Annotation(*v) for _, v in read_records(path, (int, int, int, int))]


def write_detections(path, detections) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for d in detections:
            fh.write(
                f"{d.frame_id} {d.class_id} {d.range_bin} {d.azimuth_bin} {d.confidence:.6f}\n"
            )


def read_detections(path) -> list[Detection]:
    records = read_records(path, (int, int, int, int, float))
    return [Detection(v[1], v[2], v[3], v[4], frame_id=v[0]) for _, v in records]
