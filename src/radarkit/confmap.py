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

One OLS, `DEFAULT_OLS` on the `RANGE_RESOLUTION_M` grid that `synth`
renders, serves the encoder, the decoder and AP/AR matching in `evaluation`.

One broadcasting f64 kernel, `ols_kernel`, computes OLS for the decoder,
for AP/AR matching in `evaluation` and, as a 0-d call, for the scalar
`ols`; all three therefore give the same bits for the same points.  Peak
candidates are ranked on arrays with one `np.lexsort`, and L-NMS is a
greedy pass per class over array rows: each accepted candidate evaluates
the kernel against the still-pending rows of its class and drops those
above the threshold, so memory stays linear in the candidate count.  The
pass looks up its class's kappa once and calls the kernel's body,
`_ols_body`, which `ols_kernel` itself ends in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError, ShapeError
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

    def kappa(self, class_id):
        """Class tolerance in meters for a class id or an array of ids; an
        id outside the table raises instead of wrapping around."""
        ids = np.asarray(class_id)
        bad = (ids < 0) | (ids >= len(self.kappa_m))
        if bad.any():
            raise ConfigError(f"class_id {ids[bad][0]} outside kappa table")
        return np.asarray(self.kappa_m)[ids]

    def sigma_bins(self, class_id, range_bin):
        """Encoding spread for (class, range), broadcast over arrays: the
        class tolerance times the distance scale (the range in meters,
        clamped below at 1 m), expressed in bins, clamped to
        [sigma_lo, sigma_hi]."""
        return _sigma_band(self.kappa(class_id), range_bin, self)


def _sigma_band(kappa, range_bin, params: OlsParams):
    """`OlsParams.sigma_bins` for an already looked-up kappa in meters."""
    res = params.range_resolution_m
    scale = np.maximum(params.min_scale_m, res * range_bin)
    sigma = scale * kappa / res
    # np.clip's order of operations, without its Python-level dispatch
    return np.minimum(np.maximum(sigma, params.sigma_lo_bins), params.sigma_hi_bins)


DEFAULT_OLS = OlsParams()


@dataclass(frozen=True, slots=True)
class Annotation:
    frame_id: int
    class_id: int
    range_bin: int
    azimuth_bin: int


@dataclass(frozen=True, slots=True)
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


def encode_confmap(annotations, k: int, h: int, w: int) -> np.ndarray:
    """Render annotations into a (K,H,W) float array in [0,1]."""
    cm = np.zeros((k, h, w))
    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]
    for ann in annotations:
        _check_grid(ann, k, h, w)
        sigma = DEFAULT_OLS.sigma_bins(ann.class_id, ann.range_bin)
        d2 = (rows - ann.range_bin) ** 2 + (cols - ann.azimuth_bin) ** 2
        bump = np.exp(-d2 / (2.0 * sigma * sigma))
        np.maximum(cm[ann.class_id], bump, out=cm[ann.class_id])
    return cm


def ols_kernel(r, a, g_r, g_a, g_class):
    """OLS in [0,1] between points (r, a) and same-grid points (g_r, g_a)
    of class `g_class`, broadcast elementwise in f64.  Symmetric in the two
    locations (the scale uses their mean range).  The kernel width
    s*kappa is clamped to the encoding-sigma band, so similarity contours
    track the rendered Gaussian spread."""
    return _ols_body(r, a, g_r, g_a, DEFAULT_OLS.kappa(g_class), DEFAULT_OLS)


def _ols_body(r, a, g_r, g_a, kappa, params: OlsParams):
    """`ols_kernel` for an already looked-up kappa in meters."""
    res = params.range_resolution_m
    d_bins = np.hypot(np.subtract(r, g_r), np.subtract(a, g_a))
    sigma_bins = _sigma_band(kappa, 0.5 * np.add(r, g_r), params)
    d_m = res * d_bins
    sk_m = res * sigma_bins
    return np.exp(-(d_m * d_m) / (2.0 * sk_m * sk_m))


def ols(p, g) -> float:
    """`ols_kernel` for one point pair; the class is taken from `g`."""
    return float(ols_kernel(p.range_bin, p.azimuth_bin, g.range_bin, g.azimuth_bin, g.class_id))


def _rank_key(d: Detection):
    """Descending confidence; ties break on (class, range, azimuth)."""
    return (-d.confidence, d.class_id, d.range_bin, d.azimuth_bin)


def peak_detect(confmap: np.ndarray, floor: float = 0.3) -> list[Detection]:
    """Strict 3x3 local maxima above `floor`, one candidate per (class,
    pixel), sorted by descending confidence; ties break on (class, range,
    azimuth) for determinism, as in `_rank_key`."""
    if not 0.0 <= floor < 1.0:
        raise ConfigError(f"peak floor must lie in [0,1), got {floor}")
    if confmap.ndim != 3:
        raise ShapeError(f"confmap must be (K, H, W), got shape {confmap.shape}")
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
    c, r, a = np.nonzero(strict_max)
    conf = confmap[c, r, a].astype(np.float64)
    order = np.lexsort((a, r, c, -conf))
    rows = zip(c[order].tolist(), r[order].tolist(), a[order].tolist(), conf[order].tolist())
    return [Detection(*row) for row in rows]


def _columns(points):
    """Class ids, and range and azimuth bins in f64 (exact for integer bins
    up to 2**53), of detections or annotations as arrays."""
    return (np.array([p.class_id for p in points]),
            np.array([p.range_bin for p in points], dtype=np.float64),
            np.array([p.azimuth_bin for p in points], dtype=np.float64))


def l_nms(candidates, ols_threshold: float) -> list[Detection]:
    """Greedy location NMS over the candidates in the order given: accept
    the first pending candidate, drop every pending same-class candidate
    whose OLS against it exceeds the threshold, repeat.  Classes never
    suppress each other, so each class runs its own pass over index arrays;
    the survivors keep their input order."""
    candidates = list(candidates)
    cls, r, a = _columns(candidates)
    kept = []
    for c in np.unique(cls):
        kappa = DEFAULT_OLS.kappa(c)
        pending = np.flatnonzero(cls == c)
        while pending.size:
            best, pending = pending[0], pending[1:]
            kept.append(best)
            if pending.size:
                sim = _ols_body(r[pending], a[pending], r[best], a[best], kappa, DEFAULT_OLS)
                pending = pending[sim <= ols_threshold]
    return [candidates[i] for i in sorted(kept)]


def decode_confmap(confmap, floor: float = 0.3, ols_threshold: float = 0.3) -> list[Detection]:
    return l_nms(peak_detect(confmap, floor), ols_threshold)


# ---------------------------------------------------------------------------
# line-oriented annotation / detection files
#
# annotations: "frame_id class_id range_bin azimuth_bin", class_id a CLASS_NAMES index
# detections:  same four fields plus a finite confidence with 6 decimal digits
#
# The readers refuse any other class id or confidence with a DataFormatError
# naming the file and line.


def write_annotations(path, annotations) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for a in annotations:
            fh.write(f"{a.frame_id} {a.class_id} {a.range_bin} {a.azimuth_bin}\n")


def _class_id(word: str) -> int:
    class_id = int(word)
    if not 0 <= class_id < len(CLASS_NAMES):
        raise ValueError(f"class id {class_id} outside 0..{len(CLASS_NAMES) - 1}")
    return class_id


def _confidence(word: str) -> float:
    confidence = float(word)
    if not math.isfinite(confidence):
        raise ValueError(f"confidence {word!r} is not finite")
    return confidence


def read_annotations(path) -> list[Annotation]:
    return [Annotation(*v) for _, v in read_records(path, (int, _class_id, int, int))]


def write_detections(path, detections) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for d in detections:
            fh.write(
                f"{d.frame_id} {d.class_id} {d.range_bin} {d.azimuth_bin} {d.confidence:.6f}\n"
            )


def read_detections(path) -> list[Detection]:
    records = read_records(path, (int, _class_id, int, int, _confidence))
    return [Detection(v[1], v[2], v[3], v[4], frame_id=v[0]) for _, v in records]
