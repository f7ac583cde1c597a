"""Independent brute-force oracles used across the test suite.

Everything here is written as plain nested loops on numpy scalars so it
shares no code path with the library.  The optional MacCounter literally
increments once per multiply-accumulate, providing the instrumented
reference for the profiler's closed-form counts.  ``finite_diff_check``
compares the tape's gradients with central finite differences of the
forward.
"""

import numpy as np

from radarkit import tensor as T
from radarkit.confmap import Annotation, Detection
from radarkit.errors import ConfigError, UsageError
from radarkit.synth import (
    BLOB_SIGMA_AZIMUTH_BINS,
    BLOB_SIGMA_RANGE_BINS,
    CHIRP_INDICES,
    CHIRPS_PER_FRAME,
    FRAME_RATE_HZ,
    SCENARIOS,
    WAVELENGTH_M,
    Scene,
    SynthConfig,
    _bin_of,
)


class MacCounter:
    def __init__(self):
        self.macs = 0


def matmul_loops(a, b, counter=None):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for l in range(k):
                acc += a[i, l] * b[l, j]
                if counter is not None:
                    counter.macs += 1
            out[i, j] = acc
    return out


def conv2d_loops(x, w, bias=None, stride=(1, 1), padding=(0, 0), counter=None):
    B, Cin, H, W = x.shape
    Cout, _, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    Ho = (H + 2 * ph - kh) // sh + 1
    Wo = (W + 2 * pw - kw) // sw + 1
    out = np.zeros((B, Cout, Ho, Wo), dtype=x.dtype)
    for b in range(B):
        for co in range(Cout):
            for i in range(Ho):
                for j in range(Wo):
                    acc = 0.0 if bias is None else float(bias[co])
                    for ci in range(Cin):
                        for u in range(kh):
                            for v in range(kw):
                                hi = i * sh + u - ph
                                wi = j * sw + v - pw
                                if 0 <= hi < H and 0 <= wi < W:
                                    acc += x[b, ci, hi, wi] * w[co, ci, u, v]
                                if counter is not None:
                                    counter.macs += 1
                    out[b, co, i, j] = acc
    return out


def conv3d_loops(x, w, bias=None, stride=(1, 1, 1), padding=(0, 0, 0), counter=None):
    B, Cin, T, H, W = x.shape
    Cout, _, kt, kh, kw = w.shape
    st, sh, sw = stride
    pt, ph, pw = padding
    To = (T + 2 * pt - kt) // st + 1
    Ho = (H + 2 * ph - kh) // sh + 1
    Wo = (W + 2 * pw - kw) // sw + 1
    out = np.zeros((B, Cout, To, Ho, Wo), dtype=x.dtype)
    for b in range(B):
        for co in range(Cout):
            for t in range(To):
                for i in range(Ho):
                    for j in range(Wo):
                        acc = 0.0 if bias is None else float(bias[co])
                        for ci in range(Cin):
                            for r in range(kt):
                                for u in range(kh):
                                    for v in range(kw):
                                        ti = t * st + r - pt
                                        hi = i * sh + u - ph
                                        wi = j * sw + v - pw
                                        if 0 <= ti < T and 0 <= hi < H and 0 <= wi < W:
                                            acc += x[b, ci, ti, hi, wi] * w[co, ci, r, u, v]
                                        if counter is not None:
                                            counter.macs += 1
                        out[b, co, t, i, j] = acc
    return out


def conv3d_grad_loops(x, w, g, stride=(1, 1, 1), padding=(0, 0, 0)):
    """The x, w and bias gradients of sum(g * conv3d_loops(x, w, bias,
    stride, padding)); a 2-D convolution is the case kt = T = 1."""
    B, Cin, T, H, W = x.shape
    Cout, _, kt, kh, kw = w.shape
    st, sh, sw = stride
    pt, ph, pw = padding
    gx, gw = np.zeros_like(x), np.zeros_like(w)
    for b, co, t, i, j in np.ndindex(*g.shape):
        for ci, r, u, v in np.ndindex(Cin, kt, kh, kw):
            ti = t * st + r - pt
            hi = i * sh + u - ph
            wi = j * sw + v - pw
            if 0 <= ti < T and 0 <= hi < H and 0 <= wi < W:
                gx[b, ci, ti, hi, wi] += g[b, co, t, i, j] * w[co, ci, r, u, v]
                gw[co, ci, r, u, v] += g[b, co, t, i, j] * x[b, ci, ti, hi, wi]
    return gx, gw, g.sum(axis=(0, 2, 3, 4))


def lnms_loops(candidates, threshold, ols_fn):
    """Quadratic greedy suppression with explicit flags, independent of the
    library's list-rebuilding implementation.  Candidates must already be
    sorted by descending confidence."""
    n = len(candidates)
    suppressed = [False] * n
    accepted = []
    for i in range(n):
        if suppressed[i]:
            continue
        accepted.append(candidates[i])
        for j in range(i + 1, n):
            if suppressed[j]:
                continue
            same_class = candidates[j].class_id == candidates[i].class_id
            if same_class and ols_fn(candidates[j], candidates[i]) > threshold:
                suppressed[j] = True
    return accepted


def ols_scalar(p, g, params):
    """OLS of one point pair on Python floats, one numpy scalar call per
    step: hypot, the mean-range scale clamped at `min_scale_m`,
    (scale*kappa)/res clipped to the sigma band, exp.  The kappa of `g`'s
    class is looked up with the same range check as the library's."""
    res = params.range_resolution_m
    if not 0 <= g.class_id < len(params.kappa_m):
        raise ConfigError(f"class_id {g.class_id} outside kappa table")
    d_bins = float(np.hypot(p.range_bin - g.range_bin, p.azimuth_bin - g.azimuth_bin))
    scale = max(params.min_scale_m, res * float(0.5 * (p.range_bin + g.range_bin)))
    sigma_bins = float(np.clip(scale * params.kappa_m[g.class_id] / res,
                               params.sigma_lo_bins, params.sigma_hi_bins))
    d_m = res * d_bins
    sk_m = res * sigma_bins
    return float(np.exp(-(d_m * d_m) / (2.0 * sk_m * sk_m)))


def decode_scalar(confmap, floor, ols_threshold, params):
    """The ConfMap decoder on Python objects: strict 3x3 maxima above
    `floor`, one Detection each, sorted in Python on (-confidence, class,
    range, azimuth), then `lnms_loops` comparing same-class pairs with
    `ols_scalar`."""
    k, h, w = confmap.shape
    padded = np.full((k, h + 2, w + 2), -np.inf)
    padded[:, 1:-1, 1:-1] = confmap
    center = padded[:, 1:-1, 1:-1]
    strict_max = center > floor
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if (dr, dc) != (0, 0):
                strict_max &= center > padded[:, 1 + dr:h + 1 + dr, 1 + dc:w + 1 + dc]
    pending = [
        Detection(int(c), int(r), int(a), float(confmap[c, r, a]))
        for c, r, a in zip(*np.nonzero(strict_max))
    ]
    pending.sort(key=lambda d: (-d.confidence, d.class_id, d.range_bin, d.azimuth_bin))
    return lnms_loops(pending, ols_threshold, lambda c, b: ols_scalar(c, b, params))


def greedy_match_scalar(dets, gts, threshold, params):
    """Per-detection hit flags of greedy matching on one frame: each
    detection, in the order given, takes the untaken same-class ground
    truth of highest `ols_scalar` (the first on ties) if it clears the
    threshold."""
    taken = [False] * len(gts)
    flags = []
    for det in dets:
        best, best_ols = -1, -1.0
        for i, gt in enumerate(gts):
            if taken[i] or gt.class_id != det.class_id:
                continue
            o = ols_scalar(det, gt, params)
            if o > best_ols:
                best, best_ols = i, o
        hit = best >= 0 and best_ols >= threshold
        if hit:
            taken[best] = True
        flags.append(hit)
    return flags


def match_frame_best_assignment(dets, gts, threshold, ols_fn):
    """Exhaustive search over one-to-one same-class assignments maximizing
    the number of matches with OLS >= threshold; returns that maximum."""
    import itertools

    best = 0
    n, m = len(dets), len(gts)
    for k in range(min(n, m), -1, -1):
        if k <= best:
            break
        for det_idx in itertools.permutations(range(n), k):
            for gt_idx in itertools.combinations(range(m), k):
                ok = all(
                    dets[d].class_id == gts[g].class_id
                    and ols_fn(dets[d], gts[g]) >= threshold
                    for d, g in zip(det_idx, gt_idx)
                )
                if ok:
                    best = max(best, k)
                    break
            if best == k:
                break
    return best


def render_loops(scene: Scene, cfg: SynthConfig = SynthConfig(), dtype=np.float32):
    """The renderer as it was before the noise draw moved to a worker
    thread: targets summed frame by frame in f64, then the f64 noise
    scaled and added on the calling thread, then one cast to `dtype`."""
    t_frames, c, h, w = cfg.frames, len(CHIRP_INDICES), cfg.height, cfg.width
    cube = np.zeros((2, t_frames, c, h, w))
    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]
    dt_chirp = (1.0 / FRAME_RATE_HZ) / CHIRPS_PER_FRAME
    annotations: list[Annotation] = []

    for t in range(t_frames):
        for tgt in scene.targets:
            range_now = tgt.range_m + tgt.speed_mps * t / FRAME_RATE_HZ
            rb, ab = _bin_of(range_now, tgt.azimuth_deg, cfg)
            blob = tgt.amplitude * np.exp(
                -((rows - rb) ** 2) / (2 * BLOB_SIGMA_RANGE_BINS ** 2)
                - ((cols - ab) ** 2) / (2 * BLOB_SIGMA_AZIMUTH_BINS ** 2)
            )
            for ci, chirp_idx in enumerate(CHIRP_INDICES):
                phase = (
                    2.0 * np.pi * 2.0
                    * (range_now + tgt.speed_mps * chirp_idx * dt_chirp)
                    / WAVELENGTH_M
                )
                cube[0, t, ci] += blob * np.cos(phase)
                cube[1, t, ci] += blob * np.sin(phase)
            annotations.append(
                Annotation(t, tgt.class_id, int(round(rb)), int(round(ab)))
            )
    if cfg.noise_sigma > 0:
        noise_rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((scene.seed, 97, SCENARIOS.index(scene.scenario))))
        )
        cube += cfg.noise_sigma * noise_rng.standard_normal(cube.shape)
    return cube.astype(dtype), annotations


def msa_loops(tokens, wq, wk, wv, bq, bk, bv, wo, bo, heads, counter=None):
    """Step-by-step multi-head self-attention on one batch of token groups.

    tokens: (Bw, N, S).  Weight matrices are (S, S); the per-head split is
    done explicitly on columns.
    """
    Bw, N, S = tokens.shape
    sl = S // heads
    out = np.zeros_like(tokens)
    for bi in range(Bw):
        x = tokens[bi]
        q = matmul_loops(x, wq, counter) + bq
        k = matmul_loops(x, wk, counter) + bk
        v = matmul_loops(x, wv, counter) + bv
        merged = np.zeros((N, S), dtype=tokens.dtype)
        for h in range(heads):
            qs = q[:, h * sl:(h + 1) * sl]
            ks = k[:, h * sl:(h + 1) * sl]
            vs = v[:, h * sl:(h + 1) * sl]
            scores = matmul_loops(qs, ks.T, counter) / np.sqrt(sl)
            attn = np.zeros_like(scores)
            for i in range(N):
                row = scores[i] - scores[i].max()
                e = np.exp(row)
                attn[i] = e / e.sum()
            merged[:, h * sl:(h + 1) * sl] = matmul_loops(attn, vs, counter)
        out[bi] = matmul_loops(merged, wo, counter) + bo
    return out


def finite_diff_check(f, xs, eps: float = 1e-5) -> float:
    """Max relative error between tape gradients of scalar f(*xs) and
    central finite differences, taken over every coordinate of every
    input with requires_grad; frozen inputs are skipped.

    Relative error per coordinate: |analytic - numeric| / max(1, |numeric|).
    """
    xs = list(xs)
    for x in xs:
        x.zero_grad()
    T.reset_tape()
    out = f(*xs)
    if out.shape != ():
        raise UsageError("finite_diff_check requires a scalar-valued function")
    T.backward(out)
    analytic = [x.grad.copy() if x.requires_grad else None for x in xs]

    worst = 0.0
    with T.no_grad():
        for x, an in zip(xs, analytic):
            if not x.requires_grad:
                continue
            flat = x.data.reshape(-1)
            gflat = an.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                fp = f(*xs).item()
                flat[i] = orig - eps
                fm = f(*xs).item()
                flat[i] = orig
                numeric = (fp - fm) / (2.0 * eps)
                err = abs(gflat[i] - numeric) / max(1.0, abs(numeric))
                worst = max(worst, err)
    T.reset_tape()
    return worst
