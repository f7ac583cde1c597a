"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed alone, runs one
operation at a time (closed loop, one caller thread) and checks outputs
outside the timed regions:

- ``ref-infer``: the radarformer-ref f32 forward under ``no_grad`` in eval
  mode, weights loaded through ``models.load_checkpoint`` from a checkpoint
  written during set-up.  The headline forward; no synth, confmap or
  evaluation code runs.
- ``train-step``: one radarformer-ref f32 training step (forward_logits,
  bce_with_logits against the encoded ConfMaps of a seeded synthetic
  scene, backward, zero_grad) at 32x32, where the tape and its saved
  im2col columns set the memory.
- ``frame-pipeline``: 32-frame clips at 128x128, eight per operation (two
  per scenario), through scene generation, rendering, a RAMC write/read
  round trip, ConfMap encoding, a stand-in detector map, decoding and one
  evaluate over all clips.  No model code runs, so a model change must
  leave it flat.

Every workload also has a toy size (radarformer-tiny; 8-frame clips at
32x32) that the smoke tests run in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from radarkit import confmap, evaluation, models, synth
from radarkit import tensor as T

# Tolerances fixed before measuring, from f32 rounding (eps 1.2e-7)
# compounding through the 16 radarformer-ref blocks.  The disagreement with
# the f64 forward measured on seeds 1 and 2 was below 1e-7 (outputs) and
# 4e-8 (relative loss), about 100x inside these.
OUTPUT_ATOL = 1e-5      # sigmoid outputs of the f32 vs f64 forward
LOSS_RTOL = 1e-5        # f32 vs f64 BCE loss of one training step
EVAL_ATOL = 1e-12       # evaluate() vs the reference AP/AR

STANDIN_NOISE_SIGMA = 0.10


def _rng(*key) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def _by_frame(annotations) -> dict[int, list]:
    out: dict[int, list] = {}
    for a in annotations:
        out.setdefault(a.frame_id, []).append(a)
    return out


class Workload:
    """One operation at a time on state built by ``setup``.

    ``before_op`` runs untimed ahead of each operation; ``finish`` is timed
    work done once over all steady operations' outputs."""

    name = ""
    min_steady = 1          # steady operations run even past --seconds
    frames_per_op = 1

    def setup(self) -> dict:
        raise NotImplementedError

    def prepare(self, state) -> None:
        """Put the state into measuring mode (inside preserved_state)."""

    def before_op(self, state, index) -> None:
        pass

    def op(self, state, index, hooks=None):
        raise NotImplementedError

    def check_op(self, state, out) -> str | None:
        return None

    def check_run(self, state) -> list[str]:
        return []

    def finish(self, outs):
        return None

    def check_finish(self, outs, result) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# ref-infer


class RefInfer(Workload):
    """radarformer-ref f32 forward at (1,2,32,4,128,128)."""

    name = "ref-infer"

    def __init__(self, seed: int, workdir, toy: bool = False):
        base = models.reference_config("radarformer-tiny" if toy else "radarformer-ref")
        self.cfg = replace(base, init_seed=seed)
        self.seed = seed
        self.path = workdir / "ref-infer.rfck"
        c = self.cfg
        self.shape = (1, 2, c.frames, c.chirps, c.height, c.width)
        self.check_hw = (16, 16) if toy else (32, 32)
        self.frames_per_op = c.frames

    def setup(self):
        model = models.build_model(self.cfg, dtype=np.float32)
        models.save_checkpoint(model, self.path)
        model = models.load_checkpoint(self.path, dtype=np.float32)
        model.set_training(False)
        cube = T.uniform(self.shape, self.seed, -1.0, 1.0, dtype=np.float32)
        return {"model": model, "cube": cube}

    def prepare(self, state) -> None:
        state["model"].set_training(False)

    def op(self, state, index, hooks=None):
        with T.no_grad():
            return state["model"](state["cube"])

    def check_op(self, state, out) -> str | None:
        c = self.cfg
        want = (1, c.num_classes, c.frames, c.height, c.width)
        y = out.data
        if y.shape != want:
            return f"output shape {y.shape} != {want}"
        if not np.all(np.isfinite(y)):
            return "non-finite output"
        if not (np.all(y > 0) and np.all(y < 1)):
            return "output not strictly inside (0,1)"
        return None

    def check_run(self, state) -> list[str]:
        """f32 forward vs an f64 forward of the same checkpoint weights on a
        reduced-resolution cut of the measured input."""
        h, w = self.check_hw
        cube32 = np.ascontiguousarray(state["cube"].data[..., :h, :w])
        m64 = models.load_checkpoint(self.path, dtype=np.float64)
        m64.set_training(False)
        with T.no_grad():
            y32 = state["model"](T.from_array(cube32, dtype=np.float32)).data
            y64 = m64(T.from_array(cube32, dtype=np.float64)).data
        err = float(np.max(np.abs(y32.astype(np.float64) - y64)))
        if not err <= OUTPUT_ATOL:
            return [f"f32 vs f64 forward differ by {err:.3g} > {OUTPUT_ATOL}"]
        return []


# ---------------------------------------------------------------------------
# train-step


def scene_batch(seed: int, cfg: synth.SynthConfig, num_classes: int):
    """(1,2,T,C,H,W) rendered cube and (1,K,T,H,W) encoded ConfMap targets
    of one seeded synthetic scene."""
    scene = synth.generate_scene(seed, "CR", cfg)
    cube, anns = synth.render_ramap(scene, cfg, dtype=np.float32)
    by_frame = _by_frame(anns)
    maps = [
        confmap.encode_confmap(by_frame.get(t, []), num_classes, cfg.height, cfg.width)
        for t in range(cfg.frames)
    ]
    targets = np.stack(maps, axis=1)[None].astype(np.float32)
    return cube[None], targets


def train_step(model, cube, targets, hooks=None) -> float:
    """forward_logits, BCE against the ConfMaps, backward, zero_grad.

    `hooks`, when given, is called after the loss and after backward (the
    traced run wraps the tape there)."""
    T.reset_tape()
    logits = model.forward_logits(cube)
    loss = T.bce_with_logits(logits, targets)
    if hooks is not None:
        hooks.after_forward()
    T.backward(loss)
    if hooks is not None:
        hooks.after_backward()
    for p in model.params():
        p.zero_grad()
    return loss.item()


class TrainStep(Workload):
    """radarformer-ref f32 training step at (1,2,32,4,32,32)."""

    name = "train-step"
    min_steady = 3

    def __init__(self, seed: int, workdir, toy: bool = False):
        base = models.reference_config("radarformer-tiny" if toy else "radarformer-ref")
        self.cfg = replace(base, init_seed=seed, height=32, width=32)
        self.seed = seed
        c = self.cfg
        self.synth_cfg = synth.SynthConfig(height=c.height, width=c.width, frames=c.frames)
        self.frames_per_op = c.frames

    def setup(self):
        model = models.build_model(self.cfg, dtype=np.float32)
        cube, targets = scene_batch(self.seed, self.synth_cfg, self.cfg.num_classes)
        return {"model": model, "cube": T.from_array(cube, dtype=np.float32), "targets": targets}

    def prepare(self, state) -> None:
        model = state["model"]
        model.set_training(True)
        for p in model.params():
            p.requires_grad = True

    def op(self, state, index, hooks=None):
        return train_step(state["model"], state["cube"], state["targets"], hooks)

    def check_op(self, state, loss) -> str | None:
        if not math.isfinite(loss):
            return f"non-finite loss {loss}"
        state.setdefault("first_loss", loss)
        return None

    def check_run(self, state) -> list[str]:
        """Loss of the first measured step vs the f64 loss of the same
        weights and batch (training-mode forward; backward does not change
        the loss)."""
        m32 = state["model"]
        m64 = models.build_model(self.cfg, dtype=np.float64)
        for (_, p64), (_, p32) in zip(m64.named_params(), m32.named_params()):
            p64.data = p32.data.astype(np.float64)
        m64.set_training(True)
        with T.no_grad():
            logits = m64.forward_logits(T.from_array(state["cube"].data, dtype=np.float64))
            loss64 = T.bce_with_logits(logits, state["targets"]).item()
        loss32 = state["first_loss"]
        rel = abs(loss32 - loss64) / abs(loss64)
        if not rel <= LOSS_RTOL:
            return [f"f32 loss {loss32} vs f64 {loss64}: relative error {rel:.3g} > {LOSS_RTOL}"]
        return []


# ---------------------------------------------------------------------------
# frame-pipeline


@dataclass
class ClipBatch:
    round_trips: list       # (written, read) cube per clip, until check_op
    annotations: list
    detections: list
    frame_ids: range


TARGETS_PER_CLIP = 5


def class_counts(scenario: str, n: int = TARGETS_PER_CLIP) -> tuple[int, ...]:
    """The scenario's expected class counts for `n` targets, rounded by
    largest remainder: PL (3,1,1), CR (2,2,1), CS (2,1,2), HW (0,1,4)."""
    exact = [n * p for p in synth.PROFILES[scenario].class_mix]
    counts = [math.floor(e) for e in exact]
    by_remainder = sorted(range(len(exact)), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    return tuple(counts)


class FramePipeline(Workload):
    """32-frame 128x128 clips, scenarios PL/CR/CS/HW in turn.

    One operation is two rounds of the four scenarios (eight clips, about
    7 s on a 2-core x86 host), so that every operation does the same mix of
    work and is long enough to average over the host's CPU-speed swings: a
    single clip moves by a quarter between runs, and the median of shorter
    operations flips between the host's fast and slow phases.

    Decode cost grows with the square of each class's peak candidates, so
    a clip's cost follows its target count and class mix: each clip is the
    first seeded scene with exactly the scenario's expected class counts
    (``class_counts``).  The seed still draws every position, range, speed
    and amplitude, and the stand-in noise."""

    name = "frame-pipeline"
    min_steady = 3
    rounds = 2

    def __init__(self, seed: int, workdir, toy: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.cfg = synth.SynthConfig(height=32, width=32, frames=8) if toy else synth.SynthConfig(frames=32)
        self.scenarios = synth.SCENARIOS * self.rounds
        self.frames_per_op = len(self.scenarios) * self.cfg.frames
        self.num_classes = len(confmap.CLASS_NAMES)

    def setup(self):
        return {"path": self.workdir / "clip.ramc", "scene_seeds": {}}

    def before_op(self, state, index) -> None:
        """Search the scene seed of each clip of the operation (untimed;
        about 40 cheap draws per clip)."""
        for clip, scenario in enumerate(self.scenarios):
            want = class_counts(scenario)
            draw = _rng(self.seed, index, clip)
            while True:
                seed = int(draw.integers(2**31))
                scene = synth.generate_scene(seed, scenario, self.cfg)
                got = np.bincount([t.class_id for t in scene.targets], minlength=self.num_classes)
                if tuple(got) == want:
                    state["scene_seeds"][index, clip] = seed
                    break

    def op(self, state, index, hooks=None) -> ClipBatch:
        cfg, k = self.cfg, self.num_classes
        first = index * self.frames_per_op
        out = ClipBatch([], [], [], range(first, first + self.frames_per_op))
        for clip, scenario in enumerate(self.scenarios):
            scene = synth.generate_scene(state["scene_seeds"][index, clip], scenario, cfg)
            cube, anns = synth.render_ramap(scene, cfg)
            synth.write_sequence(state["path"], cube)
            out.round_trips.append((cube, synth.read_sequence(state["path"])))
            base = first + clip * cfg.frames
            by_frame = _by_frame(anns)
            noise = _rng(self.seed, index, clip, 1)
            for t in range(cfg.frames):
                cm = confmap.encode_confmap(by_frame.get(t, []), k, cfg.height, cfg.width)
                # stand-in detector: ground truth plus seeded noise, so the
                # decoder sees the peak counts a trained model would give
                pred = np.clip(cm + noise.normal(0.0, STANDIN_NOISE_SIGMA, cm.shape), 0.0, 1.0)
                out.detections.extend(replace(d, frame_id=base + t) for d in confmap.decode_confmap(pred))
            out.annotations.extend(replace(a, frame_id=base + a.frame_id) for a in anns)
        return out

    def check_op(self, state, batch: ClipBatch) -> str | None:
        ok = all(r.dtype == np.float32 and np.array_equal(r, w) for w, r in batch.round_trips)
        # the cubes are not needed past this check
        batch.round_trips = []
        return None if ok else "read_sequence differs from what write_sequence wrote"

    def finish(self, batches):
        dets, anns, ids = _pooled(batches)
        return evaluation.evaluate(dets, anns, frame_ids=ids)

    def check_finish(self, batches, result) -> list[str]:
        dets, anns, _ = _pooled(batches)
        ap, ar = reference_ap_ar(dets, anns)
        if abs(ap - result.ap_total) <= EVAL_ATOL and abs(ar - result.ar_total) <= EVAL_ATOL:
            return []
        return [f"evaluate AP/AR {result.ap_total}/{result.ar_total} != reference {ap}/{ar}"]


def _pooled(batches):
    return ([d for b in batches for d in b.detections],
            [a for b in batches for a in b.annotations],
            [f for b in batches for f in b.frame_ids])


def reference_ap_ar(dets, anns, params=confmap.DEFAULT_OLS, thresholds=evaluation.OLS_THRESHOLDS):
    """AP/AR over the OLS sweep, written independently of ``evaluation``:
    vectorized OLS per frame, greedy confidence-order matching, pooled
    101-point interpolated AP."""
    res = params.range_resolution_m
    kappa = np.asarray(params.kappa_m)
    gts: dict[int, list] = {}
    for a in anns:
        gts.setdefault(a.frame_id, []).append(a)
    frames: dict[int, list] = {}
    for d in dets:
        frames.setdefault(d.frame_id, []).append(d)
    per_frame = []
    for fid, fd in frames.items():
        fd.sort(key=lambda d: (-d.confidence, d.class_id, d.range_bin, d.azimuth_bin))
        fg = gts.get(fid, [])
        if not fg:
            per_frame.append((fd, None))
            continue
        dr = np.array([[d.range_bin, d.azimuth_bin] for d in fd], dtype=float)
        gr = np.array([[g.range_bin, g.azimuth_bin] for g in fg], dtype=float)
        d_bins = np.hypot(dr[:, None, 0] - gr[None, :, 0], dr[:, None, 1] - gr[None, :, 1])
        mean_r = 0.5 * (dr[:, None, 0] + gr[None, :, 0])
        scale = np.maximum(params.min_scale_m, res * mean_r)
        gcls = np.array([g.class_id for g in fg])
        sigma = np.clip(scale * kappa[gcls][None, :] / res, params.sigma_lo_bins, params.sigma_hi_bins)
        d_m, sk_m = res * d_bins, res * sigma
        sim = np.exp(-(d_m * d_m) / (2.0 * sk_m * sk_m))
        same = np.array([d.class_id for d in fd])[:, None] == gcls[None, :]
        per_frame.append((fd, np.where(same, sim, -np.inf)))
    gt_total = len(anns)
    aps, ars = [], []
    for thr in thresholds:
        scored = []
        matched = 0
        for fd, sim in per_frame:
            taken = None if sim is None else np.zeros(sim.shape[1], dtype=bool)
            for i, d in enumerate(fd):
                hit = False
                if sim is not None:
                    row = np.where(taken, -np.inf, sim[i])
                    j = int(np.argmax(row))
                    if np.isfinite(row[j]) and row[j] >= thr:
                        taken[j] = hit = True
                scored.append((d.confidence, hit))
                matched += hit
        scored.sort(key=lambda s: -s[0])
        hits = np.array([h for _, h in scored], dtype=bool)
        tp = np.cumsum(hits)
        precision = tp / np.maximum(1, np.arange(1, len(hits) + 1))
        recall = tp / gt_total
        ap = 0.0
        for r in np.linspace(0.0, 1.0, 101):
            mask = recall >= r - 1e-12
            ap += precision[mask].max() if mask.any() else 0.0
        aps.append(ap / 101.0)
        ars.append(matched / gt_total)
    return float(np.mean(aps)), float(np.mean(ars))


WORKLOADS = {w.name: w for w in (RefInfer, TrainStep, FramePipeline)}
