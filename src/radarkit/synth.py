"""Deterministic synthetic FMCW range-azimuth scene generator.

Each target is a complex 2-D Gaussian blob on the range-azimuth grid whose
phase rotates across the selected chirps in proportion to its radial
velocity:

    phase(frame t, chirp j) = 2*pi * 2 * (R(t) + v * j * dt_chirp) / lambda

with R(t) the linearly moving range, lambda = 3.9 mm (77 GHz carrier) and
dt_chirp the chirp interval when 256 chirps span one 30 fps frame; of
those, chirps (0, 64, 128, 192) are rendered.  Channel 0 carries the real
part, channel 1 the imaginary part, plus additive complex Gaussian noise.
A range bin is the codec's, ``confmap.RANGE_RESOLUTION_M`` meters wide.
Constants fix the rest: a 90 degree azimuth span, blobs 2 range and 3
azimuth bins wide, and a 3-bin edge margin.  A ``Scene`` (seed, scenario,
targets) takes its grid, length and noise from the config it renders with.

Scenario tags (PL/CR/CS/HW) select a Poisson target count, class mix and
speed profiles.  Everything is a pure function of (seed, scenario, config).

``render_ramap`` draws each clip's noise on a worker of the thread pool
that ``tensor.gelu`` uses, also on one CPU, while the calling thread
renders the targets; numpy's generator releases the GIL for the bulk
fill.  The noise generator is seeded from (seed, scenario) alone, so the
stream, and with it the cube, is the same whichever thread draws it.
The f64 cube and noise and the rendered output are each on an anonymous
mapping of their own (``fileio.mapped_array``), not in malloc's heap.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .confmap import RANGE_RESOLUTION_M, Annotation, read_annotations, write_annotations
from .errors import ConfigError, DataFormatError, UsageError
from .fileio import BinaryReader, mapped_array, read_records
from .tensor import _float_dtype, _run_parts

SCENARIOS = ("PL", "CR", "CS", "HW")

WAVELENGTH_M = 0.0039
FRAME_RATE_HZ = 30.0
CHIRPS_PER_FRAME = 256
CHIRP_INDICES = (0, 64, 128, 192)
AZIMUTH_SPAN_DEG = 90.0
BLOB_SIGMA_RANGE_BINS = 2.0
BLOB_SIGMA_AZIMUTH_BINS = 3.0
EDGE_MARGIN_BINS = 3.0


@dataclass(frozen=True)
class ScenarioProfile:
    mean_targets: float
    class_mix: tuple[float, float, float]   # pedestrian, cyclist, car
    speed_lo: float                         # |radial velocity| bounds, m/s
    speed_hi: float


# class mixes and speeds chosen so the four scenarios are statistically
# distinguishable; amplitudes (below) separate the classes visually
PROFILES = {
    "PL": ScenarioProfile(4.0, (0.60, 0.25, 0.15), 0.0, 2.0),
    "CR": ScenarioProfile(5.0, (0.45, 0.30, 0.25), 0.5, 6.0),
    "CS": ScenarioProfile(5.0, (0.30, 0.25, 0.45), 2.0, 12.0),
    "HW": ScenarioProfile(4.0, (0.05, 0.15, 0.80), 8.0, 35.0),
}

AMPLITUDE_RANGES = ((0.6, 1.2), (1.2, 2.5), (2.5, 5.0))


@dataclass(frozen=True)
class SynthConfig:
    height: int = 128
    width: int = 128
    frames: int = 128                 # frames per generated sequence
    noise_sigma: float = 0.08

    def __post_init__(self):
        def check(field, ok, want):
            if not ok:
                raise ConfigError(f"SynthConfig.{field} must be {want}, got {getattr(self, field)!r}")

        for field in ("height", "width", "frames"):
            check(field, getattr(self, field) >= 1, "at least 1")
        check("noise_sigma", self.noise_sigma >= 0, "non-negative")
        lo_m, hi_m = _range_bounds_m(self)
        check("height", lo_m <= hi_m,
              f"large enough for a target range in [{lo_m:g}, {hi_m:g}] m clear of the edge margin")
        az_half, az_margin = _azimuth_bounds_deg(self)
        check("width", az_margin <= az_half, "large enough for an azimuth clear of the edge margin")


@dataclass(frozen=True)
class TargetSpec:
    class_id: int
    range_m: float                    # at frame 0
    azimuth_deg: float
    speed_mps: float                  # signed radial velocity
    amplitude: float


@dataclass(frozen=True)
class Scene:
    seed: int
    scenario: str
    targets: tuple[TargetSpec, ...]


def _rng(seed, scenario, *stream):
    """The generator seeded from (seed, *stream, index of `scenario`)."""
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; choose from {SCENARIOS}")
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((int(seed), *stream, SCENARIOS.index(scenario))))
    )


def _range_bounds_m(cfg: SynthConfig):
    """Lowest and highest range, in meters, a target may reach."""
    lo_m = max(1.0, EDGE_MARGIN_BINS * RANGE_RESOLUTION_M)
    hi_m = (cfg.height - 1 - EDGE_MARGIN_BINS) * RANGE_RESOLUTION_M
    return lo_m, hi_m


def _azimuth_bounds_deg(cfg: SynthConfig):
    """Half the azimuth span and the edge margin, in degrees."""
    return AZIMUTH_SPAN_DEG / 2.0, AZIMUTH_SPAN_DEG * EDGE_MARGIN_BINS / max(1, cfg.width - 1)


def _bin_of(range_m, azimuth_deg, cfg: SynthConfig):
    r = range_m / RANGE_RESOLUTION_M
    a = (azimuth_deg / AZIMUTH_SPAN_DEG + 0.5) * (cfg.width - 1)
    return r, a


def generate_scene(seed: int, scenario: str, cfg: SynthConfig = SynthConfig()) -> Scene:
    """Deterministic per (seed, scenario, config): a Poisson count (at least
    one) of targets, each inside the grid for all frames."""
    rng = _rng(seed, scenario)
    profile = PROFILES[scenario]
    count = max(1, int(rng.poisson(profile.mean_targets)))

    duration = (cfg.frames - 1) / FRAME_RATE_HZ
    lo_m, hi_m = _range_bounds_m(cfg)
    az_half, az_margin = _azimuth_bounds_deg(cfg)

    targets: list[TargetSpec] = []
    for _ in range(count):
        class_id = int(rng.choice(3, p=profile.class_mix))
        speed = rng.uniform(profile.speed_lo, profile.speed_hi)
        speed *= rng.choice((-1.0, 1.0))
        travel = speed * duration
        # cap the speed so a feasible start interval exists inside the grid
        if abs(travel) >= (hi_m - lo_m):
            speed = np.sign(speed) * 0.9 * (hi_m - lo_m) / max(duration, 1e-9)
            travel = speed * duration
        start_lo = lo_m - min(0.0, travel)
        start_hi = hi_m - max(0.0, travel)
        range_m = rng.uniform(start_lo, start_hi)
        azimuth = rng.uniform(-az_half + az_margin, az_half - az_margin)
        amp = rng.uniform(*AMPLITUDE_RANGES[class_id])
        targets.append(TargetSpec(class_id, float(range_m), float(azimuth), float(speed), float(amp)))
    return Scene(seed, scenario, tuple(targets))


def _noise(rng, shape, sigma):
    """`shape` standard normal f64 values from rng, scaled in place by sigma."""
    noise = rng.standard_normal(out=mapped_array(shape, np.float64))
    noise *= sigma
    return noise


def render_ramap(scene: Scene, cfg: SynthConfig = SynthConfig(), dtype=np.float32):
    """Render (2,T,C,H,W) RF frames plus per-frame annotations; T and the
    noise come from `cfg`.

    The targets are summed in f64 on this thread while a pool thread draws
    the f64 noise; their sum is rounded once, to `dtype`."""
    dtype = _float_dtype(dtype)
    noise_rng = _rng(scene.seed, scene.scenario, 97)  # checks the scenario, also without noise
    t_frames, c, h, w = cfg.frames, len(CHIRP_INDICES), cfg.height, cfg.width
    shape = (2, t_frames, c, h, w)
    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]
    dt_chirp = (1.0 / FRAME_RATE_HZ) / CHIRPS_PER_FRAME
    annotations: list[Annotation] = []

    def targets():
        cube = mapped_array(shape, np.float64)
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
        return cube

    draw = [(_noise, noise_rng, shape, cfg.noise_sigma)] if cfg.noise_sigma > 0 else []
    cube, *noise = _run_parts(lambda fn, *args: fn(*args), [(targets,)] + draw)
    out = mapped_array(shape, dtype)
    if noise:
        np.add(cube, noise[0], out=out)
    else:
        out[...] = cube
    return out, annotations


# ---------------------------------------------------------------------------
# on-disk dataset format
#
# directory layout: manifest.txt + <name>.ramc + <name>.ann
# .ramc: magic "RAMC", version u16, five u32 extents (2,T,C,H,W), then
# exactly 2*T*C*H*W little-endian f32 values, with nothing after them

_RAMC_MAGIC = b"RAMC"
_RAMC_VERSION = 1
_MANIFEST_NAME = "manifest.txt"
_MANIFEST_HEADER = "ramc-dataset v1"


@dataclass(frozen=True)
class SequenceEntry:
    name: str
    frames: int
    scenario: str
    split: str


@dataclass(frozen=True)
class DatasetManifest:
    entries: tuple[SequenceEntry, ...]

    @property
    def total_frames(self) -> int:
        return sum(e.frames for e in self.entries)

    def split(self, tag: str) -> tuple[SequenceEntry, ...]:
        return tuple(e for e in self.entries if e.split == tag)


def write_sequence(path, cube: np.ndarray) -> None:
    if cube.ndim != 5 or cube.shape[0] != 2 or min(cube.shape) < 1:
        raise ConfigError(f"sequence cube must be (2,T,C,H,W) with every extent at least 1, got {cube.shape}")
    with open(path, "wb") as fh:
        fh.write(_RAMC_MAGIC + struct.pack("<H5I", _RAMC_VERSION, *cube.shape))
        # through the buffer protocol: no bytes copy of the payload
        fh.write(np.ascontiguousarray(cube, dtype="<f4"))


def read_sequence(path) -> np.ndarray:
    with BinaryReader(path, _RAMC_MAGIC, (_RAMC_VERSION,)) as r:
        shape = r.unpack("<5I", "extents")
        if shape[0] != 2 or min(shape) < 1:
            r.fail(f"invalid extents {shape} at offset 6")
        cube = r.array(shape, "<f4", "payload")
        if r.left():
            r.fail(f"{r.left()} trailing bytes at offset {r.pos}")
    return cube


def write_dataset(directory, sequences) -> DatasetManifest:
    """sequences: iterable of (name, cube, annotations, scenario, split)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for name, cube, annotations, scenario, split in sequences:
        write_sequence(directory / f"{name}.ramc", cube)
        write_annotations(directory / f"{name}.ann", annotations)
        entries.append(SequenceEntry(name, int(cube.shape[1]), scenario, split))
    manifest = DatasetManifest(tuple(entries))
    with open(directory / _MANIFEST_NAME, "w", encoding="ascii") as fh:
        fh.write(_MANIFEST_HEADER + "\n")
        for e in manifest.entries:
            fh.write(f"sequence {e.name} frames {e.frames} scenario {e.scenario} split {e.split}\n")
    return manifest


def read_manifest(directory) -> DatasetManifest:
    path = Path(directory) / _MANIFEST_NAME
    if not path.exists():
        raise DataFormatError(f"{path}: manifest not found")
    entries = []
    first_line = {}
    for lineno, v in read_records(path, (str, str, str, int, str, str, str, str), _MANIFEST_HEADER):
        if v[0::2] != ["sequence", "frames", "scenario", "split"] or v[5] not in SCENARIOS \
                or v[7] not in ("train", "val"):
            raise DataFormatError(f"{path}:{lineno}: malformed sequence record")
        if v[3] < 0:
            raise DataFormatError(f"{path}:{lineno}: negative frame count {v[3]}")
        if v[1] in first_line:
            raise DataFormatError(
                f"{path}:{lineno}: sequence {v[1]!r} repeats line {first_line[v[1]]}"
            )
        first_line[v[1]] = lineno
        entries.append(SequenceEntry(v[1], v[3], v[5], v[7]))
    return DatasetManifest(tuple(entries))


class Dataset:
    """Manifest plus per-sequence loading; verifies files exist and parse."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.manifest = read_manifest(directory)
        for e in self.manifest.entries:
            for ext in (".ramc", ".ann"):
                p = self.directory / f"{e.name}{ext}"
                if not p.exists():
                    raise DataFormatError(f"{p}: referenced by manifest but missing")

    def load(self, name: str):
        entry = next((e for e in self.manifest.entries if e.name == name), None)
        if entry is None:
            raise UsageError(f"sequence {name!r} is not in the manifest of {self.directory}")
        cube = read_sequence(self.directory / f"{name}.ramc")
        annotations = read_annotations(self.directory / f"{name}.ann")
        if cube.shape[1] != entry.frames:
            raise DataFormatError(
                f"{self.directory / (name + '.ramc')}: frame count {cube.shape[1]} "
                f"does not match manifest ({entry.frames})"
            )
        return cube, annotations


def generate_dataset(directory, seed: int, sequences: int, cfg: SynthConfig = SynthConfig(),
                     dtype=np.float32) -> DatasetManifest:
    """Generate a dataset that cycles through `SCENARIOS`; the trailing
    fifth of the sequences becomes the validation split."""
    items = []
    n_val = int(round(sequences * 0.2))
    for i in range(sequences):
        scenario = SCENARIOS[i % len(SCENARIOS)]
        scene = generate_scene(seed + i, scenario, cfg)
        cube, annotations = render_ramap(scene, cfg, dtype=dtype)
        split = "val" if i >= sequences - n_val else "train"
        items.append((f"{i:03d}_seq", cube, annotations, scenario, split))
    return write_dataset(directory, items)
