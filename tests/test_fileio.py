"""Every file format fails only with a DataFormatError naming the file.

Property tests truncate each format at a drawn offset, or overwrite a
drawn byte with a drawn value, and require the reader to either parse the
result or raise a ``DataFormatError`` whose message names the file.  The
explicit cases below are corruptions that once escaped as MemoryError,
OverflowError, ValueError, UnicodeDecodeError or ZeroDivisionError.
"""

import builtins
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radarkit.confmap import (
    Annotation,
    Detection,
    read_annotations,
    read_detections,
    write_annotations,
    write_detections,
)
from radarkit import fileio
from radarkit.errors import DataFormatError
from radarkit.models import (
    ModelConfig, _named_buffers, build_model, config_from_text, config_to_text, load_checkpoint, save_checkpoint,
)
from radarkit.synth import read_manifest, read_sequence, write_dataset, write_sequence

TOY = ModelConfig(
    variant="radarformer", frames=4, chirps=2, height=16, width=16, merge_channels=4,
    stage_widths=(8,), stage_depths=(1,), window_size=4, grid_size=4, heads=2, patch_size=4,
)
CUBE = np.arange(2 * 2 * 2 * 4 * 4, dtype=np.float32).reshape(2, 2, 2, 4, 4) / 7.0
ANNS = [Annotation(0, 1, 10, 20), Annotation(1, 2, 3, 4)]
DETS = [Detection(1, 10, 20, 0.5, frame_id=0), Detection(2, 3, 4, 0.25, frame_id=1)]


def _ramc(directory):
    write_sequence(directory / "f.ramc", CUBE)
    return directory / "f.ramc"


def _rfck(directory):
    save_checkpoint(build_model(TOY), directory / "f.rfck")
    return directory / "f.rfck"


def _manifest(directory):
    write_dataset(directory, [("000_seq", CUBE, ANNS, "PL", "train"), ("001_seq", CUBE, [], "HW", "val")])
    return directory / "manifest.txt"


def _ann(directory):
    write_annotations(directory / "f.ann", ANNS)
    return directory / "f.ann"


def _det(directory):
    write_detections(directory / "f.det", DETS)
    return directory / "f.det"


# name -> (writes a good file into a directory and returns its path, reads that path, is binary)
FORMATS = {
    "ramc": (_ramc, read_sequence, True),
    "rfck": (_rfck, load_checkpoint, True),
    "manifest": (_manifest, lambda path: read_manifest(path.parent), False),
    "ann": (_ann, read_annotations, False),
    "det": (_det, read_detections, False),
}


@pytest.fixture(scope="module")
def good_files(tmp_path_factory):
    out = {}
    for name, (write, read, _) in FORMATS.items():
        path = write(tmp_path_factory.mktemp(name))
        read(path)
        out[name] = (path, path.read_bytes())
    return out


def _parses_or_names_file(name, path, data):
    path.write_bytes(data)
    try:
        FORMATS[name][1](path)
    except DataFormatError as e:
        assert path.name in str(e)
        return False
    return True


@pytest.mark.parametrize("name", sorted(FORMATS))
@settings(max_examples=40, deadline=None)
@given(frac=st.floats(0.0, 1.0, exclude_max=True))
def test_truncation(good_files, name, frac):
    path, good = good_files[name]
    try:
        parsed = _parses_or_names_file(name, path, good[: int(frac * len(good))])
    finally:
        path.write_bytes(good)
    assert not (parsed and FORMATS[name][2]), "a truncated binary file parsed"


@pytest.mark.parametrize("name", sorted(FORMATS))
@settings(max_examples=40, deadline=None)
@given(frac=st.floats(0.0, 1.0, exclude_max=True), value=st.integers(0, 255))
def test_overwritten_byte(good_files, name, frac, value):
    path, good = good_files[name]
    data = bytearray(good)
    data[int(frac * len(good))] = value
    try:
        _parses_or_names_file(name, path, bytes(data))
    finally:
        path.write_bytes(good)


def _checkpoint_v1(blobs=b"", text=config_to_text(TOY)):
    blob = text.encode("utf-8")
    return b"RFCK" + struct.pack("<HI", 1, len(blob)) + blob + blobs


# keys that configs carried while the values they hold were fields
RETIRED = {"num_classes": "3", "stem_kernels": "3,5", "head_kernel": "5", "stage_kernel": "3", "mlp_ratio": "20.0"}


def _parent_text(**values):
    """TOY's config text with every retired key, at `values` or else at its constant."""
    return config_to_text(TOY) + "".join(f"{key} = {value}\n" for key, value in (RETIRED | values).items())


def _blob_head(name: bytes, extents):
    return struct.pack("<H", len(name)) + name + struct.pack(f"<B{len(extents)}I", len(extents), *extents)


def _raises_naming(path, read, *words):
    with pytest.raises(DataFormatError) as ei:
        read(path)
    for word in (path.name,) + words:
        assert word in str(ei.value)


class TestRegressions:
    def test_ramc_huge_extents(self, tmp_path):
        path = tmp_path / "huge.ramc"
        path.write_bytes(b"RAMC" + struct.pack("<H5I", 1, 2, 4096, 4096, 4096, 1) + bytes(64))
        _raises_naming(path, read_sequence, "offset 26", "64 left")

    def test_checkpoint_huge_blob_extents(self, tmp_path):
        path = tmp_path / "huge.rfck"
        path.write_bytes(_checkpoint_v1(_blob_head(b"merge.conv1.w", (4096, 4096, 4096)) + bytes(16)))
        _raises_naming(path, load_checkpoint, "merge.conv1.w", "16 left")

    def test_checkpoint_rank_40(self, tmp_path):
        path = tmp_path / "rank.rfck"
        save_checkpoint(build_model(TOY), path)
        data = bytearray(path.read_bytes())
        (cfg_len,) = struct.unpack_from("<I", data, 7)
        (name_len,) = struct.unpack_from("<H", data, 11 + cfg_len)
        data[13 + cfg_len + name_len] = 40
        path.write_bytes(bytes(data))
        _raises_naming(path, load_checkpoint, "offset")

    def test_checkpoint_rank_above_numpy_limit(self, tmp_path):
        # 65 unit extents fit in the file but not in an ndarray
        path = tmp_path / "rank65.rfck"
        path.write_bytes(_checkpoint_v1(_blob_head(b"merge.conv1.w", (1,) * 65) + bytes(4)))
        _raises_naming(path, load_checkpoint, "merge.conv1.w", "offset")

    def test_checkpoint_non_utf8_blob_name(self, tmp_path):
        path = tmp_path / "name.rfck"
        path.write_bytes(_checkpoint_v1(_blob_head(b"\xff\xfe", (1,)) + bytes(4)))
        _raises_naming(path, load_checkpoint, "UTF-8", "offset")

    # a (100000, 100000, 3, 3) weight is 671 GiB; the build must stop before
    # it, at the values the blobs hold.  The cases that hold values hold as
    # many as a config-derived bound that missed the weights their fields
    # size: merge.conv2 and the temporal stream, and the 1x1 stage
    # transitions.
    @pytest.mark.parametrize("edits, held", [
        *(pytest.param({old: new}, 0, id=f"{old}-{new}") for old, new in [
            ("stage_widths = 8", "stage_widths = 100000"),
            ("chirps = 2", "chirps = 1000000000"),
            ("window_size = 4", "window_size = 1000000"),
        ]),
        ({"merge_channels = 4": "merge_channels = 200"}, 22568),
        ({"stage_widths = 8": "stage_widths = 8,200000000,8", "stage_depths = 1": "stage_depths = 1,0,1"}, 1792),
    ])
    def test_checkpoint_config_declares_more_params_than_file(self, tmp_path, edits, held):
        text = config_to_text(TOY)
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "wide.rfck"
        path.write_bytes(_checkpoint_v1(_blob_head(b"pad", (held,)) + bytes(4 * held), text) if held
                         else _checkpoint_v1(text=text))
        tracemalloc.start()
        try:
            _raises_naming(path, load_checkpoint, f"hold {held} values")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    def test_parent_format_checkpoint_loads(self, tmp_path):
        # a version 2 file whose config holds the retired keys, as they were written
        assert config_from_text(_parent_text()) == TOY
        model = build_model(TOY, dtype=np.float32)
        blobs = [(n, p.data) for n, p in model.named_params()] + list(_named_buffers(model))
        text = _parent_text().encode()
        path = tmp_path / "parent.rfck"
        path.write_bytes(b"RFCK" + struct.pack("<HI", 2, len(text)) + text + b"".join(
            _blob_head(n.encode(), d.shape) + d.astype("<f4").tobytes() for n, d in blobs))
        loaded = load_checkpoint(path, dtype=np.float32)
        assert loaded.cfg == TOY
        for (name, p), (_, q) in zip(model.named_params(), loaded.named_params()):
            assert p.data.tobytes() == q.data.tobytes(), name

    @pytest.mark.parametrize("key, value", [
        ("num_classes", "200000000"), ("stem_kernels", "3,3"), ("head_kernel", "3"), ("stage_kernel", "100001"),
        ("mlp_ratio", "150.0"),
    ])
    def test_retired_key_at_other_value(self, tmp_path, key, value):
        path = tmp_path / "retired.rfck"
        path.write_bytes(_checkpoint_v1(text=_parent_text(**{key: value})))
        tracemalloc.start()
        try:
            _raises_naming(path, load_checkpoint, "invalid embedded config", f"retired key {key}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    def test_checkpoint_itemsize(self, tmp_path):
        path = _rfck(tmp_path)
        data = bytearray(path.read_bytes())
        data[6] = 2
        path.write_bytes(bytes(data))
        _raises_naming(path, load_checkpoint, "itemsize 2 at offset 6")

    @pytest.mark.parametrize("extents", [(3, 1, 1, 1, 1), (2, 1, 0, 1, 1)])
    def test_ramc_invalid_extents(self, tmp_path, extents):
        path = tmp_path / "bad.ramc"
        path.write_bytes(b"RAMC" + struct.pack("<H5I", 1, *extents) + bytes(4 * 3))
        _raises_naming(path, read_sequence, f"invalid extents {extents} at offset 6")

    def test_ramc_trailing_bytes(self, tmp_path):
        path = _ramc(tmp_path)
        good = path.read_bytes()
        path.write_bytes(good + b"xyz")
        _raises_naming(path, read_sequence, f"3 trailing bytes at offset {len(good)}")

    @pytest.mark.parametrize("case, message", [
        ("repeated", "repeated blob 'merge.conv1.w'"),
        ("unknown", "unknown blob 'extra'"),
        ("misshaped", "blob 'merge.conv1.w' extents (144,) != model shape (4, 4, 1, 3, 3)"),
    ])
    def test_checkpoint_blob_rejected(self, tmp_path, case, message):
        blobs = [(name, p.data) for name, p in build_model(TOY).named_params()]
        name, data = blobs[0]
        if case == "repeated":
            blobs.append((name, data))
        elif case == "unknown":
            blobs.append(("extra", data))
        else:
            blobs[0] = (name, data.reshape(-1))
        path = tmp_path / "blobs.rfck"
        path.write_bytes(_checkpoint_v1(b"".join(
            _blob_head(n.encode(), d.shape) + d.astype("<f4").tobytes() for n, d in blobs)))
        _raises_naming(path, load_checkpoint, message)

    @pytest.mark.parametrize("name", ["ann", "det", "manifest"])
    def test_non_ascii_byte_names_line(self, tmp_path, name):
        path = FORMATS[name][0](tmp_path)
        lines = path.read_bytes().split(b"\n")
        lines[1] = lines[1][:2] + b"\xe9" + lines[1][2:]
        path.write_bytes(b"\n".join(lines))
        _raises_naming(path, FORMATS[name][1], f"{path.name}:2")

    @pytest.mark.parametrize("name, line, message", [
        ("det", b"0 0 5 5 nan", "confidence 'nan' is not finite"),
        ("det", b"0 0 5 5 inf", "confidence 'inf' is not finite"),
        ("det", b"0 0 5 5 -inf", "confidence '-inf' is not finite"),
        ("det", b"0 3 5 5 0.5", "class id 3 outside 0..2"),
        ("ann", b"0 7 5 5", "class id 7 outside 0..2"),
        ("ann", b"0 -1 5 5", "class id -1 outside 0..2"),
    ])
    def test_value_outside_its_domain_names_line(self, tmp_path, name, line, message):
        path = FORMATS[name][0](tmp_path)
        lines = path.read_bytes().split(b"\n")
        lines[1] = line
        path.write_bytes(b"\n".join(lines))
        _raises_naming(path, FORMATS[name][1], f"{path.name}:2: malformed field: {message}")

    @pytest.mark.parametrize("edits", [
        {"heads = 2": "heads = 0"},
        {"variant = radarformer": "variant = transformer2d", "patch_size = 4": "patch_size = 0"},
        {"stage_widths = 8": "stage_widths = 0"},
        {"init_seed = 0": "init_seed = -1"},
        # the negative depth cancels the other stages' share of the bound
        {"stage_widths = 8": "stage_widths = 8,8,8", "stage_depths = 1": "stage_depths = 1,-10,1"},
    ])
    def test_invalid_embedded_config(self, tmp_path, edits):
        text = config_to_text(TOY)
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "cfg.rfck"
        path.write_bytes(_checkpoint_v1(text=text))
        _raises_naming(path, load_checkpoint, "invalid embedded config")


class _ShortReads:
    """A file whose readinto reports 4 bytes fewer than asked for, on reads
    of more than 64 bytes."""

    def __init__(self, fh):
        self._fh = fh

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def readinto(self, buf):
        got = self._fh.readinto(buf)
        return got - 4 if got > 64 else got


def test_short_read_names_file_and_offset(tmp_path, monkeypatch):
    path = _ramc(tmp_path)
    monkeypatch.setattr(fileio, "open", lambda *a: _ShortReads(builtins.open(*a)), raising=False)
    _raises_naming(path, read_sequence, "short read of payload at offset 26", f"got {CUBE.nbytes - 4}")


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_missing_file_names_path(tmp_path, name):
    path = tmp_path / ("manifest.txt" if name == "manifest" else f"missing.{name}")
    _raises_naming(path, FORMATS[name][1], "cannot open: No such file or directory")


@pytest.mark.parametrize("shape, dtype", [((2, 3, 4), np.float64), ((5, 7), "<f4")])
def test_mapped_array_is_zeroed_writable_and_on_its_own_mapping(shape, dtype):
    import mmap

    a = fileio.mapped_array(shape, dtype)
    assert a.shape == shape and a.dtype == np.dtype(dtype)
    assert a.flags.writeable and a.flags.c_contiguous and a.flags.aligned
    assert isinstance(a.base, mmap.mmap) and len(a.base) == a.nbytes
    assert not a.any()
    a[...] = 1
    assert a.sum() == a.size
