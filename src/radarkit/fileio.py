"""Bounded readers behind every radarkit file format.

The rule: every length read from a file is checked against the file size
before anything is read or allocated, and every decode or conversion
error is caught.  Each failure is a ``DataFormatError`` naming the file
and the field, with its offset (bytes needed, bytes left) or its line.
"""

import math
import struct

import numpy as np

from .errors import DataFormatError


class BinaryReader:
    """A cursor over a whole binary file that must start with `magic` and
    a u16 version in `versions`."""

    def __init__(self, path, magic: bytes, versions):
        self.path, self.pos = path, 0
        with open(path, "rb") as fh:
            self.buf = memoryview(fh.read())
        if self.take(len(magic), "magic") != magic:
            self.fail(f"bad magic {bytes(self.buf[:len(magic)])!r} at offset 0")
        (self.version,) = self.unpack("<H", "version")
        if self.version not in versions:
            self.fail(f"unsupported version {self.version} at offset {len(magic)}")

    def fail(self, message):
        raise DataFormatError(f"{self.path}: {message}")

    def left(self) -> int:
        return len(self.buf) - self.pos

    def take(self, n: int, what: str) -> memoryview:
        if n > self.left():
            self.fail(f"truncated {what} at offset {self.pos} (needs {n} bytes, {self.left()} left)")
        self.pos += n
        return self.buf[self.pos - n:self.pos]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def text(self, fmt: str, what: str) -> str:
        """A UTF-8 string after its length, which is packed as `fmt`."""
        (n,) = self.unpack(fmt, f"{what} length")
        try:
            return str(self.take(n, what), "utf-8")
        except UnicodeDecodeError as e:
            self.fail(f"{what} is not UTF-8 at offset {self.pos - n + e.start}")

    def array(self, shape, what: str) -> np.ndarray:
        """A read-only view of the next prod(shape) little-endian f32 values."""
        start = self.pos
        data = np.frombuffer(self.take(4 * math.prod(shape), what), dtype="<f4")
        try:
            return data.reshape(shape)
        except ValueError as e:  # more axes than numpy supports
            self.fail(f"{what} at offset {start} has extents numpy cannot hold: {e}")


def read_records(path, fields, header=None):
    """Yield (line number, values) for each non-blank line of an ASCII
    file, converting its whitespace-separated words with one callable per
    entry of `fields`; when `header` is given, line 1 must be it."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines() or [b""]
    for lineno, raw in enumerate(lines, 1):
        try:
            line = str(raw, "ascii").strip()
        except UnicodeDecodeError as e:
            raise DataFormatError(f"{path}:{lineno}: non-ASCII byte at column {e.start + 1}") from None
        if header is not None and lineno == 1:
            if line != header:
                raise DataFormatError(f"{path}:1: bad header {line!r}")
            continue
        words = line.split()
        if not words:
            continue
        if len(words) != len(fields):
            raise DataFormatError(f"{path}:{lineno}: expected {len(fields)} fields, got {len(words)}")
        try:
            values = [convert(word) for convert, word in zip(fields, words)]
        except ValueError as e:
            raise DataFormatError(f"{path}:{lineno}: malformed field: {e}") from None
        yield lineno, values
