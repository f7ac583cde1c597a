"""Bounded readers behind every radarkit file format.

The rule: every length read from a file is checked against the file size
before anything is read or allocated, and every decode or conversion
error is caught.  Each failure is a ``DataFormatError`` naming the file
and the field, with its offset (bytes needed, bytes left) or its line.
Binary files are streamed from the open file, never held whole.
"""

import math
import mmap
import os
import struct
from contextlib import AbstractContextManager

import numpy as np

from .errors import DataFormatError


def mapped_array(shape, dtype) -> np.ndarray:
    """A zeroed array on an anonymous mapping of its own, whose pages go
    back to the system as soon as the array is dropped.  Malloc's heap keeps
    the pages of a freed array wherever a later allocation sits above it,
    and how much it keeps depends on the address layout, so code that makes
    and drops arrays of many megabytes in turn would peak at a different
    size in each process."""
    dtype = np.dtype(dtype)
    buf = mmap.mmap(-1, dtype.itemsize * math.prod(shape))
    if hasattr(mmap, "MADV_HUGEPAGE"):
        # as numpy advises its own large allocations
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.ndarray(shape, dtype, buffer=buf)


class BinaryReader(AbstractContextManager):
    """A cursor over a binary file, read as it goes, that must start with
    `magic` and a u16 version in `versions`; closes the file on exit."""

    def __init__(self, path, magic: bytes, versions):
        self.path, self.pos = path, 0
        self._fh = open(path, "rb")
        try:
            self.size = os.fstat(self._fh.fileno()).st_size
            if (head := self.take(len(magic), "magic")) != magic:
                self.fail(f"bad magic {head!r} at offset 0")
            (self.version,) = self.unpack("<H", "version")
            if self.version not in versions:
                self.fail(f"unsupported version {self.version} at offset {len(magic)}")
        except BaseException:
            self._fh.close()
            raise

    def __exit__(self, *exc):
        self._fh.close()

    def fail(self, message):
        raise DataFormatError(f"{self.path}: {message}")

    def left(self) -> int:
        return self.size - self.pos

    def _need(self, n: int, what: str) -> None:
        if n > self.left():
            self.fail(f"truncated {what} at offset {self.pos} (needs {n} bytes, {self.left()} left)")

    def seek(self, pos: int, what: str) -> None:
        """Move to offset `pos`, which must not lie past the end of the file."""
        self._need(pos - self.pos, what)
        self._fh.seek(pos)
        self.pos = pos

    def _read(self, n: int, what: str, alloc):
        """alloc() filled with the next `n` bytes, called once they are known to exist."""
        self._need(n, what)
        buf = alloc()
        if (got := self._fh.readinto(buf)) != n:
            self.fail(f"short read of {what} at offset {self.pos} (got {got} of {n} bytes)")
        self.pos += n
        return buf

    def take(self, n: int, what: str) -> bytes:
        return bytes(self._read(n, what, lambda: bytearray(n)))

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def text(self, fmt: str, what: str) -> str:
        """A UTF-8 string after its length, which is packed as `fmt`."""
        (n,) = self.unpack(fmt, f"{what} length")
        try:
            return str(self.take(n, what), "utf-8")
        except UnicodeDecodeError as e:
            self.fail(f"{what} is not UTF-8 at offset {self.pos - n + e.start}")

    def array(self, shape, dtype, what: str) -> np.ndarray:
        """The next prod(shape) values of `dtype`, in a new array."""
        dtype = np.dtype(dtype)
        return self._read(dtype.itemsize * math.prod(shape), what, lambda: np.empty(shape, dtype=dtype))


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
