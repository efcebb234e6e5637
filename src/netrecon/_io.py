"""Atomic file writes, so interrupted runs never leave partial artifacts, and
the checksummed binary container that model and query-set files share."""

import csv
import io
import os
import struct
import tempfile
import zlib

import numpy as np

from .errors import FormatError


def atomic_write_bytes(path: str, *chunks) -> None:
    """Write the `chunks` (bytes-like) to `path` via a temp file + rename in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_csv(path: str, header: str, rows) -> None:
    """Write a table under a comma-separated `header` line, one row per line.

    Floats, numpy ones included, are written as repr(float(x)) so they read
    back exactly; other cells as str(x).
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header.split(","))
    writer.writerows(
        [repr(float(x)) if isinstance(x, (float, np.floating)) else x for x in row]
        for row in rows
    )
    atomic_write_text(path, buf.getvalue())


# Container layout (all integers little-endian):
#   magic | u32 version | one u64 per header field | body parts
#   u32 crc32 over everything after the magic
# A part is written as given when it is bytes, as float64-LE when it is an array.

def write_container(path: str, magic: bytes, version: int, fields, *parts) -> None:
    chunks = [struct.pack(f"<I{len(fields)}Q", version, *fields)]
    chunks += [p if isinstance(p, bytes) else np.ascontiguousarray(p, dtype="<f8")
               for p in parts]
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    atomic_write_bytes(path, magic, *chunks, struct.pack("<I", crc))


def read_container(path: str, magic: bytes, version: int, n_fields: int, kind: str,
                   body_size) -> tuple[list[int], memoryview]:
    """Header fields and body of a container; `body_size(*fields)` is the body's byte count.

    A wrong magic, version, file size or checksum raises FormatError naming `kind`.
    """
    with open(path, "rb") as f:
        raw = memoryview(f.read())
    start = len(magic) + struct.calcsize(f"<I{n_fields}Q")
    if len(raw) < start + 4:
        raise FormatError(f"{path}: truncated {kind} file")
    if raw[:len(magic)] != magic:
        raise FormatError(f"{path}: bad magic, not a {kind} file")
    found, *fields = struct.unpack_from(f"<I{n_fields}Q", raw, len(magic))
    if found != version:
        raise FormatError(f"{path}: unsupported {kind} version {found}")
    if len(raw) != start + body_size(*fields) + 4:
        raise FormatError(f"{path}: payload size {len(raw)} does not match header {fields}")
    (crc,) = struct.unpack_from("<I", raw, len(raw) - 4)
    if crc != zlib.crc32(raw[len(magic):-4]):
        raise FormatError(f"{path}: checksum mismatch")
    return fields, raw[start:-4]
