"""Atomic file writes, so interrupted runs never leave partial artifacts, and
the checksummed binary container that model and query-set files share."""

import csv
import io
import os
import struct
import tempfile
import zlib

import numpy as np

from .errors import FormatError, TruncatedFileError


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
#   magic | u32 version | one u64 per header field | byte prefix | float64-LE body
#   u32 crc32 over everything after the magic
# write_container writes each part as given when it is bytes, as float64-LE
# when it is an array; read_container reads the bytes, then one float array.

def write_container(path: str, magic: bytes, version: int, fields, *parts) -> None:
    chunks = [struct.pack(f"<I{len(fields)}Q", version, *fields)]
    chunks += [p if isinstance(p, bytes) else np.ascontiguousarray(p, dtype="<f8")
               for p in parts]
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    atomic_write_bytes(path, magic, *chunks, struct.pack("<I", crc))


def container_crc(path: str) -> int:
    """The CRC32 trailer of a container file, as written; `read_container` checks it."""
    with open(path, "rb") as f:
        f.seek(-4, os.SEEK_END)
        return struct.unpack("<I", f.read(4))[0]


def check_size(f, size: int, path: str, kind: str) -> None:
    """Match the bytes left in the open file `f` against the `size` its header announces.

    Runs before the payload is read or allocated, so a corrupt header can
    neither ask for more memory than the file holds nor load a part of it.
    """
    available = os.fstat(f.fileno()).st_size - f.tell()
    if available < size:
        raise TruncatedFileError(f"{path}: header announces {size} bytes of {kind}, "
                                 f"file holds {available}")
    if available > size:
        raise FormatError(f"{path}: {available - size} bytes after the {size} bytes of "
                          f"{kind} the header announces")


def read_exact(f, buf, path: str, kind: str):
    """Fill the writable buffer `buf` from `f` and return it.

    A short read, as from a file that shrank after it was sized, raises
    TruncatedFileError.
    """
    view = memoryview(buf).cast("B")
    if f.readinto(view) != view.nbytes:
        raise TruncatedFileError(f"{path}: truncated {kind} file")
    return buf


def read_container(path: str, magic: bytes, version: int, n_fields: int, kind: str,
                   layout) -> tuple[list[int], bytearray, np.ndarray]:
    """Header fields, byte prefix and read-only float64 body of a container.

    `layout(*fields)` gives the prefix's byte count and the body's float
    count. The file size is checked against them before the body is read,
    and the body is read once, straight into the array returned. A wrong
    magic, version, size or checksum raises FormatError naming `kind`.
    """
    with open(path, "rb") as f:
        head = read_exact(f, bytearray(len(magic) + struct.calcsize(f"<I{n_fields}Q")),
                          path, kind)
        if head[:len(magic)] != magic:
            raise FormatError(f"{path}: bad magic, not a {kind} file")
        found, *fields = struct.unpack_from(f"<I{n_fields}Q", head, len(magic))
        if found != version:
            raise FormatError(f"{path}: unsupported {kind} version {found}")
        n_prefix, n_floats = layout(*fields)
        check_size(f, n_prefix + 8 * n_floats + 4, path, kind)
        prefix = read_exact(f, bytearray(n_prefix), path, kind)
        floats = read_exact(f, np.empty(n_floats, dtype="<f8"), path, kind)
        (crc,) = struct.unpack("<I", read_exact(f, bytearray(4), path, kind))
    if crc != zlib.crc32(floats, zlib.crc32(prefix, zlib.crc32(head[len(magic):]))):
        raise FormatError(f"{path}: checksum mismatch")
    floats.flags.writeable = False
    return fields, prefix, floats
