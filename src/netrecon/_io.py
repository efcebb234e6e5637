"""Atomic file writes: interrupted runs must never leave partial artifacts."""

import csv
import io
import os
import tempfile

import numpy as np


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write `data` to `path` via a temp file + rename in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
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
