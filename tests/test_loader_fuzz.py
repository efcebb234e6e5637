"""Malformed files fed to the three binary loaders.

Truncations, bit flips and extreme header fields of small valid files: every
call must either load a dataset, model or query set with dimensions >= 1 (and a
query set of finite numbers), or raise FormatError or ConsistencyError, and must
never allocate much more than the file's size.
"""

import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netrecon.data import (
    QuerySet,
    load_idx,
    load_queryset,
    make_synthetic_classification,
    save_idx,
    save_queryset,
)
from netrecon.errors import ConsistencyError, FormatError
from netrecon.network import init_mlp, load_mlp, save_mlp

# (offset, struct code) of each header field after which the payload size follows
HEADER_FIELDS = {
    "images": [(4, ">I"), (8, ">I"), (12, ">I")],  # count, rows, cols
    "labels": [(4, ">I")],  # count
    "model": [(4, "<I"), (8, "<Q"), (16, "<Q"), (24, "<Q")],  # version, r, d, c
    "queries": [(4, "<I"), (8, "<Q"), (16, "<Q"), (24, "<Q"), (32, "<Q")],  # ..., Q, d, c, prov
}
FIELD_VALUES = [0, 1, 2, 7, 60000, 2**31, 2**32 - 1, 2**63, 2**64 - 1]
MAX_ALLOCATION = 1 << 20  # bytes; every valid file here is under 1 kB


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid files by target name, plus the directory the loaders read from."""
    root = tmp_path_factory.mktemp("fuzz")
    ds = make_synthetic_classification(3, height=3, width=4, n_classes=2, seed=0)
    save_idx(ds, str(root / "images"), str(root / "labels"))
    save_mlp(init_mlp(3, 4, 2, seed=0), str(root / "model"))
    qs = QuerySet(inputs=[[0.5, -1.0], [2.0, 3.0]], targets=[[1.0], [-1.0]],
                  provenance="fuzz é")
    save_queryset(qs, str(root / "queries"))
    valid = {name: (root / name).read_bytes() for name in HEADER_FIELDS}
    tracemalloc.start()
    yield root, valid
    tracemalloc.stop()


def with_checksum(name: str, blob: bytes) -> bytes:
    """`blob` with its trailing CRC recomputed, for the formats that carry one."""
    if name in ("model", "queries") and len(blob) >= 8:
        return blob[:-4] + struct.pack("<I", zlib.crc32(blob[4:-4]))
    return blob


def load(root, name: str):
    if name in ("images", "labels"):
        ds = load_idx(str(root / "images"), str(root / "labels"))
        return ds.n_samples, ds.d
    if name == "model":
        net = load_mlp(str(root / "model"))
        return net.r, net.d, net.c
    qs = load_queryset(str(root / "queries"))
    assert np.isfinite(qs.inputs).all() and np.isfinite(qs.targets).all()
    return qs.Q, qs.d, qs.c


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(name=st.sampled_from(sorted(HEADER_FIELDS)),
       kind=st.sampled_from(["truncate", "flip", "field"]),
       where=st.integers(0, 2**16),
       value=st.sampled_from(FIELD_VALUES),
       fix_checksum=st.booleans())
@example(name="images", kind="truncate", where=30, value=0, fix_checksum=False)
@example(name="images", kind="field", where=1, value=60000, fix_checksum=False)
@example(name="images", kind="field", where=2, value=0, fix_checksum=False)
@example(name="queries", kind="flip", where=8 * 40 + 7, value=0, fix_checksum=True)  # not UTF-8
@example(name="queries", kind="flip", where=8 * 62 + 6, value=0, fix_checksum=True)  # -1.0 -> -inf
def test_loaders_load_or_raise_format_errors(files, name, kind, where, value, fix_checksum):
    root, valid = files
    blob = valid[name]
    if kind == "truncate":
        blob = blob[:where % len(blob)]
    elif kind == "flip":
        bit = where % (8 * len(blob))
        blob = bytearray(blob)
        blob[bit // 8] ^= 1 << (bit % 8)
        blob = bytes(blob)
    else:
        offset, code = HEADER_FIELDS[name][where % len(HEADER_FIELDS[name])]
        size = struct.calcsize(code)
        value = min(value, 2 ** (8 * size) - 1)
        blob = blob[:offset] + struct.pack(code, value) + blob[offset + size:]
    if fix_checksum:
        blob = with_checksum(name, blob)
    for other, content in valid.items():
        (root / other).write_bytes(blob if other == name else content)

    before, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    try:
        dims = load(root, name)
    except (FormatError, ConsistencyError):
        pass
    else:
        assert min(dims) >= 1, dims
    _, peak = tracemalloc.get_traced_memory()
    assert peak - before < MAX_ALLOCATION
