"""The one binary reader: size checked before reading, each payload read once.

Model and query-set files go through `_io.read_container`, IDX files through
the same size check, so a file of the wrong length gives the same errors
whatever its format, and loading holds about one copy of the payload.
"""

import os

import numpy as np
import pytest
from conftest import peak_while

from netrecon.data import QuerySet, load_queryset, save_queryset
from netrecon.errors import FormatError, TruncatedFileError
from netrecon.network import init_mlp, load_mlp, save_mlp

TRAILING = 50 << 20  # bytes


def save_model(path):
    net = init_mlp(3, 4, 2, seed=0)
    save_mlp(net, str(path))
    return net


def save_queries(path):
    rng = np.random.default_rng(0)
    qs = QuerySet(inputs=rng.normal(size=(6, 4)), targets=rng.normal(size=(6, 2)),
                  provenance="biased_noise(magnitude=1.0, seed=0)")
    save_queryset(qs, str(path))
    return qs


LOADERS = {"model": (save_model, load_mlp), "queries": (save_queries, load_queryset)}


def big_model(path):
    save_mlp(init_mlp(2048, 2048, 10, seed=1), str(path))


def big_queries(path):
    rng = np.random.default_rng(1)
    save_queryset(QuerySet(inputs=rng.normal(size=(32768, 128)),
                           targets=rng.normal(size=(32768, 10))), str(path))


@pytest.mark.parametrize("kind,save", [("model", big_model), ("queries", big_queries)])
def test_load_peaks_at_one_payload(tmp_path, kind, save):
    path = tmp_path / kind
    save(path)
    payload = path.stat().st_size
    assert payload >= 32 << 20
    _, peak = peak_while(LOADERS[kind][1], str(path))
    assert peak <= 1.1 * payload, peak / payload


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_trailing_bytes_refused_before_reading(tmp_path, kind):
    save, load = LOADERS[kind]
    path = tmp_path / kind
    save(path)
    with open(path, "r+b") as f:  # sparse: the trailing bytes take no disk
        f.truncate(path.stat().st_size + TRAILING)
    exc, peak = peak_while(load, str(path), catch=True)
    assert isinstance(exc, FormatError) and not isinstance(exc, TruncatedFileError)
    assert f"{TRAILING} bytes after" in str(exc)
    assert peak < 1 << 20


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_short_file_is_truncated_like_idx(tmp_path, kind):
    save, load = LOADERS[kind]
    path = tmp_path / kind
    save(path)
    with open(path, "r+b") as f:
        f.truncate(path.stat().st_size - 9)
    with pytest.raises(TruncatedFileError, match="file holds"):
        load(str(path))


def test_loaded_query_set_is_two_read_only_views_of_one_buffer(tmp_path):
    saved = save_queries(tmp_path / "q.qs")
    qs = load_queryset(str(tmp_path / "q.qs"))
    assert np.array_equal(qs.inputs, saved.inputs)
    assert np.array_equal(qs.targets, saved.targets)
    assert qs.provenance == saved.provenance
    assert qs.inputs.base is not None and qs.inputs.base is qs.targets.base
    for array in (qs.inputs, qs.targets, qs.inputs.base):
        assert not array.flags.writeable


# bytes to cut from each file: into the CRC trailer, into the last float, and
# into the first float (model) or the provenance prefix (query set)
CUTS = {"model": [2, 12, 180], "queries": [2, 12, 4 + 8 * 6 * 6 + 10]}


@pytest.mark.parametrize("kind,cut", [(k, c) for k in sorted(CUTS) for c in CUTS[k]])
def test_file_that_shrinks_after_sizing_is_truncated(tmp_path, monkeypatch, kind, cut):
    # the size check sees the original length; the reads find the file shorter
    save, load = LOADERS[kind]
    path = tmp_path / kind
    save(path)
    with open(path, "r+b") as f:
        f.truncate(path.stat().st_size - cut)
    real_fstat = os.fstat

    def unshrunk(fd):
        st = real_fstat(fd)
        return os.stat_result((*st[:6], st.st_size + cut, *st[7:]))

    monkeypatch.setattr(os, "fstat", unshrunk)
    with pytest.raises(TruncatedFileError, match="truncated"):
        load(str(path))
