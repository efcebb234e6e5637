import hashlib
import struct
import zlib

import numpy as np
import pytest
from conftest import peak_while

from netrecon.data import (
    ImageDataset,
    QuerySet,
    load_idx,
    load_queryset,
    make_synthetic_classification,
    save_idx,
    save_queryset,
    standardize,
    subset,
)
from netrecon.errors import ConsistencyError, DegenerateDataError, FormatError


def write_idx_pair(tmp_path, images, labels, rows, cols,
                   images_magic=0x803, labels_magic=0x801, label_count=None):
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    n = len(labels)
    images_path.write_bytes(
        struct.pack(">IIII", images_magic, len(images) // (rows * cols), rows, cols)
        + bytes(images)
    )
    labels_path.write_bytes(
        struct.pack(">II", labels_magic, label_count if label_count is not None else n)
        + bytes(labels)
    )
    return str(images_path), str(labels_path)


class TestLoadIdx:
    def test_two_zero_images(self, tmp_path):
        imgs, labs = write_idx_pair(tmp_path, [0] * (2 * 4 * 3), [1, 0], rows=4, cols=3)
        ds = load_idx(imgs, labs)
        assert ds.n_samples == 2
        assert ds.d == 12
        assert np.all(ds.images == 0.0)
        assert list(ds.labels) == [1, 0]

    def test_pixel_values_preserved(self, tmp_path):
        pixels = list(range(12))
        imgs, labs = write_idx_pair(tmp_path, pixels, [3], rows=3, cols=4)
        ds = load_idx(imgs, labs)
        assert np.array_equal(ds.images[0], np.arange(12.0))

    def test_count_mismatch(self, tmp_path):
        imgs, labs = write_idx_pair(tmp_path, [0] * 24, [0, 1], rows=4, cols=3,
                                    label_count=9)
        # labels header claims 9 but images header says 2
        with pytest.raises((ConsistencyError, EOFError)):
            load_idx(imgs, labs)

    def test_header_count_disagreement(self, tmp_path):
        # consistent payloads, disagreeing headers
        imgs, labs = write_idx_pair(tmp_path, [0] * (3 * 4), [0, 1, 2, 3], rows=2,
                                    cols=2)
        with pytest.raises(ConsistencyError):
            load_idx(imgs, labs)

    def test_bad_magic(self, tmp_path):
        imgs, labs = write_idx_pair(tmp_path, [0] * 12, [0], rows=4, cols=3,
                                    images_magic=0x804)
        with pytest.raises(FormatError):
            load_idx(imgs, labs)

    def test_truncated_is_io_error(self, tmp_path):
        imgs, labs = write_idx_pair(tmp_path, [0] * 12, [0], rows=4, cols=3)
        blob = open(imgs, "rb").read()
        open(imgs, "wb").write(blob[:-5])
        with pytest.raises(EOFError):
            load_idx(imgs, labs)

    def test_truncated_is_format_error(self, tmp_path):
        imgs, labs = write_idx_pair(tmp_path, [0] * 12, [0], rows=4, cols=3)
        blob = open(imgs, "rb").read()
        open(imgs, "wb").write(blob[:-5])
        with pytest.raises(FormatError, match="truncated|holds"):
            load_idx(imgs, labs)

    def test_header_larger_than_file_is_rejected_before_reading(self, tmp_path):
        # 20 images of 60000x60000 pixels would be 72 GB; the body has 500 bytes
        imgs, labs = write_idx_pair(tmp_path, [], [0] * 20, rows=1, cols=1)
        open(imgs, "wb").write(struct.pack(">IIII", 0x803, 20, 60000, 60000) + bytes(500))
        with pytest.raises(FormatError, match="72000000000 bytes"):
            load_idx(imgs, labs)

    def test_trailing_image_bytes_rejected(self, tmp_path):
        imgs, labs = write_idx_pair(tmp_path, [0] * (2 * 4 * 3), [1, 0], rows=4, cols=3)
        open(imgs, "ab").write(bytes(8))
        with pytest.raises(FormatError, match="8 bytes after"):
            load_idx(imgs, labs)

    def test_trailing_label_bytes_rejected(self, tmp_path):
        imgs, labs = write_idx_pair(tmp_path, [0] * (2 * 4 * 3), [1, 0, 1], rows=4, cols=3,
                                    label_count=2)
        with pytest.raises(FormatError, match="1 bytes after"):
            load_idx(imgs, labs)

    def test_zero_size_images_rejected(self, tmp_path):
        imgs, labs = write_idx_pair(tmp_path, [], [0, 1], rows=1, cols=1)
        open(imgs, "wb").write(struct.pack(">IIII", 0x803, 2, 0, 0))
        with pytest.raises(FormatError, match="1x1"):
            load_idx(imgs, labs)

    def test_zero_samples_rejected(self, tmp_path):
        imgs, labs = write_idx_pair(tmp_path, [], [], rows=2, cols=2)
        with pytest.raises(FormatError):
            load_idx(imgs, labs)


class TestIdxRoundTrip:
    def test_write_then_read_identity(self, tmp_path):
        ds = make_synthetic_classification(40, height=5, width=4, seed=3)
        imgs, labs = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
        save_idx(ds, imgs, labs)
        back = load_idx(imgs, labs)
        assert np.array_equal(ds.images, back.images)
        assert np.array_equal(ds.labels, back.labels)
        assert (back.height, back.width) == (5, 4)

    def test_rejects_non_byte_pixels(self, tmp_path):
        ds, _, _ = standardize(make_synthetic_classification(10, seed=0))
        with pytest.raises(ValueError):
            save_idx(ds, str(tmp_path / "i.idx"), str(tmp_path / "l.idx"))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0, 256.0, 0.5, 254.5])
    def test_refuses_each_pixel_no_byte_holds(self, tmp_path, value):
        images = np.full((3, 4), 7.0)
        images[1, 2] = value
        ds = ImageDataset(images=images, labels=np.zeros(3), height=2, width=2)
        with pytest.raises(ValueError, match=r"pixels must be integers in \[0, 255\]"):
            save_idx(ds, str(tmp_path / "i.idx"), str(tmp_path / "l.idx"))
        assert list(tmp_path.iterdir()) == []

    def test_bytes_on_disk(self, tmp_path):
        ds = ImageDataset(images=[[0.0, 255.0], [-0.0, 17.0]], labels=[3, 255], height=1,
                          width=2)
        imgs, labs = tmp_path / "i.idx", tmp_path / "l.idx"
        save_idx(ds, str(imgs), str(labs))
        assert imgs.read_bytes() == struct.pack(">IIII", 0x803, 2, 1, 2) + bytes([0, 255, 0, 17])
        assert labs.read_bytes() == struct.pack(">II", 0x801, 2) + bytes([3, 255])

    def test_peak_is_a_fraction_of_the_float_pixels(self, tmp_path):
        ds = make_synthetic_classification(20_000, 8, 8)
        _, peak = peak_while(save_idx, ds, str(tmp_path / "i.idx"), str(tmp_path / "l.idx"))
        # the uint8 pixels and the integrality check's booleans, an eighth each
        assert peak < 0.5 * ds.images.nbytes, peak / ds.images.nbytes


class TestStandardize:
    def test_two_pixel_symmetry(self):
        ds = ImageDataset(images=[[0.0], [2.0]], labels=[0, 1], height=1, width=1)
        out, mean, std = standardize(ds)
        assert mean == 1.0 and std == 1.0
        assert np.array_equal(out.images, [[-1.0], [1.0]])

    def test_constant_dataset_degenerate(self):
        ds = ImageDataset(images=np.full((3, 4), 7.0), labels=[0, 1, 2],
                          height=2, width=2)
        with pytest.raises(DegenerateDataError):
            standardize(ds)

    def test_recomputed_moments(self):
        # oracle: recompute the moments of the standardized array
        ds = make_synthetic_classification(500, seed=1)
        out, _, _ = standardize(ds)
        assert abs(out.images.mean()) < 1e-6
        assert abs(out.images.std() - 1.0) < 1e-6

    def test_idempotent(self):
        ds = make_synthetic_classification(200, seed=2)
        once, _, _ = standardize(ds)
        twice, _, _ = standardize(once)
        assert np.max(np.abs(once.images - twice.images)) < 1e-9

    def test_external_stats(self):
        train = make_synthetic_classification(300, seed=3)
        other = make_synthetic_classification(300, style="stripes", seed=4)
        _, mean, std = standardize(train)
        out, m2, s2 = standardize(other, stats=(mean, std))
        assert (m2, s2) == (mean, std)
        assert np.allclose(out.images, (other.images - mean) / std)
        assert out.mean == mean and out.std == std

    def test_records_constants(self):
        ds = make_synthetic_classification(100, seed=5)
        assert ds.mean is None and ds.std is None
        out, mean, std = standardize(ds)
        assert out.mean == mean and out.std == std


class TestSubset:
    def test_deterministic(self):
        ds = make_synthetic_classification(100, seed=0)
        a = subset(ds, 30, seed=9)
        b = subset(ds, 30, seed=9)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_full_subset_is_permutation(self):
        ds = make_synthetic_classification(50, seed=1)
        full = subset(ds, 50, seed=4)
        original = {tuple(row) for row in ds.images}
        permuted = {tuple(row) for row in full.images}
        assert original == permuted
        assert sorted(full.labels) == sorted(ds.labels)

    def test_out_of_range(self):
        ds = make_synthetic_classification(10, seed=2)
        with pytest.raises(ValueError):
            subset(ds, 0, seed=0)
        with pytest.raises(ValueError):
            subset(ds, 11, seed=0)


class TestQuerySetFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        qs = QuerySet(inputs=rng.normal(size=(7, 5)), targets=rng.normal(size=(7, 3)),
                      provenance="biased_noise(magnitude=1.0, seed=2)")
        path = str(tmp_path / "q.qs")
        save_queryset(qs, path)
        back = load_queryset(path)
        assert np.array_equal(qs.inputs, back.inputs)
        assert np.array_equal(qs.targets, back.targets)
        assert back.provenance == qs.provenance

    def test_empty_provenance(self, tmp_path):
        qs = QuerySet(inputs=np.zeros((2, 2)), targets=np.zeros((2, 1)))
        path = str(tmp_path / "q.qs")
        save_queryset(qs, path)
        assert load_queryset(path).provenance == ""

    def test_truncated(self, tmp_path):
        qs = QuerySet(inputs=np.zeros((4, 3)), targets=np.zeros((4, 2)))
        path = str(tmp_path / "q.qs")
        save_queryset(qs, path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-9])
        with pytest.raises(FormatError):
            load_queryset(path)

    def test_checksum(self, tmp_path):
        qs = QuerySet(inputs=np.ones((4, 3)), targets=np.ones((4, 2)))
        path = str(tmp_path / "q.qs")
        save_queryset(qs, path)
        blob = bytearray(open(path, "rb").read())
        blob[40] ^= 0x01
        open(path, "wb").write(bytes(blob))
        with pytest.raises(FormatError):
            load_queryset(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.qs"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(FormatError):
            load_queryset(str(path))

    @pytest.mark.parametrize("offset,value", [(-12, np.nan), (40, np.inf), (48, -np.inf)])
    def test_non_finite_entry_rejected(self, tmp_path, offset, value):
        with pytest.raises(ValueError, match="finite"):
            QuerySet(inputs=[[0.0, value]], targets=[[1.0]])
        # a valid checksum around one non-finite input (offset 40 on) or last target
        path = tmp_path / "q.qs"
        save_queryset(QuerySet(inputs=np.zeros((2, 3)), targets=np.zeros((2, 2))), str(path))
        blob = bytearray(path.read_bytes())
        blob[offset:offset + 8] = struct.pack("<d", value)
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[4:-4])))
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="finite"):
            load_queryset(str(path))

    def test_zero_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            QuerySet(inputs=np.zeros((0, 3)), targets=np.zeros((0, 2)))
        # a valid checksum around a header that declares Q = 0
        body = struct.pack("<IQQQQ", 1, 0, 3, 2, 0)
        path = tmp_path / "empty.qs"
        path.write_bytes(b"NRQS" + body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(FormatError):
            load_queryset(str(path))


class TestSynthetic:
    def test_deterministic_and_byte_valued(self):
        a = make_synthetic_classification(64, seed=8)
        b = make_synthetic_classification(64, seed=8)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.images, np.rint(a.images))
        assert a.images.min() >= 0 and a.images.max() <= 255

    @pytest.mark.parametrize("n, side, style, digest", [
        (600, 4, "blobs", "6fa3531e917ef25f"),
        (200, 5, "stripes", "5f60c6909da7adb9"),
    ])
    def test_golden_bytes(self, n, side, style, digest):
        # sha256 prefix of the images then the labels, as written before the
        # generator worked in place
        ds = make_synthetic_classification(n, side, side, style=style, seed=3)
        h = hashlib.sha256(ds.images.tobytes())
        h.update(ds.labels.tobytes())
        assert h.hexdigest()[:16] == digest

    def test_peak_is_twice_the_result(self):
        ds, peak = peak_while(make_synthetic_classification, 20_000, 8, 8)
        # the result and one noise draw of its size
        assert peak < 2.5 * ds.images.nbytes, peak / ds.images.nbytes

    def test_styles_differ(self):
        blobs = make_synthetic_classification(32, seed=1, style="blobs")
        stripes = make_synthetic_classification(32, seed=1, style="stripes")
        assert not np.array_equal(blobs.images, stripes.images)

    def test_dataset_immutable(self):
        ds = make_synthetic_classification(8, seed=0)
        with pytest.raises(ValueError):
            ds.images[0, 0] = 1.0
