"""IDX ingestion, dataset construction, and the seeded three-way split."""

import gzip
import mmap
import os
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

import corpus
from rwwce import (
    Dataset,
    RawMnist,
    concat_corpora,
    load_idx,
    load_idx_files,
    make_binary_dataset,
    make_categorical_dataset,
    split,
)
from rwwce.data import MNIST_FILE_BYTES, POSITIVE_SLICE_SIZE


def _tiny(n, seed):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(n, 784)).astype(np.uint8)
    labels = rng.integers(0, 10, size=n).astype(np.uint8)
    return corpus.idx_images_bytes(images), corpus.idx_labels_bytes(labels), images, labels


# --- parsing -------------------------------------------------------------------


def test_load_idx_roundtrip():
    images_bytes, labels_bytes, images, labels = _tiny(7, 1)
    raw = load_idx(images_bytes, labels_bytes)
    assert raw.size == 7
    assert raw.images.dtype == np.uint8
    assert np.array_equal(raw.images, images)
    assert np.array_equal(raw.labels, labels.astype(np.int64))


def test_load_idx_single_saturated_image():
    images = np.full((1, 784), 255, dtype=np.uint8)
    labels = np.array([4], dtype=np.uint8)
    raw = load_idx(corpus.idx_images_bytes(images), corpus.idx_labels_bytes(labels))
    assert raw.images.dtype == np.uint8
    assert np.array_equal(raw.images, np.full((1, 784), 255))
    assert raw.labels.tolist() == [4]


def test_load_idx_rejects_bad_magics():
    images_bytes, labels_bytes, _, _ = _tiny(3, 2)
    wrong = struct.pack(">I", 0x00000802) + images_bytes[4:]
    with pytest.raises(ValueError, match="magic"):
        load_idx(wrong, labels_bytes)
    # Swapped arguments: the labels file parses as an images header only if it
    # is long enough (>= 16 bytes), and then fails on its magic number.
    big_images, big_labels, _, _ = _tiny(8, 2)
    with pytest.raises(ValueError, match="magic"):
        load_idx(big_labels, big_images)
    # A tiny labels file cannot even fill the images header.
    with pytest.raises(ValueError, match="too short"):
        load_idx(labels_bytes, images_bytes)


def test_load_idx_rejects_count_mismatch():
    images_bytes, _, _, _ = _tiny(2, 3)
    labels3 = corpus.idx_labels_bytes(np.array([1, 2, 3], dtype=np.uint8))
    with pytest.raises(ValueError, match="2 examples but labels file has 3"):
        load_idx(images_bytes, labels3)


def test_load_idx_rejects_truncation_and_padding():
    images_bytes, labels_bytes, _, _ = _tiny(3, 4)
    with pytest.raises(ValueError):
        load_idx(images_bytes[:-1], labels_bytes)
    with pytest.raises(ValueError):
        load_idx(images_bytes + b"\x00", labels_bytes)
    with pytest.raises(ValueError):
        load_idx(images_bytes, labels_bytes[:-1])
    with pytest.raises(ValueError):
        load_idx(b"\x00\x00", labels_bytes)


def test_load_idx_rejects_wrong_image_dimensions():
    images = np.zeros((2, 27 * 27), dtype=np.uint8)
    header = struct.pack(">IIII", 0x00000803, 2, 27, 27)
    labels = corpus.idx_labels_bytes(np.array([0, 1], dtype=np.uint8))
    with pytest.raises(ValueError, match="28x28"):
        load_idx(header + images.tobytes(), labels)


def test_load_idx_files_supports_gzip(tmp_path):
    images_bytes, labels_bytes, images, labels = _tiny(4, 5)
    plain = tmp_path / "images-idx3-ubyte"
    plain.write_bytes(images_bytes)
    gz = tmp_path / "labels-idx1-ubyte.gz"
    gz.write_bytes(gzip.compress(labels_bytes))
    raw = load_idx_files(plain, gz)
    assert raw.size == 4
    assert np.array_equal(raw.labels, labels.astype(np.int64))


def _write_idx(path, payload):
    """Write payload at path, gzip-compressed when the name ends in .gz."""
    path.write_bytes(gzip.compress(payload) if path.suffix == ".gz" else payload)
    return path


def _pair_files(tmp_path, images_bytes, labels_bytes, suffix=""):
    return (
        _write_idx(tmp_path / ("images-idx3-ubyte" + suffix), images_bytes),
        _write_idx(tmp_path / ("labels-idx1-ubyte" + suffix), labels_bytes),
    )


def _payload_cases():
    images_bytes, labels_bytes, _, _ = _tiny(3, 4)
    n_images, n_labels = len(images_bytes), len(labels_bytes)
    images_short = "images file too short for an IDX header"
    labels_short = "labels file too short for an IDX header"
    return {
        "empty_images": (b"", labels_bytes, images_short),
        "short_images": (images_bytes[:10], labels_bytes, images_short),
        "truncated_images": (
            images_bytes[:-1], labels_bytes,
            f"images payload is {n_images - 1} bytes, header implies {n_images}",
        ),
        "padded_images": (
            images_bytes + b"\x00", labels_bytes,
            f"images payload is {n_images + 1} bytes, header implies {n_images}",
        ),
        "empty_labels": (images_bytes, b"", labels_short),
        "short_labels": (images_bytes, labels_bytes[:5], labels_short),
        "truncated_labels": (
            images_bytes, labels_bytes[:-1],
            f"labels payload is {n_labels - 1} bytes, header implies {n_labels}",
        ),
        "padded_labels": (
            images_bytes, labels_bytes + b"\x00",
            f"labels payload is {n_labels + 1} bytes, header implies {n_labels}",
        ),
    }


@pytest.mark.parametrize("suffix", ["", ".gz"], ids=["plain", "gz"])
@pytest.mark.parametrize("case", list(_payload_cases()))
def test_load_idx_files_rejects_bad_lengths_with_the_bytes_message(tmp_path, case, suffix):
    images_bytes, labels_bytes, message = _payload_cases()[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_idx(images_bytes, labels_bytes)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_idx_files(*_pair_files(tmp_path, images_bytes, labels_bytes, suffix))


@pytest.mark.parametrize(
    "damage, cause, message",
    [
        # Cut mid-stream, or the first deflate block given the reserved block type 3.
        (lambda gz: gz[: len(gz) // 2], EOFError, "Compressed file ended"),
        (lambda gz: gz[:10] + b"\x07" + gz[11:], zlib.error, "invalid block type"),
    ],
    ids=["truncated", "corrupt"],
)
def test_load_idx_files_raises_value_error_for_a_broken_gz_stream(tmp_path, damage, cause, message):
    images_bytes, labels_bytes, _, _ = _tiny(3, 4)
    images, labels = _pair_files(tmp_path, images_bytes, labels_bytes, ".gz")
    labels.write_bytes(damage(labels.read_bytes()))
    with pytest.raises(ValueError, match=message) as raised:
        load_idx_files(images, labels)
    assert isinstance(raised.value.__cause__, cause)
    assert str(raised.value) == str(raised.value.__cause__)


def test_a_labels_file_wrong_in_length_and_count_reports_its_length():
    images_bytes, _, _, _ = _tiny(2, 3)
    labels3 = corpus.idx_labels_bytes(np.array([1, 2, 3], dtype=np.uint8))
    with pytest.raises(ValueError, match="^labels payload is 12 bytes, header implies 11$"):
        load_idx(images_bytes, labels3 + b"\x00")


def test_load_idx_files_refuses_a_plain_path_that_cannot_be_mapped(tmp_path):
    _, labels_bytes, _, _ = _tiny(3, 4)
    labels = _write_idx(tmp_path / "labels-idx1-ubyte", labels_bytes)
    with pytest.raises(ValueError, match="is not a regular file"):
        load_idx_files(os.devnull, labels)


def test_plain_and_gzip_copies_load_equal_and_read_only(tmp_path):
    images_bytes, labels_bytes, images, labels = _tiny(50, 6)
    (tmp_path / "plain").mkdir()
    (tmp_path / "gz").mkdir()
    plain = load_idx_files(*_pair_files(tmp_path / "plain", images_bytes, labels_bytes))
    gz = load_idx_files(*_pair_files(tmp_path / "gz", images_bytes, labels_bytes, ".gz"))
    for raw in (plain, gz):
        assert np.array_equal(raw.images, images)
        assert np.array_equal(raw.labels, labels.astype(np.int64))
        assert not raw.images.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            raw.images[0, 0] = 1
    assert np.array_equal(plain.images, gz.images)
    assert np.array_equal(plain.labels, gz.labels)


def test_loading_a_plain_pair_maps_instead_of_copying(tmp_path):
    # 10,000 images are a 7.84 MB file; reading it into bytes would trace at
    # least that much.  Mapped, only the int64 labels (80 kB) are allocated.
    n = 10_000
    images = (np.arange(n * 784) % 251).astype(np.uint8).reshape(n, 784)
    labels = (np.arange(n) % 10).astype(np.uint8)
    paths = _pair_files(tmp_path, corpus.idx_images_bytes(images), corpus.idx_labels_bytes(labels))
    del images
    tracemalloc.start()
    try:
        raw = load_idx_files(*paths)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert raw.size == n
    assert peak < 1_000_000


def _buffer_chain(array):
    """Every object array's memory hangs from: its .base chain, through memoryviews."""
    chain, obj = [], array.base
    while obj is not None:
        chain.append(obj)
        obj = obj.obj if isinstance(obj, memoryview) else getattr(obj, "base", None)
    return chain


def test_concat_corpora_owns_its_memory_after_loading_mapped_files(tmp_path):
    a_bytes, a_labels, a_images, _ = _tiny(5, 7)
    b_bytes, b_labels, b_images, _ = _tiny(4, 8)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a_paths = _pair_files(tmp_path / "a", a_bytes, a_labels)
    b_paths = _pair_files(tmp_path / "b", b_bytes, b_labels)
    a, b = load_idx_files(*a_paths), load_idx_files(*b_paths)
    assert any(isinstance(obj, mmap.mmap) for obj in _buffer_chain(a.images))
    for single in (True, False):
        pool = concat_corpora(a) if single else concat_corpora(a, b)
        assert pool.images.flags.owndata
        assert not any(isinstance(obj, mmap.mmap) for obj in _buffer_chain(pool.images))
        assert not any(isinstance(obj, mmap.mmap) for obj in _buffer_chain(pool.labels))
    expected = np.concatenate([a_images, b_images])

    # Rewrite every pixel of the first images file in place, keeping its
    # length: the still-mapped corpus sees the new bytes, the pool does not.
    with open(a_paths[0], "r+b") as f:
        f.seek(16)
        f.write(bytes(255 - a_images.reshape(-1)))
    assert np.array_equal(a.images, 255 - a_images)
    assert np.array_equal(pool.images, expected)


def _pixels(shape, value=0):
    return np.full(shape, value, dtype=np.uint8)


def test_raw_mnist_validation():
    with pytest.raises(ValueError):
        RawMnist(_pixels((3, 100)), np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError):
        RawMnist(_pixels((3, 784)), np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError):
        RawMnist(_pixels((0, 784)), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError):
        RawMnist(_pixels((1, 784)), np.array([10]))


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.uint16])
def test_raw_mnist_rejects_images_that_are_not_pixel_bytes(dtype):
    # Scaled floats in [0, 1] are refused too: images are the IDX bytes.
    with pytest.raises(ValueError, match="uint8"):
        RawMnist(np.zeros((1, 784), dtype=dtype), np.zeros(1, dtype=np.int64))


def test_concat_corpora_preserves_order():
    a = RawMnist(_pixels((2, 784)), np.array([1, 2]))
    b = RawMnist(_pixels((1, 784), 255), np.array([3]))
    merged = concat_corpora(a, b)
    assert merged.size == 3
    assert merged.labels.tolist() == [1, 2, 3]
    assert merged.images.dtype == np.uint8
    assert merged.images[2, 0] == 255
    with pytest.raises(ValueError):
        concat_corpora()


def test_published_mnist_byte_lengths():
    assert MNIST_FILE_BYTES == {
        "train-images-idx3-ubyte": 16 + 60_000 * 784,
        "train-labels-idx1-ubyte": 8 + 60_000,
        "t10k-images-idx3-ubyte": 16 + 10_000 * 784,
        "t10k-labels-idx1-ubyte": 8 + 10_000,
    }


def test_standard_layout_fixture_matches_published_lengths(mnist_dir):
    for name, expected in MNIST_FILE_BYTES.items():
        assert (mnist_dir / name).stat().st_size == expected


# --- binary dataset construction -------------------------------------------------


def test_make_binary_dataset_shape_and_slice(small_pool):
    ds = make_binary_dataset(small_pool, digit=3, slice_index=0)
    assert ds.Y.ndim == 1
    positives = int(ds.Y.sum())
    assert positives == POSITIVE_SLICE_SIZE
    occurrences = np.flatnonzero(small_pool.labels == 3)
    negatives = small_pool.size - occurrences.size
    assert ds.size == POSITIVE_SLICE_SIZE + negatives


def test_make_binary_dataset_takes_first_occurrences_in_file_order(small_pool):
    ds = make_binary_dataset(small_pool, digit=3, slice_index=0)
    occurrences = np.flatnonzero(small_pool.labels == 3)
    wanted = set(occurrences[:POSITIVE_SLICE_SIZE].tolist())
    # Reconstruct which source rows were kept, in order.
    keep = np.zeros(small_pool.size, dtype=bool)
    keep[small_pool.labels != 3] = True
    keep[occurrences[:POSITIVE_SLICE_SIZE]] = True
    rows = np.flatnonzero(keep)
    assert ds.X.dtype == np.uint8
    assert np.array_equal(ds.X, small_pool.images[rows])
    positive_rows = rows[ds.Y == 1.0]
    assert set(positive_rows.tolist()) == wanted


def test_make_binary_dataset_later_slice_offsets(full_pool):
    # Slice 9 of a 7,000-occurrence digit selects occurrences 5670..6299.
    ds = make_binary_dataset(full_pool, digit=5, slice_index=9)
    occurrences = np.flatnonzero(full_pool.labels == 5)
    keep = np.zeros(full_pool.size, dtype=bool)
    keep[full_pool.labels != 5] = True
    keep[occurrences[9 * 630 : 10 * 630]] = True
    rows = np.flatnonzero(keep)
    got_positive = rows[ds.Y == 1.0]
    assert np.array_equal(got_positive, occurrences[5670:6300])


def test_make_binary_dataset_positive_fraction_is_about_one_percent(full_pool):
    ds = make_binary_dataset(full_pool, digit=0, slice_index=0)
    assert len(ds.Y) == 9 * 7000 + 630 == 63_630  # every other-digit example plus one slice
    fraction = ds.Y.mean()
    assert 0.008 < fraction < 0.012


def test_make_binary_dataset_rejects_exhausted_slices(small_pool):
    # 700 occurrences per digit cannot fill slice 1 (needs 1,260).
    with pytest.raises(ValueError, match="occurrences"):
        make_binary_dataset(small_pool, digit=3, slice_index=1)
    with pytest.raises(ValueError):
        make_binary_dataset(small_pool, digit=11, slice_index=0)
    with pytest.raises(ValueError):
        make_binary_dataset(small_pool, digit=3, slice_index=-1)


def test_make_categorical_dataset(small_pool):
    ds = make_categorical_dataset(small_pool)
    assert ds.Y.shape == (small_pool.size, 10)
    assert np.array_equal(ds.Y.sum(axis=1), np.ones(small_pool.size))
    assert np.array_equal(np.argmax(ds.Y, axis=1), small_pool.labels)
    assert np.array_equal(ds.Y.sum(axis=0), np.full(10, 700.0))


# --- splitting -------------------------------------------------------------------


def flat_dataset(m):
    return Dataset(np.zeros((m, 1)), np.zeros(m))


def test_split_sizes_use_integer_floors():
    parts = split(flat_dataset(63_630), seed=0)
    assert parts.test.size == 15_907
    assert parts.validation.size == 4_772
    assert parts.train.size == 42_951

    tiny = split(flat_dataset(40), seed=0)
    assert (tiny.test.size, tiny.validation.size, tiny.train.size) == (10, 3, 27)


def test_split_proportions_on_the_full_pool_size():
    parts = split(flat_dataset(70_000), seed=1)
    assert parts.test.size == 17_500
    assert parts.validation.size == 5_250
    assert parts.train.size == 47_250


def test_split_is_disjoint_and_exhaustive():
    m = 200
    data = Dataset(np.arange(m, dtype=np.float64).reshape(m, 1), np.zeros(m))
    parts = split(data, seed=7)
    seen = np.concatenate([parts.test.X[:, 0], parts.validation.X[:, 0], parts.train.X[:, 0]])
    assert sorted(seen.tolist()) == list(range(m))


def test_split_determinism_and_seed_sensitivity():
    m = 120
    data = Dataset(np.arange(m, dtype=np.float64).reshape(m, 1), np.zeros(m))
    a = split(data, seed=5)
    b = split(data, seed=5)
    c = split(data, seed=6)
    assert np.array_equal(a.test.X, b.test.X)
    assert np.array_equal(a.train.X, b.train.X)
    assert not np.array_equal(a.test.X, c.test.X)


def test_datasets_and_splits_keep_pixel_bytes(small_pool):
    binary = make_binary_dataset(small_pool, digit=3, slice_index=0)
    categorical = make_categorical_dataset(small_pool)
    for ds in (binary, categorical):
        assert ds.X.dtype == np.uint8
        parts = split(ds, seed=0)
        for part in (parts.train, parts.validation, parts.test):
            assert part.X.dtype == np.uint8
            assert part.Y.dtype == np.float64
    # The categorical dataset is the pool itself, not a copy of it.
    assert np.shares_memory(categorical.X, small_pool.images)


def test_dataset_stores_float_features_as_float64():
    for x in (np.zeros((40, 2), np.float32), np.zeros((40, 2), np.int64), [[0, 1]] * 40):
        ds = Dataset(x, np.zeros(40))
        assert ds.X.dtype == np.float64
        assert split(ds, seed=0).train.X.dtype == np.float64


def test_split_rejects_tiny_datasets():
    with pytest.raises(ValueError, match="40"):
        split(flat_dataset(39), seed=0)


def test_dataset_validation():
    with pytest.raises(ValueError, match="X must be 2-D"):
        Dataset(np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError, match="X has 4 rows but Y has 3"):
        Dataset(np.zeros((4, 2)), np.zeros(3))
    for y in (np.float64(0.0), np.zeros((4, 2, 1))):
        with pytest.raises(ValueError, match="Y must be a label vector or one-hot rows"):
            Dataset(np.zeros((4, 2)), y)
