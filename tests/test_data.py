"""IDX ingestion, dataset construction, and the seeded three-way split."""

import gzip
import struct

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
    assert np.array_equal(raw.images, images.astype(np.float64) / 255.0)
    assert np.array_equal(raw.labels, labels.astype(np.int64))


def test_load_idx_single_saturated_image():
    images = np.full((1, 784), 255, dtype=np.uint8)
    labels = np.array([4], dtype=np.uint8)
    raw = load_idx(corpus.idx_images_bytes(images), corpus.idx_labels_bytes(labels))
    assert np.array_equal(raw.images, np.ones((1, 784)))
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


def test_raw_mnist_validation():
    with pytest.raises(ValueError):
        RawMnist(np.zeros((3, 100)), np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError):
        RawMnist(np.zeros((3, 784)), np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError):
        RawMnist(np.zeros((0, 784)), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError):
        RawMnist(np.full((1, 784), 1.5), np.zeros(1, dtype=np.int64))
    with pytest.raises(ValueError):
        RawMnist(np.zeros((1, 784)), np.array([10]))


def test_concat_corpora_preserves_order():
    a = RawMnist(np.zeros((2, 784)), np.array([1, 2]))
    b = RawMnist(np.ones((1, 784)), np.array([3]))
    merged = concat_corpora(a, b)
    assert merged.size == 3
    assert merged.labels.tolist() == [1, 2, 3]
    assert merged.images[2, 0] == 1.0
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
    assert ds.kind == "binary"
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
    assert ds.kind == "categorical"
    assert ds.Y.shape == (small_pool.size, 10)
    assert np.array_equal(ds.Y.sum(axis=1), np.ones(small_pool.size))
    assert np.array_equal(np.argmax(ds.Y, axis=1), small_pool.labels)
    assert np.array_equal(ds.Y.sum(axis=0), np.full(10, 700.0))


# --- splitting -------------------------------------------------------------------


def flat_dataset(m):
    return Dataset("binary", np.zeros((m, 1)), np.zeros(m))


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
    data = Dataset("binary", np.arange(m, dtype=np.float64).reshape(m, 1), np.zeros(m))
    parts = split(data, seed=7)
    seen = np.concatenate([parts.test.X[:, 0], parts.validation.X[:, 0], parts.train.X[:, 0]])
    assert sorted(seen.tolist()) == list(range(m))


def test_split_determinism_and_seed_sensitivity():
    m = 120
    data = Dataset("binary", np.arange(m, dtype=np.float64).reshape(m, 1), np.zeros(m))
    a = split(data, seed=5)
    b = split(data, seed=5)
    c = split(data, seed=6)
    assert np.array_equal(a.test.X, b.test.X)
    assert np.array_equal(a.train.X, b.train.X)
    assert not np.array_equal(a.test.X, c.test.X)


def test_split_rejects_tiny_datasets():
    with pytest.raises(ValueError, match="40"):
        split(flat_dataset(39), seed=0)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset("other", np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        Dataset("binary", np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError):
        Dataset("binary", np.zeros((4, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        Dataset("binary", np.zeros((4, 2)), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        Dataset("categorical", np.zeros((4, 2)), np.zeros(4))
