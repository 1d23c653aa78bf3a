"""IDX image-corpus ingestion and experiment dataset construction.

Reads the classic big-endian IDX format used to distribute MNIST: an
images file (magic 0x00000803) of 28x28 unsigned bytes and a labels file
(magic 0x00000801) of digit bytes.  Pixels stay the uint8 bytes of the
payload, flattened row-major to 784 features, through every dataset and
split, so a pool costs one byte per pixel; nn.forward scales each batch to
[0, 1] with / 255.0.  From a loaded corpus the module builds the two
experiment dataset shapes: a heavily imbalanced binary problem (one slice of
630 occurrences of a chosen digit as positives against every example of the
other digits) and the full 10-class one-hot problem.  A seeded shuffle
splits any dataset 25% test / 7.5% validation / remainder train, using
integer arithmetic so the proportions are exact floors.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

IMAGE_ROWS = 28
IMAGE_COLS = 28
FEATURES = IMAGE_ROWS * IMAGE_COLS

POSITIVE_SLICE_SIZE = 630

# Published byte lengths of the four standard MNIST distribution files,
# uncompressed.  verify-data checks candidates against these.
MNIST_FILE_BYTES = {
    "train-images-idx3-ubyte": 47_040_016,
    "train-labels-idx1-ubyte": 60_008,
    "t10k-images-idx3-ubyte": 7_840_016,
    "t10k-labels-idx1-ubyte": 10_008,
}

MNIST_TOTAL_EXAMPLES = 70_000
NUM_CLASSES = 10


@dataclass
class RawMnist:
    """A loaded corpus: images (N, 784) uint8 pixel bytes, labels (N,) int64 in 0..9.

    Images of any other dtype are rejected rather than converted; the uint8
    dtype is what bounds every pixel to 0..255.
    """

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.images = np.asarray(self.images)
        if self.images.dtype != np.uint8:
            raise ValueError(f"images must be uint8 pixel bytes, got {self.images.dtype}")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 2 or self.images.shape[1] != FEATURES:
            raise ValueError(f"images must be (N, {FEATURES}), got {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ValueError(
                f"labels shape {self.labels.shape} does not match {self.images.shape[0]} images"
            )
        if self.images.shape[0] == 0:
            raise ValueError("corpus is empty")
        if np.any(self.labels < 0) or np.any(self.labels > 9):
            raise ValueError("labels must be digits 0..9")

    @property
    def size(self) -> int:
        return self.images.shape[0]


def load_idx(images_bytes: bytes, labels_bytes: bytes) -> RawMnist:
    """Parse paired IDX image/label payloads into a RawMnist corpus.

    Verifies both magic numbers, the 28x28 image dimensions, the agreement
    of the two counts, and that each payload carries exactly as many bytes
    as its header promises.  The images are a read-only uint8 view of
    images_bytes, not a copy.
    """
    if len(images_bytes) < 16:
        raise ValueError("images file too short for an IDX header")
    magic, count, rows, cols = struct.unpack(">IIII", images_bytes[:16])
    if magic != IMAGES_MAGIC:
        raise ValueError(f"bad images magic 0x{magic:08x}, expected 0x{IMAGES_MAGIC:08x}")
    if (rows, cols) != (IMAGE_ROWS, IMAGE_COLS):
        raise ValueError(f"expected {IMAGE_ROWS}x{IMAGE_COLS} images, got {rows}x{cols}")
    expected = 16 + count * rows * cols
    if len(images_bytes) != expected:
        raise ValueError(f"images payload is {len(images_bytes)} bytes, header implies {expected}")

    if len(labels_bytes) < 8:
        raise ValueError("labels file too short for an IDX header")
    lmagic, lcount = struct.unpack(">II", labels_bytes[:8])
    if lmagic != LABELS_MAGIC:
        raise ValueError(f"bad labels magic 0x{lmagic:08x}, expected 0x{LABELS_MAGIC:08x}")
    if lcount != count:
        raise ValueError(f"images file has {count} examples but labels file has {lcount}")
    if len(labels_bytes) != 8 + lcount:
        raise ValueError(f"labels payload is {len(labels_bytes)} bytes, header implies {8 + lcount}")

    images = np.frombuffer(images_bytes, dtype=np.uint8, offset=16).reshape(count, rows * cols)
    labels = np.frombuffer(labels_bytes, dtype=np.uint8, offset=8).astype(np.int64)
    return RawMnist(images, labels)


def _read_maybe_gzip(path: Path) -> bytes:
    if path.suffix == ".gz":
        with gzip.open(path, "rb") as f:
            return f.read()
    return path.read_bytes()


def load_idx_files(images_path, labels_path) -> RawMnist:
    """Load an IDX corpus from disk; .gz files are decompressed transparently."""
    return load_idx(_read_maybe_gzip(Path(images_path)), _read_maybe_gzip(Path(labels_path)))


def concat_corpora(*corpora: RawMnist) -> RawMnist:
    """Concatenate corpora in order (e.g. the train and test files into one pool)."""
    if not corpora:
        raise ValueError("nothing to concatenate")
    return RawMnist(
        np.concatenate([c.images for c in corpora], axis=0),
        np.concatenate([c.labels for c in corpora], axis=0),
    )


@dataclass
class Dataset:
    """A model-ready dataset.

    kind is "binary" (Y is a (M,) 0/1 vector) or "categorical" (Y is an
    (M, K) exact one-hot matrix).  X holds uint8 pixel bytes, as every
    dataset built from a RawMnist does; X of any other dtype is stored as
    float64.  Y is float64.
    """

    kind: str
    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in ("binary", "categorical"):
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        self.X = np.asarray(self.X)
        if self.X.dtype != np.uint8:
            self.X = self.X.astype(np.float64, copy=False)
        self.Y = np.asarray(self.Y, dtype=np.float64)
        if self.X.ndim != 2:
            raise ValueError("X must be 2-D")
        if self.X.shape[0] != self.Y.shape[0]:
            raise ValueError(f"X has {self.X.shape[0]} rows but Y has {self.Y.shape[0]}")
        if self.kind == "binary" and self.Y.ndim != 1:
            raise ValueError("binary labels must be a vector")
        if self.kind == "categorical" and self.Y.ndim != 2:
            raise ValueError("categorical labels must be one-hot rows")

    @property
    def size(self) -> int:
        return self.X.shape[0]


def make_binary_dataset(raw: RawMnist, digit: int, slice_index: int) -> Dataset:
    """One imbalanced digit-detection dataset.

    Positives are occurrences [slice_index*630, (slice_index+1)*630) of the
    chosen digit, counted in file order; negatives are every example of all
    other digits.  Example order follows the source corpus.  Raises when the
    corpus has too few occurrences of the digit for the requested slice.
    """
    if not 0 <= digit <= 9:
        raise ValueError(f"digit must be 0..9, got {digit}")
    if slice_index < 0:
        raise ValueError(f"slice_index must be >= 0, got {slice_index}")
    occurrences = np.flatnonzero(raw.labels == digit)
    lo = slice_index * POSITIVE_SLICE_SIZE
    hi = lo + POSITIVE_SLICE_SIZE
    if occurrences.size < hi:
        raise ValueError(
            f"digit {digit} has {occurrences.size} occurrences, "
            f"slice {slice_index} needs at least {hi}"
        )
    keep = np.zeros(raw.size, dtype=bool)
    keep[raw.labels != digit] = True
    keep[occurrences[lo:hi]] = True
    rows = np.flatnonzero(keep)
    x = raw.images[rows]
    y = (raw.labels[rows] == digit).astype(np.float64)
    return Dataset("binary", x, y)


def make_categorical_dataset(raw: RawMnist) -> Dataset:
    """The full corpus as a 10-class one-hot dataset, in file order."""
    y = np.zeros((raw.size, NUM_CLASSES), dtype=np.float64)
    y[np.arange(raw.size), raw.labels] = 1.0
    return Dataset("categorical", raw.images, y)


@dataclass
class SplitDataset:
    train: Dataset
    validation: Dataset
    test: Dataset


def split(dataset: Dataset, seed: int) -> SplitDataset:
    """Shuffle and split: 25% test, 7.5% validation, remainder train.

    Sizes are exact integer floors (n_test = M // 4, n_val = 3 * M // 40),
    computed without float rounding; the three parts are disjoint and
    exhaustive.  The shuffle is a seeded permutation, so a (dataset, seed)
    pair always produces the same split.
    """
    m = dataset.size
    if m < 40:
        raise ValueError(f"dataset of {m} examples is too small to split (need >= 40)")
    n_test = m // 4
    n_val = (3 * m) // 40
    order = np.random.default_rng(seed).permutation(m)
    test_rows = order[:n_test]
    val_rows = order[n_test : n_test + n_val]
    train_rows = order[n_test + n_val :]

    def take(rows: np.ndarray) -> Dataset:
        return Dataset(dataset.kind, dataset.X[rows], dataset.Y[rows])

    return SplitDataset(train=take(train_rows), validation=take(val_rows), test=take(test_rows))
