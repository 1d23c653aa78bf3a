"""IDX image-corpus ingestion and experiment dataset construction.

Reads the classic big-endian IDX format used to distribute MNIST, an
images file of 28x28 unsigned bytes and a labels file of digit bytes, each
checked against its IDX_LAYOUTS row.  A malformed file raises ValueError:
a header too short, a wrong magic, other image dimensions, a length other
than its header implies, a truncated or corrupt .gz stream, or image and
label counts that differ.  A file that cannot be opened or read, or a .gz
that is not gzip or fails its CRC, raises OSError.  A plain file is mapped
read-only, not read, so a loaded corpus's images are a view of the page
cache; a .gz file is decompressed into memory.  concat_corpora copies its
inputs into one pool that owns its memory, and that is the only copy
loading makes.  Pixels stay the uint8 bytes of the payload, flattened
row-major to 784 features, through every dataset and split, so a pool
costs one byte per pixel; nn.network_input scales them to [0, 1] with
/ 255.0.  From a loaded corpus the module builds the two experiment dataset
shapes: a heavily imbalanced binary problem (one slice of 630 occurrences
of a chosen digit as positives against every example of the other digits)
and the full 10-class problem.  A seeded shuffle splits any dataset 25%
test / 7.5% validation / remainder train in exact integer floors.
check_labels is the one rule for labels, from the pool through every
dataset, loss and metric: a label is its class index, 0 or 1 when binary;
one-hot rows, float and bool labels are refused.
check_int is the one rule for whole numbers: every count, index and seed
the library takes passes it, and a numpy integer is stored as a plain int,
so a record holding it saves as JSON.  check_real is the one rule for real
numbers: every scalar cost, weight, rate, step and metric threshold or tally
passes it; a NaN, an infinity, a bool, a string or a value out of bounds
fails, and a numpy float is stored as a plain float.  check_finite is its
finiteness half for every entry of an array of scores, probabilities or
t-test inputs, and check_nonnegative holds every entry of an array of
costs or tallies to the whole rule with least=0.
The CLI checks every number setting with the same two rules, under its
config key.
"""

from __future__ import annotations

import gzip
import math
import mmap
import numbers
import operator
import os
import stat
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IMAGE_ROWS = 28
IMAGE_COLS = 28
FEATURES = IMAGE_ROWS * IMAGE_COLS

# Each file of a corpus: (name, magic, per-record dimensions).  Its header is
# the magic, the record count and the dimensions, big-endian uint32s.
IDX_LAYOUTS = (("images", 0x00000803, (IMAGE_ROWS, IMAGE_COLS)), ("labels", 0x00000801, ()))

POSITIVE_SLICE_SIZE = 630

# Published byte lengths of the four standard MNIST distribution files,
# uncompressed, each images file followed by its labels file.  The CLI finds
# the files by these names, in this order, and verify-data checks their sizes.
MNIST_FILE_BYTES = {
    "train-images-idx3-ubyte": 47_040_016,
    "train-labels-idx1-ubyte": 60_008,
    "t10k-images-idx3-ubyte": 7_840_016,
    "t10k-labels-idx1-ubyte": 10_008,
}

NUM_CLASSES = 10


@dataclass
class RawMnist:
    """A loaded corpus: images (N, 784) uint8 pixel bytes, labels (N,) int64 in 0..9.

    Images of any other dtype are rejected rather than converted; the uint8
    dtype is what bounds every pixel to 0..255.  Labels must keep
    check_labels' rule for NUM_CLASSES classes and are stored as int64.
    """

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.images = np.asarray(self.images)
        if self.images.dtype != np.uint8:
            raise ValueError(f"images must be uint8 pixel bytes, got {self.images.dtype}")
        self.labels = check_labels(self.labels, NUM_CLASSES).astype(np.int64, copy=False)
        if self.images.ndim != 2 or self.images.shape[1] != FEATURES:
            raise ValueError(f"images must be (N, {FEATURES}), got {self.images.shape}")
        if self.labels.size != self.images.shape[0]:
            raise ValueError(f"{self.labels.size} labels for {self.images.shape[0]} images")

    @property
    def size(self) -> int:
        return self.images.shape[0]


def _idx_records(payload: bytes | mmap.mmap, name: str, magic: int, dims: tuple[int, ...]) -> np.ndarray:
    """payload's records as a read-only (count, *dims) uint8 view, once its header
    fits, its magic and dims match, and its length is what the header implies."""
    header = 4 * (2 + len(dims))
    if len(payload) < header:
        raise ValueError(f"{name} file too short for an IDX header")
    found, count, *found_dims = struct.unpack(f">{2 + len(dims)}I", payload[:header])
    if found != magic:
        raise ValueError(f"bad {name} magic 0x{found:08x}, expected 0x{magic:08x}")
    if tuple(found_dims) != dims:
        got, want = ("x".join(map(str, d)) for d in (found_dims, dims))
        raise ValueError(f"expected {want} {name}, got {got}")
    expected = header + count * math.prod(dims)
    if len(payload) != expected:
        raise ValueError(f"{name} payload is {len(payload)} bytes, header implies {expected}")
    return np.frombuffer(payload, dtype=np.uint8, offset=header).reshape(count, *dims)


def load_idx(images_bytes: bytes | mmap.mmap, labels_bytes: bytes | mmap.mmap) -> RawMnist:
    """Parse paired IDX image/label payloads into a RawMnist corpus.

    Each payload is bytes or a read-only mapping of a file (anything with
    len(), slicing and the buffer protocol).  ValueError if either header is
    too short, has a wrong magic or (images) is not 28x28, if either payload
    is not as long as its header implies, or if the two counts differ.  The
    images are a read-only uint8 view of images_bytes, not a copy, and keep
    it alive; the labels are copied to int64.
    """
    images, labels = (_idx_records(p, *row) for p, row in zip((images_bytes, labels_bytes), IDX_LAYOUTS))
    if len(labels) != len(images):
        raise ValueError(f"images file has {len(images)} examples but labels file has {len(labels)}")
    return RawMnist(images.reshape(len(images), FEATURES), labels)


def read_idx_file(path) -> bytes | mmap.mmap:
    """One IDX file's payload for load_idx: a read-only mapping, or bytes.

    A .gz file is decompressed into bytes: a truncated or corrupt stream
    raises ValueError with gzip's text, a file that is not gzip or fails its
    CRC OSError.  A plain file is mapped with mmap.ACCESS_READ; an empty one
    cannot be mapped and reads as b"", which load_idx rejects as too short,
    and a path that is not a regular file (a pipe, a device) raises
    ValueError.  A file that cannot be opened or read raises OSError.
    """
    path = Path(path)
    if path.suffix == ".gz":
        try:
            with gzip.open(path, "rb") as f:
                return f.read()
        except (EOFError, zlib.error) as e:
            raise ValueError(str(e)) from e
    with open(path, "rb") as f:
        info = os.fstat(f.fileno())
        if not stat.S_ISREG(info.st_mode):
            raise ValueError(f"{path} is not a regular file, so it cannot be mapped")
        if info.st_size == 0:
            return b""
        return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)


def load_idx_files(images_path, labels_path) -> RawMnist:
    """Load an IDX corpus from disk; .gz files are decompressed transparently.

    A malformed file raises ValueError and one that cannot be read OSError,
    as read_idx_file and load_idx say.  A plain images file is mapped, not
    read: the corpus's images are a read-only view of the file's pages, and
    the mapping lives as long as they do (the labels are copied, so their
    mapping closes on return).  Truncating a mapped file in place while its
    corpus is alive ends the process with SIGBUS at the next read of a lost
    page.  concat_corpora copies, so a pool built by it, as the CLI builds
    its pools, holds no mapping once the per-file corpora are dropped.
    """
    return load_idx(read_idx_file(images_path), read_idx_file(labels_path))


def load_pool(pairs, read=read_idx_file) -> RawMnist:
    """concat_corpora of each (images path, labels path) pair, loaded with read
    (path -> payload, as read_idx_file); a pair that fails raises its ValueError
    or OSError again, its text prefixed "cannot load <images> and <labels>: "."""
    corpora = []
    for images_path, labels_path in pairs:
        try:
            corpora.append(load_idx(read(images_path), read(labels_path)))
        except (ValueError, OSError) as e:
            kind = OSError if isinstance(e, OSError) else ValueError
            raise kind(f"cannot load {images_path} and {labels_path}: {e}") from e
    return concat_corpora(*corpora)


def concat_corpora(*corpora: RawMnist) -> RawMnist:
    """Concatenate corpora, in order, into a pool that owns its memory.

    Always copies, even a single corpus, so the pool holds no mapping of
    the files its inputs were loaded from.
    """
    if not corpora:
        raise ValueError("nothing to concatenate")
    return RawMnist(
        np.concatenate([c.images for c in corpora], axis=0),
        np.concatenate([c.labels for c in corpora], axis=0),
    )


@dataclass
class Dataset:
    """A model-ready dataset: X (M, d) uint8 pixel bytes and Y (M,) labels.

    Y keeps check_labels' rule for NUM_CLASSES classes: a binary dataset's
    labels are 0 or 1, a categorical one's the digits.  Both arrays are
    stored as given, so a dataset of a pool's own arrays copies nothing.
    """

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X)
        if self.X.dtype != np.uint8 or self.X.ndim != 2:
            raise ValueError(f"X must be 2-D uint8 pixel bytes, got {self.X.ndim}-D {self.X.dtype}")
        self.Y = check_labels(self.Y, NUM_CLASSES)
        if self.X.shape[0] != self.Y.shape[0]:
            raise ValueError(f"X has {self.X.shape[0]} rows but Y has {self.Y.shape[0]}")

    @property
    def size(self) -> int:
        return self.X.shape[0]


def check_labels(y, k: int) -> np.ndarray:
    """y as an array, once it is a non-empty vector of integer class indices
    in 0..k-1; a ValueError naming the first rule it breaks otherwise.

    The one rule for labels.  An integer dtype is required, so float labels
    (even 1.0), bools and one-hot rows are refused, not converted.
    """
    y = np.asarray(y)
    if y.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, got {y.dtype}")
    if y.ndim != 1:
        raise ValueError(f"labels must be a vector of class indices, got shape {y.shape}")
    if y.size == 0:
        raise ValueError("labels are empty")
    if y.min() < 0 or y.max() >= k:
        raise ValueError(f"labels must be classes 0..{k - 1}")
    return y


def check_int(name: str, value, least: int | None = None, most: int | None = None) -> int:
    """value as a plain int, once it is a whole number in least..most (either
    bound left open when None); ValueError naming name otherwise.

    A bool, a float (even 2.0) or a string is not a whole number here; any
    numbers.Integral is, numpy integers included.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if (least is not None and value < least) or (most is not None and value > most):
        bound = f"<= {most}" if least is None else f">= {least}" if most is None else f"{least}..{most}"
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return int(value)


def check_real(name: str, value, *, least=None, above=None, below=None, most=None) -> float:
    """value as a plain float, once it is a finite numbers.Real (numpy floats
    and integers are; a bool or a string is not) with least <= value,
    above < value, value < below and value <= most, each bound when given;
    otherwise a ValueError naming name and the first rule it breaks."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int too large for a float
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {value!r}")
    for bound, relation, keeps in ((least, ">=", operator.ge), (above, ">", operator.gt),
                                   (below, "<", operator.lt), (most, "<=", operator.le)):
        if bound is not None and not keeps(number, bound):
            raise ValueError(f"{name} must be {relation} {bound}, got {value!r}")
    return number


def check_finite(name: str, array: np.ndarray) -> None:
    """A ValueError naming name unless every entry of array is finite (no NaN, no infinity)."""
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} must be finite")


def check_nonnegative(name: str, array: np.ndarray) -> None:
    """A ValueError naming name unless every entry of array is a finite
    number >= 0, check_real's rule with least=0 and one message per part of
    it: an array of bools, strings or objects (a None among numbers) is not
    one of numbers."""
    if array.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be numbers")
    check_finite(name, array)
    if np.any(array < 0):
        raise ValueError(f"{name} must be >= 0")


def positive_rows(raw: RawMnist, digit: int, slice_index: int) -> np.ndarray:
    """Row indices of one positive slice of a digit.

    The slice is occurrences [slice_index*630, (slice_index+1)*630) of the
    digit, counted in file order.  Raises when the corpus has too few
    occurrences of the digit for the requested slice.
    """
    digit = check_int("digit", digit, 0, NUM_CLASSES - 1)
    slice_index = check_int("slice_index", slice_index, 0)
    occurrences = np.flatnonzero(raw.labels == digit)
    lo = slice_index * POSITIVE_SLICE_SIZE
    hi = lo + POSITIVE_SLICE_SIZE
    if occurrences.size < hi:
        raise ValueError(
            f"digit {digit} has {occurrences.size} occurrences, "
            f"slice {slice_index} needs at least {hi}"
        )
    return occurrences[lo:hi]


def make_binary_dataset(raw: RawMnist, digit: int, slice_index: int) -> Dataset:
    """One imbalanced digit-detection dataset, labelled 1 for the digit and 0 otherwise.

    Positives are the digit's positive_rows slice; negatives are every
    example of all other digits.  Example order follows the source corpus.
    """
    keep = raw.labels != digit
    keep[positive_rows(raw, digit, slice_index)] = True
    rows = np.flatnonzero(keep)
    return Dataset(raw.images[rows], (raw.labels[rows] == digit).astype(np.int64))


def make_categorical_dataset(raw: RawMnist) -> Dataset:
    """The full corpus as a 10-class dataset, in file order: the pool's own
    images and labels, not a copy."""
    return Dataset(raw.images, raw.labels)


@dataclass
class SplitDataset:
    train: Dataset
    validation: Dataset
    test: Dataset


def split_sizes(m: int) -> tuple[int, int]:
    """(n_test, n_val) of an m-example split: exact integer floors M // 4 and
    3 * M // 40, computed without float rounding.  Raises below 40 examples."""
    if m < 40:
        raise ValueError(f"dataset of {m} examples is too small to split (need >= 40)")
    return m // 4, (3 * m) // 40


def split(dataset: Dataset, seed: int) -> SplitDataset:
    """Shuffle and split: 25% test, 7.5% validation, remainder train.

    Sizes are split_sizes(M); the three parts are disjoint and exhaustive.
    The shuffle is a seeded permutation, so a (dataset, seed) pair always
    produces the same split.
    """
    m = dataset.size
    n_test, n_val = split_sizes(m)
    order = np.random.default_rng(check_int("seed", seed, 0)).permutation(m)
    test_rows, val_rows, train_rows = np.split(order, [n_test, n_test + n_val])
    parts = (Dataset(dataset.X[rows], dataset.Y[rows]) for rows in (train_rows, val_rows, test_rows))
    return SplitDataset(*parts)
