"""Frozen-records gate: a small fixed run must reproduce its stored records.

tests/frozen/records.jsonl holds the records of one binary trial and one
categorical trial on the 7,000-example synthetic pool (the small_pool
fixture), trained for a few epochs.  A change to the training code that
alters any record field other than wall_time (a reordered reduction, a
different float path) fails this test.  When a change is meant to move the
records, regenerate the file and say so in the change log:

    PYTHONPATH=src:tests python tests/test_frozen_records.py

The records are bit-exact only for the host's default OpenBLAS thread count:
the bits of x @ W change with the number of BLAS threads, so on a 2-core
x86_64 host the gate fails under OPENBLAS_NUM_THREADS=1.  A failure message
names the thread setting and the core count it ran with.
"""

import json
import os
from pathlib import Path

import pytest

from rwwce import (
    TrainConfig,
    load_records,
    records_match,
    run_binary_suite,
    run_categorical_suite,
    save_records,
)

FROZEN = Path(__file__).resolve().parent / "frozen" / "records.jsonl"

# batch_size 64 leaves a short final batch on both training splits.
TRAIN = TrainConfig(epochs=3, batch_size=64)


def fixed_run(pool):
    """Records of the frozen configuration: binary digit 3, categorical pair 4->9."""
    _, binary = run_binary_suite(pool, digits=[3], slices=[0], base_seed=11, train_template=TRAIN)
    _, categorical = run_categorical_suite(pool, [(4, 9)], base_seed=12, train_template=TRAIN)
    return binary + categorical


@pytest.fixture(scope="module")
def records(small_pool):
    return fixed_run(small_pool)


def test_fixed_run_reproduces_frozen_records(records):
    frozen = load_records(FROZEN)
    assert [r.model for r in records] == ["control1", "control2", "test", "control", "experimental"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset (OpenBLAS default)")
    assert records_match(records, frozen), (
        f"records differ from tests/frozen/{FROZEN.name}, bit-exact only for the default "
        f"OpenBLAS thread count of the host that froze it; this run had "
        f"OPENBLAS_NUM_THREADS={threads} and os.cpu_count()={os.cpu_count()}"
    )


def key_orders(path):
    """The keys of each JSON line of path, in file order, nested objects included."""

    def keys(value):
        return [(k, keys(v)) for k, v in value.items()] if isinstance(value, dict) else None

    return [keys(json.loads(line)) for line in path.read_text(encoding="utf-8").splitlines()]


def test_saved_records_list_their_keys_in_the_frozen_order(records, tmp_path):
    """records_match compares dicts, so only this test sees a field of a
    record or of a trial config move within a saved line."""
    path = tmp_path / "records.jsonl"
    save_records(records, path)
    assert key_orders(path) == key_orders(FROZEN)


# Every file of gate data: this gate's records and the benchmark's, read only.
GATE_FILES = [FROZEN, *sorted((FROZEN.parents[2] / "perfbench" / "frozen").glob("*.jsonl"))]


def test_the_gate_files_are_all_found():
    assert len(GATE_FILES) == 22


@pytest.mark.parametrize("path", GATE_FILES, ids=lambda path: f"{path.parent.parent.name}/{path.name}")
def test_every_gate_file_loads_and_saves_back_byte_for_byte(path, tmp_path):
    """The record rule refuses no gate data, and save_records writes back
    exactly the records load_records accepts."""
    copy = tmp_path / path.name
    save_records(load_records(path), copy)
    assert copy.read_bytes() == path.read_bytes()


if __name__ == "__main__":
    import corpus
    from rwwce import load_idx

    pool = load_idx(*corpus.synthetic_idx_pair(700, seed=990))
    FROZEN.parent.mkdir(exist_ok=True)
    save_records(fixed_run(pool), FROZEN)
    print(f"wrote {FROZEN}")
