"""Fast test of the benchmark harness: a 7k pool and one epoch per model.

Run with ``python3 -m pytest -q perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def small_run(workload, trace, frozen_dir, freeze=False):
    lines = bench.run(
        workload, 1, 0, trace, n_per_class=700, epochs=1, freeze=freeze, frozen_dir=frozen_dir
    )
    return lines, json.loads(lines[-1])


def report_value(lines, name):
    return float(next(line.split()[1] for line in lines if line.split()[:1] == [name]))


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_printed_with_its_unit(workload, trace, tmp_path):
    lines, result = small_run(workload, trace, tmp_path)
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in named} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    for metric in named:
        assert metric["name"] in {line.split()[0] for line in lines if line.split()}
    assert report_value(lines, "failed_share") == 0.0
    assert any(line.startswith("header: ") for line in lines)


def test_a_tampered_record_raises_failed_share(tmp_path):
    _, result = small_run("binary_trial", False, tmp_path, freeze=True)
    assert result["correct"]
    frozen = tmp_path / "binary_trial-seed1.jsonl"
    assert small_run("binary_trial", False, tmp_path)[1]["failed"] == 0

    records = [json.loads(line) for line in frozen.read_text().splitlines()]
    records[2]["fn"] += 1.0
    frozen.write_text("".join(json.dumps(r) + "\n" for r in records))
    lines, result = small_run("binary_trial", False, tmp_path)
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert report_value(lines, "failed_share") > 0.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "binary_trial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
