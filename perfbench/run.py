"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload binary_trial --seed 1 --seconds 50 --trace 0

Run from the repository root.  Generates the synthetic 70k IDX pool for the
seed with tests/corpus.py, writes it in the four-file standard layout to a
temporary directory under perfbench/, and measures the workload in a fresh
worker process (perfbench/worker.py), so that the worker's peak RSS and
timings exclude the generator.  Prints a run header, a report, and as its
last line one JSON object with the keys correct, attempted, failed and
metrics.  ``--trace 1`` reports the per-layer metrics instead of the
end-to-end ones.  ``--freeze`` stores the run's records as the reference that
later runs of the same workload and seed must match.  perfbench/README.md
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FROZEN_DIR = HERE / "frozen"
DEFAULT_SEED = 1
SETUP_REPEATS = 3
# A run must end within 180 s; the worker gets what is left of this.
RUN_LIMIT_S = 170.0

# name -> (suite kind, trials per unit, jobs)
WORKLOADS = {
    "binary_trial": ("binary", 1, 1),
    "categorical_trial": ("categorical", 1, 1),
    "binary_suite_jobs2": ("binary", 2, 2),
}


def load_corpus_module():
    """Import the repository's synthetic corpus generator, tests/corpus.py."""
    spec = importlib.util.spec_from_file_location("corpus", ROOT / "tests" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_plan(workload: str, seed: int) -> dict:
    """The workload's inputs, all drawn from the seed: corpus seed, digits or pair, base seed."""
    kind, trials, jobs = WORKLOADS[workload]
    rng = np.random.default_rng(seed)
    plan = {
        "kind": kind,
        "jobs": jobs,
        "corpus_seed": int(rng.integers(2**31)),
        "base_seed": int(rng.integers(2**31)),
    }
    if kind == "binary":
        plan["digits"] = [int(d) for d in rng.choice(10, size=trials, replace=False)]
    else:
        pairs = [(a, b) for a in range(10) for b in range(10) if a != b]
        plan["pairs"] = [pairs[i] for i in rng.choice(len(pairs), size=trials, replace=False)]
    return plan


def write_corpus(corpus, directory: Path, n_per_class: int, corpus_seed: int) -> None:
    """The pool as the four standard IDX files, split 6:1 into train and t10k."""
    images, labels = corpus.synthetic_images_labels(n_per_class, seed=corpus_seed)
    n_train = images.shape[0] * 6 // 7
    for prefix, rows in (("train", slice(None, n_train)), ("t10k", slice(n_train, None))):
        (directory / f"{prefix}-images-idx3-ubyte").write_bytes(corpus.idx_images_bytes(images[rows]))
        (directory / f"{prefix}-labels-idx1-ubyte").write_bytes(corpus.idx_labels_bytes(labels[rows]))


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    n_per_class: int = 7000,
    epochs: int | None = None,
    freeze: bool = False,
    frozen_dir: Path = FROZEN_DIR,
) -> list[str]:
    """Measure one run; returns the lines to print, the JSON result last.

    n_per_class and epochs shrink the run for the benchmark's own test; None
    keeps the default training recipe.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    corpus = load_corpus_module()
    plan = make_plan(workload, seed)
    frozen_path = frozen_dir / f"{workload}-seed{seed}.jsonl"
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        write_corpus(corpus, work, n_per_class, plan["corpus_seed"])
        spec = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "plan": plan,
            "epochs": epochs,
            "setup_repeats": SETUP_REPEATS,
            "work_dir": str(work),
            "result_path": str(work / "result.json"),
            "frozen_path": str(frozen_path) if frozen_path.exists() and not freeze else None,
        }
        (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work / "spec.json")],
            check=True,
            timeout=deadline - time.monotonic(),
        )
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        if freeze and result["failed"] == 0:
            frozen_dir.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(work / "records.jsonl", frozen_path)
            result["lines"].append(f"froze records to {frozen_path}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    return [f"perfbench {workload} seed={seed} seconds={seconds:g} trace={int(trace)}"] + result[
        "lines"
    ] + [json.dumps(final)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze", action="store_true", help="store this run's records as the reference")
    args = parser.parse_args(argv)
    lines = run(args.workload, args.seed, args.seconds, bool(args.trace), freeze=args.freeze)
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
