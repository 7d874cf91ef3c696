#!/usr/bin/env python3
"""Run alternating parent/change perfbench pairs and compare their medians.

    python3 benchmarks/pairs.py PARENT CHANGE --workload W [--pairs N] [--seed S]

Both commits are extracted the same way, with ``git archive``, into a new
temporary directory (``TMPDIR`` sets where), so the two sides differ only in
their files. Pair i runs ``python3 perfbench/run.py --workload W --seed S+i
--seconds <run_seconds> --trace 0`` in each copy, the parent first on even
i and the change first on odd i; ``run_seconds`` and the end-to-end metrics,
with their direction and bound, come from ``BENCHMARK.json``.

Every pair is printed as it finishes. Then each metric gets the parent's
median and quartiles, the change's median, change/parent, the pairs the
change wins and the metric's bound; the last line gives each side's failed
ops. The copies are removed at the end.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract(commit: str, dest: Path) -> Path:
    """The files of ``commit`` under ``dest``, by ``git archive``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", commit], capture_output=True, check=True).stdout
    dest.mkdir()
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)
    return dest


def run_once(copy: Path, workload: str, seed: int, seconds: float) -> dict:
    """perfbench's result object for one untraced run in ``copy``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=copy, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=101)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    sides = ("parent", "change")
    results = {side: [] for side in sides}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        copies = {side: extract(getattr(args, side), Path(tmp) / side) for side in sides}
        for i in range(args.pairs):
            seed = args.seed + i
            order = sides if i % 2 == 0 else sides[::-1]
            for side in order:
                results[side].append(run_once(copies[side], args.workload, seed, bench["run_seconds"]))
            values = ", ".join(
                f"{m['name']} {results['parent'][-1]['metrics'][m['name']]['value']:.6g}"
                f"/{results['change'][-1]['metrics'][m['name']]['value']:.6g}"
                for m in metrics
            )
            print(f"pair {i + 1} seed {seed} ({order[0]} first), parent/change: {values}", flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs, parent {args.parent}, change {args.change}")
    print(f"{'metric':<18} {'parent q1':>11} {'median':>11} {'q3':>11} {'change':>11} {'ratio':>7} {'wins':>6} bound")
    for m in metrics:
        name = m["name"]
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        sign = 1 if m["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        q1, median, q3 = quartiles(parent)
        ours = statistics.median(change)
        ratio = ours / median if median else float("nan")
        print(f"{name:<18} {q1:>11.6g} {median:>11.6g} {q3:>11.6g} {ours:>11.6g} {ratio:>7.3f} "
              f"{wins:>3}/{args.pairs} {m['bound']}")
    failed = {side: (sum(r["failed"] for r in results[side]), sum(r["attempted"] for r in results[side]))
              for side in sides}
    print("failed ops: " + ", ".join(f"{side} {f}/{a}" for side, (f, a) in failed.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
