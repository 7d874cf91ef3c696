"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks, for every workload, that an untraced run emits every end-to-end
metric and a traced run every per-layer metric, all with no failed op;
that per-layer counts repeat exactly across two traced runs of one seed;
that a corrupted answer is counted as a failure; that a traced symbol
which cannot be found is reported as missing; and that the launcher
refuses to run without pvcmon sources. Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run as launcher  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

SEED = 3
DETERMINISTIC_SUFFIXES = (".calls", ".cells", "_per_graph", "_ratio")


def _declared() -> tuple[set[str], set[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]}


def check_metrics(problems: list[str]) -> None:
    end_to_end, per_layer = _declared()
    if end_to_end != set(launcher.END_TO_END_UNITS):
        problems.append("BENCHMARK.json end_to_end names differ from the launcher's")
    if per_layer != set(tracing.metric_names()):
        problems.append("BENCHMARK.json per_layer names differ from the tracer's")
    matrix = json.loads((HERE / "matrix.json").read_text())
    for row in matrix["per_layer"]:
        for name in row["metrics"]:
            if name not in per_layer:
                problems.append(f"matrix.json names unknown metric {name}")
    for name in WORKLOADS:
        result, detail = harness.run(name, SEED, 0.05, False, ROOT, TINY)
        if set(result["metrics"]) != end_to_end:
            problems.append(f"{name}: untraced metrics {sorted(result['metrics'])}")
        if result["failed"] or detail["error_rate"] != 0:
            problems.append(f"{name}: untraced run failed {detail['failures']}")
        if detail["calibration"]["samples"] < 2 or detail["calibration"]["setup_samples"] < 2:
            problems.append(f"{name}: host-speed calibration took no samples {detail['calibration']}")
        traced = []
        for _ in range(2):
            result, detail = harness.run(name, SEED, 0.05, True, ROOT, TINY)
            if set(result["metrics"]) != per_layer:
                problems.append(f"{name}: traced metrics differ from BENCHMARK.json")
            if result["failed"] or detail["missing"]:
                problems.append(f"{name}: traced run failed {detail['failures']} missing {detail['missing']}")
            traced.append(result["metrics"])
        for metric, value in traced[0].items():
            if metric.endswith(DETERMINISTIC_SUFFIXES) and traced[1][metric] != value:
                problems.append(f"{name}: {metric} differs between traced runs: {value} vs {traced[1][metric]}")


def _corrupt(name: str, answer):
    if name in ("sweep", "exact"):
        size, witness, achieved = answer
        return size + 1, witness, achieved
    if name == "verify":
        suite, passed, instances = answer
        return suite, passed, instances + 1
    rc, out = answer
    report = json.loads(out)
    report["result"]["size"] += 1
    return rc, json.dumps(report)


def check_corruption_counts(problems: list[str]) -> None:
    for name, workload in WORKLOADS.items():
        data = workload.inputs(SEED, TINY)
        workdir = ROOT / ".perfbench_out" / "work" / f"selftest-{name}"
        pv, state, _ = harness.timed_setup(workload, data, ROOT, workdir)
        measured = harness.run_passes(lambda: workload.ops(pv, state, data), workload.normalize, 0,
                                      max_passes=1)
        refs = workload.references(pv, data)
        check = workload.checker(pv, data, refs)
        if harness.count_failures(measured, check)[0] != 0:
            problems.append(f"{name}: clean answers counted as failures")
            continue
        # corrupt the first answer the check can judge on its content
        target = next(
            i for i, a in enumerate(measured.first)
            if name != "cli" or (a[0] == 0 and '"size"' in a[1])
        )
        measured.first[target] = _corrupt(name, measured.first[target])
        failed, reasons = harness.count_failures(measured, check)
        if failed != 1 or reasons[0][0] != target:
            problems.append(f"{name}: corrupted answer counted {failed} failures {reasons}")


def check_missing_symbol(problems: list[str]) -> None:
    pv = harness.import_pvcmon(ROOT)
    original = pv.pvc._csr_arrays
    del pv.pvc._csr_arrays
    try:
        tracer = tracing.Tracer(pv)
        tracer.install()
        tracer.uninstall()
        metrics = tracer.layer_metrics(1.0, 1.0)
    finally:
        pv.pvc._csr_arrays = original
    if "pvc._csr_arrays" not in tracer.missing or metrics["pvc._csr_arrays.calls"] != 0:
        problems.append(f"renamed _csr_arrays not reported missing: {tracer.missing}")


def check_refuses_without_sources(problems: list[str]) -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("launcher ran without pvcmon sources")


def main() -> int:
    problems: list[str] = []
    for step in (check_metrics, check_corruption_counts, check_missing_symbol, check_refuses_without_sources):
        step(problems)
        print(f"{step.__name__}: {'ok' if not problems else 'FAILED'}", flush=True)
        if problems:
            break
    for line in problems:
        print(" ", line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
