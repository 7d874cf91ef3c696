"""pvcmon benchmark launcher.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run from the root of a pvcmon checkout. Each invocation runs one workload
as a closed loop with one client in this process. With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it runs one fixed pass
untraced, then the same pass traced, and reports the per-layer split.
The last line of stdout is the result object; the line before it holds
the environment stamp, sample counts and any failure reasons.

End-to-end times are scaled to a reference host speed, measured by a
calibration loop timed throughout the run (see README.md); the raw times
are in the detail line.

The kernels run on pvcmon's numpy backend: numba is not installed. BLAS
and OpenMP pools are pinned to one thread before numpy loads.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith((".calls", ".cells")):
        return "count"
    return "ratio"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "exact", "cli", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="pass time to measure, untraced runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pvcmon" / "__init__.py").is_file():
        print(f"error: no pvcmon sources under {ROOT / 'src'}; run from a pvcmon checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import harness  # noqa: E402  (after the thread pins and sys.path)

    result, detail = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    result["metrics"] = {
        name: {
            "value": value,
            "unit": END_TO_END_UNITS[name] if not args.trace else per_layer_unit(name),
        }
        for name, value in result["metrics"].items()
    }
    out = ROOT / ".perfbench_out" / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"detail": detail, "result": result}, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
