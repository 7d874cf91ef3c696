"""Measurement loop, set-up timing, reference cache and result assembly."""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from tracer import MODULES, Tracer
from workloads import FULL, WORKLOADS

SETUP_REPEATS = 15
CALIBRATION_ITERATIONS = 1500
CALIBRATION_INTERVAL_S = 0.01
# an op's time is scaled by the samples from this long before it to this
# long after it: host speed moves too fast for one run-wide mean
CALIBRATION_WINDOW_S = 0.02
# about the calibration loop's mean time (0.29-0.37 ms) on the 2-vCPU Xeon
# VM the workloads were sized on, so scaled times read close to raw ones there
CALIBRATION_REFERENCE_S = 0.00033
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class OpError:
    """An op that raised: compares equal to the same exception text."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, OpError) and other.text == self.text

    def __repr__(self):
        return f"OpError({self.text!r})"


# ---------------------------------------------------------------------------
# program set-up


def import_pvcmon(root: Path) -> SimpleNamespace:
    """Import pvcmon and every module the benchmark calls into."""
    package = importlib.import_module("pvcmon")
    source = Path(package.__file__).resolve()
    if root.resolve() / "src" not in source.parents:
        raise ImportError(f"pvcmon was imported from {source}, not from this checkout's src/")
    mods = {name: importlib.import_module(f"pvcmon.{name}") for name in MODULES}
    return SimpleNamespace(package=package, **mods)


def _purge_pvcmon() -> None:
    for name in [n for n in sys.modules if n == "pvcmon" or n.startswith("pvcmon.")]:
        del sys.modules[name]
    gc.collect()


def timed_setup(workload, data, root: Path, workdir: Path, calibrator: "Calibrator | None" = None):
    """Import pvcmon afresh and run the workload's set-up, several times.

    Returns the last import, its set-up state and every set-up as (start,
    end, time less the calibrator's time inside it); the median of the
    scaled times is ``setup_s``.
    """
    calibrator = calibrator if calibrator is not None else Calibrator(active=False)
    setups = []
    clock = time.perf_counter
    for _ in range(SETUP_REPEATS):
        _purge_pvcmon()
        spent = calibrator.spent
        started = clock()
        pv = import_pvcmon(root)
        state = workload.setup(pv, data, workdir)
        ended = clock()
        setups.append((started, ended, ended - started - (calibrator.spent - spent)))
    return pv, state, setups


# ---------------------------------------------------------------------------
# host speed


def _calibration_loop() -> int:
    """Fixed pure-Python work (dict, integer and loop bytecodes): its time
    tracks how fast the host runs this process at the moment."""
    acc = 0
    table = {}
    for i in range(CALIBRATION_ITERATIONS):
        k = i & 63
        table[k] = table.get(k, 0) + i
        acc += (i * 7) % 13
    return acc


class Calibrator:
    """Times the calibration loop every ``CALIBRATION_INTERVAL_S`` of wall
    time, from a SIGALRM handler, so its samples fall inside ops as well as
    between them; ``spent`` is the time the handler took, which callers
    subtract from what they time.

    On a shared host the speed this process gets moves by up to ~2x over
    minutes and by ~1.5x within a second. Those moves slow the program and
    the loop alike, so a time divided by the loop's mean time over the same
    stretch repeats from run to run where raw time does not. ``scaled()``
    turns raw times into times on a host that runs the loop in
    ``CALIBRATION_REFERENCE_S``.
    """

    def __init__(self, active: bool = True):
        self.active = active
        self.at = array("d")
        self.samples = array("d")
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def sample(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        started = time.perf_counter()
        _calibration_loop()
        took = time.perf_counter() - started
        self.at.append(started)
        self.samples.append(took)
        self.spent += took
        self._busy = False

    def __enter__(self):
        if self.active:
            self.sample()
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self.sample()
        return False

    def mean(self) -> float:
        return statistics.fmean(self.samples)

    def scaled(self, starts, ends, times) -> np.ndarray:
        """Each of ``times`` (taken from ``starts`` to ``ends``) scaled by the
        loop's mean time over the samples from CALIBRATION_WINDOW_S before
        its start to CALIBRATION_WINDOW_S after its end."""
        at = np.frombuffer(self.at, dtype=np.float64)
        took = np.frombuffer(self.samples, dtype=np.float64)
        cumulative = np.concatenate(([0.0], np.cumsum(took)))
        lo = np.searchsorted(at, np.asarray(starts) - CALIBRATION_WINDOW_S, "left")
        hi = np.searchsorted(at, np.asarray(ends) + CALIBRATION_WINDOW_S, "right")
        count = hi - lo
        local = np.where(count > 0, (cumulative[hi] - cumulative[lo]) / np.maximum(count, 1), took.mean())
        return np.asarray(times) * (CALIBRATION_REFERENCE_S / local)


# ---------------------------------------------------------------------------
# closed loop


@dataclass
class Measurement:
    latencies: array = field(default_factory=lambda: array("d"))
    # when each timed op started and ended (perf_counter)
    starts: array = field(default_factory=lambda: array("d"))
    ends: array = field(default_factory=lambda: array("d"))
    wall: float = 0.0
    passes: int = 0
    # per op: executions, the first answer, and every later answer that
    # differed from the first as (op index, answer)
    executions: list = field(default_factory=list)
    first: list = field(default_factory=list)
    changed: list = field(default_factory=list)


def run_passes(make_ops, normalize, seconds: float, tracer: Tracer | None = None,
               max_passes: int | None = None, stop_mid_pass: bool = False,
               calibrator: Calibrator | None = None):
    """Run passes, one client, until ``seconds`` of pass time have elapsed
    (at least one op, at most ``max_passes`` passes).

    ``make_ops()`` is called before each pass, outside the pass wall, so a
    workload can hand every pass its own freshly built objects. With
    ``stop_mid_pass`` the run may end inside a pass, which suits ops in
    shuffled order; otherwise only whole passes run. Each op is timed alone,
    less the calibrator's time inside it; answers are normalized between
    passes, outside the pass wall.
    """
    cal = calibrator if calibrator is not None else Calibrator(active=False)
    out = None
    clock = time.perf_counter
    while True:
        ops = make_ops()
        if out is None:
            out = Measurement(executions=[0] * len(ops), first=[None] * len(ops))
        lat, starts, ends = out.latencies, out.starts, out.ends
        answers = []
        budget = seconds - out.wall
        spent = cal.spent
        started = clock()
        for i, op in enumerate(ops):
            if stop_mid_pass and answers and clock() - started - (cal.spent - spent) >= budget:
                break
            if tracer is not None:
                tracer.op = i
            c0 = cal.spent
            t0 = clock()
            try:
                answer = op()
            except Exception as exc:  # a failed op is counted, not fatal
                answer = OpError(exc)
            t1 = clock()
            lat.append(t1 - t0 - (cal.spent - c0))
            starts.append(t0)
            ends.append(t1)
            answers.append(answer)
        out.wall += clock() - started - (cal.spent - spent)
        out.passes += 1
        del ops
        for i, answer in enumerate(answers):
            if not isinstance(answer, OpError):
                answer = _normalize(normalize, answer)
            out.executions[i] += 1
            if out.executions[i] == 1:
                out.first[i] = answer
            elif answer != out.first[i]:
                out.changed.append((i, answer))
        if out.wall >= seconds or (max_passes is not None and out.passes >= max_passes):
            return out


def _normalize(normalize, answer):
    try:
        return normalize(answer)
    except Exception as exc:  # malformed result object
        return OpError(exc)


def count_failures(measurement: Measurement, check, weights=None):
    """Failed executions (weighted) and a few failure reasons."""
    unchanged = list(measurement.executions)
    failed = 0
    reasons = []
    for i, answer in measurement.changed:
        unchanged[i] -= 1
        verdict = _verdict(check, i, answer)
        if verdict is not None:
            failed += weights[i] if weights else 1
            reasons.append((i, verdict))
    for i, answer in enumerate(measurement.first):
        if measurement.executions[i] == 0:
            continue
        verdict = _verdict(check, i, answer)
        if verdict is not None:
            failed += unchanged[i] * (weights[i] if weights else 1)
            reasons.append((i, verdict))
    return failed, reasons


def _verdict(check, i, answer):
    if isinstance(answer, OpError):
        return f"raised {answer.text}"
    try:
        return check(i, answer)
    except Exception as exc:  # a malformed answer the check cannot read
        return f"check raised {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# references


def cached_references(workload, pv, data, out_dir: Path, seed: int):
    """Independent reference answers, cached by workload, seed and inputs."""
    digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]
    path = out_dir / "refs" / f"{workload.name}-seed{seed}-{digest}.json"
    if path.exists():
        return json.loads(path.read_text())
    refs = workload.references(pv, data)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(refs))
    tmp.replace(path)
    return refs


# ---------------------------------------------------------------------------
# environment


def env_stamp(pv, seed: int, root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "pvcmon").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "backend": pv.kernels.backend(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": _git_commit(root),
        "source_sha256": digest.hexdigest(),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
    }


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _git_commit(root: Path) -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile_ms(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) * 1e3


# ---------------------------------------------------------------------------
# one run


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, size: str = FULL):
    """Run one workload; returns (result, detail).

    ``result`` is the contract object: correct, attempted, failed and the
    metrics (end-to-end untraced, per-layer traced). ``detail`` holds the
    environment stamp, sample counts and failure reasons.
    """
    workload = WORKLOADS[name]
    out_dir = root / ".perfbench_out"
    workdir = out_dir / "work" / f"{name}-seed{seed}"
    data = workload.inputs(seed, size)
    with Calibrator(active=not trace) as setup_cal:
        pv, state, setups = timed_setup(workload, data, root, workdir, setup_cal)
    setup_times = [took for _, _, took in setups]
    passes = []

    def make_ops():
        # the first pass runs on the timed set-up's objects; with
        # rebuild_per_pass each later pass gets objects built afresh, so no
        # op meets an object an earlier execution has seen
        objects = state
        if passes and workload.rebuild_per_pass:
            objects = workload.setup(pv, data, workdir)
        passes.append(None)
        return workload.ops(pv, objects, data)

    tracer = None
    if trace:
        untraced = run_passes(make_ops, workload.normalize, 0, max_passes=1)
        tracer = Tracer(pv)
        tracer.install()
        try:
            traced = run_passes(make_ops, workload.normalize, 0, tracer=tracer, max_passes=1)
        finally:
            tracer.uninstall()
        runs = [untraced, traced]
    else:
        with Calibrator() as cal:
            runs = [run_passes(make_ops, workload.normalize, seconds,
                               stop_mid_pass=workload.stop_mid_pass, calibrator=cal)]
    peak_rss = _peak_rss_mb()

    refs = cached_references(workload, pv, data, out_dir, seed)
    check = workload.checker(pv, data, refs)
    weights = refs if name == "verify" else None  # a battery op stands for its instances
    attempted = failed = 0
    reasons = []
    for m in runs:
        f, r = count_failures(m, check, weights)
        failed += f
        reasons += r
        attempted += sum(n * (weights[i] if weights else 1) for i, n in enumerate(m.executions))

    main = runs[-1]
    detail = {
        "workload": name,
        "size": size,
        "trace": int(trace),
        "env": env_stamp(pv, seed, root),
        "passes": main.passes,
        "ops_per_pass": len(main.executions),
        "latency_samples": len(main.latencies),
        "wall_s": main.wall,
        "error_rate": failed / attempted,
        "failures": [{"op": i, "reason": why} for i, why in reasons[:10]],
        "setup_samples_s": setup_times,
    }
    if trace:
        metrics = tracer.layer_metrics(traced.wall, untraced.wall)
        detail["missing"] = tracer.missing
        detail["untraced_wall_s"] = untraced.wall
        detail["spans"] = len(tracer.span_label)
        trace_path = out_dir / "traces" / f"{name}-seed{seed}.npz"
        tracer.save(trace_path)
        detail["trace_file"] = str(trace_path.relative_to(root))
    else:
        units = sum(n * w for n, w in zip(main.executions, weights)) if weights else len(main.latencies)
        raw = {
            "throughput_ops_s": units / main.wall,
            "latency_p50_ms": _percentile_ms(main.latencies, 50),
            "latency_p90_ms": _percentile_ms(main.latencies, 90),
            "setup_s": statistics.median(setup_times),
        }
        scaled = cal.scaled(main.starts, main.ends, main.latencies)
        metrics = {
            "throughput_ops_s": units / float(scaled.sum()),
            "latency_p50_ms": _percentile_ms(scaled, 50),
            "latency_p90_ms": _percentile_ms(scaled, 90),
            "setup_s": float(np.median(setup_cal.scaled(*zip(*setups)))),
            "peak_rss_mb": peak_rss,
        }
        if len(main.latencies) >= 1000:  # at least ten samples beyond the 99th percentile
            detail["latency_p99_ms"] = _percentile_ms(scaled, 99)
        detail["latency_unit"] = "battery call" if weights else "op"
        detail["raw"] = raw
        detail["calibration"] = {
            "reference_ms": CALIBRATION_REFERENCE_S * 1e3,
            "mean_ms": cal.mean() * 1e3,
            "samples": len(cal.samples),
            "setup_mean_ms": setup_cal.mean() * 1e3,
            "setup_samples": len(setup_cal.samples),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, detail
