"""The names and calls the benchmark harness makes into pvcmon stay valid.

``perfbench/tracer.py`` traces pvcmon by name and reports a name it cannot
find as missing, whose per-layer metrics then read 0; the harness stamps
each run with ``kernels.backend()``. Removing or renaming one of these
fails here instead, and so does a signature a workload calls with
arguments pvcmon no longer takes.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from pvcmon import kernels

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


def _resolve(label):
    module_name, name = label.split(".", 1)
    module = importlib.import_module(f"pvcmon.{module_name}")
    if label == "graph.from_edges":  # traced as the Graph staticmethod
        return inspect.getattr_static(module.Graph, name).__func__
    return getattr(module, name)


@pytest.mark.parametrize("label", sorted({*tracer.REQUIRED, *tracer.PRIVATE_TARGETS}))
def test_traced_label_resolves(label):
    assert callable(_resolve(label))


def test_backend_is_a_string():
    assert isinstance(kernels.backend(), str)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_at_tiny_size(name, tmp_path, monkeypatch):
    # one untimed pass of the workload's own inputs, set-up and ops, each
    # answer checked against its own references as the harness checks it
    try:
        ilp = _load("ilp")
    except ImportError:  # scipy is missing: the ILP references cannot run
        ilp = None
    monkeypatch.setitem(sys.modules, "ilp", ilp)  # the references import it by this name
    workload = workloads.WORKLOADS[name]
    pv = SimpleNamespace(**{module: importlib.import_module(f"pvcmon.{module}") for module in tracer.MODULES})
    data = workload.inputs(3, workloads.TINY)  # the self-test's seed
    state = workload.setup(pv, data, tmp_path / "work")
    answers = [workload.normalize(op()) for op in workload.ops(pv, state, data)]
    try:
        refs = workload.references(pv, data)
    except ImportError:
        pytest.skip("the ILP reference needs scipy")
    check = workload.checker(pv, data, refs)
    bad = [(i, why) for i, answer in enumerate(answers) if (why := check(i, answer)) is not None]
    assert answers and bad == []
