"""The names the benchmark harness reads from pvcmon stay defined.

``perfbench/tracer.py`` traces pvcmon by name and reports a name it cannot
find as missing, whose per-layer metrics then read 0; the harness stamps
each run with ``kernels.backend()``. Removing or renaming one of these
fails here instead.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from pvcmon import kernels

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


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
