"""Every name a pvcmon module imports is used in that module, every
private helper it defines is used somewhere, no line of it carries a
coverage pragma, and each domain fault is raised from one place."""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "pvcmon").glob("*.py"))
# where a private helper may be read: the package, its tests and benchmarks
READERS = sorted(p for d in ("src", "tests", "benchmarks", "perfbench") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` and never read as a name.

    A mention in a docstring or comment is not a use. ``__future__``
    imports bind nothing and are skipped.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    return [f"line {line}: {name}" for line, name in unused]


# __init__.py imports names to re-export them
@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_import_named_only_in_a_docstring_is_unused():
    source = 'from math import ceil, floor\n\n\ndef f(x):\n    """Like ceil."""\n    return floor(x)\n'
    assert unused_imports(source) == ["line 1: ceil"]


def private_definitions(source: str) -> list[str]:
    """Module-level private functions, classes and constants of ``source``:
    names bound by def, class or assignment that start with one underscore."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def name_tokens(sources) -> Counter:
    """How often each name occurs as code in ``sources``; a mention in a
    string, docstring or comment is not counted."""
    counts = Counter()
    for source in sources:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NAME:
                counts[tok.string] += 1
    return counts


def orphans(defining: dict[str, str], readers: list[str]) -> list[str]:
    """Private module-level names of the ``defining`` sources (by module
    name) that occur nowhere in ``readers`` but where they are defined."""
    defined = {module: private_definitions(source) for module, source in defining.items()}
    definitions = Counter(name for names in defined.values() for name in names)
    counts = name_tokens(readers)
    return [f"{module}.{name}" for module, names in defined.items()
            for name in names if counts[name] <= definitions[name]]


def test_no_orphaned_private_helpers():
    defining = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert orphans(defining, [p.read_text(encoding="utf-8") for p in READERS]) == []


def test_a_helper_named_only_in_its_definition_is_orphaned():
    source = ('_LIMIT = 3\n\n\ndef _used():\n    return _LIMIT\n\n\n'
              'def _orphan(x):\n    """Not _used."""\n    return x  # _used\n\n\ndef run():\n    return _used()\n')
    assert orphans({"mod": source}, [source]) == ["mod._orphan"]


def test_no_coverage_pragmas():
    # no coverage tool runs on this project, so the marker would only hide
    # unreachable code from readers; delete such code instead
    marked = [f"{p.name}:{lineno}" for p in SOURCES
              for lineno, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1)
              if "pragma: no cover" in line]
    assert marked == []


def raised_messages(source: str) -> list[tuple[str, str]]:
    """(exception name, literal text of its message) for each ``raise
    Name(message)`` in ``source``; an f-string's fields are left out."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
            message = node.exc.args[0]
            parts = message.values if isinstance(message, ast.JoinedStr) else [message]
            text = "".join(p.value for p in parts if isinstance(p, ast.Constant) and isinstance(p.value, str))
            out.append((getattr(node.exc.func, "id", ""), text))
    return out


def test_each_domain_fault_is_raised_from_one_place():
    # the target, budget and fraction checks live in graph.py; a second copy
    # would let two entry points word one fault, or exit on it, differently.
    # load_gadget's sidecar check is the one other: it fails a construction
    raises = [(p.name, name, text) for p in SOURCES for name, text in raised_messages(p.read_text(encoding="utf-8"))]
    for phrase, where in (
        ("negative coverage target", [("graph.py", "ValueError")]),
        ("exceeds edge count", [("graph.py", "InfeasibleTargetError")]),
        ("budget k=", [("graph.py", "ValueError")]),
        ("must lie strictly between", [("graph.py", "ValueError"), ("reductions.py", "GadgetConstructionError")]),
    ):
        assert sorted((module, name) for module, name, text in raises if phrase in text) == where, phrase
