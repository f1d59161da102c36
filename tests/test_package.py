"""Package-wide properties: maxcross imports nothing outside the stdlib, and
every function the benchmark traces exists."""

import ast
import importlib
import sys
from pathlib import Path

import maxcross


def test_imports_only_stdlib_and_itself():
    sources = sorted(Path(maxcross.__file__).parent.glob("*.py"))
    assert {"graph.py", "search.py", "cli.py"} <= {path.name for path in sources}
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside.extend(
                f"{path.name}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names | {"maxcross"}
            )
    assert not outside


def test_benchmark_span_targets_exist():
    # benchmarks/spans.py skips a target it cannot find, so a renamed layer
    # function would silently zero its per-layer metric
    spans = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"
    tree = ast.parse(spans.read_text(encoding="utf-8"))
    (targets,) = (
        node.value
        for node in tree.body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TARGETS"
    )
    pairs = [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]
    assert pairs
    missing = [
        f"{module}.{function}"
        for module, function in pairs
        if not callable(getattr(importlib.import_module(f"maxcross.{module}"), function, None))
    ]
    assert not missing
