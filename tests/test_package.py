"""Package-wide properties: maxcross imports nothing outside the stdlib,
every function the benchmark traces exists, and each library argument check
that no file or CLI argument reaches refuses its input with its own text."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import maxcross
from maxcross.constructions import (
    ConvexOrder,
    convex_points,
    crossings_convex,
    drawing_from_order,
    star_like_even,
)
from maxcross.formulas import _exact_div
from maxcross.geometry import GeometricDrawing
from maxcross.graph import make_circulant

C5 = make_circulant(5, [1])


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


# (call, arguments, error type, exact text)
LIBRARY_ARGUMENT_ERRORS = [
    (convex_points, (2,), ValueError, "need n >= 3, got n=2"),
    (drawing_from_order, (C5, ConvexOrder.identity(6)), ValueError, "order has 6 slots for n=5"),
    (crossings_convex, (C5, ConvexOrder.identity(6)), ValueError, "order has 6 slots for n=5"),
    (star_like_even, (9, 4), ValueError, "star-like drawing needs n, d even, got (9, 4)"),
    (GeometricDrawing, (C5, convex_points(4)), ValueError, "5 vertices but 4 positions"),
    (make_circulant, (5, []), ValueError, "need at least one offset"),
    (_exact_div, (7, 2, "what"), ArithmeticError, "what: 7 is not divisible by 2"),
]


@pytest.mark.parametrize(
    "call,args,error,text",
    LIBRARY_ARGUMENT_ERRORS,
    ids=[row[0].__name__ for row in LIBRARY_ARGUMENT_ERRORS],
)
def test_library_argument_error(call, args, error, text):
    # the CLI and the file readers never pass these arguments, so only a
    # library caller meets the checks, and only this table reaches them
    with pytest.raises(error) as caught:
        call(*args)
    assert type(caught.value) is error and str(caught.value) == text
