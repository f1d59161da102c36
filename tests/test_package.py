"""Package-wide properties: maxcross imports nothing outside the stdlib."""

import ast
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
