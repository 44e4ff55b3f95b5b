"""Package structure: every import statement sits at module level."""

import ast
from pathlib import Path

import recasymp


def test_no_import_inside_a_function():
    # A function-level import hides a module dependency (and any cycle it
    # closes) until the function first runs.
    nested = []
    for path in sorted(Path(recasymp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [
                    f"{path.name}:{node.lineno} in {fn.name}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert nested == []
