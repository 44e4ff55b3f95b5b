"""Package structure: every import statement sits at module level, no
assert statement stands in for a check, no private name crosses modules,
the storage of a series stays behind the series module, and raw mpf tuples
and the conversion of exact values to mpf stay in the evaluate module."""

import ast
from pathlib import Path

import recasymp

MODULES = sorted(Path(recasymp.__file__).parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def test_no_import_inside_a_function():
    # A function-level import hides a module dependency (and any cycle it
    # closes) until the function first runs.
    nested = []
    for path in MODULES:
        for fn in ast.walk(_tree(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [
                    f"{path.name}:{node.lineno} in {fn.name}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert nested == []


def test_no_assert_statement():
    # python -O strips assert statements, so a check the package relies on
    # raises an exception of its own instead.
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_private_names_cross_modules_only_where_listed():
    # A private name imported from a sibling, or read off it as an
    # attribute, as (importer, module, name), is a dependency its owner
    # cannot see; none is left.
    siblings = {path.stem for path in MODULES}
    found = set()
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom) and node.module:
                module = node.module.removeprefix("recasymp.")
                if node.level or node.module.startswith("recasymp."):
                    found |= {
                        (path.stem, module, alias.name)
                        for alias in node.names
                        if alias.name.startswith("_")
                    }
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings
                and node.attr.startswith("_")
            ):
                found.add((path.stem, node.value.id, node.attr))
    assert found == set()


def test_series_storage_stays_in_the_series_module():
    # How a series stores its coefficients (numerators over one
    # denominator, in lowest terms or not) is decided in series.py alone:
    # no other module reads .nums or .den.
    leaks = [
        f"{path.name}:{node.lineno} reads .{node.attr}"
        for path in MODULES
        if path.name != "series.py"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and node.attr in ("nums", "den")
    ]
    assert leaks == []


def _is_libmp(name):
    return name == "mpmath.libmp" or name.startswith("mpmath.libmp.")


def test_raw_mpf_arithmetic_stays_in_the_evaluate_module():
    # mpmath's raw tuple layer (mpmath.libmp) skips the context's checks
    # and rounding defaults; evaluate.py alone works on it.
    users = set()
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "mpmath"
            ):
                names = [f"mpmath.{node.attr}"]
            else:
                continue
            if any(_is_libmp(name) for name in names):
                users.add(path.name)
    assert users == {"evaluate.py"}


def test_exact_values_reach_mpmath_through_to_mpf():
    # ctx.mpf(int) makes the integer exact before rounding it, stripping
    # trailing zero bits over the whole integer; evaluate._raw rounds an
    # exact value once, so no module calls an attribute named mpf.
    calls = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "mpf"
    ]
    assert calls == []
