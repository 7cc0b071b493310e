"""Static checks on the library source."""

import ast
import importlib
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tela"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by import statements, with their line numbers."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def test_every_import_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [
            f"{path.name}:{line}: {name}"
            for name, line in imported_names(tree).items()
            if name not in used
        ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def traced_functions() -> dict[str, tuple[str, ...]]:
    """The benchmark's FUNCTIONS table, read from its source without importing it."""
    path = SRC.parent.parent / "perfbench" / "tracing.py"
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "FUNCTIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no FUNCTIONS table")


def test_every_traced_function_exists():
    missing = [
        f"tela.{module}.{name}"
        for module, names in traced_functions().items()
        for name in names
        if not hasattr(importlib.import_module(f"tela.{module}"), name)
    ]
    assert not missing, "traced names missing from the library:\n" + "\n".join(missing)
