"""Static checks on the library source."""

import ast
import importlib
import inspect
import pathlib
from collections import Counter

import tela

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


def private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Module-level `_name` functions, classes and assignments."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defs[target.id] = node
    return {
        name: node
        for name, node in defs.items()
        if name.startswith("_") and not name.startswith("__")
    }


def references(node: ast.AST) -> Counter:
    """How often each name is read, as a name, an attribute or an import."""
    counts = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            counts[sub.attr] += 1
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            counts.update(alias.name for alias in sub.names)
    return counts


def library_references() -> tuple[dict[str, ast.Module], Counter]:
    """Each library module's syntax tree, and the reads of each name over
    all of them."""
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
    }
    return trees, sum((references(tree) for tree in trees.values()), Counter())


def test_every_private_helper_is_referenced():
    """Each private helper is read somewhere in the library outside its own
    definition, so a recursive helper nobody calls counts as dead too."""
    trees, used = library_references()
    dead = [
        f"{module}:{node.lineno}: {name}"
        for module, tree in trees.items()
        for name, node in private_definitions(tree).items()
        if used[name] <= references(node)[name]
    ]
    assert not dead, "unreferenced private helpers:\n" + "\n".join(dead)


def test_every_public_function_is_exported_or_used():
    """Each public module-level function or class is exported from the
    package or read somewhere in the library outside its own definition;
    the import in tela/__init__.py that exports a name counts as a read."""
    trees, used = library_references()
    dead = [
        f"{module}:{node.lineno}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and used[node.name] <= references(node)[node.name]
    ]
    assert not dead, "public names neither exported nor used:\n" + "\n".join(dead)


def test_benchmark_calls_bind_to_the_library_signatures():
    """Each `tela.<name>(...)` call in perfbench/workloads.py and tools/*.py
    binds to the signature of that name, by its positional count and keyword
    names, so a signature change that would break the benchmark or a tool
    fails here."""
    root = SRC.parent.parent
    paths = [root / "perfbench" / "workloads.py", *sorted(root.glob("tools/*.py"))]
    calls = [
        (path, node)
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "tela"
    ]
    callers = {path.name for path, _ in calls}
    assert {"workloads.py", "det_differential.py", "mc_differential.py"} <= callers, callers
    broken = []
    for path, call in calls:
        where = f"{path.name}:{call.lineno}: tela.{call.func.attr}"
        if any(isinstance(arg, ast.Starred) for arg in call.args) or any(
            kw.arg is None for kw in call.keywords
        ):
            broken.append(f"{where}: unpacked arguments cannot be checked")
            continue
        try:
            inspect.signature(getattr(tela, call.func.attr)).bind(
                *call.args, **{kw.arg: kw.value for kw in call.keywords}
            )
        except (AttributeError, TypeError) as exc:
            broken.append(f"{where}: {exc}")
    assert not broken, "calls that no longer bind:\n" + "\n".join(broken)
