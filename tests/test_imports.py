import ast
from pathlib import Path

import theta_forge

SRC = Path(theta_forge.__file__).parent


def _package_imports(node):
    """The package modules an import statement names (relative or absolute)."""
    if isinstance(node, ast.ImportFrom):
        if node.level or (node.module or "").split(".")[0] == "theta_forge":
            return [node.module or "."]
    elif isinstance(node, ast.Import):
        return [a.name for a in node.names if a.name.split(".")[0] == "theta_forge"]
    return []


def test_no_function_imports_a_package_module():
    # a function-level import is how a module hides an import cycle
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    names = _package_imports(node)
                    found += [f"{path.name}:{node.lineno} {name}" for name in names]
    assert found == []


def test_symplectic_imports_only_errors():
    tree = ast.parse((SRC / "symplectic.py").read_text(encoding="utf-8"))
    names = {name for node in ast.walk(tree) for name in _package_imports(node)}
    assert names == {"errors"}


def test_theta_imports_no_group_action_from_symplectic():
    # the squared multiplier lives in forms, beside the audit that uses it
    tree = ast.parse((SRC / "theta.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module == "symplectic" for alias in node.names}
    assert imported == {"Characteristic", "SiegelPoint", "integer_entries", "parity"}


# kept without a caller in the package or the benchmark: the caches' reset
# and the console entry point
_ENTRY_POINTS = {"theta.clear_caches", "cli.main"}


def _program_files():
    """The package's modules and the benchmark's, without its tests."""
    perfbench = SRC.parent.parent / "perfbench"
    return sorted(SRC.glob("*.py")) + sorted(
        p for p in perfbench.glob("*.py") if not p.name.startswith("test_"))


def _public_definitions(path, tree):
    """(qualified name, node) of each public module-level function or class
    and each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item


def _references(path, tree):
    """(name, line) of every Name, Attribute and import alias; the
    package's re-exports in ``__init__`` are not uses."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and path.name != "__init__.py":
            for alias in node.names:
                yield alias.name.split(".")[-1], node.lineno
                if alias.asname:
                    yield alias.asname, node.lineno


def test_every_public_name_has_a_caller():
    # a name stays only if the package or the benchmark reaches it: one that
    # only tests call belongs in the tests, not in the program
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in _program_files()}
    refs = {(path, name, line) for path, tree in trees.items() for name, line in _references(path, tree)}
    unused = []
    for path, tree in trees.items():
        for qualname, node in _public_definitions(path, tree):
            inside = range(node.lineno, node.end_lineno + 1)
            if qualname not in _ENTRY_POINTS and not any(
                    name == node.name and not (where == path and line in inside)
                    for where, name, line in refs):
                unused.append(qualname)
    assert unused == []
