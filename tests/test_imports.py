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
