"""Checks on the package source itself."""

import ast
from pathlib import Path

import nodalcalc

PACKAGE = Path(nodalcalc.__file__).parent
TESTS = Path(__file__).parent


def test_no_assert_statements():
    # `python -O` strips assert statements, so invariants raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_unused_imports():
    # every imported name is read somewhere in its module; the package's
    # __init__ is left out, because its imports are re-exports
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    found = []
    for path in modules + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]  # `import a.b` binds a
                    if name not in read:
                        found.append(f"{path.parent.name}/{path.name}:{node.lineno} {name}")
    assert found == []
