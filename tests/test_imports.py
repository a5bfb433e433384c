"""Every name a package or test module imports is used in that module, and
every private module-level name of the package is read in its own module.

Names listed in a module's ``__all__`` count as used, so deliberate
re-exports stay possible; anything else imported but never read is dead.
"""

from __future__ import annotations

import ast
from pathlib import Path

import multires

PACKAGE_DIR = Path(multires.__file__).parent
TESTS_DIR = Path(__file__).parent


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import, ``from __future__`` excluded."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def test_no_unused_imports():
    unused = []
    for directory in (PACKAGE_DIR, TESTS_DIR):
        modules = sorted(directory.glob("*.py"))
        assert modules, f"no modules found under {directory}"
        for path in modules:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            used = _used_names(tree)
            for name, lineno in _imported_names(tree).items():
                if name not in used:
                    unused.append(f"{directory.name}/{path.name}:{lineno}: {name}")
    assert unused == []


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level ``_name`` -> line of its definition, dunders excluded."""
    names: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def test_no_dead_private_helpers():
    dead = []
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules, f"no modules found under {PACKAGE_DIR}"
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for name, lineno in _private_definitions(tree).items():
            if name not in read:
                dead.append(f"{PACKAGE_DIR.name}/{path.name}:{lineno}: {name}")
    assert dead == []
