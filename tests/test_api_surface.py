"""Every public top-level name in the package is used by the package itself.

A name that only tests call is API kept alive for the tests. Each public
(not underscore-prefixed) function, class or variable defined at the top
level of a module under ``src/scenemerge`` must be referenced somewhere
in ``src/`` outside its own definition: a call, an annotation, an import
or an export from ``__init__`` all count.
"""

from __future__ import annotations

import ast
from pathlib import Path

import scenemerge

SRC = Path(scenemerge.__file__).resolve().parent


def _defined(tree: ast.Module):
    """(name, first line, last line) of each public top-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node.lineno, node.end_lineno


def _references(tree: ast.Module):
    """(name, line) of each name the module loads, reads as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def test_every_public_name_is_used_inside_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    references = {
        (module, name, line) for module, tree in trees.items() for name, line in _references(tree)
    }
    unused = []
    for module, tree in sorted(trees.items()):
        for name, first, last in _defined(tree):
            if not any(
                ref_name == name and not (ref_module == module and first <= line <= last)
                for ref_module, ref_name, line in references
            ):
                unused.append(f"{module}: {name}")
    assert not unused, f"public names no code in src/ uses: {unused}"
