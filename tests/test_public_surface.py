"""Guards on the package surface: the exports resolve, and no module keeps
an import it never uses (a name left behind when its last caller goes)."""

import ast
from pathlib import Path

import pytest

import paulibench

_MODULES = sorted(p for p in Path(paulibench.__file__).parent.glob("*.py")
                  if p.name != "__init__.py")


def test_every_export_resolves():
    assert len(set(paulibench.__all__)) == len(paulibench.__all__)
    missing = [name for name in paulibench.__all__
               if not hasattr(paulibench, name)]
    assert not missing


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"
