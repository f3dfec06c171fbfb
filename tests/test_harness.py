"""The benchmark harness in benchmarks/ imports from paulibench: a name it
imports, or a layer module its tracer wraps, that the package no longer has
would break the benchmark without failing any other test."""

import ast
import importlib
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _trees():
    for path in sorted(BENCHMARKS.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), str(path))


def _paulibench_imports():
    """(file, module, name) of every import from paulibench; name is None
    for a plain `import paulibench...`."""
    for source, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "paulibench":
                for alias in node.names:
                    yield source, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "paulibench":
                        yield source, alias.name, None


def test_harness_imports_resolve():
    found = list(_paulibench_imports())
    assert found
    for source, module, name in found:
        mod = importlib.import_module(module)
        if name is None or hasattr(mod, name):
            continue
        try:  # `from package import submodule`
            importlib.import_module(f"{module}.{name}")
        except ImportError:
            pytest.fail(f"{source} imports {name} from {module}, which has "
                        "no such name")


def test_traced_layers_are_modules():
    layers = [ast.literal_eval(node.value) for source, tree in _trees()
              if source == "spans.py" for node in tree.body
              if isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)]
    assert len(layers) == 1
    for layer in layers[0]:
        importlib.import_module(f"paulibench.{layer}")
