"""Every name a program module imports is used in that module.

No linter is assumed, so an import left behind when code moves between
modules is caught here.  The package `__init__` is exempt: it imports names
only to re-export them."""

import ast
from pathlib import Path

import pytest

import pblocksim

MODULES = sorted(p for p in Path(pblocksim.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


def test_unused_import_is_reported():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n"
                          ) == ["line 1: os", "line 2: tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
