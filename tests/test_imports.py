"""Every name a program module imports is used in that module, and every
definition in a program module is read by the program or the benchmark.

No linter is assumed, so an import left behind when code moves between
modules, or a function that only tests call, is caught here.  The package
`__init__` is exempt from both: it imports names only to re-export them, and
what it re-exports is the public API."""

import ast
from pathlib import Path

import pytest

import pblocksim

PACKAGE = Path(pblocksim.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
BENCH = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))
# definitions that only tests read, kept on purpose
KEPT_FOR_TESTS = {
    # the tableau's own consistency check, which the tests assert after
    # every gate: safety code with no caller in a run
    "check_invariants",
    # the whole state as one density matrix, the tests' reference oracle
    # for blocked runs at small widths
    "global_density",
}


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


def names_read(source: str) -> set[str]:
    """Every name `source` reads: variable names, attribute names, the
    parts of imported names, and the dot-separated parts of each string
    constant made only of identifiers (a traced span such as
    "BlockedState.copy" names the method it wraps)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                read.update(parts)
    return read


def unread_definitions(source: str, read: set[str]) -> list[str]:
    """The functions, methods and classes defined in `source` whose names
    are not in `read`, dunders aside.  A name counts as read wherever it
    is read, so a method that shares its name with anything read
    elsewhere (`add`, `sub` and `scale` before their deletion: `set.add`,
    the CLI's subparser `sub`, the bench's `clock.scale`), or with a part
    of a dotted string (`max_block_size`, in the bench's metric name
    "blocked.max_block_size"), is not seen."""
    return sorted(
        f"line {node.lineno}: {node.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read)


def test_unread_definition_is_reported():
    source = ("class A:\n    def used(self): pass\n"
              "    def spare(self): pass\n    def __len__(self): return 0\n"
              "def helper(): pass\ndef traced(): pass\n")
    read = names_read("A().used()\nhelper\nspan = 'A.traced'\n")
    assert unread_definitions(source, read) == ["line 3: spare"]


def test_every_definition_is_read():
    exported = {alias.asname or alias.name for node in ast.walk(
        ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = KEPT_FOR_TESTS | exported
    for path in MODULES + BENCH:
        read |= names_read(path.read_text(encoding="utf-8"))
    unread = {path.name: unread_definitions(path.read_text(encoding="utf-8"),
                                            read)
              for path in MODULES}
    assert {name: found for name, found in unread.items() if found} == {}
