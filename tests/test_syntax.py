"""Every Python file parses under the oldest Python that pyproject allows.

The version is read from `requires-python` with a regex, because `tomllib`
arrived only in Python 3.11.  `ast.parse(..., feature_version=...)` rejects
the grammar that version lacks (exception groups for 3.10, for example),
so a newer construct fails here on any interpreter that runs the tests."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests", "bench")
               for p in (ROOT / d).rglob("*.py"))


def oldest_python() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python\s*=\s*">=\s*3\.(\d+)', text,
                      re.MULTILINE)
    assert found, "pyproject.toml names no requires-python lower bound"
    return 3, int(found.group(1))


def test_newer_grammar_is_rejected():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_file_parses_on_oldest_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=oldest_python())
