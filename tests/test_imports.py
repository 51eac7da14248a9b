"""The runtime uses only the standard library: every import under
src/byzsim/ is relative or names a standard-library module."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "byzsim").glob("*.py"))


def _outside_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.partition(".")[0] not in sys.stdlib_module_names:
                yield f"{path.name}:{node.lineno}: {name}"


def test_every_import_is_relative_or_standard_library():
    assert "core.py" in {p.name for p in SOURCES}
    assert [bad for path in SOURCES for bad in _outside_imports(path)] == []
