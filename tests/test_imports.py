"""What src/byzsim/ imports: the runtime uses only the standard library, and
only the command line reads the clock."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "byzsim").glob("*.py"))


def _absolute_imports(path):
    """(line, top-level module) for every absolute import in path."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            yield node.lineno, name.partition(".")[0]


def test_every_import_is_relative_or_standard_library():
    assert "core.py" in {p.name for p in SOURCES}
    assert [f"{path.name}:{line}: {name}" for path in SOURCES
            for line, name in _absolute_imports(path)
            if name not in sys.stdlib_module_names] == []


def test_only_the_cli_reads_the_clock():
    # Reports, CSVs and transcripts are pure functions of inputs and seed;
    # the CLI alone may time a call and print the time apart from them.
    assert [f"{path.name}:{line}: {name}" for path in SOURCES if path.name != "cli.py"
            for line, name in _absolute_imports(path)
            if name in ("time", "datetime")] == []
