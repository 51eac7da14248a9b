"""The README's Python quick tour runs, and the package root is what it imports."""

import ast
import re
from pathlib import Path

import byzsim

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_tour() -> str:
    text = README.read_text()
    section = text[text.index("## Python quick tour"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_tour_runs():
    exec(compile(_quick_tour(), str(README), "exec"), {})


def test_package_root_exports_exactly_the_quick_tour_imports():
    imported = {alias.name
                for node in ast.walk(ast.parse(_quick_tour()))
                if isinstance(node, ast.ImportFrom) and node.module == "byzsim"
                for alias in node.names}
    assert set(byzsim.__all__) == imported
