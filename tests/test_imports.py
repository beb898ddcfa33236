"""The library imports nothing outside the standard library and itself.

sympy, hypothesis and pytest are for the tests and the benchmark only.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sasakijoin"
ALLOWED = sys.stdlib_module_names | {"sasakijoin"}


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_library_imports_only_the_standard_library():
    files = sorted(SRC.rglob("*.py"))
    assert files
    outside = [f"{path.relative_to(SRC)}: {name}" for path in files
               for name in _absolute_imports(path)
               if name.partition(".")[0] not in ALLOWED]
    assert not outside
