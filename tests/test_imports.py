"""The library imports nothing outside the standard library and itself, and
its modules share private names only where an allow-list says so.

sympy, hypothesis and pytest are for the tests and the benchmark only.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sasakijoin"
ALLOWED = sys.stdlib_module_names | {"sasakijoin"}
# (importing module, imported module, name): the only single-underscore names
# one module of src/ may import from another
PRIVATE_IMPORTS = {
    ("twins", "profile", "_certify"),
    ("twins", "profile", "_ode_map"),
    ("twins", "profile", "_right_side"),
}


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


def _private_imports(path):
    """(importer, source, name) for each single-underscore name the module at
    path imports from a module of the package, relatively or absolutely."""
    importer = path.relative_to(SRC).with_suffix("").parts
    package = list(importer[:-1])
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module.split(".") if node.module else []
        if node.level:
            source = package[:len(package) - node.level + 1] + module
        elif module[:1] == ["sasakijoin"]:
            source = module[1:]
        else:
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                yield ".".join(importer), ".".join(source), alias.name


def test_private_names_cross_modules_only_by_the_allow_list():
    found = {item for path in sorted(SRC.rglob("*.py")) for item in _private_imports(path)}
    assert found == PRIVATE_IMPORTS
