"""The package runs on the standard library alone.

Read from the sources without importing them, so it holds under the
interpreter that runs the suite whatever else that interpreter has
installed, and it runs where the cross-version test in test_cli.py finds
no other CPython to start.
"""

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "deltascatter"


def absolute_imports(path):
    """The top-level name of each absolute import in path."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_every_import_is_stdlib():
    imports = {
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in absolute_imports(path)
    }
    assert {name for _, name in imports} >= {"argparse", "math"}
    assert [row for row in sorted(imports) if row[1] not in sys.stdlib_module_names] == []


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r"(?m)^dependencies\s*=.*$", text) == ["dependencies = []"]
