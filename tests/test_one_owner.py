"""Each test-side helper and constant has one owner.

A helper or UPPER_CASE constant that two test modules define is one rule
kept twice, free to drift apart; what modules share lives in support.py.
"""

import ast
import collections
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent


def module_level_names(path):
    """The functions and classes not named test_*/Test*, and the UPPER_CASE
    constants, that path defines at module level."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith(("test_", "Test")):
                names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if getattr(t, "id", "").isupper())
    return names


def test_no_two_modules_define_the_same_helper():
    owners = collections.defaultdict(list)
    for path in sorted(TESTS.glob("*.py")):
        for name in module_level_names(path):
            owners[name].append(path.name)
    assert {name: files for name, files in owners.items() if len(files) > 1} == {}
