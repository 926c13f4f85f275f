"""Every program name that the benchmark's tracer and layer tables look up.

bench/tracer.py lists a name it cannot find as absent, and its metric then
reads null, which bench/test_smoke.py lets through on traced runs.  So a
renamed function would drop a per-layer metric without failing a test.
This reads those tables from the bench sources, without running them, and
checks that each name still resolves.
"""

import ast
import importlib
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _table(filename, name):
    """The constants of a module-level list or tuple, row by row; any
    element that is not a constant, such as a lambda, reads None."""
    tree = ast.parse((BENCH / filename).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return [
                tuple(getattr(e, "value", None) for e in row.elts)
                if isinstance(row, ast.Tuple)
                else row.value
                for row in node.value.elts
            ]
    raise AssertionError(f"bench/{filename} defines no {name}")


FUNCTIONS = _table("tracer.py", "_FUNCTIONS")
CLASS_ATTRS = _table("tracer.py", "_CLASS_ATTRS")


@pytest.mark.parametrize(
    "span, module, attr, _suffix", FUNCTIONS, ids=[row[0] for row in FUNCTIONS]
)
def test_traced_function_exists(span, module, attr, _suffix):
    assert callable(getattr(importlib.import_module(f"deltascatter.{module}"), attr, None))


@pytest.mark.parametrize(
    "span, module, cls, attr", CLASS_ATTRS, ids=[row[0] for row in CLASS_ATTRS]
)
def test_traced_class_attribute_exists(span, module, cls, attr):
    owner = getattr(importlib.import_module(f"deltascatter.{module}"), cls)
    assert attr in vars(owner)


@pytest.mark.parametrize("name", _table("layers.py", "KERNELS"))
def test_timed_kernel_exists(name):
    special_functions = importlib.import_module("deltascatter.special_functions")
    assert callable(getattr(special_functions, name, None))
