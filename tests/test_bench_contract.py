"""Every program name that the benchmark's tracer and layer tables look up.

bench/tracer.py lists a name it cannot find as absent, and its metric then
reads null, which bench/test_smoke.py lets through on traced runs; so does
LayerSuite.timed in bench/layers.py.  So a renamed function would drop a
per-layer metric without failing a test.  This reads those tables and every
self.timed call from the bench sources, without running them, and checks
that each name still resolves.
"""

import ast
import importlib
import pathlib
import pkgutil

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


def _timed_calls():
    """(owner, attr) of every self.timed(name, unit, owner, attr, ...) call in
    bench/layers.py, the owner as a dotted path through its import aliases
    and local assignments (`sc = ds.scattering`), and an attr that is a loop
    variable expanded over its loop's tuple or module-level table."""
    tree = ast.parse((BENCH / "layers.py").read_text(encoding="utf-8"))
    aliases, calls = {}, []

    def dotted(expr):
        root, *rest = ast.unparse(expr).split(".")
        return ".".join([aliases[root], *rest]) if root in aliases else None

    def visit(node, loops):
        if isinstance(node, ast.Import):
            aliases.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if isinstance(node.value, ast.Attribute) and dotted(node.value):
                aliases[node.targets[0].id] = dotted(node.value)
        elif isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            loops = {**loops, node.target.id: node.iter}
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "self.timed":
            owner, attr = node.args[2:4]
            path = dotted(owner)
            if isinstance(attr, ast.Constant):
                names = [attr.value]
            elif isinstance(loops[attr.id], ast.Name):
                names = _table("layers.py", loops[attr.id].id)
            else:
                names = ast.literal_eval(loops[attr.id])
            calls.extend((path, name) for name in names)
        for child in ast.iter_child_nodes(node):
            visit(child, loops)

    visit(tree, {})
    return calls


TIMED = _timed_calls()


@pytest.mark.parametrize("owner, attr", TIMED, ids=[f"{o}.{a}" for o, a in TIMED])
def test_timed_attribute_exists(owner, attr):
    # LayerSuite.timed reports a metric as null when this getattr is None;
    # what it times is a call, or a property's access.
    timed = getattr(pkgutil.resolve_name(owner), attr, None)
    assert isinstance(timed, property) or callable(timed)
