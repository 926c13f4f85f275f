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


def test_every_raise_names_an_error_main_handles():
    # main turns ValidationError into exit 2 and DomainError into exit 4;
    # a third type or a bare ValueError would escape it as a traceback.
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = {
        node.name: [ast.unparse(base) for base in node.bases]
        for node in ast.walk(errors)
        if isinstance(node, ast.ClassDef)
    }
    assert classes == {"ValidationError": ["ValueError"], "DomainError": ["ValueError"]}
    raised = [
        (path.name, node.lineno,
         node.exc and ast.unparse(getattr(node.exc, "func", node.exc)))
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise)
    ]
    assert raised
    assert [row for row in raised if row[2] not in classes] == []


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r"(?m)^dependencies\s*=.*$", text) == ["dependencies = []"]


def test_public_surface_is_pinned():
    # Imports the package, unlike the tests above: a name added to or taken
    # from __all__ has to show up here as a deliberate diff.
    import deltascatter

    assert sorted(deltascatter.__all__) == [
        "CrossSection",
        "DomainError",
        "EULER_GAMMA",
        "EpsilonSchedule",
        "LimitEstimate",
        "PhaseShift",
        "RegularizationMode",
        "ScatteringProblem",
        "ValidationError",
        "bessel_j0",
        "bessel_k0",
        "bessel_y0",
        "cross_section_closed",
        "cross_section_partial_wave",
        "hankel1_0",
        "hankel1_0_small_z",
        "k0_small_z",
        "limit_extrapolate",
        "mead_godines_wrong_limit",
        "regularized_cross_section",
        "s_wave_phase_shift",
    ]
    for name in deltascatter.__all__:
        assert hasattr(deltascatter, name), name
