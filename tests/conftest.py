"""Puts src/ on the path of the `python -m deltascatter` processes that some
tests start, so the suite runs from a checkout without an install."""

import os
import pathlib

import pytest

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True, scope="session")
def src_on_child_path():
    with pytest.MonkeyPatch.context() as patch:
        child_path = [SRC, os.environ.get("PYTHONPATH")]
        patch.setenv("PYTHONPATH", os.pathsep.join(filter(None, child_path)))
        yield
