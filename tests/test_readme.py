"""README's fenced python blocks run as written, and each command-line
example prints exactly the text shown under it, so neither can drift from
the program."""

import pathlib
import re
import shlex

from deltascatter.cli import EXIT_OK
from support import run_main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_command_line_examples_print_what_they_show():
    examples = re.findall(
        r"^```\n\$ deltascatter (.*?)\n(.*?)^```$", README.read_text(), re.M | re.S
    )
    assert examples
    for command, shown in examples:
        assert (command, *run_main(shlex.split(command))) == (command, EXIT_OK, shown, "")
