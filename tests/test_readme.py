"""The Python examples of README.md run against the package as it is."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("number", range(len(BLOCKS)))
def test_readme_python_block_runs(number):
    exec(compile(BLOCKS[number], f"README.md python block {number}", "exec"), {})
