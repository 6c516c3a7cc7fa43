"""The package runs on the standard library alone."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _imported_modules(path):
    """Top-level names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "weylmod").glob("*.py"))
    assert sources
    outside = {
        (path.name, name)
        for path in sources
        for name in _imported_modules(path)
        if name != "weylmod" and name not in sys.stdlib_module_names
    }
    assert not outside


def test_pyproject_declares_no_runtime_dependency():
    text = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project, re.M | re.S)
    assert deps is not None and deps.group(1).strip() == ""
