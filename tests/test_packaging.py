"""The runtime dependencies that ``pyproject.toml`` declares are the ones ``src/`` imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def third_party_imports(directory: Path) -> set:
    """Top-level names of the absolute imports under ``directory`` that are not stdlib."""
    names = set()
    for path in directory.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    own = {p.name for p in directory.iterdir() if p.is_dir()}
    return names - set(sys.stdlib_module_names) - own


def test_declared_dependencies_are_the_imported_ones():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower() for spec in project["dependencies"]}
    assert third_party_imports(ROOT / "src") == declared
