"""The runtime dependencies that ``pyproject.toml`` declares are the ones ``src/`` imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def imported_names(nodes) -> set:
    """Top-level names of the absolute imports among ``nodes``."""
    names = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def third_party_imports(directory: Path) -> set:
    """Top-level names of the absolute imports under ``directory`` that are not stdlib."""
    names = set()
    for path in directory.rglob("*.py"):
        names |= imported_names(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    own = {p.name for p in directory.iterdir() if p.is_dir()}
    return names - set(sys.stdlib_module_names) - own


def test_declared_dependencies_are_the_imported_ones():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower() for spec in project["dependencies"]}
    assert third_party_imports(ROOT / "src") == declared


def module_level_imports(source: str) -> set:
    """Top-level names that the module-level statements of ``source`` import."""
    return imported_names(ast.parse(source).body)


def test_guard_sees_only_module_level_imports():
    source = "import numpy as np\nfrom numpy import linalg\ndef f():\n    import scipy\n"
    assert module_level_imports(source) == {"numpy"}


def test_only_analytics_modules_load_numpy_on_import():
    """Extraction, baselines and cohorts run without numpy; ``FeatureMatrix.data`` loads it
    only when an analytics module asks for the array."""
    package = ROOT / "src" / "pheno_mine"
    importers = sorted(
        path.name
        for path in package.glob("*.py")
        if "numpy" in module_level_imports(path.read_text(encoding="utf-8"))
    )
    assert importers == ["clustering.py", "pca.py", "stats.py"]


def test_every_public_name_resolves():
    import pheno_mine

    for name in pheno_mine.__all__:
        assert getattr(pheno_mine, name) is not None, name
    assert pheno_mine.kmeans_fit.__module__ == "pheno_mine.clustering"
    with pytest.raises(AttributeError, match="no attribute 'kmeans'"):
        pheno_mine.kmeans
