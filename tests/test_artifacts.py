"""``artifacts.py`` is the only module of the package that writes or renames a
file, or opens a SQLite database."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pheno_mine"


def _mode(call: ast.Call, position: int):
    """The mode argument of an ``open`` call: a string, None when absent, or the node."""
    if len(call.args) > position:
        node = call.args[position]
    else:
        node = next((k.value for k in call.keywords if k.arg == "mode"), None)
    if node is None:
        return None
    return node.value if isinstance(node, ast.Constant) else node


def _writes(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr in ("write_text", "write_bytes"):
            return True
        if func.attr in ("replace", "rename"):
            return isinstance(func.value, ast.Name) and func.value.id == "os"
    if getattr(func, "id", None) == "open" or getattr(func, "attr", None) == "open":
        # builtin open(file, mode) against Path.open(mode); a mode not spelt out counts
        mode = _mode(call, 1 if isinstance(func, ast.Name) else 0)
        return mode is not None and (not isinstance(mode, str) or bool(set(mode) & set("wax")))
    return False


def _connects(tree: ast.Module) -> set:
    """The spellings of ``sqlite3.connect`` that the imports of ``tree`` make callable."""
    names = {"sqlite3.connect"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {f"{a.asname or a.name}.connect" for a in node.names if a.name == "sqlite3"}
        elif isinstance(node, ast.ImportFrom) and node.module == "sqlite3":
            names |= {a.asname or a.name for a in node.names if a.name == "connect"}
    return names


def writes(source: str) -> list:
    """Line and text of each call in ``source`` that writes or renames a file or opens a database."""
    tree = ast.parse(source)
    connects = _connects(tree)
    return [
        (node.lineno, ast.unparse(node))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and (_writes(node) or ast.unparse(node.func) in connects)
    ]


@pytest.mark.parametrize(
    "source",
    [
        "Path(p).write_text('x')",
        "p.write_bytes(b'')",
        "open(p, 'w')",
        "open(p, mode='ab')",
        "p.open('x')",
        "p.open(mode=m)",
        "os.replace(a, b)",
        "os.rename(a, b)",
        "sqlite3.connect(p)",
        "import sqlite3 as db\ndb.connect(p)",
        "from sqlite3 import connect\nconnect(p)",
        "from sqlite3 import connect as c\nc(p, timeout=1)",
    ],
)
def test_guard_sees_each_kind_of_write(source):
    assert len(writes(source)) == 1


def test_guard_lets_reads_through():
    source = (
        "open(p)\nopen(p, 'rb')\np.open(newline='')\np.read_text()\ns.replace('a', 'b')\n"
        "s.connect(a)\nconnect(a)"
    )
    assert writes(source) == []


def test_only_artifacts_module_writes_files():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "artifacts.py" in modules
    offenders = {
        path.name: found
        for path in modules
        if path.name != "artifacts.py" and (found := writes(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}
