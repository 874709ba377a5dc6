"""``artifacts.py`` is the only module of the package that opens, reads, writes or
renames a file, makes a directory, or opens a SQLite database."""

import ast
import re
from pathlib import Path

import pytest

from pheno_mine.artifacts import PROVENANCE_PREFIX, parse_json, read_csv
from pheno_mine.errors import MatrixError

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
        if func.attr in ("write_text", "write_bytes", "mkdir"):
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
    """Line and text of each call in ``source`` that writes or renames a file, makes a
    directory or opens a database."""
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
        "Path(p).mkdir(parents=True, exist_ok=True)",
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


def _reads(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr in ("open", "read_text", "read_bytes")
    return isinstance(func, ast.Name) and func.id == "open"


def reads(source: str) -> list:
    """Line and text of each call in ``source`` that opens a file in any mode or reads one whole."""
    return [
        (node.lineno, ast.unparse(node))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and _reads(node)
    ]


@pytest.mark.parametrize(
    "source",
    [
        "open(p)",
        "open(p, 'rb')",
        "open(p, mode='w', encoding='utf-8')",
        "io.open(p)",
        "p.open()",
        "Path(p).open(newline='')",
        "p.read_text(encoding='utf-8')",
        "p.read_bytes()",
        "resources.files(m).joinpath(n).read_text()",
    ],
)
def test_guard_sees_each_kind_of_read(source):
    assert len(reads(source)) == 1


def test_reader_guard_lets_other_calls_through():
    source = "json.loads(s)\nfh.read()\nurlopen(u)\nread_text(p, E)\nreopen(p)\np.opened()"
    assert reads(source) == []


def test_only_artifacts_module_reads_files():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "artifacts.py" in modules
    offenders = {
        path.name: found
        for path in modules
        if path.name != "artifacts.py" and (found := reads(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_csv_records_carry_the_line_they_start_on(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text(
        f'{PROVENANCE_PREFIX}{{}}\na,b\n1,"two\nlines"\n\n3,4\n5,"{"x" * 200_000}"\n',
        encoding="utf-8",
    )
    records = read_csv(path, MatrixError, "table", ("b",))
    assert next(records) == (2, ["a", "b"])
    assert next(records) == (3, ["1", "two\nlines"])
    assert next(records) == (6, ["3", "4"])
    with pytest.raises(MatrixError, match=re.escape(f"{path}:7: field larger than field limit")):
        next(records)
    path.write_text("", encoding="utf-8")
    with pytest.raises(MatrixError, match="table must have columns b"):
        next(read_csv(path, MatrixError, "table", ("b",)))


@pytest.mark.parametrize(
    "text, value",
    [
        (r'"\ud83d\ude00"', "\U0001f600"),  # a surrogate pair is one code point
        (r'"\\ud800"', "\\ud800"),  # an escaped backslash, then text
        (r'"\u00e9\n"', "\u00e9\n"),
    ],
)
def test_json_escapes_that_decode_to_encodable_text_pass(text, value):
    assert parse_json(text) == value


@pytest.mark.parametrize("text", [r'"\ud800"', r'"\uDBFF x"', r'{"k": ["\udc00"]}', r'{"\ud800": 1}'])
def test_json_lone_surrogate_escape_is_a_value_error(text):
    with pytest.raises(ValueError, match="lone surrogate"):
        parse_json(text)
