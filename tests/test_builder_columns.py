"""Builders pass columns: no ``insert_many`` of single-key rows under ``src``.

A builder that holds a table's one column hands it to
``Table.insert_arrays({attribute: values})``.  Wrapping each value in a
one-key dict for ``insert_many`` to take apart again costs a dict per value
and buys nothing: both land in the same storage with the same single
``version`` bump (DESIGN.md 4h, "Builders pass columns").  This check (``ast``
only, well under a second) fails on any call under ``src/repro`` that passes
``insert_many`` a generator or comprehension whose element is a dict literal
with one key, e.g. ``table.insert_many({attribute: v} for v in values)``.
Rows with several columns, and rows already held in a list, are not its
business.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

_COMPREHENSIONS = (ast.GeneratorExp, ast.ListComp)


def _single_key_rows(node: ast.expr) -> bool:
    """A generator or comprehension of one-key dict literals."""
    return (
        isinstance(node, _COMPREHENSIONS)
        and isinstance(node.elt, ast.Dict)
        and len(node.elt.keys) == 1
        and node.elt.keys[0] is not None  # ``{**row}`` is a copy, not a key
    )


def row_wise_inserts(source: str, filename: str = "<source>") -> list[int]:
    """Lines of ``source`` where ``insert_many`` is handed single-key rows."""
    lines = []
    for node in ast.walk(ast.parse(source, filename)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "insert_many"
            and any(
                _single_key_rows(arg)
                for arg in [*node.args, *(k.value for k in node.keywords)]
            )
        ):
            lines.append(node.lineno)
    return lines


def test_builders_under_src_pass_columns():
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in row_wise_inserts(path.read_text(), str(path))
    ]
    assert not found, (
        "insert_many of single-key rows; pass the column to "
        "insert_arrays({attribute: values}) instead:\n" + "\n".join(found)
    )


@pytest.mark.parametrize(
    "source",
    [
        "table.insert_many({attribute: int(v)} for v in values)",
        "db.table('t').insert_many([{'value': v} for v in held])",
        "t.insert_many({ATTRIBUTE: v} for v in held if v)",
        "t.insert_many(rows=({'x': v} for v in xs))",
        "def build(t, xs):\n    return t.insert_many({'x': v} for v in xs)\n",
    ],
)
def test_a_row_wise_builder_is_found(source):
    assert row_wise_inserts(source) == [source.count("\n", 0, source.index("insert_many")) + 1]


@pytest.mark.parametrize(
    "source",
    [
        "table.insert_many(rows)",
        "table.insert_many({'a': v, 'b': w} for v, w in pairs)",
        "table.insert_many({**row} for row in rows)",
        "table.insert_many([{'a': 1}])",
        "table.insert_arrays({attribute: values})",
    ],
)
def test_rows_and_columns_pass(source):
    assert row_wise_inserts(source) == []
