"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "heisenberg_ncg").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - read) == []


def test_cli_prints_only_where_a_whole_document_is_ready():
    # `_emit` prints a document only once all of it has rendered, and
    # `cmd_report` its own table; `_split_timings` and `run` write stderr
    tree = ast.parse((SOURCES[0].parent / "cli.py").read_text())
    printers = {
        getattr(top, "name", None)  # None for a print outside any function
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
    }
    assert printers == {"_emit", "_split_timings", "cmd_report", "run"}
