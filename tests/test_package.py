"""Tests for the package's public surface, ``swarmkit.__all__``."""

import ast
from pathlib import Path

import swarmkit


def imported_public_names():
    """The public names that ``swarmkit/__init__.py`` imports from its modules."""
    tree = ast.parse(Path(swarmkit.__file__).read_text(encoding="utf-8"))
    names = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    return [name for name in names if not name.startswith("_")]


class TestAll:
    def test_every_name_resolves(self):
        missing = [name for name in swarmkit.__all__ if not hasattr(swarmkit, name)]
        assert missing == []

    def test_has_no_duplicates(self):
        assert len(set(swarmkit.__all__)) == len(swarmkit.__all__)

    def test_equals_the_imported_public_names(self):
        imported = imported_public_names()
        assert len(set(imported)) == len(imported)
        assert set(swarmkit.__all__) == set(imported)
