"""Every name a package module imports is used there or exported."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import adescope

MODULES = sorted(Path(adescope.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by import but neither reads nor lists in
    ``__all__``, in import order; ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    imported: list[str] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_uses_or_exports_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Iterable, Union as U\n"
        "from .text import tokenize, Span\n"
        "__all__ = ['Span']\n"
        "def f(items: Iterable) -> None:\n"
        "    os.getcwd()\n"
    )
    assert unused_imports(source) == ["U", "tokenize"]
