"""Source hygiene of the package, checked with the standard library's ``ast``:
no module of ``src/charprod`` keeps a module-level import it does not use."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "charprod"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source):
    """Names bound by the module-level imports of ``source`` that no name in
    it reads and ``__all__`` does not list; ``__future__`` imports aside."""
    tree = ast.parse(source)
    imported, exported = {}, set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read | exported)


def test_the_check_finds_an_unused_import_and_keeps_used_and_exported_ones():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "x = np.zeros(os.path.sep.count('/'))\n"
    )
    assert unused_imports(source) == [(2, "math"), (5, "dumps")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_level_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
