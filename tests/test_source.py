"""Source hygiene of the package, checked with the standard library's ``ast``:
no module of ``src/charprod`` keeps a module-level import it does not use,
and no module-level private function or class goes unread in the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "charprod"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
PRIVATE_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


def unread_private_definitions(sources):
    """(module, line, name) of each module-level function or class with a
    private name (one leading underscore, not a dunder) in ``sources``, a
    {module: source} dict, that no other top-level statement of any module
    reads, as a name or as an attribute: a helper that only calls itself is
    unread."""
    statements = [(module, node) for module, source in sources.items() for node in ast.parse(source).body]
    reads = [
        {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
        for _, node in statements
    ]
    return sorted(
        (module, node.lineno, node.name)
        for k, (module, node) in enumerate(statements)
        if isinstance(node, PRIVATE_DEFINITIONS) and node.name.startswith("_") and not node.name.startswith("__")
        and not any(node.name in names for other, names in enumerate(reads) if other != k)
    )


def test_the_check_finds_an_unread_private_definition_and_keeps_read_ones():
    sources = {
        "a": (
            "def _called():\n    pass\n"
            "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
            "class _Imported:\n    pass\n"
            "def _by_attribute():\n    pass\n"
            "_stored = None\n"
            "def __getattr__(name):\n    return None\n"
            "def public():\n    return _called()\n"
        ),
        "b": (
            "import a\n"
            "from a import _Imported\n"
            "def make():\n    return _Imported(), a._by_attribute\n"
        ),
    }
    assert unread_private_definitions(sources) == [("a", 3, "_recursive")]


def test_every_private_definition_is_read_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_definitions(sources) == []
