"""Checks on the package source itself."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import pdfam

PACKAGE = Path(pdfam.__file__).resolve().parent
# __init__ imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_import_check_flags_a_dead_name():
    assert _unused_imports(
        "from .catalog import catalog_family, catalog_names\n"
        "import json\n"
        "catalog_family(json)\n") == ["catalog_names"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == []


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    """module:name for each module-level private def, class or constant
    that no code of the given modules reads outside its own definition."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads = Counter()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                reads[n.id] += 1
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                reads[n.attr] += 1
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                # reads inside its own body, as a recursive call, do not count
                own, names = Counter(
                    n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)), [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                own, names = Counter(), [t.id for t in targets
                                         if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{module}:{name}" for name in names
                     if name.startswith("_") and not name.startswith("__")
                     and reads[name] == own[name]]
    return dead


def test_dead_private_name_check_flags_a_dead_name():
    assert _dead_private_names({
        "a.py": "_LIMIT = 3\n"
                "def _used(x):\n    return x\n"
                "def _recursive(n):\n    return _recursive(n - 1)\n"
                "class _Unused:\n    pass\n",
        "b.py": "from .a import _used\n_used(_LIMIT)\n",
    }) == ["a.py:_recursive", "a.py:_Unused"]


def test_every_private_name_is_read():
    assert _dead_private_names(
        {p.name: p.read_text() for p in PACKAGE.glob("*.py")}) == []
