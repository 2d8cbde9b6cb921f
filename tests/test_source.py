"""Checks on the package source itself."""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import pdfam
from pdfam.groups import (CyclicGroup, FiniteGroup, ProductGroup,
                          Semidirect32, TableGroup)

PACKAGE = Path(pdfam.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
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


def _counter_imports(source: str) -> list[int]:
    """The lines where a source imports collections.Counter, or reads it
    off the collections module."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and node.module == "collections"
            and any(a.name == "Counter" for a in node.names)
            or isinstance(node, ast.Attribute) and node.attr == "Counter"
            and isinstance(node.value, ast.Name)
            and node.value.id == "collections"]


def test_counter_import_check_flags_both_spellings():
    assert _counter_imports(
        "from collections import Counter as C, deque\n"
        "import collections\n"
        "tally = collections.Counter()\n"
        "from typing import Counter\n"
        "counts = deque()\n") == [1, 3]


def test_library_imports_no_counter():
    """Difference counts, covers and multiplicities are int64 arrays
    indexed by element, not Counters keyed by element."""
    assert {p.name: _counter_imports(p.read_text())
            for p in PACKAGE.glob("*.py")
            if _counter_imports(p.read_text())} == {}


def _indented_json_writes(source: str) -> list[int]:
    """The lines where a source calls json.dump or json.dumps, or a dump or
    dumps imported from json, with an indent keyword."""
    tree = ast.parse(source)
    from_json = {a.asname or a.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module == "json"
                 for a in node.names if a.name in ("dump", "dumps")}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and any(k.arg == "indent" for k in node.keywords)
            and (isinstance(node.func, ast.Attribute)
                 and node.func.attr in ("dump", "dumps")
                 and isinstance(node.func.value, ast.Name)
                 and node.func.value.id == "json"
                 or isinstance(node.func, ast.Name)
                 and node.func.id in from_json)]


def test_indented_json_check_flags_both_spellings():
    assert _indented_json_writes(
        "import json\n"
        "from json import dumps as d\n"
        "a = json.dumps(x, indent=2)\n"
        "b = json.dumps(x, sort_keys=True)\n"
        "json.dump(x, f,\n          indent=None)\n"
        "c = d(x, indent=4)\n"
        "e = text.dumps(x, indent=2)\n") == [3, 5, 7]


def test_only_serialize_writes_indented_json():
    """Every file the library writes goes through canonical_dumps, so its
    comparison with the stdlib covers all of pdfam's output."""
    assert {p.name: _indented_json_writes(p.read_text())
            for p in PACKAGE.glob("*.py") if p.name != "serialize.py"
            and _indented_json_writes(p.read_text())} == {}


def _per_block_reads(source: str) -> list[int]:
    """The lines where a source reads a .blocks attribute."""
    return sorted({n.lineno for n in ast.walk(ast.parse(source))
                   if isinstance(n, ast.Attribute) and n.attr == "blocks"
                   and isinstance(n.ctx, ast.Load)})


def test_per_block_check_flags_block_reads():
    assert _per_block_reads(
        "for b in fam.blocks:\n"
        "    pass\n"
        "sizes = fam.block_sizes\n"
        "text = data['blocks']\n"
        "first = pdfam.catalog_family('hds16').blocks[0]\n"
        "fam.blocks = ()\n") == [1, 5]


def test_only_multisets_reads_blocks():
    """Every other module reads a family's flat positions and offsets, so
    no block view is built on a library path."""
    assert {p.name: _per_block_reads(p.read_text())
            for p in PACKAGE.glob("*.py") if p.name != "multisets.py"
            and _per_block_reads(p.read_text())} == {}


def _third_party_imports(source: str, local: set[str]) -> set[str]:
    """Top-level names of the modules a source imports or importorskips
    that are neither in the standard library nor local."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "importorskip" and node.args
              and isinstance(node.args[0], ast.Constant)):
            names.add(node.args[0].value.split(".")[0])
    return names - set(sys.stdlib_module_names) - local


def test_third_party_import_check_flags_an_importorskip():
    assert _third_party_imports(
        "import os, numpy.linalg\n"
        "from pdfam import groups\n"
        "from . import helpers\n"
        "def f():\n    return pytest.importorskip('scipy.stats')\n",
        {"pdfam"}) == {"numpy", "scipy"}


def test_tests_import_only_declared_dependencies():
    """Every third-party module the tests import is a runtime dependency
    or in the test extra, so installing .[test] runs every test."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads(
        (TESTS.parent / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", req).group().lower().replace("-", "_")
                for req in (project["dependencies"]
                            + project["optional-dependencies"]["test"])}
    local = {"pdfam"} | {p.stem for p in TESTS.glob("*.py")}
    used = set().union(*(_third_party_imports(p.read_text(), local)
                         for p in TESTS.glob("*.py")))
    assert used - declared == set()


def _subclasses(cls: type) -> set[type]:
    """Every subclass of cls, at any depth."""
    direct = set(cls.__subclasses__())
    return direct.union(*map(_subclasses, direct))


def test_non_abelian_arithmetic_is_a_table():
    """One arithmetic path for non-cyclic leaves: every group class of the
    library is cyclic, a product or a Cayley table, and a named table such
    as Semidirect32 defines its naming (descriptor, repr, coordinates) but
    no op or neg of its own."""
    library = {c for c in _subclasses(FiniteGroup)
               if c.__module__.startswith("pdfam")}
    assert Semidirect32 in library
    assert {c for c in library if c not in (CyclicGroup, ProductGroup)
            and not issubclass(c, TableGroup)} == set()
    assert {(c.__name__, m) for c in library
            if issubclass(c, TableGroup) and c is not TableGroup
            for m in ("op", "neg") if m in vars(c)} == set()


KEPT_TALLY = {"_keep", "_kept_tally", "_row_tallies", "CHUNK_CELLS"}


def _kept_tally_names(source: str) -> list[str]:
    """The kept-tally names a source imports, reads or writes, as a name,
    an attribute or an imported alias, in order of appearance."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.append((node.lineno, node.col_offset, node.id))
        elif isinstance(node, ast.Attribute):
            found.append((node.lineno, node.col_offset, node.attr))
        elif isinstance(node, ast.alias):
            found.append((node.lineno, node.col_offset, node.name))
    return [name for *_, name in sorted(found) if name in KEPT_TALLY]


def test_kept_tally_check_flags_every_spelling():
    assert _kept_tally_names(
        "from .multisets import _keep, verify\n"
        "from . import multisets as m\n"
        "cells = m.CHUNK_CELLS\n"
        "_row_tallies = None\n"
        "kept = '_kept_tally'\n") == ["_keep", "CHUNK_CELLS",
                                        "_row_tallies"]


def test_only_multisets_knows_the_kept_tally_protocol():
    """A family's kept tally is made, stacked and chunked in multisets
    alone; the search reaches it through multisets._row_reports."""
    assert {p.name: _kept_tally_names(p.read_text())
            for p in PACKAGE.glob("*.py") if p.name != "multisets.py"
            and _kept_tally_names(p.read_text())} == {}
