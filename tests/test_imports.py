"""Every name a module of the package imports is used in it, and no
module imports a private name of ``condense``.

An ``ast`` walk over ``src/exactdet/*.py``: a name bound by an ``import`` or
``from ... import`` must be read somewhere in the module.  ``__init__.py``,
whose imports are its re-exports, and ``from __future__`` imports are
exempt.  A second walk finds names starting with ``_`` imported from
``.condense``: the kernel form's layout is read in ``ring``, not through
``condense``'s helpers.
"""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "exactdet").glob("*.py"))


def unused_imports(source: str) -> list:
    """The names ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def private_condense_imports(source: str) -> list:
    """The names starting with ``_`` that ``source`` imports from ``.condense``."""
    condense = ((1, "condense"), (0, "exactdet.condense"))
    return [
        a.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in condense
        for a in node.names
        if a.name.startswith("_")
    ]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_condense_imports(path):
    assert private_condense_imports(path.read_text()) == []


def test_the_walk_finds_an_unused_import():
    source = "from __future__ import annotations\nimport math, os.path\nfrom .ring import A, B as C\nC(math.pi)\n"
    assert unused_imports(source) == ["os", "A"]
    assert len(SOURCES) > 1


def test_the_walk_finds_a_private_condense_import():
    source = (
        "from .condense import OpCount, _decoded\n"
        "from .ring import _packed_rows\n"
        "from exactdet.condense import _charge\n"
    )
    assert private_condense_imports(source) == ["_decoded", "_charge"]
