"""Every module of the package and of the suite uses each name it imports, and
every function and class the package defines is named by the package or the
benchmark, not only by the tests."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# ``__init__.py`` imports names to re-export them, so it is left out
MODULES = sorted(p for p in [*(ROOT / "src" / "srrnet").glob("*.py"), *(ROOT / "tests").glob("*.py")]
                 if p.name != "__init__.py")
PACKAGE = sorted((ROOT / "src" / "srrnet").glob("*.py"))
BENCHMARK = sorted((ROOT / "bench").glob("*.py"))  # its own tests under bench/tests aside


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, ``from __future__`` aside."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_unused_imports_finds_a_name_read_nowhere():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from a.b import c, d\nnp.zeros(d)\n")
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def _mentions(tree: ast.AST) -> Counter:
    """How often each name, attribute, import alias or string constant appears in ``tree``."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names.update({node.asname or node.name, *node.name.split(".")})
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1  # the benchmark's tracer binds functions by their names
    return names


def definitions_named_nowhere(sources: list[str], others: list[str] = ()) -> list[str]:
    """The functions and classes ``sources`` define, dunders aside, that nothing in
    ``sources`` or ``others`` names outside the definition itself.

    Names are matched as text, not by binding: two definitions of one name
    count as named if either is.
    """
    trees = [ast.parse(source) for source in sources]
    everywhere = Counter()
    for tree in trees + [ast.parse(source) for source in others]:
        everywhere.update(_mentions(tree))
    return sorted(node.name for tree in trees for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not (node.name.startswith("__") and node.name.endswith("__"))
                  and everywhere[node.name] == _mentions(node)[node.name])


def test_definitions_named_nowhere_finds_a_helper_only_its_own_body_names():
    source = ("import os as alias\n"
              "def helper():\n    return helper()\n"
              "def by_name():\n    pass\n"
              "def by_attribute():\n    pass\n"
              "def by_import():\n    pass\n"
              "class ByString:\n    def method(self):\n        pass\n"
              "def __dunder__():\n    pass\n"
              "by_name()\nalias.by_attribute\ngetattr(alias, 'ByString')\n")
    other = "from a import by_import\n"
    assert definitions_named_nowhere([source], [other]) == ["helper", "method"]
    assert definitions_named_nowhere([source], [other, "x.method()\n"]) == ["helper"]
    assert definitions_named_nowhere([source]) == ["by_import", "helper", "method"]


def test_every_package_definition_is_named_by_the_package_or_the_benchmark():
    assert definitions_named_nowhere([p.read_text() for p in PACKAGE],
                                     [p.read_text() for p in BENCHMARK]) == []
