"""The package's import rules.

No module imports a private name of another one: a name with a leading
underscore belongs to the module that defines it.

The package has two layers.  ``constructions`` is the specification; every
other module is the engine.  The specification may import the engine, and
no engine module imports the specification, so the tests can hold the
engine's results against the specification as an oracle the engine cannot
touch.  ``__init__`` re-exports both layers.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "weakspan"
MODULES = sorted(PACKAGE.glob("*.py"))


def private_imports(path):
    """``file:line name`` for each underscore name ``path`` imports from the package."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "weakspan"):
            yield from (f"{path.name}:{node.lineno} {alias.name}"
                        for alias in node.names if alias.name.startswith("_"))


def package_imports(source):
    """The names of the package modules that ``source`` imports, by a
    relative or an absolute ``from`` or ``import``, anywhere in the file.
    ``from . import x`` and ``from weakspan import x`` give ``x`` whether or
    not it is a module."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if not node.level:
                if parts[0] != "weakspan":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                names.add(parts[0])
            else:
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "weakspan" and len(parts) > 1:
                    names.add(parts[1])
    return names


def test_no_module_imports_a_private_name_of_another():
    assert len(MODULES) > 10
    assert [hit for path in MODULES for hit in private_imports(path)] == []


@pytest.mark.parametrize("source", [
    "from .constructions import pushout_complement",
    "from . import constructions",
    "from weakspan.constructions import WitnessMatrix",
    "from weakspan import constructions",
    "import weakspan.constructions",
    "import weakspan.constructions as spec",
    "def late():\n    from .constructions import pushout_complement\n",
])
def test_every_way_of_importing_a_module_is_seen(source):
    assert package_imports(source) == {"constructions"}


def test_the_engine_never_imports_the_specification():
    stems = {path.stem for path in MODULES}
    imports = {path.stem: package_imports(path.read_text(encoding="utf-8")) & stems
               for path in MODULES}
    assert [name for name, imported in imports.items()
            if name != "__init__" and "constructions" in imported] == []
    # the specification: every module that no module but __init__ imports,
    # apart from the entry point __main__
    imported_below = set().union(*(imported for name, imported in imports.items()
                                   if name != "__init__"))
    assert stems - {"__init__", "__main__"} - imported_below == {"constructions"}
