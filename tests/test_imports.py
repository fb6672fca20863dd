"""No module of the package imports a private name of another one: a name
with a leading underscore belongs to the module that defines it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "weakspan"


def private_imports(path):
    """``file:line name`` for each underscore name ``path`` imports from the package."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "weakspan"):
            yield from (f"{path.name}:{node.lineno} {alias.name}"
                        for alias in node.names if alias.name.startswith("_"))


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    assert [hit for path in modules for hit in private_imports(path)] == []
