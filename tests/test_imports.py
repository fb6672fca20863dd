"""The package's import rules.

No module imports a private name of another one: a name with a leading
underscore belongs to the module that defines it.  No module but
``__init__`` imports a name it does not use: listing a name in ``__all__``
is not a use, so a module re-exports only what it owns.

The package has two layers.  ``constructions`` is the specification; every
other module is the engine.  The specification may import the engine, and
no engine module imports the specification, so the tests can hold the
engine's results against the specification as an oracle the engine cannot
touch.  ``__init__`` exports the engine alone and does not import the
specification either, so a process that runs a command never loads it; the
tests import it as ``weakspan.constructions``.
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weakspan
from weakspan import constructions

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "weakspan"
MODULES = sorted(PACKAGE.glob("*.py"))


def nodes(path):
    """Every syntax node of the file at ``path``."""
    return ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))


def private_imports(path):
    """``file:line name`` for each underscore name ``path`` imports from the package."""
    for node in nodes(path):
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


def unused_imports(path):
    """``file:line name`` for each name ``path`` binds by an import and never
    reads; a string in ``__all__`` does not read it."""
    bound, read = {}, set()
    for node in nodes(path):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                node, "module", None) != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]


def test_no_module_imports_a_private_name_of_another():
    assert len(MODULES) > 10
    assert [hit for path in MODULES for hit in private_imports(path)] == []


def test_no_module_imports_a_name_it_does_not_use():
    assert [hit for path in MODULES if path.stem != "__init__"
            for hit in unused_imports(path)] == []


@pytest.mark.parametrize("source, unused", [
    ("from .cli import main\n__all__ = ['main']\n", ["m.py:1 main"]),
    ("import os.path\nfrom . import graphs as g\n", ["m.py:1 os", "m.py:2 g"]),
    ("import os.path\nfrom . import graphs as g\nos.path.join(g.x)\n", []),
    ("from __future__ import annotations\nfrom .graphs import Graph\n"
     "def f(x: Graph) -> None:\n    pass\n", []),
])
def test_an_import_is_used_only_where_it_is_read(source, unused, tmp_path):
    path = tmp_path / "m.py"
    path.write_text(source, encoding="utf-8")
    assert unused_imports(path) == unused


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
    assert [name for name, imported in imports.items() if "constructions" in imported] == []
    # the specification: the one module that no module imports, apart from
    # the entry point __main__
    assert stems - {"__init__", "__main__"} - set().union(*imports.values()) == {"constructions"}


def test_a_process_that_imports_the_command_line_loads_the_engine_alone():
    # a module imported by a name built at run time escapes the walk above
    src = str(PACKAGE.parent)
    done = subprocess.run(
        [sys.executable, "-c", "import weakspan, weakspan.cli, sys; "
         "print(sorted(name for name in sys.modules if name.split('.')[0] == 'weakspan'))"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
            src, os.environ.get("PYTHONPATH")]))},
        capture_output=True, text=True, check=True)
    engine = {path.stem for path in MODULES} - {"__init__", "__main__", "constructions"}
    assert set(ast.literal_eval(done.stdout)) == {"weakspan", *(f"weakspan.{stem}"
                                                               for stem in engine)}


def calls(source):
    """(function, call) for each call in ``source``.  The function is the
    top-level function or ``Class.method`` the call sits in, nested
    functions included, or ``<module>``."""
    found = []

    def visit(node, where, in_class=False):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and (
                    where == "<module>" or in_class):
                name = child.name if where == "<module>" else f"{where}.{child.name}"
                visit(child, name, isinstance(child, ast.ClassDef))
                continue
            if isinstance(child, ast.Call):
                found.append((where, child))
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def unchecked_builds(source, module):
    """(module, function, class) for each ``object.__new__(X)`` call in
    ``source``: an object made without its constructor's checks."""
    return {(module, where, ast.unparse(call.args[0])) for where, call in calls(source)
            if isinstance(call.func, ast.Attribute) and call.func.attr == "__new__"
            and isinstance(call.func.value, ast.Name) and call.func.value.id == "object"}


def callers(source, module, name):
    """(module, function) for each call in ``source`` of ``name``, by its
    bare name or as an attribute."""
    return {(module, where) for where, call in calls(source)
            if name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))}


@pytest.mark.parametrize("source, found", [
    ("def f():\n    def g():\n        return object.__new__(A)\n    return g\n",
     {("m", "f", "A")}),
    ("class C:\n    def make(self):\n        return object.__new__(C)\n",
     {("m", "C.make", "C")}),
    ("x = object.__new__(A)\n", {("m", "<module>", "A")}),
    ("def f():\n    return A.__new__(A), object.__init__(A)\n", set()),
])
def test_every_unchecked_build_is_seen(source, found):
    assert unchecked_builds(source, "m") == found


def test_only_the_search_and_derive_graph_build_unchecked():
    # each of these is held against its public constructor by the tests;
    # every other object goes through a constructor that checks it
    found = set().union(*(unchecked_builds(path.read_text(encoding="utf-8"), path.stem)
                          for path in MODULES))
    assert found == {("graphs", "enumerate_morphisms", "GraphMorphism"),
                     ("attrgraphs", "derive_graph", "AttributedGraph"),
                     ("rewriting", "find_matches", "AttrMorphism"),
                     ("rewriting", "find_matches", "Match")}


@pytest.mark.parametrize("source, found", [
    ("def f():\n    def g():\n        return pct(x)\n    return g\n", {("m", "f")}),
    ("class C:\n    def step(self):\n        return rewriting.pct(x)\n", {("m", "C.step")}),
    ("apply = pct\nx = pct.__name__\n", set()),
])
def test_every_call_of_a_name_is_seen(source, found):
    assert callers(source, "m", "pct") == found


def test_every_application_goes_through_the_joint_step():
    # a single application (`weakspan apply`, each one of a sequential
    # step) is the one-element joint step, named and recorded the same way
    found = set().union(*(callers(path.read_text(encoding="utf-8"), path.stem, "pct")
                          for path in MODULES if path.stem != "constructions"))
    assert found == {("runner", "joint_step")}


def test_only_the_command_line_reads_the_file_format():
    assert [path.stem for path in MODULES if path.stem not in ("cli", "__init__")
            and "fileio" in package_imports(path.read_text(encoding="utf-8"))] == []


# every public name of ``weakspan`` but its submodules: a change that moves
# a function between modules keeps each of them
EXPORTS = (
    "AlgebraMorphism", "AttrMorphism", "AttributedGraph", "ChangeSet", "DirectTransformation",
    "EvaluationError", "FiniteEnum", "GluingError", "Graph", "GraphMorphism", "HexGridSpec",
    "HexcaResult", "IncoherentSetError", "LabelSet", "Lit", "Match", "NatPlus", "OpApp",
    "ParseError", "RulePlan", "RunResult", "SortSignature", "StepReport", "SystemSpec",
    "TermAlg", "TermSyntaxError", "ValidationError", "Var", "WeakSpan", "apply_direct",
    "apply_parallel_step", "apply_sequential_step", "apply_to_labelset", "ca_oracle",
    "cmd_hexca", "cmd_run", "coherent_set_check", "derive_graph", "encode_grid",
    "enumerate_morphisms", "evaluate_term", "export_dot", "fibonacci_system", "find_matches",
    "hex_system", "huw_rules", "inclusion", "is_mono", "live_cells", "load_system",
    "loads_system", "parse_term", "pct", "render_term", "render_value", "rule_matches",
    "save_graph", "save_system", "transport_match",
)

# public names of the specification that the root does not export: a run
# imports the root and never ``weakspan.constructions``
SPECIFICATION = (
    "ComplementResult", "PullbackResult", "PushoutResult", "apply_span_dpo", "associated_span",
    "check_parallel_coherent", "check_parallel_independent", "check_universal_property",
    "colimit_of_neutrals", "compose", "compose_attr", "coproduct_rule", "derive_span_from_pct",
    "disjoint_union", "identity_attr", "is_attr_isomorphic", "is_isomorphic",
    "limit_of_neutrals", "pullback_of_neutrals", "pushout_along_neutral", "pushout_complement",
    "rename_attributed",
)


def test_the_package_keeps_every_public_name():
    public = sorted(name for name, value in vars(weakspan).items()
                    if not name.startswith("_") and not inspect.ismodule(value))
    assert public == sorted(EXPORTS)
    namespace = {}
    exec(f"from weakspan import {', '.join(EXPORTS)}", namespace)
    assert all(namespace[name] is getattr(weakspan, name) for name in EXPORTS)


def test_the_specification_keeps_every_name_the_root_does_not_export():
    assert [name for name in SPECIFICATION if not hasattr(constructions, name)] == []
    assert [name for name in SPECIFICATION if hasattr(weakspan, name)] == []
