"""Engine modules hold only what a run reaches.

A fixed command-line corpus runs in a fresh process under ``sys.setprofile``:
every subcommand with ``--out`` and ``--report``, both run modes, on the
Fibonacci preset, a term-algebra copy of it, the hex preset at radius 4 and
a few `randgen` systems.  Every top-level function and method of every
engine module (every module but ``constructions``, ``__init__`` and
``__main__``) must run, apart from the named exemptions below.  A function
that only the specification or the tests call belongs in ``constructions``;
one added to an engine module must be reached by a run, or be named here
with its reason.  The process is fresh, so what an earlier test left in a
module (the last rules text loaded, the last hex disk, the cached builders)
cannot change the result.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from weakspan import fibonacci_system, save_system

from randgen import random_system

SRC = Path(__file__).resolve().parent.parent / "src"
ENGINE = sorted(path.stem for path in (SRC / "weakspan").glob("*.py")
                if path.stem not in ("constructions", "__init__", "__main__"))

# random systems that between them reach a gluing failure, an incoherent
# set and a sum over bound variables in the label solver
SEEDS = (1, 2, 20)

EXEMPT = {
    "algebras.Algebra.contains": "abstract: every algebra a file declares overrides it",
    "cli.entry": "the installed script's entry point; the corpus calls main",
    "cli._Parser.error": "a usage error, which the corpus does not make",
    "attrgraphs.AttributedGraph.with_labels": "perfbench builds its Fibonacci hosts with it",
    "hexgrid.ca_oracle": "the hex preset's independent oracle, which no run consults",
}
# a value's printed form and its equality are for callers and tests
EXEMPT_METHODS = ("__repr__", "__eq__")

PROFILED_RUN = r"""
import contextlib, inspect, io, json, sys

reached = set()


def profile(frame, event, arg):
    if event == "call":
        reached.add(frame.f_code)


sys.setprofile(profile)
from weakspan import cli

exits = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        exits.append(cli.main(argv))
sys.setprofile(None)

names = {}
for stem in json.loads(sys.argv[2]):
    module = sys.modules[f"weakspan.{stem}"]

    def add(name, obj):
        for candidate in (getattr(obj, "fget", None), getattr(obj, "func", None),
                          getattr(obj, "__func__", None), obj):
            code = getattr(inspect.unwrap(candidate) if callable(candidate) else candidate,
                           "__code__", None)
            if code is not None and code.co_filename == module.__file__:
                names[code] = f"{stem}.{name}"
                return

    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                add(f"{name}.{attr}", member)
        else:
            add(name, obj)
print(json.dumps({"exits": exits, "defined": sorted(names.values()),
                  "unreached": sorted(name for code, name in names.items()
                                      if code not in reached)}))
"""


def corpus(tmp_path):
    """The command lines, after writing the input files they read."""
    fib, hexa, terms = (str(tmp_path / name) for name in ("fib.json", "hex.json", "terms.json"))
    save_system(fibonacci_system(), fib)
    text = json.loads(Path(fib).read_text(encoding="utf-8"))
    text["algebra"] = {"terms": ["a", "b"]}
    for node, label in zip(text["host"]["nodes"], "ab"):
        node["label"] = [label]
    Path(terms).write_text(json.dumps(text), encoding="utf-8")
    inputs = [(fib, "sum"), (terms, "sum"), (hexa, "birth0")]
    for seed in SEEDS:
        path = str(tmp_path / f"random{seed}.json")
        save_system(random_system(seed), path)
        inputs.append((path, "r0"))

    def common(name):
        return ["--out", str(tmp_path / f"{name}.out.json"),
                "--report", str(tmp_path / f"{name}.report.txt")]

    runs = [["preset", "hex", "--radius", "4", "--out", hexa,
             "--report", str(tmp_path / "preset.report.txt")],
            ["preset", "fib", *common("preset")],
            ["hexca", "--radius", "4", "--generations", "3", *common("hexca")]]
    for path, rule in inputs:
        given = ["--rules", path, "--host", path]
        runs += [["match", *given, *common("match")],
                 ["apply", *given, "--rule", rule, "--match", "0", *common("apply")],
                 ["pct", *given, *common("pct")],
                 ["pct", *given, "--matches", "0", *common("pct")],
                 ["run", *given, "--steps", "3", "--mode", "pct", *common("run")],
                 ["run", *given, "--steps", "3", "--mode", "seq", *common("run")],
                 ["export", "--host", path, "--dot", str(tmp_path / "graph.dot"),
                  *common("export")]]
    return runs


def test_every_engine_function_is_reached_by_a_run(tmp_path):
    runs = corpus(tmp_path)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", PROFILED_RUN, json.dumps(runs), json.dumps(ENGINE)],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    found = json.loads(done.stdout)
    # each run ends in a result, a gluing failure (3) or an incoherent set (4)
    assert set(found["exits"]) == {0, 3, 4}
    assert set(EXEMPT) <= set(found["defined"])
    assert [name for name in found["unreached"] if name not in EXEMPT
            and name.rpartition(".")[2] not in EXEMPT_METHODS] == []
