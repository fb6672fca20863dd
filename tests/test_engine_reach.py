"""Engine modules hold only what a run reaches, and the command line's
output stays as recorded.

The corpus of ``tools/cli_corpus.py`` (every subcommand with ``--out`` and
``--report``, both run modes, on the Fibonacci preset, a term-algebra copy
of it, the hex preset, a deleting and an adding rule and 40 `randgen`
systems) runs in a fresh process under ``sys.setprofile``.  Every
top-level function and method of every engine module (every module but
``constructions``, ``__init__`` and ``__main__``) must run, apart from the
named exemptions below.  A function that only the specification or the
tests call belongs in ``constructions``; one added to an engine module must
be reached by a run, or be named here with its reason.  The process is
fresh, so what an earlier test left in a module (the last rules text
loaded, the last hex disk, the cached builders) cannot change the result.

The same run's records must equal ``tests/cli_corpus.jsonl`` line for
line.  A change that means to change the output writes that file again
with ``PYTHONPATH=src python tools/cli_corpus.py tests/cli_corpus.jsonl``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RECORDED = ROOT / "tests" / "cli_corpus.jsonl"
ENGINE = sorted(path.stem for path in (SRC / "weakspan").glob("*.py")
                if path.stem not in ("constructions", "__init__", "__main__"))

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
import inspect, json, pathlib, sys

reached = set()


def profile(frame, event, arg):
    if event == "call":
        reached.add(frame.f_code)


sys.setprofile(profile)
sys.path.insert(0, sys.argv[1])
import cli_corpus

tmp = pathlib.Path(sys.argv[2])
records = [json.dumps(cli_corpus.run(argv, tmp)) for argv in cli_corpus.corpus(tmp)]
sys.setprofile(None)

names = {}
for stem in json.loads(sys.argv[3]):
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
print(json.dumps({"records": records, "defined": sorted(names.values()),
                  "unreached": sorted(name for code, name in names.items()
                                      if code not in reached)}))
"""


def test_every_engine_function_is_reached_by_a_run(tmp_path):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", PROFILED_RUN, str(ROOT / "tools"),
                           str(tmp_path), json.dumps(ENGINE)],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    found = json.loads(done.stdout)
    records = found["records"]
    # each command ends in a result, a usage error, a refused input, a
    # gluing failure or an incoherent set
    assert {json.loads(record)["exit"] for record in records} == {0, 1, 2, 3, 4}
    assert set(EXEMPT) <= set(found["defined"])
    assert [name for name in found["unreached"] if name not in EXEMPT
            and name.rpartition(".")[2] not in EXEMPT_METHODS] == []
    recorded = RECORDED.read_text(encoding="utf-8").splitlines()
    differing = [json.loads(line)["argv"] for line, record in zip(recorded, records)
                 if line != record]
    assert (differing, len(records)) == ([], len(recorded))
