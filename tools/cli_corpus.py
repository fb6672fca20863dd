"""Run a fixed command-line corpus in one process and write one JSON line
per command, so that two checkouts' outputs can be compared byte for byte.

    PYTHONPATH=src python tools/cli_corpus.py OUT

It imports whichever ``weakspan`` comes first on ``PYTHONPATH`` (this
checkout's ``src`` when none does), so one checkout's tool can run against
another checkout's package:

    PYTHONPATH=/path/to/other/src python tools/cli_corpus.py other.jsonl
    PYTHONPATH=src python tools/cli_corpus.py this.jsonl
    cmp other.jsonl this.jsonl

This checkout's output is recorded in ``tests/cli_corpus.jsonl``, and
``tests/test_engine_reach.py`` fails when a record differs from it.  A
change that means to change the output writes the file again:

    PYTHONPATH=src python tools/cli_corpus.py tests/cli_corpus.jsonl

The inputs are written to a temporary directory: the Fibonacci preset, a
copy of it over a term-algebra host, a two-seed radius-4 hex preset, a
system whose rule deletes a node and one whose rule adds one, and the
``tests/randgen.random_system`` systems of seeds 0-39.  On each it runs
``match``; ``apply`` of each rule at match indices 0-2; ``pct`` with and
without ``--matches``; ``run`` in both modes with ``--out`` and
``--report``; and ``export``.  Then ``hexca``, ``preset`` and a few refused
commands.  Each line holds the argv with the directory written ``<tmp>``,
the exit code, stdout, stderr, and the SHA-256 of each file the command
wrote.  Standard library only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "tests"))   # randgen
sys.path.append(str(ROOT / "src"))     # only when PYTHONPATH gives no weakspan

from randgen import random_system  # noqa: E402
from weakspan import HexGridSpec, fibonacci_system, hex_system, save_system  # noqa: E402
from weakspan.cli import main  # noqa: E402

SEEDS = range(40)
WRITTEN = ("--out", "--report", "--dot")

POINT = {"nodes": [{"id": "x", "sort": "p"}]}
SORTS = {"nodes": ["p"], "edges": {"a": ["p", "p"]}}
# its matches n1 and n2 leave the edge dangling; n3 is deleted
DELETE = {
    "sorts": SORTS, "algebra": "nat",
    "rules": [{"name": "delete", "L": POINT, "K": {}, "I": {}, "R": {},
               "l": {}, "i": {}, "r": {}}],
    "host": {"nodes": [{"id": f"n{k}", "sort": "p"} for k in (1, 2, 3)],
             "edges": [{"id": "e", "sort": "a", "src": "n1", "tgt": "n2"}]},
}
GROW = {
    "sorts": SORTS, "algebra": "nat",
    "rules": [{"name": "grow", "L": POINT, "K": POINT, "I": POINT,
               "R": {"nodes": [{"id": "x", "sort": "p"},
                               {"id": "n", "sort": "p", "label": [1]}]},
               "l": {"nodes": {"x": "x"}}, "i": {"nodes": {"x": "x"}},
               "r": {"nodes": {"x": "x"}}}],
    "host": {"nodes": [{"id": "a", "sort": "p"}, {"id": "b", "sort": "p"}]},
}


def write_inputs(tmp: Path) -> list[tuple[str, list[str]]]:
    """Write the input systems; return each file's path and rule names."""
    systems = {"fib": fibonacci_system(),
               "hex": hex_system(HexGridSpec(4, ((0, 0), (-2, 1)))),
               **{f"random{seed}": random_system(seed) for seed in SEEDS}}
    for name, system in systems.items():
        save_system(system, tmp / f"{name}.json")
    terms = json.loads((tmp / "fib.json").read_text(encoding="utf-8"))
    terms["algebra"] = {"terms": ["a", "b"]}
    for node, label in zip(terms["host"]["nodes"], "ab"):
        node["label"] = [label]
    texts = {"terms": terms, "delete": DELETE, "grow": GROW}
    for name, text in texts.items():
        (tmp / f"{name}.json").write_text(json.dumps(text), encoding="utf-8")
    rules = {name: [rule.name for rule in system.rules] for name, system in systems.items()}
    rules.update((name, [rule["name"] for rule in text["rules"]]) for name, text in texts.items())
    order = ["fib", "terms", "hex", "delete", "grow", *(f"random{seed}" for seed in SEEDS)]
    return [(str(tmp / f"{name}.json"), rules[name]) for name in order]


def corpus(tmp: Path) -> list[list[str]]:
    """The command lines, after writing the input files they read."""
    numbers = itertools.count()

    def out(suffix=".json"):
        return str(tmp / f"out{next(numbers)}{suffix}")

    runs = []
    for path, rules in write_inputs(tmp):
        given = ["--rules", path, "--host", path]
        runs.append(["match", *given])
        runs += [["apply", *given, "--rule", rule, "--match", str(k), "--out", out()]
                 for rule in rules for k in range(3)]
        runs += [["pct", *given, "--out", out()],
                 ["pct", *given, "--matches", "1,0", "--out", out()]]
        runs += [["run", *given, "--steps", "3", "--mode", mode,
                  "--out", out(), "--report", out(".txt")] for mode in ("pct", "seq")]
        runs.append(["export", "--host", path, "--dot", out(".dot")])
    fib = str(tmp / "fib.json")
    runs += [["hexca", "--radius", "5", "--generations", "2", "--seed", "0,0",
              "--seed", "-1,1", "--out", out(), "--report", out(".txt")],
             ["hexca", "--radius", "3", "--generations", "3"],
             ["preset", "fib", "--out", out()],
             ["preset", "hex", "--radius", "3", "--seed", "-1,1", "--out", out()],
             ["run", "--rules", fib, "--host", fib, "--steps", "-1"],
             ["match", "--rules", str(tmp / "missing.json"), "--host", fib]]
    return runs


def run(argv: list[str], tmp: Path) -> dict:
    """One command's record, the directory written ``<tmp>``."""
    def hide(text):
        return text.replace(str(tmp), "<tmp>")

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    files = {hide(value): hashlib.sha256(Path(value).read_bytes()).hexdigest()
             for option, value in zip(argv, argv[1:])
             if option in WRITTEN and Path(value).exists()}
    return {"argv": [hide(arg) for arg in argv], "exit": code,
            "stdout": hide(stdout.getvalue()), "stderr": hide(stderr.getvalue()),
            "files": files}


def write_corpus(out_path: str) -> None:
    with tempfile.TemporaryDirectory() as name, \
            open(out_path, "w", encoding="utf-8") as out:
        tmp = Path(name)
        for argv in corpus(tmp):
            out.write(json.dumps(run(argv, tmp)) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/cli_corpus.py OUT")
    write_corpus(sys.argv[1])
