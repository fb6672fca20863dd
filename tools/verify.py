"""Run the tier-1 suite four ways, then the benchmark's self-tests, and
print one summary line per run.

    python tools/verify.py

Tier-1 (``python -m pytest -q --continue-on-collection-errors`` with
``src`` on ``PYTHONPATH``) runs as it stands, with its test files in
reverse order, and under ``PYTHONHASHSEED`` 0 and 1: a process keeps the
last rules text it loaded and the last hex disk it built, so neither the
order of the tests nor the order of hashing may change a result.  Then
``python -m pytest perfbench`` runs; its result is printed but does not
set the exit status, since its known failures belong to the benchmark
(ROADMAP item 1).  Last, it prints the line counts of the engine modules
(every ``src/weakspan`` module but ``constructions``, ``__init__`` and
``__main__``), of ``constructions`` and of the whole package; the source
lines a process loads, summed over the ``weakspan`` modules that a fresh
``import weakspan.cli`` (with ``src`` on ``PYTHONPATH``) leaves in
``sys.modules``; and how many public names ``weakspan`` exports, read from
``src/weakspan/__init__.py`` without importing it.  Then it prints the
counted work of a warm ``cmd_hexca`` from (0, 0) at radius 5 for 3
generations and at radius 40 for 5, each run once before it is counted in
a fresh process under ``PYTHONHASHSEED=0``: the calls of the matcher's
compiled searches, the calls of their leaf (one per complete node map),
and every Python call (``sys.setprofile`` "call" events, ``cmd_hexca``'s
own included).  Counts do not drift with the machine as wall time does;
they are reported and do not gate.  Exits 1 when a tier-1 run fails,
else 0.  Standard library only.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYTEST = [sys.executable, "-m", "pytest", "-q"]
TIER1 = [*PYTEST, "--continue-on-collection-errors"]
LOADED = ("import sys, weakspan.cli; print(sorted(module.__file__ for name, module in "
          "sys.modules.items() if name.split('.')[0] == 'weakspan'))")
COUNTED = """
import sys
from weakspan import HexGridSpec, cmd_hexca, graphs
SEARCH, LEAF = ("<search plan>", "search"), (graphs.__file__, "leaf")
for radius, generations in ((5, 3), (40, 5)):
    grid = HexGridSpec(radius=radius, seeds=((0, 0),))
    cmd_hexca(grid, generations)
    counts = {SEARCH: 0, LEAF: 0, "call": 0}
    def profile(frame, event, _arg):
        if event == "call":
            counts["call"] += 1
            where = (frame.f_code.co_filename, frame.f_code.co_name)
            if where in counts:
                counts[where] += 1
    sys.setprofile(profile)
    cmd_hexca(grid, generations)
    sys.setprofile(None)
    print(radius, generations, counts[SEARCH], counts[LEAF], counts["call"])
"""


def environment(**env: str) -> dict[str, str]:
    """This process's environment with ``env`` added and ``src`` first on
    ``PYTHONPATH``."""
    merged = {**os.environ, **env}
    merged["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    return merged


def run(name: str, args: list[str], **env: str) -> bool:
    """Run ``args`` in the repository root with ``env`` added; print its
    last output line, and each FAILED or ERROR line when it fails."""
    done = subprocess.run(args, cwd=ROOT, env=environment(**env), capture_output=True, text=True)
    lines = done.stdout.strip().splitlines() or ["(no output)"]
    print(f"{name}: {lines[-1]} (exit {done.returncode})", flush=True)
    if done.returncode:
        for line in lines:
            if line.startswith(("FAILED", "ERROR")):
                print(f"    {line}", flush=True)
    return done.returncode == 0


def line_counts() -> str:
    """The summary line of the package's line counts, the lines a process
    loads, and the exported names."""
    package = ROOT / "src" / "weakspan"
    counts = {path.stem: lines(path) for path in package.glob("*.py")}
    engine = sum(n for stem, n in counts.items()
                 if stem not in ("constructions", "__init__", "__main__"))
    done = subprocess.run([sys.executable, "-c", LOADED], cwd=ROOT, env=environment(),
                          capture_output=True, text=True, check=True)
    loaded = sum(lines(Path(path)) for path in ast.literal_eval(done.stdout))
    return (f"lines: engine modules {engine}, constructions {counts['constructions']}, "
            f"src/weakspan {sum(counts.values())}, loaded by import weakspan.cli {loaded}; "
            f"exported names {len(exported_names(package / '__init__.py'))}")


def counted_work() -> str:
    """The summary line of the calls a warm ``cmd_hexca`` makes."""
    done = subprocess.run([sys.executable, "-c", COUNTED], cwd=ROOT,
                          env=environment(PYTHONHASHSEED="0"),
                          capture_output=True, text=True, check=True)
    runs = [line.split() for line in done.stdout.splitlines()]
    return "counted work of a warm hexca from (0,0), PYTHONHASHSEED=0: " + "; ".join(
        f"R={radius}/G={generations} {int(searches):,} searches, {int(leaves):,} leaves, "
        f"{int(calls):,} Python calls"
        for radius, generations, searches, leaves, calls in runs)


def lines(path: Path) -> int:
    """The number of lines of the text file at ``path``."""
    return len(path.read_text(encoding="utf-8").splitlines())


def exported_names(init: Path) -> set[str]:
    """The public names the module at ``init`` binds at its top level by
    import or assignment."""
    names = set()
    for node in ast.parse(init.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def main() -> int:
    reverse = [str(path.relative_to(ROOT))
               for path in sorted(ROOT.glob("tests/test_*.py"), reverse=True)]
    passed = [run("tier-1", TIER1),
              run("tier-1, files in reverse order", [*TIER1, *reverse]),
              run("tier-1, PYTHONHASHSEED=0", TIER1, PYTHONHASHSEED="0"),
              run("tier-1, PYTHONHASHSEED=1", TIER1, PYTHONHASHSEED="1")]
    run("perfbench (reported, not gating)", [*PYTEST, "perfbench"])
    print(line_counts(), flush=True)
    print(counted_work(), flush=True)
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
