"""The benchmark's three workloads.

Each workload is built from a seed that only shapes its inputs: the hex
workloads translate the start cell to one of the seven cells within distance
1 of the centre, and the Fibonacci workload draws the initial register pair
(x, y) with x != y.  `run_pass` is the timed operation; `inspect` is the
untimed oracle gate that turns its raw result into an `Outcome`.

Timed entry points are called through their modules (`runner.cmd_run`, not a
name bound here) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from weakspan import cli, runner
from weakspan.algebras import LabelSet
from weakspan.fileio import SystemSpec, load_system
from weakspan.hexgrid import DIRECTIONS, HexGridSpec, ca_oracle, live_cells
from weakspan.presets import fibonacci_system

START_CELLS = ((0, 0),) + DIRECTIONS


@dataclass
class Outcome:
    """What the oracle gate saw in one pass."""

    applied: int
    fingerprint: object
    problems: list[str] = field(default_factory=list)


def start_cell(seed: int) -> tuple[int, int]:
    return START_CELLS[random.Random(seed).randrange(len(START_CELLS))]


def fib_pair(seed: int) -> tuple[int, int]:
    rng = random.Random(seed)
    x = rng.randint(1, 99)
    y = rng.randint(1, 98)
    return x, y + (y >= x)


def _births(oracle) -> list[int]:
    return [len(after - before) for before, after in zip(oracle, oracle[1:])]


class HexGrowth:
    """`cmd_hexca` on a radius-5 disk for 3 generations."""

    name = "hex_growth"
    why = ("many matches per step (6 to 18) on a 571-element host: coherence, "
           "limit and colimit dominate")

    def __init__(self, seed: int, workdir: Path, radius: int = 5, generations: int = 3):
        self.start = start_cell(seed)
        self.grid = HexGridSpec(radius, (self.start,))
        self.generations = generations
        self.oracle = ca_oracle(self.grid, generations)
        self.births = _births(self.oracle)

    def describe(self) -> str:
        return f"start={self.start} radius={self.grid.radius} generations={self.generations}"

    def build(self) -> None:
        """Nothing to build: `cmd_hexca` builds its system inside each pass."""

    def run_pass(self):
        return runner.cmd_hexca(self.grid, self.generations)

    def inspect(self, result) -> Outcome:
        applied = [step.applied for step in result.steps]
        problems = []
        if len(result.live_sets) != len(self.oracle):
            problems.append(f"{len(result.live_sets)} generations, oracle has {len(self.oracle)}")
        for gen, (got, want) in enumerate(zip(result.live_sets, self.oracle)):
            if got != want:
                problems.append(f"generation {gen}: live set differs from ca_oracle")
                break
        if applied != self.births:
            problems.append(f"applied per step {applied}, oracle births {self.births}")
        return Outcome(sum(applied), (tuple(result.live_sets), tuple(applied)), problems)


_STEP_LINE = re.compile(r"^step (\d+) \[pct\] .*coherence matrix (\d+)x\2 ")


class HexWideCli:
    """`weakspan run --mode pct` on a saved radius-8 hex preset, 2 steps."""

    name = "hex_wide_cli"
    why = ("larger host (1,417 elements), few matches (6 per step), through cli and "
           "fileio: cost is matches x host size")

    def __init__(self, seed: int, workdir: Path, radius: int = 8, steps: int = 2):
        self.start = start_cell(seed)
        self.radius = radius
        self.steps = steps
        self.oracle = ca_oracle(HexGridSpec(radius, (self.start,)), steps)
        self.births = _births(self.oracle)
        self.preset = workdir / f"hex{radius}.json"
        self.out = workdir / "out.json"
        self.report = workdir / "report.txt"

    def describe(self) -> str:
        return f"start={self.start} radius={self.radius} steps={self.steps}"

    def build(self) -> None:
        q, r = self.start
        code = cli.main(["preset", "hex", "--radius", str(self.radius), f"--seed={q},{r}",
                         "--out", str(self.preset), "--report", str(self.report)])
        if code != 0:
            raise RuntimeError(f"weakspan preset exited with {code}")
        self.report.unlink()

    def run_pass(self):
        preset = str(self.preset)
        return cli.main(["run", "--rules", preset, "--host", preset,
                         "--steps", str(self.steps), "--mode", "pct",
                         "--out", str(self.out), "--report", str(self.report)])

    def inspect(self, code) -> Outcome:
        if code != 0:
            return Outcome(0, None, [f"weakspan run exited with {code}"])
        if not (self.out.exists() and self.report.exists()):
            return Outcome(0, None, ["weakspan run wrote no graph or no report"])
        saved = self.out.read_bytes()
        report = self.report.read_text(encoding="utf-8").splitlines()
        final = load_system(self.out).host
        self.out.unlink()
        self.report.unlink()
        problems = []
        if final is None or live_cells(final) != self.oracle[-1]:
            problems.append(f"saved graph's live cells differ from ca_oracle after {self.steps} steps")
        applied = []
        for line in report:
            found = _STEP_LINE.match(line)
            if found and int(found.group(1)) == len(applied):
                applied.append(int(found.group(2)))
        if applied != self.births:
            problems.append(f"applied per step {applied}, oracle births {self.births}")
        return Outcome(sum(applied), (saved, tuple(applied)), problems)


def _registers(graph) -> tuple[int, int]:
    x, y = graph.label("x"), graph.label("y")
    if len(x) != 1 or len(y) != 1:
        raise ValueError(f"registers hold {sorted(x)} and {sorted(y)}, not one value each")
    return next(iter(x)), next(iter(y))


class FibSeq:
    """The Fibonacci register pair, 500 sequential steps."""

    name = "fib_seq"
    why = ("the only sequential-mode workload: transport_match, single application "
           "and stale-match skips, 500 steps")
    mode = "sequential"

    def __init__(self, seed: int, workdir: Path, steps: int = 500):
        self.pair = fib_pair(seed)
        self.steps = steps

    def describe(self) -> str:
        return f"(x, y)={self.pair} steps={self.steps} mode={self.mode}"

    def build(self) -> None:
        base = fibonacci_system()
        x, y = self.pair
        host = base.host.with_labels({"x": LabelSet([x]), "y": LabelSet([y])})
        self.system = SystemSpec(signature=base.signature, algebra=base.algebra,
                                 rules=base.rules, host=host)

    def run_pass(self):
        return runner.cmd_run(self.system, self.steps, self.mode)

    def inspect(self, run) -> Outcome:
        try:
            states = [_registers(graph) for graph in run.history]
        except ValueError as err:
            return Outcome(0, None, [str(err)])
        applied = [step.applied for step in run.steps]
        problems = []
        if len(run.steps) != self.steps:
            problems.append(f"{len(run.steps)} steps run, {self.steps} requested")
        if states[0] != self.pair:
            problems.append(f"initial state {states[0]}, seeded {self.pair}")
        for index, step in enumerate(run.steps):
            problem = self.check_step(index, states[index], states[index + 1], step)
            if problem:
                problems.append(f"step {index}: {problem}")
                break
        return Outcome(sum(applied), tuple(states), problems)

    @staticmethod
    def check_step(index, before, after, step) -> str | None:
        # (a, b) -> (b, b) -> (b, 2b) -> (2b, 2b) -> ...: on even steps "sum" is
        # invalidated by "shift"; on odd steps x == y and both apply.
        a, b = before
        if index % 2 == 0:
            want, applied, skipped = (b, b), 1, 1
        else:
            want, applied, skipped = (b, a + b), 2, 0
            if a != b:
                return f"state {before} should hold equal registers"
        if after != want:
            return f"{before} -> {after}, expected {want}"
        if step.applied != applied or len(step.skipped_invalid) != skipped:
            return (f"applied {step.applied} with {len(step.skipped_invalid)} invalidated,"
                    f" expected {applied} with {skipped}")
        return None


WORKLOADS = {cls.name: cls for cls in (HexGrowth, HexWideCli, FibSeq)}
