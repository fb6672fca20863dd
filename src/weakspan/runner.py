"""Iterated rewriting: one engine step applies every available match.

Parallel mode intersects all contexts and glues all additions in one move.
Sequential mode replays the same match list one at a time, skipping matches
invalidated by earlier applications; it exists for comparison runs.  Each of
its applications is the one-element parallel step.

A step of either mode searches each distinct left side once
(`rule_matches`): rules whose L are equal share one search and its
canonical match order.  A step that applies nothing is a fixpoint: the
next one would find the same matches on the same graph.

Every application, single or joint, goes through `joint_step`, the
engine's one caller of ``pct``.  Surviving elements keep their host ids,
and each created element is named `s<step>:<n>:<id>`, where n is the
global index of its match in that order.  Ids then stay stable across
steps, which keeps reports readable and lets matches be carried from one
intermediate graph to the next.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .attrgraphs import AttrMorphism, AttributedGraph, ChangeSet, derive_graph
from .graphs import GraphMorphism
from .hexgrid import HexGridSpec, changed_live_cells, hex_distance, hex_system, live_cells
from .rewriting import (DirectTransformation, GluingError, IncoherentSetError, Match,
                        SystemSpec, apply_direct, find_matches, pct)


@dataclass
class StepReport:
    """What one engine step did, in fixed fields plus a rendered form.

    ``changes`` holds the change set of each ``pct`` the step ran, in the
    step's final ids: one for a joint step, and in sequential mode one per
    applied match, each against the graph the one before it produced.
    Applying them in order to the step's host (``derive_graph``) gives its
    result.  A fixpoint step has none.  ``describe`` does not read them.
    A joint step reports D' and H' by their element counts: D' is the part
    of the host no context deletes, and H' is D' plus the additions.  In
    sequential mode ``dprime_elements`` and ``hprime_elements`` hold the
    last application's counts, which ``describe`` does not print.
    """

    index: int
    mode: str
    matches_per_rule: dict[str, int] = field(default_factory=dict)
    skipped_gluing: list[str] = field(default_factory=list)
    skipped_invalid: list[str] = field(default_factory=list)
    applied: int = 0
    dprime_elements: int | None = None
    hprime_elements: int | None = None
    changes: list[ChangeSet] = field(default_factory=list, repr=False)

    @property
    def fixpoint(self) -> bool:
        return self.applied == 0

    @property
    def matched(self) -> bool:
        return any(self.matches_per_rule.values())

    def describe(self) -> str:
        parts = [f"step {self.index} [{self.mode}]"]
        if not self.matched:
            parts.append("no matches: fixpoint reached")
            return " ".join(parts)
        counts = ", ".join(f"{name}: {n}" for name, n in sorted(self.matches_per_rule.items()))
        parts.append(f"matches {{{counts}}}")
        if self.skipped_gluing:
            parts.append(f"gluing-skipped [{'; '.join(self.skipped_gluing)}]")
        if self.skipped_invalid:
            parts.append(f"invalidated [{'; '.join(self.skipped_invalid)}]")
        if self.fixpoint:
            parts.append("applied 0: fixpoint reached")
        elif self.mode == "pct":
            parts.append(f"coherence matrix {self.applied}x{self.applied} "
                         f"({self.applied ** 2} witnesses)")
            parts.append(f"D' {self.dprime_elements} elements,"
                         f" H' {self.hprime_elements} elements")
        else:
            parts.append(f"applied {self.applied}")
        return " ".join(parts)


@dataclass
class RunResult:
    final: AttributedGraph
    steps: list[StepReport]
    history: list[AttributedGraph]

    def report_text(self) -> str:
        return "\n".join(step.describe() for step in self.steps)


def transport_match(match: Match, host: AttributedGraph) -> Match:
    """Re-anchor a match on another graph by element ids, with full revalidation.

    Raises ValueError when the target elements are gone or no longer carry the
    labels the left side requires.  A match is returned as it is on its own
    host, and keeps its graph part on a host that shares its graph.
    """
    if host is match.host:
        return match
    sigma = match.m.sigma
    if host.graph is not match.host.graph:
        sigma = GraphMorphism(match.rule.L.graph, host.graph, sigma.node_map, sigma.edge_map)
    return Match(match.rule, AttrMorphism(match.rule.L, host, sigma, match.m.alpha))


def rule_matches(system: SystemSpec, host: AttributedGraph) -> list[list[Match]]:
    """Each rule's matches, rules in declaration order.

    The host's label groups are built once, and each distinct left side is
    searched once: a rule whose L equals an earlier rule's takes that rule's
    morphisms, in the same canonical order, since ``find_matches`` reads the
    rule only through L; each becomes that rule's ``Match`` through the
    checked constructor.  Raises ValueError when two rules share a name,
    since step reports and listings are keyed by rule name.
    """
    names = set()
    for rule in system.rules:
        if rule.name in names:
            raise ValueError(f"duplicate rule name {rule.name!r}")
        names.add(rule.name)
    groups = host.label_groups()
    searched: list[tuple[AttributedGraph, list[Match]]] = []
    found = []
    for rule in system.rules:
        for left, matches in searched:
            if left == rule.L:
                found.append([Match(rule, match.m) for match in matches])
                break
        else:
            matches = find_matches(rule, host, groups)
            searched.append((rule.L, matches))
            found.append(matches)
    return found


def apply_parallel_step(system: SystemSpec, host: AttributedGraph,
                        step_index: int) -> tuple[AttributedGraph, StepReport]:
    report = StepReport(index=step_index, mode="pct")
    gammas = []
    indices = []   # each application's global match index
    index = 0
    for rule, matches in zip(system.rules, rule_matches(system, host), strict=True):
        report.matches_per_rule[rule.name] = len(matches)
        for match in matches:
            try:
                gammas.append(apply_direct(match))
                indices.append(index)
            except GluingError as err:
                report.skipped_gluing.append(f"{rule.name}@{index}: {err}")
            index += 1
    if not gammas:
        return host, report
    return joint_step(gammas, report, indices), report


def joint_step(gammas: list[DirectTransformation], report: StepReport,
               numbers: Sequence[int]) -> AttributedGraph:
    """Apply the applications jointly, record them in the report and
    return the derived graph.

    ``numbers`` gives each application's global match index, as ``weakspan
    match`` lists them: the additions of each are named
    `s<report.index>:<n>:<id>` by it, and an IncoherentSetError names its
    pair by these.
    """
    try:
        changes = pct(gammas, [f"s{report.index}:{n}:" for n in numbers])
    except IncoherentSetError as err:
        a, b = err.pair
        raise IncoherentSetError((numbers[a], numbers[b]), err.rules, err.element,
                                 err.reason) from None
    host = gammas[0].host
    report.applied += len(gammas)
    report.dprime_elements = host.element_count() - len(changes.deleted)
    report.hprime_elements = report.dprime_elements + len(changes.added)
    report.changes.append(changes)
    return derive_graph(host, changes)


def apply_sequential_step(system: SystemSpec, host: AttributedGraph, step_index: int,
                          order: list[int] | None = None) -> tuple[AttributedGraph, StepReport]:
    """Apply the step-start matches one at a time, skipping stale ones.

    The optional order permutes the canonical match list; it must cover the
    whole list exactly once.
    """
    report = StepReport(index=step_index, mode="sequential")
    matches = []
    for rule, found in zip(system.rules, rule_matches(system, host), strict=True):
        report.matches_per_rule[rule.name] = len(found)
        matches.extend(found)
    if order is None:
        order = list(range(len(matches)))
    if sorted(order) != list(range(len(matches))):
        raise ValueError("order must be a permutation of the match indices")
    current = host
    for pos in order:
        match = matches[pos]
        try:
            carried = transport_match(match, current)
        except ValueError as err:
            report.skipped_invalid.append(f"{match.rule.name}@{pos}: {err}")
            continue
        try:
            gamma = apply_direct(carried)
        except GluingError as err:
            report.skipped_gluing.append(f"{match.rule.name}@{pos}: {err}")
            continue
        current = joint_step([gamma], report, [pos])
    return current, report


def cmd_run(system: SystemSpec, steps: int, mode: str = "pct") -> RunResult:
    """Iterate full engine steps from the system's host graph.

    Parallel mode raises IncoherentSetError when a step's match set cannot be
    applied jointly.  Iteration stops early at a fixpoint, a step that
    applies nothing.
    """
    if system.host is None:
        raise ValueError("system has no host graph to run on")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if mode not in ("pct", "sequential"):
        raise ValueError(f"unknown mode {mode!r}: expected pct or sequential")
    stepper = apply_parallel_step if mode == "pct" else apply_sequential_step
    current = system.host
    reports: list[StepReport] = []
    history = [current]
    for index in range(steps):
        current, report = stepper(system, current, index)
        reports.append(report)
        history.append(current)
        if report.fixpoint:
            break
    return RunResult(final=current, steps=reports, history=history)


@dataclass
class HexcaResult:
    graphs: list[AttributedGraph]
    live_sets: list[frozenset[tuple[int, int]]]
    steps: list[StepReport]

    @property
    def live_counts(self) -> list[int]:
        return [len(s) for s in self.live_sets]


def cmd_hexca(grid: HexGridSpec, generations: int) -> HexcaResult:
    """Grow the one-live-neighbour automaton on a bounded disk.

    The disk must leave a margin: every cell that can be born within the
    requested number of generations needs its full neighbourhood inside the
    disk.  Births spread one cell per generation from the seeds, so the
    radius must be at least the largest seed distance from the centre plus
    the generation count plus one.

    The live cells are read off the first graph once; after that each
    generation's live set is the one before it updated by the step's change
    set, so no generation is scanned again.
    """
    if generations < 0:
        raise ValueError("generations must be nonnegative")
    reach = max((hex_distance(*cell) for cell in grid.seeds), default=0)
    if grid.radius < reach + generations + 1:
        raise ValueError(
            f"margin violation: radius {grid.radius} cannot host {generations} "
            f"generations from seeds up to distance {reach} of the centre; need "
            f"radius >= seed distance + generations + 1 = {reach + generations + 1}")
    system = hex_system(grid)
    run = cmd_run(system, generations, mode="pct")
    live = [live_cells(run.history[0])]
    for before, report in zip(run.history, run.steps):
        cells = live[-1]
        if report.changes:   # a joint step has one change set, a fixpoint none
            [changes] = report.changes
            cells = changed_live_cells(cells, before, changes)
        live.append(cells)
    return HexcaResult(graphs=run.history, live_sets=live, steps=run.steps)
