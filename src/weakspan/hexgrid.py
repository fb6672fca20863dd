"""Hexagonal-grid encoding and the one-live-neighbour birth automaton.

Cells live on a triangular lattice in oblique coordinates: the six unit
directions are closed under negation and consecutive directions satisfy
d[k] + d[k+2] = d[k+1], so index shifts act like rotations by sixty degrees.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, lru_cache

from .algebras import FiniteEnum, LabelSet
from .attrgraphs import AttributedGraph, ChangeSet, derive_graph, inclusion
from .graphs import Graph, SortSignature
from .rewriting import SystemSpec, WeakSpan

DIRECTIONS: tuple[tuple[int, int], ...] = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))

DEAD = "0"
LIVE = "1"

CELL_ALGEBRA = FiniteEnum((DEAD, LIVE))

# the largest disk radius a grid accepts: 120,601 cells and 841,801 graph
# elements; the work of encoding a disk grows with the square of its radius
MAX_RADIUS = 200


@dataclass(frozen=True)
class HexGridSpec:
    """A bounded disk of cells plus the initially live seed cells."""

    radius: int
    seeds: tuple[tuple[int, int], ...] = ((0, 0),)

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError("radius must be at least 1")
        if self.radius > MAX_RADIUS:
            raise ValueError(f"radius {self.radius} exceeds the bound of {MAX_RADIUS}")
        for cell in self.seeds:
            if hex_distance(*cell) > self.radius:
                raise ValueError(f"seed {cell} lies outside the radius-{self.radius} disk")


def hex_distance(q: int, r: int) -> int:
    if q * r >= 0:
        return max(abs(q), abs(r))
    return abs(q) + abs(r)


def disk(radius: int) -> list[tuple[int, int]]:
    cells = [(q, r)
             for q in range(-radius, radius + 1)
             for r in range(-radius, radius + 1)
             if hex_distance(q, r) <= radius]
    cells.sort()
    return cells


def hex_signature() -> SortSignature:
    return SortSignature(["cell"], {f"dir{k}": ("cell", "cell") for k in range(6)})


def cell_id(cell: tuple[int, int]) -> str:
    return f"c:{cell[0]},{cell[1]}"


def parse_cell_id(text: str) -> tuple[int, int]:
    if not text.startswith("c:"):
        raise ValueError(f"not a cell id: {text!r}")
    q, r = text[2:].split(",")
    return int(q), int(r)


def encode_grid(spec: HexGridSpec) -> AttributedGraph:
    """The bounded disk as a sorted graph; adjacent cells carry one directed
    edge each way, sorted by the direction index.

    The grid is the radius's all-dead disk (``_dead_disk``) with the seeds
    made live by one change set, so every grid of one radius shares one
    graph, and with it the graph's index tables, while each gets its own
    labeling.  A caller must not change ``graph.nodes`` or
    ``graph.edges`` in place.  Every live cell shares one label set and
    every dead cell the other.
    """
    dead, live = LabelSet([DEAD]), LabelSet([LIVE])
    return derive_graph(_dead_disk(spec.radius),
                        ChangeSet(relabelled={cell_id(s): (dead, live) for s in spec.seeds}))


@lru_cache(maxsize=1)
def _dead_disk(radius: int) -> AttributedGraph:
    """The radius-``radius`` disk with every cell dead; only the disk of the
    last radius asked for is kept.  Each cell's id is formatted once and its
    edge ids are built from it."""
    ids = {cell: cell_id(cell) for cell in disk(radius)}
    sorts = [f"dir{k}" for k in range(6)]
    edges = {}
    for (q, r), x in ids.items():
        prefix = f"e{x[1:]}:"
        for k, (dq, dr) in enumerate(DIRECTIONS):
            y = ids.get((q + dq, r + dr))
            if y is not None:
                edges[f"{prefix}{k}"] = (sorts[k], x, y)
    graph = Graph(hex_signature(), dict.fromkeys(ids.values(), "cell"), edges)
    return AttributedGraph(graph, CELL_ALGEBRA, dict.fromkeys(ids.values(), LabelSet([DEAD])))


def live_cells(graph: AttributedGraph) -> frozenset[tuple[int, int]]:
    out = set()
    for n in graph.graph.nodes:
        if LIVE in graph.label(n):
            out.add(parse_cell_id(n))
    return frozenset(out)


def changed_live_cells(live: frozenset[tuple[int, int]], before: AttributedGraph,
                       changes: ChangeSet) -> frozenset[tuple[int, int]]:
    """The live cells of ``before`` with ``changes`` applied, given ``live``,
    the live cells of ``before``; only the changed elements are read."""
    nodes, labels = before.graph.nodes, before.labeling
    out = set(live)
    for x in changes.deleted:
        if x in nodes and LIVE in labels[x]:
            out.discard(parse_cell_id(x))
    for x, (old, new) in changes.relabelled.items():
        if x in nodes and (LIVE in old) != (LIVE in new):
            if LIVE in new:
                out.add(parse_cell_id(x))
            else:
                out.discard(parse_cell_id(x))
    for x, (_sort, ends, label) in changes.added.items():
        if ends is None and LIVE in label:
            out.add(parse_cell_id(x))
    return frozenset(out)


def _patch_graph(signature: SortSignature) -> Graph:
    """A centre cell with its six neighbours and all adjacencies between them."""
    nodes = {"x": "cell"}
    nodes.update({f"n{j}": "cell" for j in range(6)})
    edges = {}
    for j in range(6):
        edges[f"out{j}"] = (f"dir{j}", "x", f"n{j}")
        edges[f"in{j}"] = (f"dir{(j + 3) % 6}", f"n{j}", "x")
        edges[f"ring{j}"] = (f"dir{(j + 2) % 6}", f"n{j}", f"n{(j + 1) % 6}")
        edges[f"gnir{j}"] = (f"dir{(j + 5) % 6}", f"n{(j + 1) % 6}", f"n{j}")
    return Graph(signature, nodes, edges)


def huw_rules() -> list[WeakSpan]:
    """Six birth rules, one per direction of the single live neighbour.

    Each rule requires a dead centre whose neighbourhood holds exactly one
    live cell, removes the centre's dead label, and writes the live label.
    The rules depend on nothing but the cell algebra, so every call returns
    a new list of the same six rule objects.
    """
    return list(_birth_rules())


@cache
def _birth_rules() -> tuple[WeakSpan, ...]:
    signature = hex_signature()
    patch = _patch_graph(signature)
    rules = []
    for k in range(6):
        labels_l = {"x": LabelSet([DEAD])}
        labels_l.update({f"n{j}": LabelSet([LIVE if j == k else DEAD]) for j in range(6)})
        labels_k = dict(labels_l)
        labels_k["x"] = LabelSet()
        L = AttributedGraph(patch, CELL_ALGEBRA, labels_l)
        K = AttributedGraph(patch, CELL_ALGEBRA, labels_k)
        centre = Graph(signature, {"x": "cell"}, {})
        I = AttributedGraph(centre, CELL_ALGEBRA, {"x": LabelSet()})
        R = AttributedGraph(centre, CELL_ALGEBRA, {"x": LabelSet([LIVE])})
        rules.append(WeakSpan(name=f"birth{k}", L=L, K=K, I=I, R=R, l=inclusion(K, L),
                              i=inclusion(I, K), r=inclusion(I, R)))
    return tuple(rules)


def hex_system(spec: HexGridSpec) -> SystemSpec:
    return SystemSpec(signature=hex_signature(), algebra=CELL_ALGEBRA,
                      rules=huw_rules(), host=encode_grid(spec))


def ca_oracle(grid: HexGridSpec, generations: int) -> list[frozenset[tuple[int, int]]]:
    """Plain set-based simulation on the unbounded lattice.

    A dead cell adjacent to exactly one live cell becomes live.  Kept free of
    the graph machinery (its own neighbour offsets included) so it can serve
    as an independent reference.
    """
    offsets = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
    live: set[tuple[int, int]] = set(grid.seeds)
    history = [frozenset(live)]
    for _ in range(generations):
        counts: Counter = Counter()
        for q, r in live:
            for dq, dr in offsets:
                counts[(q + dq, r + dr)] += 1
        born = {cell for cell, count in counts.items() if count == 1 and cell not in live}
        live |= born
        history.append(frozenset(live))
    return history
