"""Finite sorted directed multigraphs and their structure-preserving maps."""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from types import CodeType
from typing import Callable, Collection, Iterable, Mapping, Optional


class SortSignature:
    """Declares the node sorts and the edge sorts (with their endpoint sorts)."""

    def __init__(self, node_sorts: Iterable[str], edge_sorts: Mapping[str, tuple[str, str]]):
        self.node_sorts = frozenset(node_sorts)
        self.edge_sorts = {name: (src, tgt) for name, (src, tgt) in edge_sorts.items()}
        for name, (src, tgt) in self.edge_sorts.items():
            if src not in self.node_sorts or tgt not in self.node_sorts:
                raise ValueError(f"edge sort {name!r} references undeclared node sort")
        if self.node_sorts & set(self.edge_sorts):
            raise ValueError("node sorts and edge sorts must use distinct names")

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, SortSignature)
                                 and self.node_sorts == other.node_sorts
                                 and self.edge_sorts == other.edge_sorts)

    def __repr__(self) -> str:
        return f"SortSignature({sorted(self.node_sorts)}, {self.edge_sorts})"


class Graph:
    """A finite directed multigraph whose nodes and edges carry sorts.

    ``nodes`` maps node id to node sort; ``edges`` maps edge id to
    ``(edge_sort, src_node_id, tgt_node_id)``.  Ids are opaque strings and
    must be unique across nodes and edges together, so an element of the
    graph is identified by its id alone.
    """

    def __init__(self, signature: SortSignature, nodes: Mapping[str, str],
                 edges: Mapping[str, tuple[str, str, str]]):
        self.signature = signature
        self.nodes = dict(nodes)
        self.edges = dict(edges)
        clash = set(self.nodes) & set(self.edges)
        if clash:
            raise ValueError(f"ids used for both a node and an edge: {sorted(clash)}")
        for nid, sort in self.nodes.items():
            if sort not in signature.node_sorts:
                raise ValueError(f"node {nid!r} has undeclared sort {sort!r}")
        for eid, (sort, src, tgt) in self.edges.items():
            if sort not in signature.edge_sorts:
                raise ValueError(f"edge {eid!r} has undeclared sort {sort!r}")
            want_src, want_tgt = signature.edge_sorts[sort]
            if src not in self.nodes:
                raise ValueError(f"edge {eid!r} has unknown source {src!r}")
            if tgt not in self.nodes:
                raise ValueError(f"edge {eid!r} has unknown target {tgt!r}")
            if self.nodes[src] != want_src or self.nodes[tgt] != want_tgt:
                raise ValueError(f"edge {eid!r} endpoint sorts do not match sort {sort!r}")

    def element_ids(self) -> list[str]:
        return sorted(self.nodes) + sorted(self.edges)

    def element_count(self) -> int:
        return len(self.nodes) + len(self.edges)

    def is_node(self, x: str) -> bool:
        return x in self.nodes

    @cached_property
    def index(self) -> "GraphIndex":
        """Lookup tables over this graph, built on first use and then shared
        by every caller; a graph is never mutated after construction."""
        return GraphIndex(self)

    @cached_property
    def _search_plans(self) -> dict[tuple[str, ...], "SearchPlan"]:
        return {}

    def search_plan(self, ranking: tuple[str, ...]) -> "SearchPlan":
        """This graph's `SearchPlan` as a pattern under the given ranking of
        its nodes, built on first use and then kept, as ``index`` is."""
        plans = self._search_plans
        if ranking not in plans:
            plans[ranking] = SearchPlan(self, ranking)
        return plans[ranking]

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Graph)
                                 and self.signature == other.signature
                                 and self.nodes == other.nodes
                                 and self.edges == other.edges)

    def __repr__(self) -> str:
        return f"Graph({len(self.nodes)} nodes, {len(self.edges)} edges)"


class GraphIndex:
    """Sort buckets, edges by (sort, src, tgt), adjacency by edge sort, and
    the edges at each node, of one graph.  Id lists keep the graph's
    insertion order: every reader is order-free, since the matcher sorts
    its results, ``label_groups`` builds sets and a dangling-edge check
    reports the least id.

    As a search host, ``out_by`` and ``in_by`` give the candidates of a
    pattern node from its placed neighbours, and ``edges_by_ends`` gives the
    bucket of host edges a pattern edge may take once both its ends are
    placed.  ``incident`` is built on first read: only a match that deletes
    a node reads it."""

    def __init__(self, g: Graph):
        self.nodes_by_sort: dict[str, list[str]] = {}
        for nid, sort in g.nodes.items():
            self.nodes_by_sort.setdefault(sort, []).append(nid)
        self.edges_by_ends: dict[tuple[str, str, str], list[str]] = {}
        self.out_by: dict[tuple[str, str], set[str]] = {}   # (sort, src) -> targets
        self.in_by: dict[tuple[str, str], set[str]] = {}    # (sort, tgt) -> sources
        for eid, (sort, src, tgt) in g.edges.items():
            self.edges_by_ends.setdefault((sort, src, tgt), []).append(eid)
            self.out_by.setdefault((sort, src), set()).add(tgt)
            self.in_by.setdefault((sort, tgt), set()).add(src)
        # the edge table, not the graph: the graph keeps this index, and a
        # reference back would make a cycle
        self._edges = g.edges

    @cached_property
    def incident(self) -> dict[str, list[str]]:
        """The edges at each node, loops once."""
        incident: dict[str, list[str]] = {}
        for eid, (_sort, src, tgt) in self._edges.items():
            incident.setdefault(src, []).append(eid)
            if tgt != src:
                incident.setdefault(tgt, []).append(eid)
        return incident


class GraphMorphism:
    """A sort- and incidence-preserving map between two graphs."""

    def __init__(self, source: Graph, target: Graph,
                 node_map: Mapping[str, str], edge_map: Mapping[str, str]):
        self.source = source
        self.target = target
        self.node_map = node_map = dict(node_map)
        self.edge_map = edge_map = dict(edge_map)
        source_nodes, target_nodes = source.nodes, target.nodes
        source_edges, target_edges = source.edges, target.edges
        if node_map.keys() != source_nodes.keys():
            raise ValueError("node map is not total on the source nodes")
        if edge_map.keys() != source_edges.keys():
            raise ValueError("edge map is not total on the source edges")
        # one lookup per element on success; a failure is told apart below
        for n, image in node_map.items():
            if target_nodes.get(image) != source_nodes[n]:
                if image not in target_nodes:
                    raise ValueError(f"node {n!r} maps to unknown node {image!r}")
                raise ValueError(f"node {n!r} changes sort under the map")
        for e, image in edge_map.items():
            sort, src, tgt = source_edges[e]
            found = target_edges.get(image)
            if found != (sort, node_map[src], node_map[tgt]):
                if found is None:
                    raise ValueError(f"edge {e!r} maps to unknown edge {image!r}")
                if found[0] != sort:
                    raise ValueError(f"edge {e!r} changes sort under the map")
                raise ValueError(f"edge {e!r} breaks incidence under the map")

    def apply(self, x: str) -> str:
        if x in self.node_map:
            return self.node_map[x]
        if x in self.edge_map:
            return self.edge_map[x]
        raise KeyError(x)

    def element_map(self) -> dict[str, str]:
        merged = dict(self.node_map)
        merged.update(self.edge_map)
        return merged

    def __eq__(self, other) -> bool:
        return (isinstance(other, GraphMorphism)
                and self.source == other.source
                and self.target == other.target
                and self.node_map == other.node_map
                and self.edge_map == other.edge_map)

    def __repr__(self) -> str:
        return f"GraphMorphism({self.node_map}, {self.edge_map})"


def is_mono(f: GraphMorphism) -> bool:
    """True when both the node map and the edge map are injective."""
    return (len(set(f.node_map.values())) == len(f.node_map)
            and len(set(f.edge_map.values())) == len(f.edge_map))


class SearchPlan:
    """What a search for one pattern graph needs that depends on the pattern
    alone, given the ranking of its nodes by (admitted host nodes, id).

    ``steps`` holds, per position in the node order, the pattern node, the
    anchors that give its candidates, and the pattern edges it closes.  An
    anchor ``(table, sort, earlier)`` is an edge to the node placed at
    position ``earlier``, and lists the host nodes
    ``(out_by, in_by)[table][sort, image of earlier]``.  A node's candidates
    are what its first anchor lists, narrowed by its other anchors only
    while that is more than one host node: each anchor's edge is also a
    closed edge, so a candidate the narrowing would drop finds its bucket
    empty.  A closed edge ``(edge, sort, src, tgt)`` has both ends, given as
    positions, placed once this node is, so a loop closes at its node.
    ``edge_order`` lists the pattern edges in the order they close, and
    ``parallel`` says whether two of them share (sort, src, tgt).

    ``search`` compiles the plan, on first use, into Python with one
    ``for`` loop per node, in plan order, and keeps the function.  Each loop
    takes the node's candidates from its first anchor, narrows them by the
    other anchors while more than one is left, intersects them with the
    node's admitted set, tests injectivity, and looks up one bucket per
    closed edge, filtered by that edge's admitted set; so placing a node
    makes no Python call.  A plan keeps no reference to its graph.
    """

    def __init__(self, pattern: Graph, ranking: tuple[str, ...]):
        # each node touches as many placed nodes as it can; ties go to the
        # node ranked first, so the search starts at the most selective node
        # and, after a component is exhausted, continues at the most
        # selective node left
        rank = {n: k for k, n in enumerate(ranking)}
        adjacency: dict[str, set[str]] = {n: set() for n in pattern.nodes}
        for _sort, src, tgt in pattern.edges.values():
            adjacency[src].add(tgt)
            adjacency[tgt].add(src)
        order: list[str] = []
        placed: set[str] = set()
        while len(order) < len(rank):
            pick = min(rank.keys() - placed,
                       key=lambda n: (-len(adjacency[n] & placed), rank[n]))
            order.append(pick)
            placed.add(pick)
        position = {n: k for k, n in enumerate(order)}
        anchors: list[dict] = [{} for _ in order]
        closes: list[list] = [[] for _ in order]
        for e in sorted(pattern.edges):
            sort, src, tgt = pattern.edges[e]
            s, t = position[src], position[tgt]
            if s < t:
                anchors[t][(0, sort, s)] = None
            elif t < s:
                anchors[s][(1, sort, t)] = None
            closes[max(s, t)].append((e, sort, s, t))
        self.steps = tuple((n, tuple(anchors[k]), tuple(closes[k]))
                           for k, n in enumerate(order))
        self.order = tuple(order)
        self.edge_order = tuple(e for step in closes for e, *_rest in step)
        self.parallel = len(set(pattern.edges.values())) < len(pattern.edges)
        self._searches: dict[tuple[bool, frozenset[str]], Callable] = {}

    def search(self, injective: bool, admitted: Collection[str]) -> Callable:
        """This plan's search, for an injective node map or any, when the
        pattern elements in ``admitted`` have admitted sets; compiled on
        first use and then kept, as the plan is kept on its pattern.

        The search is called as ``search(out_get, in_get, edges_get, starts,
        admitted, leaf, set(), (), ())``: the ``get`` methods of the host
        index's ``out_by``, ``in_by`` and ``edges_by_ends``, the candidates
        of each node that starts a component, the admitted sets, the set it
        keeps the placed images in, and the images and buckets placed
        before it.  It calls ``leaf(images, buckets)`` at each complete
        node map, with the images in plan order and the closed edges' host
        buckets in ``edge_order``, and returns True as soon as ``leaf``
        does."""
        key = (injective, frozenset(admitted))
        if key not in self._searches:
            source, constants = _search_source(self.steps, *key)
            namespace: dict = {}
            exec(_compiled(source), namespace)
            # the functions' globals are this namespace: keeping none of
            # them in it leaves the collector no cycle
            self._searches[key] = namespace.pop("make")(constants)
        return self._searches[key]


@lru_cache(maxsize=128)
def _compiled(source: str) -> CodeType:
    """``source`` compiled: patterns of one shape share their source, and
    compiling costs far more than running the code to define the search."""
    return compile(source, "<search plan>", "exec")


# CPython refuses more than 20 statically nested blocks in one function, so
# a compiled search nests at most this many loops and hands the positions
# after them to the next function
_CHUNK = 16


def _search_source(steps: tuple, injective: bool,
                   admitted: frozenset[str]) -> tuple[str, tuple[str, ...]]:
    """The source of `SearchPlan.search` for a plan's ``steps``, and its
    constants.  The source defines ``make(constants)``, which returns the
    search: one function per ``_CHUNK`` positions, each taking the images
    and buckets of the positions before it.

    No id or sort name reaches the source: each goes into the tuple of
    constants, which the source names by position, so the source depends on
    the plan's shape alone and holds no text a file can spell.
    """
    constants: list[str] = []

    def constant(value: str) -> str:
        constants.append(value)
        return f"k{len(constants) - 1}"

    def tupled(names: list[str]) -> str:
        return "(" + "".join(f"{name}, " for name in names) + ")"

    getters = ("out_get", "in_get")
    numbers = itertools.count()     # of the buckets, in edge_order
    chunks = []
    for start in range(0, max(len(steps), 1), _CHUNK):
        end = min(start + _CHUNK, len(steps))
        earlier: set[int] = set()  # positions this function reads
        head: list[str] = []      # set up once per call
        body: list[str] = []
        tail: list[str] = []      # what a loop does after its inner loop
        placed: list[str] = []
        bound: list[str] = []
        for pos in range(start, end):
            pn, anchors, closes = steps[pos]
            pad = "    " * (pos - start + 2)
            if anchors:
                for n, (table, sort, k) in enumerate(anchors):
                    lookup = f"{getters[table]}(({constant(sort)}, n{k}), empty)"
                    body.append(f"{pad}cs = {lookup}" if n == 0
                                else f"{pad}if len(cs) > 1: cs = cs & {lookup}")
                    earlier.add(k)
                if pn in admitted:
                    head.append(f"        a{pos} = admitted[{constant(pn)}]")
                    body.append(f"{pad}cs = cs & a{pos}")
                body.append(f"{pad}for n{pos} in cs:")
            else:
                head.append(f"        s{pos} = starts[{constant(pn)}]")
                body.append(f"{pad}for n{pos} in s{pos}:")
            pad += "    "
            if injective and pos:
                body.append(f"{pad}if n{pos} in used: continue")
            for pe, sort, s, t in closes:
                b = f"b{next(numbers)}"
                earlier.update((s, t))
                body.append(f"{pad}{b} = edges_get(({constant(sort)}, n{s}, n{t}))")
                body.append(f"{pad}if {b} is None: continue")
                if pe in admitted:
                    head.append(f"        e{b} = admitted[{constant(pe)}]")
                    body.append(f"{pad}{b} = e{b}.intersection({b})")
                    body.append(f"{pad}if not {b}: continue")
                bound.append(b)
            if injective and pos + 1 < len(steps):
                body.append(f"{pad}used.add(n{pos})")
                tail.append(f"{pad}used.discard(n{pos})")
            placed.append(f"n{pos}")
        call = (f"search_{end}(out_get, in_get, edges_get, starts, admitted, leaf, used, "
                if end < len(steps) else "leaf(")
        body.append(f"{'    ' * (end - start + 2)}if {call}images + {tupled(placed)}, "
                    f"buckets + {tupled(bound)}): return True")
        chunks.append([
            f"    def search{f'_{start}' if start else ''}(out_get, in_get, edges_get, "
            f"starts, admitted, leaf, used, images, buckets):",
            *(f"        n{k} = images[{k}]" for k in sorted(earlier) if k < start),
            *head, *body, *reversed(tail), "        return False"])
    source = "\n".join([
        "def make(constants):",
        *([f"    {', '.join(f'k{j}' for j in range(len(constants)))}, = constants"]
          if constants else []),
        "    empty = frozenset()",
        *(line for chunk in reversed(chunks) for line in chunk),
        "    return search", ""])
    return source, tuple(constants)


def enumerate_morphisms(pattern: Graph, host: Graph, injective_only: bool = False,
                        admitted: Optional[Mapping[str, set[str]]] = None,
                        limit: Optional[int] = None) -> list[GraphMorphism]:
    """Every morphism from pattern into host, in a canonical deterministic order.

    ``admitted`` maps a pattern element to the set of host ids it may take:
    a node's set holds host nodes of its sort, an edge's set host edges.  An
    element without an entry may take any host element of its sort.  The
    sets are read and never changed, so a caller may pass sets it shares.
    A node with placed neighbours takes its candidates from the first of
    them its plan lists, intersected with the others' only while there is
    a choice, and keeps those that its set also holds; a node that starts a
    search walks its set, and its image is not checked again, so that a
    node's set holds host nodes of its sort is what makes a start node's
    image one of its sort.

    The search runs the pattern's `SearchPlan`, built once per ranking of
    the pattern nodes and kept on the pattern graph, as the nested loops
    the plan compiles itself into.  Placing a node binds every pattern edge
    it closes to its bucket of host edges, narrowed to the edge's set when
    it has one, and rejects the node when a bucket is empty.  At a complete
    node map the loops call ``leaf``, which makes one morphism per choice
    across the buckets.  A placed node has its sort, and a bound edge its
    sort and its ends, by construction, so each morphism is built from the
    images and buckets it took without the constructor's checks, and owns
    its maps.
    Candidates are tried in set order, so the results are sorted
    at the end: lexicographically on the tuple of host images taken over the
    sorted pattern node ids, then over the sorted pattern edge ids.

    With a positive ``limit`` the search stops once it has found that many
    morphisms, and returns them in the order found, unsorted: with
    ``limit=1``, a witness that some morphism exists.  Which morphisms these
    are, when there are more, follows set order and so may differ between
    processes.
    """
    if pattern.signature != host.signature:
        raise ValueError("pattern and host use different sort signatures")
    if limit is not None and limit < 1:
        raise ValueError("a search limit must be positive")

    index = host.index
    if admitted is None:
        admitted = {}
    by_sort = index.nodes_by_sort
    starts = {pn: admitted[pn] if pn in admitted else by_sort.get(sort, ())
              for pn, sort in pattern.nodes.items()}
    if not all(starts.values()):
        return []

    plan = pattern.search_plan(tuple(sorted(starts, key=lambda n: (len(starts[n]), n))))
    order, edge_order = plan.order, plan.edge_order
    # under an injective node map only parallel pattern edges share a bucket
    distinct = injective_only and plan.parallel
    results: list[GraphMorphism] = []

    def leaf(images: tuple[str, ...], buckets: tuple[list[str], ...]) -> bool:
        for choice in itertools.product(*buckets):
            if distinct and len(set(choice)) < len(choice):
                continue
            morphism = object.__new__(GraphMorphism)
            morphism.source, morphism.target = pattern, host
            morphism.node_map = dict(zip(order, images))
            morphism.edge_map = dict(zip(edge_order, choice))
            results.append(morphism)
            if len(results) == limit:
                return True
        return False

    search = plan.search(injective_only, admitted)
    search(index.out_by.get, index.in_by.get, index.edges_by_ends.get, starts, admitted, leaf,
           set(), (), ())

    if len(results) > 1 and limit is None:
        node_key_ids = sorted(pattern.nodes)
        edge_key_ids = sorted(pattern.edges)
        results.sort(key=lambda m: (tuple(m.node_map[n] for n in node_key_ids),
                                    tuple(m.edge_map[e] for e in edge_key_ids)))
    return results
