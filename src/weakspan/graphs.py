"""Finite sorted directed multigraphs and their structure-preserving maps."""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Mapping, Optional


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
        return (isinstance(other, SortSignature)
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
    position ``earlier``: candidates are the host nodes that
    ``(out_by, in_by)[table][sort, image of earlier]`` lists.  A closed edge
    ``(edge, sort, src, tgt)`` has both ends, given as positions, placed once
    this node is, so a loop closes at its node.  ``edge_order`` lists the
    pattern edges in the order they close, and ``parallel`` says whether two
    of them share (sort, src, tgt).  A plan keeps no reference to its graph.
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


def enumerate_morphisms(pattern: Graph, host: Graph, injective_only: bool = False,
                        admitted: Optional[Mapping[str, set[str]]] = None
                        ) -> list[GraphMorphism]:
    """Every morphism from pattern into host, in a canonical deterministic order.

    ``admitted`` maps a pattern element to the set of host ids it may take:
    a node's set holds host nodes of its sort, an edge's set host edges.  An
    element without an entry may take any host element of its sort.  The
    sets are read and never changed, so a caller may pass sets it shares.
    A node whose placed neighbours give candidates takes those candidates
    that its set also holds; a node that starts a search walks its set, and
    its image is not checked again, so that a node's set holds host nodes
    of its sort is what makes a start node's image one of its sort.

    The search walks the pattern's `SearchPlan`, built once per ranking of
    the pattern nodes and kept on the pattern graph.  Placing a node binds
    every pattern edge it closes to its bucket of host edges, narrowed to
    the edge's set when it has one, and rejects the node when a bucket is
    empty; a complete node map gives one morphism per choice across the
    buckets.  A placed node has its sort, and a bound edge its sort and its
    ends, by construction, so each morphism is built from the images and
    buckets it took without the constructor's checks, and owns its maps.
    Candidates are tried in set order, so the results are sorted
    at the end: lexicographically on the tuple of host images taken over the
    sorted pattern node ids, then over the sorted pattern edge ids.
    """
    if pattern.signature != host.signature:
        raise ValueError("pattern and host use different sort signatures")

    index = host.index
    if admitted is None:
        admitted = {}
    by_sort = index.nodes_by_sort
    starts = {pn: admitted[pn] if pn in admitted else by_sort.get(sort, ())
              for pn, sort in pattern.nodes.items()}
    if not all(starts.values()):
        return []

    plan = pattern.search_plan(tuple(sorted(starts, key=lambda n: (len(starts[n]), n))))
    steps, order, edge_order = plan.steps, plan.order, plan.edge_order
    # under an injective node map only parallel pattern edges share a bucket
    distinct = injective_only and plan.parallel
    edge_index = index.edges_by_ends
    tables = (index.out_by, index.in_by)
    images: list[str] = [""] * len(steps)
    used: set[str] = set()
    empty: set[str] = set()
    buckets: list[list[str]] = []
    results: list[GraphMorphism] = []

    def place(pos: int) -> None:
        if pos == len(steps):
            for choice in itertools.product(*buckets):
                if distinct and len(set(choice)) < len(choice):
                    continue
                morphism = object.__new__(GraphMorphism)
                morphism.source, morphism.target = pattern, host
                morphism.node_map = dict(zip(order, images))
                morphism.edge_map = dict(zip(edge_order, choice))
                results.append(morphism)
            return
        pn, anchors, closes = steps[pos]
        if anchors:
            # adjacency by edge sort already fixes the node sort; a set
            # intersection walks its smaller side, so a large admitted set
            # costs no more than a small one
            found = [tables[table].get((sort, images[earlier]), empty)
                     for table, sort, earlier in anchors]
            if pn in admitted:
                found.append(admitted[pn])
            candidates = set.intersection(*found)
        else:
            candidates = starts[pn]
        for c in candidates:
            if injective_only and c in used:
                continue
            images[pos] = c
            bound = []
            for pe, sort, src, tgt in closes:
                bucket = edge_index.get((sort, images[src], images[tgt]), ())
                if bucket and pe in admitted:
                    allowed = admitted[pe]
                    bucket = [he for he in bucket if he in allowed]
                if not bucket:
                    break
                bound.append(bucket)
            else:
                used.add(c)
                buckets.extend(bound)
                place(pos + 1)
                del buckets[len(buckets) - len(bound):]
                used.discard(c)

    place(0)
    # the search calls itself through its closure; emptying the cell lets
    # the search state go at return instead of at the next gc
    del place

    if len(results) > 1:
        node_key_ids = sorted(pattern.nodes)
        edge_key_ids = sorted(pattern.edges)
        results.sort(key=lambda m: (tuple(m.node_map[n] for n in node_key_ids),
                                    tuple(m.edge_map[e] for e in edge_key_ids)))
    return results
