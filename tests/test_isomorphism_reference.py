"""`is_isomorphic` and `is_attr_isomorphic` against networkx.

networkx's `MultiDiGraphMatcher` decides isomorphism of directed multigraphs
with node and edge attributes, independently of this package.  Both functions here
are the matcher's injective search (`enumerate_morphisms`) between graphs
of equal size.  On small random graphs with sorts, labels, parallel edges
and self-loops, they must find an isomorphism exactly when networkx says
one exists, and what they return must be one.  Skipped without networkx.
"""

import random
from collections import Counter

import pytest

from weakspan import (
    AttributedGraph,
    FiniteEnum,
    Graph,
    LabelSet,
    SortSignature,
)
from weakspan.constructions import is_attr_isomorphic, is_isomorphic, rename_graph

nx = pytest.importorskip("networkx")

SIG = SortSignature(["p", "q"], {"a": ("p", "p"), "b": ("p", "q"), "c": ("p", "p")})
STATES = FiniteEnum(("0", "1"))


def random_graph(rng):
    nodes = {f"n{k}": rng.choice("ppq") if k else "p" for k in range(rng.randint(1, 5))}
    edges = {}
    for k in range(rng.randint(0, 7)):
        src = rng.choice([n for n, sort in nodes.items() if sort == "p"])
        tgt = rng.choice(list(nodes))
        edges[f"e{k}"] = ("b" if nodes[tgt] == "q" else rng.choice("ac"), src, tgt)
    graph = Graph(SIG, nodes, edges)
    labels = {x: LabelSet(rng.sample("01", rng.choice((0, 1, 1, 2))))
              for x in graph.element_ids()}
    return AttributedGraph(graph, STATES, labels)


def shuffled(a, rng):
    """The same graph under fresh ids handed out in a random order."""
    ids = a.element_ids()
    rng.shuffle(ids)
    mapping = {x: f"m{k}" for k, x in enumerate(ids)}
    labels = {mapping[x]: a.label(x) for x in a.element_ids()}
    return AttributedGraph(rename_graph(a.graph, mapping), STATES, labels)


def perturbed(a, rng):
    """A copy with one label set, one edge end or one edge sort changed."""
    graph, labels = a.graph, dict(a.labeling)
    edges = dict(graph.edges)
    roll = rng.random()
    if edges and roll < 0.4:
        e = rng.choice(sorted(edges))
        sort, src, tgt = edges[e]
        same = [n for n, s in graph.nodes.items() if s == graph.nodes[tgt]]
        edges[e] = (sort, src, rng.choice(same))
    elif edges and roll < 0.55:
        e = rng.choice(sorted(edges))
        sort, src, tgt = edges[e]
        if sort != "b":
            edges[e] = ("c" if sort == "a" else "a", src, tgt)
    else:
        x = rng.choice(a.element_ids())
        labels[x] = LabelSet(rng.sample("01", rng.choice((0, 1, 2))))
    return AttributedGraph(Graph(SIG, dict(graph.nodes), edges), STATES, labels)


def to_nx(a, with_labels):
    out = nx.MultiDiGraph()
    for n, sort in a.graph.nodes.items():
        out.add_node(n, key=(sort, a.label(n) if with_labels else None))
    for e, (sort, src, tgt) in a.graph.edges.items():
        out.add_edge(src, tgt, key=e, kind=(sort, a.label(e) if with_labels else None))
    return out


def oracle(a, b, with_labels):
    def edges_match(x, y):
        return (Counter(d["kind"] for d in x.values())
                == Counter(d["kind"] for d in y.values()))

    return nx.algorithms.isomorphism.MultiDiGraphMatcher(
        to_nx(a, with_labels), to_nx(b, with_labels),
        node_match=lambda x, y: x["key"] == y["key"], edge_match=edges_match).is_isomorphic()


def assert_is_isomorphism(iso, a, b, with_labels):
    sigma = iso.sigma if with_labels else iso
    assert sorted(sigma.node_map.values()) == sorted(b.graph.nodes)
    assert sorted(sigma.edge_map.values()) == sorted(b.graph.edges)
    if with_labels:
        assert all(b.label(sigma.apply(x)) == a.label(x) for x in a.element_ids())


def test_random_graphs_agree_with_networkx():
    found = {True: 0, False: 0}
    for trial in range(400):
        rng = random.Random(trial)
        a = random_graph(rng)
        roll = rng.random()
        if roll < 0.35:
            b = shuffled(a, rng)
        elif roll < 0.8:
            b = shuffled(perturbed(a, rng), rng)
        else:
            b = random_graph(rng)
        for with_labels in (False, True):
            want = oracle(a, b, with_labels)
            iso = is_attr_isomorphic(a, b) if with_labels else is_isomorphic(a.graph, b.graph)
            assert (iso is not None) == want, (trial, with_labels)
            if iso is not None:
                assert_is_isomorphism(iso, a, b, with_labels)
            found[want] += 1
    assert found[True] >= 250 and found[False] >= 150
