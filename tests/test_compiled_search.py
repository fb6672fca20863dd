"""The compiled search against the recursive reference search.

Each `SearchPlan` compiles itself into Python source, one function per
``graphs._CHUNK`` nested loops.  These tests cross the chunk boundaries,
stop early from the deepest chunk, and check that no text of the pattern
reaches the source.
"""

import json
import sys

import pytest

from weakspan import Graph, SortSignature, enumerate_morphisms, fileio, graphs

from test_cli import _big_left_side
from test_search_plan_reference import admission_of, maps, reference_morphisms


@pytest.fixture
def deep_reference():
    """The reference search recurses once per pattern node and once per
    pattern edge; a 500-node chain needs more frames than the default
    limit allows."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 5000))
    yield
    sys.setrecursionlimit(limit)


SIG = SortSignature(["p"], {"a": ("p", "p")})


def ring(size, closed, twin=False, prefix="x"):
    """Nodes ``{prefix}0`` ... with an ``a`` edge from each to the next, and
    from the last to the first when ``closed``; with ``twin`` the first
    edge has a parallel copy."""
    nodes = {f"{prefix}{k}": "p" for k in range(size)}
    edges = {f"{prefix}e{k}": ("a", f"{prefix}{k}", f"{prefix}{(k + 1) % size}")
             for k in range(size if closed else size - 1)}
    if twin:
        edges[f"{prefix}t"] = ("a", f"{prefix}0", f"{prefix}1" if size > 1 else f"{prefix}0")
    return Graph(SIG, nodes, edges)


def check(pattern, host, injective_only, admitted=None):
    """The search equals the reference in full, and with ``limit=1`` gives
    one of its morphisms, or none when there is none."""
    admits, classes = admission_of(host, admitted or {})
    want = maps(reference_morphisms(pattern, host, injective_only, admits, classes))
    assert maps(enumerate_morphisms(pattern, host, injective_only, admitted)) == want
    first = maps(enumerate_morphisms(pattern, host, injective_only, admitted, limit=1))
    assert len(first) == min(len(want), 1) and all(m in want for m in first)
    return len(want)


@pytest.mark.parametrize("injective_only", [True, False], ids=["injective", "any"])
@pytest.mark.parametrize("closed", [False, True], ids=["chain", "cycle"])
@pytest.mark.parametrize("size", [1, 15, 16, 17, 33])
def test_chains_and_cycles_across_chunk_boundaries(size, closed, injective_only):
    """Into a cycle of the same size with a twin edge, where every morphism
    places each node once, and into a 3-cycle, where a long pattern only
    maps when node images may repeat."""
    assert graphs._CHUNK == 16
    pattern = ring(size, closed)
    assert check(pattern, ring(size, True, twin=True, prefix="h"), injective_only) == \
        (2 * size if closed else 2 * size - 1)
    if closed:
        wraps = 3 if not injective_only and size % 3 == 0 else 0
    else:
        wraps = 3 if not injective_only or size <= 3 else 0
    assert check(pattern, ring(3, True, prefix="h"), injective_only) == wraps


@pytest.mark.parametrize("injective_only", [True, False], ids=["injective", "any"])
def test_the_largest_left_side(injective_only, deep_reference):
    """The 500-node chain at `rewriting.MAX_LEFT_SIZE`, matched into its
    host: 32 functions, the last one node deep.  Its first node may take
    every tenth host node, so 49 of the 50 walks run off the end of the
    host chain, at positions spread over the functions, and its last edge
    has an admitted set.  (Unpinned, the search makes 125,000 placements;
    test_cli runs it.)"""
    system = fileio.loads_system(json.dumps(_big_left_side(500, 0)))
    pattern, host = system.rules[0].L.graph, system.host.graph
    starts = {f"c{k}" for k in range(0, 500, 10)}
    assert check(pattern, host, injective_only, {"c0": starts, "e498": {"e498"}}) == 1
    assert check(pattern, host, injective_only, {"c0": starts - {"c0"}}) == 0


HOSTILE = ['"', "'", "\\", "\n", '")]; __import__("os")#', "é✓\U0001f600"]


def renamed(graph, node_sorts, edge_sorts, name):
    """``graph`` over a signature whose sorts ``node_sorts`` and
    ``edge_sorts`` rename, with every id renamed by ``name``."""
    signature = SortSignature(node_sorts.values(), {
        edge_sorts[sort]: (node_sorts[src], node_sorts[tgt])
        for sort, (src, tgt) in graph.signature.edge_sorts.items()})
    return Graph(signature, {name(n): node_sorts[sort] for n, sort in graph.nodes.items()},
                 {name(e): (edge_sorts[sort], name(src), name(tgt))
                  for e, (sort, src, tgt) in graph.edges.items()})


def test_no_text_of_the_pattern_reaches_the_source():
    """Two patterns of one shape, one with plain ids and sort names and one
    with quotes, a backslash, a newline, code and non-ASCII characters in
    each, compile to the same source, and each matches as the reference
    does.  The hostile names keep the plain names' order, so the two plans
    rank and order their nodes alike."""
    signature = SortSignature(["p", "q"], {"a": ("p", "p"), "b": ("p", "q")})
    nodes = {f"x{k:02}": "p" for k in range(18)}
    nodes["x18"] = "q"
    edges = {f"e{k:02}": ("a", f"x{k:02}", f"x{(k + 1) % 18:02}") for k in range(18)}
    edges.update({"e18": ("a", "x00", "x09"), "e19": ("a", "x03", "x03"),
                  "e20": ("b", "x17", "x18"), "e21": ("a", "x00", "x01")})
    pattern = Graph(signature, nodes, edges)
    host = Graph(signature, {**nodes, "y": "q"},
                 {**edges, "f0": ("a", "x00", "x01"), "f1": ("b", "x17", "y")})
    plain = {"p": "p", "q": "q"}, {"a": "a", "b": "b"}, lambda x: x
    hostile = ({"p": "p" + "".join(HOSTILE), "q": "q" + HOSTILE[4]},
               {"a": "a" + HOSTILE[3] + HOSTILE[5], "b": "b" + HOSTILE[2] + HOSTILE[0]},
               lambda x: x + "".join(HOSTILE))
    compiled = []
    for node_sorts, edge_sorts, name in (plain, hostile):
        p = renamed(pattern, node_sorts, edge_sorts, name)
        h = renamed(host, node_sorts, edge_sorts, name)
        for injective_only in (True, False):
            for admitted in ({}, {name("x05"): {name("x05")}, name("e20"): {name("e20")},
                                  name("e21"): {name("e21"), name("f0")}}):
                assert check(p, h, injective_only, admitted) >= 1
        compiled.append(sorted(graphs._search_source(plan.steps, *key)[0]
                               for plan in p._search_plans.values() for key in plan._searches))
    assert len(compiled[0]) == 4 and compiled[0] == compiled[1]
    assert all(source.isascii() and not set("\"'\\#") & set(source) and "import" not in source
               for source in compiled[1])
