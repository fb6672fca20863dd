import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from weakspan import (
    Graph,
    GraphMorphism,
    SortSignature,
    enumerate_morphisms,
    is_mono,
)
from weakspan.constructions import (
    compose,
    disjoint_union,
    identity_morphism,
    is_isomorphic,
    rename_graph,
)

SIG = SortSignature(["p", "q"], {"a": ("p", "p"), "b": ("p", "q")})


def triangle():
    return Graph(SIG,
                 {"n0": "p", "n1": "p", "n2": "q"},
                 {"e0": ("a", "n0", "n1"),
                  "e1": ("b", "n0", "n2"),
                  "e2": ("b", "n1", "n2")})


class TestSortSignature:
    def test_edge_sorts_must_reference_declared_node_sorts(self):
        with pytest.raises(ValueError, match="undeclared"):
            SortSignature(["p"], {"a": ("p", "r")})

    def test_sort_namespaces_must_not_overlap(self):
        with pytest.raises(ValueError, match="distinct"):
            SortSignature(["p"], {"p": ("p", "p")})


class TestGraph:
    def test_ids_are_shared_between_nodes_and_edges(self):
        with pytest.raises(ValueError):
            Graph(SIG, {"x": "p"}, {"x": ("a", "x", "x")})

    def test_edges_need_existing_endpoints(self):
        with pytest.raises(ValueError):
            Graph(SIG, {"x": "p"}, {"e": ("a", "x", "ghost")})

    def test_edge_endpoint_sorts_must_match_declaration(self):
        with pytest.raises(ValueError):
            Graph(SIG, {"x": "p", "y": "q"}, {"e": ("a", "x", "y")})

    def test_unknown_sorts_rejected(self):
        with pytest.raises(ValueError):
            Graph(SIG, {"x": "r"}, {})
        with pytest.raises(ValueError):
            Graph(SIG, {"x": "p"}, {"e": ("c", "x", "x")})

    def test_element_ids_lists_nodes_then_edges_sorted(self):
        g = triangle()
        assert g.element_ids() == ["n0", "n1", "n2", "e0", "e1", "e2"]
        assert g.element_count() == 6


class TestGraphMorphism:
    @pytest.mark.parametrize("nodes, edges, message", [
        ({"n0": "n0"}, {"e0": "e0", "e1": "e1", "e2": "e2"},
         "node map is not total on the source nodes"),
        ({"n0": "n0", "n1": "n1", "n2": "n2", "zz": "n0"}, {"e0": "e0", "e1": "e1", "e2": "e2"},
         "node map is not total on the source nodes"),
        ({"n0": "n0", "n1": "n1", "n2": "n2"}, {"e0": "e0"},
         "edge map is not total on the source edges"),
        ({"n0": "n0", "n1": "zz", "n2": "n2"}, {"e0": "e0", "e1": "e1", "e2": "e2"},
         "node 'n1' maps to unknown node 'zz'"),
        ({"n0": "n0", "n1": "n2", "n2": "n2"}, {"e0": "e0", "e1": "e1", "e2": "e2"},
         "node 'n1' changes sort under the map"),
        ({"n0": "n0", "n1": "n1", "n2": "n2"}, {"e0": "e0", "e1": "zz", "e2": "e2"},
         "edge 'e1' maps to unknown edge 'zz'"),
        ({"n0": "n0", "n1": "n1", "n2": "n2"}, {"e0": "e1", "e1": "e1", "e2": "e2"},
         "edge 'e0' changes sort under the map"),
        ({"n0": "n0", "n1": "n1", "n2": "n2"}, {"e0": "e0", "e1": "e2", "e2": "e1"},
         "edge 'e1' breaks incidence under the map"),
        ({"n0": "n1", "n1": "n0", "n2": "n2"}, {"e0": "zz", "e1": "e1", "e2": "e2"},
         "edge 'e0' maps to unknown edge 'zz'"),
    ], ids=["partial-nodes", "extra-node", "partial-edges", "unknown-node", "node-sort",
            "unknown-edge", "edge-sort", "incidence", "first-edge-named"])
    def test_each_refusal_has_its_message(self, nodes, edges, message):
        g = triangle()
        with pytest.raises(ValueError) as refused:
            GraphMorphism(g, g, nodes, edges)
        assert str(refused.value) == message

    def test_must_be_total(self):
        g = triangle()
        with pytest.raises(ValueError, match="total"):
            GraphMorphism(g, g, {"n0": "n0"}, {})

    def test_must_preserve_incidence(self):
        g = triangle()
        maps = {"n0": "n1", "n1": "n0", "n2": "n2"}
        # e0 runs n0 -> n1 but its image e0 runs n0 -> n1, so sources disagree
        with pytest.raises(ValueError):
            GraphMorphism(g, g, maps, {"e0": "e0", "e1": "e2", "e2": "e1"})

    def test_must_preserve_sorts(self):
        src = Graph(SIG, {"x": "p"}, {})
        tgt = Graph(SIG, {"y": "q"}, {})
        with pytest.raises(ValueError):
            GraphMorphism(src, tgt, {"x": "y"}, {})

    def test_identity_and_composition(self):
        g = triangle()
        ident = identity_morphism(g)
        assert ident.element_map() == {x: x for x in g.element_ids()}
        assert compose(ident, ident) == ident

    def test_composition_tracks_images(self):
        single = Graph(SIG, {"x": "p"}, {})
        pair = Graph(SIG, {"y0": "p", "y1": "p"}, {})
        f = GraphMorphism(single, pair, {"x": "y0"}, {})
        g = GraphMorphism(pair, pair, {"y0": "y1", "y1": "y0"}, {})
        assert compose(g, f).node_map == {"x": "y1"}

    def test_mono_detects_collapsed_nodes(self):
        pair = Graph(SIG, {"y0": "p", "y1": "p"}, {})
        single = Graph(SIG, {"x": "p"}, {})
        collapse = GraphMorphism(pair, single, {"y0": "x", "y1": "x"}, {})
        assert not is_mono(collapse)
        assert is_mono(identity_morphism(pair))


def brute_force_morphisms(pattern, host):
    """Oracle: try every node assignment and every edge assignment outright."""
    found = []
    p_nodes = sorted(pattern.nodes)
    p_edges = sorted(pattern.edges)
    for node_images in itertools.product(sorted(host.nodes), repeat=len(p_nodes)):
        node_map = dict(zip(p_nodes, node_images))
        if any(host.nodes[node_map[n]] != pattern.nodes[n] for n in p_nodes):
            continue
        for edge_images in itertools.product(sorted(host.edges), repeat=len(p_edges)):
            edge_map = dict(zip(p_edges, edge_images))
            ok = True
            for e in p_edges:
                sort, src, tgt = pattern.edges[e]
                h_sort, h_src, h_tgt = host.edges[edge_map[e]]
                if (h_sort, h_src, h_tgt) != (sort, node_map[src], node_map[tgt]):
                    ok = False
                    break
            if ok:
                found.append((tuple(node_map[n] for n in p_nodes),
                              tuple(edge_map[e] for e in p_edges)))
    return found


class TestEnumerateMorphisms:
    @pytest.mark.parametrize("pattern, host", [
        (Graph(SIG, {"x": "p"}, {}), triangle()),
        (Graph(SIG, {"x": "p", "y": "q"}, {"e": ("b", "x", "y")}), triangle()),
        (Graph(SIG, {"x": "p", "y": "p"}, {"e": ("a", "x", "y")}), triangle()),
        (triangle(), triangle()),
        (Graph(SIG, {"x": "p"}, {"e": ("a", "x", "x")}), triangle()),
    ])
    def test_agrees_with_brute_force(self, pattern, host):
        got = [(tuple(m.node_map[n] for n in sorted(pattern.nodes)),
                tuple(m.edge_map[e] for e in sorted(pattern.edges)))
               for m in enumerate_morphisms(pattern, host)]
        assert sorted(got) == sorted(brute_force_morphisms(pattern, host))
        assert len(set(got)) == len(got)

    def test_injective_only_filters(self):
        pattern = Graph(SIG, {"x": "p", "y": "p"}, {})
        host = triangle()
        everything = enumerate_morphisms(pattern, host)
        injective = enumerate_morphisms(pattern, host, injective_only=True)
        assert len(everything) == 4
        assert len(injective) == 2
        assert all(is_mono(m) for m in injective)

    def test_deterministic_order(self):
        pattern = Graph(SIG, {"x": "p"}, {})
        host = triangle()
        first = [m.node_map["x"] for m in enumerate_morphisms(pattern, host)]
        second = [m.node_map["x"] for m in enumerate_morphisms(pattern, host)]
        assert first == second == ["n0", "n1"]

    def test_admitted_sets_narrow_nodes_and_edges(self):
        host = triangle()
        pattern = Graph(SIG, {"x": "p", "y": "q"}, {"e": ("b", "x", "y")})
        everything = enumerate_morphisms(pattern, host)
        assert [m.edge_map["e"] for m in everything] == ["e1", "e2"]
        assert [m.node_map["x"] for m in enumerate_morphisms(
            pattern, host, admitted={"x": {"n1"}})] == ["n1"]
        assert [m.edge_map["e"] for m in enumerate_morphisms(
            pattern, host, admitted={"e": {"e1"}})] == ["e1"]
        assert enumerate_morphisms(pattern, host, admitted={"y": set()}) == []
        shared = {"n0", "n1"}
        enumerate_morphisms(pattern, host, admitted={"x": shared, "e": {"e2"}})
        assert shared == {"n0", "n1"}

    def test_a_limit_stops_the_search_at_that_many_morphisms(self):
        pattern = Graph(SIG, {"x": "p", "y": "p"}, {})
        host = triangle()
        everything = enumerate_morphisms(pattern, host)
        assert len(everything) == 4
        for limit in (1, 3, 4, 5):
            found = enumerate_morphisms(pattern, host, limit=limit)
            assert len(found) == min(limit, 4)
            assert all(m in everything for m in found)
        assert enumerate_morphisms(pattern, host, True, {"x": {"n0"}, "y": {"n0"}}, 1) == []
        with pytest.raises(ValueError, match="positive"):
            enumerate_morphisms(pattern, host, limit=0)


class TestIsomorphism:
    def test_finds_relabeling(self):
        g = triangle()
        h = rename_graph(g, {"n0": "m0", "n1": "m1", "n2": "m2", "e0": "f0"})
        iso = is_isomorphic(g, h)
        assert iso is not None
        assert is_mono(iso)
        assert set(iso.node_map.values()) == set(h.nodes)

    def test_distinguishes_direction(self):
        g = Graph(SIG, {"x": "p", "y": "p"}, {"e": ("a", "x", "y"), "f": ("a", "x", "y")})
        h = Graph(SIG, {"x": "p", "y": "p"}, {"e": ("a", "x", "y"), "f": ("a", "y", "x")})
        assert is_isomorphic(g, h) is None

    def test_counts_matter(self):
        g = Graph(SIG, {"x": "p"}, {})
        h = Graph(SIG, {"x": "p", "y": "p"}, {})
        assert is_isomorphic(g, h) is None


# Random system 7 after three pct steps is 27 nodes and no edges in two
# classes of 13 interchangeable nodes: at least (13!)^2 isomorphisms to its
# renamed copy.  Run in a child capped at 512 MiB of address space, so a
# search that lists them all fails with MemoryError rather than exhausting
# the machine.
MANY_AUTOMORPHISMS = """
import resource, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))
from randgen import random_system
from weakspan import cmd_run
from weakspan.constructions import is_attr_isomorphic, rename_attributed
final = cmd_run(random_system(7), 3, "pct").final
ids = final.element_ids()
renamed = rename_attributed(final, {x: f"r{k}" for k, x in enumerate(reversed(ids))})
start = time.perf_counter()
witness = is_attr_isomorphic(final, renamed)
took = time.perf_counter() - start
print(len(final.graph.nodes), len(final.graph.edges), witness is not None, took)
"""


def test_the_isomorphism_test_stops_at_its_first_witness():
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-c", MANY_AUTOMORPHISMS], env=env,
                          capture_output=True, text=True, timeout=10)
    assert done.returncode == 0, done.stderr[-500:]
    nodes, edges, found, took = done.stdout.split()
    assert (nodes, edges, found) == ("27", "0", "True")
    assert float(took) < 1.0


class TestDisjointUnion:
    def test_injections_cover_everything_disjointly(self):
        g = triangle()
        total, in_a, in_b = disjoint_union(g, g)
        assert total.element_count() == 2 * g.element_count()
        image_a = {in_a.apply(x) for x in g.element_ids()}
        image_b = {in_b.apply(x) for x in g.element_ids()}
        assert image_a.isdisjoint(image_b)
        assert image_a | image_b == set(total.element_ids())

    def test_rejects_signature_mismatch(self):
        other = Graph(SortSignature(["p"], {}), {"x": "p"}, {})
        with pytest.raises(ValueError):
            disjoint_union(triangle(), other)


def test_rename_graph_rejects_collisions():
    g = triangle()
    with pytest.raises(ValueError, match="collapses"):
        rename_graph(g, {"n0": "same", "n1": "same"})
