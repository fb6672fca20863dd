"""The plan-driven search against the recursive search it replaced.

`reference_morphisms` is `enumerate_morphisms` as it was before each
pattern's search was compiled into a `SearchPlan` and before admission was
given as sets: it rebuilt the node order and the edges at each node on
every call, called ``admits(x, h)`` on each candidate node and host edge,
tested each pattern edge when picking candidates and again when checking a
placed node, and bound the edges one recursion level each once every node
was placed.  Both must give the same node maps and edge maps in the same
order when the admitted sets hold exactly what ``admits`` accepts.
"""

import itertools
import random

import pytest

from weakspan import (
    Graph,
    GraphMorphism,
    HexGridSpec,
    SortSignature,
    cmd_hexca,
    cmd_run,
    enumerate_morphisms,
    fibonacci_system,
)
from weakspan import fileio, graphs, hexgrid, rewriting
from weakspan.cli import main


def _node_order(pattern, admitted):
    adjacency = {n: set() for n in pattern.nodes}
    for sort, src, tgt in pattern.edges.values():
        adjacency[src].add(tgt)
        adjacency[tgt].add(src)
    order = []
    placed = set()
    remaining = set(pattern.nodes)
    while remaining:
        pick = min(remaining,
                   key=lambda n: (-len(adjacency[n] & placed), admitted[n], n))
        order.append(pick)
        placed.add(pick)
        remaining.remove(pick)
    return order


def reference_morphisms(pattern, host, injective_only=False, admits=None, classes=None):
    if pattern.signature != host.signature:
        raise ValueError("pattern and host use different sort signatures")

    index = host.index
    if admits is None:
        runs = {pn: [index.nodes_by_sort.get(sort, [])] for pn, sort in pattern.nodes.items()}
    elif classes is None:
        raise ValueError("admits is tested once per class and needs the classes")
    else:
        runs = {pn: [run for run in classes.get(sort, {}).values() if admits(pn, run[0])]
                for pn, sort in pattern.nodes.items()}
    sizes = {pn: sum(map(len, admitted)) for pn, admitted in runs.items()}
    if not all(sizes.values()):
        return []

    order = _node_order(pattern, sizes)
    pattern_edges = sorted(pattern.edges)
    touching = {n: [] for n in pattern.nodes}
    for sort, src, tgt in pattern.edges.values():
        touching[src].append((sort, src, tgt))
        if tgt != src:
            touching[tgt].append((sort, src, tgt))
    edge_index = index.edges_by_ends
    out_by, in_by = index.out_by, index.in_by
    results = []

    def assign_edges(pos, node_map, edge_map, used):
        if pos == len(pattern_edges):
            results.append(GraphMorphism(pattern, host, dict(node_map), dict(edge_map)))
            return
        pe = pattern_edges[pos]
        sort, src, tgt = pattern.edges[pe]
        for he in edge_index.get((sort, node_map[src], node_map[tgt]), ()):
            if injective_only and he in used:
                continue
            if admits is not None and not admits(pe, he):
                continue
            edge_map[pe] = he
            used.add(he)
            assign_edges(pos + 1, node_map, edge_map, used)
            used.discard(he)
            del edge_map[pe]

    starts = {}

    def node_candidates(pn, node_map):
        candidate_sets = []
        for sort, src, tgt in touching[pn]:
            if src == pn and tgt in node_map and tgt != pn:
                candidate_sets.append(in_by.get((sort, node_map[tgt]), set()))
            if tgt == pn and src in node_map and src != pn:
                candidate_sets.append(out_by.get((sort, node_map[src]), set()))
        if candidate_sets:
            found = set.intersection(*candidate_sets)
            if admits is not None:
                return sorted(c for c in found if admits(pn, c))
            return sorted(found)
        if pn not in starts:
            admitted = runs[pn]
            starts[pn] = (admitted[0] if len(admitted) == 1
                          else sorted(itertools.chain.from_iterable(admitted)))
        return starts[pn]

    def consistent(pn, image, node_map):
        for sort, src, tgt in touching[pn]:
            if src == pn and (tgt == pn or tgt in node_map):
                t = image if tgt == pn else node_map[tgt]
                if (sort, image, t) not in edge_index:
                    return False
            elif tgt == pn and src in node_map:
                if (sort, node_map[src], image) not in edge_index:
                    return False
        return True

    def assign_nodes(pos, node_map, used):
        if pos == len(order):
            assign_edges(0, node_map, {}, set())
            return
        pn = order[pos]
        for c in node_candidates(pn, node_map):
            if injective_only and c in used:
                continue
            if not consistent(pn, c, node_map):
                continue
            node_map[pn] = c
            used.add(c)
            assign_nodes(pos + 1, node_map, used)
            used.discard(c)
            del node_map[pn]

    assign_nodes(0, {}, set())
    del assign_nodes, assign_edges

    node_key_ids = sorted(pattern.nodes)
    results.sort(key=lambda m: (tuple(m.node_map[n] for n in node_key_ids),
                                tuple(m.edge_map[e] for e in pattern_edges)))
    return results


def maps(morphisms):
    return [(m.node_map, m.edge_map) for m in morphisms]


SIG = SortSignature(["p", "q"], {"a": ("p", "p"), "c": ("p", "p"), "b": ("p", "q")})


def random_multigraph(rng, n_nodes, n_edges, prefix, repeat):
    """A graph over SIG with loops and parallel edges: each edge repeats an
    earlier edge's sort and ends with probability ``repeat``."""
    nodes = {f"{prefix}{k}": rng.choice("ppq") for k in range(n_nodes)}
    slots = [(s, t) for s in nodes if nodes[s] == "p" for t in nodes]
    edges = {}
    for k in range(n_edges if slots else 0):
        if edges and rng.random() < repeat:
            edges[f"{prefix}e{k}"] = rng.choice(list(edges.values()))
            continue
        src, tgt = rng.choice(slots)
        edges[f"{prefix}e{k}"] = ("b" if nodes[tgt] == "q" else rng.choice("ac"), src, tgt)
    return Graph(SIG, nodes, edges)


def random_piece(rng, host):
    """Up to four host nodes and up to four of the edges among them, renamed: a
    pattern that has matches, parallel edges included, more often than a
    random one."""
    nodes = rng.sample(sorted(host.nodes), rng.randint(0, min(4, len(host.nodes))))
    edges = [e for e, (_sort, src, tgt) in sorted(host.edges.items())
             if src in nodes and tgt in nodes]
    edges = rng.sample(edges, min(len(edges), rng.randint(0, 4)))
    return Graph(SIG, {f"x{n}": host.nodes[n] for n in nodes},
                 {f"x{e}": (sort, f"x{src}", f"x{tgt}")
                  for e in edges for sort, src, tgt in [host.edges[e]]})


def random_admission(rng, pattern, host):
    """``admits`` by label inclusion over random labels on the pattern's
    nodes and edges, with the classes that group the host nodes of each sort
    by label."""
    labels = {x: frozenset(rng.sample("xy", rng.choice((0, 0, 1)))) for x in pattern.element_ids()}
    labels.update({h: frozenset(rng.sample("xy", rng.choice((0, 1, 1, 2))))
                   for h in host.element_ids()})
    classes = {}
    for h in sorted(host.nodes):
        classes.setdefault(host.nodes[h], {}).setdefault(labels[h], []).append(h)

    def admits(x, h):
        return labels[x] <= labels[h]
    return admits, classes


def admitted_sets(pattern, host, admits):
    """The ``admitted`` argument that admits what ``admits`` does: a set for
    each pattern element that some host element of its sort fails."""
    admitted = {}
    for x in pattern.element_ids():
        if x in pattern.nodes:
            sort = pattern.nodes[x]
            of_sort = [h for h, node_sort in host.nodes.items() if node_sort == sort]
        else:
            sort = pattern.edges[x][0]
            of_sort = [h for h, (edge_sort, _src, _tgt) in host.edges.items() if edge_sort == sort]
        passed = {h for h in of_sort if admits(x, h)}
        if len(passed) < len(of_sort):
            admitted[x] = passed
    return admitted


def admission_of(host, admitted):
    """``admits`` and one-node classes that accept what ``admitted`` does."""
    def admits(x, h):
        return x not in admitted or h in admitted[x]
    classes = {}
    for h in sorted(host.nodes):
        classes.setdefault(host.nodes[h], {})[h] = [h]
    return admits, classes


@pytest.mark.parametrize("injective_only", [True, False], ids=["injective", "any"])
@pytest.mark.parametrize("admitted", [False, True], ids=["all", "admits"])
def test_random_multigraphs(injective_only, admitted):
    """Loops, parallel edges of one sort, several components, isolated nodes
    and the empty pattern, each against the recursive search.  The search
    builds each morphism without the constructor's checks, so the
    constructor must accept its maps and build an equal morphism."""
    found = parallel = components = empty = narrowed_edges = 0
    for trial in range(300):
        rng = random.Random(12000 + trial)
        host = random_multigraph(rng, rng.randint(1, 6), rng.randint(0, 12), "h", 0.4)
        pattern = (random_piece(rng, host) if rng.random() < 0.5
                   else random_multigraph(rng, rng.randint(0, 4), rng.randint(0, 5), "x", 0.3))
        admits, classes = random_admission(rng, pattern, host) if admitted else (None, None)
        sets = admitted_sets(pattern, host, admits) if admitted else None
        got = enumerate_morphisms(pattern, host, injective_only, sets)
        assert maps(got) == maps(reference_morphisms(pattern, host, injective_only,
                                                      admits, classes)), trial
        for m in got:
            assert GraphMorphism(pattern, host, m.node_map, m.edge_map) == m, trial
        found += len(got)
        narrowed_edges += bool(sets) and any(x in pattern.edges for x in sets) and bool(got)
        parallel += len(set(pattern.edges.values())) < len(pattern.edges) and bool(got)
        plan = next(iter(pattern._search_plans.values()), None)
        components += plan is not None and sum(not anchors for _n, anchors, _c in plan.steps) > 1
        empty += not pattern.nodes
    assert found >= 1000 and parallel >= 15 and components >= 80 and empty >= 50
    assert narrowed_edges >= 15 or not admitted


def test_loops_and_parallel_edges_by_hand():
    host = Graph(SIG, {"u": "p", "v": "p"},
                 {"l1": ("a", "u", "u"), "l2": ("a", "u", "u"), "f1": ("c", "u", "v"),
                  "f2": ("c", "u", "v"), "f3": ("c", "u", "v"), "g": ("a", "v", "u")})
    loops = Graph(SIG, {"x": "p"}, {"k1": ("a", "x", "x"), "k2": ("a", "x", "x")})
    twins = Graph(SIG, {"x": "p", "y": "p"}, {"d1": ("c", "x", "y"), "d2": ("c", "x", "y")})
    for pattern in (loops, twins):
        for injective_only in (True, False):
            got = enumerate_morphisms(pattern, host, injective_only)
            assert maps(got) == maps(reference_morphisms(pattern, host, injective_only))
    assert [m.edge_map for m in enumerate_morphisms(loops, host, True)] == \
        [{"k1": "l1", "k2": "l2"}, {"k1": "l2", "k2": "l1"}]
    assert len(enumerate_morphisms(loops, host)) == 4
    assert len(enumerate_morphisms(twins, host, True)) == 6
    assert len(enumerate_morphisms(twins, host)) == 9


def test_every_hex_and_fibonacci_step_host(monkeypatch):
    """Each search a step makes, with the step's own admitted sets."""
    searched = []

    def checking(pattern, host, injective_only=False, admitted=None):
        got = enumerate_morphisms(pattern, host, injective_only, admitted)
        admits, classes = admission_of(host, admitted)
        assert maps(got) == maps(reference_morphisms(pattern, host, injective_only,
                                                      admits, classes))
        searched.append(len(got))
        return got

    monkeypatch.setattr(rewriting, "enumerate_morphisms", checking)
    cmd_hexca(HexGridSpec(radius=7, seeds=((0, 0), (2, -1))), generations=3)
    cmd_run(fibonacci_system(), 30, "pct")
    cmd_run(fibonacci_system(), 30, "sequential")
    assert len(searched) == 3 * 6 + 30 + 30 and sum(searched) >= 60


def dense_digraph(rng, n_nodes, p, repeat):
    """A loopless digraph over SIG's node sort ``p``: each ordered pair
    gets an edge of sort ``a`` with probability ``p``, and each edge a
    parallel twin with probability ``repeat``."""
    nodes = {f"h{k}": "p" for k in range(n_nodes)}
    edges = {}
    for src, tgt in itertools.permutations(nodes, 2):
        if rng.random() < p:
            edges[f"e{len(edges)}"] = ("a", src, tgt)
            if rng.random() < repeat:
                edges[f"e{len(edges)}"] = ("a", src, tgt)
    return Graph(SIG, nodes, edges)


def clique(size, twin):
    """Nodes x0 < x1 < ... with an ``a`` edge from each to every later one,
    and with ``twin`` a parallel copy of the edge x0 -> x1."""
    nodes = {f"x{k}": "p" for k in range(size)}
    edges = {f"d{i}{j}": ("a", f"x{i}", f"x{j}") for i, j in itertools.combinations(range(size), 2)}
    if twin:
        edges["t01"] = ("a", "x0", "x1")
    return Graph(SIG, nodes, edges)


def narrowed(pattern, host, morphisms):
    """How many placements on the way to ``morphisms`` take several
    candidates from their first anchor and fewer after the other anchors."""
    (plan,) = pattern._search_plans.values()
    tables = (host.index.out_by, host.index.in_by)
    count = 0
    for m in morphisms:
        images = [m.node_map[n] for n in plan.order]
        for _pn, anchors, _closes in plan.steps:
            listed = [tables[t].get((sort, images[k]), set()) for t, sort, k in anchors]
            # the image is in every set, so fewer after means several before
            if len(listed) > 1 and len(set.intersection(*listed)) < len(listed[0]):
                count += 1
    return count


@pytest.mark.parametrize("injective_only", [True, False], ids=["injective", "any"])
@pytest.mark.parametrize("twin", [False, True], ids=["simple", "parallel"])
@pytest.mark.parametrize("size", [3, 4], ids=["triangle", "K4"])
def test_cliques_in_dense_digraphs(size, twin, injective_only):
    """Where a node's first anchor lists several host nodes and its other
    anchors drop some of them, with and without admitted sets on the first
    and last pattern nodes, each against the recursive search.  K4 stops at
    p = 0.4, where a 30-node host already has hundreds of them."""
    densities = (0.3, 0.4, 0.5) if size == 3 else (0.3, 0.4)
    for trial, p in enumerate(densities):
        rng = random.Random(13000 + 10 * size + trial)
        host = dense_digraph(rng, 30, p, 0.2 if twin else 0)
        # the first node starts the search, so the last node's set narrows
        # candidates that anchors gave
        ends = ("x0", f"x{size - 1}")
        for sets in (None, {x: set(rng.sample(sorted(host.nodes), 24)) for x in ends}):
            pattern = clique(size, twin)
            got = enumerate_morphisms(pattern, host, injective_only, sets)
            admits, classes = admission_of(host, sets or {})
            assert maps(got) == maps(reference_morphisms(pattern, host, injective_only,
                                                          admits, classes)), (trial, sets)
            assert len(got) >= 20 and narrowed(pattern, host, got) >= 20, (trial, sets)


def test_one_candidate_is_checked_against_the_other_anchors_by_hand():
    """z's first anchor, the c edge from x's image u, lists w alone, and the
    a edge from y's image v to w is missing: the closed edge rejects w."""
    pattern = Graph(SIG, {"x": "p", "y": "p", "z": "p"},
                    {"d": ("a", "x", "y"), "e1": ("c", "x", "z"), "e2": ("a", "y", "z")})
    host = Graph(SIG, {"u": "p", "v": "p", "w": "p", "w2": "p"},
                 {"f": ("a", "u", "v"), "g": ("c", "u", "w"), "h": ("a", "v", "w2")})
    closed = Graph(SIG, host.nodes, {**host.edges, "k": ("a", "v", "w")})
    for injective_only in (True, False):
        assert enumerate_morphisms(pattern, host, injective_only) == []
        assert reference_morphisms(pattern, host, injective_only) == []
        got = enumerate_morphisms(pattern, closed, injective_only)
        assert maps(got) == maps(reference_morphisms(pattern, closed, injective_only)) == \
            [({"x": "u", "y": "v", "z": "w"}, {"d": "f", "e1": "g", "e2": "k"})]
    (plan,) = pattern._search_plans.values()
    assert plan.steps[2] == ("z", ((0, "c", 0), (0, "a", 1)),
                             (("e1", "c", 0, 2), ("e2", "a", 1, 2)))


class CountingPlan(graphs.SearchPlan):
    built = 0

    def __init__(self, pattern, ranking):
        CountingPlan.built += 1
        super().__init__(pattern, ranking)


@pytest.fixture
def counting_plans(monkeypatch):
    monkeypatch.setattr(graphs, "SearchPlan", CountingPlan)
    CountingPlan.built = 0
    return CountingPlan


def test_hex_birth_rules_build_one_plan_per_start_node(counting_plans):
    """The six birth rules share one patch graph; each starts its search at
    its own live neighbour, so the six rankings differ, and a second run
    finds every plan built."""
    hexgrid._birth_rules.cache_clear()
    cmd_hexca(HexGridSpec(radius=5), generations=3)
    assert counting_plans.built == 6
    cmd_hexca(HexGridSpec(radius=5), generations=3)
    assert counting_plans.built == 6


def test_a_warm_run_parses_no_rule_and_builds_no_plan(counting_plans, cold_loads,
                                                     monkeypatch, tmp_path, capsys):
    """A second `weakspan run` of one file reuses the rules the first loaded,
    and with them the search plans on their left sides."""
    parsed = []
    real = fileio._parse_rule
    monkeypatch.setattr(fileio, "_parse_rule",
                        lambda *args: parsed.append(args[0]["name"]) or real(*args))
    preset, out = str(tmp_path / "hex.json"), str(tmp_path / "out.json")
    assert main(["preset", "hex", "--radius", "8", "--out", preset]) == 0
    run = ["run", "--rules", preset, "--host", preset, "--steps", "2", "--out", out]
    assert main(run) == 0
    assert (len(parsed), counting_plans.built) == (6, 6)
    parsed.clear()
    counting_plans.built = 0
    assert main(run) == 0
    assert (parsed, counting_plans.built) == ([], 0)
    capsys.readouterr()


def test_a_long_fibonacci_run_builds_one_plan(counting_plans):
    run = cmd_run(fibonacci_system(), 500, "sequential")
    assert len(run.steps) == 500
    assert counting_plans.built == 1


def test_a_plan_lists_anchors_and_closed_edges_by_position():
    pattern = Graph(SIG, {"x": "p", "y": "q"}, {"e": ("b", "x", "y")})
    enumerate_morphisms(pattern, pattern)
    (plan,) = pattern._search_plans.values()
    assert plan.order == ("x", "y") and plan.edge_order == ("e",) and not plan.parallel
    assert plan.steps == (("x", (), ()), ("y", ((0, "b", 0),), (("e", "b", 0, 1),)))
