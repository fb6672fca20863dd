"""Seeded generators of small rewriting instances for the property tests.

Every function takes a ``random.Random`` and is deterministic given its
state, so a failing case can be replayed from the seed alone.  Instances are
built to be applicable: left sides mirror a piece of the host, deletions are
planned only where the gluing conditions hold, and the match assignment is
derived from the host values the left side was traced from.
"""

import random

from weakspan import (
    AlgebraMorphism,
    AttrMorphism,
    AttributedGraph,
    Graph,
    GraphMorphism,
    LabelSet,
    Lit,
    Match,
    NatPlus,
    OpApp,
    SortSignature,
    SystemSpec,
    TermAlg,
    Var,
    WeakSpan,
    inclusion,
)
from weakspan.algebras import value_sort_key
from weakspan.constructions import coproduct_rule

SIG = SortSignature(["p", "q"], {"a": ("p", "p"), "b": ("p", "q")})
NAT = NatPlus()


def random_host(rng, prefix="", max_elements=5):
    """A small attributed graph over the fixed two-sort signature."""
    n_nodes = rng.randint(1, 3)
    nodes = {f"{prefix}n{k}": rng.choice(("p", "p", "q")) for k in range(n_nodes)}
    slots = []
    for src, src_sort in nodes.items():
        if src_sort != "p":
            continue
        for tgt, tgt_sort in nodes.items():
            slots.append((src, tgt, "a" if tgt_sort == "p" else "b"))
    rng.shuffle(slots)
    edges = {}
    for k, (src, tgt, sort) in enumerate(slots[: max(0, max_elements - n_nodes)]):
        if rng.random() < 0.55:
            edges[f"{prefix}e{k}"] = (sort, src, tgt)
    graph = Graph(SIG, nodes, edges)
    labeling = {x: LabelSet(rng.sample(range(4), rng.choice((0, 1, 1, 2))))
                for x in graph.element_ids()}
    return AttributedGraph(graph, NAT, labeling)


def _random_term(rng, values):
    """A term over the already-bound variables (any value is acceptable)."""
    names = sorted(values)
    roll = rng.random()
    if names and roll < 0.4:
        return Var(rng.choice(names))
    if names and roll < 0.6:
        return OpApp("+", (Var(rng.choice(names)), Lit(rng.randrange(3))))
    return Lit(rng.randrange(5))


def random_instance(rng, host, ids=None, var_names=("u", "v"), name="rnd"):
    """A rule plus an occurrence on ``host`` that is applicable by construction.

    The rule's sides reuse the host ids they were traced from, so the match
    is an identity-on-image inclusion.  ``ids`` restricts the occurrence to
    that subset of host elements; ``var_names`` are the variables the rule
    may bind.  Deletion is planned only for isolated nodes and for edges,
    and a deleted element's left label always covers its full host label.
    """
    graph = host.graph
    node_pool = sorted(n for n in graph.nodes if ids is None or n in ids)
    image_nodes = sorted(rng.sample(node_pool, rng.randint(1, min(3, len(node_pool)))))
    image_edges = sorted(
        e for e, (sort, src, tgt) in graph.edges.items()
        if (ids is None or e in ids) and src in image_nodes and tgt in image_nodes
        and rng.random() < 0.6)

    incident = set()
    for _sort, src, tgt in graph.edges.values():
        incident.add(src)
        incident.add(tgt)
    drop_nodes = {n for n in image_nodes if n not in incident and rng.random() < 0.35}
    drop_edges = {e for e in image_edges if rng.random() < 0.45}
    dropped = drop_nodes | drop_edges

    values: dict[str, int] = {}
    unused = list(var_names)

    def represent(value):
        bound = sorted(w for w, v in values.items() if v == value)
        if bound and rng.random() < 0.5:
            return Var(rng.choice(bound))
        if unused and rng.random() < 0.4:
            w = unused.pop(0)
            values[w] = value
            return Var(w)
        return Lit(value)

    l_labels = {}
    for x in image_nodes + image_edges:
        have = sorted(host.label(x))
        if x in dropped:
            chosen = have
        else:
            chosen = [v for v in have if rng.random() < 0.6]
        terms = [represent(v) for v in chosen]
        if x not in dropped and len(values) >= 2 and rng.random() < 0.3:
            w1, w2 = sorted(values)[:2]
            if values[w1] + values[w2] in have:
                terms.append(OpApp("+", (Var(w1), Var(w2))))
        l_labels[x] = LabelSet(terms)

    algebra = TermAlg(values)

    kept_nodes = [n for n in image_nodes if n not in drop_nodes]
    kept_edges = [e for e in image_edges if e not in drop_edges]
    # terms are drawn in a fixed order: set order follows string hashes
    k_labels = {x: LabelSet(t for t in sorted(l_labels[x], key=value_sort_key)
                            if rng.random() < 0.7)
                for x in kept_nodes + kept_edges}

    i_edges = [e for e in kept_edges if rng.random() < 0.6]
    needed = {end for e in i_edges for end in graph.edges[e][1:]}
    i_nodes = [n for n in kept_nodes if n in needed or rng.random() < 0.6]
    i_labels = {x: LabelSet(t for t in sorted(k_labels[x], key=value_sort_key)
                            if rng.random() < 0.7)
                for x in i_nodes + i_edges}

    r_nodes = {n: graph.nodes[n] for n in i_nodes}
    r_edges = {e: graph.edges[e] for e in i_edges}
    r_labels = {x: set(i_labels[x]) for x in i_nodes + i_edges}
    for x in list(r_labels):
        if rng.random() < 0.3:
            r_labels[x].add(_random_term(rng, values))
    if rng.random() < 0.4:
        nid = f"{name}.new0"
        r_nodes[nid] = rng.choice(("p", "q"))
        r_labels[nid] = {_random_term(rng, values)} if rng.random() < 0.7 else set()
    if rng.random() < 0.35:
        combos = [(src, tgt, "a" if r_nodes[tgt] == "p" else "b")
                  for src in r_nodes if r_nodes[src] == "p"
                  for tgt in r_nodes]
        if combos:
            src, tgt, sort = rng.choice(combos)
            r_edges[f"{name}.new1"] = (sort, src, tgt)
            r_labels[f"{name}.new1"] = set()

    L = AttributedGraph(
        Graph(SIG, {n: graph.nodes[n] for n in image_nodes},
              {e: graph.edges[e] for e in image_edges}),
        algebra, l_labels)
    K = AttributedGraph(
        Graph(SIG, {n: graph.nodes[n] for n in kept_nodes},
              {e: graph.edges[e] for e in kept_edges}),
        algebra, k_labels)
    required = AttributedGraph(
        Graph(SIG, {n: graph.nodes[n] for n in i_nodes},
              {e: graph.edges[e] for e in i_edges}),
        algebra, i_labels)
    R = AttributedGraph(Graph(SIG, r_nodes, r_edges), algebra, r_labels)

    rule = WeakSpan(name=name, L=L, K=K, I=required, R=R,
                    l=inclusion(K, L), i=inclusion(required, K),
                    r=inclusion(required, R))
    sigma = GraphMorphism(L.graph, graph,
                          {n: n for n in L.graph.nodes},
                          {e: e for e in L.graph.edges})
    alpha = AlgebraMorphism(algebra, NAT, values)
    return Match(rule, AttrMorphism(L, host, sigma, alpha))


def random_independent_pair(rng):
    """Two applicable instances whose occurrences sit in disjoint host pieces.

    Returns (host, match1, match2).  The matches use disjoint variable names
    so their assignments merge cleanly into a combined occurrence.
    """
    piece_a = random_host(rng, prefix="A")
    piece_b = random_host(rng, prefix="B")
    nodes = dict(piece_a.graph.nodes)
    nodes.update(piece_b.graph.nodes)
    edges = dict(piece_a.graph.edges)
    edges.update(piece_b.graph.edges)
    labeling = {x: piece_a.label(x) for x in piece_a.element_ids()}
    labeling.update({x: piece_b.label(x) for x in piece_b.element_ids()})
    host = AttributedGraph(Graph(SIG, nodes, edges), NAT, labeling)
    m1 = random_instance(rng, host, ids=set(piece_a.element_ids()),
                         var_names=("u", "v"), name="rndA")
    m2 = random_instance(rng, host, ids=set(piece_b.element_ids()),
                         var_names=("w", "z"), name="rndB")
    return host, m1, m2


def coproduct_match(m1, m2):
    """The combined occurrence of the coproduct rule at two disjoint matches.

    Requires disjoint images and disjoint variable names (as produced by
    ``random_independent_pair``).
    """
    rule = coproduct_rule(m1.rule, m2.rule)
    node_map = {}
    edge_map = {}
    for tag, m in (("du1", m1), ("du2", m2)):
        for n in m.rule.L.graph.nodes:
            node_map[f"{tag}:{n}"] = m.m.sigma.node_map[n]
        for e in m.rule.L.graph.edges:
            edge_map[f"{tag}:{e}"] = m.m.sigma.edge_map[e]
    sigma = GraphMorphism(rule.L.graph, m1.host.graph, node_map, edge_map)
    assignment = dict(m1.m.alpha.assignment)
    assignment.update(m2.m.alpha.assignment)
    alpha = AlgebraMorphism(rule.algebra, m1.host.algebra, assignment)
    return Match(rule, AttrMorphism(rule.L, m1.host, sigma, alpha))


def left_side_twin(rule, name):
    """A rule under ``name`` whose left side equals ``rule.L`` as a separate
    object, but which deletes nothing, requires the whole of L and adds one
    unlabelled node: the same matches, a different application."""
    L = AttributedGraph(Graph(SIG, dict(rule.L.graph.nodes), dict(rule.L.graph.edges)),
                        rule.algebra, dict(rule.L.labeling))
    R = AttributedGraph(Graph(SIG, {**L.graph.nodes, f"{name}.new": "q"}, L.graph.edges),
                        rule.algebra, {**L.labeling, f"{name}.new": LabelSet()})
    return WeakSpan(name=name, L=L, K=L, I=L, R=R,
                    l=inclusion(L, L), i=inclusion(L, L), r=inclusion(L, R))


def random_system(seed):
    """A random nat host and one to three rules traced from it, replayed from
    ``seed``."""
    rng = random.Random(seed)
    host = random_host(rng, max_elements=rng.randint(1, 7))
    rules = [random_instance(rng, host, name=f"r{k}").rule for k in range(rng.randint(1, 3))]
    return SystemSpec(signature=host.graph.signature, algebra=host.algebra,
                      rules=rules, host=host)
