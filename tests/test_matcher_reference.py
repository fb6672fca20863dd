"""The matcher against two references.

`filtered_matches` is the matcher as it was before the search admitted host
elements by label: it enumerates every injective graph morphism and only
then applies the label condition.  `find_matches` must return the same
matches (node map, edge map and assignment) in the same order.

networkx's `DiGraphMatcher` is an independent oracle for the node maps:
injective morphisms are its subgraph monomorphisms, with sorts (and, for
`find_matches` on enumerated rules, label inclusion) as the matching rule.
"""

import itertools
import random

import pytest

from weakspan import (
    AlgebraMorphism,
    AttrMorphism,
    AttributedGraph,
    FiniteEnum,
    Graph,
    GraphMorphism,
    HexGridSpec,
    LabelSet,
    Lit,
    Match,
    OpApp,
    SortSignature,
    SystemSpec,
    TermAlg,
    Var,
    WeakSpan,
    cmd_hexca,
    cmd_run,
    enumerate_morphisms,
    evaluate_term,
    fibonacci_system,
    find_matches,
    hex_system,
    huw_rules,
    inclusion,
    load_system,
    rule_matches,
)
from weakspan.algebras import render_value, term_variables
from weakspan.cli import main
from weakspan.constructions import coproduct_rule, identity_morphism
from weakspan.rewriting import _solve_label_constraints

from randgen import (NAT, SIG as TERM_SIG, left_side_twin, random_host, random_independent_pair,
                     random_instance, random_system)


def filtered_matches(rule, host):
    """Every match as (node map, edge map, assignment), enumerate-then-filter."""
    rule_alg = rule.algebra
    out = []
    for sigma in enumerate_morphisms(rule.L.graph, host.graph, injective_only=True):
        constraints = []
        feasible = True
        for x in rule.L.element_ids():
            allowed = host.label(sigma.apply(x))
            for t in rule.L.label(x):
                if not allowed:
                    feasible = False
                    break
                constraints.append((t, allowed))
            if not feasible:
                break
        if not feasible:
            continue
        if isinstance(rule_alg, FiniteEnum):
            ok = all(t in s for t, s in constraints)
            assignments = [{}] if ok else []
        else:
            assignments = _solve_label_constraints(constraints, host.algebra)
        assignments.sort(key=lambda a: tuple(sorted((v, render_value(x)) for v, x in a.items())))
        for assignment in assignments:
            alpha = AlgebraMorphism(rule_alg, host.algebra, assignment)
            out.append((sigma.node_map, sigma.edge_map, alpha.assignment))
    return out


def assert_same_matches(rules, host):
    """Same matches as the filtered matcher, each a valid attributed
    morphism: `find_matches` builds every match without the label check,
    so this is where it is made."""
    for rule in rules:
        found = find_matches(rule, host)
        got = [(m.m.sigma.node_map, m.m.sigma.edge_map, m.alpha.assignment) for m in found]
        assert got == filtered_matches(rule, host), rule.name
        for match in found:   # the checked constructor raises on any violation
            AttrMorphism(match.m.source, match.m.target, match.m.sigma, match.alpha)


def test_every_hex_growth_step():
    rules = huw_rules()
    run = cmd_hexca(HexGridSpec(radius=5, seeds=((0, 0),)), generations=3)
    for host in run.graphs:
        assert_same_matches(rules, host)


def test_radius_8_preset_run(tmp_path, capsys):
    preset = tmp_path / "hex8.json"
    assert main(["preset", "hex", "--radius", "8", "--out", str(preset)]) == 0
    system = load_system(preset)
    run = cmd_run(system, 2, "pct")
    assert [step.applied for step in run.steps] == [6, 6]
    for host in run.history:
        assert_same_matches(system.rules, host)


@pytest.mark.parametrize("mode", ["pct", "sequential"])
def test_thirty_fibonacci_steps(mode):
    system = fibonacci_system()
    run = cmd_run(system, 30, mode)
    assert len(run.steps) == 30
    for host in run.history:
        assert_same_matches(system.rules, host)


def test_random_families():
    for trial in range(100):
        rng = random.Random(trial)
        host = random_host(rng)
        assert_same_matches([random_instance(rng, host).rule], host)
    for trial in range(100):
        host, m1, m2 = random_independent_pair(random.Random(9000 + trial))
        assert_same_matches([m1.rule, m2.rule, coproduct_rule(m1.rule, m2.rule)], host)
    for trial in range(100):
        rng = random.Random(5000 + trial)
        host = random_host(rng)
        assert_same_matches([random_instance(rng, host, var_names=("u", "v"), name="one").rule,
                             random_instance(rng, host, var_names=("w", "z"), name="two").rule],
                            host)


def assert_constructors_accept(system, host):
    """Every match a step lists: ``find_matches`` builds each without the
    constructors' checks, and a rule that shares its search makes its own
    through ``Match``; each must pass them all, label check included, and
    equal what they build."""
    for rule, matches in zip(system.rules, rule_matches(system, host), strict=True):
        for match in matches:
            sigma, alpha = match.m.sigma, match.alpha
            rebuilt = Match(rule, AttrMorphism(
                rule.L, host,
                GraphMorphism(rule.L.graph, host.graph, sigma.node_map, sigma.edge_map),
                AlgebraMorphism(rule.algebra, host.algebra, alpha.assignment)))
            assert rebuilt == match, rule.name
            assert (match.rule, match.host) == (rule, host)


def test_search_results_hold_against_the_constructors():
    fib = fibonacci_system()
    for mode in ("pct", "sequential"):
        for host in cmd_run(fib, 12, mode).history:
            assert_constructors_accept(fib, host)
    grid = HexGridSpec(radius=6, seeds=((0, 0), (2, -1)))
    hexes = hex_system(grid)
    for host in cmd_hexca(grid, generations=2).graphs:
        assert_constructors_accept(hexes, host)
    matched = 0
    for seed in range(60):
        system = random_system(seed)
        # a second rule with an equal left side takes the first one's search
        rules = [*system.rules, left_side_twin(system.rules[0], "twin")]
        twinned = SystemSpec(system.signature, system.algebra, rules, system.host)
        for host in cmd_run(system, 3, "sequential").history:
            assert_constructors_accept(twinned, host)
            matched += len(find_matches(rules[0], host))
    assert matched >= 60


def test_a_warm_hex_run_constructs_no_morphism_and_no_match(monkeypatch):
    """The search builds its morphisms and matches from what it placed, so
    a run whose rules and disk are built calls none of their constructors."""
    cmd_hexca(HexGridSpec(radius=5), 3)
    built = []
    for cls in (GraphMorphism, AttrMorphism, Match):
        def counting(self, *args, real=cls.__init__, name=cls.__name__, **kwargs):
            built.append(name)
            real(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    result = cmd_hexca(HexGridSpec(radius=5), 3)
    assert [step.applied for step in result.steps] == [6, 6, 18]
    assert built == []


SIG = SortSignature(["p", "q"], {"a": ("p", "p"), "b": ("p", "q"), "c": ("p", "p")})
STATES = FiniteEnum(("0", "1"))


def random_enum_graph(rng, n_nodes, n_edges, simple, prefix, label_sizes=(0, 1, 1, 2)):
    """A random graph over SIG with enumerated labels of the given sizes; with
    ``simple`` no two edges share their ordered pair of endpoints (networkx's
    DiGraph)."""
    nodes = {f"{prefix}{k}": rng.choice("ppq") for k in range(n_nodes)}
    slots = [(s, t) for s in nodes if nodes[s] == "p" for t in nodes]
    edges = {}
    for k in range(n_edges):
        if not slots:
            break
        src, tgt = rng.choice(slots)
        if simple:
            slots.remove((src, tgt))
        sort = "b" if nodes[tgt] == "q" else rng.choice("ac")
        edges[f"{prefix}e{k}"] = (sort, src, tgt)
    labels = {x: LabelSet(rng.sample(("0", "1"), rng.choice(label_sizes)))
              for x in list(nodes) + list(edges)}
    return AttributedGraph(Graph(SIG, nodes, edges), STATES, labels)


def identity_rule(pattern):
    """A rule that keeps and requires its whole left side."""
    ident = AttrMorphism(pattern, pattern, identity_morphism(pattern.graph),
                         AlgebraMorphism.identity(pattern.algebra))
    return WeakSpan(name="keep", L=pattern, K=pattern, I=pattern, R=pattern,
                    l=ident, i=ident, r=ident)


def test_random_multigraphs_with_loops():
    matched = 0
    for trial in range(150):
        rng = random.Random(700 + trial)
        host = random_enum_graph(rng, rng.randint(2, 6), rng.randint(0, 12), False, "h")
        pattern = random_enum_graph(rng, rng.randint(1, 3), rng.randint(0, 4), False, "x",
                                    (0, 0, 1))
        assert_same_matches([identity_rule(pattern)], host)
        matched += bool(find_matches(identity_rule(pattern), host))
    assert matched >= 40


def nx_graph(nx, g, labels=None):
    out = nx.DiGraph()
    for n, sort in g.nodes.items():
        out.add_node(n, sort=sort, label=labels[n] if labels else LabelSet())
    for e, (sort, src, tgt) in g.edges.items():
        assert not out.has_edge(src, tgt), "the oracle takes graphs without parallel edges"
        out.add_edge(src, tgt, sort=sort, label=labels[e] if labels else LabelSet())
    return out


def _admits(host_attrs, pattern_attrs):
    return host_attrs["sort"] == pattern_attrs["sort"] and pattern_attrs["label"] <= host_attrs["label"]


def oracle_node_maps(pattern, host, pattern_labels=None, host_labels=None):
    """Node maps of networkx's subgraph monomorphisms; skips without networkx."""
    nx = pytest.importorskip("networkx")
    matcher = nx.algorithms.isomorphism.DiGraphMatcher(
        nx_graph(nx, host, host_labels), nx_graph(nx, pattern, pattern_labels),
        node_match=_admits, edge_match=_admits)
    return sorted(tuple(sorted((p, h) for h, p in found.items()))
                  for found in matcher.subgraph_monomorphisms_iter())


def node_maps(morphisms):
    return [tuple(sorted(sigma.node_map.items())) for sigma in morphisms]


def test_hex_rules_at_radius_3_agree_with_networkx():
    run = cmd_hexca(HexGridSpec(radius=3, seeds=((0, 0),)), generations=2)
    rules = huw_rules()
    pattern = rules[0].L.graph
    matched = 0
    for host in run.graphs:
        assert node_maps(enumerate_morphisms(pattern, host.graph, injective_only=True)) \
            == oracle_node_maps(pattern, host.graph)
        for rule in rules:
            found = node_maps(m.m.sigma for m in find_matches(rule, host))
            assert found == oracle_node_maps(rule.L.graph, host.graph,
                                             rule.L.labeling, host.labeling)
            matched += len(found)
    assert matched == 6 + 6


def test_random_graphs_agree_with_networkx():
    matched = 0
    for trial in range(150):
        rng = random.Random(trial)
        host = random_enum_graph(rng, rng.randint(2, 7), rng.randint(0, 14), True, "h")
        pattern = random_enum_graph(rng, rng.randint(1, 4), rng.randint(0, 5), True, "x",
                                    (0, 0, 1))
        unlabelled = node_maps(enumerate_morphisms(pattern.graph, host.graph,
                                                   injective_only=True))
        assert unlabelled == oracle_node_maps(pattern.graph, host.graph)
        found = node_maps(m.m.sigma for m in find_matches(identity_rule(pattern), host))
        assert found == oracle_node_maps(pattern.graph, host.graph,
                                         pattern.labeling, host.labeling)
        matched += bool(found)
    assert matched >= 20


WIDE = FiniteEnum("abcdef")


def wide_enum_graph(rng, n_nodes, n_edges, prefix, sizes):
    """A multigraph over SIG whose labels are random subsets of six values."""
    graph = random_enum_graph(rng, n_nodes, n_edges, False, prefix).graph
    labels = {x: LabelSet(rng.sample("abcdef", rng.choice(sizes)))
              for x in graph.element_ids()}
    return AttributedGraph(graph, WIDE, labels)


def wide_term_host(rng):
    """A host over randgen's signature with many distinct natural-number
    labels, two in five of them empty."""
    nodes = {f"h{k}": rng.choice("ppq") if k else "p" for k in range(rng.randint(3, 9))}
    slots = [(s, t) for s in nodes if nodes[s] == "p" for t in nodes]
    edges = {}
    for k in range(rng.randint(0, 14)):
        src, tgt = rng.choice(slots)
        edges[f"he{k}"] = ("b" if nodes[tgt] == "q" else "a", src, tgt)
    graph = Graph(TERM_SIG, nodes, edges)
    labels = {x: LabelSet(rng.sample(range(6), rng.choice((0, 0, 1, 2, 3))))
              for x in graph.element_ids()}
    return AttributedGraph(graph, NAT, labels)


def test_label_groups_admit_what_enumerate_then_filter_admits():
    """Hosts with many distinct labels: admission a label group at a time
    must keep every match the filtered matcher finds, in the same order."""
    groups = matched = 0
    for trial in range(150):
        rng = random.Random(3100 + trial)
        host = wide_enum_graph(rng, rng.randint(3, 9), rng.randint(0, 16), "h", (0, 2, 3, 4))
        pattern = wide_enum_graph(rng, rng.randint(1, 3), rng.randint(0, 3), "x", (0, 0, 1, 2))
        rule = identity_rule(pattern)
        assert_same_matches([rule], host)
        groups += sum(map(len, host.label_groups().values()))
        matched += len(find_matches(rule, host))
    assert groups >= 150 * 4 and matched >= 100
    matched = 0
    for trial in range(150):
        rng = random.Random(4100 + trial)
        host = wide_term_host(rng)
        rules = [random_instance(rng, host, var_names=("u", "v"), name="one").rule,
                 random_instance(rng, host, var_names=("w", "z"), name="two").rule]
        assert_same_matches(rules, host)
        matched += sum(len(find_matches(rule, host)) for rule in rules)
    assert matched >= 1000


def listed_once(rules, host):
    """How many matches ``find_matches`` lists for ``rules``, asserting that
    no (node map, edge map, assignment) comes twice."""
    listed = 0
    for rule in rules:
        keys = [(tuple(sorted(m.m.sigma.node_map.items())),
                 tuple(sorted(m.m.sigma.edge_map.items())),
                 frozenset(m.alpha.assignment.items())) for m in find_matches(rule, host)]
        assert len(keys) == len(set(keys)), rule.name
        listed += len(keys)
    return listed


def test_each_match_is_listed_once():
    """A match extends an assignment by sending a term to one host value,
    and a sum's split is fixed by its left summand's value, so two search
    paths never end in one match: the label solver keeps no filter of
    repeats, and none may appear."""
    listed = 0
    for seed in range(60):
        system = random_system(seed)
        for host in cmd_run(system, 3, "sequential").history:
            listed += listed_once(system.rules, host)
    for trial in range(50):
        rng = random.Random(4100 + trial)
        host = wide_term_host(rng)
        listed += listed_once([random_instance(rng, host, var_names=("u", "v"), name="one").rule,
                               random_instance(rng, host, var_names=("w", "z"), name="two").rule],
                              host)
    fib = fibonacci_system()
    for host in cmd_run(fib, 30, "pct").history:
        listed += listed_once(fib.rules, host)
    assert listed >= 1000
    # u+v+z = 30 has C(32, 2) = 496 solutions over the naturals
    terms = TermAlg(("u", "v", "z"))
    point = Graph(TERM_SIG, {"x": "p"}, {})
    left = AttributedGraph(point, terms, {"x": [OpApp("+", (OpApp("+", (Var("u"), Var("v"))),
                                                             Var("z")))]})
    kept = AttributedGraph(point, terms)
    split = WeakSpan(name="split", L=left, K=kept, I=kept, R=kept,
                     l=inclusion(kept, left), i=inclusion(kept, kept), r=inclusion(kept, kept))
    assert listed_once([split], AttributedGraph(point, NAT, {"x": [30]})) == 496


def _random_sum(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        return Var(rng.choice("uvw"))
    if roll < 0.5:
        return Lit(rng.randrange(3))
    return OpApp("+", (_random_sum(rng, depth - 1), _random_sum(rng, depth - 1)))


def test_sum_constraints_solve_as_a_brute_force_over_values():
    """Label constraints with nested sums, in random order, against trying
    every assignment of 0..7: a sum whose summands are bound is evaluated
    instead of split, and the solutions stay the same."""
    solved = 0
    for trial in range(300):
        rng = random.Random(7100 + trial)
        constraints = [(_random_sum(rng, 2), LabelSet(rng.sample(range(8), rng.randint(1, 3))))
                       for _ in range(rng.randint(1, 4))]
        names = sorted({v for t, _s in constraints for v in term_variables(t)})
        want = set()
        for values in itertools.product(range(8), repeat=len(names)):
            assignment = dict(zip(names, values))
            alpha = AlgebraMorphism(TermAlg(names), NAT, assignment)
            if all(evaluate_term(t, alpha) in allowed for t, allowed in constraints):
                want.add(frozenset(assignment.items()))
        got = [frozenset(a.items()) for a in _solve_label_constraints(constraints, NAT)]
        assert len(got) == len(set(got)) and set(got) == want, trial
        solved += len(want)
    assert solved >= 100
