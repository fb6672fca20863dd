import dataclasses
import itertools
import random

import pytest

from weakspan import (
    AlgebraMorphism,
    AttrMorphism,
    AttributedGraph,
    FiniteEnum,
    GluingError,
    Graph,
    GraphMorphism,
    IncoherentSetError,
    LabelSet,
    Lit,
    Match,
    NatPlus,
    OpApp,
    SortSignature,
    TermAlg,
    Var,
    WeakSpan,
    apply_direct,
    coherent_set_check,
    fibonacci_system,
    find_matches,
    pct,
)
from weakspan import ChangeSet, apply_parallel_step, derive_graph, hexgrid, rewriting, runner
from weakspan.constructions import (
    WitnessMatrix,
    apply_span_dpo,
    associated_span,
    check_parallel_coherent,
    check_parallel_independent,
    compose_attr,
    coproduct_rule,
    derive_span_from_pct,
    identity_attr,
    identity_morphism,
    is_attr_isomorphic,
    is_plain_span,
    limit_of_neutrals,
    pushout_along_neutral,
    pushout_complement,
)
from weakspan.hexgrid import HexGridSpec, ca_oracle
from weakspan.runner import cmd_hexca, cmd_run

from randgen import random_independent_pair, random_system

NAT = NatPlus()
POINT_SIG = SortSignature(["p"], {})
REG_SIG = SortSignature(["reg"], {"next": ("reg", "reg")})


@pytest.fixture
def fib():
    return fibonacci_system()


def hprime(gammas):
    """H', the result of the joint step: the host changed by ``pct``."""
    return derive_graph(gammas[0].host, pct(gammas))


def point(algebra, labels):
    g = Graph(POINT_SIG, {"x": "p"}, {})
    return AttributedGraph(g, algebra, {"x": labels})


def point_rule(name, variables, l_labels, k_labels, i_labels, r_labels):
    """A single-node rule; the node is never deleted, only relabeled."""
    alg = TermAlg(variables)
    L, K, I, R = (point(alg, ls) for ls in (l_labels, k_labels, i_labels, r_labels))
    arrow = identity_morphism(L.graph)
    ident = AlgebraMorphism.identity(alg)
    return WeakSpan(name=name, L=L, K=K, I=I, R=R,
                    l=AttrMorphism(K, L, arrow, ident),
                    i=AttrMorphism(I, K, arrow, ident),
                    r=AttrMorphism(I, R, arrow, ident))


def match_on(rule, host, assignment):
    sigma = GraphMorphism(rule.L.graph, host.graph,
                          {n: n for n in rule.L.graph.nodes},
                          {e: e for e in rule.L.graph.edges})
    alpha = AlgebraMorphism(rule.algebra, host.algebra, assignment)
    return Match(rule, AttrMorphism(rule.L, host, sigma, alpha))


class TestMatchValidation:
    def test_a_match_starts_at_the_left_side_and_is_injective(self):
        alg = TermAlg(())
        two = AttributedGraph(Graph(POINT_SIG, {"x": "p", "y": "p"}, {}), alg)
        one = point(alg, [])
        same = identity_attr(two)
        rule = WeakSpan(name="pair", L=two, K=two, I=two, R=two, l=same, i=same, r=same)
        squash = AttrMorphism(two, one, GraphMorphism(two.graph, one.graph,
                                                      {"x": "x", "y": "x"}, {}),
                              AlgebraMorphism.identity(alg))
        with pytest.raises(ValueError, match="^match must be injective$"):
            Match(rule, squash)
        with pytest.raises(ValueError,
                           match="^match morphism does not start at the rule's left side$"):
            Match(rule, identity_attr(one))


class TestWeakSpanValidation:
    def test_declared_variables_must_occur_in_the_left_side(self):
        with pytest.raises(ValueError, match="do not occur in the left side"):
            point_rule("bad", ("u", "v"), [Var("u")], [], [], [])

    def test_right_side_variables_must_occur_in_the_left_side(self):
        with pytest.raises(ValueError, match="do not occur"):
            point_rule("bad", ("u",), [Lit(1)], [], [], [Var("u")])

    def test_structure_maps_must_be_injective(self):
        alg = TermAlg(())
        two = Graph(POINT_SIG, {"x": "p", "y": "p"}, {})
        one = Graph(POINT_SIG, {"x": "p"}, {})
        K = AttributedGraph(two, alg)
        L = AttributedGraph(one, alg)
        squash = AttrMorphism(K, L, GraphMorphism(two, one, {"x": "x", "y": "x"}, {}),
                              AlgebraMorphism.identity(alg))
        ident_piece = AttributedGraph(one, alg)
        arrow = identity_morphism(one)
        with pytest.raises(ValueError, match="injective"):
            WeakSpan(name="bad", L=L, K=K, I=ident_piece, R=ident_piece,
                     l=squash,
                     i=AttrMorphism(ident_piece, K,
                                    GraphMorphism(one, two, {"x": "x"}, {}),
                                    AlgebraMorphism.identity(alg)),
                     r=identity_attr(ident_piece))

    def test_structure_maps_must_be_neutral(self):
        alg = TermAlg(("u",))
        L = point(alg, [Var("u")])
        K = point(alg, [])
        relabel = AlgebraMorphism(alg, alg, {"u": Lit(3)})
        skew = AttrMorphism(K, L, identity_morphism(K.graph), relabel)
        with pytest.raises(ValueError, match="neutral"):
            WeakSpan(name="bad", L=L, K=K, I=K, R=K,
                     l=skew, i=identity_attr(K), r=identity_attr(K))

    def test_each_refusal_names_the_rule_once(self):
        with pytest.raises(ValueError, match=(
                r"^rule 'bad': declared variables \['v'\] do not occur in the left side$")):
            point_rule("bad", ("u", "v"), [Var("u")], [], [], [])
        alg = TermAlg(())
        one = point(alg, [])
        two = AttributedGraph(Graph(POINT_SIG, {"x": "p", "y": "p"}, {}), alg)
        with pytest.raises(ValueError, match=(
                r"^rule 'bad': rule map l does not run between the right objects$")):
            WeakSpan(name="bad", L=one, K=one, I=one, R=one,
                     l=identity_attr(two), i=identity_attr(one), r=identity_attr(one))


    def test_a_rule_is_immutable(self, fib):
        rule = fib.rules[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            rule.name = "other"
        with pytest.raises(dataclasses.FrozenInstanceError):
            rule.plan = None
        renamed = dataclasses.replace(rule, name="other")
        assert (renamed.name, rule.name) == ("other", "shift")
        assert renamed.plan is not rule.plan


class TestFindMatches:
    def test_fibonacci_rules_match_once_with_the_right_values(self, fib):
        host = fib.host
        for rule in fib.rules:
            found = find_matches(rule, host)
            assert len(found) == 1
            assert found[0].alpha.assignment == {"u": 1, "v": 2}
            assert found[0].m.apply("x") == "x"

    def test_no_match_when_a_label_is_missing(self, fib):
        bare = fib.host.with_labels({"x": []})
        shift, total = fib.rules
        assert find_matches(total, bare) == []

    def test_each_disjoint_occurrence_is_found(self, fib):
        big_graph = Graph(REG_SIG,
                          {"x0": "reg", "y0": "reg", "x1": "reg", "y1": "reg"},
                          {"e0": ("next", "x0", "y0"), "e1": ("next", "x1", "y1")})
        host = AttributedGraph(big_graph, NAT,
                               {"x0": [1], "y0": [2], "x1": [8], "y1": [13]})
        shift = fib.rules[0]
        found = find_matches(shift, host)
        images = sorted((m.m.apply("x"), m.alpha.assignment["u"]) for m in found)
        assert images == [("x0", 1), ("x1", 8)]

    def test_one_variable_can_serve_two_elements_only_when_values_agree(self):
        rule = point_rule("same", ("u",), [Var("u")], [], [], [])
        twin_graph = Graph(POINT_SIG, {"x": "p"}, {})
        host = AttributedGraph(twin_graph, NAT, {"x": [4, 9]})
        found = find_matches(rule, host)
        assert sorted(m.alpha.assignment["u"] for m in found) == [4, 9]

    def test_a_sum_of_bound_variables_is_evaluated_not_split(self, monkeypatch):
        """u, v and u+v against a host whose sum holds a million: once u and
        v are bound the sum is evaluated, not split a million ways."""
        alg = TermAlg(("u", "v"))
        u, v = Var("u"), Var("v")
        nodes = {"a": "p", "b": "p", "c": "p"}
        pattern = AttributedGraph(Graph(POINT_SIG, nodes, {}), alg,
                                  {"a": [u], "b": [v], "c": [OpApp("+", (u, v))]})
        same = identity_attr(pattern)
        rule = WeakSpan(name="sum", L=pattern, K=pattern, I=pattern, R=pattern,
                        l=same, i=same, r=same)
        host = AttributedGraph(Graph(POINT_SIG, {"h0": "p", "h1": "p", "h2": "p"}, {}), NAT,
                               {"h0": [400_000], "h1": [600_000], "h2": [10**6]})
        calls = []
        real = rewriting._match_value

        def counting(*args):
            calls.append(args[0])
            return real(*args)
        monkeypatch.setattr(rewriting, "_match_value", counting)
        found = find_matches(rule, host)
        assert [(m.m.apply("a"), m.m.apply("b"), m.m.apply("c")) for m in found] == \
            [("h0", "h1", "h2"), ("h1", "h0", "h2")]
        # three constraints and one summand per morphism, six morphisms
        assert len(calls) <= 6 * 4

    def test_enumerated_labels_need_no_assignment(self):
        alg = FiniteEnum(("0", "1"))
        g = Graph(POINT_SIG, {"x": "p"}, {})
        rule_obj = AttributedGraph(g, alg, {"x": ["1"]})
        rule = WeakSpan(name="lit", L=rule_obj, K=rule_obj, I=rule_obj, R=rule_obj,
                        l=identity_attr(rule_obj), i=identity_attr(rule_obj),
                        r=identity_attr(rule_obj))
        live = AttributedGraph(g, alg, {"x": ["1"]})
        dead = AttributedGraph(g, alg, {"x": ["0"]})
        assert len(find_matches(rule, live)) == 1
        assert find_matches(rule, live)[0].m.is_neutral
        assert find_matches(rule, dead) == []


class TestApplyDirect:
    def test_shift_copies_y_into_x(self, fib):
        shift = fib.rules[0]
        gamma = apply_direct(find_matches(shift, fib.host)[0])
        context = pushout_complement(shift.l, gamma.match.m).complement
        assert context.label("x") == LabelSet()
        assert context.label("y") == LabelSet([2])
        result = hprime([gamma])
        assert result.label("x") == LabelSet([2])
        assert result.label("y") == LabelSet([2])

    def test_sum_replaces_y_with_the_total(self, fib):
        total = fib.rules[1]
        result = hprime([apply_direct(find_matches(total, fib.host)[0])])
        assert result.label("x") == LabelSet([1])
        assert result.label("y") == LabelSet([3])

    def test_context_and_result_keep_host_ids_for_survivors(self, fib):
        gamma = apply_direct(find_matches(fib.rules[0], fib.host)[0])
        context = pushout_complement(gamma.rule.l, gamma.match.m)
        assert context.complement.element_ids() == ["x", "y", "e"]
        assert hprime([gamma]).element_ids() == ["x", "y", "e"]
        assert context.complement_to_host.is_neutral

    def test_gluing_failure_surfaces_from_application(self):
        sig = SortSignature(["p"], {"a": ("p", "p")})
        alg = TermAlg(())
        lone = Graph(sig, {"x": "p"}, {})
        empty = Graph(sig, {}, {})
        L = AttributedGraph(lone, alg)
        void = AttributedGraph(empty, alg)
        nothing = GraphMorphism(empty, lone, {}, {})
        ident = AlgebraMorphism.identity(alg)
        deleter = WeakSpan(name="zap", L=L, K=void, I=void, R=void,
                           l=AttrMorphism(void, L, nothing, ident),
                           i=identity_attr(void),
                           r=identity_attr(void))
        host_graph = Graph(sig, {"n1": "p", "n2": "p"}, {"e": ("a", "n1", "n2")})
        host = AttributedGraph(host_graph, NAT)
        sigma = GraphMorphism(lone, host_graph, {"x": "n1"}, {})
        match = Match(deleter, AttrMorphism(L, host, sigma, AlgebraMorphism(alg, NAT, {})))
        with pytest.raises(GluingError, match="dangle"):
            apply_direct(match)


class TestAssociatedSpan:
    def test_right_side_absorbs_what_the_context_keeps(self, fib):
        shift = fib.rules[0]
        span, comparison = associated_span(shift)
        assert is_plain_span(span)
        assert span.name == "shift~"
        assert span.R.label("x") == LabelSet([Var("v")])
        assert span.R.label("y") == LabelSet([Var("v")])
        assert comparison.source is shift.R and comparison.target is span.R

    def test_application_agrees_with_the_original_rule(self, fib):
        for rule in fib.rules:
            span, _ = associated_span(rule)
            direct = apply_direct(find_matches(rule, fib.host)[0])
            match = find_matches(span, fib.host)[0]
            via_span = apply_span_dpo(span, match)
            assert is_attr_isomorphic(hprime([direct]), hprime([via_span])) is not None

    def test_plain_span_application_rejects_weak_rules(self, fib):
        shift = fib.rules[0]
        match = find_matches(shift, fib.host)[0]
        with pytest.raises(ValueError, match="not a plain span"):
            apply_span_dpo(shift, match)


class TestCoherence:
    def test_fibonacci_rules_are_coherent_but_not_independent(self, fib):
        shift, total = (apply_direct(find_matches(r, fib.host)[0]) for r in fib.rules)
        assert check_parallel_coherent(shift, total) is not None
        assert check_parallel_independent(shift, total) is None

    def test_erasing_breaks_coherence_with_a_rule_that_still_reads(self):
        eraser = point_rule("erase", ("u",), [Var("u")], [], [], [])
        reader = point_rule("keep", ("u",), [Var("u")], [Var("u")], [Var("u")], [Var("u")])
        host = point(NAT, [5])
        g_erase = apply_direct(match_on(eraser, host, {"u": 5}))
        g_read = apply_direct(match_on(reader, host, {"u": 5}))
        assert check_parallel_coherent(g_read, g_erase) is None
        with pytest.raises(IncoherentSetError) as refused:
            coherent_set_check([g_read, g_erase])
        assert refused.value.pair == (0, 1)
        assert refused.value.element == "x"
        assert "not contained" in refused.value.reason

    def test_matrix_covers_every_ordered_pair(self, fib):
        gammas = [apply_direct(find_matches(r, fib.host)[0]) for r in fib.rules]
        assert coherent_set_check(gammas) is None
        matrix = WitnessMatrix(gammas)
        assert set(matrix) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        for (a, b), witness in matrix.items():
            gb = gammas[b]
            assert witness.target == pushout_complement(gb.rule.l, gb.match.m).complement

    def test_hosts_must_agree(self):
        rule = point_rule("noop", (), [], [], [], [])
        g1 = apply_direct(match_on(rule, point(NAT, [1]), {}))
        g2 = apply_direct(match_on(rule, point(NAT, [2]), {}))
        with pytest.raises(ValueError, match="different hosts"):
            check_parallel_coherent(g1, g2)
        with pytest.raises(ValueError, match="different hosts"):
            coherent_set_check([g1, g2])

    def test_empty_set_is_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            coherent_set_check([])

    def test_a_refusal_is_the_error_pct_raises(self):
        eraser = point_rule("erase", ("u",), [Var("u")], [], [], [])
        reader = point_rule("keep", ("u",), [Var("u")], [Var("u")], [Var("u")], [Var("u")])
        host = point(NAT, [5])
        gammas = [apply_direct(match_on(rule, host, {"u": 5})) for rule in (reader, eraser)]
        refusals = []
        for refusing in (coherent_set_check, pct, WitnessMatrix):
            with pytest.raises(IncoherentSetError) as raised:
                refusing(gammas)
            error = raised.value
            refusals.append((error.pair, error.rules, error.element, error.reason, str(error)))
        assert refusals[1] == refusals[0] and refusals[2] == refusals[0]
        assert error.rules == ("keep", "erase")

    def test_the_pair_checks_return_witness_morphisms(self):
        for trial in range(20):
            _host, m1, m2 = random_independent_pair(random.Random(9000 + trial))
            g1, g2 = apply_direct(m1), apply_direct(m2)
            for check, part in ((check_parallel_independent, lambda g: g.match.m),
                                (check_parallel_coherent,
                                 lambda g: compose_attr(g.match.m,
                                                        compose_attr(g.rule.l, g.rule.i)))):
                j1, j2 = check(g1, g2)
                for j, ga, gb in ((j1, g1, g2), (j2, g2, g1)):
                    # j: (part of) a's left side -> b's context, over a's match
                    context = pushout_complement(gb.rule.l, gb.match.m)
                    assert j.target == context.complement
                    AttrMorphism(j.source, j.target, j.sigma, j.alpha)
                    assert compose_attr(context.complement_to_host, j) == part(ga)


class TestParallelTransformation:
    def test_fibonacci_joint_step(self, fib):
        gammas = [apply_direct(find_matches(r, fib.host)[0]) for r in fib.rules]
        assert pct(gammas).deleted == frozenset()
        dprime, _legs = limit_of_neutrals(
            [pushout_complement(g.rule.l, g.match.m).complement_to_host for g in gammas])
        assert dprime.element_count() == 3
        assert [dprime.label(z) for z in dprime.element_ids()] == [LabelSet()] * 3
        assert apply_parallel_step(fib, fib.host, 0)[1].dprime_elements == 3
        expected = fib.host.with_labels({"x": [2], "y": [3]})
        assert is_attr_isomorphic(hprime(gammas), expected) is not None

    def test_joint_step_differs_from_both_sequences(self, fib):
        shift, total = fib.rules
        def after(rule, host):
            return hprime([apply_direct(find_matches(rule, host)[0])])

        assert after(total, after(shift, fib.host)).label("y") == LabelSet([4])  # 2 + 2, not 3
        then = after(shift, after(total, fib.host))
        assert then.label("x") == LabelSet([3])        # the sum got copied
        joint = hprime([apply_direct(find_matches(r, fib.host)[0]) for r in fib.rules])
        assert is_attr_isomorphic(joint, then) is None

    def test_singleton_set_collapses_to_direct_application(self, fib):
        gamma = apply_direct(find_matches(fib.rules[0], fib.host)[0])
        rule = gamma.rule
        k = pushout_complement(rule.l, gamma.match.m).k_to_complement
        pushout = pushout_along_neutral(rule.r, compose_attr(k, rule.i))
        # the rule adds nothing, so the pushout keeps every id of the context
        assert hprime([gamma]) == pushout.apex

    def test_incoherent_set_is_refused_with_the_obstruction(self):
        eraser = point_rule("erase", ("u",), [Var("u")], [], [], [])
        reader = point_rule("keep", ("u",), [Var("u")], [Var("u")], [Var("u")], [Var("u")])
        host = point(NAT, [5])
        gammas = [apply_direct(match_on(reader, host, {"u": 5})),
                  apply_direct(match_on(eraser, host, {"u": 5}))]
        with pytest.raises(IncoherentSetError, match="element 'x'") as refused:
            pct(gammas)
        assert (refused.value.pair, refused.value.rules) == ((0, 1), ("keep", "erase"))
        assert refused.value.element == "x"

    def test_parallel_label_erasure(self):
        host = point(NAT, [5, 7])
        erase5 = point_rule("lo", ("u",), [Var("u")], [], [], [])
        erase7 = point_rule("hi", ("w",), [Var("w")], [], [], [])
        g5 = apply_direct(match_on(erase5, host, {"u": 5}))
        g7 = apply_direct(match_on(erase7, host, {"w": 7}))
        assert check_parallel_independent(g5, g7) is not None
        joint = hprime([g5, g7])
        only = joint.element_ids()[0]
        assert joint.label(only) == LabelSet()
        after5 = apply_direct(match_on(erase7, hprime([g5]), {"w": 7}))
        assert is_attr_isomorphic(joint, hprime([after5])) is not None

    def test_the_change_set_does_not_depend_on_the_order(self, fib):
        """Permuting a coherent set and its addition names alike leaves its
        change set as it is: D' intersects the context labels and H' unions
        the written ones, and neither cares which application comes first."""
        def assert_order_free(gammas, orders):
            names = [f"{c}:" for c in range(len(gammas))]
            changes = pct(gammas, names)
            for order in orders:
                assert pct([gammas[c] for c in order], [names[c] for c in order]) == changes
            return changes

        rng = random.Random(22)
        gammas = [apply_direct(find_matches(r, fib.host)[0]) for r in fib.rules]
        assert_order_free(gammas, [(1, 0)])

        gen1 = ca_oracle(HexGridSpec(radius=7, seeds=((0, 0),)), 1)[1]
        births = hexgrid.hex_system(HexGridSpec(radius=3, seeds=tuple(sorted(gen1))))
        gammas = [apply_direct(m) for ms in runner.rule_matches(births, births.host) for m in ms]
        assert len(gammas) == 6
        assert_order_free(gammas, rng.sample(list(itertools.permutations(range(6))), 60))

        for trial in range(100):
            _host, m1, m2 = random_independent_pair(random.Random(9000 + trial))
            assert_order_free([apply_direct(m1), apply_direct(m2)], [(1, 0)])

        # two rules write 5 and 7 onto x = {1, 2}, and two matches of a
        # third erase 1 and 2 from it
        host = point(NAT, [1, 2])
        writes = [point_rule(f"write{k}", (), [], [], [], [Lit(k)]) for k in (5, 7)]
        eraser = point_rule("erase", ("u",), [Var("u")], [], [], [])
        gammas = [apply_direct(match_on(rule, host, {})) for rule in writes]
        gammas += [apply_direct(m) for m in find_matches(eraser, host)]
        assert len(gammas) == 4
        changes = assert_order_free(gammas, itertools.permutations(range(4)))
        assert changes.relabelled == {"x": (LabelSet([1, 2]), LabelSet([5, 7]))}

    def test_an_independent_set_equals_every_order_of_single_applications(self):
        """The joint step conservatively extends interleaving.  For each
        random system, take the largest set of three to five step-0
        applications that glue and pass `check_parallel_independent`
        pairwise (the first such set in match order).  Its `pct` equals, id
        for id, applying it one application at a time in every order, each
        carried on by `transport_match` and named as in the joint step."""
        systems = orders = 0
        for seed in range(200):
            system = random_system(seed)
            host = system.host
            numbered = []   # (global match index, application) of each that glues
            for n, match in enumerate(m for ms in runner.rule_matches(system, host)
                                      for m in ms):
                try:
                    numbered.append((n, apply_direct(match)))
                except GluingError:
                    pass
            independent = {(a, b) for a, b in itertools.combinations(range(len(numbered)), 2)
                           if check_parallel_independent(numbered[a][1], numbered[b][1])}
            chosen = next((subset for size in (5, 4, 3)
                           for subset in itertools.combinations(range(len(numbered)), size)
                           if independent.issuperset(itertools.combinations(subset, 2))),
                          None)
            if chosen is None:
                continue
            systems += 1
            gammas = [numbered[c][1] for c in chosen]
            names = [f"{numbered[c][0]}:" for c in chosen]
            joint = derive_graph(host, pct(gammas, names))
            for order in itertools.permutations(range(len(chosen))):
                current = host
                for c in order:
                    gamma = apply_direct(runner.transport_match(gammas[c].match, current))
                    current = derive_graph(current, pct([gamma], [names[c]]))
                assert current == joint, (seed, order)
                orders += 1
        assert (systems, orders) == (51, 1626)

    def test_runs_read_only_the_deletion_records(self, fib, monkeypatch):
        """No run builds a context or the intersected context D': a step
        derives one graph per change set it reports, its result.  Matching,
        coherence and the joint step cannot build a context graph: the
        engine does not import ``pushout_complement`` (``test_imports``)."""
        derived = []

        def counting(parent, changes):
            derived.append(changes)
            return derive_graph(parent, changes)
        monkeypatch.setattr(runner, "derive_graph", counting)
        grid = HexGridSpec(radius=7, seeds=((0, 0), (2, -1)))
        hexca = cmd_hexca(grid, 3)
        assert hexca.live_sets == ca_oracle(grid, 3)
        assert derived == [c for report in hexca.steps for c in report.changes]
        for mode, graphs in (("pct", 6), ("sequential", 9)):
            derived.clear()
            run = cmd_run(fib, 6, mode)
            assert len(derived) == graphs
            assert derived == [c for report in run.steps for c in report.changes]
        gamma = apply_direct(find_matches(fib.rules[0], fib.host)[0])
        assert isinstance(pct([gamma]), ChangeSet)

    def test_each_rule_is_planned_once(self, monkeypatch):
        planned = []
        real = rewriting.rule_plan

        def counting(rule):
            planned.append(rule.name)
            return real(rule)
        monkeypatch.setattr(rewriting, "rule_plan", counting)
        hexgrid._birth_rules.cache_clear()
        cmd_hexca(HexGridSpec(radius=5), 3)
        assert sorted(planned) == [f"birth{k}" for k in range(6)]
        # the birth rules are built once per process, not once per run
        planned.clear()
        cmd_hexca(HexGridSpec(radius=5), 3)
        assert planned == []


class TestCoproductRule:
    def test_sides_are_disjoint_unions(self, fib):
        shift, total = fib.rules
        combined = coproduct_rule(shift, total)
        assert combined.name == "shift+sum"
        assert combined.L.element_count() == 6
        assert combined.l.apply("du1:x") == "du1:x"
        assert combined.r.apply("du2:y") == "du2:y"
        assert combined.L.label("du1:x") == LabelSet([Var("u")])

    def test_clashing_variables_get_primed(self):
        r1 = point_rule("one", ("u",), [Var("u")], [], [], [])
        r2 = point_rule("two", ("u",), [Var("u")], [Var("u")], [Var("u")], [Var("u")])
        combined = coproduct_rule(r1, r2)
        assert combined.algebra.variables == frozenset({"u", "u'"})
        assert combined.L.label("du1:x") == LabelSet([Var("u")])
        assert combined.L.label("du2:x") == LabelSet([Var("u'")])

    def test_enumerated_rules_must_share_their_algebra(self):
        alg1 = FiniteEnum(("0", "1"))
        alg2 = FiniteEnum(("0", "2"))
        g = Graph(POINT_SIG, {"x": "p"}, {})

        def enum_rule(alg):
            o = AttributedGraph(g, alg, {"x": ["0"]})
            return WeakSpan(name="r", L=o, K=o, I=o, R=o,
                            l=identity_attr(o), i=identity_attr(o), r=identity_attr(o))

        with pytest.raises(ValueError, match="share their algebra"):
            coproduct_rule(enum_rule(alg1), enum_rule(alg2))


class TestDerivedSpan:
    def test_rules_with_one_left_side_collapse_to_a_plain_span(self):
        first = point_rule("a", (), [], [], [], [Lit(1)])
        second = point_rule("b", (), [], [], [], [Lit(2)])
        derived = derive_span_from_pct([first, second])
        assert derived.name == "a+b"
        assert is_plain_span(derived)
        assert derived.L == first.L
        only = derived.R.element_ids()[0]
        assert derived.R.label(only) == LabelSet([Lit(1), Lit(2)])

    def test_derived_span_applies_like_the_joint_step(self):
        first = point_rule("a", (), [], [], [], [Lit(1)])
        second = point_rule("b", (), [], [], [], [Lit(2)])
        derived = derive_span_from_pct([first, second])
        host = point(NAT, [9])
        result = hprime([apply_span_dpo(derived, find_matches(derived, host)[0])])
        assert result.label("x") == LabelSet([1, 2, 9])

    def test_left_sides_must_coincide(self):
        first = point_rule("a", (), [], [], [], [])
        second = point_rule("b", (), [Lit(3)], [], [], [])
        with pytest.raises(ValueError, match="share an identical left side"):
            derive_span_from_pct([first, second])
