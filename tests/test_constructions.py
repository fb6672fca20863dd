import random

import pytest

from weakspan import (
    AlgebraMorphism,
    AttrMorphism,
    FiniteEnum,
    AttributedGraph,
    GluingError,
    Graph,
    GraphMorphism,
    HexGridSpec,
    LabelSet,
    Match,
    NatPlus,
    SortSignature,
    TermAlg,
    WeakSpan,
    apply_direct,
    cmd_run,
    fibonacci_system,
    find_matches,
    hex_system,
    inclusion,
    transport_match,
)
from weakspan.constructions import (
    PushoutResult,
    check_universal_property,
    colimit_of_neutrals,
    compose_attr,
    identity_attr,
    is_attr_isomorphic,
    limit_of_neutrals,
    pullback_of_neutrals,
    pushout_along_neutral,
    pushout_complement,
)

from randgen import coproduct_match, random_host, random_independent_pair, random_instance

SIG = SortSignature(["p"], {"a": ("p", "p")})
NAT = NatPlus()
IDENT = AlgebraMorphism.identity(NAT)


def obj(nodes, edges=None, labels=None, algebra=NAT):
    g = Graph(SIG, {n: "p" for n in nodes}, edges or {})
    return AttributedGraph(g, algebra, labels or {})


class TestPushout:
    def test_merges_along_shared_source_and_unions_labels(self):
        shared = obj(["x"])
        grown = obj(["x", "y"], labels={"x": [1], "y": [2]})
        other = obj(["z"], labels={"z": [5]})
        to_other = AttrMorphism(shared, other,
                                GraphMorphism(shared.graph, other.graph, {"x": "z"}, {}),
                                IDENT)
        po = pushout_along_neutral(inclusion(shared, grown), to_other)
        assert sorted(po.apex.graph.nodes) == ["po:y", "z"]
        assert po.apex.label("z") == LabelSet([1, 5])
        assert po.apex.label("po:y") == LabelSet([2])
        assert po.leg_from_neutral_side.apply("x") == "z"
        assert po.leg_from_neutral_side.apply("y") == "po:y"
        assert po.leg_from_other_side.apply("z") == "z"

    def test_non_injective_other_leg_collapses_classes(self):
        shared = obj(["x0", "x1"])
        grown = obj(["x0", "x1"], labels={"x0": [1], "x1": [2]})
        point = obj(["z"], labels={"z": [9]})
        collapse = AttrMorphism(shared, point,
                                GraphMorphism(shared.graph, point.graph,
                                              {"x0": "z", "x1": "z"}, {}),
                                IDENT)
        po = pushout_along_neutral(inclusion(shared, grown), collapse)
        assert po.apex.element_ids() == ["z"]
        assert po.apex.label("z") == LabelSet([1, 2, 9])

    def test_carries_edges_through(self):
        shared = obj(["x", "y"])
        grown = obj(["x", "y"], edges={"e": ("a", "x", "y")}, labels={"e": [3]})
        other = obj(["u", "v"], labels={"u": [7]})
        to_other = AttrMorphism(shared, other,
                                GraphMorphism(shared.graph, other.graph,
                                              {"x": "u", "y": "v"}, {}),
                                IDENT)
        po = pushout_along_neutral(inclusion(shared, grown), to_other)
        eid = po.leg_from_neutral_side.apply("e")
        assert eid == "po:e"
        sort, src, tgt = po.apex.graph.edges[eid]
        assert (sort, src, tgt) == ("a", "u", "v")
        assert po.apex.label(eid) == LabelSet([3])

    def test_first_leg_must_be_neutral_and_sources_must_agree(self):
        terms = TermAlg(())
        pattern = AttributedGraph(Graph(SIG, {"x": "p"}, {}), terms, {})
        target = obj(["z"])
        carrier_change = AttrMorphism(
            pattern, target,
            GraphMorphism(pattern.graph, target.graph, {"x": "z"}, {}),
            AlgebraMorphism(terms, NAT, {}))
        with pytest.raises(ValueError, match="neutral"):
            pushout_along_neutral(carrier_change, identity_attr(pattern))
        with pytest.raises(ValueError, match="share their source"):
            pushout_along_neutral(identity_attr(target), identity_attr(obj(["w"])))


class TestPullback:
    def test_pairs_agreeing_elements_and_intersects_labels(self):
        g = obj(["n"], labels={"n": [1, 2, 3]})
        d1 = obj(["n"], labels={"n": [1, 2]})
        d2 = obj(["n"], labels={"n": [2, 3]})
        pb = pullback_of_neutrals(inclusion(d1, g), inclusion(d2, g))
        assert pb.apex.element_ids() == ["⟨n,n⟩"]
        assert pb.apex.label("⟨n,n⟩") == LabelSet([2])
        assert pb.leg_to_first.apply("⟨n,n⟩") == "n"
        assert pb.leg_to_second.apply("⟨n,n⟩") == "n"

    def test_non_overlapping_sources_give_empty_apex(self):
        g = obj(["m", "n"])
        d1 = obj(["m"])
        d2 = obj(["n"])
        pb = pullback_of_neutrals(inclusion(d1, g), inclusion(d2, g))
        assert pb.apex.element_count() == 0

    def test_edges_pair_only_when_endpoints_do(self):
        g = obj(["x", "y"], edges={"e": ("a", "x", "y")}, labels={"e": [1, 4, 9]})
        d1 = obj(["x", "y"], edges={"e": ("a", "x", "y")}, labels={"e": [1, 4]})
        d2 = obj(["x", "y"], edges={"e": ("a", "x", "y")}, labels={"e": [4, 9]})
        pb = pullback_of_neutrals(inclusion(d1, g), inclusion(d2, g))
        assert sorted(pb.apex.graph.edges) == ["⟨e,e⟩"]
        assert pb.apex.label("⟨e,e⟩") == LabelSet([4])

    def test_requires_shared_target(self):
        d1 = obj(["x"])
        d2 = obj(["y"])
        with pytest.raises(ValueError, match="share their target"):
            pullback_of_neutrals(identity_attr(d1), identity_attr(d2))


def full_scan_refusal(l_neutral, m):
    """The gluing checks as a scan of every host edge in id order: None, or
    the refusal as (dangling edge, message)."""
    host = m.target
    kept = {m.apply(l_neutral.apply(u)) for u in l_neutral.source.element_ids()}
    placed = {}
    for v in m.source.element_ids():
        placed.setdefault(m.apply(v), set()).update(m.source.label(v))
    deleted = set(placed) - kept
    for eid, (_sort, src, tgt) in sorted(host.graph.edges.items()):
        if eid not in deleted and (src in deleted or tgt in deleted):
            return eid, f"edge {eid!r} would dangle: an endpoint is deleted but the edge is not"
    for x in sorted(deleted):
        extra = host.label(x) - placed[x]
        if extra:
            return None, (f"element {x!r} is deleted but carries labels "
                          f"{LabelSet(extra).render()} beyond the matched left side")
    return None


def refusal_of(build, *args):
    """``build(*args)``, or the refusal it raises as (dangling edge, message)."""
    try:
        return build(*args), None
    except GluingError as err:
        return None, (err.dangling_edge, str(err))


def assert_record_agrees(match):
    """The record ``apply_direct`` keeps agrees with the specification's
    context D, which ``pushout_complement`` builds by a visit of every
    left-side and preserved element: the record deletes what D drops, gives
    every host element its label in D, relabels only with a real change
    from the host label, adds nothing, and refuses with the same error.
    Returns what the record did: "refused", "deleted", "relabelled" or
    "kept"."""
    gamma, got_refusal = refusal_of(apply_direct, match)
    context, want_refusal = refusal_of(pushout_complement, match.rule.l, match.m)
    assert got_refusal == want_refusal
    if context is None:
        return "refused"
    host, labels, record = match.host, context.complement.labeling, gamma.record
    assert record.deleted == host.labeling.keys() - labels.keys()
    assert not record.added
    assert record.relabelled.keys() <= labels.keys()
    for w, (old, new) in record.relabelled.items():
        assert old == host.label(w) and new != old, w
    for w, label in labels.items():
        got = record.relabelled[w][1] if w in record.relabelled else host.label(w)
        assert got == label, w
    if record.deleted:
        return "deleted"
    return "relabelled" if record.relabelled else "kept"


class TestDeletionPlan:
    """The deletion half of a rule's plan, as ``apply_direct`` reads it."""

    def test_preset_matches_record_what_the_full_visit_records(self):
        seen = set()
        for system, steps in ((fibonacci_system(), 12),
                              (hex_system(HexGridSpec(radius=6, seeds=((0, 0), (2, -1)))), 4)):
            for graph in cmd_run(system, steps).history:
                for rule in system.rules:
                    for match in find_matches(rule, graph):
                        seen.add(assert_record_agrees(match))
        assert seen == {"relabelled"}

    def test_random_family_matches_record_what_the_full_visit_records(self):
        seen = {"deleted": 0, "relabelled": 0, "kept": 0}
        for trial in range(150):
            rng = random.Random(trial)
            seen[assert_record_agrees(random_instance(rng, random_host(rng)))] += 1
            _host, m1, m2 = random_independent_pair(random.Random(9000 + trial))
            for match in (m1, m2, coproduct_match(m1, m2)):
                seen[assert_record_agrees(match)] += 1
            # the pieces are disjoint, so m2 survives m1's context unchanged
            first = pushout_complement(m1.rule.l, m1.m).complement
            seen[assert_record_agrees(transport_match(m2, first))] += 1
        assert min(seen.values()) >= 20, seen

    def test_a_plan_lists_only_what_the_rule_changes(self):
        rule = hex_system(HexGridSpec(radius=2)).rules[0]
        plan = rule.plan
        assert plan.deleted == ()
        assert plan.relabelled == (("x", LabelSet(["0"]), LabelSet()),)
        assert plan.required == (("x", "x", "x"),)
        assert plan.added == ()
        assert plan.written == (("x", LabelSet(["1"])),)


class TestComplement:
    def host(self, extra_on_deleted=()):
        return obj(["h0", "h1", "h2"],
                   edges={"e": ("a", "h1", "h2")},
                   labels={"h0": list((1, 2) + tuple(extra_on_deleted)),
                           "h1": [3, 7], "h2": [9], "e": [4]})

    def rule_left(self):
        left = obj(["l0", "l1"], labels={"l0": [1, 2], "l1": [3]})
        kept = obj(["l1"])
        return left, inclusion(kept, left)

    def match(self, left, host):
        sigma = GraphMorphism(left.graph, host.graph, {"l0": "h0", "l1": "h1"}, {})
        return AttrMorphism(left, host, sigma, IDENT)

    def test_removes_image_and_trims_labels(self):
        left, l_neutral = self.rule_left()
        host = self.host()
        comp = pushout_complement(l_neutral, self.match(left, host))
        d = comp.complement
        assert sorted(d.graph.nodes) == ["h1", "h2"]
        assert sorted(d.graph.edges) == ["e"]
        assert d.label("h1") == LabelSet([7])      # 3 was placed by the left side
        assert d.label("h2") == LabelSet([9])
        assert d.label("e") == LabelSet([4])
        assert comp.deletion_sets["h1"] == LabelSet([3])
        assert comp.deletion_sets["h2"] == LabelSet()
        assert comp.k_to_complement.apply("l1") == "h1"
        assert comp.complement_to_host.is_neutral

    def test_deletion_sets_cover_kept_elements_the_rule_leaves_unchanged(self):
        left = obj(["l0", "l1"], labels={"l0": [1, 2], "l1": [3]})
        kept = obj(["l1"], labels={"l1": [3]})
        comp = pushout_complement(inclusion(kept, left), self.match(left, self.host()))
        assert comp.complement.label("h1") == LabelSet([3, 7])
        assert comp.deletion_sets == {"h1": LabelSet([3]), "h2": LabelSet(), "e": LabelSet()}
        # through a match's assignment: sum keeps x's u and erases y's v
        fib = fibonacci_system()
        total = fib.rules[1]
        match = find_matches(total, fib.host)[0]
        comp = pushout_complement(total.l, match.m)
        assert comp.deletion_sets == {"x": LabelSet([1]), "y": LabelSet([2]), "e": LabelSet()}

    def test_kept_labels_regain_what_the_preserved_part_carries(self):
        left = obj(["l0"], labels={"l0": [1, 2]})
        kept = obj(["l0"], labels={"l0": [1]})
        host = obj(["h0"], labels={"h0": [1, 2, 8]})
        sigma = GraphMorphism(left.graph, host.graph, {"l0": "h0"}, {})
        comp = pushout_complement(inclusion(kept, left),
                                  AttrMorphism(left, host, sigma, IDENT))
        # {1,2,8} minus the placed {1,2}, plus the kept {1}
        assert comp.complement.label("h0") == LabelSet([1, 8])

    def test_dangling_edge_is_refused(self):
        left, l_neutral = self.rule_left()
        host = obj(["h0", "h1", "h2"],
                   edges={"e": ("a", "h1", "h2"), "d": ("a", "h0", "h2")},
                   labels={"h0": [1, 2], "h1": [3], "h2": [], "e": [], "d": []})
        with pytest.raises(GluingError, match="'d' would dangle") as err:
            pushout_complement(l_neutral, self.match(left, host))
        assert err.value.dangling_edge == "d"

    def test_extra_labels_on_deleted_elements_are_refused(self):
        left, l_neutral = self.rule_left()
        host = self.host(extra_on_deleted=(5,))
        with pytest.raises(GluingError, match="beyond the matched left side"):
            pushout_complement(l_neutral, self.match(left, host))

    def test_refusals_agree_with_a_full_edge_scan(self):
        """Random hosts with self-loops and parallel edges, and deletions that
        leave several edges dangling: ``pushout_complement`` and
        ``apply_direct`` refuse exactly as a scan of every host edge in id
        order does, and ``apply_direct`` records what the full visit of the
        left side records.  Each rule deletes and relabels only: I and R are
        empty."""
        enum = FiniteEnum("0123")
        empty = obj([], algebra=enum)
        seen = {"accepted": 0, "orphaned label": 0, "dangling": 0, "several dangling": 0}
        for trial in range(300):
            rng = random.Random(trial)
            nodes = [f"h{k}" for k in range(rng.randint(1, 6))]
            edges = {f"e{k}": ("a", rng.choice(nodes), rng.choice(nodes))
                     for k in range(rng.randint(0, 12))}
            host = obj(nodes, edges, {x: [str(v) for v in rng.sample(range(4), rng.randint(0, 2))]
                                      for x in nodes + list(edges)}, enum)
            image = rng.sample(nodes, rng.randint(1, len(nodes)))
            image_edges = [e for e, (_a, src, tgt) in edges.items()
                           if src in image and tgt in image and rng.random() < 0.5]
            left = obj(image, {e: edges[e] for e in image_edges},
                       {x: [v for v in host.label(x) if rng.random() < 0.75]
                        for x in image + image_edges}, enum)
            kept_nodes = [n for n in image if rng.random() < 0.4]
            kept_edges = [e for e in image_edges if edges[e][1] in kept_nodes
                          and edges[e][2] in kept_nodes and rng.random() < 0.5]
            k_labels = {x: [v for v in left.label(x) if rng.random() < 0.6]
                        for x in kept_nodes + kept_edges}
            kept = obj(kept_nodes, {e: edges[e] for e in kept_edges}, k_labels, enum)
            rule = WeakSpan(name="cut", L=left, K=kept, I=empty, R=empty,
                            l=inclusion(kept, left), i=inclusion(empty, kept),
                            r=inclusion(empty, empty))
            match = Match(rule, inclusion(left, host))
            want = full_scan_refusal(rule.l, match.m)
            assert refusal_of(pushout_complement, rule.l, match.m)[1] == want, trial
            assert refusal_of(apply_direct, match)[1] == want, trial
            assert_record_agrees(match)
            if want is None:
                seen["accepted"] += 1
            elif want[0] is None:
                seen["orphaned label"] += 1
            else:
                seen["dangling"] += 1
                deleted = set(image) - set(kept_nodes)
                seen["several dangling"] += sum(
                    e not in image_edges and (src in deleted or tgt in deleted)
                    for e, (_a, src, tgt) in edges.items()) > 1
        assert min(seen.values()) >= 20, seen

    def test_match_must_be_injective(self):
        left = obj(["l0", "l1"])
        host = obj(["h0"])
        sigma = GraphMorphism(left.graph, host.graph, {"l0": "h0", "l1": "h0"}, {})
        squash = AttrMorphism(left, host, sigma, IDENT)
        with pytest.raises(ValueError, match="injective"):
            pushout_complement(inclusion(obj([]), left), squash)

    def test_recomposition_restores_the_host(self):
        left, l_neutral = self.rule_left()
        host = self.host()
        m = self.match(left, host)
        comp = pushout_complement(l_neutral, m)
        po = pushout_along_neutral(l_neutral, comp.k_to_complement)
        assert is_attr_isomorphic(po.apex, host) is not None
        assert check_universal_property(
            "pushout", (l_neutral, comp.k_to_complement, po),
            (m, comp.complement_to_host))


class TestLimitsAndColimits:
    def test_singleton_limit_is_the_source_itself(self):
        d = obj(["n"], labels={"n": [1]})
        g = obj(["n"], labels={"n": [1, 2]})
        apex, legs = limit_of_neutrals([inclusion(d, g)])
        assert apex == d
        assert legs[0] == identity_attr(d)

    def test_limit_intersects_all_contexts(self):
        g = obj(["n"], labels={"n": [1, 2, 3]})
        sources = [obj(["n"], labels={"n": [1, 2]}),
                   obj(["n"], labels={"n": [2, 3]}),
                   obj(["n"], labels={"n": [1, 2, 3]})]
        apex, legs = limit_of_neutrals([inclusion(d, g) for d in sources])
        assert apex.element_count() == 1
        only = apex.element_ids()[0]
        assert apex.label(only) == LabelSet([2])
        images = [compose_attr(inclusion(d, g), leg) for d, leg in zip(sources, legs)]
        assert all(img == images[0] for img in images)

    def test_limit_is_order_insensitive_up_to_isomorphism(self):
        g = obj(["m", "n"], labels={"m": [1], "n": [2, 4]})
        sources = [obj(["m", "n"], labels={"m": [1], "n": [2]}),
                   obj(["n"], labels={"n": [2, 4]})]
        legs = [inclusion(d, g) for d in sources]
        a1, _ = limit_of_neutrals(legs)
        a2, _ = limit_of_neutrals(list(reversed(legs)))
        assert is_attr_isomorphic(a1, a2) is not None

    def test_singleton_colimit_is_the_target_itself(self):
        k = obj(["x"])
        g = obj(["x", "y"])
        apex, legs = colimit_of_neutrals([inclusion(k, g)])
        assert apex == g
        assert legs[0] == identity_attr(g)

    def test_colimit_glues_targets_over_the_shared_source(self):
        k = obj(["x"])
        targets = [obj(["x", "a1"], labels={"x": [1]}),
                   obj(["x"], labels={"x": [2]}),
                   obj(["x", "a3"], labels={"a3": [6]})]
        apex, legs = colimit_of_neutrals([inclusion(k, t) for t in targets])
        assert apex.element_count() == 3
        shared_images = [compose_attr(leg, inclusion(k, t))
                         for t, leg in zip(targets, legs)]
        assert all(img == shared_images[0] for img in shared_images)
        glued = shared_images[0].apply("x")
        assert apex.label(glued) == LabelSet([1, 2])

    def test_colimit_is_order_insensitive_up_to_isomorphism(self):
        k = obj(["x"])
        targets = [obj(["x", "a1"], labels={"x": [1]}),
                   obj(["x", "a2"], labels={"a2": [5]})]
        legs = [inclusion(k, t) for t in targets]
        a1, _ = colimit_of_neutrals(legs)
        a2, _ = colimit_of_neutrals(list(reversed(legs)))
        assert is_attr_isomorphic(a1, a2) is not None

    def test_empty_family_is_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            limit_of_neutrals([])
        with pytest.raises(ValueError, match="at least one"):
            colimit_of_neutrals([])


class TestUniversalPropertyChecker:
    def real_square(self):
        shared = obj(["k0"])
        grown = obj(["k0", "g1"])
        neutral = inclusion(shared, grown)
        other = identity_attr(shared)
        return neutral, other, pushout_along_neutral(neutral, other)

    def test_accepts_the_computed_pushout(self):
        neutral, other, po = self.real_square()
        assert check_universal_property(
            "pushout", (neutral, other, po),
            (po.leg_from_neutral_side, po.leg_from_other_side))

    def test_rejects_an_apex_with_junk(self):
        neutral, other, po = self.real_square()
        fat_graph = Graph(SIG, dict(po.apex.graph.nodes, fat="p"), {})
        fat = AttributedGraph(fat_graph, NAT, dict(po.apex.labeling))
        into_fat_g = AttrMorphism(
            neutral.target, fat,
            GraphMorphism(neutral.target.graph, fat_graph,
                          po.leg_from_neutral_side.sigma.node_map, {}), IDENT)
        into_fat_h = AttrMorphism(
            other.target, fat,
            GraphMorphism(other.target.graph, fat_graph,
                          po.leg_from_other_side.sigma.node_map, {}), IDENT)
        claimed = PushoutResult(apex=fat, leg_from_neutral_side=into_fat_g,
                                leg_from_other_side=into_fat_h)
        # the junk node maps anywhere, so the mediator is not unique
        assert not check_universal_property(
            "pushout", (neutral, other, claimed),
            (po.leg_from_neutral_side, po.leg_from_other_side))

    def test_rejects_a_non_commuting_candidate(self):
        neutral, other, po = self.real_square()
        grown = neutral.target
        flip = AttrMorphism(
            neutral.source, grown,
            GraphMorphism(neutral.source.graph, grown.graph, {"k0": "g1"}, {}), IDENT)
        with pytest.raises(ValueError, match="does not commute"):
            check_universal_property("pushout", (neutral, other, po),
                                     (identity_attr(grown), flip))

    def test_pullback_candidate_mediates_uniquely(self):
        g = obj(["n"], labels={"n": [1, 2]})
        d1 = obj(["n"], labels={"n": [1]})
        d2 = obj(["n"], labels={"n": [1, 2]})
        f1, f2 = inclusion(d1, g), inclusion(d2, g)
        pb = pullback_of_neutrals(f1, f2)
        rev = pullback_of_neutrals(f2, f1)
        assert check_universal_property(
            "pullback", (f1, f2, pb), (rev.leg_to_second, rev.leg_to_first))

    def test_refuses_large_graphs(self):
        big = obj([f"n{k}" for k in range(7)])
        neutral = inclusion(big, big)
        po = pushout_along_neutral(neutral, identity_attr(big))
        with pytest.raises(ValueError, match="at most"):
            check_universal_property(
                "pushout", (neutral, identity_attr(big), po),
                (po.leg_from_neutral_side, po.leg_from_other_side))

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown construction"):
            check_universal_property("equalizer", (), ())
