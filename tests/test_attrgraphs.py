import re

import pytest

from weakspan import (
    AlgebraMorphism,
    AttrMorphism,
    AttributedGraph,
    Graph,
    GraphMorphism,
    LabelSet,
    Lit,
    NatPlus,
    OpApp,
    SortSignature,
    TermAlg,
    Var,
)
from weakspan.constructions import (
    compose_attr,
    identity_attr,
    identity_morphism,
    is_attr_isomorphic,
    rename_attributed,
)

SIG = SortSignature(["p"], {"a": ("p", "p")})
NAT = NatPlus()


def chain(labels_x=(), labels_y=(), labels_e=()):
    g = Graph(SIG, {"x": "p", "y": "p"}, {"e": ("a", "x", "y")})
    return AttributedGraph(g, NAT, {"x": labels_x, "y": labels_y, "e": labels_e})


class TestAttributedGraph:
    def test_missing_labels_default_to_empty(self):
        a = chain(labels_x=(1,))
        assert a.label("x") == LabelSet([1])
        assert a.label("y") == LabelSet()
        assert a.label("e") == LabelSet()

    def test_rejects_labels_on_unknown_elements(self):
        g = Graph(SIG, {"x": "p"}, {})
        with pytest.raises(ValueError, match="unknown"):
            AttributedGraph(g, NAT, {"ghost": [1]})

    def test_rejects_values_outside_the_carrier(self):
        g = Graph(SIG, {"x": "p"}, {})
        with pytest.raises(ValueError, match="carrier"):
            AttributedGraph(g, NAT, {"x": [-1]})
        terms = TermAlg(("u",))
        with pytest.raises(ValueError, match="carrier"):
            AttributedGraph(g, terms, {"x": [Var("w")]})

    @pytest.mark.parametrize("op, args", [("*", (Var("u"), Lit(1))), ("+", (Var("u"),))])
    def test_an_ill_formed_term_is_refused_where_it_is_built(self, op, args):
        g = Graph(SIG, {"x": "p"}, {})
        message = f"a term operation is binary '+', not {op!r} with {len(args)} arguments"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AttributedGraph(g, TermAlg(("u",)), {"x": [OpApp(op, args)]})

    def test_a_carrier_error_names_the_first_element_in_id_order(self):
        g = Graph(SIG, {"z": "p", "x": "p", "y": "p"}, {"e": ("a", "z", "x")})
        with pytest.raises(ValueError, match="label -1 on element 'x' is outside"):
            AttributedGraph(g, NAT, {"e": [-2], "z": [-3], "y": [1], "x": [-1]})
        with pytest.raises(ValueError, match="label -2 on element 'e' is outside"):
            AttributedGraph(g, NAT, {"e": [-2], "z": [2], "y": [1], "x": [1]})

    def test_label_sets_are_kept_and_other_values_wrapped(self):
        a = chain(labels_x=(1,), labels_y=LabelSet([2]))
        assert type(a.label("x")) is LabelSet
        b = AttributedGraph(a.graph, NAT, a.labeling)
        assert all(b.label(x) is a.label(x) for x in a.element_ids())
        c = a.with_labels({"y": [5]})
        assert c.label("x") is a.label("x") and c.label("y") == LabelSet([5])

    def test_label_groups_group_nodes_by_sort_and_label(self):
        g = Graph(SortSignature(["p", "q"], {}),
                  {"n3": "p", "n1": "p", "n2": "q", "n0": "p", "n4": "q"}, {})
        a = AttributedGraph(g, NAT, {"n3": [1], "n0": [1], "n2": [1], "n4": [2]})
        assert a.label_groups() == {
            "p": {LabelSet([1]): {"n0", "n3"}, LabelSet(): {"n1"}},
            "q": {LabelSet([1]): {"n2"}, LabelSet([2]): {"n4"}}}
        assert "label_groups" not in vars(a)

    def test_with_labels_replaces_selected_sets(self):
        a = chain(labels_x=(1,), labels_y=(2,))
        b = a.with_labels({"y": [5, 6]})
        assert b.label("x") == LabelSet([1])
        assert b.label("y") == LabelSet([5, 6])
        assert a.label("y") == LabelSet([2])

    def test_with_labels_checks_only_the_new_label_sets(self):
        seen = []

        class Watched(NatPlus):
            def contains(self, value):
                seen.append(value)
                return super().contains(value)

        a = AttributedGraph(chain().graph, Watched(), {"x": [1], "y": [2], "e": [3]})
        seen.clear()
        b = a.with_labels({"y": [5, 6], "x": LabelSet([1])})
        assert sorted(seen) == [5, 6]
        assert b.graph is a.graph and b.label("x") is a.label("x")
        assert [type(label) for label in b.labeling.values()] == [LabelSet] * 3
        with pytest.raises(ValueError, match="^label -1 on element 'y' is outside the carrier$"):
            a.with_labels({"y": [-1], "e": [-2]})
        with pytest.raises(ValueError, match=r"^labeling names unknown elements \['ghost'\]$"):
            a.with_labels({"ghost": [1], "x": [-1]})

    def test_equality_includes_labels(self):
        assert chain(labels_x=(1,)) == chain(labels_x=(1,))
        assert chain(labels_x=(1,)) != chain(labels_x=(2,))


class TestAttrMorphism:
    def test_labels_may_grow_along_the_map(self):
        small = chain(labels_x=(1,))
        big = chain(labels_x=(1, 2), labels_e=(7,))
        sigma = identity_morphism(small.graph)
        m = AttrMorphism(small, big, sigma, AlgebraMorphism.identity(NAT))
        assert m.is_neutral

    def test_labels_must_not_shrink(self):
        small = chain(labels_x=(1, 3))
        big = chain(labels_x=(1,))
        sigma = identity_morphism(small.graph)
        with pytest.raises(ValueError, match="label condition"):
            AttrMorphism(small, big, sigma, AlgebraMorphism.identity(NAT))

    def test_validation_report_lists_offenders(self):
        small = chain(labels_x=(1, 3), labels_y=(9,))
        big = chain(labels_x=(1,))
        sigma = identity_morphism(small.graph)
        with pytest.raises(ValueError) as raised:
            AttrMorphism(small, big, sigma, AlgebraMorphism.identity(NAT))
        assert str(raised.value) == (
            "label condition fails: "
            "element 'x': mapped labels {1, 3} not contained in {1} at 'x'; "
            "element 'y': mapped labels {9} not contained in {} at 'y'")
        AttrMorphism(small, chain(labels_x=(1, 3), labels_y=(9,)), sigma,
                     AlgebraMorphism.identity(NAT))

    def test_violations_follow_element_id_order(self):
        g = Graph(SIG, {"z": "p", "x": "p", "y": "p"},
                  {"f": ("a", "z", "x"), "e": ("a", "x", "y")})
        small = AttributedGraph(g, NAT, {"z": [1], "x": [2], "y": [3], "f": [4], "e": [5]})
        big = AttributedGraph(g, NAT, {"y": [3]})
        sigma = GraphMorphism(g, g, {"y": "y", "z": "z", "x": "x"}, {"f": "f", "e": "e"})
        with pytest.raises(ValueError) as raised:
            AttrMorphism(small, big, sigma, AlgebraMorphism.identity(NAT))
        assert str(raised.value) == (
            "label condition fails: "
            "element 'x': mapped labels {2} not contained in {} at 'x'; "
            "element 'z': mapped labels {1} not contained in {} at 'z'; "
            "element 'e': mapped labels {5} not contained in {} at 'e'; "
            "element 'f': mapped labels {4} not contained in {} at 'f'")

    def test_violations_under_an_assignment_follow_element_id_order(self):
        terms = TermAlg(("u",))
        g = Graph(SIG, {"z": "p", "x": "p", "y": "p"},
                  {"f": ("a", "z", "x"), "e": ("a", "x", "y")})
        pattern = AttributedGraph(g, terms, {"z": [Var("u")], "x": [Lit(2)], "y": [Var("u")],
                                             "f": [Lit(4)], "e": []})
        host = AttributedGraph(g, NAT, {"z": [7], "x": [7], "y": [8], "f": [7, 4]})
        sigma = GraphMorphism(g, g, {"z": "z", "x": "x", "y": "y"}, {"f": "f", "e": "e"})
        alpha = AlgebraMorphism(terms, NAT, {"u": 7})
        with pytest.raises(ValueError) as raised:
            AttrMorphism(pattern, host, sigma, alpha)
        assert str(raised.value) == (
            "label condition fails: "
            "element 'x': mapped labels {2} not contained in {7} at 'x'; "
            "element 'y': mapped labels {7} not contained in {8} at 'y'")
        AttrMorphism(pattern, host.with_labels({"x": [2], "y": [7]}), sigma, alpha)

    def test_variable_assignment_is_applied_before_comparing(self):
        terms = TermAlg(("u",))
        g = Graph(SIG, {"x": "p"}, {})
        pattern = AttributedGraph(g, terms, {"x": [Var("u"), Lit(3)]})
        host = AttributedGraph(g, NAT, {"x": [3, 8]})
        alpha = AlgebraMorphism(terms, NAT, {"u": 8})
        m = AttrMorphism(pattern, host, identity_morphism(g), alpha)
        assert not m.is_neutral
        wrong = AlgebraMorphism(terms, NAT, {"u": 5})
        with pytest.raises(ValueError, match="label condition"):
            AttrMorphism(pattern, host, identity_morphism(g), wrong)

    def test_composition_chains_both_parts(self):
        terms = TermAlg(("u",))
        g = Graph(SIG, {"x": "p"}, {})
        pattern = AttributedGraph(g, terms, {"x": [Var("u")]})
        mid = AttributedGraph(g, NAT, {"x": [4]})
        top = AttributedGraph(g, NAT, {"x": [4, 9]})
        first = AttrMorphism(pattern, mid, identity_morphism(g),
                             AlgebraMorphism(terms, NAT, {"u": 4}))
        second = AttrMorphism(mid, top, identity_morphism(g),
                              AlgebraMorphism.identity(NAT))
        both = compose_attr(second, first)
        assert both.source is pattern and both.target is top
        assert both.alpha.assignment == {"u": 4}

    def test_identity(self):
        a = chain(labels_x=(1,))
        assert identity_attr(a).is_neutral
        assert compose_attr(identity_attr(a), identity_attr(a)) == identity_attr(a)


class TestAttrIsomorphism:
    def test_relabeled_copy_is_isomorphic(self):
        a = chain(labels_x=(1,), labels_y=(2,), labels_e=(5,))
        b = rename_attributed(a, {"x": "u0", "y": "u1", "e": "u2"})
        iso = is_attr_isomorphic(a, b)
        assert iso is not None
        assert iso.apply("x") == "u0"
        assert iso.apply("e") == "u2"

    def test_labels_distinguish_otherwise_equal_graphs(self):
        a = chain(labels_x=(1,), labels_y=(2,))
        b = chain(labels_x=(2,), labels_y=(1,))
        # the only sort-preserving bijection respecting the edge sends x to x
        assert is_attr_isomorphic(a, b) is None

    def test_label_respecting_permutation_is_found(self):
        g = Graph(SIG, {"x": "p", "y": "p"}, {})
        a = AttributedGraph(g, NAT, {"x": [1], "y": [2]})
        b = AttributedGraph(g, NAT, {"x": [2], "y": [1]})
        iso = is_attr_isomorphic(a, b)
        assert iso is not None
        assert iso.apply("x") == "y" and iso.apply("y") == "x"

    def test_algebra_must_agree(self):
        g = Graph(SIG, {"x": "p"}, {})
        a = AttributedGraph(g, NAT, {"x": [1]})
        b = AttributedGraph(g, TermAlg(()), {"x": [Lit(1)]})
        assert is_attr_isomorphic(a, b) is None
