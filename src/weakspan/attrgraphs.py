"""Attributed graphs (graph + algebra + labeling) and their lax morphisms."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from .algebras import (Algebra, AlgebraMorphism, LabelSet, EMPTY_LABELS,
                       apply_to_labelset, render_value)
from .graphs import Graph, GraphMorphism


class AttributedGraph:
    """A finite sorted graph whose every element carries a finite label set.

    Elements missing from the supplied labeling get the empty label set, so
    the stored labeling is total on nodes and edges.  Values that already
    are ``LabelSet`` objects are stored as they are, so graphs built from
    one another share the label sets they did not change.
    """

    def __init__(self, graph: Graph, algebra: Algebra,
                 labeling: Optional[Mapping[str, object]] = None):
        self.graph = graph
        self.algebra = algebra
        nodes, edges = graph.nodes, graph.edges
        labels = dict(labeling or {})
        # a labeling with one key per element that names every element names
        # nothing else; only a partial one needs the set difference
        if not (len(labels) == len(nodes) + len(edges)
                and nodes.keys() <= labels.keys() and edges.keys() <= labels.keys()):
            extra = labels.keys() - nodes.keys() - edges.keys()
            if extra:
                raise ValueError(f"labeling names unknown elements {sorted(extra)}")
            labels = {**dict.fromkeys(nodes, EMPTY_LABELS),
                      **dict.fromkeys(edges, EMPTY_LABELS), **labels}
        for x, value in labels.items():
            if type(value) is not LabelSet:
                labels[x] = LabelSet(value)
        # each distinct label set is checked once
        _check_carrier(algebra, graph, labels, set(labels.values()))
        self.labeling: dict[str, LabelSet] = labels

    def label_groups(self) -> dict[str, dict[LabelSet, set[str]]]:
        """Node ids by sort and then by label set, each group a set.

        A matcher admits a pattern node by testing each group's label once
        and searching the admitted groups' ids, so no order is needed here:
        its results are sorted once found.  Built on each call and kept by
        no graph: a caller that matches several rules against this graph
        builds it once and passes it on.
        """
        labeling = self.labeling
        groups: dict[str, dict[LabelSet, set[str]]] = {}
        for sort, ids in self.graph.index.nodes_by_sort.items():
            by_label = groups[sort] = {}
            for n in ids:
                by_label.setdefault(labeling[n], set()).add(n)
        return groups

    def label(self, x: str) -> LabelSet:
        return self.labeling[x]

    def element_ids(self) -> list[str]:
        return self.graph.element_ids()

    def element_count(self) -> int:
        return self.graph.element_count()

    def with_labels(self, updates: Mapping[str, object]) -> "AttributedGraph":
        """This graph with the given elements' label sets replaced; only the
        new label sets are checked against the carrier."""
        extra = updates.keys() - self.labeling.keys()
        if extra:
            raise ValueError(f"labeling names unknown elements {sorted(extra)}")
        labeling = self.labeling
        relabelled = {}
        for x, value in updates.items():
            label = value if type(value) is LabelSet else LabelSet(value)
            if label != labeling[x]:
                relabelled[x] = (labeling[x], label)
        return derive_graph(self, ChangeSet(relabelled=relabelled))

    def __eq__(self, other) -> bool:
        # labels first: the left sides a step groups (`runner.rule_matches`)
        # often share one shape and differ only in their labels
        return self is other or (isinstance(other, AttributedGraph)
                                 and self.labeling == other.labeling
                                 and self.graph == other.graph
                                 and self.algebra == other.algebra)

    def __repr__(self) -> str:
        parts = ", ".join(f"{x}:{self.labeling[x].render()}"
                          for x in self.element_ids() if self.labeling[x])
        return f"AttributedGraph({self.graph!r}; {parts})"


def _check_carrier(algebra: Algebra, graph: Graph, labels: Mapping[str, LabelSet],
                   distinct: Iterable[LabelSet]) -> None:
    """Raise ValueError when a label set in ``distinct`` holds a value outside
    the carrier, naming the first element in the graph's id order whose label
    in ``labels`` does."""
    for label in distinct:
        if not all(map(algebra.contains, label)):
            for x in graph.element_ids():
                for v in labels[x]:
                    if not algebra.contains(v):
                        raise ValueError(
                            f"label {render_value(v)} on element {x!r} is outside the carrier")


_NO_IDS: frozenset = frozenset()
_NO_ENTRIES: Mapping = MappingProxyType({})


@dataclass(frozen=True, slots=True, init=False)
class ChangeSet:
    """What one step (or one application) changes in its host, in ids of the
    result.

    ``deleted`` holds the host ids the result drops.  ``relabelled`` maps each
    surviving id whose label set differs to its (old, new) label sets.
    ``added`` maps each new id, in creation order, to its sort, its
    (source, target) ends for an edge or None for a node, and its label set.
    Every empty part is one shared empty container, so a run can keep a
    change set per step cheaply.
    """

    deleted: frozenset
    relabelled: Mapping[str, tuple[LabelSet, LabelSet]]
    added: Mapping[str, tuple[str, Optional[tuple[str, str]], LabelSet]]

    def __init__(self, deleted: frozenset = _NO_IDS,
                 relabelled: Mapping[str, tuple[LabelSet, LabelSet]] = _NO_ENTRIES,
                 added: Mapping[str, tuple[str, Optional[tuple[str, str]], LabelSet]] = _NO_ENTRIES):
        object.__setattr__(self, "deleted", deleted or _NO_IDS)
        object.__setattr__(self, "relabelled", relabelled or _NO_ENTRIES)
        object.__setattr__(self, "added", added or _NO_ENTRIES)


def derive_graph(parent: AttributedGraph, changes: ChangeSet) -> AttributedGraph:
    """``parent`` with ``changes`` applied, in one copy of its labeling.

    The parent is trusted: only the label sets the change introduces are
    checked against the carrier, and a failure names the first element in
    the result's id order, as the constructor does.  The result shares the
    parent's graph, and so its index, when nothing is deleted or added;
    otherwise its graph goes through the public ``Graph`` constructor with
    all of that constructor's checks.  Label sets nothing changes are shared
    with the parent.
    """
    deleted, relabelled, added = changes.deleted, changes.relabelled, changes.added
    labels = parent.labeling.copy()
    new = set()
    for x, (_old, label) in relabelled.items():
        labels[x] = label
        new.add(label)
    graph = parent.graph
    if deleted or added:
        for x in deleted:
            del labels[x]
        nodes = {n: s for n, s in graph.nodes.items() if n not in deleted}
        edges = {e: d for e, d in graph.edges.items() if e not in deleted}
        for z, (sort, ends, label) in added.items():
            if ends is None:
                nodes[z] = sort
            else:
                edges[z] = (sort, *ends)
            labels[z] = label
            new.add(label)
        graph = Graph(graph.signature, nodes, edges)
    _check_carrier(parent.algebra, graph, labels, new)
    derived = object.__new__(AttributedGraph)
    derived.graph, derived.algebra, derived.labeling = graph, parent.algebra, labels
    return derived


def label_violation(element: str, image: str, mapped: LabelSet, have: LabelSet) -> str:
    """Why ``element``'s labels, ``mapped`` into the target, fail the lax
    label condition at its ``image``, whose labels are ``have``."""
    return (f"element {element!r}: mapped labels {mapped.render()} "
            f"not contained in {have.render()} at {image!r}")


class AttrMorphism:
    """A pair of a graph morphism and an algebra morphism, lax on labels.

    Lax means the image of each source label set is contained in the label
    set of the image element; a morphism is neutral when its algebra part is
    an identity.  The constructor, the one test of the label condition,
    checks both parts' ends and every element's labels, and has no unchecked
    mode.  One pass stops at the first failure; only then does a second list
    every violation, in element id order, in the ValueError it raises.
    """

    def __init__(self, source: AttributedGraph, target: AttributedGraph,
                 sigma: GraphMorphism, alpha: AlgebraMorphism):
        self.source = source
        self.target = target
        self.sigma = sigma
        self.alpha = alpha
        if sigma.source != source.graph or sigma.target != target.graph:
            raise ValueError("graph part does not run between the underlying graphs")
        if alpha.source != source.algebra or alpha.target != target.algebra:
            raise ValueError("algebra part does not run between the algebras")
        labels, have = source.labeling, target.labeling
        identity = alpha.is_identity
        for x, y in itertools.chain(sigma.node_map.items(), sigma.edge_map.items()):
            label = labels[x]
            if label and not (label if identity else apply_to_labelset(alpha, label)) <= have[y]:
                break
        else:
            return
        violations = []
        for x in source.element_ids():
            y, mapped = sigma.apply(x), apply_to_labelset(alpha, labels[x])
            if not mapped <= have[y]:
                violations.append(label_violation(x, y, mapped, have[y]))
        raise ValueError("label condition fails: " + "; ".join(violations))

    @property
    def is_neutral(self) -> bool:
        return self.alpha.is_identity and self.source.algebra == self.target.algebra

    def apply(self, x: str) -> str:
        return self.sigma.apply(x)

    def __eq__(self, other) -> bool:
        return (isinstance(other, AttrMorphism)
                and self.source == other.source
                and self.target == other.target
                and self.sigma == other.sigma
                and self.alpha == other.alpha)

    def __repr__(self) -> str:
        return f"AttrMorphism({self.sigma.node_map}, {self.alpha!r})"


def inclusion(small: AttributedGraph, big: AttributedGraph) -> AttrMorphism:
    """The neutral map sending each element of ``small`` to the element of
    ``big`` with its id; its labels are checked."""
    graph = small.graph
    sigma = GraphMorphism(graph, big.graph, {n: n for n in graph.nodes},
                          {e: e for e in graph.edges})
    return AttrMorphism(small, big, sigma, AlgebraMorphism.identity(small.algebra))
