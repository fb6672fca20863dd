"""Pushouts along neutral morphisms, pullbacks of neutral morphisms, their
iterated limit/colimit forms, deletion plans and records, pushout
complements, and a brute-force universal-property checker used by the tests."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebras import EMPTY_LABELS, AlgebraMorphism, LabelSet, apply_to_labelset
from .attrgraphs import (AttrMorphism, AttributedGraph, ChangeSet, compose_attr,
                         derive_graph, identity_attr, inclusion)
from .graphs import Graph, GraphMorphism, enumerate_morphisms, is_mono


class GluingError(Exception):
    """A pushout complement does not exist at the graph level."""

    def __init__(self, message: str, dangling_edge: str | None = None):
        super().__init__(message)
        self.dangling_edge = dangling_edge


@dataclass
class PushoutResult:
    apex: AttributedGraph
    leg_from_neutral_side: AttrMorphism   # from the neutral input's target; carries alpha
    leg_from_other_side: AttrMorphism     # from the other input's target; neutral


@dataclass
class PullbackResult:
    apex: AttributedGraph
    leg_to_first: AttrMorphism
    leg_to_second: AttrMorphism


@dataclass
class ComplementResult:
    complement: AttributedGraph
    k_to_complement: AttrMorphism        # carries the match's alpha
    complement_to_host: AttrMorphism     # neutral inclusion
    deletion_sets: dict[str, LabelSet]


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def pushout_along_neutral(neutral: AttrMorphism, other: AttrMorphism) -> PushoutResult:
    """Pushout of a span whose first leg is neutral.

    Elements identified through the shared source are merged; merged label
    sets take the union of the alpha-image of the neutral side's labels and
    the other side's labels.  Apex ids reuse the other side's ids for classes
    that touch it, so contexts keep their ids through rewriting.
    """
    if not neutral.is_neutral:
        raise ValueError("first argument must be a neutral morphism")
    if neutral.source != other.source:
        raise ValueError("the two morphisms must share their source")
    g_side = neutral.target   # labels over the shared algebra, pushed through alpha
    h_side = other.target
    alpha = other.alpha

    uf = _UnionFind()
    for x in g_side.element_ids():
        uf.find(("g", x))
    for x in h_side.element_ids():
        uf.find(("h", x))
    for x in neutral.source.element_ids():
        uf.union(("g", neutral.apply(x)), ("h", other.apply(x)))

    classes: dict = {}
    for tag in list(uf.parent):
        classes.setdefault(uf.find(tag), []).append(tag)

    # deterministic apex ids: classes holding an h-side element keep the
    # minimal h id; pure g-side classes get a fresh prefixed id
    class_id: dict = {}
    used: set[str] = set()
    h_classes = []
    g_classes = []
    for root, members in classes.items():
        h_ids = sorted(x for side, x in members if side == "h")
        if h_ids:
            h_classes.append((h_ids[0], root))
        else:
            g_classes.append((min(x for side, x in members), root))
    for cid, root in sorted(h_classes):
        class_id[root] = cid
        used.add(cid)
    for gid, root in sorted(g_classes):
        cid = f"po:{gid}"
        while cid in used:
            cid += "'"
        class_id[root] = cid
        used.add(cid)

    def member_graph(side):
        return g_side.graph if side == "g" else h_side.graph

    nodes: dict[str, str] = {}
    edges: dict[str, tuple[str, str, str]] = {}
    labels: dict[str, set] = {}
    for root, members in classes.items():
        cid = class_id[root]
        merged = set()
        for side, x in members:
            src_graph = member_graph(side)
            if side == "g":
                merged |= apply_to_labelset(alpha, g_side.label(x))
            else:
                merged |= h_side.label(x)
        labels[cid] = merged
        side0, x0 = min(members)
        graph0 = member_graph(side0)
        if graph0.is_node(x0):
            nodes[cid] = graph0.nodes[x0]
        else:
            sort, src, tgt = graph0.edges[x0]
            edges[cid] = (sort, class_id[uf.find((side0, src))], class_id[uf.find((side0, tgt))])

    apex_graph = Graph(g_side.graph.signature, nodes, edges)
    apex = AttributedGraph(apex_graph, h_side.algebra, labels)

    def leg(side, source_obj, leg_alpha):
        node_map = {n: class_id[uf.find((side, n))] for n in source_obj.graph.nodes}
        edge_map = {e: class_id[uf.find((side, e))] for e in source_obj.graph.edges}
        sigma = GraphMorphism(source_obj.graph, apex_graph, node_map, edge_map)
        return AttrMorphism(source_obj, apex, sigma, leg_alpha)

    return PushoutResult(
        apex=apex,
        leg_from_neutral_side=leg("g", g_side, alpha),
        leg_from_other_side=leg("h", h_side, AlgebraMorphism.identity(h_side.algebra)))


def pullback_of_neutrals(f1: AttrMorphism, f2: AttrMorphism) -> PullbackResult:
    """Fibered product of two neutral morphisms with a common target.

    Apex elements are the pairs agreeing in the target; their labels are the
    intersections of the paired label sets.
    """
    if not (f1.is_neutral and f2.is_neutral):
        raise ValueError("both morphisms must be neutral")
    if f1.target != f2.target:
        raise ValueError("the two morphisms must share their target")
    a, b = f1.source, f2.source

    by_image_nodes: dict[str, list[str]] = {}
    for n in b.graph.nodes:
        by_image_nodes.setdefault(f2.apply(n), []).append(n)
    by_image_edges: dict[str, list[str]] = {}
    for e in b.graph.edges:
        by_image_edges.setdefault(f2.apply(e), []).append(e)

    def pair_id(x: str, y: str) -> str:
        return f"⟨{x},{y}⟩"

    nodes: dict[str, str] = {}
    node_pairs: dict[tuple[str, str], str] = {}
    labels: dict[str, LabelSet] = {}
    for x in sorted(a.graph.nodes):
        for y in sorted(by_image_nodes.get(f1.apply(x), [])):
            pid = pair_id(x, y)
            nodes[pid] = a.graph.nodes[x]
            node_pairs[(x, y)] = pid
            labels[pid] = LabelSet(a.label(x) & b.label(y))
    edges: dict[str, tuple[str, str, str]] = {}
    edge_pairs: dict[tuple[str, str], str] = {}
    for x in sorted(a.graph.edges):
        sort, src_x, tgt_x = a.graph.edges[x]
        for y in sorted(by_image_edges.get(f1.apply(x), [])):
            _, src_y, tgt_y = b.graph.edges[y]
            pid = pair_id(x, y)
            edges[pid] = (sort, node_pairs[(src_x, src_y)], node_pairs[(tgt_x, tgt_y)])
            edge_pairs[(x, y)] = pid
            labels[pid] = LabelSet(a.label(x) & b.label(y))

    apex_graph = Graph(a.graph.signature, nodes, edges)
    apex = AttributedGraph(apex_graph, a.algebra, labels)
    ident = AlgebraMorphism.identity(a.algebra)
    leg1 = AttrMorphism(apex, a, GraphMorphism(
        apex_graph, a.graph,
        {pid: x for (x, _y), pid in node_pairs.items()},
        {pid: x for (x, _y), pid in edge_pairs.items()}), ident)
    leg2 = AttrMorphism(apex, b, GraphMorphism(
        apex_graph, b.graph,
        {pid: y for (_x, y), pid in node_pairs.items()},
        {pid: y for (_x, y), pid in edge_pairs.items()}), ident)
    return PullbackResult(apex=apex, leg_to_first=leg1, leg_to_second=leg2)


def limit_of_neutrals(legs: Sequence[AttrMorphism]) -> tuple[AttributedGraph, list[AttrMorphism]]:
    """Iterated pullback (left associated) of neutral morphisms into one target.

    Returns the limit object with one leg onto each input source.
    """
    if not legs:
        raise ValueError("need at least one morphism")
    for leg in legs:
        if not leg.is_neutral:
            raise ValueError("all morphisms must be neutral")
        if leg.target != legs[0].target:
            raise ValueError("all morphisms must share their target")
    apex = legs[0].source
    out_legs = [identity_attr(apex)]
    into_target = legs[0]
    for leg in legs[1:]:
        pb = pullback_of_neutrals(into_target, leg)
        out_legs = [compose_attr(e, pb.leg_to_first) for e in out_legs]
        out_legs.append(pb.leg_to_second)
        into_target = compose_attr(into_target, pb.leg_to_first)
        apex = pb.apex
    return apex, out_legs


def colimit_of_neutrals(legs: Sequence[AttrMorphism]) -> tuple[AttributedGraph, list[AttrMorphism]]:
    """Iterated pushout (left associated) of neutral morphisms out of one source.

    Returns the colimit object with one leg from each input target.
    """
    if not legs:
        raise ValueError("need at least one morphism")
    for leg in legs:
        if not leg.is_neutral:
            raise ValueError("all morphisms must be neutral")
        if leg.source != legs[0].source:
            raise ValueError("all morphisms must share their source")
    apex = legs[0].target
    out_legs = [identity_attr(apex)]
    from_source = legs[0]
    for leg in legs[1:]:
        po = pushout_along_neutral(leg, from_source)
        out_legs = [compose_attr(po.leg_from_other_side, h) for h in out_legs]
        out_legs.append(po.leg_from_neutral_side)
        from_source = compose_attr(po.leg_from_other_side, from_source)
        apex = po.apex
    return apex, out_legs


@dataclass(frozen=True, eq=False)
class DeletionPlan:
    """What a rule's left leg l: K -> L deletes and relabels, in L ids.

    ``deleted`` lists the elements of L outside l(K) with their labels, and
    ``relabelled`` each kept element whose K label differs from its L label,
    as (its L id, its L label, its K label).  A plan is fixed by the leg, so
    a rule builds it once and every match visits only these elements.
    """

    left: AttributedGraph
    deleted: tuple[tuple[str, LabelSet], ...]
    relabelled: tuple[tuple[str, LabelSet, LabelSet], ...]


def deletion_plan(l_neutral: AttrMorphism) -> DeletionPlan:
    """The deletion part of a rule's plan; ``l_neutral`` is the preserved-part
    inclusion K -> L, which must be neutral and injective."""
    if not l_neutral.is_neutral:
        raise ValueError("rule leg must be neutral")
    if not is_mono(l_neutral.sigma):
        raise ValueError("rule leg must be injective")
    left, kept = l_neutral.target.labeling, l_neutral.source.labeling
    image = l_neutral.sigma.element_map()
    relabelled = tuple((v, left[v], kept[u]) for u, v in sorted(image.items())
                       if kept[u] != left[v])
    survivors = set(image.values())
    deleted = tuple((v, left[v]) for v in sorted(left) if v not in survivors)
    return DeletionPlan(left=l_neutral.target, deleted=deleted, relabelled=relabelled)


def deletion_record(plan: DeletionPlan, m: AttrMorphism) -> ChangeSet:
    """Check the gluing conditions of a match and record its context D as a
    change set against the host.

    ``plan`` is the deletion plan of the rule's left leg; ``m`` the match
    into the host.  ``deleted`` holds the host elements outside the image of
    the preserved part, and ``relabelled`` maps each kept element whose
    context label differs from its host label to (host label, context
    label); every other kept element keeps its host label.  Raises
    ``GluingError`` when a deleted node would leave an edge dangling (naming
    the smallest such edge id) or a deleted element carries labels the left
    side did not place.  Only the planned elements and the edges at deleted
    nodes are visited.
    """
    if not is_mono(m.sigma):
        raise ValueError("match must be injective")
    if plan.left != m.source:
        raise ValueError("rule leg and match do not meet in the same object")

    host, alpha, place = m.target, m.alpha, m.sigma.apply
    placed = {place(v): label for v, label in plan.deleted}
    deleted = frozenset(placed)

    # a rule that deletes nothing leaves the incidence table unbuilt
    incident = host.graph.index.incident if deleted else {}
    dangling = [eid for x in deleted for eid in incident.get(x, ()) if eid not in deleted]
    if dangling:
        eid = min(dangling)
        raise GluingError(
            f"edge {eid!r} would dangle: an endpoint is deleted but the edge is not",
            dangling_edge=eid)

    # a deleted element leaves no survivor to carry its labels, so the host
    # label must be exactly what the left side placed there; anything extra
    # would be lost and the removal could not be undone by regluing
    for x in sorted(deleted):
        extra = host.label(x) - apply_to_labelset(alpha, placed[x])
        if extra:
            raise GluingError(
                f"element {x!r} is deleted but carries labels "
                f"{LabelSet(extra).render()} beyond the matched left side")

    relabelled = {}
    for v, erased, back in plan.relabelled:
        w = place(v)
        have = host.label(w)
        label = LabelSet((have - apply_to_labelset(alpha, erased)) | apply_to_labelset(alpha, back))
        if label != have:
            relabelled[w] = (have, label)
    return ChangeSet(deleted, relabelled)


def pushout_complement(l_neutral: AttrMorphism, m: AttrMorphism) -> ComplementResult:
    """Remove a match's image (outside the preserved part) from the host.

    The complement D is ``derive_graph(host, deletion_record(...))``.  Kept
    elements keep their host ids; labels lose what the match placed there
    and regain what the preserved part carries.  The recorded deletion sets
    are maximal: each matched kept element loses everything the match placed
    on it.
    """
    kept = l_neutral.source
    host = m.target
    complement = derive_graph(host, deletion_record(deletion_plan(l_neutral), m))
    deletion_sets = dict.fromkeys(complement.element_ids(), EMPTY_LABELS)
    for u in kept.element_ids():
        v = l_neutral.apply(u)
        deletion_sets[m.apply(v)] = apply_to_labelset(m.alpha, m.source.label(v))

    k_sigma = GraphMorphism(
        kept.graph, complement.graph,
        {u: m.apply(l_neutral.apply(u)) for u in kept.graph.nodes},
        {u: m.apply(l_neutral.apply(u)) for u in kept.graph.edges})
    k_morph = AttrMorphism(kept, complement, k_sigma, m.alpha)
    return ComplementResult(complement=complement, k_to_complement=k_morph,
                            complement_to_host=inclusion(complement, host),
                            deletion_sets=deletion_sets)


_SIZE_BOUND = 6


def _check_size(*objs: AttributedGraph) -> None:
    for o in objs:
        if o.element_count() > _SIZE_BOUND:
            raise ValueError(
                f"universal property check limited to graphs with at most {_SIZE_BOUND} elements")


def _mediators(source: AttributedGraph, target: AttributedGraph,
               alpha: AlgebraMorphism) -> list[AttrMorphism]:
    out = []
    for sigma in enumerate_morphisms(source.graph, target.graph):
        try:
            out.append(AttrMorphism(source, target, sigma, alpha))
        except ValueError:
            continue
    return out


def check_universal_property(kind: str, square, candidate) -> bool:
    """Exhaustively verify that exactly one mediating morphism exists.

    For ``kind == "pushout"``, ``square`` is ``(neutral, other, result)`` and
    ``candidate`` a commuting cocone ``(from_neutral_target, from_other_target)``
    into some object.  For ``kind == "pullback"``, ``square`` is
    ``(f1, f2, result)`` and ``candidate`` a commuting cone
    ``(to_first_source, to_second_source)`` from some object.
    """
    if kind == "pushout":
        neutral, other, result = square
        c_g, c_h = candidate
        _check_size(result.apex, c_g.target)
        if compose_attr(result.leg_from_neutral_side, neutral) != \
                compose_attr(result.leg_from_other_side, other):
            raise ValueError("the computed square does not commute")
        if c_g.source != neutral.target or c_h.source != other.target:
            raise ValueError("candidate cocone legs start at the wrong objects")
        if c_g.target != c_h.target:
            raise ValueError("candidate cocone legs end at different objects")
        if compose_attr(c_g, neutral) != compose_attr(c_h, other):
            raise ValueError("candidate cocone does not commute")
        count = 0
        for u in _mediators(result.apex, c_g.target, c_h.alpha):
            if (compose_attr(u, result.leg_from_neutral_side) == c_g
                    and compose_attr(u, result.leg_from_other_side) == c_h):
                count += 1
        return count == 1
    if kind == "pullback":
        f1, f2, result = square
        z1, z2 = candidate
        _check_size(result.apex, z1.source)
        if compose_attr(f1, result.leg_to_first) != compose_attr(f2, result.leg_to_second):
            raise ValueError("the computed square does not commute")
        if z1.target != f1.source or z2.target != f2.source:
            raise ValueError("candidate cone legs end at the wrong objects")
        if z1.source != z2.source:
            raise ValueError("candidate cone legs start at different objects")
        if compose_attr(f1, z1) != compose_attr(f2, z2):
            raise ValueError("candidate cone does not commute")
        count = 0
        for u in _mediators(z1.source, result.apex, z1.alpha):
            if (compose_attr(result.leg_to_first, u) == z1
                    and compose_attr(result.leg_to_second, u) == z2):
                count += 1
        return count == 1
    raise ValueError(f"unknown construction kind {kind!r}")
