"""The specification: the categorical constructions the engine computes.

Identities, composites, renamings, disjoint unions and isomorphism tests of
graphs and their morphisms, pushouts along neutral morphisms, pullbacks of
neutral morphisms, their iterated limit/colimit forms, pushout complements
(the contexts D with their legs k and f), the witness matrix of a coherent
set, the pairwise coherence and independence checks, the span combinators
(associated span, plain-span application, coproduct and derived rules), and
a brute-force universal-property checker.

The package has two layers.  This module is the only specification module;
every other module is the engine.  This module may import the engine, and
neither the engine nor the package root imports this one, so the tests can
hold the engine's results against these constructions as an oracle the
engine cannot touch, and a run never loads it.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

from .algebras import (EMPTY_LABELS, Algebra, AlgebraMorphism, FiniteEnum, LabelSet,
                       OpApp, TermAlg, Value, Var, apply_to_labelset, evaluate_term)
from .attrgraphs import AttrMorphism, AttributedGraph, derive_graph, inclusion
from .graphs import Graph, GraphMorphism, enumerate_morphisms, is_mono
from .rewriting import (DirectTransformation, GluingError, IncoherentSetError, Match,
                        WeakSpan, apply_direct, coherent_set_check, pct)


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


def identity_morphism(g: Graph) -> GraphMorphism:
    return GraphMorphism(g, g, {n: n for n in g.nodes}, {e: e for e in g.edges})


def identity_attr(a: AttributedGraph) -> AttrMorphism:
    return inclusion(a, a)


def compose(g: GraphMorphism, f: GraphMorphism) -> GraphMorphism:
    """The composite mapping x to g(f(x)); requires f.target == g.source."""
    if f.target != g.source:
        raise ValueError("composition mismatch: f.target differs from g.source")
    return GraphMorphism(
        f.source, g.target,
        {n: g.node_map[v] for n, v in f.node_map.items()},
        {e: g.edge_map[v] for e, v in f.edge_map.items()})


def compose_algebra(outer: AlgebraMorphism, inner: AlgebraMorphism) -> AlgebraMorphism:
    """``outer`` after ``inner`` (inner.target must equal outer.source)."""
    if inner.target != outer.source:
        raise ValueError("algebra morphisms do not compose")
    if inner.is_identity:
        return AlgebraMorphism(inner.source, outer.target, outer.assignment)
    if outer.is_identity:
        return AlgebraMorphism(inner.source, outer.target, inner.assignment)
    combined = {v: evaluate_term(val, outer) for v, val in inner.assignment.items()}
    return AlgebraMorphism(inner.source, outer.target, combined)


def compose_attr(g: AttrMorphism, f: AttrMorphism) -> AttrMorphism:
    """Componentwise composite g after f, through the checked constructor:
    a composite of lax morphisms is lax, and its labels are checked, not
    assumed."""
    if f.target != g.source:
        raise ValueError("attributed morphisms do not compose")
    return AttrMorphism(f.source, g.target, compose(g.sigma, f.sigma),
                        compose_algebra(g.alpha, f.alpha))


def rename_graph(g: Graph, mapping: Mapping[str, str]) -> Graph:
    """Rebuild a graph with element ids replaced per mapping (must stay unique)."""
    new_ids = [mapping.get(x, x) for x in g.element_ids()]
    if len(set(new_ids)) != len(new_ids):
        raise ValueError("renaming collapses element ids")
    nodes = {mapping.get(n, n): s for n, s in g.nodes.items()}
    edges = {mapping.get(e, e): (sort, mapping.get(src, src), mapping.get(tgt, tgt))
             for e, (sort, src, tgt) in g.edges.items()}
    return Graph(g.signature, nodes, edges)


def rename_attributed(a: AttributedGraph, mapping: Mapping[str, str]) -> AttributedGraph:
    """Rename element ids throughout the graph and its labeling."""
    graph = rename_graph(a.graph, mapping)
    labeling = {mapping.get(x, x): labels for x, labels in a.labeling.items()}
    return AttributedGraph(graph, a.algebra, labeling)


def disjoint_union(a: Graph, b: Graph) -> tuple[Graph, GraphMorphism, GraphMorphism]:
    """Fresh-renamed sum of two graphs with its two injections."""
    if a.signature != b.signature:
        raise ValueError("graphs use different sort signatures")
    ren_a = {x: f"du1:{x}" for x in chain(a.nodes, a.edges)}
    ren_b = {x: f"du2:{x}" for x in chain(b.nodes, b.edges)}
    nodes = {ren_a[n]: s for n, s in a.nodes.items()}
    nodes.update({ren_b[n]: s for n, s in b.nodes.items()})
    edges = {ren_a[e]: (sort, ren_a[src], ren_a[tgt]) for e, (sort, src, tgt) in a.edges.items()}
    edges.update({ren_b[e]: (sort, ren_b[src], ren_b[tgt]) for e, (sort, src, tgt) in b.edges.items()})
    total = Graph(a.signature, nodes, edges)
    inj_a = GraphMorphism(a, total, {n: ren_a[n] for n in a.nodes}, {e: ren_a[e] for e in a.edges})
    inj_b = GraphMorphism(b, total, {n: ren_b[n] for n in b.nodes}, {e: ren_b[e] for e in b.edges})
    return total, inj_a, inj_b


def _isomorphism(a: Graph, b: Graph,
                 admitted: Mapping[str, set[str]]) -> Optional[GraphMorphism]:
    """`is_isomorphic`, with each element of ``a`` that ``admitted`` names
    admitted only the elements of ``b`` it gives."""
    if a.signature != b.signature:
        raise ValueError("graphs use different sort signatures")
    if len(a.nodes) != len(b.nodes) or len(a.edges) != len(b.edges):
        return None
    for iso in enumerate_morphisms(a, b, injective_only=True, admitted=admitted):
        return GraphMorphism(a, b, iso.node_map, iso.edge_map)
    return None


def is_isomorphic(a: Graph, b: Graph) -> Optional[GraphMorphism]:
    """A bijective sort- and incidence-preserving morphism a -> b, if one
    exists: between graphs of equal node and edge counts, the first
    injective morphism the matcher's search lists, through the checked
    constructor.  The search lists every isomorphism, so this suits only
    the small graphs that specifications and tests compare."""
    return _isomorphism(a, b, {})


def is_attr_isomorphic(a: AttributedGraph, b: AttributedGraph) -> Optional[AttrMorphism]:
    """A label-preserving isomorphism a -> b (label sets equal, not merely
    included), if one exists, found as `is_isomorphic` finds one with each
    element of ``a`` admitted only the elements of ``b`` with its sort and
    exact label set; it too suits only small graphs."""
    if a.algebra != b.algebra:
        return None
    sorts = [{**g.graph.nodes, **{e: ends[0] for e, ends in g.graph.edges.items()}}
             for g in (a, b)]
    alike: dict[tuple[str, LabelSet], set[str]] = {}
    for y, sort in sorts[1].items():
        alike.setdefault((sort, b.labeling[y]), set()).add(y)
    admitted = {x: alike.get((sort, a.labeling[x]), set()) for x, sort in sorts[0].items()}
    sigma = _isomorphism(a.graph, b.graph, admitted)
    return None if sigma is None else AttrMorphism(a, b, sigma, AlgebraMorphism.identity(a.algebra))


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


def pushout_complement(l_neutral: AttrMorphism, m: AttrMorphism) -> ComplementResult:
    """Remove a match's image (outside the preserved part) from the host.

    Every element of L and K is visited: the host elements L covers and K
    does not are deleted, and each kept element's label loses what the match
    placed there and regains what the preserved part carries; every other
    host element keeps its host id and label.  The deletion sets are
    maximal: each matched kept element loses everything the match placed on
    it.  Raises ``GluingError`` when a deleted node would leave an edge
    dangling (naming the smallest such edge id, found by a scan of every
    host edge) or a deleted element carries labels the left side did not
    place.
    """
    if not l_neutral.is_neutral:
        raise ValueError("rule leg must be neutral")
    if not is_mono(l_neutral.sigma):
        raise ValueError("rule leg must be injective")
    if not is_mono(m.sigma):
        raise ValueError("match must be injective")
    if l_neutral.target != m.source:
        raise ValueError("rule leg and match do not meet in the same object")
    left, kept, host, alpha = m.source, l_neutral.source, m.target, m.alpha
    placed = {m.apply(v): apply_to_labelset(alpha, left.label(v)) for v in left.element_ids()}
    regained = {m.apply(l_neutral.apply(u)): apply_to_labelset(alpha, kept.label(u))
                for u in kept.element_ids()}
    deleted = placed.keys() - regained.keys()

    dangling = [eid for eid, (_sort, src, tgt) in host.graph.edges.items()
                if eid not in deleted and (src in deleted or tgt in deleted)]
    if dangling:
        eid = min(dangling)
        raise GluingError(
            f"edge {eid!r} would dangle: an endpoint is deleted but the edge is not",
            dangling_edge=eid)
    for x in sorted(deleted):
        extra = host.label(x) - placed[x]
        if extra:
            raise GluingError(
                f"element {x!r} is deleted but carries labels "
                f"{LabelSet(extra).render()} beyond the matched left side")

    graph = Graph(host.graph.signature,
                  {n: s for n, s in host.graph.nodes.items() if n not in deleted},
                  {e: d for e, d in host.graph.edges.items() if e not in deleted})
    labeling = {x: label for x, label in host.labeling.items() if x not in deleted}
    for w, back in regained.items():
        labeling[w] = LabelSet((labeling[w] - placed[w]) | back)
    complement = AttributedGraph(graph, host.algebra, labeling)
    deletion_sets = dict.fromkeys(complement.element_ids(), EMPTY_LABELS)
    deletion_sets.update((w, placed[w]) for w in regained)

    k_sigma = GraphMorphism(
        kept.graph, complement.graph,
        {u: m.apply(l_neutral.apply(u)) for u in kept.graph.nodes},
        {u: m.apply(l_neutral.apply(u)) for u in kept.graph.edges})
    k_morph = AttrMorphism(kept, complement, k_sigma, m.alpha)
    return ComplementResult(complement=complement, k_to_complement=k_morph,
                            complement_to_host=inclusion(complement, host),
                            deletion_sets=deletion_sets)


def _witness(required: AttributedGraph, image: Mapping[str, str], alpha: AlgebraMorphism,
             context: AttributedGraph) -> AttrMorphism:
    """The morphism j from ``required`` into ``context`` that sends each
    element x to its host id ``image[x]``, through the checked constructors,
    which raise ValueError when the image does not embed in the context the
    specification builds."""
    graph = required.graph
    sigma = GraphMorphism(graph, context.graph, {x: image[x] for x in graph.nodes},
                          {x: image[x] for x in graph.edges})
    return AttrMorphism(required, context, sigma, alpha)


class WitnessMatrix(Mapping):
    """The p x p witnesses of a coherent set, keyed (a, b) in row order.

    Entry (a, b) is the witness morphism j: I_a -> D_b from rule a's
    required part into context b; diagonal entries are the composites k o i
    through the rule's own context.  Making the matrix runs
    ``coherent_set_check``, so an incoherent set raises its
    ``IncoherentSetError``.  Each witness is built when it is first read,
    with its labels checked, and each context D_b once.
    """

    def __init__(self, gammas: Sequence[DirectTransformation]):
        self._gammas = list(gammas)
        coherent_set_check(self._gammas)
        self._contexts: dict[int, AttributedGraph] = {}
        self._built: dict[tuple[int, int], AttrMorphism] = {}

    def __getitem__(self, key: tuple[int, int]) -> AttrMorphism:
        if key not in self._built:
            p = len(self._gammas)
            if not (isinstance(key, tuple) and len(key) == 2
                    and all(isinstance(i, int) and 0 <= i < p for i in key)):
                raise KeyError(key)
            a, b = key
            if b not in self._contexts:
                gb = self._gammas[b]
                self._contexts[b] = pushout_complement(gb.rule.l, gb.match.m).complement
            ga = self._gammas[a]
            self._built[key] = _witness(ga.rule.I, ga.required_image, ga.match.alpha,
                                        self._contexts[b])
        return self._built[key]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        p = len(self._gammas)
        return ((a, b) for a in range(p) for b in range(p))

    def __len__(self) -> int:
        return len(self._gammas) ** 2


def check_parallel_coherent(g1: DirectTransformation,
                            g2: DirectTransformation) -> tuple[AttrMorphism, AttrMorphism] | None:
    """The witness morphisms embedding each rule's required part into the
    other's context, or None."""
    try:
        matrix = WitnessMatrix([g1, g2])
    except IncoherentSetError:
        return None
    return matrix[(0, 1)], matrix[(1, 0)]


def check_parallel_independent(g1: DirectTransformation,
                               g2: DirectTransformation) -> tuple[AttrMorphism, AttrMorphism] | None:
    """The witness morphisms embedding each full left side into the other's
    context, or None when the checked constructors refuse one: the pair is
    independent exactly when both witnesses exist."""
    if g1.host != g2.host:
        raise ValueError("direct transformations live on different hosts")
    d1, d2 = (pushout_complement(g.rule.l, g.match.m).complement for g in (g1, g2))
    try:
        return tuple(_witness(g.rule.L, g.match.m.sigma.element_map(), g.match.alpha, d)
                     for g, d in ((g1, d2), (g2, d1)))
    except ValueError:
        return None


def associated_span(rule: WeakSpan) -> tuple[WeakSpan, AttrMorphism]:
    """The plain span obtained by pushing the right side out along the
    required-part inclusion; returns it with the comparison map R -> R'."""
    po = pushout_along_neutral(rule.r, rule.i)
    r_prime = po.leg_from_other_side       # K -> R', neutral
    i_prime = po.leg_from_neutral_side     # R -> R'
    span = WeakSpan(
        name=f"{rule.name}~",
        L=rule.L, K=rule.K, I=rule.K, R=po.apex,
        l=rule.l, i=identity_attr(rule.K), r=r_prime)
    return span, i_prime


def is_plain_span(rule: WeakSpan) -> bool:
    """Whether the rule's required part is K itself, through the identity."""
    return rule.I == rule.K and rule.i.sigma == identity_morphism(rule.K.graph)


def apply_span_dpo(span_rule: WeakSpan, match: Match) -> DirectTransformation:
    """Classical double-pushout application of a plain span (I equals K)."""
    if not is_plain_span(span_rule):
        raise ValueError("rule is not a plain span (its required part must equal K)")
    rebased = match if match.rule is span_rule else Match(span_rule, match.m)
    return apply_direct(rebased)


def _rename_rule_variables(rule: WeakSpan, taken: set[str]) -> WeakSpan:
    alg = rule.algebra
    if not isinstance(alg, TermAlg):
        return rule
    renaming: dict[str, str] = {}
    for v in sorted(alg.variables):
        fresh = v
        while fresh in taken:
            fresh += "'"
        renaming[v] = fresh
        taken.add(fresh)
    if all(k == v for k, v in renaming.items()):
        return rule
    new_alg = TermAlg(renaming.values())

    def rename_term(t: Value) -> Value:
        if isinstance(t, Var):
            return Var(renaming[t.name])
        if isinstance(t, OpApp):
            return OpApp(t.op, tuple(rename_term(a) for a in t.args))
        return t

    def rename_obj(obj: AttributedGraph) -> AttributedGraph:
        labeling = {x: LabelSet(rename_term(v) for v in labels)
                    for x, labels in obj.labeling.items()}
        return AttributedGraph(obj.graph, new_alg, labeling)

    L, K, I, R = map(rename_obj, (rule.L, rule.K, rule.I, rule.R))
    ident = AlgebraMorphism.identity(new_alg)
    return WeakSpan(
        name=rule.name, L=L, K=K, I=I, R=R,
        l=AttrMorphism(K, L, rule.l.sigma, ident),
        i=AttrMorphism(I, K, rule.i.sigma, ident),
        r=AttrMorphism(I, R, rule.r.sigma, ident))


def coproduct_rule(r1: WeakSpan, r2: WeakSpan) -> WeakSpan:
    """Componentwise disjoint union of two rules over a merged algebra."""
    alg1, alg2 = r1.algebra, r2.algebra
    if isinstance(alg1, FiniteEnum) or isinstance(alg2, FiniteEnum):
        if alg1 != alg2:
            raise ValueError("enumerated rules must share their algebra")
        combined: Algebra = alg1
        rr1, rr2 = r1, r2
    else:
        taken = set(alg1.variables)
        rr2 = _rename_rule_variables(r2, taken)
        combined = TermAlg(alg1.variables | rr2.algebra.variables)
        rr1 = r1

    parts = {}
    injections = {}
    for tag in ("L", "K", "I", "R"):
        a, b = getattr(rr1, tag), getattr(rr2, tag)
        total, in_a, in_b = disjoint_union(a.graph, b.graph)
        labeling = {in_a.apply(x): a.label(x) for x in a.element_ids()}
        labeling.update({in_b.apply(x): b.label(x) for x in b.element_ids()})
        parts[tag] = AttributedGraph(total, combined, labeling)
        injections[tag] = (in_a, in_b)

    ident = AlgebraMorphism.identity(combined)

    def sum_map(tag_src: str, tag_tgt: str, m1: AttrMorphism, m2: AttrMorphism) -> AttrMorphism:
        src, tgt = parts[tag_src], parts[tag_tgt]
        in_src = injections[tag_src]
        in_tgt = injections[tag_tgt]
        node_map: dict[str, str] = {}
        edge_map: dict[str, str] = {}
        for side, m in ((0, m1), (1, m2)):
            for n in m.source.graph.nodes:
                node_map[in_src[side].apply(n)] = in_tgt[side].apply(m.apply(n))
            for e in m.source.graph.edges:
                edge_map[in_src[side].apply(e)] = in_tgt[side].apply(m.apply(e))
        return AttrMorphism(src, tgt, GraphMorphism(src.graph, tgt.graph, node_map, edge_map), ident)

    return WeakSpan(
        name=f"{rr1.name}+{rr2.name}",
        L=parts["L"], K=parts["K"], I=parts["I"], R=parts["R"],
        l=sum_map("K", "L", rr1.l, rr2.l),
        i=sum_map("I", "K", rr1.i, rr2.i),
        r=sum_map("I", "R", rr1.r, rr2.r))


def derive_span_from_pct(rules: Sequence[WeakSpan]) -> WeakSpan:
    """Collapse rules sharing one left side into a single plain span.

    Runs the parallel coherent transformation with the shared left side as
    its own host (identity matches) and reads off L <- D' -> H'.  D' is the
    limit of the rules' contexts, renamed to L's ids through its legs; H' is
    L changed by the joint step.
    """
    if not rules:
        raise ValueError("need at least one rule")
    shared_l = rules[0].L
    for rule in rules[1:]:
        if rule.L != shared_l:
            raise ValueError("rules do not share an identical left side")
    gammas = [apply_direct(Match(rule, identity_attr(shared_l))) for rule in rules]
    hprime = derive_graph(shared_l, pct(gammas))
    into_l = [pushout_complement(g.rule.l, g.match.m).complement_to_host for g in gammas]
    limit, legs = limit_of_neutrals(into_l)
    kept = compose_attr(into_l[0], legs[0])
    dprime = rename_attributed(limit, {z: kept.apply(z) for z in limit.element_ids()})
    return WeakSpan(
        name="+".join(r.name for r in rules),
        L=shared_l, K=dprime, I=dprime, R=hprime,
        l=inclusion(dprime, shared_l), i=identity_attr(dprime), r=inclusion(dprime, hprime))


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
