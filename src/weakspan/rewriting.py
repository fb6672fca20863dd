"""Weak rewrite rules and their plans, rule systems, matching, direct
transformations, the coherence check, and the parallel coherent
transformation.

This module is engine.  It never imports ``constructions``, the
specification, which builds the general contexts, limits, colimits and
witness morphisms that the tests hold this module's results against."""

from __future__ import annotations

import itertools
from collections.abc import Container, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .algebras import (EMPTY_LABELS, Algebra, AlgebraMorphism, FiniteEnum,
                       LabelSet, Lit, NatPlus, OpApp, TermAlg, Value, Var,
                       apply_to_labelset, render_value, term_variables,
                       value_sort_key)
from .attrgraphs import AttrMorphism, AttributedGraph, ChangeSet, label_violation
from .graphs import SortSignature, enumerate_morphisms, is_mono


class GluingError(Exception):
    """A pushout complement does not exist at the graph level."""

    def __init__(self, message: str, dangling_edge: str | None = None):
        super().__init__(message)
        self.dangling_edge = dangling_edge


class IncoherentSetError(Exception):
    """A set of direct transformations fails pairwise coherence.

    ``pair`` gives the two positions in the application list (the runner
    gives their global match indices instead), ``rules`` the names of their
    rules, ``element`` the obstructing host element, and
    ``reason`` what the one application does to what the other requires.
    """

    def __init__(self, pair: tuple[int, int], rules: tuple[str, str],
                 element: str | None, reason: str):
        super().__init__(f"pair {pair} (rules {rules[0]!r} and {rules[1]!r}) is not "
                         f"parallel coherent at element {element!r}: {reason}")
        self.pair = pair
        self.rules = rules
        self.element = element
        self.reason = reason


def _labels_variables(g: AttributedGraph) -> set[str]:
    out: set[str] = set()
    for labels in g.labeling.values():
        for v in labels:
            if isinstance(v, (Var, Lit, OpApp)):
                out |= term_variables(v)
    return out


@dataclass(frozen=True, eq=False)
class RulePlan:
    """What a rule does at any match, worked out once from its legs.

    ``deleted`` lists the elements of L outside l(K), in id order, with
    their L labels, and ``relabelled`` each kept element whose K label
    differs from its L label, as (its L id, its L label, its K label): the
    only elements ``apply_direct`` visits.  ``required`` pairs each element y
    of I, in id order, with its L id l(i(y)) and its R id r(y).  ``added``
    lists the R elements outside r(I) in id order, each with its sort and,
    for an edge, its endpoints as R ids.  ``written`` lists the R elements
    with a non-empty label, with that label.  ``constraints`` holds the
    left side's (element, term) label constraints, smallest term first, so
    that the variables a sum reads are bound before the sum is matched.
    ``labelled_edges`` lists the left side's edges with a non-empty label,
    each with its sort and label, in id order: the edges a match search
    admits host edges for.
    """

    deleted: tuple[tuple[str, LabelSet], ...]
    relabelled: tuple[tuple[str, LabelSet, LabelSet], ...]
    required: tuple[tuple[str, str, str], ...]
    added: tuple[tuple[str, str, Optional[tuple[str, str]]], ...]
    written: tuple[tuple[str, LabelSet], ...]
    constraints: tuple[tuple[str, Value], ...]
    labelled_edges: tuple[tuple[str, str, LabelSet], ...]


def rule_plan(rule: WeakSpan) -> RulePlan:
    """The plan of a rule whose legs are already checked."""
    left, kept = rule.L.labeling, rule.K.labeling
    image = rule.l.sigma.element_map()
    relabelled = tuple((v, left[v], kept[u]) for u, v in sorted(image.items())
                       if kept[u] != left[v])
    survivors = set(image.values())
    deleted = tuple((v, left[v]) for v in sorted(left) if v not in survivors)
    required = tuple((y, rule.l.apply(rule.i.apply(y)), rule.r.apply(y))
                     for y in rule.I.element_ids())
    glued = {ry for _y, _ly, ry in required}
    graph = rule.R.graph
    added = tuple((x, graph.nodes[x], None) if graph.is_node(x)
                  else (x, graph.edges[x][0], graph.edges[x][1:])
                  for x in rule.R.element_ids() if x not in glued)
    written = tuple((x, label) for x, label in sorted(rule.R.labeling.items()) if label)
    constraints = sorted(((x, t) for x, label in left.items() for t in label),
                         key=lambda c: (_term_size(c[1]), render_value(c[1]), c[0]))
    labelled_edges = tuple((e, sort, left[e])
                           for e, (sort, _src, _tgt) in sorted(rule.L.graph.edges.items())
                           if left[e])
    return RulePlan(deleted=deleted, relabelled=relabelled, required=required, added=added,
                    written=written, constraints=tuple(constraints),
                    labelled_edges=labelled_edges)


# the most nodes, and the most label terms, a rule's left side may have: the
# label solver recurses once per (element, term) constraint, so more terms
# would reach Python's recursion limit (1000 frames) instead of being
# refused, and the first search of a left side compiles one loop per node,
# about 0.07 s at 500 nodes
MAX_LEFT_SIZE = 500


@dataclass(frozen=True)
class WeakSpan:
    """A rewrite rule L <- K <- I -> R with neutral injective structure maps.

    K is what survives deletion; I is the part whose presence the rule
    actively requires when extending; R is what gets added.  ``plan`` is
    built once from the legs when the rule is made, and each refusal of the
    legs, or of a left side with more than ``MAX_LEFT_SIZE`` nodes or label
    terms, starts ``rule '<name>':``.  Its fields cannot be reassigned, but
    its graphs and maps can be changed in place, and that must not happen:
    loads of one text share the rule and its plan.
    ``dataclasses.replace`` with new graphs makes a changed copy.
    """

    name: str
    L: AttributedGraph
    K: AttributedGraph
    I: AttributedGraph
    R: AttributedGraph
    l: AttrMorphism
    i: AttrMorphism
    r: AttrMorphism
    plan: RulePlan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        where = f"rule {self.name!r}"
        for size, what in ((len(self.L.graph.nodes), "nodes"),
                           (sum(map(len, self.L.labeling.values())), "label terms")):
            if size > MAX_LEFT_SIZE:
                raise ValueError(f"{where}: left side has {size} {what}, "
                                 f"more than the bound of {MAX_LEFT_SIZE}")
        if not isinstance(self.L.algebra, (TermAlg, FiniteEnum)):
            raise ValueError(
                f"{where}: rule algebra must be a term algebra or a finite enumeration")
        for label, morph, src, tgt in (("l", self.l, self.K, self.L),
                                       ("i", self.i, self.I, self.K),
                                       ("r", self.r, self.I, self.R)):
            if morph.source != src or morph.target != tgt:
                raise ValueError(
                    f"{where}: rule map {label} does not run between the right objects")
            if not morph.is_neutral:
                raise ValueError(f"{where}: rule map {label} must be neutral")
            if not is_mono(morph.sigma):
                raise ValueError(f"{where}: rule map {label} must be injective")
        if isinstance(self.L.algebra, TermAlg):
            in_left = _labels_variables(self.L)
            elsewhere = (_labels_variables(self.K) | _labels_variables(self.I)
                         | _labels_variables(self.R))
            declared = set(self.L.algebra.variables)
            if not elsewhere <= in_left:
                raise ValueError(f"{where}: variables {sorted(elsewhere - in_left)} "
                                 "do not occur in the left side")
            if not declared <= in_left:
                raise ValueError(f"{where}: declared variables {sorted(declared - in_left)} "
                                 "do not occur in the left side")
        object.__setattr__(self, "plan", rule_plan(self))

    @property
    def algebra(self) -> Algebra:
        return self.L.algebra


@dataclass
class SystemSpec:
    """A sort signature, an algebra, a rule list, and an optional host graph."""

    signature: SortSignature
    algebra: Algebra
    rules: list[WeakSpan] = field(default_factory=list)
    host: Optional[AttributedGraph] = None


@dataclass
class Match:
    """An injective occurrence m: L -> host of a rule's left side, whose host
    is ``m.target``; ``m`` must start at ``rule.L`` and be injective."""

    rule: WeakSpan
    m: AttrMorphism

    def __post_init__(self):
        if self.m.source != self.rule.L:
            raise ValueError("match morphism does not start at the rule's left side")
        if not is_mono(self.m.sigma):
            raise ValueError("match must be injective")

    @property
    def host(self) -> AttributedGraph:
        return self.m.target

    @property
    def alpha(self) -> AlgebraMorphism:
        return self.m.alpha


@dataclass
class DirectTransformation:
    """One rule application, as ``apply_direct`` makes it: its match and
    the deletion record of its context.

    The context D keeps host ids, and ``record`` is D as a change set
    against the host: D is ``derive_graph(host, record)``.  Coherence and
    the joint step read only the record; the context as a graph with its
    legs k: K -> D and f: D -> host is the specification's
    ``pushout_complement(rule.l, match.m)``.  The one-element joint step
    ``pct([gamma])`` is the application's result as a change set.
    """

    match: Match
    record: ChangeSet

    @property
    def rule(self) -> WeakSpan:
        return self.match.rule

    @property
    def host(self) -> AttributedGraph:
        return self.match.host

    @cached_property
    def required_image(self) -> dict[str, str]:
        """The host id of each element of the rule's required part I."""
        place = self.match.m.sigma.apply
        return {y: place(v) for y, v, _ry in self.rule.plan.required}


def _match_value(t: Value, w: Value, partial: dict, host_alg: Algebra) -> Iterable[dict]:
    """All extensions of a partial assignment sending term t to host value w."""
    if isinstance(t, Var):
        if t.name in partial:
            if partial[t.name] == w:
                yield partial
        else:
            ext = dict(partial)
            ext[t.name] = w
            yield ext
    elif isinstance(t, Lit):
        if isinstance(host_alg, NatPlus):
            if w == t.value:
                yield partial
        elif t == w:
            yield partial
    elif isinstance(t, OpApp):
        if isinstance(host_alg, NatPlus):
            if isinstance(w, int):
                left, right = t.args
                # a summand whose value is already fixed fixes the split
                for bound, other in ((left, right), (right, left)):
                    value = _bound_sum(bound, partial)
                    if value is not None:
                        if value <= w:
                            yield from _match_value(other, w - value, partial, host_alg)
                        return
                for part in range(w + 1):
                    for mid in _match_value(left, part, partial, host_alg):
                        yield from _match_value(right, w - part, mid, host_alg)
        elif isinstance(host_alg, TermAlg):
            if isinstance(w, OpApp):
                states = [partial]
                for ta, wa in zip(t.args, w.args):
                    states = [ext for st in states for ext in _match_value(ta, wa, st, host_alg)]
                yield from states


def _bound_sum(t: Value, partial: dict) -> Optional[int]:
    """The natural-number value of a sum of literals and bound variables, or
    None when t has a free variable."""
    if isinstance(t, Var):
        return partial.get(t.name)
    if isinstance(t, Lit):
        return t.value
    if isinstance(t, OpApp):
        left, right = (_bound_sum(a, partial) for a in t.args)
        if left is not None and right is not None:
            return left + right
    return None


def _term_size(t: Value) -> int:
    if isinstance(t, OpApp):
        return 1 + sum(_term_size(a) for a in t.args)
    return 1


def _solve_label_constraints(constraints: list[tuple[Value, LabelSet]],
                             host_alg: Algebra) -> list[dict]:
    """All variable assignments under which every term lands in its allowed set.

    Constraints are tried in the given order, repeats dropped; ``RulePlan``
    puts the smallest terms first.  No assignment is found twice: each
    extension sends a term to one host value, and a sum's split is fixed by
    its left summand's value, so a path's choices are fixed by the
    assignment it ends in.
    """
    ordered = list(dict.fromkeys(constraints))
    solutions: list[dict] = []

    def walk(idx: int, partial: dict) -> None:
        if idx == len(ordered):
            solutions.append(partial)
            return
        t, allowed = ordered[idx]
        for w in sorted(allowed, key=value_sort_key):
            for ext in _match_value(t, w, partial, host_alg):
                walk(idx + 1, ext)

    walk(0, {})
    del walk   # it calls itself through its closure; emptying the cell frees it now
    return solutions


def find_matches(rule: WeakSpan, host: AttributedGraph,
                 groups: Optional[Mapping[str, Mapping[LabelSet, set[str]]]] = None
                 ) -> list[Match]:
    """All injective matches of the rule's left side, each with every variable
    assignment that satisfies the label condition, in canonical order.

    The result depends on the rule only through ``rule.L``: its graph, its
    labels and its algebra (``rule.plan.constraints`` and
    ``rule.plan.labelled_edges`` are derived from L alone).  Rules with
    equal left sides therefore have the same matches, and
    ``runner.rule_matches`` searches once for all of them.

    The search admits only host elements whose labels can satisfy the rule's:
    for an enumerated rule the rule label must be a subset of the host label,
    and for a term rule a non-empty rule label needs a non-empty host label.
    The test depends on the host label alone, so it is made once per label
    group: ``groups`` is ``host.label_groups()``, passed by a caller that
    matches several rules on one host and built here if not.  A labelled
    left node is admitted the set of the one group that passes (that set
    itself) or the union of the groups that pass; a labelled left edge the
    set of host edges of its sort that pass; an unlabelled element admits
    every host element of its sort and gets no set.  No match is checked
    for labels again: for an enumerated rule admission is the label check
    and the algebra part is the identity, one per search, and for a term
    rule each assignment ``_solve_label_constraints`` returns puts every
    (element, term) constraint of L into its host label, which is the lax
    label condition.  The search's morphisms are injective, run from L's
    graph to the host's, and meet the admitted sets, so each match and its
    ``AttrMorphism`` are built from them without the constructors' checks.
    """
    rule_alg = rule.algebra
    enumerated = isinstance(rule_alg, FiniteEnum)
    if enumerated and rule_alg != host.algebra:
        raise ValueError("an enumerated rule only matches hosts over the same algebra")
    if groups is None:
        groups = host.label_groups()
    wanted, have = rule.L.labeling, host.labeling
    admitted: dict[str, set[str]] = {}
    for x, sort in rule.L.graph.nodes.items():
        label = wanted[x]
        if label:
            passed = [ids for group, ids in groups.get(sort, {}).items()
                      if (label <= group if enumerated else group)]
            admitted[x] = passed[0] if len(passed) == 1 else set().union(*passed)
    for x, sort, label in rule.plan.labelled_edges:
        admitted[x] = {h for h, (edge_sort, _src, _tgt) in host.graph.edges.items()
                       if edge_sort == sort and (label <= have[h] if enumerated else have[h])}
    plan_constraints = rule.plan.constraints
    alphas = [AlgebraMorphism(rule_alg, host.algebra)] if enumerated else []
    matches: list[Match] = []
    for sigma in enumerate_morphisms(rule.L.graph, host.graph, injective_only=True,
                                     admitted=admitted):
        if not enumerated:
            constraints = [(t, have[sigma.apply(x)]) for x, t in plan_constraints]
            assignments = _solve_label_constraints(constraints, host.algebra)
            if len(assignments) > 1:
                assignments.sort(
                    key=lambda a: tuple(sorted((v, render_value(x)) for v, x in a.items())))
            alphas = [AlgebraMorphism(rule_alg, host.algebra, a) for a in assignments]
        for alpha in alphas:
            m = object.__new__(AttrMorphism)
            m.source, m.target, m.sigma, m.alpha = rule.L, host, sigma, alpha
            match = object.__new__(Match)
            match.rule, match.m = rule, m
            matches.append(match)
    return matches


def apply_direct(match: Match) -> DirectTransformation:
    """A weak double-pushout application: check the gluing conditions of
    the match and keep its context D as a deletion record against the host;
    ``pct([gamma])`` glues the right side on, as a change set.

    The record's ``deleted`` holds the host images of the plan's deleted
    elements, and its ``relabelled`` maps each kept element whose context
    label differs from its host label to (host label, context label); every
    other kept element keeps its host label.  Raises ``GluingError`` when a
    deleted node would leave an edge dangling (naming the smallest such edge
    id, also as ``dangling_edge``) or a deleted element carries labels the
    left side did not place.  Only the planned elements of
    ``match.rule.plan`` and the edges at deleted nodes are visited; the rule
    and the match were checked when they were made.
    """
    plan, m = match.rule.plan, match.m
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
    return DirectTransformation(match=match, record=ChangeSet(deleted, relabelled))


def obstruction(required: AttributedGraph, image: Mapping[str, str], alpha: AlgebraMorphism,
                ctx: DirectTransformation) -> Optional[tuple[str, str]]:
    """Why the host image of ``required`` fails to embed in ctx's context:
    (element, reason) for the first obstruction, or None when it embeds.

    The context keeps host ids, so the embedding exists exactly when no
    image is deleted and each image's context label holds the mapped label.
    Its one caller is ``coherent_set_check``, which asks this of a rule's
    required part I; the specification builds the embeddings themselves.
    """
    record, host_labels = ctx.record, ctx.host.labeling
    ids = required.element_ids()
    for x in ids:
        if image[x] in record.deleted:
            return x, f"host element {image[x]!r} is deleted from the context"
    for x in ids:
        target = image[x]
        mapped = apply_to_labelset(alpha, required.label(x))
        changed = record.relabelled.get(target)
        have = host_labels[target] if changed is None else changed[1]
        if not mapped <= have:
            return x, label_violation(x, target, mapped, have)
    return None


def coherent_set_check(gammas: Sequence[DirectTransformation]) -> None:
    """Pairwise coherence over a whole set: returns None when every rule's
    required part embeds in every other application's context, and raises
    the ``IncoherentSetError`` of the first pair (a, b) that fails.

    The refusal names its pair by positions in ``gammas``.  A match is lax,
    so the labels a's required part maps to hold in the host; its image
    embeds in every context that neither deletes nor relabels an element of
    it.  Only the pairs (a, b) where b's record does one of these to an
    element a requires are checked, in (a, b) order.  Only the deletion
    records are read.  The witness morphisms j: I_a -> D_b of a coherent
    set are the specification's ``WitnessMatrix``.
    """
    if not gammas:
        raise ValueError("need at least one direct transformation")
    if len(gammas) == 1:
        # one application has no pair a != b to check
        return
    host = gammas[0].host
    for g in gammas[1:]:
        if g.host != host:
            raise ValueError("direct transformations live on different hosts")
    requirers: dict[str, list[int]] = {}
    for a, ga in enumerate(gammas):
        for z in ga.required_image.values():
            requirers.setdefault(z, []).append(a)
    pairs: set[tuple[int, int]] = set()
    for b, gb in enumerate(gammas):
        record = gb.record
        for z in itertools.chain(record.deleted, record.relabelled):
            pairs.update((a, b) for a in requirers.get(z, ()) if a != b)
    for a, b in sorted(pairs):
        ga = gammas[a]
        found = obstruction(ga.rule.I, ga.required_image, ga.match.alpha, gammas[b])
        if found is not None:
            rules = (ga.rule.name, gammas[b].rule.name)
            raise IncoherentSetError((a, b), rules, *found)


def _fresh_id(candidate: str, host: Container[str], deleted: Container[str],
              taken: Container[str]) -> str:
    """``candidate`` with primes appended until it names no host element
    outside ``deleted`` and is not in ``taken``."""
    while candidate in taken or (candidate in host and candidate not in deleted):
        candidate += "'"
    return candidate


def pct(gammas: Sequence[DirectTransformation],
        names: Optional[Sequence[str]] = None) -> ChangeSet:
    """Parallel coherent transformation of a host by a coherent set, as one
    ``ChangeSet`` against the host: H' is ``derive_graph(host, pct(...))``.

    ``coherent_set_check`` runs first, so an incoherent set raises its
    ``IncoherentSetError``.

    Every context keeps host ids, so the limit D' of the contexts is the part
    of the host that no deletion record removes, labelled by the
    intersection of its context labels; the change set's ``deleted`` are
    the host ids outside D'.  The colimit H' glues each right side onto D':
    images of the required part land on their host ids with labels unioned,
    and every other right-side element x of application c is added as
    ``names[c] + x`` (default ``<c>:<x>``), primed past the surviving host
    ids and earlier additions.  The change set's ``relabelled`` holds each
    surviving id whose H' label differs from its host label.  The cost grows
    with the matched region, not the host.  ``limit_of_neutrals`` and
    ``colimit_of_neutrals`` are the general constructions this computes.
    """
    gammas = list(gammas)
    coherent_set_check(gammas)

    host_labels = gammas[0].host.labeling
    deleted = frozenset().union(*(g.record.deleted for g in gammas))
    # the labels of D' that differ from the host's; a context label is a
    # subset of the host label, so intersecting with the host label stands
    # in for every context that leaves the element untouched
    labels: dict[str, LabelSet] = {}
    for gamma in gammas:
        for x, (_old, label) in gamma.record.relabelled.items():
            if x not in deleted:
                have = labels.get(x, host_labels[x])
                if not have <= label:
                    labels[x] = LabelSet(have & label)
    if names is None:
        names = [f"{c}:" for c in range(len(gammas))]
    added: dict[str, tuple[str, Optional[tuple[str, str]], LabelSet]] = {}
    for gc, name in zip(gammas, names, strict=True):
        plan, image, alpha = gc.rule.plan, gc.required_image, gc.match.alpha
        # the required part lands on the host ids its images kept in the context
        ids = {ry: image[y] for y, _ly, ry in plan.required}
        for x, sort, ends in plan.added:
            z = ids[x] = _fresh_id(name + x, host_labels, deleted, added)
            added[z] = (sort, ends and (ids[ends[0]], ids[ends[1]]), EMPTY_LABELS)
        for x, label in plan.written:
            z = ids[x]
            written = apply_to_labelset(alpha, label)
            if z in added:
                sort, ends, have = added[z]
                added[z] = (sort, ends, LabelSet(have | written))
            else:
                have = labels.get(z, host_labels[z])
                if not written <= have:
                    labels[z] = LabelSet(have | written)
    relabelled = {x: (host_labels[x], label) for x, label in labels.items()
                  if label != host_labels[x]}
    return ChangeSet(deleted, relabelled, added)
