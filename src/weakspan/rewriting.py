"""Weak rewrite rules, matching, direct transformations, parallel coherence,
and the parallel coherent transformation."""

from __future__ import annotations

import itertools
from collections.abc import Container, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from .algebras import (EMPTY_LABELS, Algebra, AlgebraMorphism, FiniteEnum,
                       LabelSet, Lit, NatPlus, OpApp, TermAlg, Value, Var,
                       apply_to_labelset, render_value, term_variables,
                       value_sort_key)
from .attrgraphs import (AttrMorphism, AttributedGraph, ChangeSet, Violation, derive_graph,
                         identity_attr, inclusion)
from .constructions import (ComplementResult, DeletionPlan, deletion_plan, deletion_record,
                            pushout_along_neutral, pushout_complement)
from .graphs import GraphMorphism, disjoint_union, enumerate_morphisms, is_mono


class IncoherentSetError(Exception):
    """A set of direct transformations fails pairwise coherence.

    ``pair`` gives the two positions in the application list, ``rules`` the
    names of their rules, ``element`` the obstructing host element, and
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

    def renumbered(self, numbers: Sequence[int]) -> IncoherentSetError:
        """The same refusal with each position p in ``pair`` given as
        ``numbers[p]``, for callers that number applications otherwise."""
        a, b = self.pair
        return IncoherentSetError((numbers[a], numbers[b]), self.rules, self.element,
                                  self.reason)


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

    ``deletion`` is the plan of the left leg: the elements a match deletes
    and the ones whose label it erases.  ``required`` pairs each element y
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

    deletion: DeletionPlan
    required: tuple[tuple[str, str, str], ...]
    added: tuple[tuple[str, str, Optional[tuple[str, str]]], ...]
    written: tuple[tuple[str, LabelSet], ...]
    constraints: tuple[tuple[str, Value], ...]
    labelled_edges: tuple[tuple[str, str, LabelSet], ...]


def rule_plan(rule: WeakSpan) -> RulePlan:
    """The plan of a rule whose legs are already checked."""
    required = tuple((y, rule.l.apply(rule.i.apply(y)), rule.r.apply(y))
                     for y in rule.I.element_ids())
    glued = {ry for _y, _ly, ry in required}
    graph = rule.R.graph
    added = tuple((x, graph.nodes[x], None) if graph.is_node(x)
                  else (x, graph.edges[x][0], graph.edges[x][1:])
                  for x in rule.R.element_ids() if x not in glued)
    written = tuple((x, label) for x, label in sorted(rule.R.labeling.items()) if label)
    constraints = sorted(((x, t) for x, label in rule.L.labeling.items() for t in label),
                         key=lambda c: (_term_size(c[1]), render_value(c[1]), c[0]))
    left = rule.L
    labelled_edges = tuple((e, sort, left.labeling[e])
                           for e, (sort, _src, _tgt) in sorted(left.graph.edges.items())
                           if left.labeling[e])
    return RulePlan(deletion=deletion_plan(rule.l), required=required, added=added,
                    written=written, constraints=tuple(constraints),
                    labelled_edges=labelled_edges)


@dataclass(frozen=True)
class WeakSpan:
    """A rewrite rule L <- K <- I -> R with neutral injective structure maps.

    K is what survives deletion; I is the part whose presence the rule
    actively requires when extending; R is what gets added.  ``plan`` is
    built once from the legs when the rule is made, and each refusal of the
    legs starts ``rule '<name>':``.  Its fields cannot be reassigned, but
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

    def is_plain_span(self) -> bool:
        return self.I == self.K and self.i.sigma.is_identity()


@dataclass
class Match:
    """An injective occurrence of a rule's left side in a host graph."""

    rule: WeakSpan
    host: AttributedGraph
    m: AttrMorphism

    def __post_init__(self):
        if self.m.source != self.rule.L or self.m.target != self.host:
            raise ValueError("match morphism does not run from the rule's left side to the host")
        if not is_mono(self.m.sigma):
            raise ValueError("match must be injective")

    @property
    def alpha(self) -> AlgebraMorphism:
        return self.m.alpha


@dataclass
class DirectTransformation:
    """One rule application: its match and the deletion record of its context.

    The context D keeps host ids, and ``record`` is D as a change set
    against the host: D is ``derive_graph(host, record)``.  D with its legs
    k: K -> D (carrying alpha) and f: D -> host (a neutral inclusion) is
    built on first use by ``pushout_complement``; coherence and the joint
    step read only the record.  The application's result is
    ``pct([gamma]).Hprime``.
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
    def _complement(self) -> ComplementResult:
        return pushout_complement(self.rule.l, self.match.m)

    @property
    def D(self) -> AttributedGraph:
        return self._complement.complement

    @property
    def k(self) -> AttrMorphism:
        return self._complement.k_to_complement

    @property
    def f(self) -> AttrMorphism:
        return self._complement.complement_to_host

    @cached_property
    def required_image(self) -> dict[str, str]:
        """The host id of each element of the rule's required part I."""
        place = self.match.m.sigma.apply
        return {y: place(v) for y, v, _ry in self.rule.plan.required}


def _witness(required: AttributedGraph, image: Mapping[str, str], alpha: AlgebraMorphism,
             context: DirectTransformation) -> AttrMorphism:
    """The morphism j from ``required`` into ``context``'s D that sends each
    element x to its host id ``image[x]``; its labels were checked on the
    deletion record."""
    target = context.D
    graph = required.graph
    sigma = GraphMorphism(graph, target.graph, {x: image[x] for x in graph.nodes},
                          {x: image[x] for x in graph.edges})
    return AttrMorphism(required, target, sigma, alpha, check=False)


class WitnessMatrix(Mapping):
    """The p x p witnesses of a coherent set, keyed (a, b) in row order.

    Entry (a, b) is the witness morphism j: I_a -> D_b from rule a's
    required part into context b; each one is built when it is first read.
    """

    def __init__(self, gammas: Sequence[DirectTransformation]):
        self._gammas = gammas
        self._built: dict[tuple[int, int], AttrMorphism] = {}

    def __getitem__(self, key: tuple[int, int]) -> AttrMorphism:
        if key not in self._built:
            p = len(self._gammas)
            if not (isinstance(key, tuple) and len(key) == 2
                    and all(isinstance(i, int) and 0 <= i < p for i in key)):
                raise KeyError(key)
            a, b = key
            ga = self._gammas[a]
            self._built[key] = _witness(ga.rule.I, ga.required_image, ga.match.alpha,
                                        self._gammas[b])
        return self._built[key]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        p = len(self._gammas)
        return ((a, b) for a in range(p) for b in range(p))

    def __len__(self) -> int:
        return len(self._gammas) ** 2


@dataclass
class CoherenceCheckResult:
    """The witness matrix of a coherent set, or the refusal of an incoherent
    one: exactly one of ``matrix`` and ``error`` is set."""

    matrix: Optional[WitnessMatrix]
    error: Optional[IncoherentSetError] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def __bool__(self) -> bool:
        return self.ok


@dataclass
class ParallelStep:
    """A parallel coherent transformation: contexts intersected, additions glued.

    D' and H' use host ids: D' is the part of the host that every context
    keeps, and H' is D' plus each application's additions under the names
    ``pct`` gave them.  ``changes`` is H' as a change set against the host;
    its ``deleted`` are the host ids outside D'.  D' and H' are derived from
    the host when first read.  ``born[c]`` maps each right-side element of
    application c to its id in H'.
    """

    gammas: list
    witnesses: WitnessMatrix
    changes: ChangeSet
    born: list

    @property
    def deleted(self) -> frozenset:
        return self.changes.deleted

    @cached_property
    def Dprime(self) -> AttributedGraph:
        return _intersected_context(self.gammas, self.changes.deleted)

    @cached_property
    def Hprime(self) -> AttributedGraph:
        return derive_graph(self.gammas[0].host, self.changes)


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
        if isinstance(host_alg, NatPlus) and t.op == "+":
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
            if isinstance(w, OpApp) and w.op == t.op and len(w.args) == len(t.args):
                states = [partial]
                for ta, wa in zip(t.args, w.args):
                    states = [ext for st in states for ext in _match_value(ta, wa, st, host_alg)]
                yield from states
    else:
        # ground enumerated value
        if t == w:
            yield partial


def _bound_sum(t: Value, partial: dict) -> Optional[int]:
    """The natural-number value of a sum of literals and bound variables, or
    None when t has a free variable or another operation."""
    if isinstance(t, Var):
        return partial.get(t.name)
    if isinstance(t, Lit):
        return t.value
    if isinstance(t, OpApp) and t.op == "+":
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
    puts the smallest terms first.
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
    unique = []
    seen = set()
    for sol in solutions:
        key = tuple(sorted((v, render_value(x)) for v, x in sol.items()))
        if key not in seen:
            seen.add(key)
            unique.append(sol)
    return unique


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
    and the algebra part is the identity, and for a term rule each
    assignment ``_solve_label_constraints`` returns puts every (element,
    term) constraint of L into its host label, which is the lax label
    condition.
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
    matches: list[Match] = []
    for sigma in enumerate_morphisms(rule.L.graph, host.graph, injective_only=True,
                                     admitted=admitted):
        if enumerated:
            assignments = [{}]
        else:
            constraints = [(t, have[sigma.apply(x)]) for x, t in plan_constraints]
            assignments = _solve_label_constraints(constraints, host.algebra)
            if len(assignments) > 1:
                assignments.sort(
                    key=lambda a: tuple(sorted((v, render_value(x)) for v, x in a.items())))
        for assignment in assignments:
            alpha = AlgebraMorphism(rule_alg, host.algebra, assignment)
            m = AttrMorphism(rule.L, host, sigma, alpha, check=False)
            matches.append(Match(rule, host, m))
    return matches


def apply_direct(match: Match) -> DirectTransformation:
    """A weak double-pushout application, kept as its deletion record; the
    context is materialised on first use and ``pct([gamma])`` glues the
    right side on."""
    return DirectTransformation(match=match,
                                record=deletion_record(match.rule.plan.deletion, match.m))


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


def apply_span_dpo(span_rule: WeakSpan, match: Match) -> DirectTransformation:
    """Classical double-pushout application of a plain span (I equals K)."""
    if not span_rule.is_plain_span():
        raise ValueError("rule is not a plain span (its required part must equal K)")
    rebased = match if match.rule is span_rule else Match(span_rule, match.host, match.m)
    return apply_direct(rebased)


def _obstruction(required: AttributedGraph, image: dict, alpha: AlgebraMorphism,
                 ctx: DirectTransformation) -> Optional[tuple[str, str]]:
    """Why the host image of ``required`` fails to embed in ctx's context:
    (element, reason) for the first obstruction, or None when it embeds.

    The context keeps host ids, so the embedding exists exactly when no
    image is deleted and each image's context label holds the mapped label.
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
            return x, Violation(x, target, mapped, have).describe()
    return None


def check_parallel_coherent(g1: DirectTransformation,
                            g2: DirectTransformation) -> Optional[tuple[AttrMorphism, AttrMorphism]]:
    """The witness morphisms embedding each rule's required part into the
    other's context, or None."""
    check = coherent_set_check([g1, g2])
    if not check.ok:
        return None
    return check.matrix[(0, 1)], check.matrix[(1, 0)]


def check_parallel_independent(g1: DirectTransformation,
                               g2: DirectTransformation) -> Optional[tuple[AttrMorphism, AttrMorphism]]:
    """The witness morphisms embedding each full left side into the other's
    context, or None."""
    if g1.host != g2.host:
        raise ValueError("direct transformations live on different hosts")
    pair = ((g1, g2), (g2, g1))
    embeddings = [(ga.rule.L, ga.match.m.sigma.element_map(), ga.match.alpha, gb)
                  for ga, gb in pair]
    if any(_obstruction(*embedding) is not None for embedding in embeddings):
        return None
    return _witness(*embeddings[0]), _witness(*embeddings[1])


def coherent_set_check(gammas: Sequence[DirectTransformation]) -> CoherenceCheckResult:
    """Pairwise coherence over a whole set: the full witness matrix, or the
    refusal at the first pair that fails.

    The matrix maps (a, b) to the witness morphism j from rule a's required
    part into context b; diagonal entries are the composites k o i through
    the rule's own context.  The refusal names its pair by positions in
    ``gammas``.  A match is lax, so the labels a's required part maps to
    hold in the host; its image embeds in every context that neither
    deletes nor relabels an element of it.  Only the pairs (a, b) where b's
    record does one of these to an element a requires are checked, in
    (a, b) order.  Only the deletion records are read.
    """
    if not gammas:
        raise ValueError("need at least one direct transformation")
    gammas = list(gammas)
    if len(gammas) == 1:
        # one application has no pair a != b to check
        return CoherenceCheckResult(matrix=WitnessMatrix(gammas))
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
        obstruction = _obstruction(ga.rule.I, ga.required_image, ga.match.alpha, gammas[b])
        if obstruction is not None:
            rules = (ga.rule.name, gammas[b].rule.name)
            return CoherenceCheckResult(None, IncoherentSetError((a, b), rules, *obstruction))
    return CoherenceCheckResult(matrix=WitnessMatrix(gammas))


def _fresh_id(candidate: str, host: Container[str], deleted: Container[str],
              taken: Container[str]) -> str:
    """``candidate`` with primes appended until it names no host element
    outside ``deleted`` and is not in ``taken``."""
    while candidate in taken or (candidate in host and candidate not in deleted):
        candidate += "'"
    return candidate


def _context_labels(gammas: Sequence[DirectTransformation],
                    deleted: frozenset) -> dict[str, LabelSet]:
    """The labels of D' that differ from the host's: for each element outside
    ``deleted`` that some record relabels, its host label intersected with
    every context label the records give for it."""
    host_labels = gammas[0].host.labeling
    labels: dict[str, LabelSet] = {}
    # a context label is a subset of the host label, so intersecting with the
    # host label stands in for every context that leaves the element untouched
    for gamma in gammas:
        for x, (_old, label) in gamma.record.relabelled.items():
            if x not in deleted:
                have = labels.get(x, host_labels[x])
                if not have <= label:
                    labels[x] = LabelSet(have & label)
    return labels


def _intersected_context(gammas: Sequence[DirectTransformation],
                         deleted: frozenset) -> AttributedGraph:
    """D', the limit of the contexts, in host ids."""
    host = gammas[0].host
    host_labels = host.labeling
    relabelled = {x: (host_labels[x], label)
                  for x, label in _context_labels(gammas, deleted).items()}
    return derive_graph(host, ChangeSet(deleted, relabelled))


def pct(gammas: Sequence[DirectTransformation],
        names: Optional[Sequence[str]] = None) -> ParallelStep:
    """Parallel coherent transformation of a host by a coherent set.

    Every context keeps host ids, so the limit D' of the contexts is the set
    of host elements that no deletion record removes, labelled by the
    intersection of their context labels.  The colimit H' glues each right
    side onto D': images of the required part land on their host ids with
    labels unioned, and every other right-side element x of application c
    is added as ``names[c] + x`` (default ``<c>:<x>``), primed past the
    surviving host ids and earlier additions.  ``limit_of_neutrals`` and
    ``colimit_of_neutrals`` are the general constructions this computes.

    The step is computed as one ``ChangeSet`` against the host: the deleted
    ids, each surviving id whose H' label differs from its host label, and
    the additions.  Its cost grows with the matched region, not the host.
    H' and D' are derived from the host (``derive_graph``) when first read;
    each costs one copy of the host labeling, and shares the host's graph
    when nothing is deleted or added.
    """
    gammas = list(gammas)
    check = coherent_set_check(gammas)
    if check.error is not None:
        raise check.error

    host = gammas[0].host
    host_labels = host.labeling
    deleted = frozenset().union(*(g.record.deleted for g in gammas))
    labels = _context_labels(gammas, deleted)
    if names is None:
        names = [f"{c}:" for c in range(len(gammas))]
    added: dict[str, tuple[str, Optional[tuple[str, str]], LabelSet]] = {}
    born = []
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
        born.append(ids)
    relabelled = {x: (host_labels[x], label) for x, label in labels.items()
                  if label != host_labels[x]}
    return ParallelStep(gammas=gammas, witnesses=check.matrix,
                        changes=ChangeSet(deleted, relabelled, added), born=born)


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
    new_alg = TermAlg(alg.signature, renaming.values())

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
        if alg1.signature != alg2.signature:
            raise ValueError("term rules must share their operation signature")
        taken = set(alg1.variables)
        rr2 = _rename_rule_variables(r2, taken)
        combined = TermAlg(alg1.signature, alg1.variables | rr2.algebra.variables)
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
    its own host (identity matches) and reads off L <- D' -> H'.
    """
    if not rules:
        raise ValueError("need at least one rule")
    shared_l = rules[0].L
    for rule in rules[1:]:
        if rule.L != shared_l:
            raise ValueError("rules do not share an identical left side")
    step = pct([apply_direct(Match(rule, shared_l, identity_attr(shared_l))) for rule in rules])
    return WeakSpan(
        name="+".join(r.name for r in rules),
        L=shared_l, K=step.Dprime, I=step.Dprime, R=step.Hprime,
        l=inclusion(step.Dprime, shared_l), i=identity_attr(step.Dprime),
        r=inclusion(step.Dprime, step.Hprime))
