"""The one-pass joint step against the categorical construction it computes.

`reference_step` takes the general route: the limit of the contexts as
iterated pullbacks, a mediator from each required part into that limit, a
pushout of each right side along its mediator, and the colimit of those
pushouts.  It then maps the limit and the glued result to host ids through
their legs.  The joint step must give exactly the same H', ids and labels
included, and its change set must delete exactly the host ids outside D'.

`reference_direct` is the same check for one application: the pushout of the
right side along the context, renamed through its legs.  A sequential step
and `weakspan apply` take the one-element `pct` instead, and must agree.
"""

import random

import pytest

from weakspan import (
    AlgebraMorphism,
    AttrMorphism,
    AttributedGraph,
    GluingError,
    Graph,
    GraphMorphism,
    HexGridSpec,
    IncoherentSetError,
    LabelSet,
    Lit,
    Match,
    NatPlus,
    SortSignature,
    SystemSpec,
    TermAlg,
    Var,
    WeakSpan,
    apply_direct,
    cmd_hexca,
    cmd_run,
    coherent_set_check,
    fibonacci_system,
    find_matches,
    hex_system,
    pct,
    rule_matches,
    transport_match,
)
from weakspan.constructions import (
    WitnessMatrix,
    colimit_of_neutrals,
    compose_attr,
    identity_morphism,
    limit_of_neutrals,
    pushout_along_neutral,
    pushout_complement,
    rename_attributed,
)
from weakspan.runner import StepReport, joint_step

from randgen import coproduct_match, random_host, random_independent_pair, random_instance


def _fresh(candidate, used):
    while candidate in used:
        candidate += "'"
    used.add(candidate)
    return candidate


def reference_step(gammas, witnesses, step_index):
    """D' and the renamed H' of the categorical joint step, in host ids."""
    p = len(gammas)
    contexts = [pushout_complement(g.rule.l, g.match.m) for g in gammas]
    dprime, e_legs = limit_of_neutrals([c.complement_to_host for c in contexts])
    index = {tuple(leg.apply(z) for leg in e_legs): z for z in dprime.element_ids()}
    assert len(index) == dprime.element_count(), "limit legs fail to separate elements"

    mediators = []
    for c, gc in enumerate(gammas):
        required = gc.rule.I
        image = {x: index[tuple(witnesses[(c, a)].apply(x) for a in range(p))]
                 for x in required.element_ids()}
        sigma = GraphMorphism(
            required.graph, dprime.graph,
            {x: image[x] for x in required.graph.nodes},
            {x: image[x] for x in required.graph.edges})
        d_c = AttrMorphism(required, dprime, sigma, gc.match.alpha)
        for a in range(p):
            assert compose_attr(e_legs[a], d_c) == witnesses[(c, a)]
        mediators.append(d_c)

    pushouts = [pushout_along_neutral(gc.rule.r, d_c) for gc, d_c in zip(gammas, mediators)]
    hprime, h_legs = colimit_of_neutrals([po.leg_from_other_side for po in pushouts])

    into_host = compose_attr(contexts[0].complement_to_host, e_legs[0])
    through_first = compose_attr(h_legs[0], pushouts[0].leg_from_other_side)
    host_ids = {z: into_host.apply(z) for z in dprime.element_ids()}
    mapping = {through_first.apply(z): host_ids[z] for z in dprime.element_ids()}
    used = set(host_ids.values())
    for c, (gc, po, leg) in enumerate(zip(gammas, pushouts, h_legs)):
        born = compose_attr(leg, po.leg_from_neutral_side)
        for x in gc.rule.R.element_ids():
            y = born.apply(x)
            if y not in mapping:
                mapping[y] = _fresh(f"s{step_index}:{c}:{x}", used)
    return rename_attributed(dprime, host_ids), rename_attributed(hprime, mapping)


def assert_same_graph(got, want):
    """Exact equality, compared part by part to keep a failure report short."""
    assert got.graph.nodes == want.graph.nodes
    assert got.graph.edges == want.graph.edges
    assert got.labeling == want.labeling
    assert got == want


def reference_direct(gamma, step_index=0, number=0):
    """The result of one application as the pushout of its right side along
    the context, with additions renamed to `s<step>:<number>:<id>`."""
    rule = gamma.rule
    context = pushout_complement(rule.l, gamma.match.m)
    po = pushout_along_neutral(rule.r, compose_attr(context.k_to_complement, rule.i))
    kept = {po.leg_from_other_side.apply(z) for z in context.complement.element_ids()}
    mapping = {}
    used = set(kept)
    for x in rule.R.element_ids():
        y = po.leg_from_neutral_side.apply(x)
        if y not in kept and y not in mapping:
            mapping[y] = _fresh(f"s{step_index}:{number}:{x}", used)
    return rename_attributed(po.apex, mapping)


def assert_composites_are_lax(gammas, witnesses):
    """`compose_attr` skips the label check: rebuild every k∘i and f∘k∘i
    through the checked constructor, which raises on any violation."""
    for a, gamma in enumerate(gammas):
        context = pushout_complement(gamma.rule.l, gamma.match.m)
        ki = witnesses[(a, a)]
        assert ki == compose_attr(context.k_to_complement, gamma.rule.i)
        for j in (ki, compose_attr(context.complement_to_host, ki)):
            AttrMorphism(j.source, j.target, j.sigma, j.alpha)


def assert_agrees_with_reference(gammas, step_index=0):
    """Run both routes on one coherent set and return the renamed result.

    The engine's step is the runner's: its change set deletes exactly the
    host ids outside the reference D', and its report counts D' and H'."""
    numbers = range(len(gammas))
    report = StepReport(step_index, "pct")
    result = joint_step(gammas, report, numbers)
    [changes] = report.changes
    assert changes == pct(gammas, [f"s{step_index}:{n}:" for n in numbers])
    witnesses = WitnessMatrix(gammas)
    assert_composites_are_lax(gammas, witnesses)
    into_host = [pushout_complement(g.rule.l, g.match.m).complement_to_host for g in gammas]
    for (a, b), witness in witnesses.items():
        via = compose_attr(into_host[a], witnesses[(a, a)])
        assert compose_attr(into_host[b], witness) == via
    dprime, hprime = reference_step(gammas, witnesses, step_index)
    assert changes.deleted == set(gammas[0].host.element_ids()) - set(dprime.element_ids())
    assert (report.dprime_elements, report.hprime_elements) == (
        dprime.element_count(), hprime.element_count())
    assert_same_graph(result, hprime)
    return result


def assert_direct_agrees(gamma, step_index, number):
    """One application through `joint_step` equals the pushout route; returns it."""
    result = joint_step([gamma], StepReport(step_index, "sequential"), [number])
    assert_composites_are_lax([gamma], WitnessMatrix([gamma]))
    assert_same_graph(result, reference_direct(gamma, step_index, number))
    return result


def replay_sequential_step(system, host, step_index):
    """A sequential step, each application checked against the pushout route.

    Returns the result and the number of applications made.
    """
    current, applied = host, 0
    matches = [match for found in rule_matches(system, host) for match in found]
    for pos, match in enumerate(matches):
        try:
            gamma = apply_direct(transport_match(match, current))
        except (ValueError, GluingError):
            continue
        current = assert_direct_agrees(gamma, step_index, pos)
        applied += 1
    return current, applied


def assert_sequential_run_agrees(system, run):
    for index, (before, after) in enumerate(zip(run.history, run.history[1:])):
        result, applied = replay_sequential_step(system, before, index)
        assert applied == run.steps[index].applied
        assert_same_graph(result, after)


def step_gammas(system, host):
    """The applications a runner step makes: every match that glues."""
    gammas = []
    for rule in system.rules:
        for match in find_matches(rule, host):
            try:
                gammas.append(apply_direct(match))
            except GluingError:
                pass
    return gammas


def test_every_hex_step():
    grid = HexGridSpec(radius=5, seeds=((0, 0),))
    system = hex_system(grid)
    run = cmd_hexca(grid, generations=3)
    for index, (before, after) in enumerate(zip(run.graphs, run.graphs[1:])):
        gammas = step_gammas(system, before)
        assert len(gammas) == run.steps[index].applied
        assert_same_graph(assert_agrees_with_reference(gammas, index), after)


def test_ten_fibonacci_steps():
    system = fibonacci_system()
    run = cmd_run(system, steps=10, mode="pct")
    for index, (before, after) in enumerate(zip(run.history, run.history[1:])):
        assert_same_graph(assert_agrees_with_reference(step_gammas(system, before), index), after)


def test_random_independent_pairs():
    for trial in range(100):
        _host, m1, m2 = random_independent_pair(random.Random(9000 + trial))
        assert_agrees_with_reference([apply_direct(m1), apply_direct(m2)], trial)


def test_random_overlapping_pairs_when_coherent():
    coherent = 0
    for trial in range(100):
        rng = random.Random(5000 + trial)
        host = random_host(rng)
        gammas = [apply_direct(random_instance(rng, host, var_names=("u", "v"), name="one")),
                  apply_direct(random_instance(rng, host, var_names=("w", "z"), name="two"))]
        try:
            coherent_set_check(gammas)
        except IncoherentSetError:
            with pytest.raises(IncoherentSetError):
                pct(gammas)
        else:
            assert_agrees_with_reference(gammas, trial)
            coherent += 1
    assert coherent >= 10


def test_fresh_ids_step_around_host_ids():
    sig = SortSignature(["p"], {})
    alg = TermAlg(["u"])
    kept = AttributedGraph(Graph(sig, {"x": "p"}, {}), alg, {"x": [Var("u")]})
    grown = AttributedGraph(Graph(sig, {"x": "p", "n": "p"}, {}), alg,
                            {"x": [Var("u")], "n": [Lit(1)]})
    ident = AlgebraMorphism.identity(alg)
    inclusion = AttrMorphism(kept, grown, GraphMorphism(kept.graph, grown.graph, {"x": "x"}, {}),
                             ident)
    same = AttrMorphism(kept, kept, identity_morphism(kept.graph), ident)
    rule = WeakSpan(name="grow", L=kept, K=kept, I=kept, R=grown, l=same, i=same, r=inclusion)
    host = AttributedGraph(
        Graph(sig, {"x": "p", "0:n": "p", "s0:0:n": "p", "s0:0:n'": "p"}, {}), NatPlus(),
        {"x": [4]})
    m = AttrMorphism(kept, host, GraphMorphism(kept.graph, host.graph, {"x": "x"}, {}),
                     AlgebraMorphism(alg, NatPlus(), {"u": 4}))
    gamma = apply_direct(Match(rule, m))
    assert list(pct([gamma]).added) == ["0:n'"]
    result = assert_agrees_with_reference([gamma])
    assert result.label("s0:0:n''") == LabelSet([1])


@pytest.mark.parametrize("system, steps", [
    (fibonacci_system(), 30),
    (hex_system(HexGridSpec(radius=6, seeds=((0, 0), (2, -1)))), 3),
], ids=["fib", "hex-two-seeds"])
def test_every_sequential_application(system, steps):
    run = cmd_run(system, steps, "sequential")
    assert len(run.steps) == steps
    assert_sequential_run_agrees(system, run)


def test_sequential_runs_of_random_pairs():
    """Random rules add elements, so these runs check the names additions get."""
    added = 0
    for trial in range(30):
        host, m1, m2 = random_independent_pair(random.Random(9000 + trial))
        system = SystemSpec(host.graph.signature, host.algebra, [m1.rule, m2.rule], host)
        run = cmd_run(system, 2, "sequential")
        assert_sequential_run_agrees(system, run)
        added += sum(x not in host.graph.nodes and x not in host.graph.edges for x in run.final.element_ids())
    assert added >= 10


def test_random_single_applications():
    """Each random family's applications, numbered so that the number shows."""
    for trial in range(100):
        rng = random.Random(trial)
        assert_direct_agrees(apply_direct(random_instance(rng, random_host(rng))), trial, 7)
    for trial in range(100):
        _host, m1, m2 = random_independent_pair(random.Random(9000 + trial))
        first = assert_direct_agrees(apply_direct(m1), trial, 3)
        assert_direct_agrees(apply_direct(transport_match(m2, first)), trial, 5)
        assert_direct_agrees(apply_direct(coproduct_match(m1, m2)), trial, 0)
    for trial in range(100):
        rng = random.Random(5000 + trial)
        host = random_host(rng)
        for name, var_names in (("one", ("u", "v")), ("two", ("w", "z"))):
            assert_direct_agrees(
                apply_direct(random_instance(rng, host, var_names=var_names, name=name)),
                trial, 2)
