"""End-to-end checks, one per headline capability.

Each test prints into the `acceptance criteria` summary section (see
conftest.py) and carries a wall-clock budget so a regression that makes the
engine crawl fails loudly rather than silently.
"""

import random
from time import perf_counter

import pytest

from weakspan import (
    HexGridSpec,
    Var,
    apply_direct,
    apply_parallel_step,
    apply_sequential_step,
    ca_oracle,
    cmd_hexca,
    cmd_run,
    coherent_set_check,
    derive_graph,
    encode_grid,
    fibonacci_system,
    find_matches,
    hex_system,
    parse_term,
    pct,
    rule_matches,
    transport_match,
)
from weakspan.constructions import (
    apply_span_dpo,
    associated_span,
    check_parallel_coherent,
    check_parallel_independent,
    check_universal_property,
    derive_span_from_pct,
    is_attr_isomorphic,
    is_plain_span,
    pullback_of_neutrals,
    pushout_along_neutral,
    pushout_complement,
)
from weakspan.hexgrid import DIRECTIONS, parse_cell_id
from randgen import coproduct_match, random_host, random_independent_pair, random_instance
from test_pct_reference import reference_direct


def fib_pair(graph):
    x = sorted(graph.label("x"))
    y = sorted(graph.label("y"))
    return (x[0] if x else None, y[0] if y else None)


@pytest.mark.acceptance("1", "register pair advances jointly")
def test_one_joint_step_on_the_register_pair():
    started = perf_counter()
    system = fibonacci_system()
    result, report = apply_parallel_step(system, system.host, 0)
    expected = system.host.with_labels({"x": [2], "y": [3]})
    assert report.applied == 2 and not report.fixpoint
    assert result == expected
    assert is_attr_isomorphic(result, expected)
    assert perf_counter() - started < 1.0


@pytest.mark.acceptance("2", "ten joint steps follow the recurrence")
def test_ten_steps_track_the_recurrence_oracle():
    started = perf_counter()
    run = cmd_run(fibonacci_system(), steps=10, mode="pct")
    pairs = [(1, 2)]
    for _ in range(10):
        a, b = pairs[-1]
        pairs.append((b, a + b))
    assert [fib_pair(g) for g in run.history] == pairs
    assert fib_pair(run.history[9]) == (89, 144)
    assert fib_pair(run.final) == (144, 233)
    assert perf_counter() - started < 1.0


@pytest.mark.acceptance("3", "joint step collapses to one plain span")
def test_derived_span_of_the_register_rules():
    started = perf_counter()
    system = fibonacci_system()
    span = derive_span_from_pct(system.rules)
    left = system.rules[0].L
    assert is_plain_span(span)
    assert span.L == left
    assert is_attr_isomorphic(span.K, left.with_labels({"x": [], "y": []}))
    assert is_attr_isomorphic(
        span.R,
        left.with_labels({"x": [Var("v")], "y": [parse_term("u+v")]}))
    matches = find_matches(span, system.host)
    assert len(matches) == 1
    replayed = apply_span_dpo(span, matches[0])
    assert is_attr_isomorphic(reference_direct(replayed),
                              system.host.with_labels({"x": [2], "y": [3]}))
    assert perf_counter() - started < 1.0


@pytest.mark.acceptance("4", "first hex generation: coherent but entangled")
def test_seed_generation_births_are_coherent_yet_dependent():
    started = perf_counter()
    system = hex_system(HexGridSpec(radius=5, seeds=((0, 0),)))
    matches = [m for found in rule_matches(system, system.host) for m in found]
    assert len(matches) == 6
    gammas = [apply_direct(m) for m in matches]
    assert coherent_set_check(gammas) is None

    targets = [parse_cell_id(m.m.sigma.node_map["x"]) for m in matches]

    def adjacent(a, b):
        return (b[0] - a[0], b[1] - a[1]) in DIRECTIONS

    dependent = set()
    for a in range(6):
        for b in range(a + 1, 6):
            independent = check_parallel_independent(gammas[a], gammas[b])
            assert bool(independent) == (not adjacent(targets[a], targets[b]))
            if not independent:
                dependent.add((a, b))
    assert (0, 5) in dependent
    assert len(dependent) == 6
    assert perf_counter() - started < 5.0


@pytest.mark.acceptance("5", "second hex generation: order never matters")
def test_second_generation_births_commute_every_way():
    started = perf_counter()
    unbounded = HexGridSpec(radius=7, seeds=((0, 0),))
    gen1, gen2 = ca_oracle(unbounded, 2)[1:]
    system = hex_system(HexGridSpec(radius=3, seeds=tuple(sorted(gen1))))
    host = system.host

    matches = [m for found in rule_matches(system, host) for m in found]
    assert len(matches) == 6
    gammas = [apply_direct(m) for m in matches]
    for a in range(6):
        for b in range(a + 1, 6):
            assert check_parallel_independent(gammas[a], gammas[b])

    parallel, report = apply_parallel_step(system, host, 0)
    assert report.applied == 6
    expected = encode_grid(HexGridSpec(radius=3, seeds=tuple(sorted(gen2))))
    assert is_attr_isomorphic(parallel, expected)

    rng = random.Random(0x5EED)
    for _ in range(3):
        order = rng.sample(range(6), 6)
        sequential, seq_report = apply_sequential_step(system, host, 0, order)
        assert seq_report.applied == 6
        assert is_attr_isomorphic(sequential, parallel)
    assert perf_counter() - started < 10.0


@pytest.mark.acceptance("6", "six hex generations equal the set oracle")
def test_automaton_growth_matches_the_set_oracle():
    started = perf_counter()
    grid = HexGridSpec(radius=7, seeds=((0, 0),))
    result = cmd_hexca(grid, generations=5)
    oracle = ca_oracle(grid, generations=5)
    assert result.live_counts == [1, 7, 13, 31, 37, 55]
    assert [set(s) for s in result.live_sets] == [set(s) for s in oracle]
    assert perf_counter() - started < 60.0


@pytest.mark.acceptance("7", "randomized algebraic property suite")
def test_randomized_property_families():
    started = perf_counter()
    trials = 100

    # Families over one random rule instance at a time: the weak application
    # agrees with its derived plain span, a one-element joint step collapses
    # to the direct result (the pushout of the right side along the
    # context), removal then re-gluing restores the host on the nose, the
    # restored square is a genuine pushout, and every application is
    # coherent with itself.
    for trial in range(trials):
        rng = random.Random(trial)
        host = random_host(rng)
        m = random_instance(rng, host)
        gamma = apply_direct(m)
        direct = reference_direct(gamma)

        span, _ = associated_span(m.rule)
        assert is_attr_isomorphic(reference_direct(apply_span_dpo(span, m)), direct)

        assert is_attr_isomorphic(derive_graph(host, pct([gamma])), direct)

        comp = pushout_complement(m.rule.l, m.m)
        rebuilt = pushout_along_neutral(m.rule.l, comp.k_to_complement)
        assert is_attr_isomorphic(rebuilt.apex, host)
        assert check_universal_property(
            "pushout", (m.rule.l, comp.k_to_complement, rebuilt),
            (m.m, comp.complement_to_host))

        assert check_parallel_coherent(gamma, gamma) is not None

    # Intersecting two deletion contexts over one host is a genuine limit:
    # the same construction with its arguments swapped supplies the cone the
    # mediator must factor.
    for trial in range(trials):
        rng = random.Random(5000 + trial)
        host = random_host(rng)
        g1 = apply_direct(random_instance(rng, host, var_names=("u", "v"), name="one"))
        g2 = apply_direct(random_instance(rng, host, var_names=("w", "z"), name="two"))
        f1, f2 = (pushout_complement(g.rule.l, g.match.m).complement_to_host for g in (g1, g2))
        forward = pullback_of_neutrals(f1, f2)
        swapped = pullback_of_neutrals(f2, f1)
        assert check_universal_property(
            "pullback", (f1, f2, forward),
            (swapped.leg_to_second, swapped.leg_to_first))

    # Families over constructed non-overlapping pairs: independence holds and
    # implies coherence, the joint step equals one application of the summed
    # rule, and it equals both one-at-a-time orders.
    for trial in range(trials):
        rng = random.Random(9000 + trial)
        host, m1, m2 = random_independent_pair(rng)
        g1, g2 = apply_direct(m1), apply_direct(m2)
        assert check_parallel_independent(g1, g2) is not None
        assert check_parallel_coherent(g1, g2) is not None

        joint = derive_graph(host, pct([g1, g2]))
        summed = apply_direct(coproduct_match(m1, m2))
        assert is_attr_isomorphic(joint, reference_direct(summed))

        first_then_second = reference_direct(apply_direct(
            transport_match(m2, reference_direct(g1, 0, 0))))
        assert is_attr_isomorphic(first_then_second, joint)
        second_then_first = reference_direct(apply_direct(
            transport_match(m1, reference_direct(g2, 0, 1))))
        assert is_attr_isomorphic(second_then_first, joint)

    assert perf_counter() - started < 120.0
