import dataclasses
import gc
import json
import random
import sys

import pytest

from weakspan import (
    HexGridSpec,
    LabelSet,
    RunResult,
    SystemSpec,
    apply_direct,
    apply_parallel_step,
    apply_sequential_step,
    ca_oracle,
    cmd_hexca,
    cmd_run,
    fibonacci_system,
    find_matches,
    hex_system,
    load_system,
    loads_system,
    rule_matches,
    save_system,
    transport_match,
)
from weakspan import derive_graph, runner
from weakspan.constructions import limit_of_neutrals, pushout_complement
from weakspan.runner import StepReport, joint_step
from weakspan.rewriting import pct

from randgen import NAT, SIG, left_side_twin, random_host, random_instance, random_independent_pair


@pytest.fixture
def fib():
    return fibonacci_system()


def fib_pair(graph):
    x = sorted(graph.label("x"))
    y = sorted(graph.label("y"))
    return (x[0] if x else None, y[0] if y else None)


# one rule that deletes a node, on a host p -> q: its one match would leave
# the edge dangling
DELETE_ON_AN_EDGE = {
    "sorts": {"nodes": ["p", "q"], "edges": {"b": ["p", "q"]}},
    "algebra": "nat",
    "rules": [{"name": "delete", "L": {"nodes": [{"id": "x", "sort": "p"}]},
               "K": {}, "I": {}, "R": {}, "l": {}, "i": {}, "r": {}}],
    "host": {"nodes": [{"id": "n0", "sort": "p"}, {"id": "n1", "sort": "q"}],
             "edges": [{"id": "e", "sort": "b", "src": "n0", "tgt": "n1"}]},
}


class TestRelabeling:
    def test_parallel_result_lands_back_on_host_ids(self, fib):
        gammas = [apply_direct(m) for ms in rule_matches(fib, fib.host) for m in ms]
        renamed = joint_step(gammas, StepReport(index=0, mode="pct"), range(len(gammas)))
        assert renamed.element_ids() == ["x", "y", "e"]
        assert renamed.label("x") == LabelSet([2])
        assert renamed.label("y") == LabelSet([3])

    def test_direct_result_marks_created_elements(self):
        rng = random.Random(4)
        host = random_host(rng)
        grow = left_side_twin(random_instance(rng, host).rule, "grow")
        report = StepReport(index=4, mode="sequential")
        result = joint_step([apply_direct(find_matches(grow, host)[0])], report, [1])
        [changes] = report.changes
        assert changes.added == {"s4:1:grow.new": ("q", None, LabelSet())}
        assert set(result.element_ids()) == {*host.element_ids(), "s4:1:grow.new"}


class TestTransport:
    def test_match_carries_to_a_graph_with_the_same_ids(self, fib):
        match = find_matches(fib.rules[1], fib.host)[0]
        twin = fib.host.with_labels({"e": []})
        carried = transport_match(match, twin)
        assert carried.host is twin
        assert carried.m.apply("x") == "x"
        assert carried.alpha == match.alpha

    def test_a_match_on_its_own_host_is_returned_as_it_is(self, fib):
        match = find_matches(fib.rules[1], fib.host)[0]
        assert transport_match(match, fib.host) is match

    def test_a_shared_graph_keeps_the_graph_part_and_still_checks_labels(self, fib):
        match = find_matches(fib.rules[1], fib.host)[0]
        twin = fib.host.with_labels({"e": []})
        assert twin.graph is fib.host.graph
        assert transport_match(match, twin).m.sigma is match.m.sigma
        relabelled = fib.host.with_labels({"x": [7]})
        assert relabelled.graph is fib.host.graph
        with pytest.raises(ValueError, match="label condition"):
            transport_match(match, relabelled)

    def test_transport_fails_when_the_labels_are_gone(self, fib):
        shift, total = fib.rules
        match = find_matches(total, fib.host)[0]     # binds u=1, v=2
        gamma = apply_direct(find_matches(shift, fib.host)[0])
        after_shift = derive_graph(fib.host, pct([gamma]))   # x now holds 2
        with pytest.raises(ValueError, match="label condition"):
            transport_match(match, after_shift)

    def test_transport_fails_when_an_element_is_deleted(self, fib):
        match = find_matches(fib.rules[0], fib.host)[0]
        smaller = fib.host.with_labels({})
        pruned = type(smaller)(
            _graph_without_edge(smaller), smaller.algebra,
            {"x": smaller.label("x"), "y": smaller.label("y")})
        with pytest.raises(ValueError):
            transport_match(match, pruned)


def _graph_without_edge(attributed):
    from weakspan import Graph
    g = attributed.graph
    return Graph(g.signature, dict(g.nodes), {})


class TestParallelStep:
    def test_fibonacci_single_step(self, fib):
        result, report = apply_parallel_step(fib, fib.host, 0)
        assert fib_pair(result) == (2, 3)
        assert report.matches_per_rule == {"shift": 1, "sum": 1}
        assert report.applied == 2
        assert "coherence matrix 2x2 (4 witnesses)" in report.describe()
        assert report.dprime_elements == 3
        assert report.hprime_elements == 3
        assert not report.fixpoint

    def test_the_context_count_is_the_host_less_the_deletions(self):
        deleting = 0
        for trial in range(40):
            host, m1, m2 = random_independent_pair(random.Random(9000 + trial))
            gammas = [apply_direct(m1), apply_direct(m2)]
            report = StepReport(index=0, mode="pct")
            joint_step(gammas, report, [0, 1])
            changes = pct(gammas)
            dprime, _legs = limit_of_neutrals(
                [pushout_complement(g.rule.l, g.match.m).complement_to_host for g in gammas])
            assert report.dprime_elements == dprime.element_count()
            assert report.hprime_elements == derive_graph(host, changes).element_count()
            deleting += bool(changes.deleted)
        assert deleting >= 10

    def test_a_relabelling_step_leaves_the_incidence_table_unbuilt(self, cold_loads):
        hexes = hex_system(HexGridSpec(radius=5))
        _, report = apply_parallel_step(hexes, hexes.host, 0)
        assert report.applied == 6
        assert "incident" not in vars(hexes.host.graph.index)

    def test_a_deleting_match_reads_the_incidence_table(self):
        deleting = 0
        for trial in range(40):
            host, m1, _m2 = random_independent_pair(random.Random(9000 + trial))
            record = apply_direct(m1).record
            assert ("incident" in vars(host.graph.index)) == bool(record.deleted)
            deleting += bool(record.deleted)
        assert deleting >= 5

    def test_report_renders_the_step_summary(self, fib):
        _, report = apply_parallel_step(fib, fib.host, 0)
        text = report.describe()
        assert text == ("step 0 [pct] matches {shift: 1, sum: 1} "
                        "coherence matrix 2x2 (4 witnesses) D' 3 elements, H' 3 elements")

    def test_no_matches_is_a_fixpoint(self, fib):
        silent = fib.host.with_labels({"x": [], "y": []})
        result, report = apply_parallel_step(fib, silent, 3)
        assert result is silent
        assert report.fixpoint
        assert report.describe() == "step 3 [pct] no matches: fixpoint reached"


class TestSequentialStep:
    def test_second_match_is_invalidated_by_the_first(self, fib):
        result, report = apply_sequential_step(fib, fib.host, 0)
        # shift rewrites x to 2, invalidating the sum match that read u=1
        assert fib_pair(result) == (2, 2)
        assert report.applied == 1
        assert len(report.skipped_invalid) == 1
        assert report.skipped_invalid[0].startswith("sum@1")
        assert "invalidated" in report.describe()

    def test_order_changes_the_outcome(self, fib):
        result, report = apply_sequential_step(fib, fib.host, 0, order=[1, 0])
        # the sum fires first; the shift match froze v=2, which y no longer holds
        assert fib_pair(result) == (1, 3)
        assert report.applied == 1
        assert len(report.skipped_invalid) == 1
        assert report.skipped_invalid[0].startswith("shift@0")

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="the interpreter converts integers of any length")
    def test_a_reason_renders_a_value_too_long_to_write_by_its_size(self, fib):
        big = 10 ** sys.get_int_max_str_digits()
        host = fib.host.with_labels({"x": [big], "y": [big + 1]})
        _result, report = apply_sequential_step(fib, host, 0)
        size = f"<integer of {sys.get_int_max_str_digits() + 1} digits>"
        assert report.skipped_invalid == [
            f"sum@1: label condition fails: element 'x': mapped labels {{{size}}} "
            f"not contained in {{{size}}} at 'x'"]

    def test_order_must_be_a_permutation(self, fib):
        with pytest.raises(ValueError, match="permutation"):
            apply_sequential_step(fib, fib.host, 0, order=[0, 0])


class TestRun:
    def test_fibonacci_trajectory(self, fib):
        run = cmd_run(fib, steps=5, mode="pct")
        pairs = [fib_pair(g) for g in run.history]
        assert pairs == [(1, 2), (2, 3), (3, 5), (5, 8), (8, 13), (13, 21)]
        assert isinstance(run, RunResult)
        assert len(run.steps) == 5
        assert run.report_text().count("\n") == 4

    def test_sequential_mode_runs_to_completion(self, fib):
        run = cmd_run(fib, steps=2, mode="sequential")
        # step one reaches (2, 2); on equal registers both matches stay
        # valid after the shift, so the sum then writes 2 + 2
        assert fib_pair(run.final) == (2, 4)
        assert all(step.mode == "sequential" for step in run.steps)

    def test_run_stops_at_a_fixpoint(self, fib):
        silent = fibonacci_system()
        silent.host = silent.host.with_labels({"x": [], "y": []})
        run = cmd_run(silent, steps=10, mode="pct")
        assert len(run.steps) == 1
        assert run.steps[0].fixpoint
        assert run.final is silent.host

    @pytest.mark.parametrize("mode, tag", [("pct", "@"), ("sequential", "@")])
    def test_a_step_that_applies_nothing_is_a_fixpoint(self, mode, tag):
        system = loads_system(json.dumps(DELETE_ON_AN_EDGE))
        run = cmd_run(system, steps=3, mode=mode)
        [step] = run.steps
        assert step.fixpoint and step.applied == 0 and step.changes == []
        assert run.final is system.host and run.history == [system.host, system.host]
        assert step.describe() == (
            f"step 0 [{mode}] matches {{delete: 1}} gluing-skipped [delete{tag}0: edge 'e' "
            "would dangle: an endpoint is deleted but the edge is not] "
            "applied 0: fixpoint reached")

    @pytest.mark.parametrize("mode", ["pct", "sequential"])
    def test_a_skipped_match_is_named_by_its_global_index(self, mode):
        # `see` has global matches 0 and 1, so delete's only match is global 2
        seen = {"nodes": [{"id": "y", "sort": "q"}]}
        same = {"nodes": {"y": "y"}}
        see = {"name": "see", "L": seen, "K": seen, "I": seen, "R": seen,
               "l": same, "i": same, "r": same}
        host = DELETE_ON_AN_EDGE["host"]
        system = loads_system(json.dumps({
            **DELETE_ON_AN_EDGE, "rules": [see, *DELETE_ON_AN_EDGE["rules"]],
            "host": {**host, "nodes": [*host["nodes"], {"id": "n2", "sort": "q"}]}}))
        [step] = cmd_run(system, steps=1, mode=mode).steps
        assert step.matches_per_rule == {"see": 2, "delete": 1}
        assert step.skipped_gluing == [
            "delete@2: edge 'e' would dangle: an endpoint is deleted but the edge is not"]

    def test_argument_validation(self, fib):
        with pytest.raises(ValueError, match="unknown mode"):
            cmd_run(fib, steps=1, mode="both")
        with pytest.raises(ValueError, match="unknown mode 'seq'"):   # the CLI's spelling only
            cmd_run(fib, steps=1, mode="seq")
        with pytest.raises(ValueError, match="nonnegative"):
            cmd_run(fib, steps=-1)
        headless = fibonacci_system()
        headless.host = None
        with pytest.raises(ValueError, match="no host"):
            cmd_run(headless, steps=1)


class TestHexca:
    def test_growth_matches_the_reference_simulation(self):
        grid = HexGridSpec(radius=4)
        result = cmd_hexca(grid, generations=3)
        assert result.live_counts == [1, 7, 13, 31]
        assert result.live_sets == ca_oracle(grid, 3)

    def test_decentered_seed_follows_the_oracle(self):
        grid = HexGridSpec(radius=4, seeds=((1, 1),))
        result = cmd_hexca(grid, generations=2)
        assert result.live_sets == ca_oracle(grid, 2)

    def test_margin_rule_is_enforced(self):
        with pytest.raises(ValueError, match="margin violation"):
            cmd_hexca(HexGridSpec(radius=2), generations=2)
        with pytest.raises(ValueError, match="nonnegative"):
            cmd_hexca(HexGridSpec(radius=2), generations=-1)

    @pytest.mark.parametrize("radius, seeds, generations, bound", [
        (8, ((2, 1),), 7, 10),
        (5, ((0, 0), (2, -1)), 3, 7),
        (6, ((0, 0), (2, -1)), 3, 7),
        (4, ((-3, 0),), 1, 5),
    ])
    def test_the_margin_counts_the_farthest_seed(self, radius, seeds, generations, bound):
        grid = HexGridSpec(radius=radius, seeds=seeds)
        with pytest.raises(ValueError, match=f"margin violation: .* = {bound}$"):
            cmd_hexca(grid, generations)
        wide = HexGridSpec(radius=bound, seeds=seeds)
        assert cmd_hexca(wide, generations).live_sets == ca_oracle(wide, generations)

    def test_steps_share_every_label_they_leave_alone(self):
        grid = HexGridSpec(radius=5)
        result = cmd_hexca(grid, generations=4)
        rules = hex_system(grid).rules
        for before, after in zip(result.graphs, result.graphs[1:]):
            touched = {h for rule in rules for match in find_matches(rule, before)
                       for h in match.m.sigma.element_map().values()}
            untouched = before.labeling.keys() - touched
            assert len(untouched) > 200
            assert all(after.label(x) is before.label(x) for x in untouched)

    def test_zero_generations_is_just_the_seed(self):
        result = cmd_hexca(HexGridSpec(radius=1), generations=0)
        assert result.live_counts == [1]
        assert result.steps == []


def _loaded(system, tmp_path):
    path = tmp_path / "system.json"
    save_system(system, path)
    return load_system(path)


class TestSharedSearch:
    """`rule_matches` searches each distinct left side once and must give
    every rule exactly what its own `find_matches` gives."""

    @staticmethod
    def assert_same_as_per_rule_search(system):
        shared = rule_matches(system, system.host)
        assert len(shared) == len(system.rules)
        for rule, matches in zip(system.rules, shared):
            alone = find_matches(rule, system.host)
            assert [m.rule for m in matches] == [rule] * len(alone)
            assert [(m.m.sigma.node_map, m.m.sigma.edge_map, m.alpha.assignment)
                    for m in matches] == \
                [(m.m.sigma.node_map, m.m.sigma.edge_map, m.alpha.assignment)
                 for m in alone]
            assert all(m.host is system.host for m in matches)

    def test_fibonacci_in_memory(self, fib):
        assert fib.rules[0].L is fib.rules[1].L
        self.assert_same_as_per_rule_search(fib)

    def test_fibonacci_after_a_round_trip(self, fib, tmp_path):
        loaded = _loaded(fib, tmp_path)
        shift, total = loaded.rules
        assert shift.L is not total.L and shift.L == total.L
        self.assert_same_as_per_rule_search(loaded)

    def test_hex_rules_have_six_different_left_sides(self):
        system = hex_system(HexGridSpec(radius=4, seeds=((0, 0), (2, -1))))
        lefts = [rule.L for rule in system.rules]
        assert all(a != b for k, a in enumerate(lefts) for b in lefts[k + 1:])
        self.assert_same_as_per_rule_search(system)

    def test_random_rule_with_a_twin_that_applies_differently(self):
        for trial in range(30):
            rng = random.Random(7100 + trial)
            host = random_host(rng)
            first = random_instance(rng, host, name="first").rule
            other = random_instance(rng, host, name="other").rule
            twin = left_side_twin(first, "twin")
            assert twin.L == first.L and (twin.K, twin.R) != (first.K, first.R)
            system = SystemSpec(signature=SIG, algebra=NAT,
                                rules=[first, other, twin], host=host)
            self.assert_same_as_per_rule_search(system)

    @pytest.mark.parametrize("mode", ["pct", "sequential"])
    @pytest.mark.parametrize("loaded", [False, True], ids=["in_memory", "loaded"])
    def test_one_fibonacci_step_searches_once(self, fib, tmp_path, monkeypatch,
                                              mode, loaded):
        system = _loaded(fib, tmp_path) if loaded else fib
        calls = []

        def counting(rule, host, groups=None):
            calls.append(rule.name)
            return find_matches(rule, host, groups)

        monkeypatch.setattr(runner, "find_matches", counting)
        run = cmd_run(system, steps=1, mode=mode)
        assert calls == ["shift"]
        assert run.steps[0].matches_per_rule == {"shift": 1, "sum": 1}


@pytest.mark.parametrize("mode", ["pct", "sequential"])
def test_two_rules_with_one_name_are_refused_before_searching(fib, monkeypatch, mode):
    """Step reports count matches by rule name, so a system built in Python
    with two rules of one name is refused, as a loaded file is."""
    fib.rules[1] = dataclasses.replace(fib.rules[1], name="shift")
    monkeypatch.setattr(runner, "find_matches", None)
    with pytest.raises(ValueError, match="^duplicate rule name 'shift'$"):
        cmd_run(fib, 1, mode)
    with pytest.raises(ValueError, match="^duplicate rule name 'shift'$"):
        rule_matches(fib, fib.host)


def test_runs_leave_no_reference_cycles():
    """The recursive searches empty their closure cells, so a step's
    matching state is freed as each search returns, not at the next
    collection."""
    gc.collect()
    gc.disable()
    try:
        cmd_hexca(HexGridSpec(radius=5), generations=3)
        cmd_run(fibonacci_system(), steps=3, mode="sequential")
        cmd_run(fibonacci_system(), steps=3, mode="pct")
        assert gc.collect() == 0
    finally:
        gc.enable()
