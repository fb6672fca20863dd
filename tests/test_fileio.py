import json

import pytest

from weakspan import (
    AttributedGraph,
    FiniteEnum,
    Graph,
    HexGridSpec,
    LabelSet,
    NatPlus,
    ParseError,
    SortSignature,
    ValidationError,
    Var,
    export_dot,
    fibonacci_system,
    hex_system,
    load_system,
    loads_system,
    save_graph,
    save_system,
)
from weakspan.cli import main

MINIMAL = {
    "sorts": {"nodes": ["p"], "edges": {"a": ["p", "p"]}},
    "algebra": "nat",
}


def with_host(**host):
    data = dict(MINIMAL)
    data["host"] = {"nodes": [], "edges": [], **host}
    return data


class TestRoundTrips:
    def test_whole_system_survives_a_save_and_load(self, tmp_path):
        system = fibonacci_system()
        path = tmp_path / "fib.json"
        save_system(system, path)
        assert load_system(path) == system

    def test_enumerated_system_survives_too(self, tmp_path):
        system = hex_system(HexGridSpec(radius=2, seeds=((1, 0), (0, 0))))
        path = tmp_path / "hex.json"
        save_system(system, path)
        loaded = load_system(path)
        assert loaded.algebra == FiniteEnum(("0", "1"))
        assert loaded == system

    def test_standalone_graph_file(self, tmp_path):
        host = fibonacci_system().host
        path = tmp_path / "host.json"
        save_graph(host, path)
        loaded = load_system(path)
        assert loaded.rules == []
        assert loaded.host == host

    def test_term_labels_round_trip_textually(self, tmp_path):
        system = fibonacci_system()
        path = tmp_path / "fib.json"
        save_system(system, path)
        raw = json.loads(path.read_text())
        sum_rule = next(r for r in raw["rules"] if r["name"] == "sum")
        y_entry = next(n for n in sum_rule["R"]["nodes"] if n["id"] == "y")
        assert y_entry["label"] == ["u+v"]


class TestParseFailures:
    def test_broken_json_reports_the_position(self):
        with pytest.raises(ParseError, match="line 2"):
            loads_system('{"sorts":\n!', source="bad.json")

    def test_source_name_appears_in_the_message(self):
        with pytest.raises(ParseError, match="bad.json"):
            loads_system("[", source="bad.json")

    def test_top_level_must_be_an_object(self):
        with pytest.raises(ValidationError, match="top level"):
            loads_system("[1, 2]")

    @pytest.mark.parametrize("missing", ["sorts", "algebra"])
    def test_required_sections(self, missing):
        data = dict(MINIMAL)
        del data[missing]
        with pytest.raises(ValidationError, match=missing):
            loads_system(json.dumps(data))

    def test_unknown_algebra(self):
        data = dict(MINIMAL, algebra="real")
        with pytest.raises(ValidationError, match="unknown algebra"):
            loads_system(json.dumps(data))

    def test_edge_sort_needs_a_pair(self):
        data = dict(MINIMAL, sorts={"nodes": ["p"], "edges": {"a": ["p"]}})
        with pytest.raises(ValidationError, match="source sort, target sort"):
            loads_system(json.dumps(data))


def deep_rule_label(label):
    """A one-rule system whose left-side node carries ``label``."""
    node = [{"id": "x", "sort": "p", "label": [label]}]
    bare = [{"id": "x", "sort": "p"}]
    return dict(MINIMAL, rules=[{
        "name": "deep", "variables": ["u"],
        "L": {"nodes": node}, "K": {"nodes": bare}, "I": {"nodes": bare},
        "R": {"nodes": bare}, "l": {"nodes": {"x": "x"}},
        "i": {"nodes": {"x": "x"}}, "r": {"nodes": {"x": "x"}}}])


# each case is a JSON value, or the file's text when it cannot be built as one
MALFORMED_SHAPES = {
    "host nodes not a list": with_host(nodes=5),
    "edge sorts not an object": dict(MINIMAL, sorts={"nodes": ["p"], "edges": [["p", "p"]]}),
    "label not a list": with_host(nodes=[{"id": "x", "sort": "p", "label": 7}]),
    "enum values not a list": dict(MINIMAL, algebra={"enum": 3}),
    "sort not a string": with_host(nodes=[{"id": "x", "sort": ["p"]}]),
    "rule label in 3000 parentheses": deep_rule_label("(" * 3000 + "u" + ")" * 3000),
    "rule label summing 3000 terms": deep_rule_label("+".join(["u"] * 3000)),
    "arrays nested 100000 deep": "[" * 100_000 + "]" * 100_000,
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SHAPES))
def test_malformed_shapes_exit_with_code_2(case, tmp_path, capsys):
    path = tmp_path / "bad.json"
    shape = MALFORMED_SHAPES[case]
    path.write_text(shape if isinstance(shape, str) else json.dumps(shape))
    code = main(["export", "--host", str(path), "--dot", str(tmp_path / "bad.dot")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("invalid input: ")
    assert "Traceback" not in err


class TestHostValidation:
    def test_duplicate_node_ids(self):
        data = with_host(nodes=[{"id": "x", "sort": "p"}, {"id": "x", "sort": "p"}])
        with pytest.raises(ValidationError, match="duplicate node id 'x'"):
            loads_system(json.dumps(data))

    def test_edge_with_unknown_endpoint_is_named(self):
        data = with_host(nodes=[{"id": "x", "sort": "p"}],
                         edges=[{"id": "e9", "sort": "a", "src": "x", "tgt": "ghost"}])
        with pytest.raises(ValidationError, match="'e9' names unknown target"):
            loads_system(json.dumps(data))

    def test_edge_needs_all_fields(self):
        data = with_host(nodes=[{"id": "x", "sort": "p"}],
                         edges=[{"id": "e", "sort": "a", "src": "x"}])
        with pytest.raises(ValidationError, match="edge needs 'tgt'"):
            loads_system(json.dumps(data))

    @pytest.mark.parametrize("bad_label", ["five", -1, True])
    def test_natural_number_labels_only(self, bad_label):
        data = with_host(nodes=[{"id": "x", "sort": "p", "label": [bad_label]}])
        with pytest.raises(ValidationError, match="natural-number label expected"):
            loads_system(json.dumps(data))

    def test_host_may_sit_at_the_top_level(self):
        data = dict(MINIMAL, nodes=[{"id": "x", "sort": "p", "label": [3]}])
        spec = loads_system(json.dumps(data))
        assert spec.host is not None
        assert spec.host.label("x") == LabelSet([3])

    def test_wrong_sort_is_rejected(self):
        data = with_host(nodes=[{"id": "x", "sort": "zebra"}])
        with pytest.raises(ValidationError):
            loads_system(json.dumps(data))


def rule_skeleton(**overrides):
    node = [{"id": "x", "sort": "p", "label": ["u"]}]
    bare = [{"id": "x", "sort": "p"}]
    rule = {
        "name": "demo",
        "variables": ["u"],
        "L": {"nodes": node},
        "K": {"nodes": bare},
        "I": {"nodes": bare},
        "R": {"nodes": bare},
        "l": {"nodes": {"x": "x"}},
        "i": {"nodes": {"x": "x"}},
        "r": {"nodes": {"x": "x"}},
    }
    rule.update(overrides)
    return dict(MINIMAL, rules=[rule])


class TestRuleValidation:
    def test_minimal_rule_loads(self):
        spec = loads_system(json.dumps(rule_skeleton()))
        assert [r.name for r in spec.rules] == ["demo"]
        assert spec.rules[0].L.label("x") == LabelSet([Var("u")])

    def test_rules_need_all_four_graphs(self):
        data = rule_skeleton()
        del data["rules"][0]["K"]
        with pytest.raises(ValidationError, match="needs graph 'K'"):
            loads_system(json.dumps(data))

    def test_undeclared_term_symbols_are_rejected(self):
        data = rule_skeleton(L={"nodes": [{"id": "x", "sort": "p", "label": ["w"]}]})
        with pytest.raises(ValidationError, match="undeclared symbols"):
            loads_system(json.dumps(data))

    def test_bad_term_syntax_is_a_parse_error(self):
        data = rule_skeleton(L={"nodes": [{"id": "x", "sort": "p", "label": ["u +"]}]})
        with pytest.raises(ParseError, match="rule 'demo' L node 'x'"):
            loads_system(json.dumps(data))

    def test_structure_maps_must_hit_existing_elements(self):
        data = rule_skeleton(l={"nodes": {"x": "ghost"}})
        with pytest.raises(ValidationError, match="rule 'demo' map l"):
            loads_system(json.dumps(data))

    def test_rule_level_invariants_carry_the_rule_name(self):
        # the map i sends the required part outside the preserved labels
        data = rule_skeleton(
            I={"nodes": [{"id": "x", "sort": "p", "label": ["u"]}]})
        with pytest.raises(ValidationError, match="rule 'demo'"):
            loads_system(json.dumps(data))

    def test_enumerated_systems_use_variable_free_rules(self):
        data = json.loads(json.dumps(rule_skeleton()))
        data["algebra"] = {"enum": ["0", "1"]}
        with pytest.raises(ValidationError, match="variable-free"):
            loads_system(json.dumps(data))


class TestDotExport:
    def test_exact_rendering_of_the_two_register_host(self, tmp_path):
        host = fibonacci_system().host
        path = tmp_path / "host.dot"
        export_dot(host, path)
        assert path.read_text() == (
            'digraph weakspan {\n'
            '  "x" [label="x {1}"];\n'
            '  "y" [label="y {2}"];\n'
            '  "x" -> "y" [label="next"];\n'
            '}\n')

    def test_output_is_deterministic(self, tmp_path):
        host = hex_system(HexGridSpec(radius=2)).host
        first, second = tmp_path / "a.dot", tmp_path / "b.dot"
        export_dot(host, first)
        export_dot(host, second)
        assert first.read_text() == second.read_text()

    def test_edge_labels_and_quoting(self, tmp_path):
        sig = SortSignature(["p"], {"a": ("p", "p")})
        g = Graph(sig, {'no"de': "p"}, {"e": ("a", 'no"de', 'no"de')})
        host = AttributedGraph(g, NatPlus(), {"e": [7]})
        path = tmp_path / "q.dot"
        export_dot(host, path)
        text = path.read_text()
        assert '"no\\"de"' in text
        assert '[label="a {7}"]' in text
