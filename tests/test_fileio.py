import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from weakspan import (
    AttributedGraph,
    FiniteEnum,
    Graph,
    HexGridSpec,
    LabelSet,
    Lit,
    NatPlus,
    OpApp,
    ParseError,
    SortSignature,
    TermAlg,
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
from weakspan import fileio
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
    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="the interpreter converts integers of any length")
    def test_a_label_too_long_to_write_is_refused_before_the_file_is_written(self, tmp_path):
        system = fibonacci_system()
        big = 10 ** sys.get_int_max_str_digits()
        system.host = system.host.with_labels({"x": [big], "y": [2, big]})
        path = tmp_path / "fib.json"
        with pytest.raises(ValueError) as raised:
            save_system(system, path)
        digits = sys.get_int_max_str_digits() + 1
        assert str(raised.value) == (f"label set {{<integer of {digits} digits>}} on element "
                                     "'x' holds a value too long to write")
        assert not path.exists()

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="the interpreter converts integers of any length")
    def test_a_term_literal_too_long_to_write_is_refused_before_the_file_is_written(
            self, tmp_path):
        digits = sys.get_int_max_str_digits() + 1
        big = OpApp("+", (Var("u"), Lit(10 ** (digits - 1))))
        graph = AttributedGraph(Graph(SortSignature(["p"], {}), {"x": "p"}, {}),
                                TermAlg(["u"]), {"x": [big]})
        path = tmp_path / "g.json"
        with pytest.raises(ValueError) as raised:
            save_graph(graph, path)
        assert str(raised.value) == (f"label set {{u+<integer of {digits} digits>}} on "
                                     "element 'x' holds a value too long to write")
        assert not path.exists()

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

    def test_an_integer_past_the_digit_limit_is_a_parse_error(self):
        text = json.dumps(with_host(nodes=[{"id": "x", "sort": "p", "label": [0]}]))
        with pytest.raises(ParseError, match=r"^big.json: Exceeds the limit \(4300 digits\)"):
            loads_system(text.replace("[0]", "[" + "9" * 5000 + "]"), source="big.json")

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

    def test_a_number_term_label_round_trips_and_a_boolean_is_refused(self, tmp_path):
        # Python counts a JSON boolean as an integer; read as a literal, it
        # was saved as "True", a term the loader cannot read back
        numbered = rule_skeleton(variables=[],
                                 L={"nodes": [{"id": "x", "sort": "p", "label": [1]}]})
        spec = loads_system(json.dumps(numbered))
        assert spec.rules[0].L.label("x") == LabelSet([Lit(1)])
        path = tmp_path / "saved.json"
        save_system(spec, path)
        assert load_system(path) == spec
        for raw, shown in ((True, "True"), (False, "False")):
            data = rule_skeleton(variables=[],
                                 L={"nodes": [{"id": "x", "sort": "p", "label": [raw]}]})
            with pytest.raises(ValidationError, match=(
                    f"^<string>: rule 'demo' L node 'x': term label expected, got {shown}$")):
                loads_system(json.dumps(data))

    def test_enumerated_systems_use_variable_free_rules(self):
        data = json.loads(json.dumps(rule_skeleton()))
        data["algebra"] = {"enum": ["0", "1"]}
        with pytest.raises(ValidationError, match="variable-free"):
            loads_system(json.dumps(data))


def counting_rule_parses(monkeypatch):
    """A list that grows by one rule name per ``_parse_rule`` call."""
    parsed = []
    real = fileio._parse_rule

    def counting(data, signature, algebra):
        parsed.append(data["name"])
        return real(data, signature, algebra)
    monkeypatch.setattr(fileio, "_parse_rule", counting)
    return parsed


ONE_NODE_RULE = ('{"sorts": {"nodes": ["p"], "edges": {}}, "algebra": %s, "rules": [{'
                 '"name": "r", "L": {"nodes": [{"id": %s, "sort": "p", "label": [%s]}]}, '
                 '"K": {"nodes": []}, "I": {"nodes": []}, "R": {"nodes": []}, '
                 '"l": {}, "i": {}, "r": {}}], '
                 '"host": {"nodes": [{"id": "h", "sort": "p", "label": [%s]}]}}')
LITERAL_CASES = {
    # (system text with LIT for the literal, the left node each of 1, 1.0 and
    # true loads to, or the start of its refusal)
    "rule node id": (ONE_NODE_RULE % ('"nat"', "LIT", "3", "3"),
                     ["1", "1.0", "True"]),
    "enumerated rule label": (ONE_NODE_RULE % ('{"enum": ["1"]}', '"x"', "LIT", '"1"'),
                              ["x", "<string>: rule 'r' L node 'x': label 1.0 is not",
                               "<string>: rule 'r' L node 'x': label True is not"]),
    "nat host label": (ONE_NODE_RULE % ('"nat"', '"x"', "3", "LIT"),
                       ["x", "<string>: host node 'h': natural-number label expected, got 1.0",
                        "<string>: host node 'h': natural-number label expected, got True"]),
}


class TestReloading:
    """A rules text loaded before gives the same rule objects; its host is
    parsed again on every load."""

    def test_a_second_load_shares_the_rules_in_a_fresh_list(self, monkeypatch):
        text = json.dumps({**rule_skeleton(), "host": {"nodes": [{"id": "h", "sort": "p"}]}})
        first = loads_system(text)
        parsed = counting_rule_parses(monkeypatch)
        second = loads_system(text)
        assert parsed == []
        assert second.rules is not first.rules
        assert [a is b for a, b in zip(first.rules, second.rules, strict=True)] == [True]
        assert second.host == first.host and second.host is not first.host
        second.rules.append(second.rules[0])
        assert len(loads_system(text).rules) == 1

    @pytest.mark.parametrize("case", sorted(LITERAL_CASES))
    def test_texts_that_differ_by_one_literal_load_on_their_own(self, case, cold_loads):
        template, expected = LITERAL_CASES[case]
        literals = ["1", "1.0", "true"]
        cold = {}
        for literal in literals:
            try:
                loads_system(template.replace("LIT", literal))
            except ValidationError as err:
                cold[literal] = str(err)
            fileio._LAST = None
        for literal, want in zip(literals * 2, expected * 2):
            text = template.replace("LIT", literal)
            if literal in cold:
                with pytest.raises(ValidationError) as refused:
                    loads_system(text)
                assert str(refused.value) == cold[literal] and cold[literal].startswith(want)
            else:
                (rule,) = loads_system(text).rules
                assert list(rule.L.graph.nodes) == [want]

    @pytest.mark.parametrize("fault", ["duplicate rule name", "bad host"])
    def test_a_refused_text_is_parsed_and_refused_again(self, fault, monkeypatch):
        data = rule_skeleton()
        if fault == "duplicate rule name":
            data["rules"] *= 2
        else:
            data = with_host(nodes=[{"id": "x", "sort": "p", "label": ["five"]}]) | data
        parsed = counting_rule_parses(monkeypatch)
        messages = []
        for _ in range(2):
            with pytest.raises(ValidationError) as refused:
                loads_system(json.dumps(data), source="bad.json")
            messages.append(str(refused.value))
        assert messages[0] == messages[1]
        assert parsed == ["demo"] * len(data["rules"]) * 2

    def test_only_the_last_text_with_rules_is_kept(self, monkeypatch, cold_loads):
        first = json.dumps(rule_skeleton())
        other = json.dumps(rule_skeleton(name="other"))
        host_only = json.dumps(with_host(nodes=[{"id": "x", "sort": "p"}]))
        loads_system(first)
        parsed = counting_rule_parses(monkeypatch)
        loads_system(host_only)
        loads_system(first)
        assert parsed == []
        loads_system(other)
        loads_system(first)
        assert parsed == ["other", "demo"]

    def test_a_text_without_rules_is_not_kept(self, cold_loads):
        loads_system(json.dumps(with_host(nodes=[{"id": "x", "sort": "p"}])))
        assert fileio._LAST is None


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


# one enumerated rule with a non-ASCII name that keeps a node labelled "a",
# on a host whose one such node has a raw (unescaped) non-ASCII id
_KEEP = {"nodes": [{"id": "x", "sort": "p", "label": ["a"]}]}
NON_ASCII = json.dumps({
    "sorts": {"nodes": ["p"], "edges": {"e": ["p", "p"]}},
    "algebra": {"enum": ["a"]},
    "rules": [{"name": "cl\u00e9", "L": _KEEP, "K": _KEEP, "I": _KEEP, "R": _KEEP,
               "l": {"nodes": {"x": "x"}}, "i": {"nodes": {"x": "x"}},
               "r": {"nodes": {"x": "x"}}}],
    "host": {"nodes": [{"id": "\u00e9", "sort": "p", "label": ["a"]}],
             "edges": [{"id": "loop", "sort": "e", "src": "\u00e9", "tgt": "\u00e9"}]},
}, ensure_ascii=False)


def run_in_locale(argv, utf8, cwd):
    """``python -m weakspan`` with ``argv`` in ``cwd``, in a UTF-8 mode
    process or in one whose locale encoding is ASCII."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONIOENCODING", "PYTHONUTF8", "PYTHONCOERCECLOCALE")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env.update({"PYTHONUTF8": "1"} if utf8 else
               {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"})
    return subprocess.run([sys.executable, "-m", "weakspan", *argv], env=env, cwd=cwd,
                          capture_output=True, timeout=60)


class TestEncoding:
    """Files are read and written as UTF-8 whatever the locale."""

    def test_bytes_that_are_not_utf8_are_refused_with_the_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff" + json.dumps(with_host()).encode())
        assert main(["match", "--rules", str(bad), "--host", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err == (f"invalid input: {bad}: 'utf-8' codec can't decode byte 0xff "
                       "in position 0: invalid start byte\n")
        with pytest.raises(ParseError):
            load_system(bad)

    @pytest.mark.parametrize("argv, written", [
        (["match", "--rules", "in.json", "--host", "in.json", "--report", "report.txt"],
         ["report.txt"]),
        (["match", "--rules", "in.json", "--host", "in.json"], []),
        (["run", "--rules", "in.json", "--host", "in.json", "--steps", "1"], []),
        (["export", "--host", "in.json", "--dot", "out.dot", "--out", "out.json"],
         ["out.dot", "out.json"]),
        # argv is decoded by the locale, and the rule is named in the file's UTF-8
        (["apply", "--rules", "in.json", "--host", "in.json", "--rule", "cl\u00e9",
          "--match", "0", "--out", "out.json"], ["out.json"]),
    ], ids=["match", "match-stdout", "run-stdout", "export", "apply-rule"])
    def test_an_ascii_locale_reads_and_writes_what_utf8_does(self, argv, written, tmp_path):
        # what the command prints and every file it writes, as bytes
        outputs = {}
        for utf8 in (True, False):
            cwd = tmp_path / ("utf8" if utf8 else "ascii")
            cwd.mkdir()
            (cwd / "in.json").write_bytes(NON_ASCII.encode("utf-8"))
            done = run_in_locale(argv, utf8, cwd)
            assert (done.returncode, done.stderr) == (0, b""), utf8
            outputs[utf8] = [done.stdout] + [(cwd / name).read_bytes() for name in written]
        assert outputs[False] == outputs[True]
        assert "\u00e9".encode("utf-8") in b"".join(outputs[True])

    def test_a_rule_argument_that_is_not_utf8_is_refused(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_bytes(NON_ASCII.encode("utf-8"))
        # the byte 0xff of an argument, as Python keeps it when it decodes argv
        assert main(["apply", "--rules", str(path), "--host", str(path),
                     "--rule", "cl\udcff", "--match", "0"]) == 2
        assert capsys.readouterr().err == "invalid input: --rule 'cl\\udcff' is not UTF-8\n"

    def test_main_writes_utf8_to_whatever_stdout_it_is_given(self, tmp_path, monkeypatch):
        """In process, as a library caller or the benchmark calls it: a
        UTF-8 stream, an ASCII one and a text-only one all get one text."""
        path = tmp_path / "in.json"
        path.write_bytes(NON_ASCII.encode("utf-8"))
        argv = ["run", "--rules", str(path), "--host", str(path), "--steps", "1"]
        printed = []
        for stream in (io.TextIOWrapper(io.BytesIO(), encoding="utf-8"),
                       io.TextIOWrapper(io.BytesIO(), encoding="ascii"), io.StringIO()):
            monkeypatch.setattr(sys, "stdout", stream)
            assert main(argv) == 0
            stream.flush()
            printed.append(stream.buffer.getvalue().decode("utf-8")
                           if hasattr(stream, "buffer") else stream.getvalue())
        assert printed[1] == printed[0] == printed[2]
        assert "matches {cl\u00e9: 1}" in printed[0]
