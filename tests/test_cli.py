import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from weakspan import LabelSet, cmd_run, live_cells, load_system, save_system
from weakspan.cli import main
from weakspan.hexgrid import MAX_RADIUS
from weakspan.rewriting import MAX_LEFT_SIZE

from randgen import random_system

# Python 3.11 refuses to convert integers past a digit limit to and from
# decimal text; earlier interpreters may have no limit
DIGIT_LIMITED = pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                                   reason="the interpreter converts integers of any length")

P_SIG = {"nodes": ["p"], "edges": {"a": ["p", "p"]}}

DANGLING = {
    "sorts": P_SIG,
    "algebra": "nat",
    "rules": [{
        "name": "delete",
        "L": {"nodes": [{"id": "a0", "sort": "p"}]},
        "K": {"nodes": []},
        "I": {"nodes": []},
        "R": {"nodes": []},
        "l": {}, "i": {}, "r": {},
    }],
    "host": {
        "nodes": [{"id": "n1", "sort": "p"}, {"id": "n2", "sort": "p"}],
        "edges": [{"id": "e", "sort": "a", "src": "n1", "tgt": "n2"}],
    },
}

def _touching_rule(name, keeps_label):
    kept = [{"id": "x", "sort": "p", "label": ["u"] if keeps_label else []}]
    return {
        "name": name,
        "variables": ["u"],
        "L": {"nodes": [{"id": "x", "sort": "p", "label": ["u"]}]},
        "K": {"nodes": kept},
        "I": {"nodes": kept},
        "R": {"nodes": kept},
        "l": {"nodes": {"x": "x"}},
        "i": {"nodes": {"x": "x"}},
        "r": {"nodes": {"x": "x"}},
    }

CLASHING = {
    "sorts": {"nodes": ["p"], "edges": {}},
    "algebra": "nat",
    "rules": [_touching_rule("erase", False), _touching_rule("keep", True)],
    "host": {"nodes": [{"id": "x", "sort": "p", "label": [5]}]},
}

# CLASHING behind a rule whose two matches both fail to glue: the clashing
# applications are positions 0 and 1 of the step, and matches 2 and 3
CUT_FIRST = {
    "sorts": {"nodes": ["p", "q"], "edges": {"a": ["q", "q"]}},
    "algebra": "nat",
    "rules": [{"name": "cut", "L": {"nodes": [{"id": "c", "sort": "q"}]},
               "K": {"nodes": []}, "I": {"nodes": []}, "R": {"nodes": []},
               "l": {}, "i": {}, "r": {}},
              *CLASHING["rules"]],
    "host": {"nodes": [{"id": "x", "sort": "p", "label": [5]},
                       {"id": "n1", "sort": "q"}, {"id": "n2", "sort": "q"}],
             "edges": [{"id": "e", "sort": "a", "src": "n1", "tgt": "n2"}]},
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    fib = root / "fib.json"
    assert main(["preset", "fib", "--out", str(fib)]) == 0
    (root / "dangling.json").write_text(json.dumps(DANGLING))
    (root / "clash.json").write_text(json.dumps(CLASHING))
    (root / "cut_first.json").write_text(json.dumps(CUT_FIRST))
    (root / "broken.json").write_text("{nope")
    return root


def labels_of(path):
    host = load_system(path).host
    return {x: host.label(x) for x in host.graph.nodes}


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == 1
        assert "a command is required" in capsys.readouterr().err

    def test_unknown_option(self, capsys):
        assert main(["hexca", "--radius", "2", "--generations", "1", "--frob"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_bad_seed(self, capsys):
        assert main(["hexca", "--radius", "3", "--generations", "1",
                     "--seed", "northwest"]) == 1
        assert "expected Q,R integers" in capsys.readouterr().err

    def test_bad_match_list(self, files, capsys):
        fib = str(files / "fib.json")
        assert main(["pct", "--rules", fib, "--host", fib, "--matches", "0;1"]) == 1
        assert "comma-separated integers" in capsys.readouterr().err

    def test_preset_needs_out(self, capsys):
        assert main(["preset", "fib"]) == 1
        assert "requires --out" in capsys.readouterr().err

    def test_negative_steps(self, files, capsys):
        fib = str(files / "fib.json")
        assert main(["run", "--rules", fib, "--host", fib, "--steps", "-1"]) == 1
        assert "nonnegative" in capsys.readouterr().err

    def test_negative_steps_is_refused_before_any_file_is_opened(self, tmp_path, capsys):
        absent = str(tmp_path / "absent.json")
        assert main(["run", "--rules", absent, "--host", absent, "--steps", "-1"]) == 1
        assert "nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code, stream, text", [
        (["--help"], 0, "stdout", "usage: weakspan"),
        (["hexca", "--frob"], 1, "stderr", "usage error"),
    ])
    def test_python_dash_m_runs_the_command_line(self, argv, code, stream, text):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "weakspan", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == code
        assert text in getattr(done, stream)


class TestInputErrors:
    def test_missing_file(self, files, capsys):
        fib = str(files / "fib.json")
        assert main(["match", "--rules", fib, "--host", str(files / "nope.json")]) == 2
        assert "missing file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["run", "--steps", "1"], ["match"], ["pct"]])
    def test_duplicate_rule_names_are_refused(self, files, tmp_path, capsys, command):
        # step reports and match listings are keyed by rule name
        data = json.loads((files / "fib.json").read_text())
        data["rules"][1]["name"] = "shift"
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(data))
        assert main([command[0], "--rules", str(path), "--host", str(path), *command[1:]]) == 2
        assert capsys.readouterr().err == \
            f"invalid input: {path}: duplicate rule name 'shift'\n"

    def test_broken_json(self, files, capsys):
        bad = str(files / "broken.json")
        assert main(["match", "--rules", bad, "--host", bad]) == 2
        assert "invalid input" in capsys.readouterr().err

    def test_an_integer_past_the_digit_limit_names_the_file(self, files, tmp_path, capsys):
        data = json.loads((files / "fib.json").read_text())
        data["host"]["nodes"][0]["label"] = ["HUGE"]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data).replace('"HUGE"', "9" * 5000))
        assert main(["run", "--rules", str(path), "--host", str(path), "--steps", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"invalid input: {path}: Exceeds the limit (4300 digits) for integer string "
            "conversion")

    @DIGIT_LIMITED
    def test_a_term_literal_past_the_digit_limit_names_the_rule_and_element(
            self, files, tmp_path, capsys):
        digits = sys.get_int_max_str_digits() + 1
        data = json.loads((files / "fib.json").read_text())
        total = next(rule for rule in data["rules"] if rule["name"] == "sum")
        y = next(node for node in total["R"]["nodes"] if node["id"] == "y")
        y["label"] = ["u+" + "9" * digits]
        path = tmp_path / "long-literal.json"
        path.write_text(json.dumps(data))
        assert main(["match", "--rules", str(path), "--host", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"invalid input: {path}: rule 'sum' R node 'y': literal of {digits} digits "
            "is too long to read\n")

    @DIGIT_LIMITED
    def test_a_label_too_long_to_write_is_refused_before_the_file_is_written(
            self, files, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        data = json.loads((files / "fib.json").read_text())
        for node in data["host"]["nodes"]:
            node["label"] = ["NINES"]
        path = tmp_path / "nines.json"
        path.write_text(json.dumps(data).replace('"NINES"', "9" * limit))
        out = tmp_path / "out.json"
        # the joint step writes x + y, twice the largest value that loads, on y
        assert main(["pct", "--rules", str(path), "--host", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"invalid input: label set {{<integer of {limit + 1} digits>}} on element 'y' "
            "holds a value too long to write\n")
        assert not out.exists()

    def test_a_boolean_term_label_exits_with_code_2(self, files, tmp_path, capsys):
        data = json.loads((files / "fib.json").read_text())
        shift = next(rule for rule in data["rules"] if rule["name"] == "shift")
        x = next(node for node in shift["L"]["nodes"] if node["id"] == "x")
        x["label"] = [True]
        path = tmp_path / "boolean.json"
        path.write_text(json.dumps(data))
        assert main(["run", "--rules", str(path), "--host", str(path), "--steps", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"invalid input: {path}: rule 'shift' L node 'x': term label expected, got True\n"

    @pytest.mark.parametrize("command", [
        ["match", "--rules", "{dir}", "--host", "{fib}"],
        ["match", "--rules", "{fib}", "--host", "{dir}"],
        ["preset", "fib", "--out", "{dir}"],
    ])
    def test_a_directory_path_exits_with_code_2(self, command, files, tmp_path, capsys):
        argv = [arg.format(dir=tmp_path, fib=files / "fib.json") for arg in command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot open file: ")
        assert str(tmp_path) in err

    def test_a_rule_refusal_names_the_rule_once(self, files, tmp_path, capsys):
        data = json.loads((files / "fib.json").read_text())
        shift = next(rule for rule in data["rules"] if rule["name"] == "shift")
        shift["variables"] = [*shift["variables"], "zz"]
        path = tmp_path / "unused.json"
        path.write_text(json.dumps(data))
        assert main(["match", "--rules", str(path), "--host", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"invalid input: {path}: rule 'shift': declared variables ['zz'] "
            "do not occur in the left side\n")

    def test_a_refusal_names_the_file_it_comes_from(self, files, tmp_path, capsys):
        fib = files / "fib.json"
        data = json.loads(fib.read_text())
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"sorts": data["sorts"], "algebra": data["algebra"],
                                     "nodes": [{"id": "x", "sort": "q"}]}))
        for _ in range(2):   # the second load of fib.json shares its rules
            assert main(["match", "--rules", str(fib), "--host", str(other)]) == 2
            assert capsys.readouterr().err == \
                f"invalid input: {other}: host: node 'x' has undeclared sort 'q'\n"

    def test_host_file_without_a_graph(self, files, tmp_path, capsys):
        no_host = {k: v for k, v in DANGLING.items() if k != "host"}
        path = tmp_path / "rules-only.json"
        path.write_text(json.dumps(no_host))
        assert main(["match", "--rules", str(path), "--host", str(path)]) == 2
        assert "no host graph found" in capsys.readouterr().err

    def test_rules_file_without_rules(self, files, tmp_path, capsys):
        fib = str(files / "fib.json")
        bare = tmp_path / "bare.json"
        assert main(["match", "--rules", fib, "--host", fib,
                     "--out", str(bare)]) == 0
        capsys.readouterr()
        assert main(["match", "--rules", str(bare), "--host", str(bare)]) == 2
        assert "no rules found" in capsys.readouterr().err

    def test_signature_mismatch(self, files, tmp_path, capsys):
        hexfile = tmp_path / "hex.json"
        assert main(["preset", "hex", "--radius", "2", "--out", str(hexfile)]) == 0
        capsys.readouterr()
        fib = str(files / "fib.json")
        assert main(["match", "--rules", fib, "--host", str(hexfile)]) == 2
        assert "declare different sorts" in capsys.readouterr().err

    def test_unknown_rule_name(self, files, capsys):
        fib = str(files / "fib.json")
        assert main(["apply", "--rules", fib, "--host", fib,
                     "--rule", "frobnicate", "--match", "0"]) == 2
        assert "no rule named 'frobnicate'" in capsys.readouterr().err

    def test_match_index_out_of_range(self, files, capsys):
        fib = str(files / "fib.json")
        assert main(["apply", "--rules", fib, "--host", fib,
                     "--rule", "sum", "--match", "7"]) == 2
        assert "index 7 is out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("command, code, out, err", [
        (["match"], 0, "2 matches\n[0] shift#0: x->x, y->y where u=a, v=b\n"
                       "[1] sum#0: x->x, y->y where u=a, v=b\n", ""),
        (["apply", "--rule", "shift", "--match", "0"], 0,
         "applied shift#0\ncontext: 3 elements\nresult: 3 elements\n", ""),
        (["pct"], 2, "", "invalid input: operation '+' is not interpreted "
                         "in the target algebra\n"),
        (["run", "--steps", "2", "--mode", "seq"], 2, "",
         "invalid input: operation '+' is not interpreted in the target algebra\n"),
    ], ids=["match", "apply-shift", "pct", "run-seq"])
    def test_a_sum_has_no_value_in_an_enumerated_host(self, files, tmp_path, capsys,
                                                      command, code, out, err):
        # the Fibonacci rules match registers holding enumerated values, and
        # "shift" copies one, but "sum" writes u+v, which no enumeration has
        host = tmp_path / "enum-host.json"
        host.write_text(json.dumps({
            "sorts": {"nodes": ["reg"], "edges": {"next": ["reg", "reg"]}},
            "algebra": {"enum": ["a", "b"]},
            "nodes": [{"id": "x", "sort": "reg", "label": ["a"]},
                      {"id": "y", "sort": "reg", "label": ["b"]}],
            "edges": [{"id": "e", "sort": "next", "src": "x", "tgt": "y"}]}))
        fib = str(files / "fib.json")
        assert main([*command, "--rules", fib, "--host", str(host)]) == code
        assert capsys.readouterr() == (out, err)

    def test_pct_index_out_of_range(self, files, capsys):
        fib = str(files / "fib.json")
        assert main(["pct", "--rules", fib, "--host", fib, "--matches", "0,9"]) == 2
        assert "match index 9 out of range" in capsys.readouterr().err

    def test_pct_repeated_index(self, files, capsys):
        fib = str(files / "fib.json")
        assert main(["pct", "--rules", fib, "--host", fib, "--matches", "1,0,1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid input: match index 1 is repeated in --matches\n"

    def test_hexca_margin_violation(self, capsys):
        assert main(["hexca", "--radius", "2", "--generations", "2"]) == 2
        assert "invalid input" in capsys.readouterr().err

    def test_hexca_margin_counts_the_seed_distance(self, capsys):
        # births from (2, 1) reach the rim of a radius-8 disk in generation 6
        assert main(["hexca", "--radius", "8", "--generations", "7", "--seed", "2,1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "invalid input: margin violation: radius 8 cannot host 7 generations from seeds"
            " up to distance 2 of the centre; need radius >= seed distance + generations"
            " + 1 = 10\n")
        assert main(["hexca", "--radius", "10", "--generations", "7", "--seed", "2,1"]) == 0
        assert "live counts: [1, 7, 13, 31, 37, 55, 85, 127]" in capsys.readouterr().out


class TestGluingAndCoherenceFailures:
    def test_apply_reports_a_dangling_edge(self, files, capsys):
        path = str(files / "dangling.json")
        assert main(["apply", "--rules", path, "--host", path,
                     "--rule", "delete", "--match", "0"]) == 3
        err = capsys.readouterr().err
        assert "gluing failure" in err and "dangle" in err

    def test_strict_pct_fails_the_same_way(self, files, capsys):
        path = str(files / "dangling.json")
        assert main(["pct", "--rules", path, "--host", path, "--matches", "0"]) == 3
        assert "gluing failure" in capsys.readouterr().err

    def test_permissive_pct_skips_every_failure(self, files, tmp_path, capsys):
        path = str(files / "dangling.json")
        out = tmp_path / "same.json"
        assert main(["pct", "--rules", path, "--host", path,
                     "--all", "--out", str(out)]) == 0
        dangles = "edge 'e' would dangle: an endpoint is deleted but the edge is not"
        assert capsys.readouterr().out == (
            f"step 0 [pct] matches {{delete: 2}} gluing-skipped [delete@0: {dangles}; "
            f"delete@1: {dangles}] applied 0: fixpoint reached\n")
        assert load_system(out).host == load_system(path).host

    @pytest.mark.parametrize("mode, tag", [("pct", "@"), ("seq", "@")])
    def test_a_run_ends_at_a_step_that_applies_nothing(self, files, capsys, mode, tag):
        path = str(files / "dangling.json")
        assert main(["run", "--rules", path, "--host", path, "--steps", "3",
                     "--mode", mode]) == 0
        dangles = "edge 'e' would dangle: an endpoint is deleted but the edge is not"
        label = "pct" if mode == "pct" else "sequential"
        assert capsys.readouterr().out == (
            f"step 0 [{label}] matches {{delete: 2}} gluing-skipped [delete{tag}0: {dangles}; "
            f"delete{tag}1: {dangles}] applied 0: fixpoint reached\n"
            "1 steps; final graph has 3 elements\n")

    def test_incoherent_set(self, files, capsys):
        path = str(files / "clash.json")
        assert main(["pct", "--rules", path, "--host", path]) == 4
        err = capsys.readouterr().err
        assert "incoherent match set" in err and "'x'" in err
        assert "pair (1, 0) (rules 'keep' and 'erase') is not parallel coherent" in err

    @pytest.mark.parametrize("name, command, pair", [
        ("clash.json", ["pct", "--matches", "1,0"], (1, 0)),
        ("clash.json", ["pct", "--matches", "0,1"], (1, 0)),
        ("cut_first.json", ["pct"], (3, 2)),
        ("cut_first.json", ["pct", "--matches", "3,2"], (3, 2)),
        ("cut_first.json", ["run", "--steps", "1"], (3, 2)),
    ], ids=["out-of-order", "in-order", "after-gluing-skips", "chosen", "run"])
    def test_incoherent_pairs_are_named_by_match_index(self, files, capsys, name, command,
                                                       pair):
        path = str(files / name)
        assert main(["match", "--rules", path, "--host", path]) == 0
        listing = capsys.readouterr().out.splitlines()
        assert [listing[1 + k].split(":")[0] for k in pair] == [
            f"[{pair[0]}] keep#0", f"[{pair[1]}] erase#0"]
        assert main([command[0], "--rules", path, "--host", path, *command[1:]]) == 4
        assert capsys.readouterr().err == (
            f"incoherent match set: pair {pair} (rules 'keep' and 'erase') is not parallel "
            "coherent at element 'x': element 'x': mapped labels {5} not contained in {} "
            "at 'x'\n")


class TestMatchListing:
    def test_fibonacci_matches(self, files, capsys):
        fib = str(files / "fib.json")
        assert main(["match", "--rules", fib, "--host", fib]) == 0
        assert capsys.readouterr().out == (
            "2 matches\n"
            "[0] shift#0: x->x, y->y where u=1, v=2\n"
            "[1] sum#0: x->x, y->y where u=1, v=2\n")

    def test_report_goes_to_a_file_when_asked(self, files, tmp_path, capsys):
        fib = str(files / "fib.json")
        report = tmp_path / "matches.txt"
        assert main(["match", "--rules", fib, "--host", fib,
                     "--report", str(report)]) == 0
        assert capsys.readouterr().out == ""
        assert report.read_text().startswith("2 matches\n")


class TestApply:
    def test_single_rule_application(self, files, tmp_path, capsys):
        fib = str(files / "fib.json")
        out = tmp_path / "after.json"
        assert main(["apply", "--rules", fib, "--host", fib,
                     "--rule", "sum", "--match", "0", "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            "applied sum#0\ncontext: 3 elements\nresult: 3 elements\n")
        assert labels_of(out) == {"x": LabelSet([1]), "y": LabelSet([3])}

    def test_the_context_is_counted_from_the_deletion_record(self, tmp_path, capsys):
        system = tmp_path / "delete.json"
        system.write_text(json.dumps({**DANGLING, "host": {
            "nodes": [{"id": "n1", "sort": "p"}, {"id": "n2", "sort": "p"}],
            "edges": [{"id": "e", "sort": "a", "src": "n2", "tgt": "n2"}]}}))
        assert main(["apply", "--rules", str(system), "--host", str(system),
                     "--rule", "delete", "--match", "0"]) == 0
        assert capsys.readouterr().out == \
            "applied delete#0\ncontext: 2 elements\nresult: 2 elements\n"

    def test_additions_are_named_by_the_match_index(self, tmp_path, capsys):
        point = {"nodes": [{"id": "x", "sort": "p"}]}
        grow = {"name": "grow", "L": point, "K": point, "I": point,
                "R": {"nodes": [{"id": "x", "sort": "p"}, {"id": "n", "sort": "p", "label": [1]}]},
                "l": {"nodes": {"x": "x"}}, "i": {"nodes": {"x": "x"}},
                "r": {"nodes": {"x": "x"}}}
        system = tmp_path / "grow.json"
        system.write_text(json.dumps({
            "sorts": P_SIG, "algebra": "nat", "rules": [grow],
            "host": {"nodes": [{"id": "a", "sort": "p"}, {"id": "b", "sort": "p"}]}}))
        out = tmp_path / "grown.json"
        assert main(["apply", "--rules", str(system), "--host", str(system),
                     "--rule", "grow", "--match", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().out.endswith("result: 3 elements\n")
        assert labels_of(out) == {"a": LabelSet(), "b": LabelSet(), "s0:1:n": LabelSet([1])}


class TestAdditionNames:
    def test_every_command_names_a_match_s_additions_by_its_global_index(self, tmp_path,
                                                                          capsys):
        # cut's two matches (0 and 1) fail to glue, so grow's second match is
        # global match 3, position 1 of the joint step and position 0 of
        # `pct --matches 3`
        point = {"nodes": [{"id": "x", "sort": "p"}]}
        grow = {"name": "grow", "L": point, "K": point, "I": point,
                "R": {"nodes": [{"id": "x", "sort": "p"}, {"id": "n", "sort": "p"}]},
                "l": {"nodes": {"x": "x"}}, "i": {"nodes": {"x": "x"}},
                "r": {"nodes": {"x": "x"}}}
        system = tmp_path / "cut-and-grow.json"
        system.write_text(json.dumps({**DANGLING, "rules": [*DANGLING["rules"], grow]}))
        both = ["--rules", str(system), "--host", str(system)]
        commands = {"apply": ["apply", *both, "--rule", "grow", "--match", "1"],
                    "pct": ["pct", *both, "--matches", "3"],
                    "run": ["run", *both, "--steps", "1"],
                    "seq": ["run", *both, "--steps", "1", "--mode", "seq"]}
        named = {}
        for name, command in commands.items():
            out = tmp_path / f"{name}.json"
            assert main([*command, "--out", str(out)]) == 0
            named[name] = {x for x in labels_of(out) if x.startswith("s0:3:")}
        capsys.readouterr()
        assert named == {name: {"s0:3:n"} for name in commands}


class TestPct:
    def test_all_matches_by_default(self, files, tmp_path, capsys):
        fib = str(files / "fib.json")
        out = tmp_path / "joint.json"
        assert main(["pct", "--rules", fib, "--host", fib, "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            "step 0 [pct] matches {shift: 1, sum: 1} "
            "coherence matrix 2x2 (4 witnesses) D' 3 elements, H' 3 elements\n")
        assert labels_of(out) == {"x": LabelSet([2]), "y": LabelSet([3])}

    def test_explicit_match_list_agrees(self, files, tmp_path, capsys):
        fib = str(files / "fib.json")
        out = tmp_path / "picked.json"
        assert main(["pct", "--rules", fib, "--host", fib,
                     "--matches", "0,1", "--out", str(out)]) == 0
        assert "matches {shift: 1, sum: 1}" in capsys.readouterr().out
        assert labels_of(out) == {"x": LabelSet([2]), "y": LabelSet([3])}

    def test_single_match_runs_just_that_rule(self, files, tmp_path, capsys):
        # the match counts are of every match found, as `pct --all` reports them
        fib = str(files / "fib.json")
        for index, labels in (("0", {"x": LabelSet([2]), "y": LabelSet([2])}),
                              ("1", {"x": LabelSet([1]), "y": LabelSet([3])})):
            out = tmp_path / f"only-{index}.json"
            assert main(["pct", "--rules", fib, "--host", fib,
                         "--matches", index, "--out", str(out)]) == 0
            assert capsys.readouterr().out == (
                "step 0 [pct] matches {shift: 1, sum: 1} "
                "coherence matrix 1x1 (1 witnesses) D' 3 elements, H' 3 elements\n")
            assert labels_of(out) == labels


class TestRun:
    def test_parallel_run(self, files, tmp_path, capsys):
        fib = str(files / "fib.json")
        out = tmp_path / "final.json"
        assert main(["run", "--rules", fib, "--host", fib, "--steps", "5",
                     "--mode", "pct", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "5 steps; final graph has 3 elements" in stdout
        assert stdout.count("[pct]") == 5
        assert labels_of(out) == {"x": LabelSet([13]), "y": LabelSet([21])}

    def test_sequential_run_reports_its_skips(self, files, tmp_path, capsys):
        fib = str(files / "fib.json")
        out = tmp_path / "seq.json"
        assert main(["run", "--rules", fib, "--host", fib, "--steps", "1",
                     "--mode", "seq", "--out", str(out)]) == 0
        assert "sum@1" in capsys.readouterr().out
        assert labels_of(out) == {"x": LabelSet([2]), "y": LabelSet([2])}

    def test_hex_run_bytes_are_pinned(self, tmp_path, capsys):
        # sha256 of the saved graph and the report as the iterated
        # limit/colimit construction wrote them; the one-pass step keeps both
        preset, out, report = (tmp_path / name for name in ("hex.json", "final.json", "report"))
        # the second call reuses the rules the first one loaded
        assert main(["preset", "hex", "--radius", "5", "--out", str(preset)]) == 0
        for _ in range(2):
            assert main(["run", "--rules", str(preset), "--host", str(preset), "--steps", "3",
                         "--mode", "pct", "--out", str(out), "--report", str(report)]) == 0
            assert capsys.readouterr().out.endswith("3 steps; final graph has 571 elements\n")
            assert [hashlib.sha256(path.read_bytes()).hexdigest() for path in (out, report)] == [
                "e33e149329078f715a077b4aa8d6754bf6d3c935417c28a72c252faaa363ca4d",
                "1dbd92a44f28963a5278e5656aa219f4e95860c32a653b13f132fc301cac36a1"]

    def test_repeated_calls_leave_no_garbage_for_the_collector(self, tmp_path, capsys):
        # a caller that runs `main` many times in one process (the benchmark
        # does) frees every object of a call when the call returns
        preset, out, report = (str(tmp_path / name)
                               for name in ("hex.json", "final.json", "report"))

        def calls():
            assert main(["preset", "hex", "--radius", "3", "--out", preset]) == 0
            assert main(["run", "--rules", preset, "--host", preset, "--steps", "2",
                         "--mode", "pct", "--out", out, "--report", report]) == 0

        calls()
        gc.collect()
        gc.disable()
        try:
            for _ in range(20):
                calls()
            assert gc.collect() == 0
        finally:
            gc.enable()
        capsys.readouterr()

    @pytest.mark.parametrize("preset, command, stdout, digests", [
        (["fib"], ["run", "--steps", "30", "--mode", "seq"],
         "30 steps; final graph has 3 elements\n",
         ["58326fe1ee0ef11baa763209acd4b157036655ada7a50ab0ec09a95431773036",
          "072cbb0ce6be39918ee7de3a7b0ac114a27574c4187a26b25b3cb30f277285f9"]),
        (["hex", "--radius", "6", "--seed", "0,0", "--seed", "2,-1"],
         ["run", "--steps", "3", "--mode", "seq"],
         "3 steps; final graph has 811 elements\n",
         ["46295d6afa679dde4e82030f45bb0536fb37bfcdd1d30cd4fab13eb544fecc44",
          "005892ff7c7f1a2037cc2f5ceabd372df4a695cac2a724a6ce66ddd0e441de4d"]),
        (["fib"], ["apply", "--rule", "shift", "--match", "0"], "",
         ["edfe1a506a60fb5e0c5e3ec33d0ea27adeba5bcf88ea0d12e561149106bff8a8",
          "8278206c6d6b8f18ade0f8b0eeeba815958183533061fc7359a179f9e80e86c0"]),
        (["fib"], ["apply", "--rule", "sum", "--match", "0"], "",
         ["8e9c93ec13d69ee5778e9a5e6a381057d324443b53b5046bf2dd62021a7d2943",
          "028c70b139992fcb2b60963f25ad2160a96314a90e5e55a855b3a60c43443a3d"]),
    ], ids=["seq-fib", "seq-hex", "apply-shift", "apply-sum"])
    def test_single_application_bytes_are_pinned(self, preset, command, stdout, digests,
                                                 tmp_path, capsys):
        # sha256 of the saved graph and the report as the per-match pushout
        # wrote them; the one-application parallel step keeps both
        system, out, report = (tmp_path / name for name in ("system.json", "final.json", "report"))
        # and again on a second call, which reuses the rules the first one loaded
        assert main(["preset", *preset, "--out", str(system)]) == 0
        capsys.readouterr()
        for _ in range(2):
            assert main([command[0], "--rules", str(system), "--host", str(system),
                         *command[1:], "--out", str(out), "--report", str(report)]) == 0
            assert capsys.readouterr().out == stdout
            assert [hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in (out, report)] == digests


class TestHexca:
    def test_counts_and_report(self, tmp_path, capsys):
        report = tmp_path / "growth.txt"
        assert main(["hexca", "--radius", "3", "--generations", "2",
                     "--report", str(report)]) == 0
        assert "live counts: [1, 7, 13]" in capsys.readouterr().out
        text = report.read_text()
        assert "generation 0: 1 live" in text
        assert "generation 2: 13 live" in text

    def test_final_grid_can_be_saved(self, tmp_path, capsys):
        out = tmp_path / "grid.json"
        assert main(["hexca", "--radius", "2", "--generations", "1",
                     "--seed", "0,0", "--out", str(out)]) == 0
        capsys.readouterr()
        host = load_system(out).host
        live = [x for x in host.graph.nodes if host.label(x) == LabelSet(["1"])]
        assert len(live) == 7


class TestNegativeSeeds:
    """A seed that starts with a minus reads like an option to argparse;
    ``--seed -1,-1`` must mean the same as ``--seed=-1,-1``."""

    def test_hexca(self, capsys):
        outputs = []
        for seeds in (["--seed", "-1,-1", "--seed", "-2,1"], ["--seed=-1,-1", "--seed=-2,1"]):
            assert main(["hexca", "--radius", "5", "--generations", "1", *seeds]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert "generation 0: 2 live" in outputs[0].out

    def test_preset(self, tmp_path, capsys):
        saved = []
        for seed in (["--seed", "-1,-1"], ["--seed=-1,-1"]):
            out = tmp_path / f"hex{len(saved)}.json"
            assert main(["preset", "hex", "--radius", "3", *seed, "--out", str(out)]) == 0
            saved.append(out.read_bytes())
        capsys.readouterr()
        assert saved[0] == saved[1]
        assert live_cells(load_system(tmp_path / "hex0.json").host) == {(-1, -1)}


@pytest.mark.parametrize("radius", [MAX_RADIUS + 1, 100000000])
@pytest.mark.parametrize("command", [["hexca", "--generations", "0"], ["preset", "hex"]],
                         ids=["hexca", "preset"])
def test_a_radius_past_the_bound_is_refused_before_any_cell_is_built(command, radius,
                                                                      tmp_path, capsys):
    out = tmp_path / "never.json"
    assert main([*command, "--radius", str(radius), "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"invalid input: radius {radius} exceeds the bound of {MAX_RADIUS}\n")
    assert not out.exists()


def _big_left_side(nodes, terms):
    """One rule whose left side is a chain of ``nodes`` nodes, its first
    node labelled by ``terms`` variables; the host is the same chain with
    its first node labelled 1."""
    left = {"nodes": [{"id": f"c{k}", "sort": "p"} for k in range(nodes)],
            "edges": [{"id": f"e{k}", "sort": "a", "src": f"c{k}", "tgt": f"c{k + 1}"}
                      for k in range(nodes - 1)]}
    host = json.loads(json.dumps(left))
    host["nodes"][0]["label"] = [1]
    left["nodes"][0]["label"] = [f"v{k}" for k in range(terms)]
    same = {part: {x["id"]: x["id"] for x in left[part]} for part in ("nodes", "edges")}
    rule = {"name": "big", "variables": [f"v{k}" for k in range(terms)],
            "L": left, "K": left, "I": left, "R": left, "l": same, "i": same, "r": same}
    return {"sorts": P_SIG, "algebra": "nat", "rules": [rule], "host": host}


@pytest.mark.parametrize("nodes, terms, what", [
    (MAX_LEFT_SIZE + 1, 0, "nodes"), (1, MAX_LEFT_SIZE + 1, "label terms")])
def test_a_left_side_past_the_bound_is_refused(nodes, terms, what, tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_big_left_side(nodes, terms)))
    assert main(["match", "--rules", str(path), "--host", str(path)]) == 2
    assert capsys.readouterr() == ("", (
        f"invalid input: {path}: rule 'big': left side has {MAX_LEFT_SIZE + 1} {what}, "
        f"more than the bound of {MAX_LEFT_SIZE}\n"))


@pytest.mark.parametrize("nodes, terms", [(MAX_LEFT_SIZE, 0), (1, MAX_LEFT_SIZE)])
def test_a_left_side_at_the_bound_matches(nodes, terms, tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_big_left_side(nodes, terms)))
    assert main(["match", "--rules", str(path), "--host", str(path)]) == 0
    assert capsys.readouterr().out.startswith("1 matches\n[0] big#0: c0->c0")


class TestExportAndPreset:
    def test_export_writes_dot(self, files, tmp_path, capsys):
        fib = str(files / "fib.json")
        dot = tmp_path / "fib.dot"
        assert main(["export", "--host", fib, "--dot", str(dot)]) == 0
        assert f"wrote {dot}" in capsys.readouterr().out
        assert dot.read_text().startswith("digraph weakspan {")

    def test_hex_preset_bundles_six_rules(self, tmp_path, capsys):
        path = tmp_path / "hex.json"
        assert main(["preset", "hex", "--radius", "2", "--seed", "1,0",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        spec = load_system(path)
        assert [r.name for r in spec.rules] == [f"birth{k}" for k in range(6)]
        assert len(spec.host.graph.nodes) == 19


class TestHashOrder:
    """Match candidates are tried in set order, which follows string hashes;
    the results are sorted, so no output may depend on PYTHONHASHSEED."""

    @pytest.fixture(scope="class")
    def systems(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("hash-order")
        assert main(["preset", "hex", "--radius", "5", "--seed", "0,0", "--seed", "2,-1",
                     "--out", str(root / "hex.json")]) == 0
        churn = random_system(118)   # its three steps delete and add elements
        history = cmd_run(churn, 3, "pct").history
        ids = [set(graph.element_ids()) for graph in history]
        assert any(a - b for a, b in zip(ids, ids[1:]))
        assert any(b - a for a, b in zip(ids, ids[1:]))
        save_system(churn, root / "churn.json")
        return root

    @pytest.mark.parametrize("mode", ["pct", "seq"])
    @pytest.mark.parametrize("name", ["hex", "churn"])
    def test_runs_are_byte_identical_under_two_hash_seeds(self, systems, name, mode, tmp_path):
        src = str(Path(__file__).resolve().parent.parent / "src")
        system = str(systems / f"{name}.json")
        outputs = []
        for hash_seed in ("1", "2"):
            out, report = tmp_path / f"out-{hash_seed}.json", tmp_path / f"report-{hash_seed}"
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            done = subprocess.run(
                [sys.executable, "-m", "weakspan", "run", "--rules", system, "--host", system,
                 "--steps", "3", "--mode", mode, "--out", str(out), "--report", str(report)],
                env=env, capture_output=True, timeout=120)
            outputs.append((done.returncode, done.stdout, done.stderr,
                            out.read_bytes(), report.read_bytes()))
        assert outputs[0][0] == 0
        assert outputs[0] == outputs[1]
