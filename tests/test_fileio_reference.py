"""The system-file writer and graph loader against the code they replaced.

The writer fills each node and edge record into a fixed text template.  The
reference builds the whole file as nested dicts and lists and hands it to
`json.dumps(data, indent=2)`, as `save_graph` and `save_system` once did;
both must give the same bytes.

The loader tests each condition inline and formats its message only when it
refuses.  The reference is the `_parse_graph` and `_parse_label` that built
every message up front; on mutated and hand-made files both must give an
equal `SystemSpec`, or the same exception type and message.
"""

import json
import random

import pytest

from weakspan import (
    AlgebraMorphism,
    AttrMorphism,
    AttributedGraph,
    FiniteEnum,
    Graph,
    HexGridSpec,
    LabelSet,
    Lit,
    NatPlus,
    OpApp,
    SortSignature,
    SystemSpec,
    TermAlg,
    Var,
    WeakSpan,
    fibonacci_system,
    hex_system,
    save_graph,
    save_system,
)
from weakspan import fileio
from weakspan.algebras import Algebra, TermSyntaxError, parse_term, render_value, value_sort_key
from weakspan.constructions import identity_morphism
from weakspan.fileio import ParseError, ValidationError, loads_system

from randgen import random_host, random_instance
from test_fuzz import _mutate


# ---------------------------------------------------------------- the writer

def _signature_json(signature):
    return {"nodes": sorted(signature.node_sorts),
            "edges": {name: list(signature.edge_sorts[name])
                      for name in sorted(signature.edge_sorts)}}


def _algebra_json(algebra):
    if isinstance(algebra, NatPlus):
        return "nat"
    if isinstance(algebra, FiniteEnum):
        return {"enum": sorted(algebra.values)}
    return {"terms": sorted(algebra.variables)}


def _label_json(v):
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        return v
    return render_value(v)


def _graph_json(graph):
    nodes = [{"id": n, "sort": graph.graph.nodes[n],
              "label": [_label_json(v) for v in sorted(graph.label(n), key=value_sort_key)]}
             for n in sorted(graph.graph.nodes)]
    edges = [{"id": e, "sort": graph.graph.edges[e][0],
              "src": graph.graph.edges[e][1], "tgt": graph.graph.edges[e][2],
              "label": [_label_json(v) for v in sorted(graph.label(e), key=value_sort_key)]}
             for e in sorted(graph.graph.edges)]
    return {"nodes": nodes, "edges": edges}


def _map_json(m):
    return {"nodes": {k: m.sigma.node_map[k] for k in sorted(m.sigma.node_map)},
            "edges": {k: m.sigma.edge_map[k] for k in sorted(m.sigma.edge_map)}}


def _rule_json(rule):
    out = {"name": rule.name}
    if isinstance(rule.algebra, TermAlg):
        out["variables"] = sorted(rule.algebra.variables)
    for tag in ("L", "K", "I", "R"):
        out[tag] = _graph_json(getattr(rule, tag))
    out["l"] = _map_json(rule.l)
    out["i"] = _map_json(rule.i)
    out["r"] = _map_json(rule.r)
    return out


def reference_graph_text(graph):
    data = {"sorts": _signature_json(graph.graph.signature),
            "algebra": _algebra_json(graph.algebra)}
    data.update(_graph_json(graph))
    return json.dumps(data, indent=2) + "\n"


def reference_system_text(system):
    data = {"sorts": _signature_json(system.signature),
            "algebra": _algebra_json(system.algebra),
            "rules": [_rule_json(rule) for rule in system.rules]}
    if system.host is not None:
        data["host"] = _graph_json(system.host)
    return json.dumps(data, indent=2) + "\n"


def assert_same_bytes(system, tmp_path):
    path = tmp_path / "written.json"
    save_system(system, path)
    assert path.read_bytes() == reference_system_text(system).encode("ascii")
    graphs = [system.host] if system.host is not None else []
    graphs += [getattr(rule, tag) for rule in system.rules for tag in ("L", "K", "I", "R")]
    for graph in graphs:
        save_graph(graph, path)
        assert path.read_bytes() == reference_graph_text(graph).encode("ascii")


ODD_IDS = ('q"uote', "back\\slash", "nïve", "snow☃man", "face\U0001F600",
           "tab\tnew\nline", "del\x7f", "", "plain")


def odd_system():
    """Sorts, ids and enumerated values that need escaping, and empty label lists."""
    signature = SortSignature(["sört", 'q"'], {"\\e": ("sört", 'q"')})
    algebra = FiniteEnum(["väl", 'x"y', "a\\b", "\U0001F600", "1"])
    nodes = {n: "sört" for n in ODD_IDS}
    nodes['q"node'] = 'q"'
    edges = {f"{n}→": ("\\e", n, 'q"node') for n in ODD_IDS}
    values = sorted(algebra.values)
    labeling = {x: LabelSet(values[:k % (len(values) + 1)])
                for k, x in enumerate([*nodes, *edges])}
    host = AttributedGraph(Graph(signature, nodes, edges), algebra, labeling)
    return SystemSpec(signature=signature, algebra=algebra, host=host)


def term_rule_system():
    """A nat host and one rule with variables, literals and sums in its labels."""
    signature = SortSignature(["p"], {"a": ("p", "p")})
    terms = TermAlg(("u", "v"))
    u, v = Var("u"), Var("v")
    shape = Graph(signature, {"x": "p", "y": "p"}, {"e": ("a", "x", "y")})
    left = AttributedGraph(shape, terms, {"x": [u, Lit(3)], "y": [v], "e": [Lit(0)]})
    kept = AttributedGraph(shape, terms, {"x": [u], "y": [v]})
    total = OpApp("+", (u, OpApp("+", (v, Lit(2)))))
    right = AttributedGraph(shape, terms, {"x": [u], "y": [v, total]})
    arrow = identity_morphism(shape)
    ident = AlgebraMorphism.identity(terms)
    rule = WeakSpan(name='r"üle', L=left, K=kept, I=kept, R=right,
                    l=AttrMorphism(kept, left, arrow, ident),
                    i=AttrMorphism(kept, kept, arrow, ident),
                    r=AttrMorphism(kept, right, arrow, ident))
    host = AttributedGraph(shape, NatPlus(), {"x": [0, 12, 3], "y": [7]})
    return SystemSpec(signature=signature, algebra=NatPlus(), rules=[rule], host=host)


def random_rule_system(seed):
    """A random nat host and up to three random rules traced from it."""
    rng = random.Random(seed)
    host = random_host(rng, max_elements=rng.randint(1, 7))
    rules = [random_instance(rng, host, name=f"r{k}").rule for k in range(rng.randint(1, 3))]
    return SystemSpec(signature=host.graph.signature, algebra=host.algebra,
                      rules=rules, host=host)


class TestWriterAgainstJsonDumps:
    def test_empty_graphs(self, tmp_path):
        signature = SortSignature([], {})
        for algebra in (NatPlus(), FiniteEnum([])):
            empty = AttributedGraph(Graph(signature, {}, {}), algebra)
            assert_same_bytes(SystemSpec(signature=signature, algebra=algebra, host=empty),
                              tmp_path)
            assert_same_bytes(SystemSpec(signature=signature, algebra=algebra), tmp_path)

    def test_ids_sorts_and_values_that_need_escaping(self, tmp_path):
        system = odd_system()
        assert_same_bytes(system, tmp_path)
        text = (tmp_path / "written.json").read_text(encoding="ascii")
        assert "\\u00ef" in text and "\\ud83d\\ude00" in text and "\\\\e" in text

    def test_term_labels_and_variables(self, tmp_path):
        assert_same_bytes(term_rule_system(), tmp_path)

    @pytest.mark.parametrize("system", [
        fibonacci_system(),
        hex_system(HexGridSpec(radius=2, seeds=((1, 0), (0, 0)))),
        hex_system(HexGridSpec(radius=8)),
    ], ids=["fib", "hex-2", "hex-8"])
    def test_presets(self, system, tmp_path):
        assert_same_bytes(system, tmp_path)

    def test_random_rules_that_add_and_delete_nodes_and_edges(self, tmp_path):
        changes = set()
        for seed in range(60):
            system = random_rule_system(seed)
            assert_same_bytes(system, tmp_path)
            for rule in system.rules:
                for kind in ("nodes", "edges"):
                    if getattr(rule.L.graph, kind).keys() - getattr(rule.K.graph, kind).keys():
                        changes.add(f"deletes {kind}")
                    if getattr(rule.R.graph, kind).keys() - getattr(rule.I.graph, kind).keys():
                        changes.add(f"adds {kind}")
        assert changes == {"deletes nodes", "deletes edges", "adds nodes", "adds edges"}


# ---------------------------------------------------------------- the loader

def _require(cond, message):
    if not cond:
        raise ValidationError(message)


def _list_field(data, key, where):
    value = data.get(key, [])
    _require(isinstance(value, list), f"{where}: {key!r} must be a list")
    return value


def reference_parse_label(raw, algebra: Algebra, where: str):
    if isinstance(algebra, NatPlus):
        _require(isinstance(raw, int) and not isinstance(raw, bool) and raw >= 0,
                 f"{where}: natural-number label expected, got {raw!r}")
        return raw
    if isinstance(algebra, FiniteEnum):
        value = str(raw)
        _require(algebra.contains(value), f"{where}: label {raw!r} is not an enumerated value")
        return value
    if isinstance(raw, int):
        return Lit(raw)
    try:
        term = parse_term(str(raw))
    except TermSyntaxError as exc:
        raise ParseError(f"{where}: {exc}") from None
    _require(algebra.contains(term), f"{where}: term {raw!r} uses undeclared symbols")
    return term


def reference_parse_graph(data, signature, algebra, where):
    _require(isinstance(data, dict), f"{where} must be an object")
    nodes = {}
    edges = {}
    labeling = {}
    for entry in _list_field(data, "nodes", where):
        _require(isinstance(entry, dict) and "id" in entry and "sort" in entry,
                 f"{where}: node needs 'id' and 'sort'")
        nid = str(entry["id"])
        _require(nid not in nodes, f"{where}: duplicate node id {nid!r}")
        _require(isinstance(entry["sort"], str), f"{where}: node {nid!r} needs a sort name")
        nodes[nid] = entry["sort"]
        labeling[nid] = [reference_parse_label(v, algebra, f"{where} node {nid!r}")
                         for v in _list_field(entry, "label", f"{where} node {nid!r}")]
    for entry in _list_field(data, "edges", where):
        _require(isinstance(entry, dict), f"{where}: edge must be an object")
        for key in ("id", "sort", "src", "tgt"):
            _require(key in entry, f"{where}: edge needs {key!r}")
        eid = str(entry["id"])
        _require(isinstance(entry["sort"], str), f"{where}: edge {eid!r} needs a sort name")
        _require(eid not in edges, f"{where}: duplicate edge id {eid!r}")
        _require(str(entry["src"]) in nodes,
                 f"{where}: edge {eid!r} names unknown source node {entry['src']!r}")
        _require(str(entry["tgt"]) in nodes,
                 f"{where}: edge {eid!r} names unknown target node {entry['tgt']!r}")
        edges[eid] = (entry["sort"], str(entry["src"]), str(entry["tgt"]))
        labeling[eid] = [reference_parse_label(v, algebra, f"{where} edge {eid!r}")
                         for v in _list_field(entry, "label", f"{where} edge {eid!r}")]
    try:
        graph = Graph(signature, nodes, edges)
        return AttributedGraph(graph, algebra, labeling)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _outcome(text):
    try:
        return loads_system(text, source="case.json")
    except Exception as exc:  # compared by type and message, whatever it is
        return type(exc), str(exc)


def assert_loads_agree(text, monkeypatch):
    got = _outcome(text)
    with monkeypatch.context() as patch:
        patch.setattr(fileio, "_parse_graph", reference_parse_graph)
        want = _outcome(text)
    assert got == want
    return got


NAT_HOST = {"sorts": {"nodes": ["p", "q"], "edges": {"a": ["p", "p"], "b": ["p", "q"]}},
            "algebra": "nat"}
ENUM_HOST = {**NAT_HOST, "algebra": {"enum": ["0", "1"]}}


def _host(base, nodes=None, edges=None, **extra):
    graph = {"nodes": [{"id": "x", "sort": "p", "label": [1]}, {"id": "y", "sort": "q"}]
             if nodes is None else nodes,
             "edges": [{"id": "e", "sort": "b", "src": "x", "tgt": "y"}]
             if edges is None else edges,
             **extra}
    return {**base, "host": graph}


def _rule_labels(labels):
    """A one-node rule with variables u, v whose left side carries `labels`."""
    node = {"id": "x", "sort": "p", "label": ["u"]}
    return {**NAT_HOST, "rules": [{
        "name": "t", "variables": ["u", "v"],
        "L": {"nodes": [{"id": "x", "sort": "p", "label": ["u", "v", *labels]}]},
        "K": {"nodes": [node]}, "I": {"nodes": [node]}, "R": {"nodes": [node]},
        "l": {"nodes": {"x": "x"}}, "i": {"nodes": {"x": "x"}}, "r": {"nodes": {"x": "x"}},
    }]}


REFUSALS = {
    "graph not an object": {**NAT_HOST, "host": [1]},
    "nodes not a list": _host(NAT_HOST, nodes={"x": 1}),
    "node not an object": _host(NAT_HOST, nodes=["x"]),
    "node without id": _host(NAT_HOST, nodes=[{"sort": "p"}]),
    "node without sort": _host(NAT_HOST, nodes=[{"id": "x"}]),
    "duplicate node id": _host(NAT_HOST, nodes=[{"id": 1, "sort": "p"}, {"id": "1", "sort": "p"}],
                               edges=[]),
    "node sort not a name": _host(NAT_HOST, nodes=[{"id": "x", "sort": ["p"]}]),
    "node label not a list": _host(NAT_HOST, nodes=[{"id": "x", "sort": "p", "label": 1}]),
    "negative nat label": _host(NAT_HOST, nodes=[{"id": "x", "sort": "p", "label": [-1]}]),
    "boolean nat label": _host(NAT_HOST, nodes=[{"id": "x", "sort": "p", "label": [True]}]),
    "text nat label": _host(NAT_HOST, nodes=[{"id": "x", "sort": "p", "label": ["1"]}]),
    "enum label outside": _host(ENUM_HOST, nodes=[{"id": "x", "sort": "p", "label": ["2"]}]),
    "enum label on an edge": _host(ENUM_HOST, nodes=[{"id": "x", "sort": "p"},
                                                     {"id": "y", "sort": "q"}],
                                   edges=[{"id": "e", "sort": "b", "src": "x", "tgt": "y",
                                           "label": [None]}]),
    "term syntax": _rule_labels(["u+"]),
    "term with an undeclared variable": _rule_labels(["w"]),
    "edges not a list": _host(NAT_HOST, edges="e"),
    "edge not an object": _host(NAT_HOST, edges=[["e"]]),
    **{f"edge without {key}": _host(NAT_HOST, edges=[{
        k: v for k, v in {"id": "e", "sort": "b", "src": "x", "tgt": "y"}.items() if k != key}])
       for key in ("id", "sort", "src", "tgt")},
    "edge sort not a name": _host(NAT_HOST, edges=[{"id": "e", "sort": 2, "src": "x", "tgt": "y"}]),
    "edge without src and tgt": _host(NAT_HOST, edges=[{"id": "e", "sort": "b"}]),
    "repeated edge id with a bad sort": _host(NAT_HOST, edges=[
        {"id": "e", "sort": "b", "src": "x", "tgt": "y"},
        {"id": "e", "sort": 2, "src": "x", "tgt": "y"}]),
    "repeated node id with a bad sort": _host(NAT_HOST, nodes=[
        {"id": "x", "sort": "p"}, {"id": "x", "sort": 2}], edges=[]),
    "unknown source and target": _host(NAT_HOST, edges=[
        {"id": "e", "sort": "b", "src": "z", "tgt": "w"}]),
    "duplicate edge id": _host(NAT_HOST,
                               edges=[{"id": "e", "sort": "b", "src": "x", "tgt": "y"}] * 2),
    "unknown source": _host(NAT_HOST, edges=[{"id": "e", "sort": "b", "src": ["x"], "tgt": "y"}]),
    "unknown target": _host(NAT_HOST, edges=[{"id": "e", "sort": "b", "src": "x", "tgt": "z"}]),
    "edge label not a list": _host(NAT_HOST, edges=[{"id": "e", "sort": "b", "src": "x",
                                                     "tgt": "y", "label": {}}]),
    "undeclared node sort": _host(NAT_HOST, nodes=[{"id": "x", "sort": "r"}], edges=[]),
    "endpoint sorts": _host(NAT_HOST, edges=[{"id": "e", "sort": "a", "src": "x", "tgt": "y"}]),
    "node and edge share an id": _host(NAT_HOST, edges=[{"id": "x", "sort": "b", "src": "x",
                                                         "tgt": "y"}]),
}

ACCEPTED = {
    "nat labels": _host(NAT_HOST, nodes=[{"id": "x", "sort": "p", "label": [0, 5, 5]},
                                         {"id": 7, "sort": "q", "label": []}],
                        edges=[{"id": 9, "sort": "b", "src": "x", "tgt": 7, "label": [2]}]),
    "enum labels written as numbers": _host(ENUM_HOST, nodes=[{"id": "x", "sort": "p",
                                                               "label": [1, "0"]},
                                                              {"id": "y", "sort": "q"}]),
    "term labels with literals and sums": _rule_labels([4, "u+v", "(u+2)+v"]),
    "a file that is only a host graph": {**NAT_HOST, "nodes": [{"id": "x", "sort": "p"}]},
}


class TestLoaderAgainstReference:
    @pytest.mark.parametrize("name", sorted(REFUSALS))
    def test_each_refusal_site(self, name, monkeypatch):
        got = assert_loads_agree(json.dumps(REFUSALS[name]), monkeypatch)
        assert isinstance(got, tuple) and got[0] in (ParseError, ValidationError), got

    @pytest.mark.parametrize("name", sorted(ACCEPTED))
    def test_accepted_files(self, name, monkeypatch):
        got = assert_loads_agree(json.dumps(ACCEPTED[name]), monkeypatch)
        assert isinstance(got, SystemSpec), got

    def test_mutated_presets(self, monkeypatch, tmp_path):
        texts = []
        for system in (fibonacci_system(), hex_system(HexGridSpec(radius=2)), term_rule_system(),
                       odd_system()):
            path = tmp_path / "preset.json"
            save_system(system, path)
            texts.append(path.read_text())
        rng = random.Random(20190418)
        kinds = {}
        for _ in range(400):
            text = json.dumps(_mutate(json.loads(rng.choice(texts)), rng))
            got = assert_loads_agree(text, monkeypatch)
            kind = "loaded" if isinstance(got, SystemSpec) else got[0].__name__
            kinds[kind] = kinds.get(kind, 0) + 1
        assert kinds.get("loaded", 0) >= 10 and kinds.get("ValidationError", 0) >= 200, kinds
