"""Reading and writing rule systems, graphs, and DOT exports."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .algebras import (EMPTY_LABELS, Algebra, AlgebraMorphism, FiniteEnum, LabelSet, Lit,
                       NatPlus, TermAlg, TermSyntaxError, Value, parse_term, render_term,
                       value_sort_key)
from .attrgraphs import AttrMorphism, AttributedGraph
from .graphs import Graph, GraphMorphism, SortSignature
from .rewriting import SystemSpec, WeakSpan


class ParseError(ValueError):
    """The file is not syntactically well formed."""


class ValidationError(ValueError):
    """The file parses but violates a structural invariant."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def _list_field(data: dict, key: str, where: str) -> list:
    value = data.get(key, [])
    if not isinstance(value, list):
        raise ValidationError(f"{where}: {key!r} must be a list")
    return value


def _is_names(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _parse_signature(data) -> SortSignature:
    _require(isinstance(data, dict), "'sorts' must be an object")
    _require(_is_names(data.get("nodes")), "'sorts' needs a 'nodes' list of names")
    _require(isinstance(data.get("edges"), dict), "'sorts' needs an 'edges' object")
    edges = {}
    for name, pair in data["edges"].items():
        _require(_is_names(pair) and len(pair) == 2,
                 f"edge sort {name!r} needs [source sort, target sort]")
        edges[name] = (pair[0], pair[1])
    return SortSignature(data["nodes"], edges)


def _parse_algebra(data) -> Algebra:
    if data == "nat":
        return NatPlus()
    if isinstance(data, dict) and "enum" in data:
        return FiniteEnum(str(v) for v in _list_field(data, "enum", "algebra"))
    if isinstance(data, dict) and "terms" in data:
        _require(_is_names(data["terms"]), "algebra: 'terms' must be a list of names")
        return TermAlg(data["terms"])
    raise ValidationError(f"unknown algebra declaration {data!r}")


def _parse_label(raw, algebra: Algebra, where: str, kind: str, ident: str) -> Value:
    # the location is formatted only when the label is refused
    if isinstance(algebra, FiniteEnum):
        value = str(raw)
        if algebra.contains(value):
            return value
        raise ValidationError(
            f"{where} {kind} {ident!r}: label {raw!r} is not an enumerated value")
    if isinstance(algebra, NatPlus):
        if isinstance(raw, int) and not isinstance(raw, bool) and raw >= 0:
            return raw
        raise ValidationError(
            f"{where} {kind} {ident!r}: natural-number label expected, got {raw!r}")
    if isinstance(raw, bool):
        raise ValidationError(f"{where} {kind} {ident!r}: term label expected, got {raw!r}")
    if isinstance(raw, int):
        return Lit(raw)
    try:
        term = parse_term(str(raw))
    except TermSyntaxError as exc:
        raise ParseError(f"{where} {kind} {ident!r}: {exc}") from None
    if not algebra.contains(term):
        raise ValidationError(f"{where} {kind} {ident!r}: term {raw!r} uses undeclared symbols")
    return term


def _parse_labels(raw, algebra: Algebra, where: str, kind: str, ident: str) -> LabelSet:
    if not isinstance(raw, list):
        raise ValidationError(f"{where} {kind} {ident!r}: 'label' must be a list")
    if not raw:
        return EMPTY_LABELS
    return LabelSet([_parse_label(v, algebra, where, kind, ident) for v in raw])


def _parse_graph(data, signature: SortSignature, algebra: Algebra,
                 where: str) -> AttributedGraph:
    if not isinstance(data, dict):
        raise ValidationError(f"{where} must be an object")
    nodes = {}
    edges = {}
    labeling = {}
    for entry in _list_field(data, "nodes", where):
        if not (isinstance(entry, dict) and "id" in entry and "sort" in entry):
            raise ValidationError(f"{where}: node needs 'id' and 'sort'")
        nid = str(entry["id"])
        if nid in nodes:
            raise ValidationError(f"{where}: duplicate node id {nid!r}")
        sort = entry["sort"]
        if not isinstance(sort, str):
            raise ValidationError(f"{where}: node {nid!r} needs a sort name")
        nodes[nid] = sort
        labeling[nid] = _parse_labels(entry.get("label", []), algebra, where, "node", nid)
    for entry in _list_field(data, "edges", where):
        if not isinstance(entry, dict):
            raise ValidationError(f"{where}: edge must be an object")
        if not ("id" in entry and "sort" in entry and "src" in entry and "tgt" in entry):
            missing = next(key for key in ("id", "sort", "src", "tgt") if key not in entry)
            raise ValidationError(f"{where}: edge needs {missing!r}")
        eid = str(entry["id"])
        sort = entry["sort"]
        if not isinstance(sort, str):
            raise ValidationError(f"{where}: edge {eid!r} needs a sort name")
        if eid in edges:
            raise ValidationError(f"{where}: duplicate edge id {eid!r}")
        src = str(entry["src"])
        if src not in nodes:
            raise ValidationError(
                f"{where}: edge {eid!r} names unknown source node {entry['src']!r}")
        tgt = str(entry["tgt"])
        if tgt not in nodes:
            raise ValidationError(
                f"{where}: edge {eid!r} names unknown target node {entry['tgt']!r}")
        edges[eid] = (sort, src, tgt)
        labeling[eid] = _parse_labels(entry.get("label", []), algebra, where, "edge", eid)
    try:
        graph = Graph(signature, nodes, edges)
        return AttributedGraph(graph, algebra, labeling)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _parse_map(data, source: AttributedGraph, target: AttributedGraph,
               alpha: AlgebraMorphism, where: str) -> AttrMorphism:
    _require(isinstance(data, dict), f"{where} must be an object with 'nodes' and 'edges'")
    _require(isinstance(data.get("nodes", {}), dict) and isinstance(data.get("edges", {}), dict),
             f"{where}: 'nodes' and 'edges' must be objects")
    node_map = {str(k): str(v) for k, v in data.get("nodes", {}).items()}
    edge_map = {str(k): str(v) for k, v in data.get("edges", {}).items()}
    try:
        sigma = GraphMorphism(source.graph, target.graph, node_map, edge_map)
        return AttrMorphism(source, target, sigma, alpha)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _parse_rule(data, signature: SortSignature, host_algebra: Algebra) -> WeakSpan:
    _require(isinstance(data, dict), "each rule must be an object")
    _require("name" in data, "rule needs a 'name'")
    name = str(data["name"])
    where = f"rule {name!r}"
    if isinstance(host_algebra, FiniteEnum):
        _require(not data.get("variables"),
                 f"{where}: enumerated systems use variable-free rules")
        rule_alg: Algebra = host_algebra
    else:
        rule_alg = TermAlg(str(v) for v in _list_field(data, "variables", where))
    graphs = {}
    for tag in ("L", "K", "I", "R"):
        _require(tag in data, f"{where} needs graph {tag!r}")
        graphs[tag] = _parse_graph(data[tag], signature, rule_alg, f"{where} {tag}")
    ident = AlgebraMorphism.identity(rule_alg)
    l = _parse_map(data.get("l"), graphs["K"], graphs["L"], ident, f"{where} map l")
    i = _parse_map(data.get("i"), graphs["I"], graphs["K"], ident, f"{where} map i")
    r = _parse_map(data.get("r"), graphs["I"], graphs["R"], ident, f"{where} map r")
    return WeakSpan(name=name, L=graphs["L"], K=graphs["K"], I=graphs["I"],
                    R=graphs["R"], l=l, i=i, r=r)


# The last text with rules that loaded in full, and the signature, algebra
# and rules it parsed to.  A load of the same text shares those rules, and
# with them the search plans kept on their left sides, so nothing may change
# a loaded rule's graphs or maps in place.  The key is the text itself:
# parsed JSON compares 1, 1.0 and true equal, but they load differently.
_LAST: tuple[str, SortSignature, Algebra, tuple[WeakSpan, ...]] | None = None


def loads_system(text: str, source: str = "<string>") -> SystemSpec:
    """Parse a system file's text.  The host is parsed on every call; the
    rules of a text loaded before are the same objects, in a new list.  A
    ValueError raised while it loads is relayed after ``source``: as a
    ParseError if it is one, else as a ValidationError."""
    try:
        return _loads(text)
    except ValueError as exc:
        kind = ParseError if isinstance(exc, ParseError) else ValidationError
        raise kind(f"{source}: {exc}") from None


def _loads(text: str) -> SystemSpec:
    global _LAST
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ParseError("JSON nests too deeply") from None
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    _require(isinstance(data, dict), "top level must be an object")
    _require("sorts" in data, "missing 'sorts'")
    _require("algebra" in data, "missing 'algebra'")
    if _LAST is not None and _LAST[0] == text:
        _, signature, algebra, rules = _LAST
    else:
        signature = _parse_signature(data["sorts"])
        algebra = _parse_algebra(data["algebra"])
        entries = data.get("rules", [])
        _require(isinstance(entries, list), "'rules' must be a list")
        rules = tuple(_parse_rule(entry, signature, algebra) for entry in entries)
        names: set[str] = set()
        for rule in rules:
            _require(rule.name not in names, f"duplicate rule name {rule.name!r}")
            names.add(rule.name)
    host = None
    if "host" in data:
        host = _parse_graph(data["host"], signature, algebra, "host")
    elif "nodes" in data or "edges" in data:
        host = _parse_graph(data, signature, algebra, "host")
    if rules:   # a text with no rules has nothing to share
        _LAST = (text, signature, algebra, rules)
    return SystemSpec(signature=signature, algebra=algebra, rules=list(rules), host=host)


def load_system(path) -> SystemSpec:
    """Read a system file as UTF-8, JSON's interchange encoding, whatever the
    locale; bytes that are not UTF-8 are a ParseError that starts with the
    path, as every other refusal of the file does."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return loads_system(text, source=str(path))


def _signature_json(signature: SortSignature):
    return {"nodes": sorted(signature.node_sorts),
            "edges": {name: list(signature.edge_sorts[name])
                      for name in sorted(signature.edge_sorts)}}


def _algebra_json(algebra: Algebra):
    if isinstance(algebra, NatPlus):
        return "nat"
    if isinstance(algebra, FiniteEnum):
        return {"enum": sorted(algebra.values)}
    if isinstance(algebra, TermAlg):
        return {"terms": sorted(algebra.variables)}
    raise ValueError(f"cannot serialize algebra {algebra!r}")


# Saved files are exactly the text json.dumps writes with an indent of 2 and
# ASCII escapes.  Given an indent, the stdlib takes its pure-Python encoder;
# the writer below builds the same text around the C string escaper that
# encoder uses.

def _value_text(v: Value) -> str:
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, str):
        return _quote(v)
    return _quote(render_term(v))


def _bracketed(items: list[str], depth: int, brackets: str) -> str:
    """Written items (values, or `"key": value` members) inside `brackets`,
    "[]" or "{}", as a list or object that starts at `depth`."""
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth + brackets[1]


def _graph_members(graph: AttributedGraph, depth: int) -> list[str]:
    """The "nodes" and "edges" members of a graph object whose members sit at
    `depth`.  Each record is filled into one fixed template, and each
    distinct label set, sort name and node id is written once."""
    end = "\n" + "  " * (depth + 1)
    fields = end + "  "
    item = fields + "  "
    labeling = graph.labeling
    label_text = {}
    for labels in set(labeling.values()):
        try:
            values = ("," + item).join(map(_value_text, sorted(labels, key=value_sort_key)))
        except ValueError:   # an integer longer than the interpreter writes in decimal
            continue
        label_text[labels] = "[" + item + values + fields + "]" if labels else "[]"
    if len(label_text) < len(set(labeling.values())):   # refuse at the first, in id order
        x = next(x for x in graph.element_ids() if labeling[x] not in label_text)
        raise ValueError(f"label set {labeling[x].render()} on element {x!r} holds a value "
                         "too long to write")
    signature = graph.graph.signature
    sort_text = {s: _quote(s) for s in (*signature.node_sorts, *signature.edge_sorts)}
    nodes, edges = graph.graph.nodes, graph.graph.edges
    node_text = {n: _quote(n) for n in nodes}
    node = "{" + fields + '"id": %s,' + fields + '"sort": %s,' + fields + '"label": %s' + end + "}"
    edge = ("{" + fields + '"id": %s,' + fields + '"sort": %s,' + fields + '"src": %s,'
            + fields + '"tgt": %s,' + fields + '"label": %s' + end + "}")
    node_records = [node % (node_text[n], sort_text[nodes[n]], label_text[labeling[n]])
                    for n in sorted(nodes)]
    edge_records = []
    for e in sorted(edges):
        sort, src, tgt = edges[e]
        edge_records.append(edge % (_quote(e), sort_text[sort], node_text[src], node_text[tgt],
                                    label_text[labeling[e]]))
    return ['"nodes": ' + _bracketed(node_records, depth, "[]"),
            '"edges": ' + _bracketed(edge_records, depth, "[]")]


def _text(value, depth: int) -> str:
    """`value` as json.dumps writes it with an indent of 2 when it starts at
    `depth`: a dict with string keys, a list, a string, an int, or an
    AttributedGraph, written as the object of its nodes and edges."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, list):
        return _bracketed([_text(v, depth + 1) for v in value], depth, "[]")
    if isinstance(value, dict):
        return _bracketed([_quote(k) + ": " + _text(v, depth + 1) for k, v in value.items()],
                          depth, "{}")
    if isinstance(value, AttributedGraph):
        return _bracketed(_graph_members(value, depth + 1), depth, "{}")
    raise TypeError(f"cannot write a {type(value).__name__} to a system file")


def _map_json(m: AttrMorphism):
    return {"nodes": {k: m.sigma.node_map[k] for k in sorted(m.sigma.node_map)},
            "edges": {k: m.sigma.edge_map[k] for k in sorted(m.sigma.edge_map)}}


def _rule_fields(rule: WeakSpan) -> dict:
    out = {"name": rule.name}
    if isinstance(rule.algebra, TermAlg):
        out["variables"] = sorted(rule.algebra.variables)
    for tag in ("L", "K", "I", "R"):
        out[tag] = getattr(rule, tag)
    out["l"] = _map_json(rule.l)
    out["i"] = _map_json(rule.i)
    out["r"] = _map_json(rule.r)
    return out


def save_graph(graph: AttributedGraph, path) -> None:
    """Write one graph as a standalone file that load_system reads back."""
    members = ['"sorts": ' + _text(_signature_json(graph.graph.signature), 1),
               '"algebra": ' + _text(_algebra_json(graph.algebra), 1),
               *_graph_members(graph, 1)]
    Path(path).write_text(_bracketed(members, 0, "{}") + "\n", encoding="utf-8")


def save_system(system: SystemSpec, path) -> None:
    data = {"sorts": _signature_json(system.signature),
            "algebra": _algebra_json(system.algebra),
            "rules": [_rule_fields(rule) for rule in system.rules]}
    if system.host is not None:
        data["host"] = system.host
    Path(path).write_text(_text(data, 0) + "\n", encoding="utf-8")


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(graph: AttributedGraph, path) -> None:
    """Write a deterministic DOT rendering, in UTF-8: labels as node text,
    sorts on edges."""
    lines = ["digraph weakspan {"]
    for n in sorted(graph.graph.nodes):
        text = f"{n} {graph.label(n).render()}"
        lines.append(f"  {_dot_quote(n)} [label={_dot_quote(text)}];")
    ordered = sorted(graph.graph.edges,
                     key=lambda e: (graph.graph.edges[e][1], graph.graph.edges[e][2],
                                    graph.graph.edges[e][0], e))
    for e in ordered:
        sort, src, tgt = graph.graph.edges[e]
        text = sort if not graph.label(e) else f"{sort} {graph.label(e).render()}"
        lines.append(f"  {_dot_quote(src)} -> {_dot_quote(tgt)} [label={_dot_quote(text)}];")
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
