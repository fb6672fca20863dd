"""Ready-made example systems."""

from __future__ import annotations

from .algebras import LabelSet, NatPlus, OpApp, TermAlg, Var
from .attrgraphs import AttributedGraph, inclusion
from .graphs import Graph, SortSignature
from .rewriting import SystemSpec, WeakSpan


def fibonacci_system() -> SystemSpec:
    """Two registers x -> y holding consecutive Fibonacci numbers.

    Rule "shift" copies y into x; rule "sum" replaces y with x + y.  Each rule
    keeps the value it reads and erases only the register it overwrites, so
    both can fire on the same pair at once: the joint step maps (a, b) to
    (b, a + b).  One at a time they interfere, because the first application
    rewrites a register the other one's left side still expects.
    """
    signature = SortSignature(["reg"], {"next": ("reg", "reg")})
    shape = Graph(signature, {"x": "reg", "y": "reg"}, {"e": ("next", "x", "y")})
    terms = TermAlg(("u", "v"))
    u, v = Var("u"), Var("v")

    def obj(x_labels, y_labels):
        return AttributedGraph(shape, terms, {
            "x": LabelSet(x_labels), "y": LabelSet(y_labels), "e": LabelSet()})

    L = obj([u], [v])
    I = obj([], [])

    def rule(name, keep_x, keep_y, write_x, write_y):
        K = obj(keep_x, keep_y)
        R = obj(write_x, write_y)
        return WeakSpan(name=name, L=L, K=K, I=I, R=R,
                        l=inclusion(K, L), i=inclusion(I, K), r=inclusion(I, R))

    shift = rule("shift", [], [v], [v], [])
    total = rule("sum", [u], [], [], [OpApp("+", (u, v))])

    host = AttributedGraph(shape, NatPlus(), {
        "x": LabelSet([1]), "y": LabelSet([2]), "e": LabelSet()})
    return SystemSpec(signature=signature, algebra=NatPlus(), rules=[shift, total],
                      host=host)
